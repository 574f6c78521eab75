"""Benchmark of the cuplength engine: one workload, timed from outside, checked for correctness.

Run from the root of a checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 35 --trace 0

The workload runs in passes.  A pass runs the workload's groups of
operations back to back, each group in a fresh interpreter (worker.py) that
imports the package from src/, generates the inputs from the seed, runs its
operations on one thread and checks every answer.  Passes repeat until the
next one would end after --seconds.  The last line of stdout is one JSON
object: with --trace 0 it holds the end-to-end metrics of BENCHMARK.json
(medians over passes), with --trace 1 the per-layer metrics, from passes that
alternate between untraced and traced.  One line per pass goes to stderr.

Each interpreter gets a wall-time budget and an address-space cap, so a
runaway regression ends as failed operations rather than as a hung run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
from worker import WORKLOADS, clock  # noqa: E402

RUN_BUDGET_S = 150  # every interpreter of a run ends by then; the run exits well within 180 s
ADDRESS_SPACE_CAP = 1 << 30  # bytes; the largest workload peaks near 70 MB resident
# Layer figures made of counts: every traced pass of a run must give the same values.
COUNT_SUFFIXES = (".calls", ".pivots", ".zero", ".monomials", ".hits", ".misses", ".useful_ratio")


def declared_metrics() -> dict[str, list]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: spec[key] for key in ("end_to_end", "per_layer")}


def limit_child(seconds: float):
    """Resource caps applied in the child between fork and exec."""

    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
        cpu = int(seconds) + 1
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 5))

    return apply


def run_group(args, work_dir: str, group: int, deadline: float, trace: bool) -> dict:
    """Run one group of operations in a fresh interpreter and summarize what it reported."""
    budget = deadline - clock()
    # Without a bytecode cache every interpreter compiles the package afresh, so
    # set-up does not depend on what an earlier run left in the checkout.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    spawned_at = clock()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--group", str(group), "--work-dir", work_dir, "--spawned-at", repr(spawned_at)]
    cmd += ["--trace"] * trace
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=limit_child(budget))
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after its {budget:.0f} s budget"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass
    ready = next((x for x in lines if "ready" in x), None)
    ops = [x for x in lines if "op" in x]
    final = next((x for x in lines if "failed" in x), None)
    attempted = ready["ops"] if ready else 1
    ok = 0
    if final is not None and proc.returncode == 0:
        ok = sum(1 for x in ops if x["error"] is None and x["op"] not in final["failed"])
    if ok < attempted:
        errors = [x["error"] for x in ops if x["error"]] + err.strip().splitlines()
        detail = errors[0] if errors else "no output"
        print(f"{args.workload} group {group}: {attempted - ok} of {attempted} operations failed: {detail}",
              file=sys.stderr)
    return {
        "groups": ready["groups"] if ready else None,
        "setup_s": ready["ready"] if ready else None,
        "attempted": attempted,
        "failed": attempted - ok,
        "wall_s": sum(x["wall"] for x in ops),
        "cpu_s": sum(x["cpu"] for x in ops),
        "peak_rss_mb": final["maxrss_kb"] / 1024 if final else 0.0,
        "layers": final["layers"] if final else None,
    }


def run_pass(args, work_dir: str, deadline: float, trace: bool) -> dict:
    """Run every group of the workload once; times add up, peak RSS is the largest."""
    os.makedirs(work_dir)
    children = [run_group(args, work_dir, 0, deadline, trace)]
    while children[-1]["groups"] and len(children) < children[-1]["groups"] and not children[-1]["failed"]:
        children.append(run_group(args, work_dir, len(children), deadline, trace))
    expected = children[0]["groups"] or 1
    layers = None
    if trace and all(c["layers"] for c in children) and len(children) == expected:
        layers = {name: sum(c["layers"][name] for c in children) for name in children[0]["layers"]}
        calls = layers["gf2linalg.add.calls"]
        layers["gf2linalg.add.useful_ratio"] = layers["gf2linalg.add.pivots"] / calls if calls else 0.0
    return {
        "trace": trace,
        "setups": [c["setup_s"] for c in children],
        "attempted": sum(c["attempted"] for c in children) + expected - len(children),
        "failed": sum(c["failed"] for c in children) + expected - len(children),
        "wall_s": sum(c["wall_s"] for c in children),
        "cpu_s": sum(c["cpu_s"] for c in children),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "cuplength", "__init__.py")):
        print("bench: no src/cuplength package in this checkout", file=sys.stderr)
        return 2
    declared = declared_metrics()

    start = clock()
    deadline = start + RUN_BUDGET_S
    run_dir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    passes = []
    while True:
        now = clock()
        if len(passes) >= 1 + args.trace:
            next_pass = max(p["elapsed"] for p in passes[-2:])
            if now - start + next_pass > args.seconds or deadline - now < 1:
                break
        p = run_pass(args, os.path.join(run_dir, f"pass{len(passes)}"), deadline,
                     bool(args.trace and len(passes) % 2))
        p["elapsed"] = clock() - now
        passes.append(p)
        print(f"{args.workload} pass {len(passes) - 1}{' traced' if p['trace'] else ''}: "
              f"wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
              f"setup {statistics.median(s or 0.0 for s in p['setups']):.3f} s, "
              f"rss {p['peak_rss_mb']:.1f} MB", file=sys.stderr)
        if p["failed"]:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    untraced = [p for p in passes if not p["trace"]]
    if not args.trace:
        wanted = declared["end_to_end"]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": statistics.median(s or 0.0 for p in untraced for s in p["setups"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_ratio": (attempted - failed) / attempted,
        }
    else:
        wanted = declared["per_layer"]
        traced = [p for p in passes if p["trace"] and p["layers"]]
        if not traced:
            correct = False
            metrics = dict.fromkeys((m["name"] for m in wanted), 0.0)
        else:
            metrics = {}
            for name in traced[0]["layers"]:
                values = [p["layers"][name] for p in traced]
                if name.endswith(COUNT_SUFFIXES):
                    metrics[name] = values[0]
                    if len(set(values)) > 1:
                        print(f"bench: {name} differs between traced passes: {values}", file=sys.stderr)
                        correct = False
                else:
                    metrics[name] = statistics.median(values)
            metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                           - statistics.median(p["wall_s"] for p in untraced))

    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        print(f"bench: metrics {sorted(set(metrics) ^ names)} are not both declared and measured",
              file=sys.stderr)
        return 2
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
