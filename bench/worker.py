"""One benchmark pass in a fresh interpreter: set up, run a workload's operations, check them.

run.py starts this script with PYTHONPATH pointing at the checkout's src/.  It
writes JSON lines to stdout:

  {"ready": s, "ops": n}          the package is imported and the inputs exist;
                                  s is the time since run.py spawned us
  {"op": i, "wall": s, "cpu": s, "error": text or null}
                                  one per operation, once all have run
  {"failed": [...], "maxrss_kb": n, "layers": {...} or null}
                                  after every answer has been checked

An operation is one CLI invocation (through ``cuplength.cli.main``, with its
output captured in memory) or one library query.  Only the operations are
timed.  Their answers are checked after the last one has run, so the checks
neither add to the timings nor warm the ladders the operations use.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("ladder", "sweep", "queries")
DEFAULT_SEED = 1

LADDER_ITEMS = (("ring", "24", "4"), ("ring", "16", "5"), ("ring", "13", "6"))
SWEEP_ITEMS = (("sweep", "6", "12", "16"), ("sweep", "7", "14", "16"), ("sweep", "5", "10", "20"))
VERIFY_ITEM = ("verify", "--max-n", "16")

# (n, k) rings of the queries workload, and the number of queries of each
# kind drawn per ring: heights and normal forms in each of the unoriented and
# oriented rings, memberships through both k = 3 routes.
QUERY_RINGS = ((16, 3), (24, 3), (10, 4), (12, 4), (10, 5), (11, 5))
HEIGHTS_PER_CONTEXT = 10
PRODUCTS_PER_CONTEXT = 60
MEMBERSHIPS_PER_RING = 60


def clock() -> float:
    """System-wide monotonic clock, comparable between run.py and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv) -> list:
    """Run one CLI invocation in-process; returns [exit code, sha256 of stdout]."""
    from cuplength import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, digest(out.getvalue())]


def cli_op(argv, key: str, expected: dict, label: str | None = None):
    """An operation whose answer must equal the exit code and digest captured for key."""
    want = expected["cli"][key]
    return (label or key, lambda: run_cli(argv), lambda answer: answer == want)


def ladder_groups(rng, work_dir, expected):
    items = list(LADDER_ITEMS)
    rng.shuffle(items)
    return [[cli_op(item, " ".join(item), expected)] for item in items]


def sweep_groups(rng, work_dir, expected):
    """Each sweep twice: cold into a fresh cache directory, then warm from it."""
    items = list(SWEEP_ITEMS)
    rng.shuffle(items)
    groups = []
    for item in items:
        key = " ".join(item)
        cache = os.path.join(work_dir, "cache-" + "-".join(item[1:]))
        os.makedirs(cache, exist_ok=True)
        argv = item + ("--cache-dir", cache)
        groups += [[cli_op(argv, key, expected, key + " cold")], [cli_op(argv, key, expected, key + " warm")]]
    return groups


def exponent_vectors(weights, degree):
    """All exponent vectors of the given weighted degree."""
    if len(weights) == 1:
        return [(degree // weights[0],)] if degree % weights[0] == 0 else []
    out = []
    for e in range(degree // weights[-1] + 1):
        out.extend(rest + (e,) for rest in exponent_vectors(weights[:-1], degree - e * weights[-1]))
    return out


def random_class(rng, weights, degree, max_terms):
    """A nonzero homogeneous polynomial: a random set of monomials of one degree."""
    from cuplength.gf2poly import Gf2Polynomial

    monomials = exponent_vectors(weights, degree)
    return Gf2Polynomial(weights, rng.sample(monomials, rng.randint(1, min(max_terms, len(monomials)))))


def queries_groups(rng, work_dir, expected):
    """verify --max-n 16, then one library session of seeded queries on one presentation per ring.

    Classes of degree below n - k + 1, the lowest generator degree, are never
    in the ideal, so every drawn height query is defined.
    """
    from cuplength import grassmann, heights
    from cuplength.gf2poly import Gf2Polynomial

    ops = []
    for n, k in QUERY_RINGS:
        ring = {}
        N = k * (n - k)

        def build(n=n, k=k, ring=ring):
            pres = grassmann.GrassmannPresentation(n, k)
            ring["unoriented"] = pres
            ring["oriented"] = pres.oriented()
            if k == 3:
                ring["adjoined"] = grassmann.w1_adjoined_quotient(n, 3)
            return pres.betti()

        def betti_ok(betti, n=n, k=k):
            return betti == betti[::-1] and sum(betti) == math.comb(n, k)

        ops.append((f"ring {n} {k}", build, betti_ok))

        for mode, lo in (("unoriented", 1), ("oriented", 2)):
            weights = tuple(range(lo, k + 1))
            for _ in range(HEIGHTS_PER_CONTEXT):
                x = random_class(rng, weights, rng.randint(lo, lo + 2), 3)
                d = x.homogeneous_degree()

                def height(x=x, ring=ring, mode=mode):
                    return heights.height_direct(ring[mode], x).height

                def height_ok(h, x=x, d=d, ring=ring, mode=mode, N=N):
                    nf = ring[mode].normal_form
                    return h >= 1 and bool(nf(x**h)) and ((h + 1) * d > N or not nf(x ** (h + 1)))

                ops.append((f"height ({n},{k}) {mode} {x.render()}", height, height_ok))

            for _ in range(PRODUCTS_PER_CONTEXT):
                a = random_class(rng, weights, rng.randint(lo, N // 2), 4)
                b = random_class(rng, weights, rng.randint(lo, N // 2), 4)

                def product(a=a, b=b, ring=ring, mode=mode):
                    return ring[mode].normal_form(a * b)

                def idempotent(r, ring=ring, mode=mode):
                    return ring[mode].normal_form(r) == r

                ops.append((f"nf ({n},{k}) {mode} ({a.render()})*({b.render()})", product, idempotent))

        if k == 3:
            for _ in range(MEMBERSHIPS_PER_RING):
                x = random_class(rng, (2, 3), rng.randint(n - 2, N), 3)
                lifted = Gf2Polynomial((1, 2, 3), [(0,) + t.exps for t in x.terms])

                def routes(x=x, lifted=lifted, n=n, ring=ring):
                    return [grassmann.k3_reduced_membership(n, x), ring["adjoined"].is_zero(lifted)]

                def routes_agree(answer, x=x, ring=ring):
                    return answer[0] == answer[1] == ring["oriented"].is_zero(x)

                ops.append((f"member ({n},3) {x.render()}", routes, routes_agree))

    return [[cli_op(VERIFY_ITEM, " ".join(VERIFY_ITEM), expected)], ops]


# A workload is a list of groups of operations; each group runs in its own
# interpreter.  A CLI invocation is a group of its own, as it is a process of
# its own when a user runs it; the query session shares one interpreter.
GROUPS = {"ladder": ladder_groups, "sweep": sweep_groups, "queries": queries_groups}


def answers_digest(ops, answers) -> str:
    return digest("\n".join(f"{op[0]} = {answer!r}" for op, answer in zip(ops, answers)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--group", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = sys.stdout

    def emit(obj) -> None:
        report.write(json.dumps(obj) + "\n")
        report.flush()

    import cuplength

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(cuplength.__file__).startswith(src):
        raise SystemExit(f"imported {cuplength.__file__}, not the package under {src}")
    # Every engine module is imported here, so set-up covers all imports and the
    # tracer finds every binding of a name it wraps.
    from cuplength import bounds, cli, gf2linalg, gf2poly, grassmann, heights  # noqa: F401

    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    groups = GROUPS[args.workload](random.Random(args.seed), args.work_dir, expected)
    ops = groups[args.group]
    emit({"ready": clock() - args.spawned_at, "ops": len(ops), "groups": len(groups)})

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    answers = []
    errors = []
    timings = []
    with contextlib.redirect_stdout(io.StringIO()):
        for i, (label, run, _) in enumerate(ops):
            error = None
            wall = time.perf_counter()
            cpu = time.process_time()
            try:
                answers.append(tracer.run_op(i, label, run) if tracer else run())
            except Exception as exc:
                answers.append(None)
                error = f"{type(exc).__name__}: {exc}"
            timings.append((time.perf_counter() - wall, time.process_time() - cpu))
            errors.append(error)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Reported only now: a line per operation would wake run.py while the next one is timed.
        for i, ((wall, cpu), error) in enumerate(zip(timings, errors)):
            emit({"op": i, "wall": wall, "cpu": cpu, "error": error})

        failed = []
        for i, ((label, _, check), answer, error) in enumerate(zip(ops, answers, errors)):
            try:
                ok = error is None and check(answer)
            except Exception:
                ok = False
            if not ok:
                failed.append(i)
                print(f"check failed: {label}", file=sys.stderr)
        golden = expected["queries"]
        if args.workload == "queries" and (args.seed, args.group) == (golden["seed"], golden["group"]):
            if answers_digest(ops, answers) != golden["sha256"]:
                failed = list(range(len(ops)))
                print("query answers differ from the golden digest", file=sys.stderr)

    if tracer:
        tracer.write_spans(os.path.join(args.work_dir, f"spans-{args.group}.jsonl"))
    emit({"failed": failed, "maxrss_kb": maxrss_kb, "layers": tracer.layer_metrics() if tracer else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
