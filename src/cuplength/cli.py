"""Command-line front end: ring tables, heights, bounds, verification, sweeps."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, astuple

from .bounds import full_report, summarize_oriented
from .checks import CHECKS
from .gf2poly import Gf2Polynomial, ideal_gens_k3, parse_polynomial
from .grassmann import (
    MAX_DEGREE,
    GrassmannPresentation,
    OrientedSummary,
    SizeCapExceeded,
    formal_dimension,
    gaussian_binomial,
    load_record,
    oriented_quotient,
    save_record,
)
from .heights import ZeroClassError, closed_form_w2_height, height_direct
from .schubert import SchubertRing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_UNDEFINED = 3
EXIT_PARTIAL = 4

CSV_COLUMNS = (
    "n",
    "k",
    "field",
    "lower",
    "lower_method",
    "upper",
    "upper_method",
    "cat_lower",
    "cat_upper",
    "exact",
)

FIELDS = {"gf2": ("Z2",), "rational": ("Q",), "both": ("Z2", "Q")}


def _emit(fmt: str, payload, columns: tuple, rows, text: list[str]) -> None:
    """Write one result as a JSON payload, a CSV table of rows, or text lines."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        print("\n".join(text))


def _max_degree(args) -> int:
    """The --max-degree cap, validated; bounds and sweep also validate --cache-dir here."""
    if args.max_degree < 1:
        raise ValueError("--max-degree must be positive")
    if getattr(args, "cache_dir", None) and not os.path.isdir(args.cache_dir):
        raise ValueError(f"--cache-dir {args.cache_dir!r} is not an existing directory")
    return args.max_degree


def _rational_undefined(args) -> bool:
    """Whether rational bounds are asked for at k < 4, which bounds and sweep refuse."""
    if "Q" in FIELDS[args.field] and args.k < 4:
        print(f"rational bounds are undefined for k = {args.k} (need k >= 4)", file=sys.stderr)
        return True
    return False


def _cached_summary(n: int, k: int, args, max_degree: int) -> OrientedSummary:
    """Oriented ring summary, through the record cache when one is configured."""
    formal_dimension(n, k, max_degree)  # before the cache, so a warm run refuses what a cold run does
    if args.cache_dir:
        summary = load_record(args.cache_dir, n, k)
        if summary is not None:
            return summary
    summary = summarize_oriented(oriented_quotient(n, k, max_degree))
    if args.cache_dir:
        save_record(args.cache_dir, summary)
    return summary


def _build_report(n: int, k: int, field_tag: str, args, max_degree: int):
    summary = _cached_summary(n, k, args, max_degree) if field_tag == "Z2" else None
    return full_report(n, k, field_tag, summary=summary)


def _report_row(report) -> tuple:
    return (
        report.n,
        report.k,
        report.field_tag,
        report.lower,
        report.lower_method,
        report.upper,
        report.upper_method,
        report.cat_lower,
        report.cat_upper,
        "true" if report.exact else "false",
    )


def _report_text(report) -> list[str]:
    lines = [
        f"bounds for oriented ({report.n}, {report.k}) over {report.field_tag} "
        f"(formal dimension {report.k * (report.n - report.k)})",
        f"cup lower {report.lower} [{report.lower_method}]  "
        f"upper {report.upper} [{report.upper_method}]  gap {report.upper - report.lower}",
        f"table values: lower {report.paper_lower} [{report.paper_lower_method}]  "
        f"upper {report.paper_upper} [{report.paper_upper_method}]",
        f"category: lower {report.cat_lower}  upper {report.cat_upper}  "
        f"(table lower {report.paper_cat_lower})",
        f"exact: {'yes' if report.exact else 'no'}",
    ]
    if report.certificates:
        lines.append("certificates:")
        lines.extend(f"  {name}: {detail}" for name, detail in report.certificates)
    return lines


def cmd_ring(args) -> int:
    n, k = args.n, args.k
    pres = GrassmannPresentation(n, k, _max_degree(args), ranks_only=True)
    betti = pres.betti()
    total = sum(betti)
    binomial = math.comb(n, k)
    palindromic = betti == betti[::-1]
    payload = {
        "n": n,
        "k": k,
        "formal_dim": pres.N,
        "betti": betti,
        "total": total,
        "binomial": binomial,
        "palindromic": palindromic,
    }
    text = [
        f"ring ({n}, {k}): formal dimension {pres.N}",
        "b_d: " + " ".join(str(b) for b in betti),
        f"total {total}, binomial C({n},{k}) = {binomial}, match: {'yes' if total == binomial else 'NO'}",
        f"palindromic: {'yes' if palindromic else 'NO'}",
    ]
    _emit(args.format, payload, ("degree", "betti"), enumerate(betti), text)
    if betti != gaussian_binomial(n, k):
        raise RuntimeError(f"the Betti numbers of ({n}, {k}) differ from the Gaussian binomial coefficients")
    return EXIT_OK


def cmd_ideal_gens(args) -> int:
    n, k = args.n, args.k
    pres = GrassmannPresentation(n, k, _max_degree(args))
    columns = ("degree", "polynomial")
    rows = [(n - k + 1 + i, g.render()) for i, g in enumerate(pres.ideal_gens)]
    payload = {"n": n, "k": k, "generators": [dict(zip(columns, row)) for row in rows]}
    text = [f"degree {d}: {p}" for d, p in rows]
    agrees = None
    if k == 3:
        closed = ideal_gens_k3(n)
        agrees = closed == pres.oriented().ideal_gens
        closed_rows = [(n - 2 + i, g.render()) for i, g in enumerate(closed)]
        payload["reduced_closed_form"] = [dict(zip(columns, row)) for row in closed_rows]
        payload["closed_form_agrees"] = agrees
        text += [f"reduced closed form degree {d}: {p}" for d, p in closed_rows]
        text.append(f"closed form vs series reduction: {'AGREE' if agrees else 'DISAGREE'}")
    _emit(args.format, payload, columns, rows, text)
    return EXIT_CHECK if agrees is False else EXIT_OK


def cmd_height(args) -> int:
    n, k = args.n, args.k
    max_degree = _max_degree(args)
    weights = tuple(range(1, k + 1))
    poly = parse_polynomial(args.cls, weights)
    closed = None
    if args.oriented:
        ctx = oriented_quotient(n, k, max_degree)
        reduced = poly.substitute_zero(1)
        if poly and not reduced:
            raise ZeroClassError(
                f"{poly.render()} is zero in the oriented-characteristic quotient for ({n}, {k})"
            )
        record = height_direct(ctx, reduced)
    else:
        record = height_direct(SchubertRing(n, k, max_degree), poly)
        if poly == Gf2Polynomial.variable(weights, 2):
            closed = closed_form_w2_height(n, k)
    marker = None
    if closed is not None:
        marker = "AGREE" if closed == record.height else "DISAGREE"
    payload = dict(asdict(record), closed_form=closed, closed_form_marker=marker)
    columns = ("class", "context", "n", "k", "height", "witness_nonzero", "witness_zero")
    text = [
        f"height of {record.class_label} in {record.context} ({n}, {k}): {record.height}",
        f"witness: power {record.height} nonzero in degree {record.witness_nonzero}; "
        f"power {record.witness_zero} zero",
    ]
    if marker is not None:
        text.append(f"closed form: {closed} ({marker})")
    _emit(args.format, payload, columns, [astuple(record)], text)
    return EXIT_OK if marker != "DISAGREE" else EXIT_CHECK


def cmd_bounds(args) -> int:
    max_degree = _max_degree(args)
    if _rational_undefined(args):
        return EXIT_UNDEFINED
    reports = [_build_report(args.n, args.k, tag, args, max_degree) for tag in FIELDS[args.field]]
    payload = [asdict(r) for r in reports]
    text = []
    for r in reports:
        if text:
            text.append("")
        text += _report_text(r)
    rows = [_report_row(r) for r in reports]
    _emit(args.format, payload[0] if len(payload) == 1 else payload, CSV_COLUMNS, rows, text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    k, n_min = args.k, args.n_min
    max_degree = _max_degree(args)
    if k < 3 or n_min < 2 * k:
        raise ValueError(f"sweep range must respect n >= 2k >= 6, got k={k}, n_min={n_min}")
    if n_min > args.n_max:
        raise ValueError(f"sweep range is empty: n_min={n_min} exceeds n_max={args.n_max}")
    if _rational_undefined(args):
        return EXIT_UNDEFINED
    rows = []
    failed = False
    for n in range(n_min, args.n_max + 1):
        for tag in FIELDS[args.field]:
            try:
                rows.append(_report_row(_build_report(n, k, tag, args, max_degree)))
            except Exception as exc:
                failed = True
                message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                rows.append((n, k, tag, "", f"error: {message}", "", "", "", "", ""))
    payload = [dict(zip(CSV_COLUMNS, row)) for row in rows]
    text = [" ".join(CSV_COLUMNS)] + [" ".join(str(c) for c in row) for row in rows]
    _emit(args.format, payload, CSV_COLUMNS, rows, text)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_verify(args) -> int:
    if args.only is not None and args.only not in CHECKS:
        print(f"unknown check {args.only!r}; available: {', '.join(CHECKS)}", file=sys.stderr)
        return EXIT_USAGE
    if args.max_n is not None and args.max_n < 6:
        raise ValueError("--max-n must be at least 6")
    failures = 0
    for name, check in CHECKS.items():
        if args.only not in (None, name):
            continue
        for anchor, ok, detail in check(args.max_n):
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {name}: {anchor}: {detail}")
    print(f"verify: {'all checks passed' if failures == 0 else f'{failures} failures'}")
    return EXIT_OK if failures == 0 else EXIT_CHECK


OPTIONS = {
    "--format": {"choices": ("text", "json", "csv"), "default": "text"},
    "--max-degree": {"type": int, "default": MAX_DEGREE, "metavar": "DIM"},
    "--oriented": {"action": "store_true"},
    "--cache-dir": {"default": None},
    "--field": {"choices": ("gf2", "rational", "both"), "default": "gf2"},
    "--only": {"default": None, "metavar": "CHECK"},
    "--max-n": {"type": int, "default": None},
}

RING_OPTIONS = ("--format", "--max-degree")
REPORT_OPTIONS = RING_OPTIONS + ("--cache-dir", "--field")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuplength",
        description="Exact cup-length and category bounds for oriented Grassmann manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command accepts only the options it reads.
    for name, run, help_text, positionals, options in (
        ("ring", cmd_ring, "Betti table with duality checks", ("n", "k"), RING_OPTIONS),
        ("ideal-gens", cmd_ideal_gens, "ideal generators of the presentation", ("n", "k"), RING_OPTIONS),
        (
            "height",
            cmd_height,
            "height of a class in the quotient",
            ("n", "k", "cls"),
            RING_OPTIONS + ("--oriented",),
        ),
        ("bounds", cmd_bounds, "cup-length and category bounds", ("n", "k"), REPORT_OPTIONS),
        ("verify", cmd_verify, "run the anchored value checks", (), ("--only", "--max-n")),
        ("sweep", cmd_sweep, "bound reports over a range of n", ("k", "n_min", "n_max"), REPORT_OPTIONS),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for arg in positionals:
            if arg == "cls":
                p.add_argument(arg, metavar="class", help="polynomial, e.g. 'w2' or 'w2^2*w3 + w3^3'")
            else:
                p.add_argument(arg, type=int)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.run(args)
    except BrokenPipeError:
        raise  # handled in entry()
    except ZeroClassError as exc:
        print(f"undefined query: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"out of memory: cuplength {args.command} needs more memory than it may use", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`cuplength ... | head`): not an
        # error.  Point stdout at devnull so the flush at exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_OK
    except KeyboardInterrupt:
        print("interrupted (Ctrl-C)", file=sys.stderr)
        code = 130  # 128 + SIGINT, the shell's convention
    sys.exit(code)


if __name__ == "__main__":
    entry()
