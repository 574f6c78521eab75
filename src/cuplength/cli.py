"""Command-line front end: ring tables, heights, bounds, verification, sweeps."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from .bounds import (
    NilpotencyData,
    OrientedSummary,
    PoincareProfile,
    full_report,
    lower_a3,
    prop_b_certificate,
    prop_b_lower,
    prop_d_upper,
    rational_bounds,
    summarize_oriented,
    upper_a1,
    upper_b1,
)
from .gf2poly import Gf2Polynomial, ideal_gens_k3, parse_polynomial
from .grassmann import (
    DEFAULT_CAPS,
    GrassmannPresentation,
    SizeCapExceeded,
    SizeCaps,
    k3_reduced_membership,
    k3_reduced_quotient,
    load_record,
    save_record,
    w1_adjoined_quotient,
)
from .heights import (
    ZeroClassError,
    closed_form_w2_height,
    height_direct,
    tabulated_w2_height,
)
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


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: the shared plumbing options of every command."""

    fmt: str
    cache_dir: str | None
    no_cache: bool
    q_override: int | None
    fields: tuple[str, ...]
    caps: SizeCaps


def _config(args) -> RunConfig:
    fields = {"gf2": ("Z2",), "rational": ("Q",), "both": ("Z2", "Q")}[args.field]
    caps = DEFAULT_CAPS
    if args.max_degree is not None:
        if args.max_degree < 1:
            raise ValueError("--max-degree must be positive")
        caps = SizeCaps(max_formal_dim=args.max_degree, max_basis=caps.max_basis)
    if args.q_override is not None and args.q_override <= 2:
        raise ValueError("--q-override must exceed the first nonzero degree 2")
    return RunConfig(
        fmt=args.format,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        q_override=args.q_override,
        fields=fields,
        caps=caps,
    )


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cached_summary(n: int, k: int, cfg: RunConfig) -> OrientedSummary:
    """Oriented ring summary, through the record cache when one is configured."""
    if cfg.cache_dir and not cfg.no_cache:
        record = load_record(cfg.cache_dir, n, k, "oriented")
        if record is not None:
            return OrientedSummary.from_record(record)
    summary = summarize_oriented(GrassmannPresentation(n, k, cfg.caps))
    if cfg.cache_dir:
        save_record(cfg.cache_dir, summary.to_record())
    return summary


def cmd_ring(n: int, k: int, cfg: RunConfig) -> int:
    pres = GrassmannPresentation(n, k, cfg.caps)
    betti = pres.betti()
    total = sum(betti)
    binomial = math.comb(n, k)
    palindromic = betti == betti[::-1]
    ok = total == binomial and palindromic
    if cfg.fmt == "json":
        _emit_json(
            {
                "n": n,
                "k": k,
                "formal_dim": pres.N,
                "betti": betti,
                "total": total,
                "binomial": binomial,
                "palindromic": palindromic,
            }
        )
    elif cfg.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("degree", "betti"))
        for d, b in enumerate(betti):
            writer.writerow((d, b))
    else:
        print(f"ring ({n}, {k}): formal dimension {pres.N}")
        print("b_d:", " ".join(str(b) for b in betti))
        print(f"total {total}, binomial C({n},{k}) = {binomial}, match: {'yes' if total == binomial else 'NO'}")
        print(f"palindromic: {'yes' if palindromic else 'NO'}")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_ideal_gens(n: int, k: int, cfg: RunConfig) -> int:
    pres = GrassmannPresentation(n, k, cfg.caps)
    rows = [
        {"degree": n - k + 1 + i, "polynomial": g.render()}
        for i, g in enumerate(pres.ideal_gens)
    ]
    agrees = None
    closed_rows = None
    if k == 3:
        closed = ideal_gens_k3(n)
        agrees = closed == pres.oriented().ideal_gens
        closed_rows = [
            {"degree": n - 2 + i, "polynomial": g.render()} for i, g in enumerate(closed)
        ]
    if cfg.fmt == "json":
        payload = {"n": n, "k": k, "generators": rows}
        if k == 3:
            payload["reduced_closed_form"] = closed_rows
            payload["closed_form_agrees"] = agrees
        _emit_json(payload)
    elif cfg.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("degree", "polynomial"))
        for row in rows:
            writer.writerow((row["degree"], row["polynomial"]))
    else:
        for row in rows:
            print(f"degree {row['degree']}: {row['polynomial']}")
        if k == 3:
            for row in closed_rows:
                print(f"reduced closed form degree {row['degree']}: {row['polynomial']}")
            print(f"closed form vs series reduction: {'AGREE' if agrees else 'DISAGREE'}")
    if agrees is False:
        return EXIT_CHECK
    return EXIT_OK


def cmd_height(n: int, k: int, text: str, oriented: bool, cfg: RunConfig) -> int:
    weights = tuple(range(1, k + 1))
    poly = parse_polynomial(text, weights)
    is_w2 = poly == Gf2Polynomial.variable(weights, 2)
    if oriented:
        pres = GrassmannPresentation(n, k, cfg.caps)
        reduced = poly.substitute_zero(1)
        if poly and not reduced:
            raise ZeroClassError(
                f"{poly.render()} is zero in the oriented-characteristic quotient for ({n}, {k})"
            )
        record = height_direct(pres.oriented(), reduced)
    else:
        record = height_direct(SchubertRing(n, k, cfg.caps), poly)
    closed = closed_form_w2_height(n, k) if is_w2 and not oriented else None
    marker = None
    if closed is not None:
        marker = "AGREE" if closed == record.height else "DISAGREE"
    if cfg.fmt == "json":
        payload = asdict(record)
        payload["closed_form"] = closed
        payload["closed_form_marker"] = marker
        _emit_json(payload)
    elif cfg.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("class", "context", "n", "k", "height", "witness_nonzero", "witness_zero"))
        writer.writerow(
            (
                record.class_label,
                record.context,
                record.n,
                record.k,
                record.height,
                record.witness_nonzero,
                record.witness_zero,
            )
        )
    else:
        print(f"height of {record.class_label} in {record.context} ({n}, {k}): {record.height}")
        print(
            f"witness: power {record.height} nonzero in degree {record.witness_nonzero}; "
            f"power {record.witness_zero} zero"
        )
        if marker is not None:
            print(f"closed form: {closed} ({marker})")
    return EXIT_OK if marker != "DISAGREE" else EXIT_CHECK


def _report_rows(report) -> tuple:
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


def _print_report_text(report) -> None:
    print(
        f"bounds for oriented ({report.n}, {report.k}) over {report.field_tag} "
        f"(formal dimension {report.k * (report.n - report.k)})"
    )
    print(
        f"cup lower {report.lower} [{report.lower_method}]  "
        f"upper {report.upper} [{report.upper_method}]  gap {report.upper - report.lower}"
    )
    print(
        f"table values: lower {report.paper_lower} [{report.paper_lower_method}]  "
        f"upper {report.paper_upper} [{report.paper_upper_method}]"
    )
    print(
        f"category: lower {report.cat_lower}  upper {report.cat_upper}  "
        f"(table lower {report.paper_cat_lower})"
    )
    print(f"exact: {'yes' if report.exact else 'no'}")
    if report.certificates:
        print("certificates:")
        for name, detail in report.certificates:
            print(f"  {name}: {detail}")


def _build_report(n: int, k: int, field_tag: str, cfg: RunConfig):
    if field_tag == "Q":
        return full_report(n, k, "Q", q_override=cfg.q_override, caps=cfg.caps)
    summary = _cached_summary(n, k, cfg)
    return full_report(
        n, k, "Z2", q_override=cfg.q_override, caps=cfg.caps, summary=summary
    )


def cmd_bounds(n: int, k: int, cfg: RunConfig) -> int:
    if "Q" in cfg.fields and k < 4:
        print(f"rational bounds are undefined for k = {k} (need k >= 4)", file=sys.stderr)
        return EXIT_UNDEFINED
    reports = [_build_report(n, k, tag, cfg) for tag in cfg.fields]
    if cfg.fmt == "json":
        payload = [asdict(r) for r in reports]
        _emit_json(payload[0] if len(payload) == 1 else payload)
    elif cfg.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(_report_rows(r))
    else:
        for i, r in enumerate(reports):
            if i:
                print()
            _print_report_text(r)
    return EXIT_OK


def cmd_sweep(k: int, n_min: int, n_max: int, cfg: RunConfig) -> int:
    if k < 3 or n_min < 2 * k:
        raise ValueError(f"sweep range must respect n >= 2k >= 6, got k={k}, n_min={n_min}")
    if "Q" in cfg.fields and k < 4:
        print(f"rational bounds are undefined for k = {k} (need k >= 4)", file=sys.stderr)
        return EXIT_UNDEFINED
    rows = []
    failed = False
    for n in range(n_min, n_max + 1):
        for tag in cfg.fields:
            try:
                rows.append(_report_rows(_build_report(n, k, tag, cfg)))
            except Exception as exc:
                failed = True
                message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                rows.append((n, k, tag, "", f"error: {message}", "", "", "", "", ""))
    if cfg.fmt == "json":
        payload = [dict(zip(CSV_COLUMNS, row)) for row in rows]
        _emit_json(payload)
    elif cfg.fmt == "text":
        print(" ".join(CSV_COLUMNS))
        for row in rows:
            print(" ".join(str(c) for c in row))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row)
    return EXIT_PARTIAL if failed else EXIT_OK


def _top(hi: int, max_n: int | None) -> int:
    """The upper end of a check's n range, lowered to --max-n when one is given."""
    return min(hi, max_n) if max_n else hi


def _grid(max_n: int | None, k3_hi: int) -> list[tuple[int, int]]:
    """The (n, k) rings of a grid check: k = 3 up to k3_hi, k = 4 up to 24, k = 5 up to 20."""
    grid = []
    for k, lo, hi in ((3, 6, k3_hi), (4, 8, 24), (5, 10, 20)):
        grid.extend((n, k) for n in range(lo, _top(hi, max_n) + 1))
    return grid


def _check_g_generators(max_n: int | None) -> list[tuple[str, bool, str]]:
    top = _top(64, max_n)
    results = []
    for n in range(6, top + 1):
        ok = ideal_gens_k3(n) == GrassmannPresentation(n, 3).oriented().ideal_gens
        if not ok:
            results.append((f"n={n}", False, "closed form disagrees with series inversion"))
    results.append((f"6 <= n <= {top}", not any(not ok for _, ok, _ in results), "closed form matches series inversion"))
    return results


def _check_generator_identities(max_n: int | None) -> list[tuple[str, bool, str]]:
    w23 = (2, 3)
    expected6 = (
        Gf2Polynomial(w23, [(2, 0)]),
        Gf2Polynomial.zero(w23),
        Gf2Polynomial(w23, [(0, 2), (3, 0)]),
    )
    expected9 = (
        Gf2Polynomial(w23, [(2, 1)]),
        Gf2Polynomial(w23, [(1, 2), (4, 0)]),
        Gf2Polynomial(w23, [(0, 3)]),
    )
    results = []
    results.append(("n=6 generator triple", ideal_gens_k3(6) == expected6, "w2^2, 0, w3^2 + w2^3"))
    results.append(("n=9 generator triple", ideal_gens_k3(9) == expected9, "w2^2*w3, w2*w3^2 + w2^4, w3^3"))
    return results


def _check_membership_routes(max_n: int | None) -> list[tuple[str, bool, str]]:
    top = _top(20, max_n)
    results = []
    for n in range(6, top + 1):
        N = 3 * (n - 3)
        adjoined = w1_adjoined_quotient(n, 3)
        reduced = k3_reduced_quotient(n)
        mismatches = 0
        for a in range(N // 2 + 1):
            for b in range((N - 2 * a) // 3 + 1):
                x = Gf2Polynomial((2, 3), [(a, b)])
                full = Gf2Polynomial((1, 2, 3), [(0, a, b)])
                if reduced.is_zero(x) != adjoined.is_zero(full):
                    mismatches += 1
        if mismatches:
            results.append((f"n={n}", False, f"{mismatches} monomial memberships disagree"))
    results.append(
        (f"all monomials, 6 <= n <= {top}", not results, "reduced-ring and adjoined-ideal routes agree")
    )
    return results


def _check_lemma_f(max_n: int | None) -> list[tuple[str, bool, str]]:
    results = []
    grid = _grid(max_n, 40)
    for n, k in grid:
        ring = SchubertRing(n, k)
        direct = height_direct(ring, Gf2Polynomial.variable(ring.weights, 2)).height
        closed = closed_form_w2_height(n, k)
        if direct != closed:
            results.append((f"({n},{k})", False, f"closed {closed} != direct {direct}"))
    results.append((f"{len(grid)} pairs", not results, "closed-form heights equal direct heights"))
    return results


def _check_oriented_heights(max_n: int | None) -> list[tuple[str, bool, str]]:
    results = []
    for n, expected in ((9, 4), (6, 1)):
        pres = GrassmannPresentation(n, 3, DEFAULT_CAPS)
        ctx = pres.oriented()
        record = height_direct(ctx, Gf2Polynomial.variable(ctx.weights, 2))
        ok = record.height == expected and record.witness_zero == expected + 1
        results.append(
            (f"({n},3) oriented w2", ok, f"height {record.height}, vanishing power {record.witness_zero}")
        )
    return results


def _check_smallest_space(max_n: int | None) -> list[tuple[str, bool, str]]:
    results = []
    product = Gf2Polynomial((2, 3), [(1, 1)])
    outside = not k3_reduced_membership(6, product)
    results.append(("w2*w3 outside the reduced ideal", outside, "nonzero product of length 2"))
    report = full_report(6, 3)
    results.append(
        (
            "cup-length 3 with category in [4,5]",
            (report.lower, report.upper, report.cat_lower, report.cat_upper, report.exact)
            == (3, 3, 4, 5, True),
            f"lower {report.lower}, upper {report.upper}",
        )
    )
    profile = PoincareProfile(9, 2, 3, "Z2")
    results.append(
        (
            "nilpotency refinement with exponent 1",
            upper_b1(profile, NilpotencyData((1,))) == 3,
            "1 + (9 - 2) // 3 = 3",
        )
    )
    return results


def _check_prop_b(max_n: int | None) -> list[tuple[str, bool, str]]:
    results = []
    bad = 0
    grid = _grid(max_n, 33)
    for n, k in grid:
        pres = GrassmannPresentation(n, k, DEFAULT_CAPS)
        ctx = pres.oriented()
        exps, length, degree = prop_b_certificate(n, k)
        cert = Gf2Polynomial(ctx.weights, [exps])
        if ctx.is_zero(cert):
            bad += 1
            results.append((f"({n},{k})", False, f"certificate {cert.render()} vanishes"))
            continue
        profile = PoincareProfile(k * (n - k), 2, 3, "Z2")
        derived = lower_a3(profile, length, degree)
        if derived != prop_b_lower(n, k):
            bad += 1
            results.append(
                (f"({n},{k})", False, f"derived {derived} != closed form {prop_b_lower(n, k)}")
            )
    results.append((f"{len(grid)} pairs", bad == 0, "verified certificates match the closed forms"))
    return results


def _check_prop_d(max_n: int | None) -> list[tuple[str, bool, str]]:
    results = []
    bad = 0
    count = 0
    for k in range(3, 9):
        for n in range(2 * k, _top(64, max_n) + 1):
            if (n, k) == (6, 3):
                continue
            count += 1
            N = k * (n - k)
            ht = tabulated_w2_height(n, k)
            profile = PoincareProfile(N, 2, 3, "Z2")
            if 2 * ht < N:
                dichotomy = upper_b1(profile, NilpotencyData((ht,)))
            else:
                dichotomy = upper_a1(profile)
            if prop_d_upper(n, k) != dichotomy:
                bad += 1
                results.append(
                    (f"({n},{k})", False, f"table {prop_d_upper(n, k)} != dichotomy {dichotomy}")
                )
    results.append((f"{count} pairs", bad == 0, "table equals the height dichotomy"))
    for (n, k), want in (((9, 3), 8), ((10, 4), 12), ((12, 5), 16)):
        results.append(
            (f"spot ({n},{k})", prop_d_upper(n, k) == want, f"expected {want}, got {prop_d_upper(n, k)}")
        )
    return results


def _check_rational(max_n: int | None) -> list[tuple[str, bool, str]]:
    results = []
    for (n, k), want in (((8, 4), (4, 4, True)), ((13, 4), (9, 9, True)), ((10, 4), (6, 6, True))):
        rb = rational_bounds(n, k)
        got = (rb.lower, rb.upper, rb.exact)
        results.append((f"({n},{k})", got == want, f"expected {want}, got {got}"))
    bad = 0
    for n in range(8, _top(16, max_n) + 1, 2):
        if not rational_bounds(n, 4).exact:
            bad += 1
    results.append(("even n, k=4 equality family", bad == 0, "equality flag raised"))
    return results


def _check_category(max_n: int | None) -> list[tuple[str, bool, str]]:
    wanted = {
        (6, 3): (4, 5),
        (9, 3): (6, 10),
        (10, 3): (6, 11),
        (11, 3): (6, 13),
        (12, 3): (6, 14),
    }
    results = []
    for (n, k), (lo, hi) in wanted.items():
        report = full_report(n, k)
        got = (report.paper_cat_lower, report.cat_upper)
        results.append((f"({n},{k})", got == (lo, hi), f"expected [{lo},{hi}], got {list(got)}"))
    return results


def _check_betti_duality(max_n: int | None) -> list[tuple[str, bool, str]]:
    grid = [(n, 3) for n in range(6, 13)] + [(8, 4), (10, 4), (10, 5)]
    results = []
    bad = 0
    for n, k in grid:
        pres = GrassmannPresentation(n, k, DEFAULT_CAPS)
        betti = pres.betti()
        if betti != betti[::-1] or sum(betti) != math.comb(n, k):
            bad += 1
            results.append((f"({n},{k})", False, "betti vector fails duality or total"))
        if n % 2 == 1:
            ctx = pres.oriented()
            ht = height_direct(ctx, Gf2Polynomial.variable(ctx.weights, 2)).height
            if 2 * ht >= pres.N:
                bad += 1
                results.append((f"({n},{k})", False, f"odd n but 2*{ht} >= {pres.N}"))
    results.append((f"{len(grid)} rings", bad == 0, "palindromic, correct totals, odd-n height gap"))
    return results


VERIFY_CHECKS = (
    ("generator-identities", _check_generator_identities),
    ("g-generators", _check_g_generators),
    ("membership-routes", _check_membership_routes),
    ("lemma-f", _check_lemma_f),
    ("oriented-heights", _check_oriented_heights),
    ("smallest-space", _check_smallest_space),
    ("prop-b", _check_prop_b),
    ("prop-d", _check_prop_d),
    ("rational", _check_rational),
    ("category", _check_category),
    ("betti-duality", _check_betti_duality),
)


def cmd_verify(only: str | None, max_n: int | None, cfg: RunConfig) -> int:
    names = [name for name, _ in VERIFY_CHECKS]
    if only is not None and only not in names:
        print(f"unknown check {only!r}; available: {', '.join(names)}", file=sys.stderr)
        return EXIT_USAGE
    if max_n is not None and max_n < 6:
        raise ValueError("--max-n must be at least 6")
    failures = 0
    for name, func in VERIFY_CHECKS:
        if only is not None and name != only:
            continue
        for anchor, ok, detail in func(max_n):
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            print(f"{status} {name}: {anchor}: {detail}")
    print(f"verify: {'all checks passed' if failures == 0 else f'{failures} failures'}")
    return EXIT_OK if failures == 0 else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--cache-dir", default=None)
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--max-degree", type=int, default=None, metavar="DIM")
    common.add_argument("--q-override", type=int, default=None, metavar="Q")
    common.add_argument("--field", choices=("gf2", "rational", "both"), default="gf2")

    parser = argparse.ArgumentParser(
        prog="cuplength",
        description="Exact cup-length and category bounds for oriented Grassmann manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", parents=[common], help="Betti table with duality checks")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("ideal-gens", parents=[common], help="ideal generators of the presentation")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("height", parents=[common], help="height of a class in the quotient")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("cls", metavar="class", help="polynomial, e.g. 'w2' or 'w2^2*w3 + w3^3'")
    p.add_argument("--oriented", action="store_true")

    p = sub.add_parser("bounds", parents=[common], help="cup-length and category bounds")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("verify", parents=[common], help="run the anchored value checks")
    p.add_argument("--only", default=None, metavar="CHECK")
    p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("sweep", parents=[common], help="bound reports over a range of n")
    p.add_argument("k", type=int)
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        cfg = _config(args)
        if args.command == "ring":
            return cmd_ring(args.n, args.k, cfg)
        if args.command == "ideal-gens":
            return cmd_ideal_gens(args.n, args.k, cfg)
        if args.command == "height":
            return cmd_height(args.n, args.k, args.cls, args.oriented, cfg)
        if args.command == "bounds":
            return cmd_bounds(args.n, args.k, cfg)
        if args.command == "verify":
            return cmd_verify(args.only, args.max_n, cfg)
        if args.command == "sweep":
            return cmd_sweep(args.k, args.n_min, args.n_max, cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except BrokenPipeError:
        raise  # handled in entry()
    except ZeroClassError as exc:
        print(f"undefined query: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
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
    sys.exit(code)


if __name__ == "__main__":
    entry()
