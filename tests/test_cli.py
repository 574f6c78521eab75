"""Command-line behavior: formats, exit codes, caching, determinism."""

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

import pytest

import cuplength
from cuplength import cli
from cuplength.checks import CHECKS
from cuplength.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_UNDEFINED,
    EXIT_USAGE,
    main,
)
from cuplength.gf2linalg import Eliminator
from cuplength.gf2poly import Gf2Polynomial, parse_polynomial
from cuplength.grassmann import GrassmannPresentation, gaussian_binomial, longest_monomial_product
from cuplength.heights import height_direct


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_text(capsys):
    code, out, _ = run(capsys, "ring", "6", "3")
    assert code == EXIT_OK
    assert "1 1 2 3 3 3 3 2 1 1" in out
    assert "total 20, binomial C(6,3) = 20, match: yes" in out
    assert "palindromic: yes" in out


def test_ring_json(capsys):
    code, out, _ = run(capsys, "ring", "8", "4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total"] == 70
    assert len(payload["betti"]) == 17
    assert payload["palindromic"] is True


def test_ring_bad_input(capsys):
    code, _, err = run(capsys, "ring", "5", "3")
    assert code == EXIT_USAGE
    assert "error" in err


def test_ring_judges_its_betti_vector_by_the_gaussian_binomials(monkeypatch, capsys):
    # Palindromic, with the right total, yet not H's Betti vector: b_2 and b_(N-2) up by one, b_3 and b_(N-3) down.
    shuffled = gaussian_binomial(9, 3)
    for d, step in ((2, 1), (16, 1), (3, -1), (15, -1)):
        shuffled[d] += step
    monkeypatch.setattr(GrassmannPresentation, "betti", lambda self: list(shuffled))
    code, out, err = run(capsys, "ring", "9", "3")
    assert code == EXIT_CHECK
    assert "match: yes" in out and "palindromic: yes" in out
    assert err == "check failed: the Betti numbers of (9, 3) differ from the Gaussian binomial coefficients\n"


def test_ideal_gens_agreement(capsys):
    code, out, _ = run(capsys, "ideal-gens", "6", "3")
    assert code == EXIT_OK
    assert "closed form vs series reduction: AGREE" in out
    assert "reduced closed form degree 4: w2^2" in out


def test_height_examples(capsys):
    code, out, _ = run(capsys, "height", "9", "3", "w2", "--oriented")
    assert code == EXIT_OK
    assert "height of w2 in oriented-characteristic (9, 3): 4" in out

    code, out, _ = run(capsys, "height", "9", "3", "w2")
    assert code == EXIT_OK
    assert "height of w2 in unoriented (9, 3): 7" in out
    assert "closed form: 7 (AGREE)" in out

    code, out, _ = run(capsys, "height", "6", "3", "w2", "--oriented")
    assert code == EXIT_OK
    assert ": 1" in out


def test_height_zero_class_exit(capsys):
    code, _, err = run(capsys, "height", "9", "3", "w2^5", "--oriented")
    assert code == EXIT_UNDEFINED
    assert "zero in the oriented-characteristic quotient" in err


@pytest.mark.parametrize("oriented", [(), ("--oriented",)], ids=["unoriented", "oriented"])
def test_height_above_formal_dimension_is_zero_class(capsys, oriented):
    # Degree 402 is above the formal dimension 18, and above the degree cap 400 too.
    code, out, err = run(capsys, "height", "9", "3", "w2^201", *oriented)
    assert code == EXIT_UNDEFINED
    assert out == ""
    context = "oriented-characteristic" if oriented else "unoriented"
    assert err == f"undefined query: w2^201 is zero in the {context} quotient for (9, 3)\n"


def test_height_over_the_degree_cap_is_refused_before_work(capsys):
    code, out, err = run(capsys, "height", "9", "3", "w2", "--max-degree", "10")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "size cap exceeded: formal dimension 18 exceeds cap\n"


def test_unoriented_height_of_a_large_ring_is_answered():
    # The unoriented ladder of (24, 8) runs out of memory; the Schubert route
    # touches only the partitions that the powers of w2 reach.  A 1 GiB
    # address-space limit keeps a regression from taking the machine's memory.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuplength.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cuplength.cli", "height", "24", "8", "w2"],
        capture_output=True,
        env=env,
        preexec_fn=limit,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr.decode()[-300:]
    assert proc.stdout.decode() == (
        "height of w2 in unoriented (24, 8): 31\n"
        "witness: power 31 nonzero in degree 62; power 32 zero\n"
        "closed form: 31 (AGREE)\n"
    )


def test_height_parse_error(capsys):
    code, _, err = run(capsys, "height", "9", "3", "w9^2")
    assert code == EXIT_USAGE
    assert "error" in err


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "9", "3")
    assert code == EXIT_OK
    assert "cup lower 5" in out
    assert "upper 7" in out
    assert "table values: lower 5 [B(c)]  upper 8 [D(b)]" in out
    assert "gap 2" in out


def test_bounds_rational_undefined_for_k3(capsys):
    code, _, err = run(capsys, "bounds", "9", "3", "--field", "rational")
    assert code == EXIT_UNDEFINED
    assert "k >= 4" in err


def test_bounds_both_fields_csv(capsys):
    code, out, _ = run(capsys, "bounds", "8", "4", "--field", "both", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,field,lower,lower_method,upper,upper_method,cat_lower,cat_upper,exact"
    assert len(lines) == 3
    assert lines[1].startswith("8,4,Z2,")
    assert lines[2].startswith("8,4,Q,4,")


def test_bounds_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "bounds", "10", "3", "--format", "json")
    code2, out2, _ = run(capsys, "bounds", "10", "3", "--format", "json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", "3", "6", "12", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 8
    for line in lines[1:]:
        cells = line.split(",")
        lower, upper = int(cells[3]), int(cells[5])
        assert upper - lower >= 0
        assert cells[9] == ("true" if lower == upper else "false")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_sweep_refuses_an_empty_range(capsys, fmt):
    code, out, err = run(capsys, "sweep", "3", "8", "7", "--format", fmt)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: sweep range is empty: n_min=8 exceeds n_max=7\n"


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "3", "5", "9")
    assert code == EXIT_USAGE
    assert "n >= 2k" in err


def test_sweep_partial_failure_marked(capsys):
    code, out, _ = run(capsys, "sweep", "3", "6", "12", "--format", "csv", "--max-degree", "20")
    assert code == EXIT_PARTIAL
    lines = out.strip().splitlines()
    marked = [line for line in lines if "error:" in line]
    assert len(marked) == 3
    assert all(line.split(",")[3] == "" for line in marked)


def test_sweep_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path)
    code1, cold, _ = run(capsys, "sweep", "3", "6", "10", "--format", "csv", "--cache-dir", cache)
    assert code1 == EXIT_OK
    files = sorted(os.listdir(cache))
    assert files == sorted(f"gr_{n}_3_oriented.json" for n in range(6, 11))
    code2, warm, _ = run(capsys, "sweep", "3", "6", "10", "--format", "csv", "--cache-dir", cache)
    assert code2 == EXIT_OK
    assert warm == cold


@pytest.mark.parametrize(
    "argv,code,loaded",
    [
        (("bounds", "9", "3", "--max-degree", "10"), EXIT_USAGE, []),
        (("sweep", "3", "6", "12", "--max-degree", "20", "--format", "csv"), EXIT_PARTIAL, [6, 7, 8, 9]),
    ],
)
def test_degree_cap_refuses_a_cached_ring_as_a_cold_run_does(tmp_path, capsys, monkeypatch, argv, code, loaded):
    cold = run(capsys, *argv)
    assert cold[0] == code
    if argv[0] == "bounds":
        assert cold[1:] == ("", "size cap exceeded: formal dimension 18 exceeds cap\n")
    else:
        # N = 3(n - 3) exceeds 20 from n = 10 on.
        assert [line.split(",")[4] for line in cold[1].splitlines()[-3:]] == [
            f"error: formal dimension {N} exceeds cap" for N in (21, 24, 27)
        ]
    cache = str(tmp_path)
    assert run(capsys, "sweep", "3", "6", "12", "--cache-dir", cache)[0] == EXIT_OK
    reads = []
    load = cli.load_record
    monkeypatch.setattr(cli, "load_record", lambda d, n, k: reads.append(n) or load(d, n, k))
    assert run(capsys, *argv, "--cache-dir", cache) == cold
    # The cap is checked before the cache: a refused ring's record is never read.
    assert reads == loaded


@pytest.mark.parametrize("kind", ["missing", "regular file"])
def test_unusable_cache_dir_refused_before_any_work(tmp_path, capsys, kind):
    cache = str(tmp_path / "cache")
    if kind == "regular file":
        open(cache, "w").close()
    for argv in (("bounds", "9", "3"), ("sweep", "3", "6", "8")):
        results = [run(capsys, *argv, "--cache-dir", cache) for _ in range(2)]
        assert results[0] == results[1], argv
        code, out, err = results[0]
        assert code == EXIT_USAGE, argv
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err
    assert os.listdir(tmp_path) == ([] if kind == "missing" else ["cache"])


def test_bounds_cache_poisoning_rejected(tmp_path, capsys):
    cache = str(tmp_path)
    code, _, _ = run(capsys, "bounds", "9", "3", "--cache-dir", cache)
    assert code == EXIT_OK
    path = os.path.join(cache, "gr_9_3_oriented.json")
    with open(path) as fh:
        record = json.load(fh)
    record["surprise"] = True
    with open(path, "w") as fh:
        json.dump(record, fh)
    code, _, err = run(capsys, "bounds", "9", "3", "--cache-dir", cache)
    assert code == EXIT_USAGE
    assert "cache" in err


def _poison_record(capsys, cache, ring=(9, 3), **changes):
    n, k = ring
    assert run(capsys, "bounds", str(n), str(k), "--cache-dir", cache)[0] == EXIT_OK
    path = os.path.join(cache, f"gr_{n}_{k}_oriented.json")
    with open(path) as fh:
        record = json.load(fh)
    record.update(changes)
    with open(path, "w") as fh:
        json.dump(record, fh)


@pytest.mark.parametrize(
    "field,value,message",
    [("ht_w2", "4", "wrong type"), ("longest_product", [[4, 0], 4, None], "wrong type"), ("top", "8", "wrong type")],
)
def test_bounds_cache_malformed_field_rejected(tmp_path, capsys, field, value, message):
    cache = str(tmp_path)
    _poison_record(capsys, cache, **{field: value})
    code, out, err = run(capsys, "bounds", "9", "3", "--cache-dir", cache)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: cache record") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "changes,message",
    [
        # The value poisonings of gr_9_3_oriented.json that used to exit 0 with a false report.
        ({"ht_w2": 5, "longest_product": [[5, 0], 5, 10]}, "degree 10, which has no classes"),
        ({"longest_product": [[4, 0], 4, -1]}, "not the degree of its exponents"),
        ({"ht_w2": 9}, "w2^9 lies in degree 18, which has no classes"),
        ({"longest_product": [[4], 4, 8]}, "needs 2 nonnegative exponents"),
        ({"longest_product": [[5, -1], 4, 7]}, "needs 2 nonnegative exponents"),
        ({"longest_product": [[4, 0], 3, 8]}, "length is not the sum"),
        ({"ht_w2": -1}, "w2^-1 lies in degree -2"),
        # C vanishes in degree N = 18, and the longest product w2^4 lies in degree 8.
        ({"top": 18}, "top = 18, but C vanishes in degree N = 18"),
        ({"top": 7}, "the longest product lies in degree 8, which has no classes"),
        # The longest product w2^4 is nonzero, so w2 has height at least 4.
        ({"ht_w2": 3}, "ht_w2 = 3 is outside [4, 4]"),
        # b_2 = 1 makes w2 nonzero, so a zero height is the record's fault, not the engine's.
        ({"ht_w2": 0, "longest_product": [[0, 0], 0, 0]}, "ht_w2 = 0, but w2 is nonzero"),
    ],
)
def test_bounds_cache_inconsistent_record_rejected(tmp_path, capsys, changes, message):
    cache = str(tmp_path)
    _poison_record(capsys, cache, **changes)
    code, out, err = run(capsys, "bounds", "9", "3", "--cache-dir", cache)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: cache record for (9, 3)") and message in err
    assert len(err.splitlines()) == 1


def test_bounds_cache_schema_1_record_rejected_by_name(tmp_path, capsys):
    # The record format before top replaced the Betti vector.
    path = tmp_path / "gr_9_3_oriented.json"
    path.write_text(
        '{"betti": [1, 0, 1, 1, 1, 1, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "ht_w2": 4, "k": 3, '
        '"longest_product": [[4, 0], 4, 8], "mode": "oriented", "n": 9, "schema": 1}\n'
    )
    code, out, err = run(capsys, "bounds", "9", "3", "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: unsupported cache schema 1 in {path}\n"


@pytest.mark.parametrize("raw,reason", [(b"not json", "Expecting value"), (b"\xff\xfe", "codec can't decode")])
def test_bounds_cache_undecodable_record_rejected_by_name(tmp_path, capsys, raw, reason):
    path = tmp_path / "gr_9_3_oriented.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "bounds", "9", "3", "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cache record {path} cannot be decoded: ") and reason in err
    assert len(err.splitlines()) == 1


def test_bounds_cache_height_outside_the_longest_product_rejected(tmp_path, capsys):
    # The longest product of (16, 4) is w2^12*w4^3, so w2 has height 12 to 15.  A
    # record claiming height 9 used to print a (b1) upper bound of 19 below the true 20.
    cache = str(tmp_path)
    _poison_record(capsys, cache, ring=(16, 4), ht_w2=9)
    code, out, err = run(capsys, "bounds", "16", "4", "--cache-dir", cache)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: cache record for (16, 4): ")
    assert len(err.splitlines()) == 1


def test_bounds_cache_out_of_domain_refused_before_reading(tmp_path, capsys):
    (tmp_path / "gr_5_1_oriented.json").write_text(
        '{"schema":1,"n":5,"k":1,"mode":"oriented","betti":[1,0,0,0,0],"ht_w2":0,"longest_product":[[],0,0]}'
    )
    code, out, err = run(capsys, "bounds", "5", "1", "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: need n >= 2k >= 6, got (n, k) = (5, 1)\n"


def test_bounds_failed_certificate_is_check_failure(tmp_path, capsys):
    # A consistent record whose height is too small to carry the table certificate w2^4.
    cache = str(tmp_path)
    _poison_record(capsys, cache, ht_w2=1, longest_product=[[1, 2], 3, 8])
    code, out, err = run(capsys, "bounds", "9", "3", "--cache-dir", cache)
    assert code == EXIT_CHECK
    assert out == ""
    assert err.startswith("check failed: table certificate w2^4 vanishes")
    assert len(err.splitlines()) == 1


def test_closed_pipe_exits_quietly():
    # The output (a row per n, all failing the degree cap) far exceeds a pipe
    # buffer, so the process is still writing when the reader goes away.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuplength.__file__)))
    argv = ["sweep", "3", "6", "1500", "--max-degree", "20", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuplength.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert err == b""
    assert code == EXIT_OK


def test_ctrl_c_exits_130_with_one_line():
    # bounds 34 6 runs for many seconds, so SIGINT after 2 s lands mid-computation.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuplength.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuplength.cli", "bounds", "34", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        time.sleep(2)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert out == b""
    assert len(err.splitlines()) == 1
    assert err.startswith(b"interrupted")
    assert b"Traceback" not in err


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--only", "generator-identities")
    assert code == EXIT_OK
    assert "PASS generator-identities" in out
    assert "all checks passed" in out


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--only", "nope")
    assert code == EXIT_USAGE
    assert "available" in err


def test_verify_max_n_limits_scope(capsys):
    code, out, _ = run(capsys, "verify", "--only", "g-generators", "--max-n", "12")
    assert code == EXIT_OK
    assert "6 <= n <= 12" in out


def test_usage_errors(capsys):
    assert run(capsys, "ring", "6")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "--help")[0] == EXIT_OK


def test_out_of_memory_is_one_line(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_ring", exhausted)
    code, out, err = run(capsys, "ring", "24", "8")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("out of memory: ")
    assert len(err.splitlines()) == 1


ALL_OPTIONS = (
    "--format",
    "--max-degree",
    "--oriented",
    "--cache-dir",
    "--no-cache",
    "--q-override",
    "--field",
    "--only",
    "--max-n",
)

# Each command with positionals that parse, and exactly the options it reads.
# Every other option, such as `verify --format` or `ring --field`, is refused.
ACCEPTED_OPTIONS = [
    ("ring", ("6", "3"), ("--format", "--max-degree")),
    ("ideal-gens", ("6", "3"), ("--format", "--max-degree")),
    ("height", ("9", "3", "w2"), ("--format", "--max-degree", "--oriented")),
    ("bounds", ("9", "3"), ("--format", "--max-degree", "--cache-dir", "--field")),
    ("sweep", ("3", "6", "8"), ("--format", "--max-degree", "--cache-dir", "--field")),
    ("verify", (), ("--only", "--max-n")),
]


@pytest.mark.parametrize("command,positionals,accepted", ACCEPTED_OPTIONS, ids=[c[0] for c in ACCEPTED_OPTIONS])
def test_each_command_accepts_only_the_options_it_reads(capsys, command, positionals, accepted):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices[command]._actions for o in a.option_strings} - {"-h", "--help"}
    assert options == set(accepted)
    for option in sorted(set(ALL_OPTIONS) - set(accepted)):
        code, out, err = run(capsys, command, *positionals, option, "x")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: cuplength")
        assert f"error: unrecognized arguments: {option} x" in err


def test_q_override_validation(capsys):
    # q = 3 is fixed, so the option is gone and argparse refuses it.
    code, _, err = run(capsys, "bounds", "9", "3", "--q-override", "2")
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --q-override 2" in err


def fuzz_argv(rng: random.Random, tmp_path) -> list[str]:
    """One argument list from a small grammar: a command, a ring with n <= 12, and up to three
    options, mostly ones the command reads; about one integer or value in seven is malformed."""

    def value(good: str, bad: tuple) -> str:
        return good if rng.random() < 0.85 else rng.choice(bad)

    def integer(good: int) -> str:
        return value(str(good), ("x", "-1", "3.5", "", "1e2", "0x9", "2", "0"))

    command, _, accepted = rng.choice(ACCEPTED_OPTIONS)
    # n = 2k - 1 lies just outside the domain, and so does a sweep range that ends below its start.
    k = rng.randint(3, 5 if command == "sweep" else 6)
    n = rng.randint(2 * k - 1, 12)
    if command == "sweep":
        argv = [command, integer(k), integer(n), integer(rng.randint(n - 1, 12))]
    elif command == "verify":
        argv = [command, "--max-n", integer(rng.randint(5, 12))]
    else:
        argv = [command, integer(n), integer(k)]
    if command == "height":
        argv.append(value(rng.choice(["w2", "w3", "w2^2 + w4", "w2*w3", "w3^2 + w2^3"]), ("w1", "w9", "w2^", "1", "0", "")))
    values = {
        "--format": value(rng.choice(["text", "json", "csv"]), ("xml", "")),
        "--max-degree": integer(rng.randint(1, 40)),
        "--cache-dir": value(str(tmp_path), (str(tmp_path / "missing"),)),
        "--q-override": "2",
        "--field": value(rng.choice(["gf2", "rational", "both"]), ("z3",)),
        "--only": value(rng.choice(list(CHECKS)), ("nope",)),
        "--max-n": integer(rng.randint(5, 12)),
    }
    options = accepted if rng.random() < 0.8 else ALL_OPTIONS
    for option in rng.sample(options, min(len(options), rng.randint(0, 3))):
        # --oriented and --no-cache are flags, given without a value.
        argv += [option] + ([values[option]] if option in values else [])
    return argv


def test_random_argument_lists_end_in_an_exit_code(tmp_path, capsys):
    # main() returns a code from 0 to 4 for every list, and raises nothing.
    rng = random.Random(2005)
    for _ in range(300):
        argv = fuzz_argv(rng, tmp_path)
        code = main(argv)
        capsys.readouterr()
        assert code in range(5), argv


# sha256 of the empty string: the stream was not written to.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (argv, exit code, sha256 of stdout, sha256 of stderr), captured before the
# oriented ring became a GrassmannPresentation (the full `verify` before the
# checks moved into `cuplength.checks`); any byte change fails here.
GOLDEN_INVOCATIONS = [
    (['ring', '9', '3', '--format', 'text'], 0, "432f775e0f085fba219f83a6e14a4dfc4fbaf95517765d1aca746999b188e0f1", EMPTY),
    (['ideal-gens', '9', '3', '--format', 'text'], 0, "2fb713bdf200410456b8fcdc9e4e14242a4317013ac340f2c8e52b0ab9e6d728", EMPTY),
    (['height', '9', '3', 'w2', '--format', 'text'], 0, "e8806f7a3f49b650ee760479efd059c4396da03562d9dc6cfb92c626735d6474", EMPTY),
    (['height', '9', '3', 'w2', '--oriented', '--format', 'text'], 0, "d1a66433fc115afb69931a2c63e674cd9ba90686c8ee7c9c3b441320d61636e9", EMPTY),
    (['bounds', '10', '4', '--field', 'both', '--format', 'text'], 0, "7f71cebd32d95984f68961dbded55ce862770f5ac537f4bbae51bb9d073a45a9", EMPTY),
    (['sweep', '3', '6', '12', '--format', 'text'], 0, "b0eed9c3a11d85905f7c5c6ac7d2cf74e1f16305606ca223d31729d80f801e6a", EMPTY),
    (['ring', '9', '3', '--format', 'json'], 0, "6c4b29a8f4969c8272821d3e5cb1e1876e36c4286389340acc1dbfb017b8d73e", EMPTY),
    (['ideal-gens', '9', '3', '--format', 'json'], 0, "fe0b7134cf5f73fc67ab874c1c20ee5f98770cbd50dda2b1159733e15aba8d53", EMPTY),
    (['height', '9', '3', 'w2', '--format', 'json'], 0, "82b7c84645f503732969fc48b9efef98a14a67407dbf665f4b2e78ce3a30b23e", EMPTY),
    (['height', '9', '3', 'w2', '--oriented', '--format', 'json'], 0, "ae5f98075804e11d86e37d64b6f218c187d9169f717ba291f254c51edeef00f1", EMPTY),
    (['bounds', '10', '4', '--field', 'both', '--format', 'json'], 0, "f752ebbb0d5d03c75688cb1f81f3d60d9bfd8393d0e605772df2d1157d00080c", EMPTY),
    (['sweep', '3', '6', '12', '--format', 'json'], 0, "bb87d8d75fa3e49664da7532d1b80ce43654fd1d4064b0b090c8cb2837ebc220", EMPTY),
    (['ring', '9', '3', '--format', 'csv'], 0, "aff8663f8392c8eebf12c7b212958049cdf6023e5342d094eb2e308c3ccf0e7c", EMPTY),
    (['ideal-gens', '9', '3', '--format', 'csv'], 0, "632ee25ad74cd8809d13484d285cf0f9c555f019755b81c497a72fbc9e3a2413", EMPTY),
    (['height', '9', '3', 'w2', '--format', 'csv'], 0, "6aba7b6c9ab03d8097df081a6edcf257c938f5483365aab84c353237745a8387", EMPTY),
    (['height', '9', '3', 'w2', '--oriented', '--format', 'csv'], 0, "7c1fc98d22ce940e36b8df8f283455c728cbfa3448ff7775a69f0b30647e03f4", EMPTY),
    (['bounds', '10', '4', '--field', 'both', '--format', 'csv'], 0, "77408aa01c3583386d067f00ad7ceb3a160e9eec562fe14cefaef05a482e24f2", EMPTY),
    (['sweep', '3', '6', '12', '--format', 'csv'], 0, "f4521f68680ad733036aeca098152ccf6ad4c19e171a493e46d9d494abb7fb2e", EMPTY),
    (['height', '9', '3', 'w1', '--oriented'], 3, EMPTY, "53910a93170a865576bebf59d68d495e51e35abcd8999621e0f674baa6ad536d"),
    (['height', '10', '4', 'w2^2 + w4', '--oriented'], 0, "753d7846630130f7b30d9be0a4e0195027f8e2c37a1474303f4477042e0fa486", EMPTY),
    (['bounds', '9', '3', '--field', 'rational'], 3, EMPTY, "9dda77b8acae46f407b074bd43a060aced37445b6a131343d514fa1e44e0ecb0"),
    (['bounds', '9', '3', '--q-override', '4'], 1, EMPTY, "8f771a234fcb793ca3d20be0736ee5c45fbf6d3ef5708789ab18db68d773d071"),
    (['bounds', '9', '3'], 0, "20ec9a73728a911ebc6e9ccbbedf1774b88cf8ee3f4b7a7da89e58b247b438b5", EMPTY),
    (['bounds', '10', '5', '--field', 'both', '--format', 'json'], 0, "7604c1cecb9214e81ddbe00d4d964828f85a16a2703fafc6ab94989214d10006", EMPTY),
    (['bounds', '13', '4', '--field', 'both', '--format', 'json'], 0, "1da5458e369194599f4ef1d38d1c5cebced41845588d6a5114cca7e46689bbd7", EMPTY),
    (['bounds', '14', '5', '--format', 'json'], 0, "8b3446131b8180dd8787cf4523ed84c07a8d1b57b2e9cfafb23c94cd2edf219e", EMPTY),
    (['verify', '--only', 'lemma-f', '--max-n', '14'], 0, "6eb6b3dc07cc910ee5fd234d348b8f5b3a612d29f8cae4ae673ba6da80f466c6", EMPTY),
    (['verify', '--max-n', '16'], 0, "374a753922c4f3ce89f4535fb0d65b2ad0c0a36b05bfd9932c6370d0d14f0661", EMPTY),
    (['verify'], 0, "1358fdcc614292e4a0e82757aa8b404218f17453878703706c840fa834eeb63c", EMPTY),
]


@pytest.mark.parametrize(
    "argv,code,out_sha,err_sha", GOLDEN_INVOCATIONS, ids=[" ".join(g[0]) for g in GOLDEN_INVOCATIONS]
)
def test_output_bytes_golden(capsys, argv, code, out_sha, err_sha):
    got_code, out, err = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha


# (ring, x, normal form of x, y, times(1, 0, y), w2 height, longest product) at (12, 4).
ENGINE_READS = [
    ("unoriented", "w1^9", "w1*w4^2 + w3^3 + w1^6*w3 + w1*w2^4 + w1^5*w2^2", "w3^2 + w2^3", 72, 15, ((14, 7, 0, 1), 22, 32)),
    ("oriented", "w2^5*w3", "w2*w3*w4^2", "w3^2 + w2^3", 3, 8, ((8, 0, 1), 9, 20)),
]


def test_engine_reads_never_back_substitute(monkeypatch, capsys):
    # Every read reduces against the rows as installed: with the reduced
    # echelon snapshot made to raise, commands and library reads still give
    # their golden answers (bounds 12 4 and ENGINE_READS captured before).
    def refuse(self):
        raise AssertionError("an engine read back-substituted")

    monkeypatch.setattr(Eliminator, "finalize", refuse)
    golden = {tuple(argv): out_sha for argv, _, out_sha, _ in GOLDEN_INVOCATIONS}
    golden["bounds", "12", "4"] = "ec276e4e02979b7b7c4377c420716345563c46d8e7c09fc1a1ce79aac61966c7"
    for argv in (["bounds", "12", "4"], ["sweep", "3", "6", "12", "--format", "csv"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == golden[tuple(argv)]
    unoriented = GrassmannPresentation(12, 4)
    rings = {"unoriented": unoriented, "oriented": unoriented.oriented()}
    for name, x, nf, y, product, height, longest in ENGINE_READS:
        ring = rings[name]
        assert ring.normal_form(parse_polynomial(x, ring.weights)).render() == nf, name
        assert ring.times(1, 0, parse_polynomial(y, ring.weights)) == product, name
        assert height_direct(ring, Gf2Polynomial.variable(ring.weights, 2)).height == height, name
        assert longest_monomial_product(ring) == longest, name
