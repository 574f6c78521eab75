"""Command-line behavior: formats, exit codes, caching, determinism."""

import json
import os
import subprocess
import sys

import pytest

import cuplength
from cuplength.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_UNDEFINED,
    EXIT_USAGE,
    main,
)


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


def test_sweep_empty_range(capsys):
    code, out, _ = run(capsys, "sweep", "3", "8", "7", "--format", "csv")
    assert code == EXIT_OK
    assert out.strip() == "n,k,field,lower,lower_method,upper,upper_method,cat_lower,cat_upper,exact"


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
    code3, refreshed, _ = run(
        capsys, "sweep", "3", "6", "10", "--format", "csv", "--cache-dir", cache, "--no-cache"
    )
    assert code3 == EXIT_OK
    assert refreshed == cold


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


def _poison_record(capsys, cache, field, value):
    assert run(capsys, "bounds", "9", "3", "--cache-dir", cache)[0] == EXIT_OK
    path = os.path.join(cache, "gr_9_3_oriented.json")
    with open(path) as fh:
        record = json.load(fh)
    record[field] = value
    with open(path, "w") as fh:
        json.dump(record, fh)


@pytest.mark.parametrize(
    "field,value,message",
    [("ht_w2", "4", "wrong type"), ("longest_product", [[4, 0], 4, None], "wrong type"), ("betti", [1], "19 Betti")],
)
def test_bounds_cache_malformed_field_rejected(tmp_path, capsys, field, value, message):
    cache = str(tmp_path)
    _poison_record(capsys, cache, field, value)
    code, out, err = run(capsys, "bounds", "9", "3", "--cache-dir", cache)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: cache record") and message in err
    assert len(err.splitlines()) == 1


def test_bounds_failed_certificate_is_check_failure(tmp_path, capsys):
    # A record whose height is too small to carry the table certificate w2^4.
    cache = str(tmp_path)
    _poison_record(capsys, cache, "ht_w2", 1)
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


def test_q_override_validation(capsys):
    code, _, err = run(capsys, "bounds", "9", "3", "--q-override", "2")
    assert code == EXIT_USAGE
    assert "q-override" in err
