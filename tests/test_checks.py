"""Every `verify` check fails, naming the ring, when the oracle it compares against is off.

Each case swaps one oracle in `cuplength.checks` for one that is wrong on
every ring, runs the check over a small range through `main`, and requires a
FAIL line for a ring, a failing summary line and exit code 2.
"""

import dataclasses
import re

import pytest

from cuplength import checks
from cuplength.bounds import Bound
from cuplength.cli import EXIT_CHECK, main


def plus_one_height(real):
    return lambda n, k: real(n, k) + 1


def plus_one_lower_bound(real):
    def wrong(n, k):
        bound, certificate = real(n, k)
        return Bound(bound.value + 1, bound.method), certificate

    return wrong


def vanishing_certificate(real):
    def wrong(n, k):
        # w2^N lies above the formal dimension N, so it is zero in C.
        bound, (_, length, degree) = real(n, k)
        return bound, ((k * (n - k),) + (0,) * (k - 2), length, degree)

    return wrong


def plus_one_upper_bound(real):
    def wrong(n, k):
        bound = real(n, k)
        return Bound(bound.value + 1, bound.method)

    return wrong


def next_ring(real):
    return lambda n: real(n + 1)


def half_the_formal_dimension(real):
    # A height record that reaches N / 2, which the odd-n gap rules out.
    def wrong(ring, x):
        height = (ring.N + 1) // 2
        return dataclasses.replace(real(ring, x), height=height, witness_zero=height + 1)

    return wrong


CASES = [
    ("lemma-f", "closed_form_w2_height", plus_one_height, r"\(6,3\): closed 5 != direct 4"),
    ("prop-b", "prop_b_bound", plus_one_lower_bound, r"\(7,3\): derived 5 != closed form 6"),
    ("prop-b", "prop_b_bound", vanishing_certificate, r"\(6,3\): certificate w2\^9 vanishes"),
    ("prop-d", "prop_d_bound", plus_one_upper_bound, r"\(7,3\): table \d+ != dichotomy \d+"),
    ("membership-routes", "k3_reduced_quotient", next_ring, r"n=6: \d+ monomial memberships disagree"),
    ("g-generators", "ideal_gens_k3", next_ring, r"n=6: closed form disagrees with series inversion"),
    ("betti-duality", "height_direct", half_the_formal_dimension, r"\(7,3\): odd n but 2\*6 >= 12"),
]


@pytest.mark.parametrize("name,oracle,wrong,ring_line", CASES, ids=[f"{c[0]}-{c[2].__name__}" for c in CASES])
def test_check_fails_when_its_oracle_is_off(monkeypatch, capsys, name, oracle, wrong, ring_line):
    monkeypatch.setattr(checks, oracle, wrong(getattr(checks, oracle)))
    assert main(["verify", "--only", name, "--max-n", "8"]) == EXIT_CHECK
    lines = capsys.readouterr().out.splitlines()
    assert any(re.fullmatch(f"FAIL {name}: {ring_line}", line) for line in lines), lines
    # The check's last line fails too, and so does the run.
    assert lines[-2].startswith(f"FAIL {name}: ")
    assert re.fullmatch(r"verify: \d+ failures", lines[-1])
