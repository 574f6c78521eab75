"""Every refusal of a bad argument to the library, with its exception and message.

Each case below raises before any work is done; the table pins the type and
the text a caller sees.  The cache writer's cleanup on a failed write is
pinned at the end.
"""

import json
import os

import pytest

from cuplength.bounds import cat_lower, full_report
from cuplength.gf2poly import (
    Gf2Polynomial,
    ideal_gens_k3,
    inverse_series_components,
    lucas_parity,
    parse_polynomial,
)
from cuplength.grassmann import GradedQuotient, OrientedSummary, k3_reduced_quotient, save_record
from cuplength.heights import HeightRecord, decompose_n, rational_p1_height

W = (2, 3)
W2 = Gf2Polynomial.variable(W, 2)
W3 = Gf2Polynomial.variable(W, 3)
# The same class over the unoriented variables w1, w2, w3.
FULL_W2 = Gf2Polynomial.variable((1, 2, 3), 2)

REFUSALS = {
    "lucas_parity of a negative argument": (
        lambda: lucas_parity(-1, 0),
        ValueError,
        "binomial parity needs nonnegative arguments",
    ),
    "assignment to a polynomial attribute": (
        lambda: setattr(W2, "terms", ()),
        AttributeError,
        "Gf2Polynomial is immutable",
    ),
    "variable of an unknown weight": (
        lambda: Gf2Polynomial.variable(W, 4),
        ValueError,
        r"no variable of weight 4 in \(2, 3\)",
    ),
    "substitute_zero of an unknown weight": (
        lambda: W2.substitute_zero(4),
        ValueError,
        r"no variable of weight 4 in \(2, 3\)",
    ),
    "sum across variable sets": (
        lambda: W2 + FULL_W2,
        ValueError,
        "cannot add polynomials over different variable sets",
    ),
    "product across variable sets": (
        lambda: W2 * FULL_W2,
        ValueError,
        "cannot multiply polynomials over different variable sets",
    ),
    "negative power": (lambda: W2**-1, ValueError, "negative power"),
    "series to a negative degree": (
        lambda: inverse_series_components(W, -1),
        ValueError,
        "negative degree bound",
    ),
    "closed-form generators below n = 6": (lambda: ideal_gens_k3(5), ValueError, "need n >= 6"),
    "blank polynomial text": (lambda: parse_polynomial("   ", W), ValueError, "empty polynomial text"),
    "generator over other weights": (
        lambda: GradedQuotient(W, [FULL_W2], 10),
        ValueError,
        "generator over a different variable set",
    ),
    "generator of mixed degree": (
        lambda: GradedQuotient(W, [W2 + W3], 10),
        ValueError,
        "generators must be homogeneous and nonzero",
    ),
    "normal form of a mixed-degree class": (
        lambda: k3_reduced_quotient(9).normal_form(W2 + W3),
        ValueError,
        "normal form requires a homogeneous polynomial",
    ),
    "height record of negative height": (
        lambda: HeightRecord("w2", "oriented-characteristic", 9, 3, -1, 0, 0),
        ValueError,
        "negative height",
    ),
    "height record with a wrong vanishing witness": (
        lambda: HeightRecord("w2", "oriented-characteristic", 9, 3, 2, 4, 4),
        ValueError,
        r"vanishing witness must be height \+ 1",
    ),
    "decomposition of n = 5": (lambda: decompose_n(5), ValueError, "need n >= 6"),
    "rational height below n = 2k": (lambda: rational_p1_height(7, 4), ValueError, "need n >= 2k"),
    "category from a negative cup-length": (lambda: cat_lower(-1), ValueError, "negative cup-length"),
    "report over an unknown field": (
        lambda: full_report(9, 3, "GF4"),
        ValueError,
        "unknown field tag 'GF4'",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_save_record_leaves_no_temporary_file_when_its_write_raises(tmp_path, monkeypatch):
    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    summary = OrientedSummary(n=9, k=3, ht_w2=4, longest=((4, 0), 4, 8), top=8)
    with pytest.raises(OSError, match="disk full"):
        save_record(str(tmp_path), summary)
    assert os.listdir(tmp_path) == []
