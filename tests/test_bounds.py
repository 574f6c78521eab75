"""Bound arithmetic, closed-form tables, and report assembly."""

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength import cli, grassmann
from cuplength.bounds import (
    Bound,
    BoundReport,
    check_a2,
    full_report,
    grossman_upper,
    lower_a3,
    prop_b_bound,
    prop_d_bound,
    prop_d_upper_table_value,
    summarize_oriented,
    upper_a1,
    upper_b1,
)
from cuplength.grassmann import GrassmannPresentation, load_record, save_record
from cuplength.heights import rational_p1_height


def test_degree_count_basics():
    assert upper_a1(18, 2) == 9
    assert check_a2(18, 2, 9) == 9
    assert check_a2(18, 2, 8) is None
    with pytest.raises(ValueError):
        check_a2(18, 2, 0)
    assert lower_a3(18, 4, 8) == 5
    assert lower_a3(18, 9, 18) == 9
    with pytest.raises(ValueError):
        lower_a3(18, 4, 19)
    with pytest.raises(ValueError):
        lower_a3(18, 0, 0)


def test_degree_count_in_degree_4():
    # The rational report counts in degree 4: (8, 4) is exact by (a2), (12, 5) and (13, 4) are not.
    assert upper_a1(16, 4) == 4
    assert check_a2(16, 4, 4) == 4
    assert upper_a1(35, 4) == 8
    assert check_a2(35, 4, 6) is None
    assert check_a2(36, 4, 8) is None


def test_nilpotency_refinement():
    assert upper_b1(9, 1) == 3
    assert upper_b1(18, 4) == 7
    assert upper_b1(21, 4) == 8
    with pytest.raises(ValueError):
        upper_b1(18, 9)
    with pytest.raises(ValueError):
        upper_b1(18, 0)


@settings(max_examples=120)
@given(st.integers(4, 200), st.integers(1, 60))
def test_refinement_strictly_beats_degree_count(N, h):
    if not 2 * h < N:
        return
    bound = upper_b1(N, h)
    assert 2 * bound < N
    assert bound <= upper_a1(N, 2)


def test_prop_b_bound_closed_forms():
    def lower(n, k):
        return prop_b_bound(n, k)[0].value

    assert lower(6, 3) == 3
    assert lower(7, 3) == 5
    assert lower(9, 3) == 5
    assert lower(12, 3) == 5
    assert lower(13, 3) == 8
    assert lower(14, 3) == 8
    assert lower(15, 3) == 9
    assert lower(10, 4) == 5
    assert lower(13, 4) == 5
    assert lower(14, 4) == 8
    assert lower(15, 5) == 8
    with pytest.raises(ValueError):
        prop_b_bound(7, 4)


def test_prop_b_bound_certificate_consistency():
    for k in (3, 4, 5):
        for n in range(2 * k, 40):
            bound, (exps, length, degree) = prop_b_bound(n, k)
            assert degree == sum(e * w for e, w in zip(exps, range(2, k + 1)))
            assert length == sum(exps)
            assert lower_a3(k * (n - k), length, degree) == bound.value, (n, k)


def test_prop_d_bound_spots():
    assert prop_d_bound(6, 3).value == 3
    assert prop_d_bound(9, 3).value == 8
    assert prop_d_bound(10, 4).value == 12
    assert prop_d_bound(12, 5).value == 16
    assert prop_d_bound(10, 5).value == 12
    assert prop_d_upper_table_value(10, 5) == 13
    with pytest.raises(ValueError):
        prop_d_bound(7, 4)


@pytest.mark.parametrize(
    "n,k,lower,certificate,upper",
    [
        (6, 3, Bound(3, "B(a)"), ((1, 1), 2, 5), Bound(3, "D(a)")),
        (7, 3, Bound(5, "B(b)"), ((4, 0), 4, 8), Bound(6, "D(b)")),
        (13, 3, Bound(8, "B(b)"), ((7, 0), 7, 14), Bound(14, "D(b)")),
        (9, 3, Bound(5, "B(c)"), ((4, 0), 4, 8), Bound(8, "D(b)")),
        (12, 3, Bound(5, "B(c)"), ((4, 0), 4, 8), Bound(12, "D(b)")),
        (10, 4, Bound(5, "B(d)"), ((4, 0, 0), 4, 8), Bound(12, "D(b)")),
        (14, 4, Bound(8, "B(d)"), ((7, 0, 0), 7, 14), Bound(18, "D(b)")),
        # The table's 13 exceeds the degree count N // 2 = 12.
        (10, 5, Bound(5, "B(d)"), ((4, 0, 0, 0), 4, 8), Bound(12, "(a1)")),
    ],
)
def test_table_labels(n, k, lower, certificate, upper):
    assert prop_b_bound(n, k) == (lower, certificate)
    assert prop_d_bound(n, k) == upper


def test_rational_walkthroughs():
    rb = full_report(8, 4, "Q")
    assert (rb.lower, rb.upper, rb.exact) == (4, 4, True)
    rb = full_report(13, 4, "Q")
    assert (rb.lower, rb.upper) == (9, 9)
    assert full_report(10, 4, "Q").exact
    assert full_report(11, 4, "Q").exact
    assert not full_report(12, 5, "Q").exact
    with pytest.raises(ValueError):
        full_report(9, 3, "Q")


@settings(max_examples=150)
@given(st.integers(4, 12), st.integers(0, 40))
def test_rational_bounds_are_ordered(k, spread):
    n = 2 * k + spread
    rb = full_report(n, k, "Q")
    h = rational_p1_height(n, k)
    assert rb.lower <= rb.upper
    assert rb.upper == k * (n - k) // 4
    assert rb.exact == (rb.lower == rb.upper)
    if n % 2 == 0 and k % 2 == 0:
        assert rb.exact, "even/even equality family"


def test_grossman_and_cat_lower():
    assert grossman_upper(9, 2) == 5
    assert grossman_upper(18, 2) == 10
    with pytest.raises(ValueError):
        grossman_upper(1, 2)


def test_report_smallest_space():
    report = full_report(6, 3)
    assert (report.lower, report.upper, report.exact) == (3, 3, True)
    assert (report.cat_lower, report.cat_upper) == (4, 5)
    assert report.lower_method == "B(a)"
    assert report.paper_upper_method == "D(a)"


def test_report_sharpened_upper():
    report = full_report(9, 3)
    assert (report.paper_lower, report.paper_upper) == (5, 8)
    assert (report.lower, report.upper) == (5, 7)
    assert report.upper_method == "(b1) computed height"
    assert dict(report.certificates)["oriented-height"].startswith("ht = 4")


def test_report_product_sharpened_lower():
    report = full_report(11, 3)
    assert report.lower == 6
    assert report.lower_method == "(a3) product"
    assert report.paper_lower == 5


def test_report_closed_form_only():
    report = full_report(9, 3)
    assert (report.paper_lower, report.paper_upper) == (5, 8)
    assert (report.paper_lower_method, report.paper_upper_method) == ("B(c)", "D(b)")
    assert report.paper_cat_lower == 6


def test_report_q_override():
    # q = 3 is fixed; full_report takes no override of it.
    with pytest.raises(TypeError, match="q_override"):
        full_report(9, 3, q_override=4)
    report = full_report(9, 3)
    assert report.lower <= report.upper


def test_b1_takes_q_3():
    summary = summarize_oriented(GrassmannPresentation(9, 3))
    report = full_report(9, 3, summary=summary)
    assert ("(b1) computed", "exponent 4, q = 3: upper bound 7") in report.certificates
    assert (report.upper, report.upper_method) == (7, "(b1) computed height")


def test_z2_report_refuses_a_w2_height_of_half_the_formal_dimension():
    # C ends below N over Z2, so 2 * ht(w2) < N and (a2) cannot apply: a summary
    # claiming ht = 9 for (9, 3), N = 18, is refused when it is made instead of
    # printing the exact value 9.
    summary = summarize_oriented(GrassmannPresentation(9, 3))
    assert 2 * summary.ht_w2 < 18
    with pytest.raises(ValueError, match=r"^w2\^9 lies in degree 18, which has no classes$"):
        full_report(9, 3, summary=dataclasses.replace(summary, ht_w2=9))


@pytest.mark.parametrize(
    "ring,changes,message",
    [
        # Each of these used to print a false report: lower 7 = upper 7 (truth 5..7),
        # lower 6 (truth 5), and upper 19 below the true 20.
        ((9, 3), {"longest": ((4, 0), 6, 8)}, "the longest product's length is not the sum of its exponents"),
        ((9, 3), {"ht_w2": 5, "longest": ((5, 0), 5, 10)}, "the longest product lies in degree 10, which has no classes"),
        ((16, 4), {"ht_w2": 9}, r"ht_w2 = 9 is outside \[12, 15\] set by the longest product"),
    ],
)
def test_library_summary_is_refused_when_it_is_made(ring, changes, message):
    summary = summarize_oriented(GrassmannPresentation(*ring))
    with pytest.raises(ValueError, match=f"^{message}$"):
        full_report(*ring, summary=dataclasses.replace(summary, **changes))


def test_report_refuses_a_summary_of_another_ring():
    summary = summarize_oriented(GrassmannPresentation(10, 3))
    with pytest.raises(ValueError, match=r"^a summary of \(10, 3\) cannot bound \(9, 3\)$"):
        full_report(9, 3, summary=summary)


def test_report_from_summary_matches_fresh(tmp_path):
    pres = GrassmannPresentation(10, 3)
    summary = summarize_oriented(pres)
    save_record(str(tmp_path), summary)
    round_tripped = load_record(str(tmp_path), 10, 3)
    assert round_tripped == summary
    assert full_report(10, 3, summary=round_tripped) == full_report(10, 3)


def test_summary_path_computes_only_the_relations_of_c(monkeypatch, capsys):
    # C's relations are the components of 1/(1 + w2 + ... + wk): neither a fresh report nor
    # a cold bounds command computes the series over w1..wk.
    seen = []
    series = grassmann.inverse_series_components

    def recording(weights, *args):
        seen.append(tuple(weights))
        return series(weights, *args)

    monkeypatch.setattr(grassmann, "inverse_series_components", recording)
    assert full_report(10, 4) == full_report(10, 4, summary=summarize_oriented(GrassmannPresentation(10, 4)))
    assert seen == [(2, 3, 4), (1, 2, 3, 4), (2, 3, 4)]
    seen.clear()
    assert cli.main(["bounds", "10", "4"]) == 0
    assert seen == [(2, 3, 4)]
    capsys.readouterr()


def test_report_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        BoundReport(
            n=9,
            k=3,
            field_tag="Z2",
            lower=9,
            lower_method="x",
            upper=3,
            upper_method="y",
            paper_lower=5,
            paper_lower_method="x",
            paper_upper=8,
            paper_upper_method="y",
            cat_lower=10,
            cat_upper=10,
            paper_cat_lower=6,
            exact=False,
        )


def test_rational_report():
    report = full_report(13, 4, field_tag="Q")
    assert (report.lower, report.upper, report.exact) == (9, 9, True)
    assert report.cat_lower == 10
    assert report.cat_upper == grossman_upper(36, 2)
    with pytest.raises(ValueError):
        full_report(9, 3, field_tag="Q")


def test_finished_ring_is_freed_without_cyclic_gc():
    gc.disable()
    try:
        pres = GrassmannPresentation(9, 3)
        ref = weakref.ref(pres)
        summarize_oriented(pres)
        del pres
        assert ref() is None
    finally:
        gc.enable()
