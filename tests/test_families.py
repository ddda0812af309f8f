"""Checks for the six counting families.

Expected numbers were produced by the definition-level filter in
bruteforce.py (enumerate every partition, keep the ones whose unique
largest part equals the sum of the rest) and are frozen here; the same
module is also run live against the fast code for small n.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from echopart import (
    CoefficientRecord,
    Family,
    TruncatedSeries,
    direct_count,
    direct_counts_upto,
    evaluate,
    genfun_series,
    list_partitions,
    verify,
)
from echopart import families as families_module
from echopart import partitions as partitions_module
from echopart.families import CONSTRAINTS

# values at n = 0, 2, 4, ..., 30; odd n are all zero
EXPECTED_EVEN = {
    Family.PLAIN: [0, 0, 1, 2, 4, 6, 10, 14, 21, 29, 41, 55, 76, 100, 134, 175],
    Family.DISTINCT: [0, 0, 0, 1, 1, 2, 3, 4, 5, 7, 9, 11, 14, 17, 21, 26],
    Family.ODD: [0, 0, 1, 1, 2, 2, 4, 4, 6, 7, 10, 11, 15, 17, 22, 26],
    Family.ODD_DISTINCT: [0, 0, 0, 0, 1, 0, 1, 0, 2, 1, 2, 1, 3, 2, 3, 3],
    Family.MOD3: [0, 0, 0, 1, 0, 1, 2, 2, 2, 3, 3, 4, 6, 6, 7, 9],
    Family.MOD6: [0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8, 9],
}


def test_token_parsing():
    assert Family.from_token("plain") is Family.PLAIN
    assert Family.from_token("MOD3") is Family.MOD3
    assert Family.from_token("odd_distinct") is Family.ODD_DISTINCT
    assert Family.from_token(" Odd-Distinct ") is Family.ODD_DISTINCT
    with pytest.raises(ValueError):
        Family.from_token("even")


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_direct_count_golden(family):
    assert [direct_count(family, 2 * k) for k in range(16)] == EXPECTED_EVEN[family]


# Values that depend on neither route: a family's count at 2*l is the number
# of partitions of l in its class minus the single-part one.  p(100) =
# 190569292, p(200) = 3972999029388 and q(100) = 444793 distinct partitions
# (Andrews, The Theory of Partitions; MacMahon's table).
CLASSICAL_ANCHORS = [
    (Family.PLAIN, 200, 190569292 - 1),
    (Family.PLAIN, 400, 3972999029388 - 1),
    (Family.DISTINCT, 200, 444793 - 1),
]


@pytest.mark.parametrize("route", ["direct_count", "genfun_series"])
@pytest.mark.parametrize(
    "family, n, value", CLASSICAL_ANCHORS, ids=lambda v: getattr(v, "value", str(v))
)
def test_classical_value_anchor(route, family, n, value):
    if route == "direct_count":
        assert direct_count(family, n) == value
    else:
        assert genfun_series(family, n).coefficient(n) == value


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_direct_count_matches_definition(family):
    for n in range(31):
        assert direct_count(family, n) == bruteforce.reference_family_count(
            family.value, n
        )


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_parity_and_zero(family):
    assert direct_count(family, 0) == 0
    for n in range(1, 60, 2):
        assert direct_count(family, n) == 0
    with pytest.raises(ValueError):
        direct_count(family, -2)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_batched_counts_agree(family):
    assert direct_counts_upto(family, 75) == [
        direct_count(family, n) for n in range(76)
    ]


def test_batched_counts_reject_negative_limit():
    with pytest.raises(ValueError, match="^limit must be non-negative, got -1$"):
        direct_counts_upto(Family.PLAIN, -1)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_genfun_constant_term_is_zero(family):
    assert genfun_series(family, 0).coefficient(0) == 0


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_genfun_agrees_with_direct(family):
    order = 120
    series = genfun_series(family, order)
    direct = direct_counts_upto(family, order)
    assert list(series.coeffs) == direct


def test_singleton_rule():
    # whether the one-part partition {largest} qualifies is the residue rule
    for largest in range(1, 40):
        assert CONSTRAINTS[Family.PLAIN].allows(largest)
        assert CONSTRAINTS[Family.DISTINCT].allows(largest)
        assert CONSTRAINTS[Family.ODD].allows(largest) == (largest % 2 == 1)
        assert CONSTRAINTS[Family.ODD_DISTINCT].allows(largest) == (largest % 2 == 1)
        assert CONSTRAINTS[Family.MOD3].allows(largest) == (largest % 3 != 0)
        assert CONSTRAINTS[Family.MOD6].allows(largest) == (largest % 6 in (1, 5))


def test_cross_relation_mod3_mod6():
    # the two counts differ by the singleton rule alone, so the gap is -1
    # exactly when the largest part is even and not divisible by 3
    for largest in range(61):
        gap = direct_count(Family.MOD3, 2 * largest) - direct_count(
            Family.MOD6, 2 * largest
        )
        assert gap == (-1 if largest % 6 in (2, 4) else 0)


def test_list_partitions_golden():
    assert list_partitions(Family.PLAIN, 10) == [
        (5, 4, 1),
        (5, 3, 2),
        (5, 3, 1, 1),
        (5, 2, 2, 1),
        (5, 2, 1, 1, 1),
        (5, 1, 1, 1, 1, 1),
    ]
    assert list_partitions(Family.PLAIN, 8) == [
        (4, 3, 1),
        (4, 2, 2),
        (4, 2, 1, 1),
        (4, 1, 1, 1, 1),
    ]
    assert list_partitions(Family.DISTINCT, 6) == [(3, 2, 1)]
    assert list_partitions(Family.ODD_DISTINCT, 8) == [(4, 3, 1)]
    assert list_partitions(Family.MOD6, 8) == [(4, 1, 1, 1, 1)]
    assert list_partitions(Family.MOD3, 12) == [(6, 5, 1), (6, 4, 2)]
    assert list_partitions(Family.MOD3, 8) == []
    assert list_partitions(Family.PLAIN, 0) == []
    assert list_partitions(Family.PLAIN, 2) == []


def test_list_partitions_validation():
    with pytest.raises(ValueError):
        list_partitions(Family.PLAIN, 9)
    with pytest.raises(ValueError):
        list_partitions(Family.PLAIN, -2)
    with pytest.raises(ValueError):
        list_partitions(Family.PLAIN, 122)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_list_partitions_consistency(family):
    constraint = CONSTRAINTS[family]
    for n in range(0, 41, 2):
        witnesses = list_partitions(family, n)
        assert len(witnesses) == direct_count(family, n)
        assert witnesses == bruteforce.reference_family_partitions(family.value, n)
        for parts in witnesses:
            assert sum(parts) == n
            assert sum(parts[1:]) == parts[0]
            assert len(parts) >= 2 and parts[1] < parts[0]
            assert all(constraint.allows(p) for p in parts[1:])


def test_verification_report_shape():
    report = verify(Family.ODD, 20)
    assert report.all_equal
    assert report.mismatches == ()
    assert report.first_mismatch() is None
    assert len(report.records) == 21
    payload = report.to_json_dict()
    assert list(payload) == ["variant", "order", "records", "all_equal"]
    assert payload["variant"] == "odd"
    assert payload["order"] == 20
    assert payload["all_equal"] is True
    assert payload["records"][8] == {"n": 8, "genfun": 2, "direct": 2, "equal": True}
    with pytest.raises(ValueError):
        verify(Family.ODD, -1)


def test_verify_order_zero():
    report = verify(Family.PLAIN, 0)
    assert len(report.records) == 1
    assert report.records[0] == CoefficientRecord(0, 0, 0)
    assert report.all_equal


def test_corrupted_recipe_is_detected(monkeypatch):
    """Negative control: a recipe with an extra comb must fail verification."""
    bad = families_module.RECIPES[Family.PLAIN] + " + q^7/(1-q^9)"
    monkeypatch.setitem(families_module.RECIPES, Family.PLAIN, bad)
    report = verify(Family.PLAIN, 30)
    assert not report.all_equal
    first = report.first_mismatch()
    assert first.n == 7
    assert first.genfun == first.direct + 1
    # other families are untouched
    assert verify(Family.DISTINCT, 30).all_equal


def test_corrupted_recipe_report_is_pinned(monkeypatch):
    """The derived views of a failing report, read from its two sequences."""
    bad = families_module.RECIPES[Family.PLAIN] + " + q^7/(1-q^9)"
    monkeypatch.setitem(families_module.RECIPES, Family.PLAIN, bad)
    report = verify(Family.PLAIN, 30)
    assert report.mismatches == (
        CoefficientRecord(7, 1, 0),
        CoefficientRecord(16, 22, 21),
        CoefficientRecord(25, 1, 0),
    )
    assert report.mismatches == tuple(r for r in report.records if not r.equal)
    assert report.first_mismatch() == CoefficientRecord(7, 1, 0)
    expected = [(0, 0), (0, 0), (0, 0), (0, 0), (1, 1), (0, 0), (2, 2), (1, 0), (4, 4)]
    assert verify(Family.PLAIN, 8).to_json_dict() == {
        "variant": "plain",
        "order": 8,
        "records": [
            {"n": n, "genfun": g, "direct": d, "equal": g == d}
            for n, (g, d) in enumerate(expected)
        ],
        "all_equal": False,
    }


def test_records_are_built_on_first_read_only(spy):
    built = spy(families_module, "CoefficientRecord", lambda n, *rest: n)
    report = verify(Family.MOD6, 40)
    assert report.genfun == report.direct == tuple(direct_counts_upto(Family.MOD6, 40))
    assert report.all_equal and report.mismatches == () and report.first_mismatch() is None
    assert report.to_json_dict()["records"][40]["genfun"] == report.genfun[40]
    assert built == []
    records = report.records
    assert built == list(range(41))
    assert report.records is records
    assert built == list(range(41))
    assert records == tuple(CoefficientRecord(n, g, g) for n, g in enumerate(report.genfun))


# The paper's product for each family, as (factors, inverted) for
# bruteforce.product_coeffs; it is each recipe's first term.
PAPER_PRODUCTS = {
    Family.PLAIN: ([(1, 2, 2)], True),                     # 1/(q^2;q^2)
    Family.DISTINCT: ([(-1, 2, 2)], False),                # (-q^2;q^2)
    Family.ODD: ([(1, 2, 4)], True),                       # 1/(q^2;q^4)
    Family.ODD_DISTINCT: ([(-1, 2, 4)], False),            # (-q^2;q^4)
    Family.MOD3: ([(-1, 2, 6), (-1, 4, 6)], False),        # (-q^2,-q^4;q^6)
    Family.MOD6: ([(1, 2, 12), (1, 10, 12)], True),        # 1/(q^2,q^10;q^12)
}


@given(family=st.sampled_from(list(Family)), order=st.integers(min_value=0, max_value=80))
@settings(max_examples=60)
def test_recipe_quotient_is_the_paper_product(family, order):
    # the first term is the product; the combs and the constant follow it
    product = re.split(r" [-+] ", families_module.RECIPES[family])[0]
    factors, inverted = PAPER_PRODUCTS[family]
    expected = bruteforce.product_coeffs(factors, order, inverted=inverted)
    assert list(evaluate(product, order).coeffs) == expected


def test_closed_form_route_never_counts_partitions(refuse):
    """The closed forms must not lean on the DP they are checked against."""
    refuse(partitions_module, "count_upto", "count")
    for family in Family:
        series = genfun_series(family, 200)
        assert list(series.coeffs[:31:2]) == EXPECTED_EVEN[family]


def test_recipe_quotients_divide_once_and_never_multiply(spy, refuse):
    """No recipe multiplies two series; only plain's reciprocal goes
    through invert(), at half the order, since every recipe is a series in
    q^2.  A term with an odd exponent keeps the full order."""
    refuse(TruncatedSeries, "__mul__")
    inverted = spy(TruncatedSeries, "invert", lambda self: self.order)
    for family in Family:
        evaluate(families_module.RECIPES[family], 60)
    evaluate(families_module.RECIPES[Family.PLAIN] + " - q/(1-q^2)", 60)
    assert inverted == [30, 60]


# Each recipe's product as the quotient of theta series it equals, which
# qproducts expands on its sparse path: (1 + x) = (1 - x^2)/(1 - x),
# (q^2;q^2) = (q^2;q^4)(q^4;q^4), and the (q^m;q^m)/(q^m;q^m) factors
# complete (-q^2,-q^6;q^8), (-q^2,-q^4;q^6) and (q^2,q^10;q^12) to
# triple products.
THETA_FORMS = {
    Family.PLAIN: "1/(q^2;q^2) - 1/(1-q^2)",
    Family.DISTINCT: "(q^4;q^4)/(q^2;q^2) - 1/(1-q^2)",
    Family.ODD: "(q^4;q^4)/(q^2;q^2) - q^2/(1-q^4) - 1",
    Family.ODD_DISTINCT: "(-q^2,-q^6,q^8;q^8)/(q^8;q^8) - q^2/(1-q^4) - 1",
    Family.MOD3: "(-q^2,-q^4,q^6;q^6)/(q^6;q^6) - q^2/(1-q^2) + q^6/(1-q^6) - 1",
    Family.MOD6: "(q^12;q^12)/(q^2,q^10,q^12;q^12) - q^2/(1-q^12) - q^10/(1-q^12) - 1",
}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_recipes_equal_their_theta_quotients(family):
    """The dense Euler/Cauchy route and the theta route agree on every
    recipe, at twice criterion 10's order."""
    assert genfun_series(family, 4000) == evaluate(THETA_FORMS[family], 4000)
