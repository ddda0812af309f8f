"""Ring-law checks for the series arithmetic, driven by hypothesis.

Orders stay small (N <= 64) so the exhaustive convolutions are cheap; the
coefficient range includes huge magnitudes to exercise exactness.  Products
are also checked against tests/bruteforce.py at orders up to 300.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from echopart import TruncatedSeries, one, zero

ORDERS = st.integers(min_value=0, max_value=64)
COEFF = st.integers(min_value=-(10**12), max_value=10**12)


@st.composite
def series_triple(draw):
    n = draw(ORDERS)
    mk = lambda: TruncatedSeries(tuple(draw(st.lists(COEFF, min_size=n + 1, max_size=n + 1))))
    return mk(), mk(), mk()


@st.composite
def unit_series(draw):
    n = draw(ORDERS)
    tail = draw(st.lists(COEFF, min_size=n, max_size=n))
    c0 = draw(st.sampled_from((1, -1)))
    return TruncatedSeries((c0, *tail))


@given(series_triple())
@settings(max_examples=120)
def test_addition_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero(a.order) == a
    assert a + (-a) == zero(a.order)


@given(series_triple())
@settings(max_examples=120)
def test_multiplication_laws(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one(a.order) == a
    assert a * zero(a.order) == zero(a.order)


@given(series_triple())
@settings(max_examples=120)
def test_distributivity(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(unit_series())
@settings(max_examples=120)
def test_invert_round_trip(s):
    assert s * s.invert() == one(s.order)
    assert s.invert().invert() == s


@given(series_triple(), st.integers(min_value=0, max_value=64))
@settings(max_examples=120)
def test_operations_commute_with_truncation(triple, k):
    a, b, _ = triple
    k = min(k, a.order)
    assert (a + b).truncate(k) == a.truncate(k) + b.truncate(k)
    assert (a * b).truncate(k) == a.truncate(k) * b.truncate(k)


@given(unit_series(), st.integers(min_value=0, max_value=64))
@settings(max_examples=60)
def test_invert_commutes_with_truncation(s, k):
    k = min(k, s.order)
    assert s.invert().truncate(k) == s.truncate(k).invert()


@st.composite
def dense(draw, n):
    return TruncatedSeries(tuple(draw(st.lists(COEFF, min_size=n + 1, max_size=n + 1))))


@st.composite
def sparse(draw, n):
    """At most six nonzero coefficients, like a short stretch of a theta series."""
    coeffs = [0] * (n + 1)
    for e, c in draw(st.dictionaries(st.integers(min_value=0, max_value=n), COEFF, max_size=6)).items():
        coeffs[e] = c
    return TruncatedSeries(tuple(coeffs))


@st.composite
def factor_pairs(draw):
    """(a, b) at one order up to 300: sparse * dense, dense * sparse or dense * dense."""
    n = draw(st.integers(min_value=0, max_value=300))
    left, right = draw(st.sampled_from(((sparse, dense), (dense, sparse), (dense, dense))))
    return draw(left(n)), draw(right(n))


@given(factor_pairs())
@settings(max_examples=100, deadline=None)
def test_multiplication_matches_the_reference(pair):
    a, b = pair
    expected = bruteforce.poly_mul(list(a.coeffs), list(b.coeffs), a.order)
    assert list((a * b).coeffs) == expected
