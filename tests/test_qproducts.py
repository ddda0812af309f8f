import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from echopart import (
    DISTINCT,
    GeometricSpec,
    PochhammerSpec,
    UNRESTRICTED,
    count_upto,
    geometric,
    monomial,
    one,
    pochhammer,
)

EULER = PochhammerSpec(((1, 1, 1),))  # (q;q)_inf


def test_euler_product_coefficients():
    # pentagonal-number pattern of the expansion
    s = pochhammer(EULER, 10)
    assert s.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0)


def test_partition_generating_function():
    s = pochhammer(EULER, 10).invert()
    assert s.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_negative_sign_product():
    # (-q^2;q^2)_inf counts partitions into distinct even parts
    s = pochhammer(PochhammerSpec(((-1, 2, 2),)), 10)
    assert s.coeffs == (1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3)


def test_two_factor_products():
    s = pochhammer(PochhammerSpec(((-1, 2, 6), (-1, 4, 6))), 12)
    assert s.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2)
    t = pochhammer(PochhammerSpec(((1, 2, 12), (1, 10, 12))), 14).invert()
    assert t.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3)


def test_order_zero():
    assert pochhammer(EULER, 0).coeffs == (1,)
    assert geometric(GeometricSpec(0, 2), 0).coeffs == (1,)
    assert geometric(GeometricSpec(3, 2), 0).coeffs == (0,)


def test_spec_validation():
    with pytest.raises(ValueError):
        PochhammerSpec(((2, 1, 1),))
    with pytest.raises(ValueError):
        PochhammerSpec(((1, 0, 1),))
    with pytest.raises(ValueError):
        PochhammerSpec(((1, 1, 0),))
    with pytest.raises(ValueError):
        GeometricSpec(-1, 2)
    with pytest.raises(ValueError):
        GeometricSpec(2, 0)


def test_geometric_comb():
    # q^2/(1-q^2) puts a 1 at 2, 4, 6, ...
    assert geometric(GeometricSpec(2, 2), 9).coeffs == (0, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    # q^0/(1-q^3) includes the constant term
    assert geometric(GeometricSpec(0, 3), 7).coeffs == (1, 0, 0, 1, 0, 0, 1, 0)


@given(
    numerator=st.integers(min_value=0, max_value=10),
    period=st.integers(min_value=1, max_value=12),
    order=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60)
def test_geometric_matches_series_division(numerator, period, order):
    direct = geometric(GeometricSpec(numerator, period), order)
    via_algebra = monomial(1, numerator, order) * (
        one(order) - monomial(1, period, order)
    ).invert()
    assert direct == via_algebra


FACTOR = st.tuples(
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)


@given(
    factors=st.lists(FACTOR, min_size=1, max_size=3),
    order=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60)
def test_matches_naive_expansion(factors, order):
    spec = PochhammerSpec(tuple(factors))
    expected = bruteforce.product_coeffs(factors, order)
    assert list(pochhammer(spec, order).coeffs) == expected


def test_agrees_with_partition_counter():
    order = 100
    assert list(pochhammer(EULER, order).invert().coeffs) == count_upto(
        order, UNRESTRICTED
    )
    distinct_series = pochhammer(PochhammerSpec(((-1, 1, 1),)), order)
    assert list(distinct_series.coeffs) == count_upto(order, DISTINCT)


def test_factor_normalization():
    spec = PochhammerSpec(((-1, 2, 6), (-1, 4, 6)))
    for factor in spec.factors:
        assert factor.sign in (1, -1)
        assert factor.offset >= 1
        assert factor.step >= 1


# -- theta shapes: Euler's (q^m;q^m) and the triple (s*q^a, s*q^(m-a), q^m; q^m)


def _binomial_loop(factors, order):
    """The same product through the general binomial loop.

    (q^m;q^m) = (q^m, q^(2m); q^(2m)) splits every (1, m, m) factor in two,
    which no theta shape matches.
    """
    split = []
    for sign, offset, step in factors:
        if (sign, offset) == (1, step):
            split += [(1, step, 2 * step), (1, 2 * step, 2 * step)]
        else:
            split.append((sign, offset, step))
    return pochhammer(PochhammerSpec(tuple(split)), order)


@st.composite
def triple_factors(draw):
    m = draw(st.integers(min_value=2, max_value=12))
    a = draw(st.integers(min_value=1, max_value=m - 1))
    s = draw(st.sampled_from((1, -1)))
    return draw(st.permutations([(s, a, m), (s, m - a, m), (1, m, m)]))


EULER_FACTORS = st.integers(min_value=1, max_value=12).map(lambda m: [(1, m, m)])
ORDERS = st.integers(min_value=0, max_value=80)


@given(factors=st.one_of(EULER_FACTORS, triple_factors()), order=ORDERS)
@settings(max_examples=150)
def test_theta_shapes_match_naive_expansion(factors, order):
    series = pochhammer(PochhammerSpec(tuple(factors)), order)
    assert list(series.coeffs) == bruteforce.product_coeffs(factors, order)
    assert series == _binomial_loop(factors, order)


THETA_SPECS = [
    ((1, 1, 1),),                          # (q;q): pentagonal numbers
    ((1, 3, 3),),
    ((1, 1, 3), (1, 2, 3), (1, 3, 3)),     # (q, q^2, q^3; q^3) = (q;q)
    ((-1, 1, 2), (-1, 1, 2), (1, 2, 2)),   # a = m/2: theta_3(q), twos at squares
    ((1, 2, 2), (1, 1, 2), (1, 1, 2)),     # theta_4(q), any factor order
    ((1, 12, 12), (-1, 2, 12), (-1, 10, 12)),
    ((1, 5, 7), (1, 7, 7), (1, 2, 7)),
]


def _theta_exponents(factors, limit):
    """Exponents of the nonzero coefficients, from the naive expansion."""
    return [e for e, c in enumerate(bruteforce.product_coeffs(factors, limit)) if c]


@pytest.mark.parametrize("factors", THETA_SPECS)
def test_theta_shapes_at_edge_orders(factors):
    """Orders 0, 1, 2 and orders landing exactly on a nonzero term."""
    for order in sorted({0, 1, 2, *_theta_exponents(factors, 60)}):
        series = pochhammer(PochhammerSpec(factors), order)
        assert series == _binomial_loop(factors, order), order
        assert list(series.coeffs) == bruteforce.product_coeffs(factors, order), order


@pytest.mark.parametrize(
    "factors",
    [
        ((1, 2, 2), (1, 2, 2)),            # two factors
        ((-1, 3, 3),),                     # (-q^3;q^3) is not Euler's
        ((1, 1, 3), (1, 2, 3), (-1, 3, 3)),
        ((1, 1, 4), (-1, 3, 4), (1, 4, 4)),  # mixed signs
        ((1, 1, 4), (1, 2, 4), (1, 4, 4)),   # offsets do not sum to m
        ((1, 1, 3), (1, 2, 6), (1, 3, 3)),   # mixed steps
        ((1, 3, 3), (1, 3, 3), (1, 3, 3)),
    ],
)
def test_near_theta_shapes_expand_by_binomials(factors):
    assert list(pochhammer(PochhammerSpec(factors), 40).coeffs) == (
        bruteforce.product_coeffs(factors, 40)
    )
