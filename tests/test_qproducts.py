import math
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce
from echopart import (
    DISTINCT,
    GeometricSpec,
    PochhammerSpec,
    TruncatedSeries,
    UNRESTRICTED,
    count_upto,
    evaluate,
    geometric,
    monomial,
    one,
    pochhammer,
    zero,
)
from echopart import qproducts
from echopart.cli import MAX_ORDER

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
    # an empty factor list is the constant 1 at every order
    for order in range(6):
        assert pochhammer(PochhammerSpec(()), order) == one(order)
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
    st.integers(min_value=1, max_value=16),  # often above the step
    st.integers(min_value=1, max_value=8),
)


def _up_to_three(draw, part):
    """One to three parts drawn from the strategy part, sometimes repeated."""
    parts = draw(st.lists(part, min_size=1, max_size=3))
    return parts + draw(st.lists(st.sampled_from(parts), max_size=3 - len(parts)))


@given(
    factors=st.composite(_up_to_three)(FACTOR),
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
    assert list(series.coeffs) == bruteforce.binomial_loop(factors, order)


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
    """Orders 0, 1, 2 and orders landing exactly on a nonzero term; every
    ordering of the factors is the same theta shape."""
    shapes = {qproducts._theta_shape(PochhammerSpec(p).factors) for p in permutations(factors)}
    assert len(shapes) == 1 and None not in shapes
    for order in sorted({0, 1, 2, *_theta_exponents(factors, 60)}):
        series = pochhammer(PochhammerSpec(factors), order)
        assert list(series.coeffs) == bruteforce.binomial_loop(factors, order), order
        assert list(series.coeffs) == bruteforce.product_coeffs(factors, order), order


@st.composite
def dividends_and_divisors(draw):
    """(a, b) at one order up to 300; b has constant term +-1 and is either
    dense or a theta series from pochhammer."""
    n = draw(st.integers(min_value=0, max_value=300))
    a = draw(st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=n + 1, max_size=n + 1))
    unit = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        tail = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
        b = TruncatedSeries((unit, *tail))
    else:
        theta = pochhammer(PochhammerSpec(tuple(draw(st.one_of(EULER_FACTORS, triple_factors())))), n)
        b = theta if unit == 1 else -theta
    return TruncatedSeries(tuple(a)), b


@given(dividends_and_divisors())
@settings(max_examples=100, deadline=None)
def test_division_matches_inverse_times_and_the_reference(pair):
    a, b = pair
    quotient = a / b
    assert quotient == a * b.invert()
    assert bruteforce.poly_mul(list(quotient.coeffs), list(b.coeffs), a.order) == list(a.coeffs)


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
        ((1, 2, 2), (1, 1, 2), (1, 2, 2)),   # two q^m factors
    ],
)
def test_near_theta_shapes_expand_by_binomials(factors):
    for p in permutations(factors):
        assert qproducts._theta_shape(PochhammerSpec(p).factors) is None
    assert list(pochhammer(PochhammerSpec(factors), 40).coeffs) == (
        bruteforce.product_coeffs(factors, 40)
    )


# -- evaluate: signed sums of constants, combs, symbols, reciprocals, quotients


def _q(e, draw):
    """q^e as text, sometimes as the bare 'q' or an explicit 'q^1'."""
    return "q" if e == 1 and draw(st.booleans()) else f"q^{e}"


@st.composite
def symbols(draw, g=1):
    """(text, factors) of a Pochhammer symbol: steps g*(1-6), offsets
    g*(1-16), up to three factors, some repeated."""
    step = g * draw(st.integers(min_value=1, max_value=6))
    offsets = st.integers(min_value=1, max_value=16).map(g.__mul__)
    parts = _up_to_three(draw, st.tuples(st.sampled_from((1, -1)), offsets))
    body = ",".join(("-" if sign < 0 else "") + _q(e, draw) for sign, e in parts)
    return f"({body};{_q(step, draw)})", [(sign, offset, step) for sign, offset in parts]


@st.composite
def terms(draw, g=1):
    """(text, direct(order), oracle(order)) for one term, every exponent a
    multiple of g.

    direct builds the term from pochhammer/geometric/invert; oracle expands
    it with tests/bruteforce.py alone.
    """
    kind = draw(st.sampled_from(("constant", "comb", "symbol", "reciprocal", "quotient")))
    if kind == "constant":
        c = draw(st.integers(min_value=0, max_value=5))
        return str(c), lambda n: monomial(c, 0, n), lambda n: [c] + [0] * n
    if kind == "comb":
        k = g * draw(st.integers(min_value=0, max_value=8))
        d = g * draw(st.integers(min_value=1, max_value=8))
        numerator = "1" if k == 0 else _q(k, draw)
        return (
            f"{numerator}/(1-{_q(d, draw)})",
            lambda n: geometric(GeometricSpec(k, d), n),
            lambda n: [int(e >= k and (e - k) % d == 0) for e in range(n + 1)],
        )
    num_text, num = draw(symbols(g))
    if kind == "symbol":
        return (
            num_text,
            lambda n: pochhammer(PochhammerSpec(tuple(num)), n),
            lambda n: bruteforce.product_coeffs(num, n),
        )
    if kind == "reciprocal":
        return (
            "1/" + num_text,
            lambda n: pochhammer(PochhammerSpec(tuple(num)), n).invert(),
            lambda n: bruteforce.product_coeffs(num, n, inverted=True),
        )
    den_text, den = draw(symbols(g))
    return (
        f"{num_text}/{den_text}",
        lambda n: pochhammer(PochhammerSpec(tuple(den)), n).invert()
        * pochhammer(PochhammerSpec(tuple(num)), n),
        lambda n: bruteforce.poly_mul(
            bruteforce.product_coeffs(num, n),
            bruteforce.product_coeffs(den, n, inverted=True),
            n,
        ),
    )


@st.composite
def sums(draw, g=1):
    """(text, [(sign, direct, oracle), ...]); the first sign may be omitted."""
    parts, text = [], ""
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        term_text, direct, oracle = draw(terms(g))
        sign = draw(st.sampled_from(("+", "-") if i else ("", "+", "-")))
        spaces = draw(st.sampled_from(("", " ")))
        text += f"{spaces}{sign}{spaces}{term_text}"
        parts.append((-1 if sign == "-" else 1, direct, oracle))
    return text, parts


def _check_sum(text, parts, order):
    """evaluate(text) against the sum built term by term at the full order
    and against the oracle."""
    direct = zero(order)
    oracle = [0] * (order + 1)
    for sign, build, expand in parts:
        direct = direct + build(order) if sign > 0 else direct - build(order)
        oracle = [a + sign * b for a, b in zip(oracle, expand(order))]
    series = evaluate(text, order)
    assert series == direct
    assert list(series.coeffs) == oracle


@given(expr=sums(), order=st.integers(min_value=0, max_value=40))
@settings(max_examples=150)
def test_evaluate_matches_direct_composition_and_oracle(expr, order):
    _check_sum(*expr, order)


@st.composite
def scaled_sums(draw):
    """(text, parts, order): a sum whose exponents share a factor g in 2-12,
    at an order up to 300 that g mostly does not divide, or below g."""
    g = draw(st.integers(min_value=2, max_value=12))
    text, parts = draw(sums(g))
    order = draw(st.one_of(st.integers(min_value=0, max_value=300),
                           st.integers(min_value=0, max_value=g - 1)))
    return text, parts, order


@given(scaled_sums())
@settings(max_examples=100, deadline=None)
def test_sums_in_q_to_the_g_match_the_oracle(case):
    """evaluate expands these at order // g with every exponent divided by
    g, then spreads the result back out."""
    _check_sum(*case)


# in the first four, one exponent alone is odd, so the sum is not a series in q^2
COMMON_FACTOR_CASES = {
    "q^2/(1-q^3)": lambda n: geometric(GeometricSpec(2, 3), n),
    "q^3/(1-q^2)": lambda n: geometric(GeometricSpec(3, 2), n),
    "(-q^2,q^3;q^4)": lambda n: pochhammer(PochhammerSpec(((-1, 2, 4), (1, 3, 4))), n),
    "(q^2;q^3)": lambda n: pochhammer(PochhammerSpec(((1, 2, 3),)), n),
    "1/(1-q^4) + 2": lambda n: geometric(GeometricSpec(0, 4), n) + 2,  # g = 4
    "3": lambda n: monomial(3, 0, n),  # no exponent at all
    "(-q^2,-q;q^4)": lambda n: pochhammer(PochhammerSpec(((-1, 2, 4), (-1, 1, 4))), n),  # bare q
}


@pytest.mark.parametrize("text", list(COMMON_FACTOR_CASES))
def test_the_common_factor_reads_every_exponent(text):
    direct = COMMON_FACTOR_CASES[text]
    for order in range(14):
        assert evaluate(text, order) == direct(order), order


def test_evaluate_calls_the_builders_denominator_first(spy):
    """A quotient expands and inverts its denominator before the numerator.
    Exponents sharing g = 2 reach the builders halved, spaces or not; a q^1
    leaves g = 1 and the specs as written."""
    calls = []  # one log for both builders, so their order shows
    spy(qproducts, "pochhammer", lambda spec, order: calls.append(("pochhammer", spec)))
    spy(qproducts, "geometric", lambda spec, order: calls.append(("geometric", spec)))
    for text in ("(q^4;q^4)/(q^2;q^2) - q^2/(1-q^4)", "(q ^ 4;q ^ 4)/(q^2;q^2) - q^2/(1-q^4)"):
        evaluate(text, 10)
        assert calls == [
            ("pochhammer", PochhammerSpec(((1, 1, 1),))),
            ("pochhammer", PochhammerSpec(((1, 2, 2),))),
            ("geometric", GeometricSpec(1, 2)),
        ], text
        calls.clear()
    evaluate("(q^4;q^4)/(q^2;q^2) - q/(1-q^4)", 10)
    assert calls == [
        ("pochhammer", PochhammerSpec(((1, 2, 2),))),
        ("pochhammer", PochhammerSpec(((1, 4, 4),))),
        ("geometric", GeometricSpec(1, 4)),
    ]


@given(num=symbols(), den=symbols(), order=st.integers(min_value=0, max_value=300))
@settings(max_examples=100, deadline=None)
def test_dense_products_and_divisions_match_the_binomial_loop(num, den, order):
    """Dense products and divisions, each summed by Euler's or Cauchy's
    series, against the reference loop (then invert()).  Each term's
    division by (1 -+ q^e) takes running sums up to e*e = its length and
    blocks of e coefficients above, and at order 300 most block exponents
    leave a partial last block."""
    (num_text, num_factors), (den_text, den_factors) = num, den
    product = bruteforce.binomial_loop(num_factors, order)
    inverse = TruncatedSeries(tuple(bruteforce.binomial_loop(den_factors, order))).invert()
    assert list(pochhammer(PochhammerSpec(tuple(num_factors)), order).coeffs) == product
    assert list(evaluate(num_text, order).coeffs) == product
    assert evaluate("1/" + den_text, order) == inverse
    assert evaluate(f"{num_text}/{den_text}", order) == inverse * TruncatedSeries(tuple(product))


@st.composite
def orders_and_factors(draw):
    """(order, factors) at an order up to 300: one to three factors, some
    repeated, with offsets and steps up to order+5, so some lie past the
    order; sometimes one shared step (a mixed-sign multi-parameter symbol)
    or a == m with s = -1."""
    order = draw(st.integers(min_value=0, max_value=300))
    reach = st.integers(min_value=1, max_value=order + 5)
    shared = draw(st.one_of(st.none(), reach))
    factor = st.one_of(
        st.tuples(st.sampled_from((1, -1)), reach, reach if shared is None else st.just(shared)),
        reach.map(lambda m: (-1, m, m)),
    )
    return order, draw(st.composite(_up_to_three)(factor))


@given(orders_and_factors())
@settings(max_examples=100, deadline=None)
def test_series_sums_match_the_references(case):
    """Euler's series for products, Cauchy's for reciprocals, factor by factor."""
    order, factors = case
    product = reciprocal = (1,)
    for factor in factors:
        product = qproducts._by_symbol(product, factor, order, inverse=False)
        reciprocal = qproducts._by_symbol(reciprocal, factor, order, inverse=True)
    assert product == bruteforce.binomial_loop(factors, order)
    assert reciprocal == bruteforce.product_coeffs(factors, order, inverted=True)


@st.composite
def series_and_factors(draw):
    """(coeffs, factor): coefficients at an order up to 150 that are zero
    past a random prefix, some inside it too, and one symbol's factor."""
    order = draw(st.integers(min_value=0, max_value=150))
    prefix = draw(st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
                           min_size=1, max_size=order + 1))
    factor = draw(st.tuples(st.sampled_from((1, -1)), st.integers(min_value=1, max_value=20),
                            st.integers(min_value=1, max_value=10)))
    return prefix + [0] * (order + 1 - len(prefix)), factor


@given(series_and_factors(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_by_symbol_multiplies_any_series(case, inverse):
    """F times the symbol, or F over it, not only 1 times it: Horner's rule
    adds F at every step, at the length it is given.  F at full length and
    F cut after its last nonzero cell give the same series, and F itself
    is left as it was."""
    coeffs, factor = case
    order = len(coeffs) - 1
    symbol = bruteforce.product_coeffs([factor], order, inverted=inverse)
    expected = bruteforce.poly_mul(coeffs, symbol, order)
    series = list(coeffs)
    assert qproducts._by_symbol(series, factor, order, inverse) == expected
    assert series == coeffs
    cut = len(coeffs)
    while cut and not coeffs[cut - 1]:
        cut -= 1
    assert qproducts._by_symbol(tuple(coeffs[:cut]), factor, order, inverse) == expected


@pytest.mark.parametrize("expand", [
    lambda order: pochhammer(PochhammerSpec(((-1, 1, 1), (-1, 3, 1))), order),
    lambda order: evaluate("1/(-q,-q^3;q)", order),
], ids=["pochhammer", "quotient"])
def test_a_symbol_applied_to_1_is_handed_one_cell(spy, expand):
    """The first symbol of a dense product or reciprocal gets F = 1 as one
    cell, so Horner's rule adds nothing there; the second gets the whole
    series the first returned."""
    lengths = spy(qproducts, "_by_symbol", lambda coeffs, *args, **kwargs: len(coeffs))
    expand(50)
    assert lengths == [1, 51]


def _big(k):
    """A signed coefficient of about 80 bits, different at every index."""
    return (-1) ** k * (3 ** 50 + 7 * k)


@given(coeffs=st.integers(min_value=0, max_value=300).flatmap(
    lambda size: st.lists(st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
                          min_size=size, max_size=size)))
# lengths e*e - 1, e*e and e*e + 1 at e = 10, where the running sums give way
# to blocks (for sign -1 the rewrite to 2e = 10 starts at e = 5)
@example(coeffs=[_big(k) for k in range(99)])
@example(coeffs=[_big(k) for k in range(100)])
@example(coeffs=[_big(k) for k in range(101)])
@settings(max_examples=40, deadline=None)
def test_over_matches_the_naive_recurrence(coeffs):
    """_over(c, sign, e) against c[k] += sign*c[k-e], k ascending, for every
    e in 1..len+1 and both signs: running sums for e*e <= len, blocks above."""
    for e in range(1, len(coeffs) + 2):
        for sign in (1, -1):
            expected = list(coeffs)
            for k in range(e, len(expected)):
                expected[k] += sign * expected[k - e]
            divided = list(coeffs)
            qproducts._over(divided, sign, e)
            assert divided == expected, (sign, e)


def _ceil_sqrt(x):
    return math.isqrt(x - 1) + 1


@pytest.mark.parametrize(
    "text, per_symbol",
    [("(-q;q)", _ceil_sqrt(2 * MAX_ORDER)),          # one per Euler term
     ("1/(-q,-q^2;q)", 2 * _ceil_sqrt(MAX_ORDER))],  # two per Cauchy term
)
def test_dense_symbols_take_about_sqrt_n_divisions(spy, text, per_symbol):
    """An op count, not a clock: at step m = 1, _over runs at most
    ceil(sqrt(2N)) times for a product's symbol and 2 ceil(sqrt(N)) times
    for a reciprocal's, both within 2 ceil(sqrt(2N/m)); dividing binomial
    by binomial took N divisions per symbol."""
    calls = spy(qproducts, "_over", lambda coeffs, sign, e: e)
    evaluate(text, MAX_ORDER)
    assert len(calls) <= (text.count(",") + 1) * per_symbol


@pytest.mark.parametrize(
    "text, expanded",
    [
        ("1/(-q;q)", []),
        ("1/(q;q^2)", []),
        ("1/(-q,-q^3;q^2)", []),
        ("1/(q,q;q)", []),
        ("(q;q)/(-q^2;q)", [((1, 1, 1),)]),
        ("(-q;q^3)/(q,q^2;q^4)", [((-1, 1, 3),)]),
    ],
)
def test_dense_denominators_are_divided_never_expanded_or_inverted(spy, refuse, text, expanded):
    specs = spy(qproducts, "pochhammer", lambda spec, order: spec.factors)
    refuse(TruncatedSeries, "invert")
    evaluate(text, 60)
    assert specs == expanded


def test_theta_reciprocals_still_invert_once(spy):
    calls = spy(TruncatedSeries, "invert", lambda self: self.order)
    for s in range(1, 7):
        evaluate(f"1/(q^{s};q^{s})", 60)  # a series in q^s, inverted at order 60 // s
    assert calls == [60, 30, 20, 15, 12, 10]
    calls.clear()
    for s in range(1, 7):
        evaluate(f"1/(q^{s};q^{s}) + q/(1-q)", 60)
    assert calls == [60] * 6


@pytest.mark.parametrize(
    "text",
    ["((q;q)", "--q", "(q^0;q)", "(q;q^0)", "1/(1-q^0)", "", " ", "(q;q))",
     "(q,;q)", "(;q)", "q^2", "1/(q;q)/(q;q)", "(q;q)(q;q)", "2(q;q)",
     "12/(q;q)", "(q;q)+", "(q;q)*2", "(q;q)/", "(+q;q)", "plain",
     "1 2", "q^1 2/(1-q)", "(q^1 0;q)"],
)
def test_evaluate_rejects_near_misses(text):
    with pytest.raises(ValueError):
        evaluate(text, 10)


@pytest.mark.parametrize(
    "text, remainder",
    [("(-1;q)", "(-1;q)"), ("(q,,q^2;q)", "(q,,q^2;q)"), ("(2q;q)", "(2q;q)"),
     ("(q^;q)", "(q^;q)"), ("(q;q) - (2q;q)", "-(2q;q)")],
)
def test_evaluate_names_the_unparsed_remainder_of_a_bad_factor(text, remainder):
    with pytest.raises(ValueError) as excinfo:
        evaluate(text, 10)
    assert str(excinfo.value).startswith(f"cannot parse {text!r} at {remainder!r}")


@pytest.mark.parametrize(
    "text, message",
    [("(-q;q) + (q;q) +", r"^cannot parse '\(-q;q\) \+ \(q;q\) \+' at '\+'"),
     ("(-q;q) - (q^0;q)", "^factor offset must be >= 1, got 0$"),
     ("q/(1-q^2) + 1/(q;q^0)", "^factor step must be >= 1, got 0$"),
     ("(q;q)/(-q;q) - 1/(1-q^0)", "^period must be >= 1, got 0$"),
     ("(q;q) - q^1 2/(1-q)", r"^cannot parse '\(q;q\) - q\^1 2/\(1-q\)' at '1 2/\(1-q\)'")],
)
def test_evaluate_rejects_bad_text_before_expanding_any_term(refuse, text, message):
    refuse(qproducts, "pochhammer", "geometric")
    with pytest.raises(ValueError, match=message):
        evaluate(text, 20000)


def test_evaluate_ignores_spaces_between_tokens():
    assert evaluate(" ( -q^2 , -q^4 ; q^6 ) - 1 ", 40) == evaluate("(-q^2,-q^4;q^6)-1", 40)


@pytest.mark.parametrize("order", [0, 1, 60])
def test_the_first_term_takes_its_sign_like_any_other(order):
    """The sum starts at 0: a leading + reads like no sign, and a leading -
    subtracts the first term."""
    euler = pochhammer(EULER, order)
    assert evaluate("+(q;q) - 1", order) == evaluate("(q;q) - 1", order) == euler - 1
    assert evaluate("-(q;q) + 1", order) == 1 - evaluate("(q;q)", order) == 1 - euler


NEAR_GRAMMAR = st.text(alphabet="q^0129()/;,-+ ", max_size=30)


@given(text=st.one_of(st.text(max_size=30), NEAR_GRAMMAR))
@settings(max_examples=300)
def test_evaluate_fuzz_raises_only_value_error(text):
    try:
        series = evaluate(text, 12)
    except ValueError:
        return
    assert series.order == 12


def test_products_reject_negative_order():
    with pytest.raises(ValueError, match="^order must be non-negative, got -1$"):
        pochhammer(EULER, -1)
    with pytest.raises(ValueError, match="^order must be non-negative, got -2$"):
        geometric(GeometricSpec(1, 2), -2)
    with pytest.raises(ValueError, match="^order must be non-negative, got -1$"):
        geometric(GeometricSpec(0, 1), -1)


def test_evaluate_rejects_negative_order():
    with pytest.raises(ValueError, match="order must be non-negative"):
        evaluate("(q;q)", -1)
    # refused before the parse and before any product sees the order
    for text in ("1/(-q;q)", "(q;q"):
        with pytest.raises(ValueError, match="^order must be non-negative, got -1$"):
            evaluate(text, -1)
