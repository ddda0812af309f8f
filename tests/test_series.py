import pytest

from echopart import TruncatedSeries, monomial, one, zero
from echopart import series as series_module


def test_order_is_len_minus_one():
    s = TruncatedSeries((1, 2, 3))
    assert s.order == 2
    assert zero(7).order == 7


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(())


def test_coefficient_access():
    s = TruncatedSeries((5, 0, -3))
    assert s.coefficient(0) == 5
    assert s.coefficient(2) == -3
    with pytest.raises(IndexError):
        s.coefficient(3)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_truncate():
    s = TruncatedSeries((1, 2, 3, 4))
    assert s.truncate(1).coeffs == (1, 2)
    assert s.truncate(3).coeffs == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        s.truncate(4)
    with pytest.raises(ValueError):
        s.truncate(-1)


def test_addition_and_subtraction():
    a = TruncatedSeries((1, 2, 3))
    b = TruncatedSeries((4, 5, 6))
    assert (a + b).coeffs == (5, 7, 9)
    assert (b - a).coeffs == (3, 3, 3)
    assert (-a).coeffs == (-1, -2, -3)


def test_int_operands_coerce_to_constants():
    a = TruncatedSeries((1, 2, 3))
    assert (a + 1).coeffs == (2, 2, 3)
    assert (1 + a).coeffs == (2, 2, 3)
    assert (a - 1).coeffs == (0, 2, 3)
    assert (1 - a).coeffs == (0, -2, -3)
    assert (a * 2).coeffs == (2, 4, 6)
    assert (2 * a).coeffs == (2, 4, 6)


def test_order_mismatch_is_an_error():
    a = TruncatedSeries((1, 2, 3))
    b = TruncatedSeries((1, 2))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_non_numeric_operand_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries((1, 2)) + "q"


def test_multiplication_truncates():
    # (1 + q)^2 = 1 + 2q + q^2, cut at order 1
    a = TruncatedSeries((1, 1))
    assert (a * a).coeffs == (1, 2)
    # (1 + q + q^2)(1 - q) = 1 - q^3, cut at order 2
    b = TruncatedSeries((1, 1, 1))
    c = TruncatedSeries((1, -1, 0))
    assert (b * c).coeffs == (1, 0, 0)


def test_scalar_product_is_one_pass(spy):
    """k * s and s * k run one pass over s: the scalar is the outer operand."""
    s = TruncatedSeries(tuple(range(1, 52)))
    calls = spy(series_module, "add")
    for product in (lambda: 3 * s, lambda: s * 3):
        calls.clear()
        assert product().coeffs == tuple(3 * c for c in s.coeffs)
        assert len(calls) == 51


def test_geometric_series_inverse():
    # 1/(1 - q) = 1 + q + q^2 + ...
    g = (one(6) - monomial(1, 1, 6)).invert()
    assert g.coeffs == (1,) * 7


def test_invert_round_trip():
    s = TruncatedSeries((1, 3, -2, 7, 0, 5))
    assert (s * s.invert()).coeffs == (1, 0, 0, 0, 0, 0)


def test_invert_with_negative_unit_constant():
    s = TruncatedSeries((-1, 4, 2))
    assert (s * s.invert()) == one(2)


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries((2, 1)).invert()
    with pytest.raises(ValueError):
        TruncatedSeries((0, 1)).invert()


def test_invert_constructs_only_its_result(spy):
    """invert() divides into a plain list: the one series it builds is the inverse."""
    s = TruncatedSeries((1, 3, -2, 7, 0, 5))
    built = spy(TruncatedSeries, "__post_init__", lambda self: self.coeffs)
    inverse = s.invert()
    assert built == [inverse.coeffs]


def test_sums_and_negation_construct_only_their_result(spy):
    """+, - and unary - are one pass each: b - a builds no negated copy of a."""
    a, b = TruncatedSeries((1, 2, 3)), TruncatedSeries((4, 5, 6))
    built = spy(TruncatedSeries, "__post_init__", lambda self: self.coeffs)
    results = [a + b, b - a, -a]
    assert built == [r.coeffs for r in results] == [(5, 7, 9), (3, 3, 3), (-1, -2, -3)]


def test_division_by_plus_and_minus_one():
    a = TruncatedSeries((3, -1, 0, 7))
    assert a / 1 == a
    assert a / one(3) == a
    assert a / -1 == -a
    assert a / -one(3) == -a


def test_division_requires_unit_constant():
    a = TruncatedSeries((1, 2, 3))
    message = r"^constant term must be \+1 or -1 to invert over the integers, got 2$"
    with pytest.raises(ValueError, match=message):
        a / TruncatedSeries((2, 1, 0))
    with pytest.raises(ValueError, match=message):
        a / 2


def test_constant_divided_by_series():
    s = TruncatedSeries((1, 3, -2, 7))
    assert 1 / s == s.invert()
    assert 3 / s == 3 * s.invert()
    message = r"^constant term must be \+1 or -1 to invert over the integers, got 2$"
    with pytest.raises(ValueError, match=message):
        1 / TruncatedSeries((2, 1, 0))
    with pytest.raises(TypeError):
        "x" / s


def test_coefficients_given_as_a_list_are_the_same_value():
    s = TruncatedSeries([1, 2])
    assert s == TruncatedSeries((1, 2))
    assert hash(s) == hash(TruncatedSeries((1, 2)))


def test_division_order_mismatch_is_an_error():
    with pytest.raises(ValueError, match="^order mismatch: 2 vs 1$"):
        TruncatedSeries((1, 2, 3)) / TruncatedSeries((1, 2))


def test_coefficients_never_wrap():
    big = 10**40
    s = monomial(big, 1, 2)
    assert (s * s).coefficient(2) == big * big


def test_monomial_beyond_order_drops():
    assert monomial(9, 5, 3).coeffs == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        monomial(1, -1, 3)
    with pytest.raises(ValueError):
        monomial(1, 0, -1)


def test_zero_and_one():
    assert zero(2).coeffs == (0, 0, 0)
    assert one(2).coeffs == (1, 0, 0)


def test_str_rendering():
    assert str(TruncatedSeries((0, 0, 0))) == "0 + O(q^3)"
    assert str(TruncatedSeries((1, -1, 2))) == "1 - q + 2*q^2 + O(q^3)"
    assert str(TruncatedSeries((0, 1))) == "q + O(q^2)"
    assert str(TruncatedSeries((0, -3, 0, 1))) == "-3*q + q^3 + O(q^4)"
    assert str(TruncatedSeries((-3, 1))) == "-3 + q + O(q^2)"
    assert str(TruncatedSeries((5,))) == "5 + O(q^1)"
    assert str(TruncatedSeries((-1,))) == "-1 + O(q^1)"


def test_value_semantics():
    assert TruncatedSeries((1, 2)) == TruncatedSeries((1, 2))
    assert TruncatedSeries((1, 2)) != TruncatedSeries((1, 3))
    with pytest.raises(AttributeError):
        TruncatedSeries((1, 2)).coeffs = (3, 4)
