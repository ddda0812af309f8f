"""Builders turning closed-form q-product expressions into truncated series.

Two shapes cover everything the counting families need:

* :class:`PochhammerSpec` -- a product, over j >= 0, of binomial factors
  (1 - sign*q^(offset + j*step)), one factor list entry per parameter of a
  multi-parameter symbol.  With sign=-1 a factor contributes (1 + q^...).
  Offsets and steps are >= 1, so only finitely many binomials reach
  exponents <= N and the truncated product is exact.
* :class:`GeometricSpec` -- the comb q^k / (1 - q^d), i.e. coefficient 1 at
  every exponent k, k+d, k+2d, ...

Two product shapes are theta series, with O(sqrt(N)) nonzero coefficients
that :func:`pochhammer` writes down directly instead of multiplying out:
Euler's (q^m;q^m) (pentagonal number theorem) and the three-factor
(s*q^a, s*q^(m-a), q^m; q^m) with s = +-1 (Jacobi triple product).
Any other symbol (z;p) = (s*q^a;q^m), a product or a denominator, is
summed by Euler's series (z;p) = sum_n (-z)^n p^(n(n-1)/2) / (p;p)_n or
Cauchy's 1/(z;p) = sum_n z^n p^(n^2-n) / ((p;p)_n (z;p)_n) (Andrews, The
Theory of Partitions, ch. 2).  About sqrt(2N/m) terms start at an
exponent <= N, each the one before shifted and divided by one binomial
(two for Cauchy's): O(N*sqrt(N/m)) per symbol, not O(N) per binomial.
The terms are summed by Horner's rule (Knuth, TAOCP vol. 2, 4.6.4), last
term first, so a symbol applied to 1 costs its divisions and no additions.
A division by (1 -+ q^e) runs in C-level slice passes, a running sum per
residue class for a small e and block by block for a larger one.  The
partition DP counts in packed big-integer cells instead and shares no
code with this route, because verify checks one route against the other
and a shared fault would agree with itself.

:func:`evaluate` reads the paper's notation, signed sums such as
``(q^4;q^4)/(q^2;q^2) - q^2/(1-q^4) - 1``, and expands them with these
builders; the family recipes and ``echopart expand`` share it.  A quotient
is one division, whatever its denominator: the numerator (or 1) is divided
by an expanded theta denominator with ``/``, or by a dense one symbol by
symbol with Cauchy's series, never expanded and then inverted.  Before
the parse it reads g, the gcd of the text's powers of q, and expands the
sum in x = q^g at order N // g; every family's recipe is a series in q^2.

Infinite products with |q| < 1 make sense here only as formal series; no
floating point is involved anywhere.
"""

from __future__ import annotations

__all__ = [
    "GeometricSpec", "PochhammerFactor", "PochhammerSpec", "evaluate", "geometric", "pochhammer",
]

import re
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import gcd
from operator import add, sub
from typing import NamedTuple

from .series import TruncatedSeries, monomial, zero


class PochhammerFactor(NamedTuple):
    sign: int    # +1 gives (1 - q^e) factors, -1 gives (1 + q^e)
    offset: int  # first exponent, >= 1
    step: int    # exponent increment, >= 1


@dataclass(frozen=True)
class PochhammerSpec:
    """Factor list for a (possibly multi-parameter) infinite q-product."""

    factors: tuple[PochhammerFactor, ...]

    def __post_init__(self) -> None:
        normalized = tuple(PochhammerFactor(*f) for f in self.factors)
        for f in normalized:
            if f.sign not in (1, -1):
                raise ValueError(f"factor sign must be +1 or -1, got {f.sign}")
            if f.offset < 1:
                raise ValueError(f"factor offset must be >= 1, got {f.offset}")
            if f.step < 1:
                raise ValueError(f"factor step must be >= 1, got {f.step}")
        object.__setattr__(self, "factors", normalized)


@dataclass(frozen=True)
class GeometricSpec:
    """q^numerator / (1 - q^period)."""

    numerator: int
    period: int

    def __post_init__(self) -> None:
        if self.numerator < 0:
            raise ValueError(f"numerator exponent must be >= 0, got {self.numerator}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")


def _theta_shape(factors: tuple[PochhammerFactor, ...]) -> tuple[int, int, int] | None:
    """(s, a, m) when the factors multiply to (s*q^a, s*q^(m-a), q^m; q^m), else None.

    Euler's (q^m;q^m) is the case (q^m, q^(2m), q^(3m); q^(3m)).  a is the
    smaller offset; m-a gives pochhammer the same series, by the product's symmetry.
    """
    if len(factors) == 1:
        sign, offset, step = factors[0]
        return (1, step, 3 * step) if sign == 1 and offset == step else None
    if len(factors) != 3:
        return None
    (s1, a1, m1), (s2, a2, m2), (s3, a3, m) = sorted(factors)
    # offsets are >= 1, so a1 + a2 == m puts both below m and q^m sorts last
    theta = (s3, a3) == (1, m) and m1 == m2 == m and s1 == s2 and a1 + a2 == m
    return (s1, a1, m) if theta else None


def pochhammer(spec: PochhammerSpec, order: int) -> TruncatedSeries:
    """Expand the truncated product of all factors reaching exponents <= order.

    A factor whose lowest exponent already exceeds the order contributes
    nothing and is skipped; an empty factor list gives the constant 1.
    The theta shapes (see the module docstring) cost O(sqrt(order)) after
    allocating order + 1 zeros; every other symbol (s*q^a;q^m) is summed by
    Euler's series from the one-cell 1, O(order * sqrt(order/m)).
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    shape = _theta_shape(spec.factors)
    if shape is not None:
        coeffs = [0] * (order + 1)
        # Jacobi triple product, z = s*q^a:
        #   (z, q^m/z, q^m; q^m) = sum over integers k of (-z)^k q^(m*k*(k-1)/2).
        # The exponent grows with |k| on both sides of 0, so each side stops
        # at the first exponent past the order.  With a = m/2, k and -k share
        # an exponent, hence += rather than =.
        s, a, m = shape
        for k, step in ((0, 1), (-1, -1)):
            while (e := m * k * (k - 1) // 2 + a * k) <= order:
                coeffs[e] += (-s) ** abs(k)
                k += step
        return TruncatedSeries(tuple(coeffs))
    coeffs = (1,)
    for factor in spec.factors:
        coeffs = _by_symbol(coeffs, factor, order, inverse=False)
    return TruncatedSeries(tuple(coeffs) + (0,) * (order + 1 - len(coeffs)))


def _over(coeffs: list[int], sign: int, e: int) -> None:
    """Divide coeffs in place by (1 - sign*q^e): c[k] += sign*c[k-e] for k
    ascending, in C-level slice passes.

    1/(1 + q^e) is first rewritten as (1 - q^e)/(1 - q^(2e)), one shifted
    subtraction.  Then a small e (e*e <= the length) takes one running sum
    per residue class mod e, and a larger e one block of e coefficients at
    a time from the block below: min(e, N/e) Python-level steps.  The
    partition DP counts by another method, so a fault here cannot also
    hide in the route that verify checks this one against.
    """
    if sign == -1:  # 1/(1 + q^e) = (1 - q^e)/(1 - q^(2e))
        coeffs[e:] = map(sub, coeffs[e:], coeffs)
        e *= 2
    if e * e <= len(coeffs):
        for r in range(e):
            coeffs[r::e] = accumulate(coeffs[r::e])
    else:
        for k in range(e, len(coeffs), e):
            coeffs[k : k + e] = map(add, coeffs[k : k + e], coeffs[k - e : k])


def _by_symbol(
    coeffs: tuple[int, ...] | list[int], factor: PochhammerFactor, order: int, inverse: bool
) -> list[int]:
    """F = coeffs times (z;p), z = sign*q^a and p = q^m, or over it if inverse,
    to the order, by Euler's or Cauchy's series summed by Horner's rule.

    With c = -sign (Euler's) or sign (Cauchy's), term j is c^j q^(e_j) F /
    (D_1 ... D_j), D_j = (1 - q^(jm)), times (1 - sign*q^(a+(j-1)m)) for
    Cauchy's.  From W_n = c^n F, W_(j-1) = c^(j-1) F + q^(e_j - e_(j-1)) W_j / D_j,
    and W_0, the sum, is returned.  Each W_j is held from its lowest exponent
    e_j up.  F is added at the caller's length: one cell for a symbol applied to 1.
    """
    sign, a, m = factor
    starts, e, n = [0], 0, 0
    # term n starts at e = a*n + m*n(n-1)/2 (Euler's) or a*n + m*n(n-1) (Cauchy's)
    while (e := e + a + (2 if inverse else 1) * n * m) <= order:
        starts.append(e)
        n += 1
    c = sign if inverse else -sign
    unit = c ** n
    w: list[int] = []  # W_(n+1) = 0
    for j in range(n, -1, -1):
        # W_j = c^j F + q^(e_(j+1) - e_j) W_(j+1) / D_(j+1), from e_j up
        w = [0] * (order + 1 - starts[j] - len(w)) + w
        w[: len(coeffs)] = map(add if unit == 1 else sub, w[: len(coeffs)], coeffs)
        unit *= c
        if j:  # divided by D_j for the next step
            _over(w, 1, j * m)
            if inverse:
                _over(w, sign, a + (j - 1) * m)
    return w


def geometric(spec: GeometricSpec, order: int) -> TruncatedSeries:
    """Expand q^k/(1-q^d): ones at exponents k, k+d, k+2d, ... up to the order."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    coeffs = [0] * (order + 1)
    for e in range(spec.numerator, order + 1, spec.period):
        coeffs[e] = 1
    return TruncatedSeries(tuple(coeffs))


# The grammar of evaluate(); re compiles and caches it on the first call,
# so importing the module costs nothing.
_POWER = r"q(?:\^\d+)?"
_SYMBOL = rf"\(((?:-?{_POWER},)*-?{_POWER});({_POWER})\)"
_TERM = (
    r"([+-]?)(?:(\d+)(?![\d/])"                  # integer constant
    rf"|(1|{_POWER})/\(1-({_POWER})\)"           # comb q^k/(1-q^d)
    rf"|(?:(1|{_SYMBOL})/)?{_SYMBOL})"            # (num), 1/(den), (num)/(den)
)


def _exponent(power: str) -> int:
    """The exponent of '1', 'q' or 'q^k'."""
    return 0 if power == "1" else int(power[2:] or 1)


def _spec(factors: str, step: str, g: int) -> PochhammerSpec:
    """The symbol (factors;step), e.g. factors '-q^2,-q^4' and step 'q^6',
    with every exponent divided by g."""
    return PochhammerSpec(tuple(
        (-1 if f[0] == "-" else 1, _exponent(f.lstrip("-")) // g, _exponent(step) // g)
        for f in factors.split(",")
    ))


def _quotient(num: PochhammerSpec | None, den: PochhammerSpec, order: int) -> TruncatedSeries:
    """num/den (1/den if num is None) as one division: by a theta den,
    expanded before num, or by any other den symbol by symbol with
    Cauchy's series, from the one-cell 1 or num's coefficients."""
    if _theta_shape(den.factors) is not None:
        theta = pochhammer(den, order)
        return theta.invert() if num is None else pochhammer(num, order) / theta
    coeffs = (1,) if num is None else pochhammer(num, order).coeffs
    for factor in den.factors:
        coeffs = _by_symbol(coeffs, factor, order, inverse=True)
    return TruncatedSeries(tuple(coeffs))


def _unparsed(text: str, rest: str) -> ValueError:
    """The error for text that stops parsing at rest."""
    return ValueError(
        f"cannot parse {text!r} at {rest!r}: expected a signed sum of "
        "integers, combs like q^2/(1-q^4) and q-products like (-q^2,-q^4;q^6), "
        "1/(q^2;q^2) or (q^4;q^4)/(q^2;q^2)"
    )


def evaluate(text: str, order: int) -> TruncatedSeries:
    """Expand a signed sum of q-expression terms to the given order.

    Terms, with spaces between tokens ignored and a space between two
    digits refused, so "q^1 2" is never read as q^12:
      3                    an integer constant
      q^2/(1-q^4)          a comb; 1/(1-q^4) is q^0/(1-q^4)
      (-q^2,-q^4;q^6)      a Pochhammer symbol; '-' makes a factor (1 + ...)
      1/(q^2;q^2)          its reciprocal
      (q^4;q^4)/(q^2;q^2)  a quotient, one division whatever the denominator:
                           by a theta one expanded first, O(sqrt(order)) per
                           coefficient, or by any other symbol by symbol with
                           Cauchy's series, O(order * sqrt(order/m)) for a
                           step q^m, never expanded
    The sum starts at 0, and each term, the first one too, is added, or
    subtracted when it carries a '-'.  The whole text is parsed,
    and every spec built, before any term is expanded, so bad input fails
    at once whatever the order.  Before the parse, g is read from the text
    as the gcd of its powers of q (1 if there are none); every exponent is
    one of them, so every nonzero coefficient sits at a multiple of g.  The
    sum is expanded in x = q^g: each spec built with its exponents divided
    by g, at order // g, spread out once.  Every family's recipe has g = 2.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if split := re.search(r"\d +\d", text):  # dropping the spaces would join the digits
        raise _unparsed(text, text[split.start() :])
    compact = text.strip().replace(" ", "")
    g = gcd(*map(_exponent, re.findall(_POWER, compact))) or 1
    term = re.compile(_TERM)
    terms, pos = [], 0
    while not terms or pos < len(compact):
        m = term.match(compact, pos)
        if m is None or (terms and not m[1]):
            raise _unparsed(text, compact[pos:])
        pos = m.end()
        sign, constant, k, d, over, num, num_step, sym, sym_step = m.groups()
        if constant is not None:
            expand = partial(monomial, int(constant), 0)
        elif k is not None:
            expand = partial(geometric, GeometricSpec(_exponent(k) // g, _exponent(d) // g))
        elif over is None:
            expand = partial(pochhammer, _spec(sym, sym_step, g))
        else:
            num = None if over == "1" else _spec(num, num_step, g)
            expand = partial(_quotient, num, _spec(sym, sym_step, g))
        terms.append((sign, expand))
    result = zero(order // g)
    for sign, expand in terms:
        result = result - expand(order // g) if sign == "-" else result + expand(order // g)
    out = [0] * (order + 1)
    out[::g] = result.coeffs
    return TruncatedSeries(tuple(out))
