"""Rademacher's exact series for p(n), the number of partitions of n.

Test-only, and independent of both routes of ``echopart.verify``: it uses no
echopart code, only ``decimal`` and Dedekind sums in integers (Andrews, *The
Theory of Partitions*, ch. 5).  With x = sqrt(n - 1/24), C = pi*sqrt(2/3)
and y = C*x/k,

    p(n) = 1/(pi*sqrt(2)) * sum_k A_k(n) * sqrt(k) * d/dn[sinh(y) / x],
    d/dn[sinh(y) / x] = ((C/k)*x*cosh(y) - sinh(y)) / (2*x**3),
    A_k(n) = sum over 0 <= h < k, gcd(h, k) = 1, of cos(pi*(s(h, k) - 2nh/k)),

where s(h, k) is the Dedekind sum.  The sum stops at the first N whose
remainder bound (Rademacher's, with mu = C*x) is below 1/4:

    |R(n, N)| < pi**2/sqrt(3) * N**(-2/3) * ((N/mu)**3*sinh(mu/N) + 1/6 - (N/mu)**2)
"""

from __future__ import annotations

from decimal import Decimal, getcontext, localcontext
from math import gcd, isqrt

QUARTER = Decimal("0.25")


def _pi(digits: int) -> Decimal:
    """pi to ``digits`` places by Machin's formula in integers."""
    one = 10 ** (digits + 10)

    def arctan_inverse(x: int) -> int:  # one * arctan(1/x)
        total, power, k = 0, one // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    return Decimal(16 * arctan_inverse(5) - 4 * arctan_inverse(239)) / one


def _dedekind_6k(h: int, k: int) -> int:
    """6k * s(h, k), an integer, for gcd(h, k) = 1.

    s(h, k) is the sum over 0 < r < k of (r/k) * ((hr mod k)/k - 1/2),
    since hr is never a multiple of k there.
    """
    numerator = 12 * sum(r * (h * r % k) for r in range(1, k)) - 3 * k * k * (k - 1)
    assert numerator % (2 * k) == 0
    return numerator // (2 * k)


def _cos(theta: Decimal) -> Decimal:
    """cos(theta) by its Taylor series, for |theta| <= pi."""
    total = term = Decimal(1)
    tiny, j = Decimal(10) ** -(getcontext().prec + 5), 0
    while abs(term) > tiny:
        j += 2
        term = -term * theta * theta / (j * (j - 1))
        total += term
    return total


def _sinh_cosh(y: Decimal) -> tuple[Decimal, Decimal]:
    e = y.exp()
    return (e - 1 / e) / 2, (e + 1 / e) / 2


def _a_k(k: int, n: int, pi: Decimal) -> Decimal:
    total = Decimal(0)
    for h in range(k):
        if gcd(h, k) == 1:
            # pi*(s(h, k) - 2nh/k) = pi*m/(6k), with m taken in (-6k, 6k]
            m = (_dedekind_6k(h, k) - 12 * n * h) % (12 * k)
            total += _cos(pi * (m if m <= 6 * k else m - 12 * k) / (6 * k))
    return total


def partition_count(n: int) -> int:
    """p(n), for n >= 1."""
    with localcontext() as ctx:
        # p(n) < exp(pi*sqrt(2n/3)), fewer than 1.2*sqrt(n) + 1 digits
        ctx.prec = 2 * isqrt(n) + 30
        pi = _pi(ctx.prec)
        c = pi * (Decimal(2) / 3).sqrt()
        x = (Decimal(24 * n - 1) / 24).sqrt()
        terms = 1
        while True:
            ratio = terms / (c * x)
            bracket = ratio**3 * _sinh_cosh(1 / ratio)[0] + Decimal(1) / 6 - ratio**2
            if pi * pi / Decimal(3).sqrt() * terms ** (Decimal(-2) / 3) * bracket < QUARTER:
                break
            terms += 1
        total = Decimal(0)
        for k in range(1, terms + 1):
            sinh, cosh = _sinh_cosh(c * x / k)
            total += _a_k(k, n, pi) * Decimal(k).sqrt() * (c / k * x * cosh - sinh) / (2 * x**3)
        total /= pi * Decimal(2).sqrt()
        value = int(total.to_integral_value())
        assert abs(total - value) < QUARTER
        return value
