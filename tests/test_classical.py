"""Outside anchors at order 4000: classical facts about partitions that
neither route uses, checked on both routes of verify.

A family's coefficient at n = 2*l is its number of partitions of l minus
the single-part one, so plain's gives p(l) and distinct's q(l), the number
of partitions of l into distinct parts, for every l <= 2000.
- Ramanujan (1919): p(5k+4) = 0 (mod 5), p(7k+5) = 0 (mod 7) and
  p(11k+6) = 0 (mod 11).
- (-q;q) = (q;q) (mod 2), so by Euler's pentagonal number theorem q(l) is
  odd exactly when l is a generalized pentagonal number k(3k-1)/2.
- Euler's distinct = odd and Schur's distinct +-1 (mod 3) = +-1 (mod 6)
  on count_upto at limit 2000, beyond acceptance criterion 4's 300.
- Rademacher's exact series for p(l) (rademacher.py) at five l up to 2000.
- A certificate for all six families.  A family's constraint product F,
  Prod 1/(1-q^k) or Prod (1+q^k) over its allowed parts k, is read from
  the coefficients: F[0] = 1 and F[l] = c(2l) + [the single part l is
  allowed].  With E_m = (q^m;q^m), whose only nonzero terms are (-1)^k at
  m*k(3k-1)/2 by Euler's pentagonal number theorem (Andrews, The Theory of
  Partitions, ch. 1): plain F*E1 = 1; distinct and odd F*E1 = E2 (Euler);
  odd-distinct F*E1*E4 = E2*E2; mod3 and mod6 F*E1*E6 = E2*E3 (Schur).
  E1's constant term is 1, so each identity fixes every F[l] exactly.

ceiling.py applies the same checks at cli.MAX_ORDER = 20000, the certificate
to all six families, outside pytest in 7.5-9.5 s (CPython 3.11, 2-core VM).
"""

from math import isqrt
from operator import add, sub

import pytest

from echopart import DISTINCT, MOD3_DISTINCT, MOD6, ODD, Family, count_upto, verify
from rademacher import partition_count

ORDER = 4000
LIMIT = ORDER // 2
ROUTES = ["genfun", "direct"]
CONGRUENCES = [(5, 4), (7, 5), (11, 6)]  # p(modulus*k + residue) = 0 (mod modulus)

# family: (the single part l is allowed, m of the E_m times F, m of the E_m on the right)
CERTIFICATES = {
    Family.PLAIN: (lambda ell: True, (1,), ()),
    Family.DISTINCT: (lambda ell: True, (1,), (2,)),
    Family.ODD: (lambda ell: ell % 2 == 1, (1,), (2,)),
    Family.ODD_DISTINCT: (lambda ell: ell % 2 == 1, (1, 4), (2, 2)),
    Family.MOD3: (lambda ell: ell % 3 != 0, (1, 6), (2, 3)),
    Family.MOD6: (lambda ell: ell % 6 in (1, 5), (1, 6), (2, 3)),
}


@pytest.fixture(scope="module")
def reports():
    return {family: verify(family, ORDER) for family in Family}


def counts(report, route):
    """The family's partition counts of l = 0..LIMIT: each coefficient at 2l
    plus the one-part partition it leaves out."""
    return [c + 1 for c in getattr(report, route)[::2]]


def congruence_breaks(p, modulus, residue):
    """Each l = residue (mod modulus) at which p(l) is not 0 (mod modulus)."""
    return [ell for ell in range(residue, len(p), modulus) if p[ell] % modulus]


def parity_breaks(q):
    """Each l at which q(l) is odd and l is not a generalized pentagonal
    number k(3k-1)/2, or q(l) is even and l is one."""
    # k(3k-1)/2 >= k*k > len(q) - 1 once |k| > isqrt(len(q) - 1)
    r = isqrt(len(q) - 1)
    pentagonal = {k * (3 * k - 1) // 2 for k in range(-r, r + 1)}
    return [ell for ell, value in enumerate(q) if (value % 2 == 1) != (ell in pentagonal)]


def times_euler(series, m):
    """series * E_m to series' length: one slice pass per term of E_m."""
    out = [0] * len(series)
    # m*k(3k-1)/2 >= m*k*k > len(series) - 1 once |k| > isqrt((len(series) - 1) // m)
    r = isqrt((len(series) - 1) // m)
    for k in range(-r, r + 1):
        e = m * k * (3 * k - 1) // 2
        out[e:] = map(sub if k % 2 else add, out[e:], series)
    return out


def certificate_breaks(family, coefficients):
    """Each l at which the two sides of the family's certificate differ,
    with F read from the coefficients at n = 2l."""
    allowed, left, right = CERTIFICATES[family]
    f = [1] + [c + allowed(ell) for ell, c in enumerate(coefficients[2::2], 1)]
    e = [1] + [0] * (len(f) - 1)
    for m in left:
        f = times_euler(f, m)
    for m in right:
        e = times_euler(e, m)
    return [ell for ell, (a, b) in enumerate(zip(f, e)) if a != b]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("modulus, residue", CONGRUENCES)
def test_ramanujan_congruences(reports, route, modulus, residue):
    p = counts(reports[Family.PLAIN], route)
    assert len(p) == LIMIT + 1 and p[:10] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert congruence_breaks(p, modulus, residue) == []


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("ell", [100, 200, 1000, 1500, 2000])
def test_rademacher_series(reports, route, ell):
    assert counts(reports[Family.PLAIN], route)[ell] == partition_count(ell)


@pytest.mark.parametrize("route", ROUTES)
def test_distinct_partitions_are_odd_at_pentagonal_numbers(reports, route):
    q = counts(reports[Family.DISTINCT], route)
    assert len(q) == LIMIT + 1 and q[:10] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8]
    assert parity_breaks(q) == []


@pytest.mark.parametrize(
    "left, right", [(DISTINCT, ODD), (MOD3_DISTINCT, MOD6)], ids=["euler", "schur"]
)
def test_partition_identities(left, right):
    assert count_upto(LIMIT, left) == count_upto(LIMIT, right)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_pentagonal_certificate(reports, family, route):
    coefficients = getattr(reports[family], route)
    assert len(coefficients) == ORDER + 1
    assert certificate_breaks(family, coefficients) == []
