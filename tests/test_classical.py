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

ceiling.py applies the same checks at cli.MAX_ORDER, outside pytest.
"""

from math import isqrt

import pytest

from echopart import DISTINCT, MOD3_DISTINCT, MOD6, ODD, Family, count_upto, verify
from rademacher import partition_count

ORDER = 4000
LIMIT = ORDER // 2
ROUTES = ["genfun", "direct"]
CONGRUENCES = [(5, 4), (7, 5), (11, 6)]  # p(modulus*k + residue) = 0 (mod modulus)


@pytest.fixture(scope="module")
def reports():
    return {family: verify(family, ORDER) for family in (Family.PLAIN, Family.DISTINCT)}


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
