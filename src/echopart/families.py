"""The six counting families of partitions with a self-repeating largest part.

The objects counted here are partitions whose largest part appears exactly
once and whose remaining parts form a partition of that largest part, so
the total is always even (2*largest).  Six families restrict the remaining
parts: unrestricted, distinct, odd, odd+distinct, distinct with parts
= +-1 (mod 3), and parts = +-1 (mod 6).

Every family's counting sequence is computed two independent ways:

* :func:`direct_count` / :func:`direct_counts_upto` -- combinatorial route:
  count partitions of the largest part under the family's constraint,
  minus one when the single-part partition would qualify (it would repeat
  the largest part).
* :func:`genfun_series` -- closed-form route: expand the family's
  generating function, assembled only from q-products and series algebra.

:func:`verify` compares the two routes coefficient by coefficient.
"""

from __future__ import annotations

__all__ = [
    "CoefficientRecord", "Family", "VerificationReport", "direct_count",
    "direct_counts_upto", "genfun_series", "list_partitions", "verify",
]

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import sub
from typing import Mapping, NamedTuple

from . import partitions
from .partitions import DEFAULT_ENUMERATION_CAP, Constraint, Partition
# perfbench's tracer requires the pochhammer and geometric bindings here
from .qproducts import evaluate, geometric, pochhammer  # noqa: F401
from .series import TruncatedSeries


class Family(Enum):
    """Tags for the six families; values are the CLI/JSON tokens."""

    PLAIN = "plain"
    DISTINCT = "distinct"
    ODD = "odd"
    ODD_DISTINCT = "odd-distinct"
    MOD3 = "mod3"
    MOD6 = "mod6"

    @staticmethod
    def normalise(text: str) -> str:
        return text.strip().replace(" ", "").lower().replace("_", "-")
    @classmethod
    def from_token(cls, text: str) -> Family:
        try:
            return cls(cls.normalise(text))
        except ValueError:
            known = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown family {text!r} (expected one of: {known})") from None


OEIS_CROSS_REFERENCE: Mapping[Family, str] = {
    Family.PLAIN: "A000065",
    Family.DISTINCT: "A111133",
    Family.ODD: "A357456",
    Family.ODD_DISTINCT: "A357457",
    Family.MOD3: "-",
    Family.MOD6: "-",
}

CONSTRAINTS: Mapping[Family, Constraint] = {
    Family.PLAIN: partitions.UNRESTRICTED,
    Family.DISTINCT: partitions.DISTINCT,
    Family.ODD: partitions.ODD,
    Family.ODD_DISTINCT: partitions.ODD_DISTINCT,
    Family.MOD3: partitions.MOD3_DISTINCT,
    Family.MOD6: partitions.MOD6,
}

# The paper's closed forms.  The combs remove the single-part partitions,
# and the - 1 removes the product's constant term.
RECIPES: Mapping[Family, str] = {
    Family.PLAIN: "1/(q^2;q^2) - 1/(1-q^2)",
    Family.DISTINCT: "(-q^2;q^2) - 1/(1-q^2)",
    Family.ODD: "1/(q^2;q^4) - q^2/(1-q^4) - 1",
    Family.ODD_DISTINCT: "(-q^2;q^4) - q^2/(1-q^4) - 1",
    Family.MOD3: "(-q^2,-q^4;q^6) - q^2/(1-q^2) + q^6/(1-q^6) - 1",
    Family.MOD6: "1/(q^2,q^10;q^12) - q^2/(1-q^12) - q^10/(1-q^12) - 1",
}


def direct_count(family: Family, n: int) -> int:
    """Count the family's partitions of n by the combinatorial definition.

    Zero for odd n and for n = 0 (the total is always twice the largest
    part).  For n = 2*largest: partitions of the largest part under the
    family constraint, minus the single-part one when it qualifies.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return direct_counts_upto(family, n)[n]


def direct_counts_upto(family: Family, limit: int) -> list[int]:
    """direct_count(family, n) for n = 0..limit via a single DP pass."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    constraint = CONSTRAINTS[family]
    table = partitions.count_upto(limit // 2, constraint)
    out = [0] * (limit + 1)
    # {largest} alone would repeat the largest part, so drop it where it
    # qualifies (a bool subtracts as 0 or 1).  One part is always distinct,
    # so only the residue rule decides: always for plain/distinct, odd
    # largest for the odd families, largest not divisible by 3 for mod3,
    # +-1 (mod 6) for mod6.
    out[2::2] = map(sub, table[1:], map(constraint.allows, range(1, limit // 2 + 1)))
    return out


def genfun_series(family: Family, order: int) -> TruncatedSeries:
    """Expand the family's closed-form generating function to the given order."""
    return evaluate(RECIPES[family], order)


def list_partitions(family: Family, n: int) -> list[Partition]:
    """The family's partitions of even n, largest part first.

    Each is (largest,) followed by a constrained partition of the largest
    part other than the single-part one.  Lexicographically decreasing;
    the length equals direct_count(family, n).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n % 2 == 1:
        raise ValueError(f"totals are always even; no partitions of n={n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    if n == 0:
        return []
    largest = n // 2
    rest = partitions.enumerate_partitions(largest, CONSTRAINTS[family])
    return [(largest,) + p for p in rest if p != (largest,)]


class CoefficientRecord(NamedTuple):
    """One compared index: closed-form value vs direct combinatorial value."""

    n: int
    genfun: int
    direct: int

    @property
    def equal(self) -> bool:
        return self.genfun == self.direct


@dataclass(frozen=True)
class VerificationReport:
    """The two routes' coefficients for n = 0..order, compared on demand."""

    family: Family
    order: int
    genfun: tuple[int, ...]
    direct: tuple[int, ...]

    @property
    def all_equal(self) -> bool:
        return self.genfun == self.direct

    @cached_property
    def records(self) -> tuple[CoefficientRecord, ...]:
        return tuple(
            map(CoefficientRecord, range(self.order + 1), self.genfun, self.direct)
        )

    @property
    def mismatches(self) -> tuple[CoefficientRecord, ...]:
        pairs = enumerate(zip(self.genfun, self.direct))
        return tuple(CoefficientRecord(n, g, d) for n, (g, d) in pairs if g != d)

    def first_mismatch(self) -> CoefficientRecord | None:
        return next(iter(self.mismatches), None)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.family.value,
            "order": self.order,
            "records": [
                {"n": n, "genfun": g, "direct": d, "equal": g == d}
                for n, (g, d) in enumerate(zip(self.genfun, self.direct))
            ],
            "all_equal": self.all_equal,
        }


def verify(family: Family, order: int) -> VerificationReport:
    """Compare closed-form coefficients with direct counts for 0 <= n <= order."""
    genfun = genfun_series(family, order).coeffs
    direct = tuple(direct_counts_upto(family, order))
    return VerificationReport(family, order, genfun, direct)
