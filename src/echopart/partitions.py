"""Counting and enumeration of constrained integer partitions.

This is the ground-truth side of the library: a dynamic-programming
counter and a recursive-descent enumerator that know nothing about power
series.  A partition is a weakly decreasing tuple of positive ints; the
empty tuple is the one partition of 0.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_ENUMERATION_CAP", "DISTINCT", "MOD3_DISTINCT", "MOD6", "ODD", "ODD_DISTINCT",
    "UNRESTRICTED", "Constraint", "Partition", "count", "count_upto", "enumerate_partitions",
]

from dataclasses import dataclass
from itertools import accumulate
from operator import add

Partition = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 120


@dataclass(frozen=True)
class Constraint:
    """Declarative restriction on the parts of a partition.

    distinct           -- no repeated part values.
    modulus, residues  -- parts must be congruent to an allowed residue;
                          both given together or not at all.
    min_part, max_part -- inclusive bounds on part values, read only by
                          allows().  max_part is general-oracle utility;
                          the family definitions never need it.
    """

    distinct: bool = False
    modulus: int | None = None
    residues: frozenset[int] | None = None
    min_part: int = 1
    max_part: int | None = None

    def __post_init__(self) -> None:
        if (self.modulus is None) != (self.residues is None):
            raise ValueError("modulus and residues must be given together")
        if self.modulus is not None:
            if self.modulus < 1:
                raise ValueError(f"modulus must be >= 1, got {self.modulus}")
            residues = frozenset(self.residues)
            if not residues:
                raise ValueError("residue set must be non-empty")
            if any(not 0 <= r < self.modulus for r in residues):
                raise ValueError(
                    f"residues must lie in [0, {self.modulus}), got {sorted(residues)}"
                )
            object.__setattr__(self, "residues", residues)
        if self.min_part < 1:
            raise ValueError(f"min_part must be >= 1, got {self.min_part}")
        if self.max_part is not None and self.max_part < 1:
            raise ValueError(f"max_part must be >= 1, got {self.max_part}")

    def allows(self, part: int) -> bool:
        """Whether a single part value passes the bound and residue tests."""
        if part < self.min_part:
            return False
        if self.max_part is not None and part > self.max_part:
            return False
        if self.modulus is not None and part % self.modulus not in self.residues:
            return False
        return True


UNRESTRICTED = Constraint()
DISTINCT = Constraint(distinct=True)
ODD = Constraint(modulus=2, residues=frozenset({1}))
ODD_DISTINCT = Constraint(distinct=True, modulus=2, residues=frozenset({1}))
MOD3_DISTINCT = Constraint(distinct=True, modulus=3, residues=frozenset({1, 2}))
MOD6 = Constraint(modulus=6, residues=frozenset({1, 5}))


def count_upto(limit: int, constraint: Constraint) -> list[int]:
    """Counts of constrained partitions of 0..limit, one DP pass.

    Each allowed part value is added once, largest first, in C-level
    slice passes.  When part p comes only larger parts have been added,
    so cells 1..p are still 0, and below 2p adding p only sets
    counts[p] = 1:
    - distinct: one shifted addition from 2p on, then counts[p] = 1, so
      each part is used at most once;
    - repeated, part*part <= limit: a running sum down each residue
      class mod part;
    - repeated, larger part: counts[p] = 1, then block by block from 2p,
      each block of ``part`` cells adding the already-updated block
      before it.
    The split keeps the Python-level steps per part at min(part,
    limit/part), and a part above limit/2 costs a single store.
    Big-integer additions, not the interpreter, bound the cost, and the
    cells stay small until the small parts come last.  O(limit) memory.
    """
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    counts = [0] * (limit + 1)
    counts[0] = 1
    for part in range(limit, 0, -1):
        if not constraint.allows(part):
            continue
        if constraint.distinct:
            # the right-hand side is built in full first, so every addend is
            # old; setting counts[part] first would use part twice
            counts[2 * part :] = map(add, counts[2 * part :], counts[part : limit + 1 - part])
            counts[part] = 1
        elif part * part <= limit:
            for r in range(part):
                counts[r::part] = accumulate(counts[r::part])
        else:
            counts[part] = 1
            for s in range(2 * part, limit + 1, part):
                counts[s : s + part] = map(
                    add, counts[s : s + part], counts[s - part : s]
                )
    return counts


def count(n: int, constraint: Constraint) -> int:
    """Number of partitions of n all of whose parts satisfy the constraint."""
    return count_upto(n, constraint)[n]


def enumerate_partitions(n: int, constraint: Constraint) -> list[Partition]:
    """All constrained partitions of n, in lexicographically decreasing order.

    The ordering is part of the contract (stable golden output).  Refuses
    n beyond DEFAULT_ENUMERATION_CAP, which exists only to bound output size.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    out: list[Partition] = []

    def descend(remaining: int, max_allowed: int, prefix: Partition) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_allowed), 0, -1):
            if constraint.allows(part):
                next_max = part - 1 if constraint.distinct else part
                descend(remaining - part, next_max, prefix + (part,))

    descend(n, n, ())
    return out
