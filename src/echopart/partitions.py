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

Partition = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 120
ENUMERATION_BOUND = 1_000_000  # at least p(60) = 966,467, the largest enumeration `table` asks for
HEADROOM = 8  # bits kept clear at the top of each count_upto cell


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

    The counts live in the cells of one big integer: counts[n] in cell
    limit - n, so a right shift by s cells moves the count of each n - s
    into the cell of n and drops the cells past the limit.  Each allowed
    part p, largest first, multiplies the counts by its factor in one or
    more C-level additions ``packed += packed >> 8 * width * s``:
    - distinct: (1 + x^p), the single shift s = p;
    - repeated: 1/(1 - x^p) = (1 + x^p)(1 + x^2p)(1 + x^4p)..., one shift
      s = p, 2p, 4p, ... <= limit each (binary multiplicities).
    Cells start at 2 bytes and double in width when a count needs it, so
    the additions stay short while the counts are small.  At most limit
    additions for a distinct constraint and 2*limit for a repeated one
    (one per pair p, 2^k with p*2^k <= limit), each over limit + 1 cells.
    O(limit) memory.
    """
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    cells, width = limit + 1, 2  # width in bytes
    packed = 1 << 8 * width * limit  # counts[0] = 1
    top = _top_mask(cells, width)
    # One addition at most doubles a cell.  So while the top HEADROOM bits
    # of every cell are clear, the next HEADROOM additions cannot carry
    # into a neighbour; the check before them widens the cells otherwise.
    # A widened cell's top half is clear, and 8 * width >= HEADROOM.
    budget = HEADROOM
    for part in range(limit, 0, -1):
        if not constraint.allows(part):
            continue
        for k in range(1 if constraint.distinct else (limit // part).bit_length()):
            if not budget:
                if packed & top:
                    packed = _widen(packed, cells, width)
                    width *= 2
                    top = _top_mask(cells, width)
                budget = HEADROOM
            packed += packed >> 8 * width * (part << k)
            budget -= 1
    data = packed.to_bytes(cells * width, "big")
    return [int.from_bytes(data[i : i + width], "big") for i in range(0, len(data), width)]


def _top_mask(cells: int, width: int) -> int:
    """The top HEADROOM bits of each of `cells` cells of `width` bytes."""
    cell = ((1 << HEADROOM) - 1) << 8 * width - HEADROOM
    return int.from_bytes(cell.to_bytes(width, "big") * cells, "big")


def _widen(packed: int, cells: int, width: int) -> int:
    """The same counts in cells of twice the width, one strided copy per byte."""
    old = packed.to_bytes(cells * width, "big")
    new = bytearray(2 * cells * width)
    for j in range(width):
        new[width + j :: 2 * width] = old[j::width]
    return int.from_bytes(new, "big")


def count(n: int, constraint: Constraint) -> int:
    """Number of partitions of n all of whose parts satisfy the constraint."""
    return count_upto(n, constraint)[n]


def enumerate_partitions(n: int, constraint: Constraint) -> list[Partition]:
    """All constrained partitions of n, in lexicographically decreasing order.

    The ordering is part of the contract (stable golden output).  Refuses
    n beyond DEFAULT_ENUMERATION_CAP and, before any descent, an n with more
    than ENUMERATION_BOUND partitions (1.8e9 for n = 120, UNRESTRICTED),
    counted by a loop of its own: `table` counts by enumeration, not the DP.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    sizes = [1] + [0] * n  # partitions of each total into the allowed parts seen so far
    for part in filter(constraint.allows, range(1, n + 1)):
        for total in range(n, part - 1, -1) if constraint.distinct else range(part, n + 1):
            sizes[total] += sizes[total - part]
    if sizes[n] > ENUMERATION_BOUND:
        raise ValueError(f"n={n} has {sizes[n]} partitions, above the bound {ENUMERATION_BOUND}")
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
