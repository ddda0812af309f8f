"""Slow definition-level reference implementations for pinning test values.

Nothing here imports the package.  Partitions are generated by plain
recursion and filtered; series are multiplied out with nested loops.  The
point is an independent route to every number the fast code produces.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def all_partitions(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Every partition of n into parts <= max_part, weakly decreasing."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in all_partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


# (part predicate, parts must be mutually distinct)
FAMILY_RULES = {
    "plain": (lambda p: True, False),
    "distinct": (lambda p: True, True),
    "odd": (lambda p: p % 2 == 1, False),
    "odd-distinct": (lambda p: p % 2 == 1, True),
    "mod3": (lambda p: p % 3 != 0, True),
    "mod6": (lambda p: p % 6 in (1, 5), False),
}


def reference_family_count(token: str, n: int) -> int:
    """Count partitions of n whose unique largest part equals the sum of
    the rest, with the rest obeying the family rule.  Pure filtering."""
    return len(reference_family_partitions(token, n))


def reference_family_partitions(token: str, n: int) -> list[tuple[int, ...]]:
    """The partitions behind reference_family_count, largest-first order."""
    pred, distinct = FAMILY_RULES[token]
    found = []
    for parts in all_partitions(n):
        if len(parts) < 2 or parts[1] == parts[0]:
            continue
        rest = parts[1:]
        if sum(rest) != parts[0] or not all(pred(p) for p in rest):
            continue
        if distinct and len(set(rest)) != len(rest):
            continue
        found.append(parts)
    return found


def reference_restricted_count(n: int, pred, distinct: bool) -> int:
    """Partitions of n with every part passing pred, optionally distinct."""
    total = 0
    for parts in all_partitions(n):
        if distinct and len(set(parts)) != len(parts):
            continue
        if all(pred(p) for p in parts):
            total += 1
    return total


def poly_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def binomial_loop(factors, order: int) -> list[int]:
    """The same product as product_coeffs, multiplied in place one binomial
    at a time with a per-coefficient loop: O(order) Python steps per binomial.

    The reference for qproducts' slice-pass expansion of dense products and,
    followed by invert(), for its binomial-by-binomial division.
    """
    coeffs = [1] + [0] * order
    for sign, offset, step in factors:
        for e in range(offset, order + 1, step):
            # descending k keeps the low coefficients at their pre-update values
            for k in range(order, e - 1, -1):
                c = coeffs[k - e]
                if c != 0:
                    coeffs[k] -= sign * c
    return coeffs


def dp_loop(limit: int, constraint) -> list[int]:
    """Counts of constrained partitions of 0..limit by the textbook DP, one
    Python step per cell: for each allowed part, descending totals (0/1)
    when the constraint is distinct, ascending totals otherwise.

    The reference for partitions.count_upto's packed cells: plain Python
    ints, one per total, so no count can carry into another.  It reads only
    the constraint's distinct, min_part, max_part and allows().
    """
    counts = [0] * (limit + 1)
    counts[0] = 1
    top = limit if constraint.max_part is None else min(limit, constraint.max_part)
    for part in range(constraint.min_part, top + 1):
        if not constraint.allows(part):
            continue
        if constraint.distinct:
            for total in range(limit, part - 1, -1):
                counts[total] += counts[total - part]
        else:
            for total in range(part, limit + 1):
                counts[total] += counts[total - part]
    return counts


def product_coeffs(factors, order: int, inverted: bool = False) -> list[int]:
    """Expand prod over (sign, offset, step) of (1 - sign*q^e) for e in the
    progression offset, offset+step, ... up to order.  With inverted=True
    each binomial is replaced by its geometric-series inverse
    sum over k of sign^k q^(k*e): 1/(1 - q^e) for sign +1 and 1/(1 + q^e)
    for sign -1, so the result is the reciprocal of the product."""
    acc = [1] + [0] * order
    for sign, offset, step in factors:
        for e in range(offset, order + 1, step):
            # the sparse factor goes first: poly_mul skips its zero terms
            if inverted:
                term = [0] * (order + 1)
                for k in range(0, order + 1, e):
                    term[k] = sign ** (k // e)
                acc = poly_mul(term, acc, order)
            else:
                binom = [0] * (order + 1)
                binom[0] = 1
                binom[e] = -sign
                acc = poly_mul(binom, acc, order)
    return acc
