"""OEIS-style b-files and alignment-hypothesis sequence comparison.

A b-file is the OEIS per-sequence term listing: one "index value" pair per
line, indices consecutive.  Reading ends a line wherever str.splitlines()
does: at LF, CRLF or a lone CR, but also at a form feed, a vertical tab, the
file/group/record separators and the Unicode line breaks.  It skips '#'
comment lines and takes any run of spaces or tabs between and around the two
numbers.  read_bfile drops a leading UTF-8 byte-order mark and reads a byte
that is not UTF-8 as U+FFFD.  Writing emits plain "index value\n" lines, so
a round trip loses only comments and the form of whitespace and newlines.

Published term lists for these families do not always state which n each
term belongs to.  Comparisons therefore never assert the reference values
as ground truth: they test explicit alignment hypotheses, each a row that
maps a term position to the n it is paired with, and report a verdict per
hypothesis.  A divergence is a finding, not an error.  Both published
lists match H3 in full: the nonzero coefficients with n = 0 counted as 1.
"""

from __future__ import annotations

__all__ = [
    "PUBLISHED_MOD3_TERMS", "PUBLISHED_MOD6_TERMS", "BFile", "HypothesisResult",
    "SequenceComparison", "TermRecord", "compare_bfile", "compare_published", "parse_bfile",
    "read_bfile", "remark_comparisons", "render_bfile", "write_bfile",
]

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .families import Family, direct_counts_upto

# Reference terms as published for the mod3 and mod6 family sequences
# (25 terms each, not yet in the OEIS at publication time).  The index
# convention was not published alongside them, hence the hypotheses.
PUBLISHED_MOD3_TERMS: tuple[int, ...] = (
    1, 1, 1, 2, 2, 2, 3, 3, 4, 6, 6, 7, 9, 9, 11, 14, 15, 17, 20, 22,
    25, 30, 33, 37, 42,
)
PUBLISHED_MOD6_TERMS: tuple[int, ...] = (
    1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8, 9, 10, 11, 14, 15, 18,
    20, 23, 25, 30, 33,
)
# The least order at which every hypothesis covers every term of both lists.
FULL_COVERAGE_ORDER = 56

_BFILE_LINE = re.compile(r"[ \t]*(-?\d+)[ \t]+(-?\d+)[ \t]*")


@dataclass(frozen=True)
class BFile:
    """Term listing: values[i] belongs to index offset+i."""

    offset: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a b-file needs at least one term")


def parse_bfile(text: str) -> BFile:
    """Parse b-file text; malformed lines are rejected with their line number."""
    offset: int | None = None
    values: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # splitlines() already dropped any CR; term lines are the common case
        m = _BFILE_LINE.fullmatch(raw)
        if m is None:
            line = raw.strip(" \t")
            if line.startswith("#") or line == "":
                continue
            raise ValueError(f"line {lineno}: malformed b-file line {line!r}")
        try:
            index, value = int(m.group(1)), int(m.group(2))
        except ValueError as exc:  # a number past CPython's int-conversion limit
            raise ValueError(f"line {lineno}: {exc}") from None
        if offset is None:
            offset = index
        elif index != offset + len(values):
            raise ValueError(
                f"line {lineno}: non-contiguous index {index} "
                f"(expected {offset + len(values)})"
            )
        values.append(value)
    return BFile(offset=offset, values=tuple(values))


def read_bfile(path: str | Path) -> BFile:
    return parse_bfile(Path(path).read_text(encoding="utf-8-sig", errors="replace"))


def render_bfile(bfile: BFile) -> str:
    return "".join(f"{index} {value}\n" for index, value in enumerate(bfile.values, bfile.offset))


def write_bfile(bfile: BFile, path: str | Path) -> None:
    # newline="" keeps the writer byte-exact (LF only, even on Windows)
    Path(path).write_text(render_bfile(bfile), encoding="utf-8", newline="")


class TermRecord(NamedTuple):
    """One reference term paired with a computed coefficient."""

    position: int  # 0-based position in the reference list
    n: int         # coefficient exponent assigned by the hypothesis
    reference: int
    computed: int
    match: bool


class HypothesisResult(NamedTuple):
    label: str
    description: str
    verdict: str
    total_terms: int  # reference terms available before the coverage cut
    covered: int      # len(records)
    records: tuple[TermRecord, ...]

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "records": [r._asdict() for r in self.records]}


class SequenceComparison(NamedTuple):
    name: str
    hypotheses: tuple[HypothesisResult, ...]

    def to_json_dict(self) -> dict:
        hypotheses = [h.to_json_dict() for h in self.hypotheses]
        return {"name": self.name, "hypotheses": hypotheses}


def _aligned(
    name: str, values: Sequence[int], rows: Iterable[tuple]
) -> SequenceComparison:
    """One hypothesis per row (label, description, coefficients, n_of).

    Term i of ``values`` is paired with ``coefficients[n_of(i)]``; a term
    whose n is None or falls outside the computed order is left uncovered
    rather than counted as a mismatch.
    """
    hypotheses = []
    for label, description, coefficients, n_of in rows:
        records = tuple(
            TermRecord(i, n, ref, coefficients[n], ref == coefficients[n])
            for i, ref in enumerate(values)
            if (n := n_of(i)) is not None and 0 <= n < len(coefficients)
        )
        misses = [r.position for r in records if not r.match]
        if len(misses) == len(records):
            verdict = "no match"
        elif not misses:
            verdict = "full match"
        else:
            verdict = f"partial match (first divergence at term {misses[0]})"
        hypotheses.append(HypothesisResult(
            label, description, verdict, len(values), len(records), records
        ))
    return SequenceComparison(name, tuple(hypotheses))


def _nth_nonzero(coefficients: Sequence[int]):
    """n_of pairing term i with the i-th nonzero coefficient."""
    return dict(enumerate(n for n, c in enumerate(coefficients) if c != 0)).get


def compare_published(
    name: str, reference: Sequence[int], coefficients: Sequence[int]
) -> SequenceComparison:
    """Align an indexless published term list against computed coefficients.

    H1 anchors the list at the first nonzero computed coefficient and walks
    successive even n; H2 pairs the list with the nonzero coefficients in
    increasing n order; H3 does the same with n = 0 counted as 1, the
    empty partition.
    """
    nth = _nth_nonzero(coefficients)
    first = nth(0)
    h1 = (
        "terms at successive even n: no nonzero coefficient "
        "within the computed order, nothing to align"
        if first is None
        else f"term i is the coefficient at n = {first} + 2*i "
        "(successive even n from the first nonzero coefficient)"
    )
    with_empty = [1, *coefficients[1:]][: len(coefficients)]  # [] stays []
    return _aligned(name, reference, (
        ("H1", h1, coefficients, lambda i: None if first is None else first + 2 * i),
        ("H2", "term i is the i-th nonzero coefficient in increasing n order",
         coefficients, nth),
        ("H3", "term i is the i-th nonzero coefficient with n = 0 counted as 1",
         with_empty, _nth_nonzero(with_empty)),
    ))


def compare_bfile(
    name: str, bfile: BFile, coefficients: Sequence[int]
) -> SequenceComparison:
    """Align a b-file against computed coefficients.

    The file's own indices pin H1: index i holds the coefficient at n = 2*i
    (the convention under which "-1 + number of partitions"-style OEIS
    entries match the plain family).  H2 ignores the indices and pairs the
    values with the nonzero coefficients in increasing n order.  H3 reads
    index i as n = i.  Each bfile-export mode matches one of them in full:
    even H1, nonzero H2, all H3.
    """
    return _aligned(name, bfile.values, (
        ("H1", "b-file index i holds the coefficient at n = 2*i",
         coefficients, lambda i: 2 * (bfile.offset + i)),
        ("H2", "b-file values in index order are the nonzero coefficients "
         "in increasing n order", coefficients, _nth_nonzero(coefficients)),
        ("H3", "b-file index i holds the coefficient at n = i",
         coefficients, lambda i: bfile.offset + i),
    ))


def remark_comparisons(order: int = 120) -> list[SequenceComparison]:
    """Compare the two published 25-term lists against computed coefficients.

    Any order is served; the CLI refuses those below FULL_COVERAGE_ORDER.
    """
    return [
        compare_published(name, reference, direct_counts_upto(family, order))
        for name, reference, family in (
            ("Sequence 1 (mod3)", PUBLISHED_MOD3_TERMS, Family.MOD3),
            ("Sequence 2 (mod6)", PUBLISHED_MOD6_TERMS, Family.MOD6),
        )
    ]
