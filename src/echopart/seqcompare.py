"""OEIS-style b-files and alignment-hypothesis sequence comparison.

A b-file is the OEIS per-sequence term listing: one "index value" pair per
line, indices consecutive.  Reading accepts LF or CRLF, '#' comment lines,
any run of spaces or tabs between the two numbers and around them;
read_bfile also drops a leading UTF-8 byte-order mark.  Writing emits plain
"index value\n" lines, so a read/write round trip is lossless modulo
comment stripping and whitespace and newline normalization.

Published term lists for these families do not always state which n each
term belongs to.  Comparisons therefore never assert the reference values
as ground truth: they test explicit alignment hypotheses (H1: terms sit at
successive even n; H2: terms are the nonzero coefficients in order) and
report a verdict per hypothesis.  A divergence is a finding, not an error.
"""

from __future__ import annotations

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

_BFILE_LINE = re.compile(r"[ \t]*(-?\d+)[ \t]+(-?\d+)[ \t]*")


@dataclass(frozen=True)
class BFile:
    """Term listing: values[i] belongs to index offset+i."""

    offset: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a b-file needs at least one term")

    def terms(self) -> list[tuple[int, int]]:
        return [(self.offset + i, v) for i, v in enumerate(self.values)]


def parse_bfile(text: str) -> BFile:
    """Parse b-file text; malformed lines are rejected with their line number."""
    offset: int | None = None
    values: list[int] = []
    expected: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # splitlines() already dropped any CR; term lines are the common case
        m = _BFILE_LINE.fullmatch(raw)
        if m is None:
            line = raw.strip(" \t")
            if line.startswith("#") or line == "":
                continue
            raise ValueError(f"line {lineno}: malformed b-file line {line!r}")
        index, value = int(m.group(1)), int(m.group(2))
        if expected is None:
            offset = index
        elif index != expected:
            raise ValueError(
                f"line {lineno}: non-contiguous index {index} (expected {expected})"
            )
        expected = index + 1
        values.append(value)
    return BFile(offset=offset, values=tuple(values))


def read_bfile(path: str | Path) -> BFile:
    return parse_bfile(Path(path).read_text(encoding="utf-8-sig"))


def render_bfile(bfile: BFile) -> str:
    return "".join(f"{index} {value}\n" for index, value in bfile.terms())


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


def _hypothesis(
    label: str,
    description: str,
    total_terms: int,
    triples: Iterable[tuple[int, int, int]],
    coefficients: Sequence[int],
) -> HypothesisResult:
    """Pair each (position, n, reference) with the coefficient at n.

    A term whose n falls outside the computed order is left uncovered.
    """
    records = tuple(
        TermRecord(i, n, ref, coefficients[n], ref == coefficients[n])
        for i, n, ref in triples
        if 0 <= n < len(coefficients)
    )
    matches = [r.match for r in records]
    if not any(matches):
        verdict = "no match"
    elif all(matches):
        verdict = "full match"
    else:
        first = records[matches.index(False)].position
        verdict = f"partial match (first divergence at term {first})"
    return HypothesisResult(
        label, description, verdict, total_terms, len(records), records
    )


def _h2_nonzero(
    reference: Sequence[int], coefficients: Sequence[int], description: str
) -> HypothesisResult:
    nonzero = [n for n, c in enumerate(coefficients) if c != 0]
    triples = ((i, n, ref) for i, (ref, n) in enumerate(zip(reference, nonzero)))
    return _hypothesis("H2", description, len(reference), triples, coefficients)


def compare_published(
    name: str, reference: Sequence[int], coefficients: Sequence[int]
) -> SequenceComparison:
    """Align an indexless published term list against computed coefficients.

    H1 anchors the list at the first nonzero computed coefficient and walks
    successive even n; H2 pairs the list with the nonzero coefficients in
    increasing n order.  Terms beyond the computed order are left uncovered
    rather than counted as mismatches.
    """
    first_nonzero = next((n for n, c in enumerate(coefficients) if c != 0), None)
    if first_nonzero is None:
        description = (
            "terms at successive even n: no nonzero coefficient "
            "within the computed order, nothing to align"
        )
        triples = ()
    else:
        description = (
            f"term i is the coefficient at n = {first_nonzero} + 2*i "
            "(successive even n from the first nonzero coefficient)"
        )
        triples = ((i, first_nonzero + 2 * i, ref) for i, ref in enumerate(reference))
    h1 = _hypothesis("H1", description, len(reference), triples, coefficients)
    h2 = _h2_nonzero(
        reference,
        coefficients,
        "term i is the i-th nonzero coefficient in increasing n order",
    )
    return SequenceComparison(name=name, hypotheses=(h1, h2))


def compare_bfile(
    name: str, bfile: BFile, coefficients: Sequence[int]
) -> SequenceComparison:
    """Align a b-file against computed coefficients.

    The file's own indices pin H1: index i holds the coefficient at n = 2*i
    (the convention under which "-1 + number of partitions"-style OEIS
    entries match the plain family).  H2 ignores the indices and pairs the
    values with the nonzero coefficients in increasing n order.
    """
    h1 = _hypothesis(
        "H1",
        "b-file index i holds the coefficient at n = 2*i",
        len(bfile.values),
        ((i, 2 * index, value) for i, (index, value) in enumerate(bfile.terms())),
        coefficients,
    )
    h2 = _h2_nonzero(
        bfile.values,
        coefficients,
        "b-file values in index order are the nonzero coefficients "
        "in increasing n order",
    )
    return SequenceComparison(name=name, hypotheses=(h1, h2))


def remark_comparisons(order: int = 120) -> list[SequenceComparison]:
    """Compare the two published 25-term lists against computed coefficients.

    Every term is covered under both hypotheses from order 56 on (the
    least such order, which `echopart remark-check` computes).
    """
    pairs = (
        ("Sequence 1 (mod3)", PUBLISHED_MOD3_TERMS, Family.MOD3),
        ("Sequence 2 (mod6)", PUBLISHED_MOD6_TERMS, Family.MOD6),
    )
    out = []
    for name, reference, family in pairs:
        coefficients = direct_counts_upto(family, order)
        out.append(compare_published(name, reference, coefficients))
    return out
