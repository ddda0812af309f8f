"""Exact arithmetic for partitions with a self-repeating largest part.

A library for counting partitions whose largest part appears exactly once
and equals the sum of all remaining parts, in six constrained flavors,
with every counting sequence computed two independent ways (closed-form
q-series expansion and direct combinatorial counting) and compared.
"""

from .families import (
    CoefficientRecord,
    Family,
    VerificationReport,
    direct_count,
    direct_counts_upto,
    genfun_series,
    list_partitions,
    verify,
)
from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    DISTINCT,
    MOD3_DISTINCT,
    MOD6,
    ODD,
    ODD_DISTINCT,
    UNRESTRICTED,
    Constraint,
    Partition,
    count,
    count_upto,
    enumerate_partitions,
)
from .qproducts import (
    GeometricSpec,
    PochhammerFactor,
    PochhammerSpec,
    evaluate,
    geometric,
    pochhammer,
)
from .seqcompare import (
    PUBLISHED_MOD3_TERMS,
    PUBLISHED_MOD6_TERMS,
    BFile,
    HypothesisResult,
    SequenceComparison,
    TermRecord,
    compare_bfile,
    compare_published,
    parse_bfile,
    read_bfile,
    remark_comparisons,
    render_bfile,
    write_bfile,
)
from .series import TruncatedSeries, monomial, one, zero

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "CoefficientRecord",
    "Constraint",
    "DEFAULT_ENUMERATION_CAP",
    "DISTINCT",
    "Family",
    "GeometricSpec",
    "HypothesisResult",
    "MOD3_DISTINCT",
    "MOD6",
    "ODD",
    "ODD_DISTINCT",
    "PUBLISHED_MOD3_TERMS",
    "PUBLISHED_MOD6_TERMS",
    "Partition",
    "PochhammerFactor",
    "PochhammerSpec",
    "SequenceComparison",
    "TermRecord",
    "TruncatedSeries",
    "UNRESTRICTED",
    "VerificationReport",
    "compare_bfile",
    "compare_published",
    "count",
    "count_upto",
    "direct_count",
    "direct_counts_upto",
    "enumerate_partitions",
    "evaluate",
    "genfun_series",
    "geometric",
    "list_partitions",
    "monomial",
    "one",
    "parse_bfile",
    "pochhammer",
    "read_bfile",
    "remark_comparisons",
    "render_bfile",
    "verify",
    "write_bfile",
    "zero",
]
