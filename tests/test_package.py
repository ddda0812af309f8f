"""The package's public surface: each module declares its names once in
``__all__``, and ``echopart.__all__`` republishes exactly those."""

import echopart
from echopart import families, partitions, qproducts, seqcompare, series

PUBLIC = {
    "BFile", "CoefficientRecord", "Constraint", "DEFAULT_ENUMERATION_CAP", "DISTINCT",
    "Family", "GeometricSpec", "HypothesisResult", "MOD3_DISTINCT", "MOD6", "ODD",
    "ODD_DISTINCT", "PUBLISHED_MOD3_TERMS", "PUBLISHED_MOD6_TERMS", "Partition",
    "PochhammerFactor", "PochhammerSpec", "SequenceComparison", "TermRecord",
    "TruncatedSeries", "UNRESTRICTED", "VerificationReport", "compare_bfile",
    "compare_published", "count", "count_upto", "direct_count", "direct_counts_upto",
    "enumerate_partitions", "evaluate", "genfun_series", "geometric", "list_partitions",
    "monomial", "one", "parse_bfile", "pochhammer", "read_bfile", "remark_comparisons",
    "render_bfile", "verify", "write_bfile", "zero",
}
MODULES = (families, partitions, qproducts, seqcompare, series)


def test_package_exports_the_public_names():
    assert len(PUBLIC) == 43
    assert set(echopart.__all__) == PUBLIC


def test_package_exports_each_name_once():
    assert len(echopart.__all__) == len(set(echopart.__all__))


def test_every_exported_name_resolves_on_the_package():
    for name in echopart.__all__:
        assert getattr(echopart, name) is not None, name


def test_every_module_defines_what_it_declares():
    for module in MODULES:
        assert set(module.__all__) <= set(vars(module)), module.__name__
