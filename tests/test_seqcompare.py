import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echopart import (
    BFile,
    Family,
    PUBLISHED_MOD3_TERMS,
    PUBLISHED_MOD6_TERMS,
    compare_bfile,
    compare_published,
    direct_counts_upto,
    parse_bfile,
    read_bfile,
    remark_comparisons,
    render_bfile,
    write_bfile,
)
from echopart import seqcompare
from echopart.seqcompare import FULL_COVERAGE_ORDER

FIXTURES = Path(__file__).parent / "fixtures"


def test_render_format():
    assert render_bfile(BFile(offset=1, values=(0, 1))) == "1 0\n2 1\n"
    assert render_bfile(BFile(offset=-2, values=(5,))) == "-2 5\n"


def test_parse_basic():
    b = parse_bfile("0 1\n1 4\n2 9\n")
    assert b.offset == 0
    assert b.values == (1, 4, 9)
    assert render_bfile(b) == "0 1\n1 4\n2 9\n"


def test_parse_skips_comments_and_blanks():
    b = parse_bfile("# header\n\n3 7\n4 8\n# trailing\n")
    assert b.offset == 3
    assert b.values == (7, 8)


def test_parse_accepts_crlf():
    assert parse_bfile("1 2\r\n2 3\r\n") == parse_bfile("1 2\n2 3\n")


def test_parse_accepts_lone_cr():
    # classic Mac OS line ends; str.splitlines() ends a line at a lone CR too
    assert parse_bfile("1 2\r2 3\r") == parse_bfile("1 2\n2 3\n")


def test_parse_rejects_malformed_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_bfile("1 2\n1  2\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_bfile("a b\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_bfile("# ok\n5 5\nnope\n")


def test_parse_rejects_non_contiguous_indices():
    with pytest.raises(ValueError, match="line 2.*non-contiguous"):
        parse_bfile("1 5\n3 6\n")


def test_parse_names_the_expected_index():
    message = r"^line 5: non-contiguous index 9 \(expected 8\)$"
    with pytest.raises(ValueError, match=message):
        parse_bfile("# comment\n5 1\n6 2\n7 3\n9 4\n")


# the most digits int() converts from text; 0 where the interpreter sets no limit
INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS_LIMIT, reason="no int-conversion limit")
@pytest.mark.parametrize("line", ["1 {}", "{} 1"], ids=["value", "index"])
def test_parse_names_the_line_of_a_number_past_the_int_limit(line):
    too_long = "9" * (INT_DIGITS_LIMIT + 1)
    text = "# comment\n0 1\n" + line.format(too_long) + "\n"
    with pytest.raises(ValueError, match=f"^line 3: .*{INT_DIGITS_LIMIT} digits"):
        parse_bfile(text)


def test_parse_rejects_empty_input():
    for text in ("# only a comment\n", ""):
        with pytest.raises(ValueError, match="^a b-file needs at least one term$"):
            parse_bfile(text)
    with pytest.raises(ValueError, match="^a b-file needs at least one term$"):
        BFile(offset=0, values=())


def test_values_given_as_a_list_are_the_same_value():
    b = BFile(0, [1, 2])
    assert b == BFile(0, (1, 2))
    assert hash(b) == hash(BFile(0, (1, 2)))


def test_file_round_trip(tmp_path):
    b = BFile(offset=5, values=(1, -2, 3))
    path = tmp_path / "b.txt"
    write_bfile(b, path)
    assert path.read_bytes() == b"5 1\n6 -2\n7 3\n"
    assert read_bfile(path) == b


def test_bytes_that_are_not_utf8(tmp_path):
    """A Latin-1 byte is read as U+FFFD: harmless in a comment, a malformed
    line with its number in a term line.  A leading BOM is still dropped."""
    path = tmp_path / "b.txt"
    path.write_bytes(b"# by J\xf6rg\n0 1\n1 2\n")
    assert read_bfile(path) == BFile(0, (1, 2))
    path.write_bytes(b"\xef\xbb\xbf0 1\n# by J\xf6rg\n1 2\n")
    assert read_bfile(path) == BFile(0, (1, 2))
    path.write_bytes(b"0 1\n1 2\xf6\n")
    with pytest.raises(ValueError, match="^line 2: malformed b-file line '1 2\ufffd'$"):
        read_bfile(path)


@pytest.mark.parametrize("line", ["0 1 ", "0\t1", "0  1", " 0 1"])
def test_loose_whitespace_round_trips_to_canonical(line, tmp_path):
    """b-files in the wild pad with spaces or tabs; the writer stays canonical."""
    b = parse_bfile(f"# padded\n{line}\r\n  1\t \t-2\t\n")
    assert b == BFile(offset=0, values=(1, -2))
    path = tmp_path / "b.txt"
    write_bfile(b, path)
    assert path.read_bytes() == b"0 1\n1 -2\n"
    assert read_bfile(path) == b


def test_loose_whitespace_still_needs_two_numbers():
    for text in ("0 1 2\n", "0\t\n", "01\n", "0 1x\n", "0 - 1\n"):
        with pytest.raises(ValueError, match="line 1"):
            parse_bfile(text)


@given(
    offset=st.integers(min_value=-5, max_value=100),
    values=st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=50),
)
@settings(max_examples=80)
def test_round_trip_property(offset, values):
    b = BFile(offset=offset, values=tuple(values))
    assert parse_bfile(render_bfile(b)) == b


def test_compare_bfile_full_match():
    coeffs = direct_counts_upto(Family.PLAIN, 80)
    b = read_bfile(FIXTURES / "b000065.txt")
    comparison = compare_bfile("fixture", b, coeffs)
    h1, h2, h3 = comparison.hypotheses
    assert h1.label == "H1"
    assert h1.verdict == "full match"
    assert h1.covered == h1.total_terms == 41
    # the fixture lists zeros, so the nonzero pairing cannot line up
    assert h2.verdict != "full match"
    # the fixture's index i is n = 2*i, not n = i
    assert h3.label == "H3" and h3.covered == 41
    assert h3.verdict == "partial match (first divergence at term 2)"


def test_compare_bfile_skips_out_of_range():
    coeffs = direct_counts_upto(Family.PLAIN, 20)
    b = read_bfile(FIXTURES / "b000065.txt")
    h1 = compare_bfile("fixture", b, coeffs).hypotheses[0]
    assert h1.total_terms == 41
    assert h1.covered == 11  # indices 0..10 map to n = 0..20
    assert h1.verdict == "full match"


def test_compare_bfile_detects_divergence():
    coeffs = direct_counts_upto(Family.PLAIN, 20)
    b = BFile(offset=0, values=(0, 0, 1, 2, 5))
    h1 = compare_bfile("bad", b, coeffs).hypotheses[0]
    assert h1.verdict == "partial match (first divergence at term 4)"
    bad = h1.records[4]
    assert bad.n == 8 and bad.reference == 5 and bad.computed == 4


def test_compare_published_alignments():
    # coefficients with first nonzero at n=4: H1 walks 4, 6, 8, ...
    coeffs = [0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4]
    comparison = compare_published("toy", (1, 2, 3, 4), coeffs)
    h1, h2, h3 = comparison.hypotheses
    assert [r.n for r in h1.records] == [4, 6, 8, 10]
    assert h1.verdict == "full match"
    assert [r.n for r in h2.records] == [4, 6, 8, 10]
    assert h2.verdict == "full match"
    # H3 counts n = 0 as 1, so every term moves one nonzero coefficient up
    assert [(r.n, r.computed) for r in h3.records] == [(0, 1), (4, 1), (6, 2), (8, 3)]
    assert h3.verdict == "partial match (first divergence at term 1)"


def test_compare_published_uncovered_terms():
    coeffs = [0, 0, 1]
    comparison = compare_published("toy", (1, 1, 1), coeffs)
    h1, h2, h3 = comparison.hypotheses
    assert h1.covered == 1 and h1.total_terms == 3
    assert h2.covered == 1
    assert h1.verdict == "full match"
    assert [r.n for r in h3.records] == [0, 2]
    assert h3.verdict == "full match"


def test_compare_published_nothing_to_align():
    comparison = compare_published("toy", (1, 2), [0, 0, 0])
    h1, h2, h3 = comparison.hypotheses
    for hyp in (h1, h2):
        assert hyp.covered == 0
        assert hyp.verdict == "no match"
    # n = 0 counted as 1 is the one coefficient H3 can pair with
    assert list(h3.records) == [(0, 0, 1, 1, True)]
    assert h3.verdict == "full match"
    # with no computed coefficient at all, not even n = 0 is there to pair
    for hyp in compare_published("toy", (1, 2), []).hypotheses:
        assert (hyp.covered, hyp.verdict) == (0, "no match")


def test_published_term_lists():
    assert len(PUBLISHED_MOD3_TERMS) == 25
    assert len(PUBLISHED_MOD6_TERMS) == 25
    assert PUBLISHED_MOD3_TERMS[:10] == (1, 1, 1, 2, 2, 2, 3, 3, 4, 6)
    assert PUBLISHED_MOD6_TERMS[:6] == (1, 1, 1, 1, 1, 2)


def test_remark_comparisons_structure():
    seq1, seq2 = remark_comparisons()
    assert seq1.name == "Sequence 1 (mod3)"
    assert seq2.name == "Sequence 2 (mod6)"
    for comparison, reference, family in (
        (seq1, PUBLISHED_MOD3_TERMS, Family.MOD3),
        (seq2, PUBLISHED_MOD6_TERMS, Family.MOD6),
    ):
        coeffs = direct_counts_upto(family, 120)
        assert [h.label for h in comparison.hypotheses] == ["H1", "H2", "H3"]
        for hyp in comparison.hypotheses:
            assert hyp.covered == hyp.total_terms == 25
            for record in hyp.records:
                assert record.reference == reference[record.position]
                if hyp.label == "H3" and record.n == 0:
                    assert record.computed == 1  # the empty partition
                else:
                    assert record.computed == coeffs[record.n]


def test_full_coverage_order_is_the_least_covering_order():
    """The order remark-check refuses below: at it every hypothesis of both
    published lists covers all 25 terms, one below it some hypothesis does not."""
    def coverage(order):
        return {hyp.covered for c in remark_comparisons(order) for hyp in c.hypotheses}

    assert coverage(FULL_COVERAGE_ORDER) == {25}
    assert min(coverage(FULL_COVERAGE_ORDER - 1)) < 25


def test_remark_comparisons_default_to_the_least_covering_order(spy):
    """Every order from FULL_COVERAGE_ORDER up gives the same comparisons,
    so the default asks the DP for no more than that."""
    orders = spy(seqcompare, "direct_counts_upto", lambda family, order: order)
    assert remark_comparisons() == remark_comparisons(120) == remark_comparisons(400)
    assert orders[:2] == [FULL_COVERAGE_ORDER] * 2


def test_remark_comparisons_are_deterministic():
    a = [c.to_json_dict() for c in remark_comparisons()]
    b = [c.to_json_dict() for c in remark_comparisons()]
    assert json.dumps(a) == json.dumps(b)


def test_remark_verdicts_report_divergence_as_finding():
    """The published lists do not align perfectly under either hypothesis;
    the comparison must say exactly where, not hide it."""
    seq1, seq2 = remark_comparisons()
    assert seq1.hypotheses[0].verdict == "partial match (first divergence at term 1)"
    assert seq1.hypotheses[1].verdict == "partial match (first divergence at term 2)"
    assert seq2.hypotheses[0].verdict == "partial match (first divergence at term 4)"
    assert seq2.hypotheses[1].verdict == "partial match (first divergence at term 4)"


def test_remark_h3_explains_both_published_lists():
    """Both lists are the family's nonzero coefficients with n = 0 counted as 1."""
    for comparison in remark_comparisons():
        h3 = comparison.hypotheses[2]
        assert h3.label == "H3"
        assert (h3.verdict, h3.covered, h3.total_terms) == ("full match", 25, 25)


@pytest.mark.parametrize("reference, family", [
    (PUBLISHED_MOD3_TERMS, Family.MOD3), (PUBLISHED_MOD6_TERMS, Family.MOD6),
])
@pytest.mark.parametrize("k", [0, 1, 12, 24])
def test_remark_h3_reports_a_changed_term(reference, family, k):
    mutated = list(reference)
    mutated[k] += 1
    coeffs = direct_counts_upto(family, 120)
    h3 = compare_published("mutated", mutated, coeffs).hypotheses[2]
    assert h3.verdict == f"partial match (first divergence at term {k})"


def _check_hypothesis(hyp, terms, coefficients):
    """``terms`` are the (position, n, reference) triples the hypothesis assigns."""
    covered = [(i, n, ref) for i, n, ref in terms if 0 <= n < len(coefficients)]
    assert hyp.covered == len(covered)
    assert list(hyp.records) == [
        (i, n, ref, coefficients[n], ref == coefficients[n]) for i, n, ref in covered
    ]
    for record in hyp.records:
        assert record.match == (record.reference == record.computed)
    misses = [r.position for r in hyp.records if not r.match]
    if len(misses) == len(hyp.records):
        assert hyp.verdict == "no match"
    elif not misses:
        assert hyp.verdict == "full match"
    else:
        assert hyp.verdict == f"partial match (first divergence at term {misses[0]})"
    payload = hyp.to_json_dict()
    assert list(payload) == [
        "label", "description", "verdict", "total_terms", "covered", "records"
    ]
    for record in payload["records"]:
        assert list(record) == ["position", "n", "reference", "computed", "match"]
    assert json.loads(json.dumps(payload)) == payload


def _nonzero_terms(reference, coefficients):
    nonzero = [n for n, c in enumerate(coefficients) if c != 0]
    return [(i, n, ref) for i, (ref, n) in enumerate(zip(reference, nonzero))]


small_ints = st.integers(min_value=0, max_value=3)
coefficient_lists = st.lists(small_ints, min_size=1, max_size=40)


@given(
    offset=st.integers(min_value=-5, max_value=50),
    values=st.lists(small_ints, min_size=1, max_size=30),
    coefficients=coefficient_lists,
)
# the two dropped terms shift positions: the divergence is term 4, record 2
@example(offset=-2, values=[9, 9, 0, 0, 7], coefficients=[0, 0, 0, 0, 1])
@settings(max_examples=150)
def test_compare_bfile_records_property(offset, values, coefficients):
    comparison = compare_bfile("b", BFile(offset, tuple(values)), coefficients)
    assert list(comparison.to_json_dict()) == ["name", "hypotheses"]
    h1, h2, h3 = comparison.hypotheses
    assert h1.total_terms == h2.total_terms == h3.total_terms == len(values)
    h1_terms = [(i, 2 * (offset + i), v) for i, v in enumerate(values)]
    _check_hypothesis(h1, h1_terms, coefficients)
    _check_hypothesis(h2, _nonzero_terms(values, coefficients), coefficients)
    h3_terms = [(i, offset + i, v) for i, v in enumerate(values)]
    _check_hypothesis(h3, h3_terms, coefficients)


@given(reference=st.lists(small_ints, max_size=30), coefficients=coefficient_lists)
@settings(max_examples=150)
def test_compare_published_records_property(reference, coefficients):
    h1, h2, h3 = compare_published("toy", reference, coefficients).hypotheses
    first = next((n for n, c in enumerate(coefficients) if c != 0), None)
    h1_terms = [] if first is None else [
        (i, first + 2 * i, ref) for i, ref in enumerate(reference)
    ]
    _check_hypothesis(h1, h1_terms, coefficients)
    _check_hypothesis(h2, _nonzero_terms(reference, coefficients), coefficients)
    # H3: n = 0 always holds the empty partition's 1, then the nonzero n >= 1
    h3_ns = [0] + [n for n in range(1, len(coefficients)) if coefficients[n] != 0]
    h3_terms = list(zip(range(len(reference)), h3_ns, reference))
    _check_hypothesis(h3, h3_terms, [1] + coefficients[1:])
