"""The acceptance gate: one test per criterion, exact tolerances.

Each test prints its own pass/fail line (visible with -s, or in the
"acceptance criteria" summary section that conftest.py renders after
every run).  Randomized criteria use a fixed seed so failures reproduce.
"""

import json
import random
import time

from echopart import (
    BFile,
    DISTINCT,
    Family,
    MOD3_DISTINCT,
    MOD6,
    ODD,
    TruncatedSeries,
    count_upto,
    direct_count,
    direct_counts_upto,
    list_partitions,
    one,
    parse_bfile,
    read_bfile,
    remark_comparisons,
    render_bfile,
    verify,
    write_bfile,
    zero,
)
from echopart.cli import main

SEED = 20240817


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_closed_form_matches_direct_to_400():
    """Closed-form coefficients equal direct counts for 0 <= n <= 400,
    all six families, exact integers, under ten seconds."""
    start = time.perf_counter()
    reports = [verify(family, 400) for family in Family]
    elapsed = time.perf_counter() - start

    failures = [r.family.value for r in reports if not r.all_equal]
    for report in reports:
        assert len(report.records) == 401

    # the batched direct route must agree with the per-n one
    rng = random.Random(SEED)
    sampled = rng.sample(range(401), 25)
    for report in reports:
        for n in sampled:
            assert report.records[n].direct == direct_count(report.family, n)

    ok = not failures and elapsed < 10.0
    assert _report(
        1, ok, f"six families x 401 coefficients, exact, in {elapsed:.2f}s"
    ), (failures, elapsed)


def test_criterion_02_table_reproduction(capsys):
    """table 8 shows the published counts and witnesses, with the
    odd-distinct row coming from enumeration plus an annotation."""
    code = main(["table", "8"])
    out = capsys.readouterr().out
    lines = out.splitlines()

    def row(name):
        return next(line for line in lines if line.startswith(name + " "))

    checks = {
        "exit 0": code == 0,
        "plain count 4": "  4  " in row("plain"),
        "plain witnesses": "4+3+1, 4+2+2, 4+2+1+1, 4+1+1+1+1" in row("plain"),
        "distinct count 1": "  1  " in row("distinct"),
        "distinct witness": row("distinct").rstrip().endswith("4+3+1"),
        "odd count 2": "  2  " in row("odd"),
        "odd witnesses": "4+3+1, 4+1+1+1+1" in row("odd"),
        "odd-distinct oracle value 1": "  1  " in row("odd-distinct"),
        "odd-distinct witness": "4+3+1" in row("odd-distinct"),
        "annotation present": any(
            line.startswith("note: for the odd-distinct family") for line in lines
        ),
    }
    failed = [name for name, good in checks.items() if not good]
    assert _report(2, not failed, "table 8 counts, witnesses, annotation"), (
        failed,
        out,
    )


def test_criterion_03_intro_example():
    """The six partitions of 10, including and excluding the right ones."""
    witnesses = list_partitions(Family.PLAIN, 10)
    ok = (
        len(witnesses) == 6
        and {(5, 4, 1), (5, 3, 2), (5, 2, 2, 1)} <= set(witnesses)
        and not {(9, 1), (8, 2), (7, 3)} & set(witnesses)
    )
    assert _report(3, ok, "list for n=10 has exactly 6 entries"), witnesses


def test_criterion_04_oracle_sanity_identities():
    """Euler: distinct == odd.  Schur: distinct mod-3 == mod-6.  n <= 300."""
    euler = count_upto(300, DISTINCT) == count_upto(300, ODD)
    schur = count_upto(300, MOD3_DISTINCT) == count_upto(300, MOD6)
    assert _report(4, euler and schur, "Euler and Schur identities to n=300"), (
        euler,
        schur,
    )


def test_criterion_05_series_ring_laws():
    """At least 100 randomized cases, orders <= 64: commutativity,
    associativity, distributivity, identities, invert round-trip."""
    rng = random.Random(SEED)

    def random_series(order):
        return TruncatedSeries(
            tuple(rng.randint(-(10**9), 10**9) for _ in range(order + 1))
        )

    cases = 0
    failures = []
    for index in range(120):
        order = rng.randint(0, 64)
        a, b, c = (random_series(order) for _ in range(3))
        unit = TruncatedSeries((rng.choice((1, -1)),) + a.coeffs[1:])
        laws = {
            "add commutes": a + b == b + a,
            "add associates": (a + b) + c == a + (b + c),
            "mul commutes": a * b == b * a,
            "mul associates": (a * b) * c == a * (b * c),
            "distributes": a * (b + c) == a * b + a * c,
            "add identity": a + zero(order) == a,
            "mul identity": a * one(order) == a,
            "invert round-trip": unit * unit.invert() == one(order),
        }
        cases += 1
        failures.extend(f"case {index}: {name}" for name, good in laws.items() if not good)

    ok = cases >= 100 and not failures
    assert _report(5, ok, f"{cases} randomized cases, {len(failures)} failures"), failures


def test_criterion_06_remark_sequences_report():
    """The published-sequence comparison is deterministic and every term
    record carries the published value next to the computed one.  Whether
    the sequences match is reported, never asserted."""
    first = remark_comparisons(120)
    second = remark_comparisons(120)
    deterministic = json.dumps([c.to_json_dict() for c in first]) == json.dumps(
        [c.to_json_dict() for c in second]
    )

    complete = True
    for comparison in first:
        for hypothesis in comparison.hypotheses:
            if hypothesis.verdict not in {"full match", "no match"} and not (
                hypothesis.verdict.startswith("partial match")
            ):
                complete = False
            if hypothesis.covered != 25:
                complete = False
            for record in hypothesis.records:
                payload = hypothesis.to_json_dict()["records"][record.position]
                if "reference" not in payload or "computed" not in payload:
                    complete = False

    verdicts = [h.verdict for c in first for h in c.hypotheses]
    ok = deterministic and complete and len(verdicts) == 6
    assert _report(
        6, ok, f"deterministic report, verdicts: {verdicts}"
    ), (deterministic, complete, verdicts)


def test_criterion_07_parity():
    """Every odd coefficient through n=399 is zero, for all six families."""
    bad = [
        (family.value, n)
        for family in Family
        for n, value in enumerate(direct_counts_upto(family, 399))
        if n % 2 == 1 and value != 0
    ]
    assert _report(7, not bad, "all odd n <= 399 vanish for six families"), bad


def test_criterion_08_cross_relation():
    """mod3 minus mod6 at n=2*largest is -1 exactly for largest = 2, 4 mod 6."""
    mod3 = direct_counts_upto(Family.MOD3, 400)
    mod6 = direct_counts_upto(Family.MOD6, 400)
    bad = []
    for largest in range(201):
        gap = mod3[2 * largest] - mod6[2 * largest]
        expected = -1 if largest % 6 in (2, 4) else 0
        if gap != expected:
            bad.append((largest, gap, expected))
    assert _report(8, not bad, "gap matches the singleton rule for largest <= 200"), bad


def test_criterion_09_bfile_round_trip(tmp_path):
    """Randomized well-formed b-files survive write/read bit-for-bit;
    malformed input is rejected with a line number."""
    rng = random.Random(SEED)
    failures = []
    for index in range(60):
        offset = rng.randint(-3, 50)
        values = tuple(
            rng.randint(-(10**12), 10**12) for _ in range(rng.randint(1, 60))
        )
        original = BFile(offset=offset, values=values)
        path = tmp_path / f"case_{index}.txt"
        write_bfile(original, path)
        if path.read_bytes() != render_bfile(original).encode("ascii"):
            failures.append(f"case {index}: bytes differ")
        if read_bfile(path) != original:
            failures.append(f"case {index}: round trip differs")
        if parse_bfile(render_bfile(original)) != original:
            failures.append(f"case {index}: text round trip differs")

    malformed = [
        ("1 2\n1  3\n", "line 2"),
        ("x y\n", "line 1"),
        ("0 1\n1 2\n5 9\n", "line 3"),
        ("3 4\n2 1\n", "line 2"),
        ("1 2 3\n", "line 1"),
    ]
    for text, needle in malformed:
        try:
            parse_bfile(text)
        except ValueError as exc:
            if needle not in str(exc):
                failures.append(f"{text!r}: error lacks {needle}: {exc}")
        else:
            failures.append(f"{text!r}: accepted")

    assert _report(
        9, not failures, "60 random round trips, 5 malformed rejections"
    ), failures


def test_criterion_10_closed_form_matches_direct_to_2000():
    """Closed-form coefficients equal direct counts for 0 <= n <= 2000,
    all six families: the paper's products at a higher order."""
    start = time.perf_counter()
    reports = [verify(family, 2000) for family in Family]
    elapsed = time.perf_counter() - start

    failures = [r.family.value for r in reports if not r.all_equal]
    ok = not failures and all(len(r.records) == 2001 for r in reports)
    assert _report(
        10, ok, f"six families x 2001 coefficients, exact, in {elapsed:.2f}s"
    ), failures
