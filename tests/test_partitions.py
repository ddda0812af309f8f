import ast
import time
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from echopart import (
    DEFAULT_ENUMERATION_CAP,
    DISTINCT,
    MOD3_DISTINCT,
    MOD6,
    ODD,
    ODD_DISTINCT,
    UNRESTRICTED,
    Constraint,
    count,
    count_upto,
    enumerate_partitions,
)
from echopart import partitions as partitions_module
from echopart import qproducts as qproducts_module
from echopart import series as series_module

PRESETS = {
    "unrestricted": UNRESTRICTED,
    "distinct": DISTINCT,
    "odd": ODD,
    "odd-distinct": ODD_DISTINCT,
    "mod3-distinct": MOD3_DISTINCT,
    "mod6": MOD6,
}

# (part predicate, distinct) mirrors of the presets, for the brute-force side
PRESET_RULES = {
    "unrestricted": (lambda p: True, False),
    "distinct": (lambda p: True, True),
    "odd": (lambda p: p % 2 == 1, False),
    "odd-distinct": (lambda p: p % 2 == 1, True),
    "mod3-distinct": (lambda p: p % 3 != 0, True),
    "mod6": (lambda p: p % 6 in (1, 5), False),
}


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint(modulus=3)
    with pytest.raises(ValueError):
        Constraint(residues=frozenset({1}))
    with pytest.raises(ValueError):
        Constraint(modulus=3, residues=frozenset())
    with pytest.raises(ValueError):
        Constraint(modulus=3, residues=frozenset({3}))
    with pytest.raises(ValueError):
        Constraint(modulus=0, residues=frozenset({0}))
    with pytest.raises(ValueError):
        Constraint(min_part=0)
    with pytest.raises(ValueError):
        Constraint(max_part=0)


def test_allows():
    assert ODD.allows(7)
    assert not ODD.allows(4)
    assert MOD6.allows(1) and MOD6.allows(5) and MOD6.allows(7)
    assert not MOD6.allows(6) and not MOD6.allows(9)
    assert MOD3_DISTINCT.allows(2) and not MOD3_DISTINCT.allows(9)
    bounded = Constraint(min_part=2, max_part=5)
    assert bounded.allows(2) and bounded.allows(5)
    assert not bounded.allows(1) and not bounded.allows(6)


def test_residues_accept_plain_sets():
    c = Constraint(modulus=6, residues={1, 5})
    assert c.residues == frozenset({1, 5})
    assert c == MOD6


def test_count_golden():
    assert [count(n, UNRESTRICTED) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [count(n, DISTINCT) for n in range(11)] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    assert [count(n, MOD3_DISTINCT) for n in range(11)] == [1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4]
    assert [count(n, MOD6) for n in range(13)] == [1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 5, 6]
    assert count(5, MOD3_DISTINCT) == 2  # (5) and (4,1)
    assert count(0, ODD_DISTINCT) == 1  # the empty partition


def test_count_upto_is_prefix_consistent():
    whole = count_upto(30, ODD)
    assert len(whole) == 31
    assert whole[:16] == count_upto(15, ODD)
    with pytest.raises(ValueError):
        count_upto(-1, ODD)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_matches_brute_force(name):
    pred, distinct = PRESET_RULES[name]
    for n in range(26):
        assert count(n, PRESETS[name]) == bruteforce.reference_restricted_count(
            n, pred, distinct
        )


def test_bounded_constraint_against_brute_force():
    c = Constraint(min_part=2, max_part=5)
    for n in range(21):
        expected = sum(
            1
            for parts in bruteforce.all_partitions(n)
            if all(2 <= p <= 5 for p in parts)
        )
        assert count(n, c) == expected


@st.composite
def constraints_and_limits(draw, max_limit=400):
    limit = draw(st.integers(min_value=0, max_value=max_limit))
    modulus = draw(st.integers(min_value=1, max_value=7))
    constraint = Constraint(
        distinct=draw(st.booleans()),
        modulus=modulus,
        residues=draw(st.frozensets(st.integers(0, modulus - 1), min_size=1)),
        min_part=draw(st.integers(min_value=1, max_value=12)),
        max_part=draw(st.none() | st.integers(min_value=1, max_value=max(limit, 1))),
    )
    return limit, constraint


@given(case=constraints_and_limits())
@settings(max_examples=150, deadline=None)
def test_count_upto_matches_dp_loop(case):
    limit, constraint = case
    assert count_upto(limit, constraint) == bruteforce.dp_loop(limit, constraint)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 12])
@pytest.mark.parametrize("distinct", [False, True])
def test_count_upto_at_the_residue_to_block_boundary(p, distinct):
    """Limits around p*p, where a scalar loop would switch from residue
    classes to blocks.  A repeated part takes (limit // p).bit_length()
    shifts, so for p = 1, 2, 4 the count grows by one at limit p*p; the
    limits also give parts equal to the limit."""
    for limit in (p * p - 1, p * p, p * p + 1):
        for constraint in (
            Constraint(distinct=distinct, min_part=p),
            Constraint(distinct=distinct, min_part=p, max_part=p),
            Constraint(distinct=distinct, modulus=p, residues={0}),
        ):
            assert count_upto(limit, constraint) == bruteforce.dp_loop(limit, constraint)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 12])
@pytest.mark.parametrize("distinct", [False, True])
def test_count_upto_where_the_first_pass_starts(p, distinct):
    """A part's first shift p moves counts[0] to counts[p], and a repeated
    part's second shift is 2p; the limits put 2p just past, at and just
    inside the end, where a repeated part goes from one shift to two."""
    for limit in (2 * p - 1, 2 * p, 2 * p + 1):
        for constraint in (
            Constraint(distinct=distinct, min_part=p),
            Constraint(distinct=distinct, max_part=max(1, p // 4)),
            Constraint(distinct=distinct, modulus=p, residues={0}),
        ):
            assert count_upto(limit, constraint) == bruteforce.dp_loop(limit, constraint)


def test_count_upto_matches_dp_loop_on_every_small_constraint():
    """Every residue set mod 1..6, distinct or not, under small part bounds,
    at each limit 0..30, since the branch taken per part depends on the
    limit; dp_loop's counts to 30 start with those to every smaller limit."""
    for modulus in range(1, 7):
        for mask, distinct, min_part, max_part in product(
            range(1, 2**modulus), (False, True), (1, 2, 3), (None, 2, 5, 11)
        ):
            residues = {r for r in range(modulus) if mask >> r & 1}
            constraint = Constraint(distinct, modulus, residues, min_part, max_part)
            expected = bruteforce.dp_loop(30, constraint)
            for limit in range(31):
                assert count_upto(limit, constraint) == expected[: limit + 1]


@cache
def reference_to_2000(name):
    return bruteforce.dp_loop(2000, PRESETS[name])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_upto_matches_dp_loop_on_presets_at_2000(name):
    assert count_upto(2000, PRESETS[name]) == reference_to_2000(name)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_upto_stays_exact_with_one_bit_of_headroom(name, monkeypatch):
    """With HEADROOM = 1 the cells are checked before every addition with a
    single bit to spare, so a check that comes one addition late, or skips
    the cell of the largest count, lets a count carry into its neighbour.
    Where that shows depends on the limit, so every limit to 400 runs."""
    monkeypatch.setattr(partitions_module, "HEADROOM", 1)
    for limit in (*range(401), 2000):
        assert count_upto(limit, PRESETS[name]) == reference_to_2000(name)[: limit + 1]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_upto_around_each_width_crossing(name, spy):
    """When the cells widen depends on where the checks fall, so the number
    of widenings is not monotone in the limit.  For each k up to the count
    at limit 1999, bisection finds a limit at which the k-th widening first
    happens; the counts there and one either side equal dp_loop's."""
    constraint = PRESETS[name]
    calls = spy(partitions_module, "_widen")

    def widenings(limit):
        calls.clear()
        count_upto(limit, constraint)
        return len(calls)

    for k in range(1, widenings(1999) + 1):
        lo, hi = 0, 1999  # widenings(lo) < k <= widenings(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if widenings(mid) < k else (lo, mid)
        for limit in (hi - 1, hi, hi + 1):
            assert count_upto(limit, constraint) == reference_to_2000(name)[: limit + 1]


def test_enumeration_golden():
    assert enumerate_partitions(6, UNRESTRICTED) == [
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
        (3, 3),
        (3, 2, 1),
        (3, 1, 1, 1),
        (2, 2, 2),
        (2, 2, 1, 1),
        (2, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    ]
    assert enumerate_partitions(6, DISTINCT) == [(6,), (5, 1), (4, 2), (3, 2, 1)]
    assert enumerate_partitions(0, MOD6) == [()]
    assert enumerate_partitions(7, MOD6) == [(7,), (5, 1, 1), (1,) * 7]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_enumeration_agrees_with_count(name):
    constraint = PRESETS[name]
    for n in range(31):
        parts_list = enumerate_partitions(n, constraint)
        assert len(parts_list) == count(n, constraint)
        assert parts_list == sorted(parts_list, reverse=True)
        for parts in parts_list:
            assert sum(parts) == n
            assert all(constraint.allows(p) for p in parts)
            assert list(parts) == sorted(parts, reverse=True)
            if constraint.distinct:
                assert len(set(parts)) == len(parts)


@given(case=constraints_and_limits(max_limit=30))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_filtered_brute_force(case):
    n, constraint = case
    expected = [
        parts
        for parts in bruteforce.all_partitions(n)
        if all(constraint.allows(p) for p in parts)
        and (not constraint.distinct or len(set(parts)) == len(parts))
    ]
    assert enumerate_partitions(n, constraint) == expected


def test_loops_read_parts_only_through_allows(monkeypatch):
    """count_upto and enumerate_partitions take the part set from allows()
    alone; bounds restated as loop limits would skip the odd parts below 5."""
    monkeypatch.setattr(Constraint, "allows", lambda self, part: part % 2 == 1)
    bounded = Constraint(min_part=5, max_part=9)
    odd = PRESET_RULES["odd"][0]
    assert count_upto(20, bounded) == [
        bruteforce.reference_restricted_count(n, odd, False) for n in range(21)
    ]
    assert enumerate_partitions(12, bounded) == [
        parts for parts in bruteforce.all_partitions(12) if all(map(odd, parts))
    ]


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(DEFAULT_ENUMERATION_CAP + 1, DISTINCT)
    with pytest.raises(ValueError):
        enumerate_partitions(-1, UNRESTRICTED)
    at_cap = enumerate_partitions(DEFAULT_ENUMERATION_CAP, Constraint(max_part=2))
    assert len(at_cap) == DEFAULT_ENUMERATION_CAP // 2 + 1 == 61


def test_enumeration_refuses_a_count_past_the_bound_before_any_descent():
    start = time.perf_counter()
    with pytest.raises(
        ValueError, match="^n=120 has 1844349560 partitions, above the bound 1000000$"
    ):
        enumerate_partitions(120, UNRESTRICTED)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_enumeration_serves_a_count_at_the_bound(name, monkeypatch):
    """With the bound at count(12), n = 12 is served and the next n with
    more partitions is refused: for unrestricted, 77 and then 101 at 13."""
    constraint = PRESETS[name]
    bound = count(12, constraint)
    monkeypatch.setattr(partitions_module, "ENUMERATION_BOUND", bound)
    assert len(enumerate_partitions(12, constraint)) == bound
    n = next(n for n in range(13, 121) if count(n, constraint) > bound)
    message = f"^n={n} has {count(n, constraint)} partitions, above the bound {bound}$"
    with pytest.raises(ValueError, match=message):
        enumerate_partitions(n, constraint)


def test_euler_identity():
    """Partitions into odd parts match partitions into distinct parts."""
    odd = count_upto(60, ODD)
    distinct = count_upto(60, DISTINCT)
    assert odd == distinct


def test_schur_identity():
    """Distinct parts prime to 3 match parts congruent to 1 or 5 mod 6."""
    assert count_upto(60, MOD3_DISTINCT) == count_upto(60, MOD6)


@given(n=st.integers(min_value=0, max_value=40))
@settings(max_examples=30)
def test_distinct_never_exceeds_unrestricted(n):
    assert count(n, DISTINCT) <= count(n, UNRESTRICTED)
    assert count(n, ODD_DISTINCT) <= count(n, ODD)


def package_imports(module) -> set[str]:
    """The echopart modules that module's import statements name, read with
    ast; "" stands for the package itself."""
    names = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["echopart" if node.level else "", node.module]))
            names += (f"{base}.{alias.name}" for alias in node.names)
    return {(name + ".").split(".")[1] for name in names if name.split(".")[0] == "echopart"}


def test_partitions_imports_nothing_from_the_closed_form_side():
    """The DP must not share code with the series route it is checked
    against, so partitions imports nothing from the package at all."""
    assert package_imports(partitions_module) == set()


@pytest.mark.parametrize("module", [series_module, qproducts_module], ids=["series", "qproducts"])
def test_closed_form_side_imports_nothing_from_the_direct_side(module):
    """The reverse direction: the closed-form route cannot reach the DP,
    the families built on it, or the b-file comparisons."""
    assert not package_imports(module) & {"partitions", "families", "seqcompare"}
