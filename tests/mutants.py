"""A standing mutation corpus: every mutant here must fail its tests.

Run from anywhere with ``python3 tests/mutants.py``.  Each mutant copies
``src/`` to a temporary directory, replaces one exact snippet in one
source file, and runs ``pytest -x -q`` on the named test modules with the
copy first on the import path.  Up to four mutants run at once, one per
CPU, each in its own subprocess; verdicts print in corpus order, each with
that mutant's own time.  A mutant whose tests pass is a survivor;
one whose tests run past ``TIMEOUT_S`` seconds counts as killed.  A
snippet that does not occur exactly once is stale, so an edit to the
source cannot quietly retire a mutant.  Either exits 1.

The corpus is meant for a tree whose tests pass.  A mutant of a module
whose tests already fail reads as killed, so CI runs the corpus only after
the tier-1 suite has passed.

The file name does not start with ``test_``, so pytest never collects it.
A change that adds a fast path adds a mutant for it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# far above the slowest mutant's run, about 15 s
TIMEOUT_S = 300

# (what the mutant breaks, file under src/echopart, snippet, replacement, test modules)
MUTANTS = [
    ("count_upto: block range one short", "partitions.py",
     "for s in range(2 * part, limit + 1, part):",
     "for s in range(2 * part, limit + 1 - part, part):", ["test_partitions"]),
    ("count_upto: blocks starting at part, adding it twice", "partitions.py",
     "for s in range(2 * part, limit + 1, part):",
     "for s in range(part, limit + 1, part):", ["test_partitions"]),
    ("count_upto: block branch without its single-part cell", "partitions.py",
     "counts[part] = 1\n            for s in", "for s in", ["test_partitions"]),
    ("count_upto: residue class skipped", "partitions.py",
     "for r in range(part):", "for r in range(1, part):", ["test_partitions"]),
    ("count_upto: distinct pass shifted", "partitions.py",
     "counts[part : limit + 1 - part])", "counts[part + 1 : limit + 2 - part])",
     ["test_partitions"]),
    ("count_upto: distinct pass one cell short", "partitions.py",
     "counts[part : limit + 1 - part])", "counts[part : limit - part])", ["test_partitions"]),
    ("count_upto: distinct single-part cell set before the pass", "partitions.py",
     "counts[2 * part :] = map(add, counts[2 * part :], counts[part : limit + 1 - part])\n"
     "            counts[part] = 1",
     "counts[part] = 1\n"
     "            counts[2 * part :] = map(add, counts[2 * part :], counts[part : limit + 1 - part])",
     ["test_partitions"]),
    ("count_upto: DP stopping before part 1", "partitions.py",
     "for part in range(limit, 0, -1):", "for part in range(limit, 1, -1):",
     ["test_partitions"]),
    ("enumerate_partitions: descent stopping at 2", "partitions.py",
     "range(min(remaining, max_allowed), 0, -1)", "range(min(remaining, max_allowed), 1, -1)",
     ["test_partitions"]),
    ("compare_published: H3 without the n = 0 substitution", "seqcompare.py",
     "with_empty = [1, *coefficients[1:]][: len(coefficients)]",
     "with_empty = list(coefficients)", ["test_seqcompare"]),
    ("compare_bfile: H3 off by one", "seqcompare.py",
     "coefficients, lambda i: bfile.offset + i)",
     "coefficients, lambda i: bfile.offset + i + 1)", ["test_seqcompare"]),
    ("compare_published: H1 anchored at nth(1)", "seqcompare.py",
     "first = nth(0)", "first = nth(1)", ["test_seqcompare"]),
    ("parse_bfile: expected index off by one", "seqcompare.py",
     'f"(expected {offset + len(values)})"', 'f"(expected {offset + len(values) + 1})"',
     ["test_seqcompare"]),
    ("read_bfile: BOM decoding reverted", "seqcompare.py",
     'encoding="utf-8-sig"', 'encoding="utf-8"', ["test_seqcompare", "test_cli"]),
    ("read_bfile: a byte that is not UTF-8 stops the read", "seqcompare.py",
     'encoding="utf-8-sig", errors="replace"', 'encoding="utf-8-sig"',
     ["test_seqcompare", "test_cli"]),
    ("normalise: no _ to - rewrite", "families.py",
     '.lower().replace("_", "-")', ".lower()", ["test_families"]),
    ("normalise: inner spaces kept", "families.py",
     'text.strip().replace(" ", "")', "text.strip()", ["test_cli"]),
    ("cmd_verify: all read as typed, not by the family-token rule", "cli.py",
     'Family.normalise(args.family) == "all"', 'args.family == "all"', ["test_cli"]),
    ("RECIPES: odd's step 2 instead of 4", "families.py",
     "1/(q^2;q^4)", "1/(q^2;q^2)", ["test_families"]),
    ("RECIPES: mod3's second parameter without its sign", "families.py",
     "-q^4;q^6", "q^4;q^6", ["test_families"]),
    ("genfun_series: a recipe that calls the DP", "families.py",
     "return evaluate(RECIPES[family], order)",
     "return TruncatedSeries(tuple(direct_counts_upto(family, order)))", ["test_families"]),
    ("main: off-by-one MAX_ORDER check", "cli.py",
     "if order > MAX_ORDER:", "if order >= MAX_ORDER:", ["test_cli"]),
    ("cmd_expand: JSON pair separator dropped", "cli.py",
     '",\\n".join(f"    [', '"\\n".join(f"    [', ["test_cli"]),
    ("cmd_bfile_export: nonzero mode written at offset 0", "cli.py",
     "offset, values = 1, tuple(", "offset, values = 0, tuple(", ["test_cli"]),
    ("FULL_COVERAGE_ORDER: one past the least covering order", "seqcompare.py",
     "FULL_COVERAGE_ORDER = 56", "FULL_COVERAGE_ORDER = 57", ["test_seqcompare"]),
    ("FULL_COVERAGE_ORDER: one below the least covering order", "seqcompare.py",
     "FULL_COVERAGE_ORDER = 56", "FULL_COVERAGE_ORDER = 55", ["test_seqcompare"]),
    ("cmd_remark_check: refused at the covering order", "cli.py",
     "if args.order < seqcompare.FULL_COVERAGE_ORDER:",
     "if args.order <= seqcompare.FULL_COVERAGE_ORDER:", ["test_cli"]),
    ("MAX_ORDER: one above 20000", "cli.py",
     "MAX_ORDER = 20_000", "MAX_ORDER = 20_001", ["test_cli"]),
    ("DEFAULT_ORDER: one above 200", "cli.py",
     "DEFAULT_ORDER = 200", "DEFAULT_ORDER = 201", ["test_cli"]),
    ("DEFAULT_ORDER: one below 200", "cli.py",
     "DEFAULT_ORDER = 200", "DEFAULT_ORDER = 199", ["test_cli"]),
    ("remark-check: default order one above 120", "cli.py",
     "default=120,", "default=121,", ["test_cli"]),
    ("remark-check: default order one below 120", "cli.py",
     "default=120,", "default=119,", ["test_cli"]),
    ("pochhammer: theta = instead of += for collided exponents", "qproducts.py",
     "coeffs[e] += (-s) ** abs(k)", "coeffs[e] = (-s) ** abs(k)", ["test_qproducts"]),
    ("pochhammer: theta sign", "qproducts.py",
     "+= (-s) ** abs(k)", "+= s ** abs(k)", ["test_qproducts"]),
    ("_over: dense division ignores the sign", "qproducts.py",
     "if sign == -1:", "if False:", ["test_qproducts"]),
    ("_over: dense division one block short", "qproducts.py",
     "for k in range(e, len(coeffs), e):", "for k in range(e, len(coeffs) - e, e):",
     ["test_qproducts"]),
    ("_over: running sums skip residue 0", "qproducts.py",
     "for r in range(e):", "for r in range(1, e):", ["test_qproducts"]),
    ("_over: 1/(1 + q^e) rewritten without doubling e", "qproducts.py",
     "e *= 2", "e *= 1", ["test_qproducts"]),
    ("_by_symbol: Euler's and Cauchy's sign ratios swapped", "qproducts.py",
     "c = sign if inverse else -sign", "c = -sign if inverse else sign",
     ["test_qproducts"]),
    ("_by_symbol: reciprocal without its second division", "qproducts.py",
     "_over(w, sign, a + (j - 1) * m)", "pass", ["test_qproducts"]),
    ("_by_symbol: Horner's sign power off by one", "qproducts.py",
     "unit = c ** n", "unit = c ** (n + 1)", ["test_qproducts"]),
    ("_by_symbol: F added one cell short", "qproducts.py",
     "w[: len(coeffs)] = map(add if unit == 1 else sub, w[: len(coeffs)], coeffs)",
     "w[: len(coeffs) - 1] = map(add if unit == 1 else sub, w[: len(coeffs) - 1], coeffs)",
     ["test_qproducts"]),
    ("pochhammer: an empty factor list left unpadded", "qproducts.py",
     "tuple(coeffs) + (0,) * (order + 1 - len(coeffs))", "tuple(coeffs)", ["test_qproducts"]),
    ("pochhammer: a symbol applied to 1 handed F at full length", "qproducts.py",
     "coeffs = (1,)\n    for factor in spec.factors:",
     "coeffs = (1,) + (0,) * order\n    for factor in spec.factors:", ["test_qproducts"]),
    ("_by_symbol: reciprocal's exponent step m instead of 2m", "qproducts.py",
     "(2 if inverse else 1) * n * m", "n * m", ["test_qproducts"]),
    ("_theta_shape: the two offsets' signs not compared", "qproducts.py",
     "m1 == m2 == m and s1 == s2 and", "m1 == m2 == m and", ["test_qproducts"]),
    ("_quotient: theta quotient drops its numerator", "qproducts.py",
     "return theta.invert() if num is None else pochhammer(num, order) / theta",
     "return theta.invert()", ["test_qproducts"]),
    ("evaluate: grammar without 1/(den)", "qproducts.py",
     "(?:(1|{_SYMBOL})/)?", "(?:({_SYMBOL})/)?", ["test_qproducts"]),
    ("evaluate: each term expanded while parsing", "qproducts.py",
     "terms.append((sign, expand))",
     "terms.append((sign, partial(lambda value, _: value, expand(order // g))))",
     ["test_qproducts"]),
    ("evaluate: a space inside a number joins its digits", "qproducts.py",
     r'if split := re.search(r"\d +\d", text):', "if False:", ["test_qproducts"]),
    ("evaluate: g read without a caret-less q", "qproducts.py",
     "re.findall(_POWER, compact)", 're.findall(r"q\\^\\d+", compact)', ["test_qproducts"]),
    ("evaluate: the sum in q^g packed at the bottom, not spread", "qproducts.py",
     "out[::g] = result.coeffs", "out[: order // g + 1] = result.coeffs", ["test_qproducts"]),
    ("__truediv__: subtracted terms added", "series.py",
     "acc -= a * out[k - i]", "acc += a * out[k - i]", ["test_series", "test_series_properties"]),
    ("__mul__: no operand swap, so k * s runs a pass per term of s", "series.py",
     "outer, inner = inner, outer", "pass", ["test_series"]),
    ("__mul__: each pass one place late", "series.py",
     "out[i:] = map(add, out[i:],", "out[i + 1:] = map(add, out[i + 1:],",
     ["test_series", "test_series_properties"]),
    ("__str__: a negative first term spaced like a later one", "series.py",
     'terms.append(f"-{mono}" if c < 0 else mono)', 'terms.append(f"- {mono}" if c < 0 else mono)',
     ["test_series"]),
    ("TruncatedSeries: list coefficients kept as a list", "series.py",
     'object.__setattr__(self, "coeffs", tuple(self.coeffs))', "pass", ["test_series"]),
    ("BFile: list values kept as a list", "seqcompare.py",
     'object.__setattr__(self, "values", tuple(self.values))', "pass", ["test_seqcompare"]),
    ("families.__all__: verify not declared", "families.py",
     '"verify",', "", ["test_package"]),
]


def run(name: str, file: str, snippet: str, replacement: str, modules: list[str]) -> str:
    """'killed', 'survived', 'stale (...)' or 'error (...)' for one mutant."""
    source = (ROOT / "src" / "echopart" / file).read_text(encoding="utf-8")
    if source.count(snippet) != 1:
        return f"stale ({file}: the snippet occurs {source.count(snippet)} times)"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (src / "echopart" / file).write_text(source.replace(snippet, replacement), encoding="utf-8")
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *(f"tests/{module}.py" for module in modules)],
                cwd=ROOT,
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            # a mutant that loops is observably wrong, and waiting would hang the run
            return "killed"
    # pytest exits 1 when a test failed; any other code is no verdict
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    last = proc.stdout.strip().rpartition("\n")[2]
    return f"error (pytest exit {proc.returncode}: {last})"


def timed(mutant: tuple) -> tuple[str, float]:
    """run(*mutant)'s verdict and its own wall time in seconds."""
    start = time.perf_counter()
    verdict = run(*mutant)
    return verdict, time.perf_counter() - start


def main() -> int:
    bad = 0
    # threads suffice: each waits on its pytest subprocess
    with ThreadPoolExecutor(min(os.cpu_count() or 1, 4)) as pool:
        for mutant, (verdict, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            bad += verdict != "killed"
            print(f"{verdict:<9} {seconds:5.1f} s  {mutant[0]}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
