"""
Published sequences and OEIS b-files
====================================

Two published 25-term sequences are shipped with the library for the mod3
and mod6 families.  Because their index convention is not recorded, the
comparison tries three alignment hypotheses and reports a verdict for each;
a divergence is a finding, not an error.  H3 (the nonzero coefficients with
n = 0 counted as 1) matches both lists in full.  The same mechanism
compares locally stored OEIS b-files against computed coefficients, with
one hypothesis per index convention that bfile-export writes.
"""

import tempfile
from pathlib import Path

from echopart import (
    BFile,
    Family,
    compare_bfile,
    direct_counts_upto,
    remark_comparisons,
    render_bfile,
    write_bfile,
    read_bfile,
)

for comparison in remark_comparisons(order=120):
    print(comparison.name)
    for hypothesis in comparison.hypotheses:
        print(f"  {hypothesis.label}: {hypothesis.verdict}")
        mismatches = [r for r in hypothesis.records if not r.match]
        for r in mismatches[:3]:
            print(
                f"      term {r.position} at n={r.n}: "
                f"published {r.reference}, computed {r.computed}"
            )
    print()

# b-files are the OEIS term-listing format: "index value" per line.
coefficients = direct_counts_upto(Family.PLAIN, 24)
bfile = BFile(offset=0, values=tuple(coefficients[::2]))
print("a b-file of the plain family's even coefficients:")
print(render_bfile(bfile), end="")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "plain.txt"
    write_bfile(bfile, path)
    assert read_bfile(path) == bfile  # round trip is bit-exact

# the three index conventions of `echopart bfile-export --mode`
modes = {
    "even": (BFile(0, tuple(coefficients[::2])), "H1"),
    "nonzero": (BFile(1, tuple(c for c in coefficients if c)), "H2"),
    "all": (BFile(0, tuple(coefficients)), "H3"),
}
for mode, (bfile, label) in modes.items():
    comparison = compare_bfile(f"plain {mode}", bfile, coefficients)
    print(comparison.name)
    for hypothesis in comparison.hypotheses:
        print(f"  {hypothesis.label}: {hypothesis.verdict}")
    (matched,) = [h for h in comparison.hypotheses if h.label == label]
    assert matched.verdict == "full match"  # every mode round-trips
