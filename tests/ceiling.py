"""Outside anchors at the order ceiling, outside pytest.

    python3 tests/ceiling.py

It runs from a plain checkout: it puts ``src`` ahead of any installed
echopart on the import path.  It runs ``verify`` for all six families at
``cli.MAX_ORDER`` = 20000 and prints the time those six calls took as its
first line.  Then it checks that the two routes agree, naming each family
that disagrees at its first mismatching n, and applies test_classical.py's
checks to both routes for every l <= 10000: Ramanujan's three congruences
on p(l), the pentagonal parity of q(l) and p(10000) by Rademacher's series
(rademacher.py) on plain and distinct, and the pentagonal certificate
(F*E1 = 1, F*E1 = E2, F*E1*E4 = E2*E2 or F*E1*E6 = E2*E3) on every
family.  It prints one line per check, 23 in all, and exits 1 when any
fails.  It takes 7.5-9.5 s (CPython 3.11, 2-core VM), so CI's ceiling step
runs it, and nothing else there runs ``verify`` at the ceiling; tier-1
runs the same checks at order 4000.

The file name does not start with ``test_``, so pytest never collects it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from echopart import Family, verify  # noqa: E402
from echopart.cli import MAX_ORDER  # noqa: E402
from rademacher import partition_count  # noqa: E402
from test_classical import (  # noqa: E402
    CERTIFICATES, CONGRUENCES, ROUTES, certificate_breaks, congruence_breaks, counts,
    parity_breaks,
)

LIMIT = MAX_ORDER // 2


def identity(family):
    """The family's certificate as text, e.g. "F*E1*E6 = E2*E3"."""
    _, left, right = CERTIFICATES[family]
    product = "*".join(f"E{m}" for m in right) or "1"
    return "*".join(["F", *(f"E{m}" for m in left)]) + " = " + product


def at(breaks):
    """What fails a check at the l in ``breaks``, the first ten of them."""
    return f"l = {breaks[:10]}" if breaks else ""


def checks(reports):
    """Yield (check, what fails it or "") for the routes' agreement and for
    each check on both routes of ``reports``, every family's at MAX_ORDER."""
    yield (f"genfun = direct for all six families at order {MAX_ORDER}",
           ", ".join(f"{family.value} at n = {report.first_mismatch().n}"
                     for family, report in reports.items() if not report.all_equal))
    rademacher = partition_count(LIMIT)
    for route in ROUTES:
        p = counts(reports[Family.PLAIN], route)
        for modulus, residue in CONGRUENCES:
            yield (f"{route}: p({modulus}k+{residue}) = 0 (mod {modulus}) for l <= {LIMIT}",
                   at(congruence_breaks(p, modulus, residue)))
        yield (f"{route}: q(l) odd exactly at pentagonal l <= {LIMIT}",
               at(parity_breaks(counts(reports[Family.DISTINCT], route))))
        yield (f"{route}: p({LIMIT}) by Rademacher's series",
               at([] if p[LIMIT] == rademacher else [LIMIT]))
        for family in Family:
            yield (f"{route}: {family.value}: {identity(family)} to q^{LIMIT}",
                   at(certificate_breaks(family, getattr(reports[family], route))))


def main() -> int:
    start = time.perf_counter()
    reports = {family: verify(family, MAX_ORDER) for family in Family}
    print(f"verify all {MAX_ORDER}: {time.perf_counter() - start:.3f} s")
    failed = 0
    for check, fault in checks(reports):
        failed += bool(fault)
        print(f"FAIL  {check}: {fault}" if fault else f"ok    {check}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
