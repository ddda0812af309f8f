"""Outside anchors at the order ceiling, outside pytest.

    python3 tests/ceiling.py

With echopart importable (installed, or ``src`` on ``PYTHONPATH``), it runs
``verify`` for plain and distinct at ``cli.MAX_ORDER`` = 20000 and applies
test_classical.py's checks to both routes for every l <= 10000: Ramanujan's
three congruences on p(l), the pentagonal parity of q(l), and p(10000) by
Rademacher's series (rademacher.py).  It prints one line per check and
exits 1 when any fails.  It takes 3-4 s (CPython 3.11, 2-core VM), so CI's
ceiling step runs it; tier-1 runs the same checks at order 4000.

The file name does not start with ``test_``, so pytest never collects it.
"""

from __future__ import annotations

import sys

from echopart import Family, verify
from echopart.cli import MAX_ORDER
from rademacher import partition_count
from test_classical import CONGRUENCES, ROUTES, congruence_breaks, counts, parity_breaks

LIMIT = MAX_ORDER // 2


def checks(reports):
    """Yield (check, the l it fails at) for each check on both routes of
    ``reports``, plain's and distinct's at MAX_ORDER."""
    rademacher = partition_count(LIMIT)
    for route in ROUTES:
        p = counts(reports[Family.PLAIN], route)
        for modulus, residue in CONGRUENCES:
            yield (f"{route}: p({modulus}k+{residue}) = 0 (mod {modulus}) for l <= {LIMIT}",
                   congruence_breaks(p, modulus, residue))
        yield (f"{route}: q(l) odd exactly at pentagonal l <= {LIMIT}",
               parity_breaks(counts(reports[Family.DISTINCT], route)))
        yield (f"{route}: p({LIMIT}) by Rademacher's series",
               [] if p[LIMIT] == rademacher else [LIMIT])


def main() -> int:
    reports = {family: verify(family, MAX_ORDER) for family in (Family.PLAIN, Family.DISTINCT)}
    failed = 0
    for check, breaks in checks(reports):
        failed += bool(breaks)
        print(f"FAIL  {check}: l = {breaks[:10]}" if breaks else f"ok    {check}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
