"""Each demo script's stdout, pinned byte for byte.

A demo that prints something else fails here, not only when a reader runs
it.  After an intended change, re-capture its fixture from the repository
root with ``python demos/<name>.py > tests/fixtures/demos/<name>.txt``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_pinned(demo):
    run = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(demo)],
        cwd=ROOT,
        capture_output=True,
        check=True,
    )
    assert run.stdout == (FIXTURES / f"{demo.stem}.txt").read_bytes()
