"""The A/B timing harness runs and reports in its shape; no timing is checked."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIDE = r"median \d+\.\d{4} s  quartiles \[\d+\.\d{4}, \d+\.\d{4}\]"


@pytest.mark.parametrize(
    "mode, rounds, extra",
    [(["--call", 'echopart.evaluate("(-q;q)", 50)'], 3, []),
     (["--cli", "expand plain 10"], 2, [r"peak RSS median  base \d+\.\d MB  change \d+\.\d MB"])],
    ids=["call", "cli"],
)
def test_abtime_reports_medians_quartiles_and_wins(tmp_path, mode, rounds, extra):
    """--cli adds a line with each side's median peak RSS; --call does not."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), str(tmp_path), *mode,
         "--rounds", str(rounds)],
        capture_output=True, text=True, check=True,
    )
    base, change, verdict, *rest = proc.stdout.splitlines()
    assert len(rest) == len(extra) and all(map(re.fullmatch, extra, rest))
    assert re.fullmatch(f"base    {SIDE}", base)
    assert re.fullmatch(f"change  {SIDE}", change)
    wins = rf"change faster in [0-{rounds}] of {rounds} rounds"
    assert re.fullmatch(rf"{wins}, median [+-]\d+\.\d%", verdict)
