"""Replay the CLI golden corpus: stdout and exit code must stay byte-identical.

``fixtures/cli_golden.json`` lists about 300 invocations of every
subcommand at orders <= 60, with the stdout and exit code each produced
when the corpus was captured.  ``{fixtures}`` in an argument stands for the
fixtures directory.  Stderr is not pinned, so error wording may change.

``fixtures/expand_digests.json`` pins every coefficient at higher orders: the
sha256 of the stdout of ``echopart expand <family> N`` per family, at
N = 4000 (checked here) and N = 20000 (checked by CI).  A change that moves
a coefficient regenerates it and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from echopart.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))
DIGESTS = json.loads((FIXTURES / "expand_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: " ".join(case["argv"]))
def test_golden_invocation(capsys, case):
    argv = [arg.replace("{fixtures}", str(FIXTURES)) for arg in case["argv"]]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("family", DIGESTS["4000"])
def test_expand_digest(capsys, family):
    assert main(["expand", family, "4000"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DIGESTS["4000"][family]
