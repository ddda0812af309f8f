"""Interleaved A/B timing of this tree's echopart against another copy.

    python3 tests/abtime.py BASE --call 'echopart.evaluate("(-q;q)", 20000)' [--rounds 11]
    python3 tests/abtime.py BASE --cli 'verify all 20000' [--rounds 5]

BASE is a directory holding ``src/echopart`` or a git ref of this
repository, whose ``src/`` is extracted to a temporary directory.  The
change side is the ``src/`` beside this file.

``--call`` imports both copies into one process, this tree's as
``echopart`` and BASE's as ``echopart_base``, each with its ``cli``, and
times one ``exec`` of the statement per side and round, with the name
``echopart`` bound to that side's package; one untimed run per side comes
first.  ``--cli`` times a fresh ``python -m echopart`` process per side
and round, stdout discarded, and fails if the command fails; it also
reads each process's peak resident set size (``ru_maxrss`` from
``os.wait4``) and reports each side's median on a fourth line.  The side
that runs first alternates from round to round (Kalibera and Jones,
"Rigorous benchmarking in reasonable time", ISMM 2013).  The report gives
each side's median and quartiles, the rounds in which the change was
faster and the relative change of the medians.

The file name does not start with ``test_``, so pytest never collects it.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(src: Path, name: str):
    """Import the package in src/echopart, and its cli, under the given name."""
    package = src / "echopart"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def call_timer(src: Path, name: str, statement: str):
    code = compile(statement, "<call>", "exec")
    namespace = {"echopart": load(src, name)}

    def timed() -> float:
        start = time.perf_counter()
        exec(code, dict(namespace))
        return time.perf_counter() - start

    timed()
    return timed


def cli_timer(src: Path, command: str, peaks: list[float]):
    """Times one process per call and appends its peak RSS in MB to peaks."""
    argv = [sys.executable, "-m", "echopart", *shlex.split(command)]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def timed() -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        # wait4 reaps the child and returns its resource usage with it
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        peaks.append(usage.ru_maxrss / 1024)  # KiB on Linux
        return seconds

    return timed


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {median:.4f} s  quartiles [{q1:.4f}, {q3:.4f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("base", help="a directory holding src/echopart, or a git ref")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--call", metavar="STATEMENT", help="Python run in-process")
    mode.add_argument("--cli", metavar="ARGS", help="arguments of python -m echopart")
    parser.add_argument("--rounds", type=int, default=11)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(args.base)
        if not (base / "src" / "echopart").is_dir():
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", args.base, "src"],
                capture_output=True, check=True,
            ).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            base = Path(tmp)
        peaks: dict[str, list[float]] = {"base": [], "change": []}
        if args.call is not None:
            timers = {"base": call_timer(base / "src", "echopart_base", args.call),
                      "change": call_timer(ROOT / "src", "echopart", args.call)}
        else:
            timers = {"base": cli_timer(base / "src", args.cli, peaks["base"]),
                      "change": cli_timer(ROOT / "src", args.cli, peaks["change"])}
        times: dict[str, list[float]] = {"base": [], "change": []}
        for i in range(args.rounds):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                times[side].append(timers[side]())
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    relative = statistics.median(times["change"]) / statistics.median(times["base"]) - 1
    print(f"base    {summary(times['base'])}")
    print(f"change  {summary(times['change'])}")
    print(f"change faster in {wins} of {args.rounds} rounds, median {relative:+.1%}")
    if args.cli is not None:
        base_mb, change_mb = (statistics.median(peaks[side]) for side in ("base", "change"))
        print(f"peak RSS median  base {base_mb:.1f} MB  change {change_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
