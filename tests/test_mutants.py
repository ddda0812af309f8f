"""tests/mutants.py's pool, with a fake run: no mutant is applied here."""

import re
import threading
import time

import mutants


def test_pool_prints_in_corpus_order_and_runs_at_most_four(capsys, monkeypatch):
    corpus = [(f"mutant {i}", "cli.py", "old", "new", ["test_cli"]) for i in range(10)]
    lock, full = threading.Lock(), threading.Event()
    running = peak = 0

    def fake_run(name, file, snippet, replacement, modules):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            if running == 4:
                full.set()
        full.wait(timeout=2)
        time.sleep(0.002 * (10 - int(name.split()[1])))  # later mutants finish first
        with lock:
            running -= 1
        return "survived" if name == "mutant 7" else "killed"

    monkeypatch.setattr(mutants, "MUTANTS", corpus)
    monkeypatch.setattr(mutants, "run", fake_run)
    monkeypatch.setattr(mutants.os, "cpu_count", lambda: 64)
    assert mutants.main() == 1
    *verdicts, total = capsys.readouterr().out.splitlines()
    assert peak == 4
    expected = [("survived" if i == 7 else "killed", f"mutant {i}") for i in range(10)]
    assert [re.fullmatch(r"(\w+) +\d+\.\d s  (.*)", line).groups() for line in verdicts] == expected
    assert total == "9 of 10 mutants killed"
