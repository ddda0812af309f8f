import re

import pytest

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, printed uncaptured."""
    rows = []
    for outcome, status in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            m = _CRITERION.search(getattr(report, "nodeid", ""))
            if m:
                rows.append((int(m.group(1)), m.group(2), status))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, status in sorted(rows):
        terminalreporter.write_line(f"criterion {number:>2}: {status}  {name}")


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, record=None) wraps owner.name: each call appends
    record(*args, **kwargs), by default the positional arguments, to the
    list spy returns, then runs the original and returns its result."""

    def install(owner, name, record=None):
        calls, original = [], getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(record(*args, **kwargs) if record else args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return install


@pytest.fixture
def refuse(monkeypatch):
    """refuse(owner, *names) makes each owner.name raise AssertionError
    naming it and its arguments, e.g. "remark_comparisons(56) called"."""

    def refused(name):
        def call(*args, **kwargs):
            shown = [*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())]
            raise AssertionError(f"{name}({', '.join(shown)}) called")

        return call

    def install(owner, *names):
        for name in names:
            monkeypatch.setattr(owner, name, refused(name))

    return install
