"""A statement-coverage gate: tier-1 must run every statement in src/echopart.

Run from anywhere with ``python3 tests/linecov.py``.  It runs the tier-1
suite in-process through ``pytest.main`` under a ``sys.settrace`` hook that
records line events only in frames whose code lives in ``src/echopart``.
A statement counts as run when any line it spans produced an event.  It
exits 1 when the tests fail or when any ``ast.stmt`` never ran, other than
a def, a class, a docstring or the body of an ``if __name__ == "__main__"``
block, and lists each such statement as file:line.

Code run only in subprocesses is not seen.  The file name does not start
with ``test_``, so pytest never collects it.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "echopart"


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement the gate checks, in source order."""
    out = []

    def visit(parent: ast.AST) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt):
                if not (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or _is_docstring(node, parent)
                ):
                    out.append(node)
                if _is_main_guard(node):
                    continue
            visit(node)

    visit(tree)
    return out


def main() -> int:
    import pytest

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the demo and entry-point tests start subprocesses that import echopart
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    prefix = str(PACKAGE) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set())
        return local

    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"linecov: the tests failed (pytest exit {code})")
        return 1
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = seen.get(str(path), set())
        for node in statements(ast.parse(path.read_text(encoding="utf-8"))):
            if lines.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    for where in missed:
        print(f"linecov: never ran: {where}")
    print(f"linecov: {len(missed)} statements in {PACKAGE.relative_to(ROOT)} never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
