"""List the statement lines of ``src/propmod`` that no test executes.

Runs the tier-1 test command in this process under a ``sys.settrace`` line
tracer limited to ``src/propmod`` and prints, one per line, every statement
no test reached as ``path:line: source``. Standard library plus the pytest
that the tests already need; lines that run only in a child process (the CLI
help goldens, the demos, a parallel sweep) are not traced and are listed.

A statement counts as run when any line of it, or of its header for a
compound statement (``def``, ``if``, ``for``, ...), fires a trace event.
Lines the compiler emits no code for (a function's docstring, say) are never
listed.

Usage, from the repository root::

    python tools/unexecuted_lines.py [pytest arguments]

The pytest arguments default to the tier-1 ones, ``-q
--continue-on-collection-errors``. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "propmod"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def _code_lines(code) -> set:
    """Every line the compiler emitted an instruction for, nested code included."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _spans(tree) -> list:
    """(first line, lines) per statement: a simple statement's every line, a
    compound statement's header lines (decorators through the line before its
    first nested statement)."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = [child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
                  for child in getattr(node, field, ()) if hasattr(child, "lineno")]
        last = min(nested) - 1 if nested else node.end_lineno
        spans.append((node.lineno, range(first, max(first, last) + 1)))
    return spans


def unexecuted(path: Path, hit: set) -> list:
    """Statement first lines of ``path`` whose every emitted line went unhit."""
    source = path.read_text()
    emitted = _code_lines(compile(source, str(path), "exec"))
    missed = set()
    for lineno, span in _spans(ast.parse(source)):
        lines = emitted.intersection(span)
        if lines and not lines & hit:
            missed.add(lineno)
    return sorted(missed)


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # the tracer starts before pytest imports propmod

    prefix = str(PACKAGE) + "/"
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for lineno in unexecuted(path, hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{lineno}: {text[lineno - 1].strip()}")
            count += 1
    print(f"{count} statement lines unexecuted", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
