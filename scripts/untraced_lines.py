"""List the statements under src/ashg/ that the test suite never runs.

Runs the tier-1 suite (pyproject.toml's testpaths) in this process under
a `sys.settrace` line tracer, with the timing tests of
tests/test_scaling.py deselected, then prints one `path:line: source`
line per statement that never ran, whether or not tests failed.  Code
that runs only in a child process (`python -m ashg.cli`, the benchmark's
subprocesses) counts as not run.  Uses the standard library and pytest
only; it takes minutes, so it is not part of the suite.

    python scripts/untraced_lines.py [extra pytest arguments]

The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ashg"


def trace_lines(package: Path):
    """A settrace function that records (file, line) hits inside `package`."""
    hits: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}
    prefix = str(package) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        traced = inside.get(filename)
        if traced is None:
            traced = inside[filename] = os.path.realpath(filename).startswith(prefix)
        return local if traced else None

    return hits, tracer


def executable_lines(code: types.CodeType) -> set[int]:
    """Every line that some instruction of `code` or its nested code sits on."""
    lines: set[int] = set()
    stack = [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def statements(source: str, filename: str):
    """(first line, lines) per statement that compiles to instructions.

    A compound statement owns its header only (decorators included), not
    its body; `try` owns nothing, its clauses' statements speak for it.
    """
    executable = executable_lines(compile(source, filename, "exec"))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try):
            continue
        start = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
        body = getattr(node, "body", None)
        end = max(start, body[0].lineno - 1) if body else node.end_lineno
        lines = executable.intersection(range(start, end + 1))
        if lines:
            yield node.lineno, lines


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    hits, tracer = trace_lines(PACKAGE)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--deselect", "tests/test_scaling.py", *argv])
    finally:
        sys.settrace(None)
    ran: dict[str, set[int]] = {}
    for filename, line in hits:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = ran.get(os.path.realpath(path), set())
        for first, lines in sorted(statements(source, str(path))):
            if not lines & seen:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statements never ran (pytest exit status {int(status)})",
          file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
