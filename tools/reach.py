"""List the statements of ``src/phara`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` and prints each unreached
statement as ``file:line: source``, then a count.  Statements run only in
child processes (the command-line tests that spawn ``python``) are not seen.
Extra arguments go to pytest, which runs from the repository root, e.g.
``-k 'not bundled_defaults'`` or ``tests/test_concavify.py``.

    python tools/reach.py [pytest args]

A report, not a gate: the exit code is pytest's.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "phara"


def _executable(path: Path) -> dict[int, str]:
    """First line of each statement that compiles to a line event."""
    source = path.read_text()
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in lines}


def main(args) -> int:
    files = {str(p): p for p in sorted(PKG.glob("*.py"))}
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    missed = total = 0
    for name, path in files.items():
        stmts = _executable(path)
        total += len(stmts)
        for line in sorted(set(stmts) - hits[name]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {stmts[line]}")
    print(f"{missed} of {total} statements in src/phara unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
