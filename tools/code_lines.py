"""Count each module's code lines: the lines that are not blank, not
comment-only and not part of a module, class or function docstring.

Usage: python tools/code_lines.py [DIR ...]   (default: src/satmimo)

Prints one "<module> <count>" line per .py file, sorted by name, then
"total <count>".
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of the tree's scopes."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in skip and line.strip()
               and not line.strip().startswith("#"))


def main(argv=None) -> int:
    dirs = [Path(d) for d in (argv or ["src/satmimo"])]
    total = 0
    for path in sorted(p for d in dirs for p in d.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
