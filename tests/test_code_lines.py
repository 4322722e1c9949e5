"""tools/code_lines.py counts the lines that are not blank, comment-only or
part of a module, class or function docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class A:
    """Class docstring."""

    x = """a string that is not a docstring
    counts on every line"""

    def f(self):
        \'\'\'Function docstring
        over three
        lines.\'\'\'
        return os.sep


async def g():
    """One line."""
    "a second string statement is code"
'''


def test_rule_on_a_snippet():
    # import, class, x (2 lines), def f, return, async def, second string
    assert code_lines.code_lines(SNIPPET) == 8


def test_counts_every_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 2\ntotal 3\n"
