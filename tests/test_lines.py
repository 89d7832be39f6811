"""The code-line count of tools/lines.py."""

import runpy
from pathlib import Path

LINES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "lines.py"))

SOURCE = '''"""Module docstring
over two lines."""

# a comment
X = 1  # code with a comment


def f(a,
      b):
    """One-line docstring."""
    s = """a string that is
    not a docstring"""
    return s


class C:
    """Class
    docstring."""

    y = 2
    "a string after the first statement"
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # X, both lines of the def, both of s, return, class, y and the late string
    assert LINES["code_lines"](SOURCE) == 9


def test_total_is_the_sum_of_the_modules(capsys):
    LINES["main"]([])
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert "core.py" in {name for name, _ in modules} and total[0] == "total"
    assert int(total[1].replace(",", "")) == sum(int(n.replace(",", "")) for _, n in modules)
