"""tools/code_lines.py counts the lines that hold code: a comment, a docstring
or a blank line is not one, and a statement or a plain string over several
lines counts each of them."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines_tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines_tool)

SOURCE = '''"""A module docstring,
over two lines."""

import math  # a comment


class C:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        # a comment line
        s = """a string that is
        not a docstring"""
        return (x +
                math.pi)
'''


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    # import, class, def, the two lines of s and the two of the return
    assert code_lines_tool.code_lines(SOURCE) == 7


def test_code_lines_count_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines_tool.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["7", "a.py", "1", "b.py", "8", "total"]
