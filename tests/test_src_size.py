"""The size tally of ``src/``: ``tools/src_size.py`` counts code lines as documented."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "src_size.py"
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    text = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line counts


class Box:
    """One line."""

    # a comment alone
    def area(self):
        """Three
        lines
        """
        return math.pi


NOTE = """a string that is no docstring
spans two lines"""
'''
    # import, class, def, return, and the two lines of NOTE
    assert src_size.code_lines(text) == 6


def test_prints_each_module_and_the_total(capsys):
    assert src_size.main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:]]
    assert lines[0].split() == ["module", "lines", "code"]
    assert "platoonshare/stability.py" in [row[0] for row in rows]
    *modules, (name, lines_total, code_total) = rows
    assert name == "total"
    assert int(lines_total) == sum(int(row[1]) for row in modules)
    assert int(code_total) == sum(int(row[2]) for row in modules)
