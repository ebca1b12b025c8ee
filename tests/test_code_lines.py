"""`tools/code_lines.py` on a small source string: what counts as a code line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Box:
    """Class docstring."""

    size = 3

    def area(self):
        """Function docstring,

        with a blank line inside.
        """
        total = (
            self.size
            * self.size
        )
        text = """a string that is not a docstring
spans two lines"""
        return total
'''


def test_counts_code_lines_only():
    # import, class, size, def, the four lines of `total`, the two of `text`, return
    assert code_lines.code_lines(_SOURCE) == 11


def test_empty_and_comment_only_sources_have_no_code():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"1 {tmp_path / 'a.py'}\n2 {tmp_path / 'sub' / 'b.py'}\n3 total\n"
