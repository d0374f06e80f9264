import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    total = (x +
             1)
    text = """a string that is
not a docstring"""
    return total, text


class C:
    """Class docstring
    spanning lines.
    """

    def g(self):
        return [
            1,

            2,
        ]
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    # import, def f, two lines each for the bracketed sum and the string,
    # return, class C, def g, and four of the five lines of the list
    assert code_lines.code_lines(SOURCE) == 13
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 10, 19, 20, 21}
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["0", "empty.py", "13", "mod.py", "13", "total"]
