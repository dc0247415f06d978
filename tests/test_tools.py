"""tools/: the code-line counter that CHANGES.md and ROADMAP.md quote."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# module, class and function docstrings, comments and blank lines do not
# count; a string that is not a docstring and a bracketed expression count
# every line they span.  The code lines are marked # 1 .. # 9.
_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # 1

# a comment on its own line


class C:  # 2
    """Class docstring."""

    x = 1  # 3


def f(a,  # 4
      b):  # 5
    """Function docstring."""
    s = """a string,  # 6
    not a docstring"""  # 7
    return a + b  # 8
C.__doc__  # 9
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    assert code_lines.code_lines(_FIXTURE) == 9
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0
    # one line per module and the total
    (tmp_path / "a.py").write_text(_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "9", "b.py", "1", "total", "10"]
