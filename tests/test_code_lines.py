"""The code-line counter in ``tools/code_lines.py``: comments, blank lines
and docstrings do not count; every physical line of any other token does."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""
import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring,
        two lines."""
        text = """a string that is
        not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_only_code_lines():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["2", "a.py", "1", "b.py", "3", "total"]
