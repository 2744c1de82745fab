"""`tools/code_lines.py`, the line count of the package's code, on a
synthetic module whose code rows are known."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"

# 13 code rows: the import, the three rows of the decorator, the def, the
# three rows of the assigned string, the return, the class, its field, the
# async def (whose body is its docstring) and the call on the last row
SOURCE = '''"""Module docstring,
on two rows."""

# a comment

import functools


@functools.lru_cache(
    maxsize=2,
)
def f(x):
    """Function docstring."""
    # a comment in the body

    text = """not a docstring,
on three
rows"""
    return x, text


class C:
    """Class docstring
    on two rows."""

    y = 1  # a trailing comment


    async def g(self):
        """Docstring of a coroutine."""

print(f(C.y))
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_rows_only(tmp_path):
    """Docstrings of modules, classes and functions, comments and blank rows
    do not count; a multi-row string that is not a docstring and a decorator
    count one line per row."""
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert _tool().code_lines(path) == 13


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n', encoding="utf-8")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "    13  a.py\n     1  b.py\n    14  total\n"
