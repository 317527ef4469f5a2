"""The source line counter in tools/: which lines count as code."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# 20 physical lines.  Code: the import, the class and def lines, the
# three lines of the continued sum, the two lines of the assigned string
# and the return; 9 in all.  The three docstrings (4 lines), the
# comment-only line and the blank lines do not count.
SOURCE = '''"""Module docstring,
over two lines."""

import os


class Box:
    """Class docstring."""

    # a comment on a line of its own

    def size(self):
        """Function docstring."""
        total = (1 +
                 2 +
                 3)
        text = """a string,
not a docstring"""
        return total, text, os.sep

'''


def test_count_on_a_synthetic_module():
    assert len(SOURCE.splitlines()) == 20
    assert src_lines.count(SOURCE) == (20, 9)

