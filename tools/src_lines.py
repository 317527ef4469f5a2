"""Count the physical lines and the code lines of the package sources.

Code lines leave out blank lines, comment-only lines and the lines of
docstrings (the string that opens a module, class or function).  Usage::

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the repository's ``src``.  One line per file is
printed, then the totals.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that never make a line code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in tree."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 \
        else Path(__file__).resolve().parent.parent / "src"
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print("%6d %6d  %s" % (lines, code, path.relative_to(root)))
    print("%6d %6d  total (lines, code lines)" % (total_lines, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
