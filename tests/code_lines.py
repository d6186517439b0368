"""Count the code lines of Python source: physical lines that hold a
token of code, so no blank line, no comment and no docstring.

A docstring here is any statement that is a bare string (``ast``): the
one that opens a module, class or function body, and the one that
documents a module constant below its assignment.  Every line it spans is
dropped, and so is a line that holds only comments or whitespace
(``tokenize``).  Run it on files or directories, the package's
``src/bnrefit`` by default:

    python tests/code_lines.py [PATH ...]

It prints each file's count and the total.  Its name does not match
pytest's ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every bare-string statement in ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = ([Path(p) for p in argv]
             or [Path(__file__).resolve().parents[1] / "src" / "bnrefit"])
    files = sorted(f for p in paths
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = code_lines(f.read_text())
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
