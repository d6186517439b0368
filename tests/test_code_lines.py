"""The code-line counter that the change log quotes (``code_lines.py``)."""

import code_lines

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts

LIMIT = 3
"""A constant's docstring."""


def area(r):
    """Function docstring."""
    # A comment line.

    text = """a string that is
    not a docstring"""
    return math.pi * r * r, text


class Box:
    """Class docstring."""

    size = (1,
            2)
'''


def test_counts_only_lines_that_hold_code():
    # import, LIMIT, def, the two lines of text, return, class and the two
    # lines of size.
    assert code_lines.code_lines(SNIPPET) == 9
    assert code_lines.code_lines("") == 0
