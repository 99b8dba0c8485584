"""No true division anywhere in grpd.

Over Q an integer is a plain int, and `int / int` is a float, so every
division of field elements goes through `exactlin.Field.inv`, which needs
no `/` either: it builds `Fraction(1, a)` over Q and takes `pow(x, -1, p)`
over F_p.  The only `/` allowed is a `pathlib` join in the CLI.
"""

import ast
from pathlib import Path

import grpd

SRC = Path(grpd.__file__).parent
PATH_JOINS = {("cli.py", "base / gref"), ("cli.py", "base / aref")}


def divisions(path):
    """The source text of each `/` or `/=` in a module."""
    text = path.read_text(encoding="utf-8")
    return [ast.get_source_segment(text, node) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]


def test_true_division_only_in_field_code():
    stray = [(path.name, seg)
             for path in sorted(SRC.glob("*.py"))
             for seg in divisions(path)
             if (path.name, seg) not in PATH_JOINS]
    assert not stray
