"""No true division in grpd outside the field code.

Over Q an integer is a plain int, and `int / int` is a float, so every
division of field elements goes through `exactlin.Field` (`Field.inv`) or
`exactlin.ModP`.  The only other `/` allowed is a `pathlib` join in the CLI.
"""

import ast
from pathlib import Path

import grpd

SRC = Path(grpd.__file__).parent
FIELD_CLASSES = {("exactlin.py", "ModP"), ("exactlin.py", "Field")}
PATH_JOINS = {("cli.py", "base / gref"), ("cli.py", "base / aref")}


def divisions(path):
    """(top-level class or None, source text) of each `/` or `/=` in a module."""
    text = path.read_text(encoding="utf-8")
    out = []
    for top in ast.parse(text).body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                out.append((owner, ast.get_source_segment(text, node)))
    return out


def test_true_division_only_in_field_code():
    stray = [(path.name, owner, seg)
             for path in sorted(SRC.glob("*.py"))
             for owner, seg in divisions(path)
             if (path.name, owner) not in FIELD_CLASSES and (path.name, seg) not in PATH_JOINS]
    assert not stray

