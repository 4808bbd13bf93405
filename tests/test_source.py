"""Checks on the library source itself."""

import ast
from pathlib import Path

import artinmark

# modules whose invariants are still assert statements; python -O strips
# those, so every other module raises domain errors instead
ASSERTS_ALLOWED = {"garside.py", "rings.py"}


def test_no_assert_statements_outside_allowed_modules():
    root = Path(artinmark.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        if path.name not in ASSERTS_ALLOWED
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
