"""Checks on the package source itself."""

import ast
from pathlib import Path

import badtri

PACKAGE = Path(badtri.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so runtime checks must raise
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in badtri: {found}"
