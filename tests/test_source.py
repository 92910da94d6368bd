"""Checks on the package source itself."""

import ast
import re
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


def test_readme_quick_start_runs():
    # the quick start is the one fenced python block; it must run as written
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
