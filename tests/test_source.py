"""Checks on the package's source text."""

import ast
from pathlib import Path

import verbalclosure

PACKAGE = Path(verbalclosure.__file__).resolve().parent


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check the decision relies on
    # is an explicit raise
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.rglob("*.py"))) > 1
    assert found == []
