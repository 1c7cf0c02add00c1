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


def test_no_unused_import_in_a_package_module():
    # a name imported and never read is left over from a removed use;
    # __init__.py imports only to re-export
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in read]
    assert found == []
