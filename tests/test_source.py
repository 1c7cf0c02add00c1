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


def _modules():
    """(file name, syntax tree) of each package module."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path)))
            for path in sorted(PACKAGE.rglob("*.py"))]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_package_module_reads_an_lhs_field():
    # an Equation is the recipe alone and a WordEquation holds its DAG as
    # `lhs`: no module tells the two apart by a private field
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_lhs"]
    assert found == []


def test_only_words_reads_private_attributes_of_an_equation():
    # the two equation classes answer for their own form (`_node_lines`)
    # in words.py; elsewhere an equation is read by its public fields and
    # methods, never by `eq._...` or one of the classes' private names
    trees = dict(_modules())
    private = set()
    for node in ast.walk(trees["words.py"]):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Equation"):
            private |= {n.name for n in node.body
                        if isinstance(n, ast.FunctionDef) and _private(n.name)}
            private |= {n.attr for n in ast.walk(node)
                        if isinstance(n, ast.Attribute) and _private(n.attr)}
    assert "_node_lines" in private

    def an_equation(value):  # eq, equation or x.equation
        if isinstance(value, ast.Attribute):
            return value.attr == "equation"
        return isinstance(value, ast.Name) and value.id in ("eq", "equation")

    found = [f"{name}:{node.lineno} {node.attr}"
             for name, tree in trees.items() if name != "words.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and _private(node.attr)
             and (node.attr in private or an_equation(node.value))]
    assert found == []
