"""The package's modules import no private name from one another: a
module's underscore names are its own, and shared work such as evaluating
a series goes through the public routine.  Nor does the package keep a
definition that only the tests reach."""

import ast
from pathlib import Path

import freehardy


def test_no_module_imports_a_private_name():
    found = []
    for path in sorted(Path(freehardy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("freehardy")):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_every_definition_is_used_or_exported():
    # a top-level function or class that no module of the package names
    # and __init__ does not export is reached by tests alone
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in
             sorted(Path(freehardy.__file__).parent.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [f"{name}:{node.name}" for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in named | exported]
    assert not unused, unused
