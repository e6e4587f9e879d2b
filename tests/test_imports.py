"""The package's modules import no private name from one another: a
module's underscore names are its own, and shared work such as evaluating
a series goes through the public routine."""

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
