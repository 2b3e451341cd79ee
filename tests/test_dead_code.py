"""Every definition in the package has a caller outside the tests.

A module-level function or class counts as used when the package's code
refers to it (a name, an attribute or an import; a docstring or comment does
not count) or when ``bench/`` mentions it, since the benchmark reaches some
functions by name.  A method or property of a class counts as used when the
package's code reads it as an attribute or ``bench/`` mentions it.  Code that
only tests call is dead to every command, so it fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted((ROOT / "src" / "bottletree").glob("*.py"))}
BENCH = "\n".join(path.read_text(encoding="utf-8")
                  for path in sorted((ROOT / "bench").glob("*.py")))


def references() -> tuple[set[str], set[str]]:
    """The names (with imports) and the attribute names the package's code reads."""
    names, attributes = set(), set()
    for node in (node for tree in TREES.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names, attributes


def unused(definitions: list[tuple[str, str]], used: set[str]) -> list[str]:
    return [f"{where}:{name}" for where, name in definitions
            if name not in used and not re.search(rf"\b{re.escape(name)}\b", BENCH)]


def test_every_definition_has_a_caller_outside_the_tests():
    names, attributes = references()
    definitions = [(module, node.name) for module, tree in TREES.items()
                   if module not in ("__init__.py", "__main__.py")
                   for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(definitions) > 50  # the walk found the package
    assert unused(definitions, names | attributes) == [], \
        "called by no package code and named nowhere in bench/"


def test_every_method_and_property_is_read_outside_the_tests():
    _, attributes = references()
    methods = [(f"{module}:{cls.name}", node.name) for module, tree in TREES.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(methods) > 15  # the walk found the classes' bodies
    assert unused(methods, attributes) == [], \
        "read as an attribute by no package code and named nowhere in bench/"
