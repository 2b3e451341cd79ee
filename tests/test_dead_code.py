"""Every module-level function and class in the package has a caller outside the tests.

A name counts as used when the package's code refers to it (a name, an
attribute or an import; a docstring or comment does not count) or when
``bench/`` mentions it, since the benchmark reaches some functions by name.
Code that only tests call is dead to every command, so it fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_definition_has_a_caller_outside_the_tests():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "bottletree").glob("*.py"))}
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "bench").glob("*.py")))
    references = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            references.add(node.id)
        elif isinstance(node, ast.Attribute):
            references.add(node.attr)
        elif isinstance(node, ast.alias):
            references.add(node.name)
    definitions = [(module, node.name) for module, tree in trees.items()
                   if module not in ("__init__.py", "__main__.py")
                   for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(definitions) > 50  # the walk found the package
    unused = [f"{module}:{name}" for module, name in definitions
              if name not in references and not re.search(rf"\b{re.escape(name)}\b", bench)]
    assert unused == [], "called by no package code and named nowhere in bench/"
