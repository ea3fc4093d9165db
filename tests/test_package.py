"""The package's modules import each other only at module level."""

import ast
from pathlib import Path

import ehcopt


def test_every_import_is_at_module_level():
    # an import inside a function hides a dependency between the package's
    # modules until the function runs, and can hide an import cycle
    nested = []
    for path in sorted(Path(ehcopt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        top = set(map(id, tree.body))
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []
