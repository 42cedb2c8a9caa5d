"""Tooling guards over the package source."""

import ast
from pathlib import Path

import clickdyn


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules that a module imports (relative imports: the
    package imports its own modules no other way)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
    return names


def test_every_module_has_a_caller_in_the_package():
    # a module that nothing imports is code that no program path reaches
    src = Path(clickdyn.__file__).parent
    imports = {path.stem: _imported_modules(ast.parse(path.read_text()))
               for path in src.glob("*.py")}
    unused = sorted(name for name in imports
                    if name not in ("cli", "__init__")
                    and not any(name in imported
                                for other, imported in imports.items()
                                if other != name))
    assert unused == []
