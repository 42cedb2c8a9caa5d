"""Tooling guards over the package source."""

import ast
import os
import subprocess
import sys
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


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    # nothing in the package uses it, and its import costs 30-100 ms of
    # every run's set-up
    src = str(Path(clickdyn.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, clickdyn.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_importing_the_cli_builds_no_csv_tables():
    # the array pass of clickdyn.dataset builds its lookup tables on first
    # use, so importing the CLI (every run's set-up) pays nothing for them
    src = str(Path(clickdyn.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import clickdyn.cli, clickdyn.dataset as d; "
         "print(d._tables.cache_info().currsize)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "0"
