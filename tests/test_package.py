"""Tooling guards over the package source."""

import ast
import os
import re
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


def _public_names(tree: ast.Module) -> list[str]:
    """The literal ``__all__`` of a module, empty if it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            return ast.literal_eval(node.value)
    return []


def _used_names(node: ast.AST, inside: frozenset = frozenset()) -> set:
    """The names the AST under node uses (loaded names, attributes and
    from-imports), each outside any function or class of its own name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside |= {node.name}
    names = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        names.update(alias.name for alias in node.names)
    names -= inside
    for child in ast.iter_child_nodes(node):
        names |= _used_names(child, inside)
    return names


def test_every_public_name_has_a_caller():
    # a name in a module's __all__ that no module of the package, the
    # README or the benchmark uses is a public wrapper without a caller
    src = Path(clickdyn.__file__).parent
    root = src.parent.parent
    trees = [ast.parse(path.read_text()) for path in src.glob("*.py")]
    used = set().union(*map(_used_names, trees))
    texts = [(root / "README.md").read_text(),
             *(path.read_text() for path in (root / "perfbench").glob("*.py"))]
    orphans = sorted(
        name for tree in trees for name in _public_names(tree)
        if name not in used
        and not any(re.search(rf"\b{name}\b", text) for text in texts))
    assert orphans == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """The module-level private functions and constants of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_helper_has_a_caller():
    # a private function or constant that no module of the package uses
    # (its own body aside) is code that no program path reaches
    src = Path(clickdyn.__file__).parent
    trees = [ast.parse(path.read_text()) for path in src.glob("*.py")]
    used = set().union(*map(_used_names, trees))
    unused = sorted(set().union(*map(_private_definitions, trees)) - used)
    assert unused == []


# Every path that closes an event (the sweeps' turning points, a free
# oscillation's velocity zeros, a continued separatrix's apex), run with
# scipy blocked: any import of it raises ImportError.
_NO_SCIPY_RUN = """\
import sys
sys.modules["scipy"] = None
from clickdyn import cli, integrate, melnikov
from clickdyn.model import Params
out = sys.argv[1]
assert cli.main(["sweep", "--alpha", "1.5", "--xi", "0.1", "--m0", "0.02",
                 "--s-min", "0.9", "--s-max", "1.0", "--n", "3",
                 "--out", out + "/full"]) == 0
assert cli.main(["sweep", "--alpha", "1", "--xi", "0.01", "--drive", "0.05",
                 "--epsilon", "-0.01", "--s-min", "0.96", "--s-max", "0.99",
                 "--n", "3", "--out", out + "/cubic"]) == 0
osc = integrate.measure_free_oscillation(Params(alpha=1.5), (1.0, 0.0))
assert osc.period > 0.0 and not osc.rotating
r = melnikov.reduce_system(Params(alpha=1.5), melnikov.DUFFING)
assert melnikov.separatrix(r, "continued").times.size > 0
print("ok")
"""


def test_importing_the_cli_leaves_scipy_integrate_unloaded(tmp_path):
    # no scipy module at all: no module of the package imports scipy, so
    # importing the CLI loads none, and the runs that close events need
    # none (the import would cost a run about 0.5 s and 40 MB)
    src = str(Path(clickdyn.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, clickdyn.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "ok"


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
