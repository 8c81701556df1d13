"""Import hygiene, checked with the standard library's ast module.

Every module of the package (its __init__ aside) and every test module uses
each name it imports, the package's __init__ reads exactly the names it
exports in __all__ from their submodules, each of which resolves, is listed
by dir() before it is first read and is named in README.md,
every private top-level name of the package is used somewhere in it besides
its definition, every raise in the package raises an ellint.errors class,
and no module of the package reads the environment.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ellint
from ellint import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellint"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module) -> set:
    """Names bound by the import statements anywhere in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names if a.name != "*")
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert _imported_names(tree) - used == set()


def test_init_imports_exactly_all():
    # the package reads each public name from its submodule on first use,
    # through one name -> submodule table that covers exactly __all__
    home = ellint._HOME
    assert set(home) == set(ellint.__all__)
    assert len(ellint.__all__) == len(set(ellint.__all__))
    for name, module in home.items():
        assert getattr(ellint, name) is getattr(getattr(ellint, module), name), name


def test_all_names_resolve():
    for name in ellint.__all__:
        assert hasattr(ellint, name), name


def test_dir_lists_every_public_name_before_any_is_read():
    # in a fresh interpreter no public name is bound yet, and dir() lists each
    code = ("import ellint\n"
            "names = set(ellint.__all__)\n"
            "print(len(names & set(vars(ellint))), sorted(names - set(dir(ellint))))")
    env = dict(os.environ, PYTHONPATH=str(Path(ellint.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_readme_names_every_public_name():
    # named as inline code, `name` or `name(...)`
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"`([A-Za-z_]\w*)[`(]", readme))
    assert set(ellint.__all__) - {"__version__"} - named == set()
    # folded into triaxial_area and complementary_amplitude; Singularity,
    # whose choice of substitution each registry row's oracle now makes;
    # KernelSingularityError, whose one raiser re-tested NuK's class condition;
    # and ELLINT_MAX_EVALS, the environment's budget, now quadrature.MAX_EVALS
    for gone in ("surface_area_legendre", "surface_area_ascending", "conjugate_delta",
                 "Singularity", "KernelSingularityError", "ELLINT_MAX_EVALS"):
        assert not re.search(rf"\b{gone}\b", readme), gone
        assert not hasattr(ellint, gone), gone


def test_no_module_reads_the_environment():
    # a result depends on the arguments alone, never on the process environment
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _imported_names(tree)
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        readers += [(path.name, n) for n in sorted(names & {"environ", "getenv"})]
    assert readers == []


def _private_top_level(tree: ast.Module) -> set:
    """Top-level names of tree with a single leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_dead_private_helpers():
    # a private name counts as used when some module of the package loads it
    # or imports it by name; a definition alone does not count
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        defined |= _private_top_level(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    assert defined
    assert defined - used == set()


def test_every_raise_is_typed():
    # a raise names an EllintError class or re-raises; argparse's own error type
    # is how cli._axes reports a malformed --axes value to the parser, and
    # AttributeError is what the package's module __getattr__ must raise
    typed = {name for name, v in vars(errors).items()
             if isinstance(v, type) and issubclass(v, errors.EllintError)}
    raised = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((path.name, ast.unparse(exc)))
    assert len(raised) > 40
    untyped = [r for r in raised if r[1] not in typed]
    assert sorted(untyped) == [("__init__.py", "AttributeError")] + [
        ("cli.py", "argparse.ArgumentTypeError")] * 2
