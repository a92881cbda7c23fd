"""No linter ships with this project, so this test does the checks one
would matter most for after a deletion or a move: a name a module imports
and never uses, a private module-level name that nothing reads any more,
a private name one package module imports from another, a code name or
script the README gives that the code no longer has, and a module of the
package or a script that patches dcee.harness: only the tests and the
benchmark may swap the loop's layers."""
import ast
import importlib
import pathlib
import re

import pytest

from dcee.config import DEFAULTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dcee"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# besides the package itself, the code that may read its private names: its
# tests, the benchmark that drives it and the scripts
READERS = (sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
           + SCRIPTS)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def private_imports(source: str) -> list:
    """(line, name) of each _name a module imports from the package, by a
    relative import or one from dcee; dunders are not private."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "dcee":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, name))
    return found


def _private_definitions(tree) -> dict:
    """{name: line} of the module-level _names a module defines by
    assignment, def or class; dunders are not private."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    return defined


def _references(tree) -> set:
    """Every name a module reads: as a name, an attribute, an imported name,
    or a string (monkeypatch.setattr takes the name as one)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unused_private_names(definers: dict, readers: list) -> list:
    """(module, line, name) of each private module-level name defined in the
    sources that definers maps module names to, and read by none of them or
    of the reader sources."""
    trees = {module: ast.parse(source) for module, source in definers.items()}
    refs = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        refs |= _references(tree)
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in _private_definitions(tree).items() if name not in refs)


def stale_readme_names(text: str) -> list:
    """Each backticked module.name in text that names a package module or a
    config section but resolves to neither an attribute of dcee.<module>
    nor a key of DEFAULTS[module], and each scripts/<name>.py path whose
    file does not exist; other dotted names, such as file names, are not
    code names."""
    modules = {p.stem for p in MODULES}
    stale = []
    for module, name in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", text):
        section = DEFAULTS.get(module)
        is_key = isinstance(section, dict) and name in section
        is_attr = module in modules and hasattr(importlib.import_module(f"dcee.{module}"), name)
        if (module in modules or isinstance(section, dict)) and not (is_key or is_attr):
            stale.append(f"{module}.{name}")
    stale += [f"scripts/{name}" for name in re.findall(r"scripts/(\w+\.py)", text)
              if not (ROOT / "scripts" / name).is_file()]
    return stale


def harness_patches(source: str) -> list:
    """(line, text) of each assignment to or deletion of an attribute of
    dcee.harness, and each setattr or delattr call on it, where the module
    is reached by a name an import binds: dcee, dcee.harness, an alias, or
    harness from `from dcee import` or `from . import`."""
    tree = ast.parse(source)
    packages, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None and alias.name.split(".")[0] == "dcee":
                    packages.add("dcee")
                elif alias.name == "dcee":
                    packages.add(alias.asname)
                elif alias.name == "dcee.harness":
                    modules.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("dcee", 0), (None, 1)):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "harness"}

    def is_harness(expr):
        if isinstance(expr, ast.Name):
            return expr.id in modules
        return (isinstance(expr, ast.Attribute) and expr.attr == "harness"
                and isinstance(expr.value, ast.Name) and expr.value.id in packages)

    found = []
    for node in ast.walk(tree):
        # an attribute stored to or deleted is the target of an assignment,
        # augmented or not, of a for or with target, or of a del
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
                and is_harness(node.value)):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            first = node.args[0]
            named = (isinstance(first, ast.Constant) and isinstance(first.value, str)
                     and first.value.startswith("dcee.harness."))
            if name in ("setattr", "delattr") and (is_harness(first) or named):
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        (1, "math"), (2, "path")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_detects_an_unused_private_name():
    source = ("_A = 1\n_B: int = 2\n_C = 3\ndef _f(): return _B\nclass _G: pass\n"
              "__all__ = []\nPUBLIC = 4\ndef _h(): pass\n")
    readers = ["import m\nm._G\nfrom m import _C\n", "setattr(m, '_h', None)\n"]
    assert unused_private_names({"m.py": source}, readers) == [
        ("m.py", 1, "_A"), ("m.py", 4, "_f")]
    assert unused_private_names({"m.py": source}, ["m._A, m._f"]) == [
        ("m.py", 3, "_C"), ("m.py", 5, "_G"), ("m.py", 8, "_h")]


def test_detects_a_private_import_from_the_package():
    source = ("from __future__ import annotations\nfrom .core import _objective_terms, evaluate\n"
              "from os import _exit\nfrom dcee.core import _MIN_CURVATURE\n"
              "from . import __version__\nfrom .solver import (gn_terms,\n    _feasible_start)\n")
    assert private_imports(source) == [(2, "_objective_terms"), (4, "_MIN_CURVATURE"),
                                       (6, "_feasible_start")]


def test_detects_a_stale_name_in_the_readme():
    text = ("`core._objective_terms`, `ensemble.N`, `ensemble.Ensemble`, `vehicle.mass`, "
            "`pyproject.toml`, `core.gone`, `solver.gone`, `noise.sigma`, "
            "`scripts/seed_table.py`, `python scripts/gone.py`, scripts/ alone")
    assert stale_readme_names(text) == ["core.gone", "solver.gone", "noise.sigma", "scripts/gone.py"]


def test_detects_a_patch_of_the_harness():
    source = ("import dcee\nimport dcee.harness as h\nfrom dcee import harness as loop\n"
              "from . import harness\nimport dcee.core as core\n"
              "h.solve = None\nloop.measure, x = 1, 2\ndcee.harness.drive += 1\n"
              "setattr(harness, 'solve', None)\nmonkeypatch.setattr('dcee.harness.solve', None)\n"
              "del harness.drive\ncore.solve = None\nsetattr(core, 'x', 1)\nloop.run(h.x)\n"
              "d[h.solve] = loop.measure\n")
    assert [line for line, _ in harness_patches(source)] == [6, 7, 8, 9, 10, 11]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + SCRIPTS, ids=lambda p: p.name)
def test_module_patches_no_layer_of_the_harness(path):
    assert harness_patches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + SCRIPTS, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_package_reads_every_private_name_it_defines():
    definers = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unused_private_names(definers, readers) == []


def test_readme_code_names_resolve():
    assert stale_readme_names((ROOT / "README.md").read_text(encoding="utf-8")) == []
