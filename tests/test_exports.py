"""Every name a module lists in ``__all__`` exists on it, so a stale entry
fails here and not only under ``from biphoton.<module> import *``; every
module-level import is read, so an unused one fails here; every name a
demo imports from biphoton exists, though tier-1 runs only one demo; units
stay at the boundary; species are looked up one way; and every shipped data
file is opened by name somewhere in the package."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import biphoton

MODULES = sorted(f"biphoton.{m.name}" for m in pkgutil.iter_modules(biphoton.__path__))


def test_modules_found():
    assert {"biphoton.schemes", "biphoton.spectrum", "biphoton.units"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(Path(biphoton.__file__).parent.glob("*.py"))
DEMOS = sorted(REPO_ROOT.glob("demos/*.py"))
SOURCES = ([p for p in PACKAGE if p.name != "__init__.py"]
           + sorted(REPO_ROOT.glob("tests/*.py")) + DEMOS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_read(path):
    """Every module-level import of a package module or a test file is read
    in its file or named in ``__all__``.

    The one exemption is a binding a perfbench test traces calls through: its
    line carries ``# noqa: F401`` under a comment naming that test file, and
    that file names the binding.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in read or name in exported:
                continue
            above = lines[node.lineno - 2].strip() if node.lineno > 1 else ""
            cited = re.search(r"perfbench/\w+\.py", above)
            if (lines[node.end_lineno - 1].endswith("# noqa: F401")
                    and above.startswith("#") and cited
                    and name in (REPO_ROOT / cited.group()).read_text()):
                continue
            unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = [node for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module.startswith("biphoton")]
    assert [f"{n.module}.{a.name}" for n in imports for a in n.names
            if not hasattr(importlib.import_module(n.module), a.name)] == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_units_stay_at_the_boundary(path):
    """Only the modules that hand back labelled values, and the package
    export, name ``Quantity``; no module converts with ``.to(...)``."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    named = {getattr(n, "id", None) for n in nodes} | {
        a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    if path.name not in {"units.py", "registry.py", "spectrum.py", "__init__.py"}:
        assert "Quantity" not in named
    assert not any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "to"
                   for n in nodes)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "registry.py"],
                         ids=lambda p: p.name)
def test_one_species_lookup(path):
    """Outside ``registry.py`` the package looks species up through
    ``species(name)`` only; the package export may re-export
    ``default_registry`` but nothing calls it."""
    calls = [n.lineno for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Call) and "default_registry" in (
                 getattr(n.func, "id", None), getattr(n.func, "attr", None))]
    assert calls == []


def test_every_data_file_is_named_in_the_package():
    """A file under ``data/`` that no package module names is package data
    that nothing opens."""
    data = Path(biphoton.__file__).parent / "data"
    sources = "".join(path.read_text() for path in PACKAGE)
    files = sorted(p.name for p in data.rglob("*") if p.is_file())
    assert files
    assert [name for name in files if name not in sources] == []
