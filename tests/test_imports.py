"""Every imported name is read in the module that imports it.

Skipped: ``__init__.py`` files (they re-export), names listed in
``__all__`` and ``from __future__`` imports.  Also checked: the package
exports exactly its modules' ``__all__`` lists, holds no ``assert``, and
keeps its layers: ``core`` holds the definitions and imports no sibling.
"""

import ast
import types

import pytest

import tourmod
import tourmod.cli
from conftest import ROOT

MODULES = (tourmod.core, tourmod.modular, tourmod.comodular, tourmod.inversion, tourmod.oracle)

SOURCES = sorted(
    path
    for folder in ("src/tourmod", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                # "import a.b" binds a
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | {"*"}]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\nimport os.path\n"
        "from json import dumps, loads as parse\nfrom m import shown\n"
        "__all__ = ['shown']\nprint(os.path.sep, parse)\n"
    )
    assert unused_imports(source) == ["dumps (line 3)"]


def test_no_asserts_in_package():
    # an assert vanishes under python -O, so contract checks raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src/tourmod").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_exports_each_module_all():
    for module in MODULES:
        assert [n for n in module.__all__ if getattr(module, n).__module__ != module.__name__] == []
    # a later star import would shadow an earlier list's name
    everything = [n for module in MODULES for n in module.__all__]
    assert len(everything) == len(set(everything))
    public = {
        n
        for n in dir(tourmod)
        if not n.startswith("_") and not isinstance(getattr(tourmod, n), types.ModuleType)
    }
    assert public == set(everything)


def imported_names(module) -> dict[str, list[str]]:
    """The names a package module imports from each sibling module."""
    path = ROOT / "src/tourmod" / f"{module.__name__.rpartition('.')[2]}.py"
    found: dict[str, list[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tourmod")):
            source = (node.module or "").removeprefix("tourmod").strip(".")
            found.setdefault(source, []).extend(a.name for a in node.names)
    return found


def test_core_is_the_definitions_layer():
    # the module test, the pair closure and primality by definition live
    # in core, which reads no tree because it imports no sibling module
    assert imported_names(tourmod.core) == {}
    for name in ("_is_module_mask", "_closure_mask", "_is_prime"):
        assert getattr(tourmod.core, name).__module__ == "tourmod.core"
    # the other layers take only the record and its accessor from modular
    for module in (tourmod.inversion, tourmod.comodular, tourmod.oracle, tourmod.cli):
        taken = imported_names(module).get("modular", [])
        assert [n for n in taken if n.startswith("_") and n not in ("_analysis", "_Analysis")] == []
