"""Every imported name is read in the module that imports it.

Skipped: ``__init__.py`` files (they re-export), names listed in
``__all__`` and ``from __future__`` imports.
"""

import ast

import pytest

from conftest import ROOT

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
