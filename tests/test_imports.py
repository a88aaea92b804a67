"""Every module of the package uses each name it imports, and
``__init__.py`` imports exactly the names of ``__all__``.

No linter runs on the package, so this ``ast`` walk catches an import
that a change leaves behind. ``__init__.py`` is skipped there: it imports
names to re-export them, which the ``__all__`` test checks instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mscs"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used
    )


def test_checker_finds_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nprint(c)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: e"]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
)
def test_module_imports_are_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def _imported_names(source: str) -> list[str]:
    """Every name a module binds by an import, in order, repeats kept."""
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def test_public_names_listed_once_and_imported_exactly():
    # the contract property reads its table from __all__, and __init__.py
    # lists every public name twice: a name dropped from one list would
    # silently leave that table
    import mscs

    public = mscs.__all__
    assert len(public) == len(set(public))
    assert [name for name in public if not hasattr(mscs, name)] == []
    imported = _imported_names((PACKAGE / "__init__.py").read_text())
    assert sorted(imported) == sorted(public)
