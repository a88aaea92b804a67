"""Every module of the package uses each name it imports, and each public
name is listed once.

No linter runs on the package, so this ``ast`` walk catches an import
that a change leaves behind. ``__init__.py`` is skipped there: it imports
its modules to republish their ``__all__``, which the ``__all__`` test
checks instead.
"""

import ast
from pathlib import Path
from types import ModuleType

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


def test_public_names_listed_once():
    # the contract property reads its table from mscs.__all__, which joins
    # the __all__ of the modules that define the names
    import mscs

    public = mscs.__all__
    assert len(public) == len(set(public))
    assert [name for name in public if not hasattr(mscs, name)] == []
    listed = [
        name
        for module in vars(mscs).values()
        if isinstance(module, ModuleType)
        for name in getattr(module, "__all__", ())
    ]
    assert sorted(listed) == sorted(public)
