"""No module of the package imports a name it never uses.

No linter ships with the test dependencies, so this is the one guard
against imports a deletion leaves behind.  ``__init__.py`` only re-exports
and is skipped; an import line marked ``# noqa: F401`` is exempt.
"""

import ast
from pathlib import Path

import pytest

import rmcdp

MODULES = sorted(
    path for path in Path(rmcdp.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((name for name in imported if name not in used), key=imported.get)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    source = (
        "import math\n"
        "from typing import Mapping, Sequence\n"
        "from .model import default_horizon  # noqa: F401 (re-exported)\n"
        "def f(x: Sequence) -> Mapping: return x\n"
    )
    assert unused_imports(source) == ["math"]
