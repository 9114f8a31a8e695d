"""Every import in a package module is used. A re-export says so by
binding the name to itself: ``from .core import ActionClass as ActionClass``."""
import ast
from pathlib import Path

import pytest

import handover

PACKAGE = Path(handover.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, with their lines."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname != alias.name:  # ``import x as x`` re-exports x
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\nimport json\nimport os.path\nimport numpy as np\n"
        "from .core import A as A, B\nos.path.join(np.pi)\n"
    )
    assert unused_imports(source) == ["B (line 5)", "json (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
