"""Every name a predual module imports is used in that module.

__init__.py is exempt: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "predual"


def unused_imports(source: str) -> list:
    """The names that source binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_walk_finds_an_unused_name_and_passes_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\n"
        "from .algebra import (closure, explore as walk)\n"
        "def f(x: closure):\n    from .langlib import parse_regex\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "walk"), (6, "parse_regex")]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((SRC / module).read_text()) == []
