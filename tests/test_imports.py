"""Every name a predual module imports is used in that module, and every
private module-level function is read somewhere in the package.

__init__.py is exempt from the first check: it imports names to re-export
them.
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


def unread_private_functions(sources: dict) -> list:
    """The module-level functions named _x that no code in sources reads
    outside their own def, as a name or as an attribute (module._x), as
    (file name, function name) pairs.  sources maps a file name to its text."""
    defined, readers = [], {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined.append((module, node))
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    readers.setdefault(getattr(sub, "id", None) or sub.attr, []).append(node)
    return sorted(
        (module, node.name) for module, node in defined
        if all(reader is node for reader in readers.get(node.name, ()))
    )


def test_the_walk_finds_an_unread_private_function_and_passes_read_ones():
    sources = {
        "a.py": "def _orphan():\n    return _orphan()\n\ndef _used():\n    pass\n\n"
                "def _by_attribute():\n    pass\n\ndef public():\n    return _used()\n",
        "b.py": "from . import a\n\nX = a._by_attribute\n",
    }
    assert unread_private_functions(sources) == [("a.py", "_orphan")]


def test_every_private_function_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_functions(sources) == []
