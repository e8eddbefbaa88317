"""No dead code at module level: every private module-level function or class
of the library is used somewhere in the library besides its own definition,
and every module-level import is used in its own module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "rothe_lab").glob("*.py"))


def private_definitions(tree: ast.Module) -> list[ast.stmt]:
    """The module-level functions and classes of ``tree`` whose names start
    with one underscore."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def referenced_names(node: ast.AST) -> set[str]:
    """Every name that ``node`` loads, reads as an attribute or imports."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name)
    return found


def unused_private_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level definition in
    ``sources`` (module name to source text) whose name no other statement
    of any module refers to; a use inside its own body does not count."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for definition in private_definitions(tree):
            users = (
                statement
                for other in trees.values()
                for statement in other.body
                if statement is not definition
            )
            if not any(definition.name in referenced_names(s) for s in users):
                unused.append(f"{module}.{definition.name}")
    return unused


def unused_imports(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each name that a module-level import of ``sources``
    (module name to source text) binds and that its module never reads;
    ``from __future__`` imports are directives, not names."""
    unused = []
    for module, text in sources.items():
        tree = ast.parse(text)
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for statement in tree.body:
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                for alias in statement.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{module}.{name}")
    return unused


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"words.py", "bijections.py", "cli.py"}


def test_every_private_helper_has_a_user():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unused_private_helpers(sources) == []


@pytest.mark.parametrize("sources", [
    {"a": "def _dead():\n    return 1\n"},
    {"a": "class _Dead:\n    pass\n"},
    {"a": "def _loop(n):\n    return _loop(n - 1) if n else 0\n"},
])
def test_scan_catches_each_form(sources):
    assert unused_private_helpers(sources)


@pytest.mark.parametrize("sources", [
    {"a": "def _used():\n    return 1\n\nx = _used()\n"},
    {"a": "def _used():\n    return 1\n", "b": "from .a import _used\n"},
    {"a": "def _used():\n    return 1\n", "b": "from . import a\nx = a._used\n"},
    {"a": "def public():\n    return 1\n\ndef __dunder__():\n    pass\n"},
])
def test_scan_passes_used_helpers(sources):
    assert unused_private_helpers(sources) == []


def test_every_module_level_import_has_a_user():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unused_imports(sources) == []


@pytest.mark.parametrize("sources", [
    {"a": "import os\n"},
    {"a": "import os.path\n"},
    {"a": "import numpy as np\n\nnumpy = 1\nx = numpy\n"},
    {"a": "from collections.abc import Mapping, Sequence\n\nx: Sequence\n"},
    {"a": "from . import words\n\nx = 'words'\n"},
    {"a": "import os\n", "b": "from a import os\n\nx = os\n"},
])
def test_import_scan_catches_each_form(sources):
    assert unused_imports(sources)


@pytest.mark.parametrize("sources", [
    {"a": "import os\n\nx = os.sep\n"},
    {"a": "import os.path\n\nx = os.path\n"},
    {"a": "from collections.abc import Mapping\n\ndef f(m: Mapping) -> None:\n    pass\n"},
    {"a": "from __future__ import annotations\n"},
])
def test_import_scan_passes_used_imports(sources):
    assert unused_imports(sources) == []
