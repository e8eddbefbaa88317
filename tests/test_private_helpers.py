"""No dead private helpers: every private module-level function or class of
the library is used somewhere in the library besides its own definition."""

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
