"""No floating point in the library: every value it computes is exact."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "rothe_lab").glob("*.py"))
FLOAT_MATH = {"sqrt", "log", "exp", "pow", "fsum", "isclose"}


def float_uses(source: str) -> list[str]:
    """Each float literal, use of the name ``float`` and floating-point
    ``math`` function in ``source``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: math.{a.name}" for a in node.names if a.name in FLOAT_MATH]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"qseries.py", "identities.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_is_float_free(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "x = float(3)",
    "x = isinstance(y, float)",
    "import math\nx = math.sqrt(2)",
    "import math\nx = math.isclose(a, b)",
    "from math import fsum",
])
def test_scan_catches_each_form(snippet):
    assert float_uses(snippet)


def test_scan_passes_exact_code():
    assert float_uses("import math\nx = math.comb(5, 2) // 3 + math.isqrt(10)") == []
