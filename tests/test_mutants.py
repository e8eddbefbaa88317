"""The standing mutation list, ``tests/mutants.py``, stays applicable: every
mutant still edits code that exists, into code that parses, and names tests
that exist; and the runner kills a mutant."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

MUTANTS = {m.name: m for m in mutants.MUTANTS}


def test_mutant_names_are_unique_and_enough():
    assert len(MUTANTS) == len(mutants.MUTANTS) >= 5


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_applies_once_and_parses(name):
    mutant = MUTANTS[name]
    text = (ROOT / mutant.path).read_text()
    assert mutant.new != mutant.old and text.count(mutant.old) == 1
    ast.parse(mutants.mutated(mutant, text), filename=mutant.path)
    assert mutant.kills and mutant.guards


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_names_tests_that_exist(name):
    for test_id in MUTANTS[name].kills:
        path, function = re.fullmatch(r"(tests/test_\w+\.py)::(test_\w+)(?:\[.+\])?", test_id).groups()
        tree = ast.parse((ROOT / path).read_text())
        assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test_id


def test_the_runner_kills_a_cheap_mutant():
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "mutants.py"),
                           "--only", "packed-equals-without-bound"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"^killed +packed-equals-without-bound ", done.stdout, re.MULTILINE)
    assert done.stdout.endswith("1 of 1 mutants killed\n")


def test_the_runner_reports_a_survivor(monkeypatch, capsys):
    # a mutant that changes nothing a test can see survives, and fails the run
    inert = mutants.Mutant(
        "inert", "src/rothe_lab/qseries.py", "from __future__ import annotations\n",
        "from __future__ import annotations  # inert\n",
        ("tests/test_qseries.py::test_lp_op_examples",), "nothing",
    )
    monkeypatch.setattr(mutants, "MUTANTS", (inert,))
    assert mutants.main(["--only", "inert"]) == 1
    out = capsys.readouterr().out
    assert "SURVIVED inert" in out and out.endswith("0 of 1 mutants killed\n")
