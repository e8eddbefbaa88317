"""The package namespace is lazy: ``import rothe_lab`` loads no submodule,
and each public name, on first use, is the object its submodule defines."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rothe_lab

# the public names by the submodule that defines them
PUBLIC = {
    "bijections": ("BranchA", "BranchB", "Decomposition", "compose", "decompose",
                   "factorize_at_least", "theorem1_forward", "theorem1_inverse"),
    "errors": ("CapExceededError", "InvariantViolationError", "NoMatchError",
               "NotInDomainError", "ParameterError", "RotheLabError",
               "UnsupportedArgumentError"),
    "identities": ("VerificationReport", "check_gould", "check_kmpink", "check_kmx",
                   "check_pqkm", "check_rothe1", "check_rothe2", "gen_binomial", "grid_prove",
                   "rothe_coeff"),
    "qseries": ("LaurentPolynomial", "check_cardinality", "check_invw", "check_qchu",
                "check_qchu_m1", "gaussian_binomial", "inv_generating_function",
                "qweighted_bijection_check"),
    "words": ("MAX_WORD_LENGTH", "Grading", "Word", "b_count", "enumerate_gamma",
              "enumerate_gamma_prefix", "has_prefix_of_weight", "inversions", "prefix_weights",
              "weight"),
}


def test_all_lists_the_public_names():
    assert rothe_lab.__all__ == sorted(n for names in PUBLIC.values() for n in names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_public_name_is_its_submodule_object(module):
    home = importlib.import_module(f"rothe_lab.{module}")
    for name in PUBLIC[module]:
        assert getattr(rothe_lab, name) is getattr(home, name), name


def test_dir_lists_every_public_name():
    assert set(rothe_lab.__all__) <= set(dir(rothe_lab))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rothe_lab import *", namespace)
    for name in rothe_lab.__all__:
        assert namespace[name] is getattr(rothe_lab, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        rothe_lab.nope
    assert not hasattr(rothe_lab, "nope")


def test_submodules_import_from_the_package():
    from rothe_lab import bijections, cli, qseries

    for module in (bijections, cli, qseries):
        assert module is sys.modules[module.__name__]


def loaded_after(statements: str) -> list[str]:
    """The ``rothe_lab`` modules a fresh interpreter holds after ``statements``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\n{statements}\n"
         "print(sorted(m for m in sys.modules if m.startswith('rothe_lab')))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return ast.literal_eval(proc.stdout)


def test_a_name_loads_only_its_submodule_and_what_that_imports():
    assert loaded_after("import rothe_lab") == ["rothe_lab"]
    assert loaded_after("import rothe_lab\nrothe_lab.Grading") == [
        "rothe_lab", "rothe_lab.errors", "rothe_lab.words"]
    # a submodule is an attribute of the package, as when it was imported eagerly
    assert loaded_after("import rothe_lab\nrothe_lab.qseries.gaussian_binomial") == [
        "rothe_lab", "rothe_lab.errors", "rothe_lab.identities", "rothe_lab.qseries",
        "rothe_lab.words"]
