"""Exact verification of classical binomial convolution identities
(Chu-Vandermonde, Rothe, Gould) and their q-analogues, built on a model of
graded binary words with constructive bijections."""

__version__ = "0.1.0"

# the public names by the submodule that defines them. A name is imported on
# first use through the module ``__getattr__`` (PEP 562), so ``import
# rothe_lab`` loads no submodule and a run pays only for the modules it uses
_EXPORTS = {
    "bijections": (
        "BranchA", "BranchB", "Decomposition", "compose", "decompose",
        "factorize_at_least", "theorem1_forward", "theorem1_inverse",
    ),
    "errors": (
        "CapExceededError", "InvariantViolationError", "NoMatchError", "NotInDomainError",
        "ParameterError", "RotheLabError", "UnsupportedArgumentError",
    ),
    "identities": (
        "VerificationReport", "check_gould", "check_kmpink", "check_kmx", "check_pqkm",
        "check_rothe1", "check_rothe2", "gen_binomial", "grid_prove", "rothe_coeff",
    ),
    "qseries": (
        "LaurentPolynomial", "check_cardinality", "check_invw", "check_qchu",
        "check_qchu_m1", "gaussian_binomial", "inv_generating_function",
        "qweighted_bijection_check",
    ),
    "words": (
        "MAX_WORD_LENGTH", "Grading", "Word", "b_count", "enumerate_gamma",
        "enumerate_gamma_prefix", "has_prefix_of_weight", "inversions", "prefix_weights", "weight",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name, or a submodule named in ``_EXPORTS``, on first use."""
    if name in _HOME or name in _EXPORTS:
        from importlib import import_module

        module = import_module(f".{_HOME.get(name, name)}", __name__)
        value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
