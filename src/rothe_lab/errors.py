"""Exception types shared across the library."""


class RotheLabError(Exception):
    """Base class for all library-specific errors."""


class CapExceededError(RotheLabError):
    """An enumeration request exceeds the configured size cap."""


class NoMatchError(RotheLabError):
    """A bijection found no split where its domain checks guarantee one: no
    prefix ``y`` balancing a suffix ``x`` in the prefix shift, or an overshoot
    on an ``a`` in ``decompose``. Reachable only if those checks are wrong, so
    it signals a library bug."""


class NotInDomainError(RotheLabError, ValueError):
    """A word or parameter tuple lies outside a bijection's domain."""


class InvariantViolationError(RotheLabError, ValueError):
    """A decomposition's membership invariants do not hold."""


class ParameterError(RotheLabError, ValueError):
    """An identity checker was called with parameters outside its preconditions."""


class UnsupportedArgumentError(RotheLabError, ValueError):
    """An argument outside the supported domain (e.g. a negative upper index
    for a Gaussian binomial)."""
