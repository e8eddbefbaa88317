"""Exception types shared across the library."""


class RotheLabError(Exception):
    """Base class for all library-specific errors."""


class CapExceededError(RotheLabError):
    """An enumeration exceeds the word-length cap, or a sweep its work cap."""


class NoMatchError(RotheLabError):
    """A bijection found no split where its domain checks guarantee one: no
    prefix ``y`` balancing a suffix ``x`` in the prefix shift, or an overshoot
    on an ``a`` in ``decompose``. Reachable only if those checks are wrong, so
    it signals a library bug."""


class ParameterError(RotheLabError, ValueError):
    """An argument refused by a checker, a bijection, a grading or the command line,
    such as a negative degree, a non-number, a bad flag or a tuple outside a precondition."""


class NotInDomainError(ParameterError):
    """A tuple outside a checker's domain, such as the shift domain
    ``p >= m*n``, ``q >= 1`` of ``kmx``, q-Chu and both bijections, ``p >= k*m``
    of ``invw`` or ``1 <= j <= m`` of ``kmpink``, or a word outside the class
    a bijection acts on."""


class InvariantViolationError(RotheLabError, ValueError):
    """A decomposition's membership invariants do not hold."""


class UnsupportedArgumentError(RotheLabError, ValueError):
    """An argument outside the supported domain (e.g. a negative upper index
    for a Gaussian binomial)."""
