"""Exception types shared across the library, one meaning each: a bad
argument (:class:`ParameterError`), a tuple or word outside a domain
(:class:`NotInDomainError`), work over a cap (:class:`CapExceededError`) and a
library bug (:class:`NoMatchError`), under the base :class:`RotheLabError`."""


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
    """An argument refused by a checker, a bijection, a grading, a word helper or
    the command line, such as a negative degree, a non-number, a bad flag, a
    tuple outside a precondition, a word with a letter other than ``a``/``b``,
    a decomposition that breaks its branch's invariants or a negative top of a
    Gaussian binomial."""


class NotInDomainError(ParameterError):
    """A tuple outside a checker's domain, such as the shift domain
    ``p >= m*n``, ``q >= 1`` of ``kmx``, q-Chu and both bijections, ``p >= k*m``
    of ``invw`` or ``1 <= j <= m`` of ``kmpink``, or a word outside the class
    a bijection acts on."""
