"""Exact checkers for the classical binomial convolution identities.

All arithmetic is exact: parameters are ints or :class:`fractions.Fraction`,
never floats. The convolution coefficient ``rothe_coeff`` replaces the
quotient form ``x / (x - k*z) * C(x - k*z, k)``, which is undefined on the
lines ``x = k*z``, by the polynomial form ``(x / k!) * prod_{i=1}^{k-1}
(x - k*z - i)``; the two agree everywhere else, so every rational point is a
legal evaluation point and grid certification is sound.

Every convolution side is computed in integers as a dot product
``sum_k row[k] * tail[k]``: ``row`` depends on the first argument and ``z``
alone, ``tail`` on the second argument and ``z`` alone. Four row builders
make the rows, each behind one ``functools.lru_cache`` of ``ROW_CACHE_SIZE``
rows; the checkers, sweeps and :func:`grid_prove` share them.

The sides of ``rothe1``, ``rothe2`` and ``gould`` are evaluated on a whole
tensor grid at once, one axis per grid variable: each row and tail is fetched
once per ``(axis value, z)`` pair, a right side that depends on ``x + y``
alone once per sum, and ``gould``'s left side, which does not depend on
``eps``, once per ``(x, y, z)``. A point check is the one-point grid.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from fractions import Fraction
from itertools import chain, islice, product, repeat

from .errors import NotInDomainError, ParameterError
from .words import Grading, _class_cost

RationalLike = int | Fraction


def _json_value(value):
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return str(value)


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "identity params lhs rhs status counterexample",
        defaults=(None,),
    )
):
    """Outcome of one identity check: parameters, both sides, verdict.

    ``identity`` names the identity and ``params`` is the dict of its
    parameters. ``lhs`` and ``rhs`` are exact values (Fraction for the
    rational checks, Laurent polynomials for the q checks); ``status`` is
    ``"pass"`` exactly when they are equal. ``counterexample``, a dict or
    ``None``, names the failing parameter point when present.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @classmethod
    def from_sides(cls, identity, params, lhs, rhs):
        # a passing q-check hands in its closed form as both sides
        if lhs is rhs or lhs == rhs:
            return cls(identity, dict(params), lhs, rhs, "pass")
        return cls(identity, dict(params), lhs, rhs, "fail", dict(params))

    def to_json_dict(self) -> dict:
        # equal sides have one canonical text; the right side is the closed
        # form, which a q-check takes from a cache and so formats once
        rhs = str(self.rhs)
        out = {
            "identity": self.identity,
            "params": {k: _json_value(v) for k, v in self.params.items()},
            "lhs": rhs if self.passed else str(self.lhs),
            "rhs": rhs,
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = {
                k: _json_value(v) for k, v in self.counterexample.items()
            }
        return out


class Identity(namedtuple("Identity", "check order price sides default", defaults=(None, None))):
    """Everything stated about one identity, in one place.

    ``check`` takes every variable by keyword and returns a report. ``order``
    is the sweep order, the last variable varying fastest. ``sides`` is set
    for a polynomial identity in every variable but the degree ``n``. It
    evaluates a tensor grid: it takes one axis per such variable, each a
    step-1 ``range`` of values written over a common denominator ``d`` (the
    variable is ``v / d`` at each ``v`` of its axis), then ``n``, then ``d``,
    and returns two lazy iterators, of ``n! d**n`` times the left and the
    right side as integers, at the points of ``itertools.product`` of the
    axes in that order. A single point is the one-point grid. The other two
    callables take the variables positionally in sweep order. ``price``
    returns the work units, at least one, of one check; ``None`` outside the
    check's precondition, where ``check`` raises :class:`NotInDomainError`
    and a sweep skips the tuple; and it raises every other refusal of
    ``check``, with the same type and message. A sweep prices every tuple
    before any check, then once more to skip or check it. ``default``,
    computed from the variables before it, is the range of the last variable
    when that is left unset.
    """

    __slots__ = ()

    @property
    def grid_variables(self) -> tuple[str, ...] | None:
        """Every variable but the degree ``n`` when ``sides`` is set: they may
        be rational, and a grid in them certifies the polynomial identity."""
        if self.sides is None:
            return None
        return tuple(name for name in self.order if name != "n")


def _require_int(value, name: str) -> None:
    if not isinstance(value, int):
        raise ParameterError(f"{name} must be an int, got {type(value).__name__}")


def _require_natural(value: int, name: str) -> None:
    _require_int(value, name)
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")


# The integer kernel. Rational arguments are written over their least common
# denominator d (d = 1 at integer points): t = T / d, so t - i = (T - i*d) / d,
# and a degree-k product of such factors is one integer over d**k. The checkers
# build a Fraction only for each finished side.


def _scaled(**values: RationalLike) -> tuple[int, list[int]]:
    """The least common denominator ``d`` of ``values`` and each value times ``d``."""
    for name, value in values.items():
        if not isinstance(value, (int, Fraction)):
            raise ParameterError(
                f"{name} must be an int or Fraction, got {type(value).__name__}"
            )
    d = math.lcm(*(v.denominator for v in values.values()))
    return d, [v.numerator * (d // v.denominator) for v in values.values()]


def _falling(top: int, k: int, d: int) -> int:
    """``top * (top - d) * ... * (top - (k-1)*d)``: ``k! d**k C(top / d, k)``
    for ``k >= 0`` and ``d >= 1``."""
    return math.prod(range(top, top - k * d, -d))


def _side(numerator: int, degree: int, d: int) -> Fraction:
    """The value ``numerator / (degree! * d**degree)`` of a degree-``degree``
    product or convolution over the common denominator ``d``; 0 at a negative degree."""
    if degree < 0:
        return Fraction(0)
    return Fraction(numerator, math.factorial(degree) * d**degree)


def _rothe_numerator(x: int, z: int, k: int, d: int) -> int:
    """``k! d**k B_k(x / d, z / d)`` for ``k >= 0``."""
    if k == 0:
        return 1
    return x * _falling(x - k * z - d, k - 1, d)


# The coefficient rows of the convolution sides below. A row depends on one
# argument and ``z`` alone, so it recurs across the checks of a sweep and
# across grids. Every builder keeps its last ROW_CACHE_SIZE rows.

ROW_CACHE_SIZE = 4096
"""Rows kept per row builder. One grid call fetches each of its rows once,
whatever this size; the caches serve the rows again to later checks and grids."""


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _coefficient_row(X: int, Z: int, n: int, d: int) -> tuple[int, ...]:
    """``C(n, k) * k! d**k B_k(X / d, Z / d)`` for ``k = 0..n``."""
    return tuple(math.comb(n, k) * _rothe_numerator(X, Z, k, d) for k in range(n + 1))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _coefficient_tail(Y: int, Z: int, n: int, d: int) -> tuple[int, ...]:
    """``(n-k)! d**(n-k) B_{n-k}(Y / d, Z / d)`` for ``k = 0..n``."""
    return tuple(_rothe_numerator(Y, Z, n - k, d) for k in range(n + 1))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _binomial_row(a: int, z: int, n: int, d: int) -> tuple[int, ...]:
    """``C(n, k) * k! d**k C((a - k*z) / d, k)`` for ``k = 0..n``."""
    return tuple(math.comb(n, k) * _falling(a - k * z, k, d) for k in range(n + 1))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _binomial_tail(b: int, z: int, n: int, d: int) -> tuple[int, ...]:
    """``(n-k)! d**(n-k) C((b + k*z) / d, n - k)`` for ``k = 0..n``."""
    return tuple(_falling(b + k * z, n - k, d) for k in range(n + 1))


def gen_binomial(t: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient ``prod_{i=0}^{k-1} (t - i) / k!``.

    Zero for ``k < 0``. With ``t = T / d`` in lowest terms it is the integer
    ``prod_{i=0}^{k-1} (T - i*d)`` over ``k! * d**k``; for integer ``t``
    (``d = 1``) the result is an integer-valued Fraction (negative upper
    arguments included).
    """
    _require_int(k, "k")
    if k < 0:
        return Fraction(0)
    d, (t,) = _scaled(t=t)
    return _side(_falling(t, k, d), k, d)


def rothe_coeff(x: RationalLike, z: RationalLike, k: int) -> Fraction:
    """Singularity-free convolution coefficient ``B_k(x, z)``.

    ``B_0 = 1`` and ``B_k(x, z) = (x / k!) * prod_{i=1}^{k-1} (x - k*z - i)``
    for ``k >= 1``; zero for ``k < 0``. Agrees with
    ``x / (x - k*z) * gen_binomial(x - k*z, k)`` whenever ``x != k*z``, and
    satisfies ``B_k(x, z) * (x - k*z) == x * gen_binomial(x - k*z, k)``
    identically. With ``x = X / d`` and ``z = Z / d`` over their common
    denominator it is ``X * prod_{i=1}^{k-1} (X - k*Z - i*d)`` over
    ``k! * d**k``.
    """
    _require_int(k, "k")
    if k < 0:
        return Fraction(0)
    d, (x, z) = _scaled(x=x, z=z)
    return _side(_rothe_numerator(x, z, k, d), k, d)


def _report(
    identity: str, params: dict, degree: int, d: int, sides: tuple[int, int]
) -> VerificationReport:
    """The report of an identity at ``params``, its two sides given as integers
    over ``degree! d**degree``."""
    lhs, rhs = sides
    if lhs == rhs:  # equal numerators over one denominator: one Fraction serves both sides
        side = _side(lhs, degree, d)
        return VerificationReport(identity, params, side, side, "pass")
    lhs, rhs = _side(lhs, degree, d), _side(rhs, degree, d)
    return VerificationReport.from_sides(identity, params, lhs, rhs)


def _rational_report(
    identity: str, sides: Callable[..., tuple[Iterator[int], Iterator[int]]], n: int,
    **values: RationalLike,
) -> VerificationReport:
    """The report of a rational identity at ``values`` and degree ``n``, its
    two sides computed by ``sides`` on the one-point grid over the common
    denominator."""
    _require_natural(n, "n")
    d, scaled = _scaled(**values)
    params = {name: Fraction(v) for name, v in values.items()}
    params["n"] = n
    lhs, rhs = sides(*(range(v, v + 1) for v in scaled), n, d)
    return _report(identity, params, n, d, (next(lhs), next(rhs)))


def _dot(row: tuple[int, ...], tail: tuple[int, ...]) -> int:
    return sum(map(operator.mul, row, tail))


def _sums(xs: range, ys: range) -> range:
    """Every ``x + y`` over two step-1 axes."""
    return range(xs.start + ys.start, xs.stop + ys.stop - 1)


def _rothe1_sides(xs: range, ys: range, zs: range, n: int, d: int):
    rows = [[_coefficient_row(X, Z, n, d) for Z in zs] for X in xs]
    tails = [[_coefficient_tail(Y, Z, n, d) for Z in zs] for Y in ys]
    # the right side depends on x + y and z alone
    sums = [[_rothe_numerator(S, Z, n, d) for Z in zs] for S in _sums(xs, ys)]
    lhs = chain.from_iterable(map(_dot, row, tail) for row in rows for tail in tails)
    rhs = chain.from_iterable(sums[i + j] for i in range(len(xs)) for j in range(len(ys)))
    return lhs, rhs


def check_rothe1(
    x: RationalLike, y: RationalLike, z: RationalLike, n: int
) -> VerificationReport:
    """Convolution of two coefficient families against the combined one:
    ``sum_k B_k(x, z) * B_{n-k}(y, z) == B_n(x + y, z)``."""
    return _rational_report("rothe1", _rothe1_sides, n, x=x, y=y, z=z)


def _rothe2_sides(xs: range, ys: range, zs: range, n: int, d: int):
    rows = [[_coefficient_row(X, Z, n, d) for Z in zs] for X in xs]
    tails = [[_binomial_tail(Y, Z, n, d) for Z in zs] for Y in ys]
    # the right side depends on x + y alone
    sums = [_falling(S, n, d) for S in _sums(xs, ys)]
    lhs = chain.from_iterable(map(_dot, row, tail) for row in rows for tail in tails)
    rhs = chain.from_iterable(
        repeat(sums[i + j], len(zs)) for i in range(len(xs)) for j in range(len(ys))
    )
    return lhs, rhs


def check_rothe2(
    x: RationalLike, y: RationalLike, z: RationalLike, n: int
) -> VerificationReport:
    """Mixed convolution ``sum_k B_k(x, z) * C(y + k*z, n - k) == C(x + y, n)``
    (Rothe's identity in polynomial form; ``z = 0`` is Chu-Vandermonde)."""
    return _rational_report("rothe2", _rothe2_sides, n, x=x, y=y, z=z)


def _convolution_numerator(a: int, b: int, z: int, n: int, d: int) -> int:
    """``n! * d**n * S_0(a / d, b / d; z / d, n)``, 0 at ``n < 0``, with ``S_0(a, b; z, n) =
    sum_k C(a - k*z, k) * C(b + k*z, n - k)``: ``sum_k C(n, k) * N_k * M_k`` over the falling
    products ``N_k``, ``M_k`` of the two binomials. The lowered sum ``S_1``, with ``C(a - k*z,
    k - 1)`` first, is ``S_0`` a degree down: ``S_1(a, b; z, n) = S_0(a - z, b + z; z, n - 1)``."""
    return _dot(_binomial_row(a, z, n, d), _binomial_tail(b, z, n, d))


def _gould_sides(xs: range, ys: range, zs: range, es: range, n: int, d: int):
    width = len(es)
    # per z: the rows of every x and the tails of every y, for the left side; then
    # the rows of every x + eps, increasing, and the tails of every y - eps,
    # decreasing, so that at the i-th x and the j-th y from the end the e-th eps
    # reads up[i + e] and down[j + e], whatever the signs of the eps
    lowered = range(ys.stop - 1 - es.start, ys.start - es.stop, -1)
    tables = [
        ([_binomial_row(X, Z, n, d) for X in xs],
         [_binomial_tail(Y, Z, n, d) for Y in ys],
         [_binomial_row(X, Z, n, d) for X in _sums(xs, es)],
         [_binomial_tail(Y, Z, n, d) for Y in lowered])
        for Z in zs
    ]
    # the left side does not depend on eps: one value per (x, y, z), repeated
    lhs = chain.from_iterable(
        repeat(_dot(rows[i], tails[j]), width)
        for i in range(len(xs)) for j in range(len(ys)) for rows, tails, _, _ in tables
    )
    rhs = chain.from_iterable(
        map(_dot, up[i:i + width], down[j:j + width])
        for i in range(len(xs)) for j in reversed(range(len(ys))) for _, _, up, down in tables
    )
    return lhs, rhs


def check_gould(
    x: RationalLike,
    y: RationalLike,
    z: RationalLike,
    eps: RationalLike,
    n: int,
) -> VerificationReport:
    """Shift invariance of the plain binomial convolution:
    ``S_0(x, y; z, n) = sum_k C(x - k*z, k) * C(y + k*z, n - k)`` is unchanged
    by ``x -> x + eps``, ``y -> y - eps``."""
    return _rational_report("gould", _gould_sides, n, x=x, y=y, z=z, eps=eps)


def check_pqkm(p: int, q: int, m: int, n: int) -> VerificationReport:
    """Gould's identity at ``(x, y, z, eps) = (p, q, m, 1)`` on integers:
    ``sum_k C(p - k*m, k) * C(q + k*m, n - k)
      == sum_k C(p + 1 - k*m, k) * C(q - 1 + k*m, n - k)``.
    Both sums are empty, so both sides are 0, at ``n < 0``."""
    _require_int(n, "n")
    d, (P, Q, M) = _scaled(p=p, q=q, m=m)
    sides = _convolution_numerator(P, Q, M, n, d), _convolution_numerator(P + d, Q - d, M, n, d)
    return _report("pqkm", {"p": p, "q": q, "m": m, "n": n}, n, d, sides)


def shift_domain(p: int, q: int, m: int, n: int) -> bool:
    """The domain ``p >= m*n``, ``q >= 1`` of ``kmx``, q-Chu and both word
    bijections; a negative degree ``n`` or grading ``m`` is refused first."""
    if n < 0 or m < 0:
        _require_natural(n, "n")
        Grading(m)  # raises the grading's refusal
    return p >= m * n and q >= 1


def _require_shift_domain(p: int, q: int, m: int, n: int, names=("p", "q")) -> None:
    """Raise :class:`NotInDomainError` outside :func:`shift_domain`; ``names``
    are what its message calls ``p`` and ``q``."""
    if n >= 0 and m >= 0 and p >= m * n and q >= 1:
        return  # the in-domain case, every valid bijection call, needs no second frame
    if not shift_domain(p, q, m, n):
        a, b = names
        raise NotInDomainError(f"need {a} >= m*n and {b} >= 1, got {a}={p}, {b}={q}, m={m}, n={n}")


def _invw_domain(p: int, k: int, m: int) -> bool:
    if m < 0:
        Grading(m)  # raises the grading's refusal
    return p >= k * m


def check_kmx(p: int, q: int, m: int, n: int) -> VerificationReport:
    """Two-branch counting identity
    ``S_0(p, q; m, n) + sum_{j=1}^{m} S_1(p + j - 1, q - j; m, n) == C(p + q, n)``,
    where ``S_1(a, b; m, n) = sum_k C(a - k*m, k - 1) * C(b + k*m, n - k)`` is
    the lowered convolution. Requires ``n, m >= 0``, ``p >= m*n`` and ``q >= 1``."""
    _require_int(n, "n")
    _require_int(m, "m")
    d, (P, Q, M) = _scaled(p=p, q=q, m=m)
    _require_shift_domain(p, q, m, n)
    # the lowered sums S_1(p + i, q - 1 - i; m, n), i = j - 1, are S_0(p - m + i, q + m - 1 - i;
    # m, n - 1); n * d lifts each numerator from (n-1)! d**(n-1) to n! d**n
    A, B = P - M, Q + M - d
    lowered = sum(_convolution_numerator(A + i * d, B - i * d, M, n - 1, d) for i in range(m))
    lhs = _convolution_numerator(P, Q, M, n, d) + n * d * lowered
    return _report("kmx", {"p": p, "q": q, "m": m, "n": n}, n, d, (lhs, _falling(P + Q, n, d)))


def _kmpink_domain(p: int, q: int, m: int, n: int, j: int) -> bool:
    return 1 <= j <= m


def check_kmpink(p: int, q: int, m: int, n: int, j: int) -> VerificationReport:
    """Inner-shift identity of the lowered convolution
    ``S_1(a, b; m, n) = sum_k C(a - k*m, k - 1) * C(b + k*m, n - k)``, for
    ``1 <= j <= m``: ``S_1(p + j - 1, q - j; m, n) == S_1(p - 1, q; m, n)``.
    Both sums are empty, so both sides are 0, at ``n < 0``."""
    _require_int(n, "n")
    d, (P, Q, M, J) = _scaled(p=p, q=q, m=m, j=j)
    if not _kmpink_domain(p, q, m, n, j):
        raise NotInDomainError(f"j must lie in [1, m] = [1, {m}], got {j}")
    # the two S_1 are S_0 a degree down: gould's sides at (p - 1 - m, q + m, m, j, n - 1), swapped
    A, B = P - d - M, Q + M
    lhs = _convolution_numerator(A + J, B - J, M, n - 1, d)
    rhs = _convolution_numerator(A, B, M, n - 1, d)
    return _report("kmpink", {"p": p, "q": q, "m": m, "n": n, "j": j}, n - 1, d, (lhs, rhs))


def _side_cost(n: int) -> int:
    """Work units of one degree-``n`` side: ``n + 1`` terms of ``O(n)`` big-int
    products each, and at least one unit for the empty sums at ``n < 0``."""
    return (max(n, 0) + 1) ** 2


def _degree_cost(n: int, sides: int) -> int:
    """Work units of ``sides`` degree-``n`` sides of a check that refuses
    ``n < 0``, raising that refusal before pricing."""
    _require_natural(n, "n")
    return sides * _side_cost(n)


def _qchu_cost(x: int, y: int, m: int, n: int) -> int | None:
    """Work units of a q-Chu check: ``(m + 1) (n + 1)`` bracket products of ``O(n)`` terms
    each, plus the ``n (x + y - n)`` coefficients of the closed form ``[x + y, n]``. Every
    summand's coefficients are nonnegative, so no bracket or product of the double sum spans
    more exponents than the closed form. ``None`` outside :func:`shift_domain`."""
    if not shift_domain(x, y, m, n):
        return None
    return (n + 1) ** 2 * (m + 1) + 1 + n * max(x + y - n, 0)


def _qseries(name: str) -> Callable[..., VerificationReport]:
    """The checker ``name`` of :mod:`rothe_lab.qseries`, which is imported on
    the first call: a run that checks no q-identity never loads it."""

    def check(*args, **kwargs) -> VerificationReport:
        from . import qseries

        return getattr(qseries, name)(*args, **kwargs)

    return check


IDENTITIES: dict[str, Identity] = {
    "rothe1": Identity(
        check=check_rothe1,
        order=("x", "y", "z", "n"),
        sides=_rothe1_sides,
        price=lambda x, y, z, n: _degree_cost(n, 1),
    ),
    "rothe2": Identity(
        check=check_rothe2,
        order=("x", "y", "z", "n"),
        sides=_rothe2_sides,
        price=lambda x, y, z, n: _degree_cost(n, 1),
    ),
    "gould": Identity(
        check=check_gould,
        order=("x", "y", "z", "n", "eps"),
        sides=_gould_sides,
        # one eps at n < 0, so that the tuple is priced and its price refuses the degree
        default=lambda x, y, z, n: range(0, max(n, 0) + 1),
        price=lambda x, y, z, n, eps: _degree_cost(n, 2),
    ),
    "pqkm": Identity(
        check=check_pqkm,
        order=("p", "q", "m", "n"),
        price=lambda p, q, m, n: 2 * _side_cost(n),
    ),
    "kmx": Identity(
        check=check_kmx,
        order=("p", "q", "m", "n"),
        price=lambda p, q, m, n: (m + 1) * _side_cost(n) if shift_domain(p, q, m, n) else None,
    ),
    "kmpink": Identity(
        check=check_kmpink,
        order=("p", "q", "m", "n", "j"),
        default=lambda p, q, m, n: range(1, m + 1),
        price=lambda p, q, m, n, j: (
            2 * _side_cost(n) if _kmpink_domain(p, q, m, n, j) else None
        ),
    ),
    "cardinality": Identity(
        check=_qseries("check_cardinality"),
        order=("p", "k", "m"),
        price=_class_cost,
    ),
    "invw": Identity(
        check=_qseries("check_invw"),
        order=("p", "k", "m"),
        price=lambda p, k, m: _class_cost(p, k, m) if _invw_domain(p, k, m) else None,
    ),
    "qchu": Identity(
        check=_qseries("check_qchu"),
        order=("x", "y", "m", "n"),
        price=_qchu_cost,
    ),
    "qchu-m1": Identity(
        check=_qseries("check_qchu_m1"),
        order=("x", "y", "n"),
        price=lambda x, y, n: _qchu_cost(x, y, 1, n),
    ),
    "qword": Identity(
        check=_qseries("qweighted_bijection_check"),
        order=("p", "q", "m", "n"),
        price=lambda p, q, m, n: (
            None if (cost := _qchu_cost(p, q, m, n)) is None
            else _class_cost(p + q + m * n, n, m) + cost
        ),
    ),
}
"""Every identity by name; the checkers of the last five, the q-identities and
the word-class oracles, are in :mod:`rothe_lab.qseries`."""


def grid_prove(
    identity: str, n: int, offsets: Sequence[int] | None = None
) -> VerificationReport:
    """Certify an identity as a polynomial identity by exhaustive grid evaluation.

    Both sides have degree at most ``n`` in each free variable, so exact
    agreement on an integer grid of ``n + 1`` points per variable proves the
    identity over the rationals. ``offsets`` shifts the per-variable grids
    ``{off, ..., off + n}``; the default grid starts at 0 (any grid works, the
    polynomial forms have no singular points). On failure the report carries
    the first counterexample point.
    """
    record = IDENTITIES.get(identity)
    variables = record.grid_variables if record else None
    if variables is None:
        supported = sorted(k for k, r in IDENTITIES.items() if r.grid_variables)
        raise ParameterError(f"grid certification supports {supported}, got {identity!r}")
    _require_natural(n, "n")
    if offsets is None:
        offsets = (0,) * len(variables)
    if len(offsets) != len(variables):
        raise ParameterError(
            f"{identity} needs {len(variables)} offsets {variables}, got {len(offsets)}"
        )
    for offset in offsets:
        _require_int(offset, "each offset")
    axes = [range(off, off + n + 1) for off in offsets]
    # comparing numerators suffices: d = 1 here, so both sides lie over the same positive n!
    status, where = "pass", None
    for count, (lhs, rhs) in enumerate(zip(*record.sides(*axes, n, 1)), 1):
        if lhs != rhs:
            point = next(islice(product(*axes), count - 1, None))
            status, where = "fail", dict(zip(variables, point))
            break
    params = {"n": n, "offsets": list(offsets), "grid_points": count}
    return VerificationReport(identity, params, _side(lhs, n, 1), _side(rhs, n, 1), status, where)
