"""Constructive bijections on graded binary words.

Two families. The prefix-shift maps (``theorem1_forward`` and its inverse)
carry words that have a prefix of weight ``p`` to words that have a prefix of
weight ``p + 1``, preserving total weight and b-count. The factorization maps
(``decompose`` / ``compose``) split a word at its shortest prefix of weight at
least ``p``, sorting it into one of two branches.

Each of the three word maps validates its word and finds its split in one
call: the letters, the shift domain, the length, then the scan for the prefix.
At ``m = 0`` every letter weighs 1, so the split is the requested weight
itself and no letter is scanned: both shift maps are the identity there, and
``decompose`` gives branch A.

The domain checks guarantee the splits that the maps look for; should one be
missing, a map raises :class:`NoMatchError`, a library bug, not a bad argument.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NoMatchError, NotInDomainError, ParameterError
from .identities import _require_shift_domain
from .words import Grading, Word, _prefix_at_least, b_count


class BranchA(namedtuple("BranchA", "w")):
    """Factorization hit the target weight exactly; the word ``w`` is kept whole."""

    __slots__ = ()


class BranchB(namedtuple("BranchB", "j k u_prime v")):
    """Factorization overshot by ``j``; the splitting ``b`` is removed.

    ``u_prime`` is the part before that ``b``, ``v`` the part after, and ``k``
    counts the letters ``b`` up to and including the removed one.
    """

    __slots__ = ()


Decomposition = BranchA | BranchB


def _no_prefix(w: Word, r: int, m: int) -> NotInDomainError:
    return NotInDomainError(f"word {w!r} has no prefix of weight {r} (m={m})")


def _checked_split(w: Word, p: int, q: int, g: Grading, r: int) -> tuple[int, int]:
    """Length and weight of the shortest prefix of ``w`` with weight at least
    ``r``, once the domain checks shared by the three maps have passed; the
    only place where their input word is validated. The checks run in a fixed
    order: the letters, the shift domain, then the length."""
    n = b_count(w)
    m = g.m
    _require_shift_domain(p, q, m, n)
    if len(w) != p + q:
        extra = m * n  # the letters b add m*n to both weights
        raise NotInDomainError(
            f"word {w!r} has weight {len(w) + extra}, expected {p + q + extra}"
        )
    if m == 0:
        # every letter weighs 1, and the domain gives p >= 0 and q >= 1, so
        # the requested r = p or p + 1 lies in 0..p + q = len(w): the scan's
        # answer, with no letter read
        return r, r
    return _prefix_at_least(w, r, m)


def _shift(u: Word, v: Word, m: int) -> Word:
    """The shift of :func:`theorem1_forward` on the split ``u . v`` of an
    already checked word whose domain checks guarantee that ``y`` exists."""
    # y = v[:i] grows from the left and x = u[j:] from the right, always on
    # the lighter side of weight(y) = weight(x) + 1, so both stay minimal and
    # the walk stops at the first nonempty y that balances
    i = wy = wx = 0
    j = len(u)
    while wy != wx + 1:
        if wy <= wx and i < len(v):
            wy += m + 1 if v[i] == "b" else 1
            i += 1
        elif wy > wx and j > 0:
            j -= 1
            wx += m + 1 if u[j] == "b" else 1
        else:
            raise NoMatchError(
                f"no prefix y of {v!r} and suffix x of {u!r} with "
                f"weight(y) = weight(x) + 1 (m={m})"
            )
    return u[:j] + v[:i][::-1] + u[j:][::-1] + v[i:]


def theorem1_forward(w: Word, p: int, q: int, g: Grading) -> Word:
    """Carry a word with a weight-``p`` prefix to one with a weight-``p + 1`` prefix.

    Split ``w = u . v`` at the unique prefix ``u`` of weight ``p``; take the
    suffix ``x`` of ``u`` (possibly empty) and the nonempty prefix ``y`` of
    ``v`` with ``weight(x) = weight(y) - 1`` and ``weight(y)`` minimal; return
    ``u' . rev(y) . rev(x) . v'`` where ``u = u'x`` and ``v = yv'``. Total
    weight and b-count are preserved.

    The shift fixes ``w`` exactly when the letter after ``u`` weighs 1: that
    letter is ``y``, and ``x`` is empty. At ``m = 0`` every letter weighs 1,
    so the map is the identity on its whole domain.
    """
    cut, acc = _checked_split(w, p, q, g, p)
    m = g.m
    if acc != p:
        raise _no_prefix(w, p, m)
    # the domain leaves v a weight of q >= 1; an empty v is left to the walk,
    # which refuses it
    if cut < len(w) and (m == 0 or w[cut] == "a"):
        return w
    return _shift(w[:cut], w[cut:], m)


def theorem1_inverse(w: Word, p: int, q: int, g: Grading) -> Word:
    """Inverse of :func:`theorem1_forward` on words with a weight-``p + 1`` prefix.

    Split ``w = U . V`` at the prefix ``U`` of weight ``p + 1``; take the
    nonempty suffix ``s`` of ``U`` and the prefix ``t`` of ``V`` (possibly
    empty) with ``weight(s) = weight(t) + 1`` and ``weight(s)`` minimal;
    return ``U' . rev(t) . rev(s) . V'``. This is the forward shift
    conjugated by reversal: ``rev(w) = rev(V) . rev(U)`` splits at weight
    ``q - 1 + m n``, where the forward shift finds ``x = rev(t)`` and
    ``y = rev(s)``.

    The shift fixes ``w`` exactly when the last letter of ``U`` weighs 1:
    that letter is ``s``, and ``t`` is empty. At ``m = 0`` the map is the
    identity on its whole domain.
    """
    cut, acc = _checked_split(w, p, q, g, p + 1)
    m = g.m
    if acc != p + 1:
        raise _no_prefix(w, p + 1, m)
    # likewise U weighs p + 1 >= 1, and an empty U is left to the walk
    if cut and (m == 0 or w[cut - 1] == "a"):
        return w
    return _shift(w[cut:][::-1], w[:cut][::-1], m)[::-1]


def decompose(w: Word, p: int, q: int, g: Grading) -> Decomposition:
    """Sort ``w`` into :class:`BranchA` or :class:`BranchB` by factorization.

    With ``u`` the shortest prefix of weight >= ``p``: an exact hit keeps the
    word whole (branch A); an overshoot by ``j`` in ``[1, m]`` removes the
    final ``b`` of ``u`` and returns the two remaining pieces (branch B).
    """
    cut, acc = _checked_split(w, p, q, g, p)
    if acc == p:
        return BranchA(w)
    # the letter that crossed the target weighs more than 1, so it is a 'b'
    if w[cut - 1] != "b":
        raise NoMatchError(f"word {w!r} overshoots weight {p} on an 'a' at index {cut - 1}")
    u_prime = w[: cut - 1]
    return BranchB(acc - p, u_prime.count("b") + 1, u_prime, w[cut:])


def _check_branch_b(d: BranchB, p: int, q: int, g: Grading) -> None:
    m = g.m
    u_b, v_b = b_count(d.u_prime), b_count(d.v)
    n = u_b + 1 + v_b
    if not 1 <= d.j <= m:
        raise ParameterError(f"j={d.j} outside [1, {m}]")
    if not 1 <= d.k <= n:
        raise ParameterError(f"k={d.k} outside [1, {n}]")
    if len(d.u_prime) + m * u_b != p + d.j - m - 1 or u_b != d.k - 1:
        raise ParameterError(
            f"u'={d.u_prime!r} is not in the class of weight {p + d.j - m - 1} "
            f"with {d.k - 1} letters b"
        )
    if len(d.v) + m * v_b != q + m * n - d.j or v_b != n - d.k:
        raise ParameterError(
            f"v={d.v!r} is not in the class of weight {q + m * n - d.j} "
            f"with {n - d.k} letters b"
        )


def compose(d: Decomposition, p: int, q: int, g: Grading) -> Word:
    """Rebuild the word from a decomposition; inverse of :func:`decompose`."""
    if isinstance(d, BranchA):
        b_count(d.w)  # validates every letter, not only those the scan reads
        if len(d.w) != p + q:
            raise ParameterError(f"word {d.w!r} is not in the class for p={p}, q={q}, m={g.m}")
        if _prefix_at_least(d.w, p, g.m)[1] != p:
            raise ParameterError(f"word {d.w!r} has no prefix of weight {p}")
        return d.w
    _check_branch_b(d, p, q, g)
    return d.u_prime + "b" + d.v
