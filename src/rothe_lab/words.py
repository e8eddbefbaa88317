"""Graded binary words: weights, prefix structure, enumeration, inversions.

A word is a plain ``str`` over the alphabet ``{'a', 'b'}``. A :class:`Grading`
fixes the letter weights: ``a`` weighs 1 and ``b`` weighs ``m + 1`` for an
integer ``m >= 0``; the weight of a word is the sum of its letter weights.
``enumerate_gamma(p, k, g)`` lists every word of weight ``p`` containing
exactly ``k`` letters ``b``, in lexicographic order (``a`` before ``b``).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator

from .errors import CapExceededError, ParameterError

Word = str

MAX_WORD_LENGTH = 26
"""Hard bound on enumerated word length; class sizes grow binomially."""


class Grading(namedtuple("Grading", "m")):
    """Letter weights ``a -> 1`` and ``b -> m + 1``."""

    __slots__ = ()

    def __new__(cls, m: int) -> Grading:
        if m < 0:
            raise ParameterError(f"grading parameter m must be >= 0, got {m}")
        return super().__new__(cls, m)


def b_count(w: Word) -> int:
    """Number of letters ``b`` in ``w``, once every letter is checked; a ``w``
    that is no string is refused with the same ``ValueError``."""
    if not isinstance(w, str):
        raise ValueError(f"word {w!r} is not a string")
    n = w.count("b")
    if w.count("a") + n != len(w):
        raise ValueError(f"word {w!r} contains letters other than 'a'/'b'")
    return n


def weight(w: Word, g: Grading) -> int:
    """Total weight of ``w``: one per letter plus ``m`` per ``b``."""
    return len(w) + g.m * b_count(w)


def _prefix_at_least(w: Word, r: int, m: int) -> tuple[int, int]:
    """Length and weight of the shortest prefix of an already checked word
    with weight at least ``r``; the whole word when no prefix reaches ``r``.
    The work is bounded by ``len(w)``, whatever the size of ``m``."""
    if m == 0:
        cut = min(max(r, 0), len(w))
        return cut, cut
    acc = cut = 0
    heavy = m + 1
    for letter in w:
        if acc >= r:
            break
        acc += heavy if letter == "b" else 1
        cut += 1
    return cut, acc


def _prefix_length(w: Word, r: int, m: int) -> int | None:
    """:func:`prefix_length_of_weight` of an already checked word."""
    cut, acc = _prefix_at_least(w, r, m)
    return cut if acc == r else None


def prefix_weights(w: Word, g: Grading) -> list[int]:
    """Weights of the nonempty prefixes of ``w``, shortest first.

    Letter weights are positive, so the sequence is strictly increasing and
    its last entry (when ``w`` is nonempty) equals ``weight(w, g)``.
    """
    b_count(w)
    return list(itertools.accumulate(g.m + 1 if letter == "b" else 1 for letter in w))


def prefix_length_of_weight(w: Word, r: int, g: Grading) -> int | None:
    """Length of the prefix of ``w`` with weight exactly ``r``, or ``None``.

    The empty prefix covers ``r == 0``. Prefix weights strictly increase, so
    the prefix is unique when it exists.
    """
    b_count(w)
    return _prefix_length(w, r, g.m)


def has_prefix_of_weight(w: Word, r: int, g: Grading) -> bool:
    """True iff some prefix of ``w`` (the empty one included) has weight ``r``."""
    return prefix_length_of_weight(w, r, g) is not None


def _gamma_length(p: int, k: int, m: int) -> int | None:
    """Length ``p - m k`` of the words of weight ``p`` with ``k`` letters ``b``;
    ``None`` when the class is empty: ``k < 0`` or ``p - (m + 1) k < 0``."""
    return None if k < 0 or p - (m + 1) * k < 0 else p - m * k


def _comb0(n: int, k: int) -> int:
    """``C(n, k)``, and 0 outside ``0 <= k <= n``: the size of the class of
    length ``n`` with ``k`` letters ``b``."""
    return math.comb(n, k) if 0 <= k <= n else 0


def _walk(p: int, k: int, g: Grading) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The word length of the class of weight ``p`` with ``k`` letters ``b``,
    and its words, lazily, as the sorted tuples of their a-indices; these come
    in the lex order of the words (``a`` < ``b``). ``(0, ())`` when the class
    is empty. Raises :class:`CapExceededError` on the call, before any word,
    if the word length would exceed :data:`MAX_WORD_LENGTH`."""
    length = _gamma_length(p, k, g.m)
    if length is None:
        return 0, iter(())
    if length > MAX_WORD_LENGTH:
        raise CapExceededError(
            f"enumerating words of length {length} exceeds the cap of {MAX_WORD_LENGTH}"
        )
    return length, itertools.combinations(range(length), length - k)


def _class_cost(p: int, k: int, m: int) -> int:
    """Price of walking the class of weight ``p`` with ``k`` letters ``b``; it
    raises the grading's error for ``m < 0``, then the length cap's, as the walk would."""
    _walk(p, k, Grading(m))
    return _comb0(p - k * m, k) * max(1, p - m * k) + 1


def _words(p: int, k: int, g: Grading) -> Iterator[Word]:
    """The words of :func:`_walk`, spelled one at a time, in lex order."""
    length, members = _walk(p, k, g)
    base = ["b"] * length

    def spell(positions: tuple[int, ...]) -> Word:
        chars = base.copy()
        for i in positions:
            chars[i] = "a"
        return "".join(chars)

    return map(spell, members)


def enumerate_gamma(p: int, k: int, g: Grading) -> list[Word]:
    """All words of weight ``p`` with exactly ``k`` letters ``b``, lex order.

    Such a word has ``p - (m + 1) * k`` letters ``a`` and length ``p - m * k``;
    the class is empty when the letter counts go negative. Raises
    :class:`CapExceededError` if the word length would exceed
    :data:`MAX_WORD_LENGTH`.
    """
    return list(_words(p, k, g))


def enumerate_gamma_prefix(p: int, k: int, r: int, g: Grading) -> list[Word]:
    """The part of ``enumerate_gamma(p, k, g)`` having a prefix of weight ``r``."""
    return [w for w in _words(p, k, g) if _prefix_length(w, r, g.m) is not None]


def inversions(w: Word) -> int:
    """Number of index pairs ``i < j`` with ``w[i] == 'b'`` and ``w[j] == 'a'``."""
    b_count(w)
    seen_b = 0
    inv = 0
    for letter in w:
        if letter == "b":
            seen_b += 1
        else:
            inv += seen_b
    return inv
