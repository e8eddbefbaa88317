"""Exact Laurent polynomials in ``q`` and the q-binomial identity checks.

Polynomials are stored densely as a lowest exponent and the run of integer
coefficients from there up, with arbitrary-precision coefficients and
possibly negative exponents; ``q`` stays symbolic throughout (the only
numeric specialization offered is ``q = 1``). Every product, and every sum
of shifted products, is packed into one big integer by :func:`_pack_sum`;
the q-Chu checks compare that integer with the packed closed form and
unpack it only on a mismatch.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, sub

from .errors import NotInDomainError, UnsupportedArgumentError
from .identities import VerificationReport, _invw_domain, _require_shift_domain
from .words import Grading, _comb0, _walk


class LaurentPolynomial:
    """Immutable integer-coefficient polynomial in ``q`` with integer exponents.

    Stored as ``(offset, coefficients)``: the coefficient of ``q ** (offset
    + i)`` is ``coefficients[i]``, and neither end of the tuple is zero, so
    zero is ``(0, ())`` and equality is term-by-term on the canonical form.
    Memory grows with the exponent span, not the number of terms.
    Arithmetic accepts plain ints as constants. ``str`` formats once and
    keeps its text in ``_text``; the product kernel scans the coefficients
    once and keeps their height in ``_height``. Equality, hashing and copies
    ignore both.
    """

    __slots__ = ("_offset", "_coeffs", "_text", "_height")

    def __init__(
        self,
        terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None,
    ) -> None:
        data: dict[int, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exponent, coeff in items:
                if coeff:
                    data[exponent] = data.get(exponent, 0) + coeff
        offset, coeffs = 0, ()
        nonzero = [e for e, c in data.items() if c]
        if nonzero:
            offset = min(nonzero)
            dense = [0] * (max(nonzero) - offset + 1)
            for e in nonzero:
                dense[e - offset] = data[e]
            coeffs = tuple(dense)
        object.__setattr__(self, "_offset", offset)
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def _dense(cls, offset: int, coeffs) -> "LaurentPolynomial":
        """The polynomial ``sum_i coeffs[i] q^(offset + i)``, with zeros
        trimmed from both ends of ``coeffs``."""
        if not (coeffs and coeffs[0] and coeffs[-1]):
            lo, hi = 0, len(coeffs)
            while lo < hi and not coeffs[lo]:
                lo += 1
            while hi > lo and not coeffs[hi - 1]:
                hi -= 1
            offset, coeffs = (offset + lo if lo < hi else 0), coeffs[lo:hi]
        out = object.__new__(cls)
        object.__setattr__(out, "_offset", offset)
        object.__setattr__(out, "_coeffs", tuple(coeffs))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _dense, past the refusing __setattr__
        return LaurentPolynomial._dense, (self._offset, self._coeffs)

    @classmethod
    def _coerce(cls, value) -> "LaurentPolynomial | None":
        if isinstance(value, LaurentPolynomial):
            return value
        if isinstance(value, int):
            return cls._dense(0, (value,))
        return None

    def terms(self) -> dict[int, int]:
        return dict(self.sorted_terms())

    def sorted_terms(self) -> list[tuple[int, int]]:
        return [(e, c) for e, c in enumerate(self._coeffs, self._offset) if c]

    def coefficient(self, exponent: int) -> int:
        i = exponent - self._offset
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def min_exponent(self) -> int | None:
        return self._offset if self._coeffs else None

    def max_exponent(self) -> int | None:
        return self._offset + len(self._coeffs) - 1 if self._coeffs else None

    def value_at_one(self) -> int:
        """The integer obtained by setting ``q = 1``."""
        return sum(self._coeffs)

    def shift(self, exponent: int) -> "LaurentPolynomial":
        """Multiply by ``q ** exponent``."""
        if not self._coeffs or not exponent:
            return self
        return LaurentPolynomial._dense(self._offset + exponent, self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._offset == other._offset and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as that int (zero as 0)
        if not self._offset and len(self._coeffs) < 2:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash((self._offset, self._coeffs))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._dense(self._offset, [-c for c in self._coeffs])

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        low, high = (self, other) if self._offset <= other._offset else (other, self)
        start = high._offset - low._offset
        stop = start + len(high._coeffs)
        out = list(low._coeffs)
        if stop > len(out):
            out += [0] * (stop - len(out))
        out[start:stop] = map(add, out[start:stop], high._coeffs)
        return LaurentPolynomial._dense(low._offset, out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum_of_products([(0, self, other)])

    __rmul__ = __mul__

    def __str__(self) -> str:
        text = getattr(self, "_text", None)
        if text is None:
            text = self._format()
            object.__setattr__(self, "_text", text)
        return text

    def _format(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        for exponent, coeff in self.sorted_terms():
            pieces.append("-" if coeff < 0 else "+")
            mag = abs(coeff)
            if exponent == 0:
                pieces.append(str(mag))
            elif mag == 1:
                pieces.append("q" if exponent == 1 else f"q^{exponent}")
            else:
                pieces.append(f"{mag}q" if exponent == 1 else f"{mag}q^{exponent}")
        if pieces[0] == "+":
            del pieces[0]  # no sign before a positive leading term
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self.sorted_terms())!r})"

    def to_json_dict(self) -> dict:
        """Canonical JSON form: ascending exponents, coefficients as strings."""
        return {"terms": [[e, str(c)] for e, c in self.sorted_terms()]}


# the zero and the one that every zero and one bracket returns
_ZERO = LaurentPolynomial()
_ONE = LaurentPolynomial({0: 1})

# slot sizes, in bytes, that ``array`` reads and writes natively: 1, 2, 4 and
# 8, which :func:`_pack_sum`'s size rule assumes. A one-byte run is packed
# through ``bytes()`` instead, and a wider slot coefficient by coefficient
_NATIVE_SLOTS = {array(code).itemsize: code for code in "BHIQ"}


def _height_of(poly: LaurentPolynomial) -> tuple[int, bool]:
    """The largest coefficient magnitude of ``poly`` and whether any of its
    coefficients is negative: scanned on first use, then kept in the
    polynomial's ``_height``, so that a recurring factor is scanned once."""
    try:
        return poly._height
    except AttributeError:
        low, high = min(poly._coeffs, default=0), max(poly._coeffs, default=0)
        height = max(high, -low), low < 0
        object.__setattr__(poly, "_height", height)
        return height


def _pack(coeffs, size: int, signed: bool) -> int:
    """``sum_i coeffs[i] * 2**(8 * size * i)`` for coefficients below
    ``2**(8 * size)`` in magnitude. With ``signed`` the run may hold
    negative coefficients: it is packed as its positive part minus its
    negative part, so that every slot written is nonnegative. One-byte slots
    go through ``bytes()``, which converts a run of small ints on a fast
    path; other native sizes through ``array``."""
    if len(coeffs) == 1:
        return coeffs[0]
    if signed:
        return _pack([max(c, 0) for c in coeffs], size, False) - _pack(
            [max(-c, 0) for c in coeffs], size, False
        )
    if size == 1:
        # a run of single bytes has no native order
        return int.from_bytes(bytes(coeffs), "little")
    code = _NATIVE_SLOTS.get(size)
    if code:
        return int.from_bytes(array(code, coeffs), sys.byteorder)
    raw = b"".join([c.to_bytes(size, sys.byteorder) for c in coeffs])
    return int.from_bytes(raw, sys.byteorder)


def _unpack(value: int, size: int, count: int) -> list[int]:
    """The ``count`` slots of ``size`` bytes of a nonnegative ``value``,
    lowest first."""
    raw = value.to_bytes(size * count, sys.byteorder)
    code = _NATIVE_SLOTS.get(size)
    if code:
        return memoryview(raw).cast(code).tolist()
    return [int.from_bytes(raw[i : i + size], sys.byteorder) for i in range(0, len(raw), size)]


def _pack_sum(summands):
    """``sum q^shift * left * right`` over ``(shift, left, right)`` triples of
    polynomials, packed into one integer by Kronecker substitution.

    Every factor becomes one integer whose base-``2^B`` digits are its
    coefficients, and the shifted products are added into one integer. The
    slot width ``B`` comes from an a-priori bound, never from the result: no
    coefficient of ``left * right`` exceeds ``max|left| * max|right| *
    min(len)`` in magnitude, so none of the sum exceeds the total of that
    bound over the triples. When a factor has a negative coefficient, one more
    bit holds the sign. Those bits round up to the smallest native slot of
    1, 2, 4 or 8 bytes that holds them, or to whole bytes beyond. Each factor's
    height comes from :func:`_height_of`, so a bracket that recurs across
    calls is scanned once. Unsigned runs of a native size are packed inline,
    one-byte runs through ``bytes()``. See D. Harvey,
    "Faster polynomial multiplication via multipoint Kronecker substitution",
    J. Symbolic Comput. 44 (2009).

    Returns ``(total, lowest, count, size, signed, bound)``: the packed sum,
    whose slot ``i`` holds the coefficient of ``q^(lowest + i)`` for ``i <
    count``, the slot size in bytes, whether a coefficient may be negative,
    and the bound on every coefficient's magnitude. :func:`_unpack_sum` reads
    it as a polynomial and :func:`_packed_equals` compares it with one.
    """
    triples = []
    bound, signed = 0, False
    lowest = end = 0
    for shift, left, right in summands:
        a, b = left._coeffs, right._coeffs
        if a and b:
            height_a, negative_a = _height_of(left)
            height_b, negative_b = _height_of(right)
            if negative_a or negative_b:
                signed = True
            len_a, len_b = len(a), len(b)
            bound += height_a * height_b * (len_a if len_a < len_b else len_b)
            low = shift + left._offset + right._offset
            stop = low + len_a + len_b - 1  # one past the product's top exponent
            if not triples:
                lowest, end = low, stop
            else:
                if low < lowest:
                    lowest = low
                if stop > end:
                    end = stop
            triples.append((low, a, b))
    # the width's byte count, at least 1, rounded up to a native size of 1,
    # 2, 4 or 8 bytes; above 8 bytes the byte count itself
    size = (bound.bit_length() + signed + 7) >> 3
    if size < 3:
        size = size or 1
    elif size < 9:
        size = 4 if size < 5 else 8
    slot = 8 * size
    # unsigned runs of a native slot size are packed here, without a call;
    # a run of single bytes has no native order
    code = None if signed else _NATIVE_SLOTS.get(size)
    byteorder = sys.byteorder
    total = 0
    for low, a, b in triples:
        if code == "B":
            product = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
        elif code:
            product = int.from_bytes(array(code, a), byteorder) * int.from_bytes(
                array(code, b), byteorder
            )
        else:
            product = _pack(a, size, signed) * _pack(b, size, signed)
        total += product << (slot * (low - lowest))
    return total, lowest, end - lowest, size, signed, bound


def _unpack_sum(packed) -> LaurentPolynomial:
    """The polynomial that :func:`_pack_sum` packed."""
    total, lowest, count, size, signed, _ = packed
    if not count:  # an empty sum
        return _ZERO
    if not signed:
        return LaurentPolynomial._dense(lowest, _unpack(total, size, count))
    # every coefficient lies strictly within half a slot of zero, so adding
    # half a slot to each makes all of them nonnegative: no borrows to undo
    bias = 1 << (8 * size - 1)
    total += int.from_bytes(bias.to_bytes(size, sys.byteorder) * count, sys.byteorder)
    return LaurentPolynomial._dense(lowest, [c - bias for c in _unpack(total, size, count)])


def _packed_equals(packed, poly: LaurentPolynomial) -> bool:
    """Whether the sum that :func:`_pack_sum` packed equals ``poly``, decided
    on the packed integer without unpacking it.

    Each coefficient of the sum lies within the bound and each of its
    exponents within its ``count`` slots, so a ``poly`` outside either is
    unequal, and so is one with a negative coefficient against an unsigned
    sum. Any other ``poly``, packed at the sum's slot size from the sum's
    lowest exponent, fills only those slots, each less than the base in
    magnitude (less than half of it when signed), as the sum does; two such
    integers are equal exactly when their slots are."""
    total, lowest, count, size, signed, bound = packed
    coeffs = poly._coeffs
    if not coeffs:
        return not total
    height, negative = _height_of(poly)
    start = poly._offset - lowest
    if height > bound or (negative and not signed) or start < 0 or start + len(coeffs) > count:
        return False
    return _pack(coeffs, size, signed) << (8 * size * start) == total


def _sum_of_products(summands) -> LaurentPolynomial:
    """``sum q^shift * left * right`` over ``(shift, left, right)`` triples of
    polynomials: :func:`_pack_sum`, unpacked once."""
    return _unpack_sum(_pack_sum(summands))


@lru_cache(maxsize=None)
def gaussian_binomial(a: int, k: int) -> LaurentPolynomial:
    """Gaussian binomial coefficient as a polynomial in ``q``.

    Zero for ``k < 0`` or ``k > a`` and one for ``k == 0`` are shared
    constants, and ``[a, k]`` for ``k > a - k`` is the cached ``[a, a - k]``.
    Otherwise the product formula ``[a, k] = prod_{i=1}^{k} (1 - q^(a-k+i)) /
    (1 - q^i)`` (Andrews, *The Theory of Partitions*, ch. 3) runs on one dense
    list of coefficients. At ``q = 1`` it is ``C(a, k)``. Negative upper
    arguments are not supported.
    """
    if k < 0:
        return _ZERO
    if a < 0:
        raise UnsupportedArgumentError(
            f"gaussian_binomial needs a >= 0 (or k < 0), got a={a}, k={k}"
        )
    if k > a:
        return _ZERO
    rest = a - k
    if k > rest:
        return gaussian_binomial(a, rest)
    if not k:
        return _ONE
    # after step i the list holds [rest + i, i], of degree i * rest; the step
    # first raises the degree by rest + i, then the division lowers it by i
    coeffs = [1] + [0] * (k * rest + k)
    degree = 0
    for i in range(1, k + 1):
        s = rest + i
        top = degree + s
        # times (1 - q^s): the slices are copies, so this reads old values
        coeffs[s : top + 1] = map(sub, coeffs[s : top + 1], coeffs[: degree + 1])
        # divided by (1 - q^i): a prefix sum along each residue class mod i,
        # run up to the old top so that the exact quotient's tail comes out 0
        for r in range(i):
            coeffs[r : top + 1 : i] = accumulate(coeffs[r : top + 1 : i])
        degree = top - i
    return LaurentPolynomial._dense(0, coeffs[: degree + 1])


def inv_generating_function(p: int, k: int, g: Grading) -> LaurentPolynomial:
    """Sum of ``q ** inversions(w)`` over all words of weight ``p`` with ``k``
    letters ``b``, by brute-force enumeration of their a-positions: the
    ``t``-th ``a`` of a length-``L`` word, at index ``i_t``, follows
    ``i_t - t`` letters ``b``, so the word has ``sum_t i_t - C(L-k, 2)``
    inversions."""
    length, members = _walk(p, k, g)
    low = (length - k) * (length - k - 1) // 2
    counts = Counter(map(sum, members))
    return LaurentPolynomial({s - low: c for s, c in counts.items()})


def check_cardinality(p: int, k: int, m: int) -> VerificationReport:
    """Class size oracle: enumeration finds ``C(p - k*m, k)`` words of weight
    ``p`` with ``k`` letters ``b`` (none when a letter count is negative)."""
    _, members = _walk(p, k, Grading(m))
    count = sum(1 for _ in members)
    return VerificationReport.from_sides(
        "cardinality",
        {"p": p, "k": k, "m": m},
        Fraction(count),
        Fraction(_comb0(p - k * m, k)),
    )


def check_invw(p: int, k: int, m: int) -> VerificationReport:
    """Inversion statistic oracle: the enumerated generating function equals
    the Gaussian binomial ``[p - k*m, k]``. Requires ``p >= k*m``."""
    if not _invw_domain(p, k, m):
        raise NotInDomainError(f"need p >= k*m, got p={p}, k={k}, m={m}")
    lhs = inv_generating_function(p, k, Grading(m))
    rhs = gaussian_binomial(p - k * m, k)
    return VerificationReport.from_sides("invw", {"p": p, "k": k, "m": m}, lhs, rhs)


def _qchu_summands(x: int, y: int, m: int, n: int, ks: range) -> list:
    """The ``k``-th summands of the double-sum q-Chu-Vandermonde extension, for
    every ``k`` in ``ks``, as one list of ``(shift, left, right)`` triples for
    :func:`_pack_sum`: for each ``k`` the bracket product ``[x-km, k]
    [y+km, n-k]``, then one product for each ``j = 1..m``."""
    triples = []
    for k in ks:
        shift = k * (k * m + k + y - n)
        base = x - k * m
        partner = y + k * m
        triples.append((shift, gaussian_binomial(base, k), gaussian_binomial(partner, n - k)))
        for j in range(1, m + 1):
            left = gaussian_binomial(base + j - 1, k - 1)
            if left is _ZERO:
                # at k = 0 the j-terms vanish; skipping also avoids evaluating
                # the partner bracket at a negative upper argument
                continue
            triples.append((shift - k * j, left, gaussian_binomial(partner - j, n - k)))
    return triples


def qchu_term(x: int, y: int, m: int, n: int, k: int) -> LaurentPolynomial:
    """The ``k``-th summand of the double-sum q-Chu-Vandermonde extension."""
    return _sum_of_products(_qchu_summands(x, y, m, n, range(k, k + 1)))


def _qchu_lhs(x: int, y: int, m: int, n: int, closed: LaurentPolynomial) -> LaurentPolynomial:
    """The structured double sum ``sum_k qchu_term(x, y, m, n, k)``, added up
    in one packed integer and compared packed with ``closed``: ``closed``
    itself when they are equal, so that a pass builds no polynomial, and the
    sum unpacked once when they are not."""
    packed = _pack_sum(_qchu_summands(x, y, m, n, range(n + 1)))
    return closed if _packed_equals(packed, closed) else _unpack_sum(packed)


def _qchu_sides(x: int, y: int, m: int, n: int):
    """The double sum and the closed form ``[x+y, n]`` inside the shift domain."""
    _require_shift_domain(x, y, m, n, ("x", "y"))
    closed = gaussian_binomial(x + y, n)
    return _qchu_lhs(x, y, m, n, closed), closed


def check_qchu(x: int, y: int, m: int, n: int) -> VerificationReport:
    """Double-sum extension of the q-Chu-Vandermonde formula:

    ``sum_k q^{k(km+k+y-n)} ([x-km, k] [y+km, n-k]
        + sum_{j=1}^{m} [x-km+j-1, k-1] [y+km-j, n-k] q^{-kj}) == [x+y, n]``.

    Requires ``x >= m*n``, ``y >= 1`` and ``n >= 0``. The inner sum is empty
    at ``m = 0``, which leaves the classical q-Chu-Vandermonde sum.
    """
    lhs, rhs = _qchu_sides(x, y, m, n)
    return VerificationReport.from_sides(
        "qchu", {"x": x, "y": y, "m": m, "n": n}, lhs, rhs
    )


def qchu_m1_term(x: int, y: int, n: int, k: int) -> LaurentPolynomial:
    """The ``k``-th summand of the ``m = 1`` specialization,
    ``qchu_term(x, y, 1, n, k)``."""
    return qchu_term(x, y, 1, n, k)


def check_qchu_m1(x: int, y: int, n: int) -> VerificationReport:
    """``m = 1`` form: ``sum_k q^{k(2k+y-n)} ([x-k, k] [y+k, n-k]
    + [x-k, k-1] [y+k-1, n-k] q^{-k}) == [x+y, n]``, the double sum of
    :func:`check_qchu` at ``m = 1``."""
    lhs, rhs = _qchu_sides(x, y, 1, n)
    return VerificationReport.from_sides(
        "qchu-m1", {"x": x, "y": y, "n": n}, lhs, rhs
    )


def qweighted_bijection_check(p: int, q: int, m: int, n: int) -> VerificationReport:
    """Tie the word model to the algebra: the enumerated inversion generating
    function over the full weight class equals ``[p+q, n]`` and equals the
    structured double sum of :func:`check_qchu`."""
    _require_shift_domain(p, q, m, n)
    # the length cap is refused before either q-Chu side is computed
    enumerated = inv_generating_function(p + q + m * n, n, Grading(m))
    bracket = gaussian_binomial(p + q, n)
    structured = _qchu_lhs(p, q, m, n, bracket)
    params = {"p": p, "q": q, "m": m, "n": n}
    if enumerated == bracket == structured:
        return VerificationReport("qword", params, enumerated, bracket, "pass")
    counterexample = dict(params)
    counterexample["structured_sum"] = str(structured)
    return VerificationReport(
        "qword", params, enumerated, bracket, "fail", counterexample
    )
