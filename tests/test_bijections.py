import itertools
import random
import sys
from collections import Counter
from typing import NamedTuple

import pytest

from rothe_lab import (
    BranchA,
    BranchB,
    Grading,
    InvariantViolationError,
    NoMatchError,
    NotInDomainError,
    b_count,
    compose,
    decompose,
    enumerate_gamma,
    factorize_at_least,
    has_prefix_of_weight,
    prefix_weights,
    theorem1_forward,
    theorem1_inverse,
    weight,
)
from rothe_lab import bijections, identities
from rothe_lab.words import prefix_length_of_weight


def all_words(max_len):
    for length in range(max_len + 1):
        for letters in itertools.product("ab", repeat=length):
            yield "".join(letters)


def prefix_sums(w, m):
    """Weights of the nonempty prefixes of ``w``, summed here and not by the
    library, so that the references below share no scan with the maps."""
    return list(itertools.accumulate(m + 1 if letter == "b" else 1 for letter in w))


def cut_of_weight(w, r, m):
    """Length of the prefix of ``w`` with weight ``r``, or ``None``."""
    if r == 0:
        return 0
    sums = prefix_sums(w, m)
    return sums.index(r) + 1 if r in sums else None


def shift_cases(max_len, offset):
    """``(w, p, q, g, cut)`` for every word up to ``max_len`` letters, ``m <=
    3`` and every ``p`` of the shift domain at which ``w`` has a prefix of
    weight ``p + offset``; ``cut`` is that prefix's length."""
    for m in range(4):
        g = Grading(m)
        for w in all_words(max_len):
            for p in range(m * w.count("b"), len(w)):
                cut = cut_of_weight(w, p + offset, m)
                if cut is not None:
                    yield w, p, len(w) - p, g, cut


class PrefixMatch(NamedTuple):
    """Nonempty prefixes of two words sharing the same (minimal) weight."""

    u_prefix_len: int
    v_prefix_len: int
    common_weight: int


def _match(wu, wv):
    """Two-pointer merge over two strictly increasing prefix-weight lists."""
    i = j = 0
    while i < len(wu) and j < len(wv):
        if wu[i] == wv[j]:
            return PrefixMatch(i + 1, j + 1, wu[i])
        if wu[i] < wv[j]:
            i += 1
        else:
            j += 1
    return None


def equal_weight_prefixes(u, v, g):
    """Nonempty prefixes of ``u`` and ``v`` of equal, minimal weight, by a
    two-pointer merge over their prefix-weight lists. A match is guaranteed
    whenever both words weigh at least ``m * n + 1`` with ``n = b_count(u +
    v)``; :class:`NoMatchError` is raised when there is none."""
    match = _match(prefix_sums(u, g.m), prefix_sums(v, g.m))
    if match is None:
        raise NoMatchError(
            f"words {u!r} and {v!r} have no nonempty prefixes of equal weight (m={g.m})"
        )
    return match


def reference_forward(w, p, g):
    """The forward shift on the split ``w = u . v`` at weight ``p``."""
    cut = cut_of_weight(w, p, g.m)
    return reference_shift(w[:cut], w[cut:], g.m)


def reference_inverse(w, p, g):
    """The inverse shift built directly: split ``w = U . V`` at weight
    ``p + 1`` and match suffixes of ``U`` against prefixes of ``V``."""
    cut = cut_of_weight(w, p + 1, g.m)
    big_u, big_v = w[:cut], w[cut:]
    # prefixes of 'a' + V encode prefixes of V shifted up by 1
    match = equal_weight_prefixes(big_u[::-1], "a" + big_v, g)
    s_len = match.u_prefix_len
    t_len = match.v_prefix_len - 1
    u_rest, s = big_u[: len(big_u) - s_len], big_u[len(big_u) - s_len :]
    t, v_rest = big_v[:t_len], big_v[t_len:]
    return u_rest + t[::-1] + s[::-1] + v_rest


def reference_shift(u, v, m):
    """The shift as a two-pointer merge of the prefix-weight lists of ``v``
    and of ``'a' + rev(u)``: a weight-``t`` prefix of the latter encodes a
    suffix of ``u`` of weight ``t - 1``, the empty one included."""
    match = _match(prefix_sums(v, m), prefix_sums("a" + u[::-1], m))
    if match is None:
        raise NoMatchError(
            f"no prefix y of {v!r} and suffix x of {u!r} with weight(y) = weight(x) + 1 (m={m})"
        )
    y_len = match.u_prefix_len
    x_len = match.v_prefix_len - 1
    y, v_rest = v[:y_len], v[y_len:]
    u_rest, x = u[: len(u) - x_len], u[len(u) - x_len :]
    return u_rest + y[::-1] + x[::-1] + v_rest


def outcome(apply, *args):
    """The result of ``apply(*args)``, or the type and message it raised."""
    try:
        return apply(*args)
    except Exception as exc:
        return type(exc), str(exc)


def reference_factorize(w, p, g):
    """Shortest prefix of weight at least ``p`` by a letter-by-letter sum;
    ``None`` when the whole word weighs less than ``p``."""
    if p == 0:
        return "", w
    acc = 0
    for i, letter in enumerate(w):
        acc += weight(letter, g)
        if acc >= p:
            return w[: i + 1], w[i + 1 :]
    return None


def test_equal_weight_prefixes_examples():
    # weight sets {1,3} and {2,3}: minimal common value 3
    assert equal_weight_prefixes("ab", "ba", Grading(1)) == PrefixMatch(2, 2, 3)
    assert equal_weight_prefixes("a", "ab", Grading(0)) == PrefixMatch(1, 1, 1)
    # no common value at all: {2} vs {1}
    with pytest.raises(NoMatchError):
        equal_weight_prefixes("b", "a", Grading(1))


def test_equal_weight_prefixes_outside_guarantee():
    # the weight hypotheses fail here (weight 2 < m*n + 1 = 3) yet a common
    # prefix weight happens to exist; the matcher still reports the minimum
    assert equal_weight_prefixes("b", "ba", Grading(1)).common_weight == 2


def test_equal_weight_prefixes_minimality_exhaustive():
    for m in range(3):
        g = Grading(m)
        for u in all_words(5):
            wu = set(prefix_weights(u, g))
            for v in all_words(4):
                common = wu & set(prefix_weights(v, g))
                if common:
                    match = equal_weight_prefixes(u, v, g)
                    assert match.common_weight == min(common)
                    assert prefix_weights(u, g)[match.u_prefix_len - 1] == min(common)
                    assert prefix_weights(v, g)[match.v_prefix_len - 1] == min(common)
                else:
                    with pytest.raises(NoMatchError):
                        equal_weight_prefixes(u, v, g)


def test_equal_weight_prefixes_guaranteed_under_hypotheses():
    # whenever both weights reach m*n + 1, a match must exist
    for m in range(3):
        g = Grading(m)
        for u in all_words(5):
            if not u:
                continue
            for v in all_words(5):
                if not v:
                    continue
                n = b_count(u + v)
                if weight(u, g) >= m * n + 1 and weight(v, g) >= m * n + 1:
                    equal_weight_prefixes(u, v, g)  # must not raise


def test_theorem1_forward_examples():
    g = Grading(1)
    assert theorem1_forward("ab", 1, 1, g) == "ba"
    assert theorem1_forward("bba", 2, 1, g) == "abb"
    assert theorem1_forward("bab", 2, 1, g) == "bab"


def test_theorem1_inverse_examples():
    g = Grading(1)
    assert theorem1_inverse("ba", 1, 1, g) == "ab"
    assert theorem1_inverse("abb", 2, 1, g) == "bba"
    assert theorem1_inverse("bab", 2, 1, g) == "bab"


def test_theorem1_domain_errors():
    g = Grading(1)
    with pytest.raises(NotInDomainError):
        theorem1_forward("ba", 1, 1, g)  # no prefix of weight 1
    with pytest.raises(NotInDomainError):
        theorem1_forward("ab", 0, 1, g)  # p < m*n
    with pytest.raises(NotInDomainError):
        theorem1_forward("ab", 1, 0, g)  # q < 1
    with pytest.raises(NotInDomainError):
        theorem1_forward("ab", 2, 1, g)  # wrong total weight
    with pytest.raises(NotInDomainError):
        theorem1_inverse("ab", 1, 1, g)  # no prefix of weight p + 1 = 2


def test_theorem1_roundtrip_invariant_ranges():
    for m in range(4):
        g = Grading(m)
        for n in range(5):
            for p in range(m * n, m * n + 6):
                for q in range(1, 6):
                    total = p + q + m * n
                    if p + q > 18:
                        continue
                    everything = enumerate_gamma(total, n, g)
                    domain = [w for w in everything if has_prefix_of_weight(w, p, g)]
                    codomain = {w for w in everything if has_prefix_of_weight(w, p + 1, g)}
                    images = set()
                    for w in domain:
                        out = theorem1_forward(w, p, q, g)
                        assert out in codomain
                        assert theorem1_inverse(out, p, q, g) == w
                        images.add(out)
                    assert images == codomain
                    for w in codomain:
                        assert theorem1_forward(theorem1_inverse(w, p, q, g), p, q, g) == w


def test_theorem1_forward_matches_reference():
    # every word of every in-domain class with m <= 3 and length <= 12
    checked = 0
    for w, p, q, g, _ in shift_cases(12, 0):
        assert theorem1_forward(w, p, q, g) == reference_forward(w, p, g)
        checked += 1
    assert checked > 100_000


def test_theorem1_inverse_matches_reference():
    # every word of every in-domain class with m <= 3 and length <= 12
    checked = 0
    for w, p, q, g, _ in shift_cases(12, 1):
        assert theorem1_inverse(w, p, q, g) == reference_inverse(w, p, g)
        checked += 1
    assert checked > 100_000


@pytest.mark.parametrize("apply, offset, letter", [
    (theorem1_forward, 0, lambda w, cut: w[cut]),
    (theorem1_inverse, 1, lambda w, cut: w[cut - 1]),
], ids=["forward", "inverse"])
def test_theorem1_fixed_points(apply, offset, letter):
    # a map fixes w exactly when the letter next to its cut weighs 1: forward,
    # the letter after the weight-p prefix; inverse, the last letter of the
    # weight-(p + 1) prefix
    fixed = moved = 0
    for w, p, q, g, cut in shift_cases(10, offset):
        light = g.m == 0 or letter(w, cut) == "a"
        assert (apply(w, p, q, g) == w) == light, (w, p, q, g)
        fixed += light
        moved += not light
    assert (fixed, fixed + moved) == (23_373, 26_776)


def trace_budget(call, budget):
    """``call()``, stopped with an AssertionError once it has run ``budget``
    traced events (lines, calls and returns)."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += 1
        if events > budget:
            raise AssertionError(f"more than {budget} traced events")
        return count

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        return call()
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize("apply, args, want", [
    (factorize_at_least, ("ab", 2), ("ab", "")),
    (factorize_at_least, ("ba", 10**18), ("b", "a")),
    (decompose, ("aaa", 1, 2), BranchA("aaa")),
    (has_prefix_of_weight, ("ab", 2), False),
    (has_prefix_of_weight, ("ba", 10**18 + 2), True),
    (theorem1_forward, ("aaa", 1, 2), "aaa"),
    (theorem1_inverse, ("aaa", 1, 2), "aaa"),
])
def test_work_does_not_grow_with_m(apply, args, want):
    # a b weighs 10**18 + 1 here; a scan that stepped or spelled out its
    # weight letter by letter would never return
    assert trace_budget(lambda: apply(*args, Grading(10**18)), 500) == want


def test_shift_walk_matches_reference():
    # every split, the ones without equal-weight prefixes included
    for m in range(4):
        for u in all_words(5):
            for v in all_words(5):
                assert outcome(bijections._shift, u, v, m) == outcome(reference_shift, u, v, m)


def test_theorem1_maps_match_reference(monkeypatch):
    # every word up to length 10, at every p with the q that fits its weight,
    # plus words with a foreign letter; the reference rejects those itself
    cases = []
    for m in range(4):
        g = Grading(m)
        for w in [*all_words(10), "c", "abc", "bca", "abab?", "bbac"]:
            n, total = w.count("b"), len(w) + m * w.count("b")
            cases += [(w, p, total - p - m * n, g) for p in range(-1, total + 2)]

    def reference(apply, w, p, q, g):
        if set(w) - {"a", "b"}:
            return ValueError, f"word {w!r} contains letters other than 'a'/'b'"
        return outcome(apply, w, p, q, g)

    for apply in (theorem1_forward, theorem1_inverse):
        got = [outcome(apply, *case) for case in cases]
        with monkeypatch.context() as patch:
            patch.setattr(bijections, "_shift", reference_shift)
            want = [reference(apply, *case) for case in cases]
        assert got == want
        assert sum(isinstance(out, str) for out in got) > 10_000


def test_prefix_scan_matches_reference():
    for m in range(4):
        g = Grading(m)
        for w in all_words(10):
            for p in range(weight(w, g) + 2):
                expected = reference_factorize(w, p, g)
                if expected is None:
                    with pytest.raises(NotInDomainError):
                        factorize_at_least(w, p, g)
                    assert prefix_length_of_weight(w, p, g) is None
                    continue
                assert factorize_at_least(w, p, g) == expected
                u = expected[0]
                exact = len(u) if weight(u, g) == p else None
                assert prefix_length_of_weight(w, p, g) == exact


def test_factorize_at_least_examples():
    g = Grading(1)
    assert factorize_at_least("ba", 1, g) == ("b", "a")
    assert factorize_at_least("ab", 1, g) == ("a", "b")
    assert factorize_at_least("abba", 0, g) == ("", "abba")


def test_factorize_at_least_properties():
    for m in range(4):
        g = Grading(m)
        for w in all_words(6):
            for p in range(weight(w, g) + 1):
                u, v = factorize_at_least(w, p, g)
                assert u + v == w
                overshoot = weight(u, g) - p
                assert 0 <= overshoot <= m
                if overshoot > 0:
                    assert u.endswith("b")
                # u is the shortest such prefix
                if u:
                    assert weight(u[:-1], g) < p


def test_factorize_at_least_errors():
    with pytest.raises(NotInDomainError):
        factorize_at_least("ab", 5, Grading(1))
    with pytest.raises(NotInDomainError):
        factorize_at_least("ab", -1, Grading(1))
    # the whole word is validated, not only the letters the scan reads
    with pytest.raises(ValueError):
        factorize_at_least("axyz", 1, Grading(1))
    with pytest.raises(ValueError):
        factorize_at_least("xa", 1, Grading(1))


def test_decompose_examples():
    g = Grading(1)
    assert decompose("ab", 1, 1, g) == BranchA("ab")
    assert decompose("ba", 1, 1, g) == BranchB(j=1, k=1, u_prime="", v="a")
    # prefix weights of "bba" are [2, 4, 5]; the shortest prefix of weight
    # >= 2 is "b" and it hits 2 exactly, so the word stays whole
    assert decompose("bba", 2, 1, g) == BranchA("bba")


def test_compose_examples():
    g1 = Grading(1)
    assert compose(BranchB(j=1, k=1, u_prime="", v="a"), 1, 1, g1) == "ba"
    assert compose(BranchA("ab"), 1, 1, g1) == "ab"
    g2 = Grading(2)
    composed = compose(BranchB(j=2, k=1, u_prime="", v="aa"), 1, 2, g2)
    assert composed == "baa"
    assert weight(composed, g2) == 5 and b_count(composed) == 1


def test_compose_invariant_violations():
    g = Grading(1)
    with pytest.raises(InvariantViolationError):
        compose(BranchB(j=2, k=1, u_prime="", v="a"), 1, 1, g)  # j > m
    with pytest.raises(InvariantViolationError):
        compose(BranchB(j=1, k=1, u_prime="a", v="a"), 1, 1, g)  # wrong u' weight
    with pytest.raises(InvariantViolationError):
        compose(BranchA("ba"), 1, 1, g)  # no prefix of weight 1
    with pytest.raises(InvariantViolationError):
        compose(BranchA("ab"), 1, 0, g)  # q < 1
    with pytest.raises(InvariantViolationError, match=r"^k=0 outside \[1, 1\]$"):
        compose(BranchB(j=1, k=0, u_prime="", v="a"), 1, 1, g)  # k < 1
    with pytest.raises(InvariantViolationError, match=r"^v='aa' is not in the class of weight 1"):
        compose(BranchB(j=1, k=1, u_prime="", v="aa"), 1, 1, g)  # wrong v weight


def test_decompose_compose_roundtrip_invariant_ranges():
    for m in range(4):
        g = Grading(m)
        for n in range(5):
            for p in range(m * n, m * n + 6):
                for q in range(1, 6):
                    if p + q > 18:
                        continue
                    total = p + q + m * n
                    seen = set()
                    for w in enumerate_gamma(total, n, g):
                        d = decompose(w, p, q, g)
                        assert compose(d, p, q, g) == w
                        assert d not in seen
                        seen.add(d)
                        if isinstance(d, BranchB):
                            assert 1 <= d.j <= m
                            assert 1 <= d.k <= n
                            assert weight(d.u_prime, g) == p + d.j - m - 1
                            assert b_count(d.u_prime) == d.k - 1
                            assert weight(d.v, g) == q + m * n - d.j
                            assert b_count(d.v) == n - d.k
                        else:
                            assert has_prefix_of_weight(d.w, p, g)


def test_bijections_preserve_weight_and_bcount():
    g = Grading(2)
    p, q, n = 4, 3, 2
    total = p + q + g.m * n
    for w in enumerate_gamma(total, n, g):
        if has_prefix_of_weight(w, p, g):
            out = theorem1_forward(w, p, q, g)
            assert weight(out, g) == weight(w, g)
            assert b_count(out) == b_count(w)


def test_bijections_reject_foreign_letters():
    g = Grading(1)
    with pytest.raises(ValueError):
        theorem1_forward("abc", 1, 1, g)
    with pytest.raises(ValueError):
        theorem1_inverse("bca", 1, 1, g)
    with pytest.raises(ValueError):
        decompose("bc", 1, 1, g)
    with pytest.raises(ValueError):
        compose(BranchA("ac"), 1, 1, g)
    with pytest.raises(ValueError):
        compose(BranchB(j=1, k=1, u_prime="", v="c"), 1, 1, g)
    with pytest.raises(ValueError):
        compose(BranchB(j=1, k=1, u_prime="c", v="a"), 1, 1, g)


def test_bijections_validate_each_input_word_once(monkeypatch):
    # steps on slices of an already checked word use plain str operations
    calls = []

    def counting_b_count(w):
        calls.append(w)
        return b_count(w)

    monkeypatch.setattr(bijections, "b_count", counting_b_count)
    g = Grading(1)
    for w in enumerate_gamma(9, 2, g):
        for apply in (theorem1_forward, theorem1_inverse, decompose):
            calls.clear()
            try:
                out = apply(w, 3, 2, g)
            except NotInDomainError:
                continue
            assert calls == [w]
            if apply is decompose:
                calls.clear()
                assert compose(out, 3, 2, g) == w
                parts = [out.w] if isinstance(out, BranchA) else [out.u_prime, out.v]
                assert calls == parts


def refusals(apply, w, p, q, m):
    """``(check, type, message)`` of every check that ``apply(w, p, q,
    Grading(m))`` fails, in the order the maps run them: the letters, the
    shift domain, the length, then (shift maps only) the prefix. Worked out
    with plain string tests; a word that is no string fails only the first."""
    if not isinstance(w, str):
        return [("letters", ValueError, f"word {w!r} is not a string")]
    found = []
    if set(w) - {"a", "b"}:
        found.append(("letters", ValueError, f"word {w!r} contains letters other than 'a'/'b'"))
    n, extra = w.count("b"), m * w.count("b")
    if not identities.shift_domain(p, q, m, n):
        found.append(("domain", NotInDomainError,
                      f"need p >= m*n and q >= 1, got p={p}, q={q}, m={m}, n={n}"))
    if len(w) != p + q:
        found.append(("length", NotInDomainError,
                      f"word {w!r} has weight {len(w) + extra}, expected {p + q + extra}"))
    r = {theorem1_forward: p, theorem1_inverse: p + 1}.get(apply)
    if r is not None and cut_of_weight(w, r, m) is None:
        found.append(("prefix", NotInDomainError, f"word {w!r} has no prefix of weight {r} (m={m})"))
    return found


def test_refusals_keep_their_order():
    # seeded inputs near the domain's edges, many breaking several checks at
    # once; each map raises the refusal of the first check that fails
    rng = random.Random(30)
    first, several = Counter(), 0
    for _ in range(4000):
        m = rng.randrange(3)
        w = "".join(rng.choice("ab") for _ in range(rng.randrange(9)))
        kind = rng.randrange(8)
        if kind == 0:
            w = rng.choice([None, 7, list(w), w.encode()])
        elif kind == 1:
            at = rng.randrange(len(w) + 1)
            w = w[:at] + rng.choice("cA? ") + w[at:]
        length = len(w) if isinstance(w, (str, list, bytes)) else 3
        # p from just below the domain's bound m n up to the whole length
        low = m * w.count("b") if isinstance(w, str) else 0
        p = rng.randint(min(low, length) - 1, length)
        q = length - p + rng.choice((0, 0, 0, -1, 1))
        for apply in (theorem1_forward, theorem1_inverse, decompose):
            found = refusals(apply, w, p, q, m)
            if found:
                check, *want = found[0]
                assert outcome(apply, w, p, q, Grading(m)) == tuple(want), (apply, w, p, q, m)
            else:
                check = "none"
                apply(w, p, q, Grading(m))
            first[check] += 1
            several += len(found) > 1
    assert set(first) == {"letters", "domain", "length", "prefix", "none"}
    assert min(first.values()) > 150 and several > 1000, (first, several)


def test_no_prefix_scan_at_m0(monkeypatch):
    # at m = 0 every letter weighs 1: the three maps split a word at the
    # requested weight without scanning it, and agree with the scan
    g = Grading(0)
    classes = ((12, 6), (11, 3), (7, 7), (4, 0), (1, 0))
    cases = [(w, p, length - p, g) for length, n in classes
             for w in enumerate_gamma(length, n, g) for p in range(length)]
    maps = (theorem1_forward, theorem1_inverse, decompose)
    scanned = [apply(*case) for apply in maps for case in cases]
    # both shift maps are the identity, and decompose gives branch A
    assert scanned == [w for _ in maps[:2] for w, *_ in cases] + [BranchA(w) for w, *_ in cases]

    def no_scan(w, r, m):
        raise AssertionError(f"scanned {w!r} for weight {r} (m={m})")

    monkeypatch.setattr(bijections, "_prefix_at_least", no_scan)
    assert [apply(*case) for apply in maps for case in cases] == scanned
