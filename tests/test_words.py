import math

import pytest
from hypothesis import given, strategies as st

from rothe_lab import (
    CapExceededError,
    Grading,
    b_count,
    enumerate_gamma,
    enumerate_gamma_prefix,
    has_prefix_of_weight,
    inversions,
    prefix_weights,
    weight,
    words,
)

words_st = st.text(alphabet="ab", max_size=14)
gradings_st = st.integers(min_value=0, max_value=3).map(Grading)


def comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def test_grading_validation():
    assert weight("b", Grading(0)) == 1
    assert weight("b", Grading(2)) == 3
    assert weight("a", Grading(2)) == 1
    with pytest.raises(ValueError):
        Grading(-1)
    with pytest.raises(ValueError):
        weight("c", Grading(1))


def test_bad_letters_rejected():
    with pytest.raises(ValueError):
        weight("abc", Grading(0))
    with pytest.raises(ValueError):
        inversions("ba x")


@pytest.mark.parametrize("w", [None, ["a", "b"], ("b",), 7])
def test_b_count_refuses_a_non_string(w):
    # a list of letters has a count method, and would be counted as a word
    with pytest.raises(ValueError, match="is not a string"):
        b_count(w)


def test_weight_examples():
    assert weight("", Grading(1)) == 0
    assert weight("ab", Grading(1)) == 3
    assert weight("bab", Grading(2)) == 7


@given(words_st, words_st, gradings_st)
def test_weight_is_additive(u, v, g):
    assert weight(u + v, g) == weight(u, g) + weight(v, g)


def test_prefix_weights_examples():
    assert prefix_weights("ab", Grading(1)) == [1, 3]
    assert prefix_weights("bba", Grading(1)) == [2, 4, 5]
    assert prefix_weights("", Grading(0)) == []


@given(words_st, gradings_st)
def test_prefix_weights_strictly_increasing(w, g):
    seq = prefix_weights(w, g)
    assert all(a < b for a, b in zip(seq, seq[1:]))
    if w:
        assert seq[-1] == weight(w, g)


def test_enumerate_gamma_examples():
    assert set(enumerate_gamma(5, 1, Grading(2))) == {"baa", "aba", "aab"}
    assert len(enumerate_gamma(5, 1, Grading(2))) == 3 == comb0(3, 1)
    assert set(enumerate_gamma(3, 1, Grading(1))) == {"ab", "ba"}
    assert enumerate_gamma(0, 0, Grading(3)) == [""]
    # negative letter counts give the empty class
    assert enumerate_gamma(1, 1, Grading(1)) == []
    assert enumerate_gamma(3, -1, Grading(0)) == []


def test_enumerate_gamma_is_lexicographic():
    for m in range(3):
        for p in range(9):
            for k in range(4):
                listing = enumerate_gamma(p, k, Grading(m))
                assert listing == sorted(listing)
                assert len(set(listing)) == len(listing)


def test_enumerate_gamma_class_membership():
    g = Grading(2)
    for w in enumerate_gamma(9, 2, g):
        assert weight(w, g) == 9
        assert b_count(w) == 2


def test_enumerate_gamma_counts_match_binomial():
    for m in range(4):
        g = Grading(m)
        for p in range(15):
            for k in range(5):
                assert len(enumerate_gamma(p, k, g)) == comb0(p - k * m, k)


def test_enumerate_gamma_length_cap(monkeypatch):
    assert len(enumerate_gamma(26, 0, Grading(0))) == 1
    with pytest.raises(CapExceededError):
        enumerate_gamma(27, 0, Grading(0))
    # the cap is read on each call
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 30)
    assert enumerate_gamma(30, 1, Grading(0))
    # emptiness wins over the cap: no work is attempted
    assert enumerate_gamma(30, 40, Grading(0)) == []


def test_has_prefix_of_weight_examples():
    g = Grading(1)
    assert has_prefix_of_weight("ab", 1, g)
    assert not has_prefix_of_weight("ba", 1, g)
    for w in ("", "a", "bba"):
        assert has_prefix_of_weight(w, 0, Grading(2))


def test_enumerate_gamma_prefix_examples():
    g = Grading(1)
    assert enumerate_gamma_prefix(3, 1, 1, g) == ["ab"]
    assert enumerate_gamma_prefix(3, 1, 2, g) == ["ba"]
    assert set(enumerate_gamma_prefix(5, 2, 2, g)) == {"bab", "bba"}


def test_factorization_count_identity():
    # splitting a word at its weight-p prefix factors the prefixed class into
    # pairs of smaller classes, so cardinalities multiply and sum over k
    for m in range(4):
        g = Grading(m)
        for n in range(5):
            for total in range(2 * m * n, 19):
                prefix_sets = None
                for p in range(m * n, total - m * n + 1):
                    q = total - p
                    if prefix_sets is None:
                        prefix_sets = [
                            set(prefix_weights(w, g)) | {0}
                            for w in enumerate_gamma(total, n, g)
                        ]
                    expected = sum(
                        comb0(p - k * m, k) * comb0(q - (n - k) * m, n - k)
                        for k in range(n + 1)
                    )
                    got = sum(1 for s in prefix_sets if p in s)
                    assert got == expected, (m, n, p, q)


def test_inversions_examples():
    assert inversions("ab") == 0
    assert inversions("ba") == 1
    assert inversions("bba") == 2


@given(words_st, words_st)
def test_inversions_concatenation_rule(u, v):
    a_count_v = len(v) - v.count("b")
    assert inversions(u + v) == inversions(u) + inversions(v) + u.count("b") * a_count_v

