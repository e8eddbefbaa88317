import contextlib
import copy
import functools
import io
import math
import pickle
import random
import shlex
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rothe_lab import (
    MAX_WORD_LENGTH,
    CapExceededError,
    Grading,
    LaurentPolynomial,
    ParameterError,
    UnsupportedArgumentError,
    check_cardinality,
    check_invw,
    check_qchu,
    check_qchu_m1,
    enumerate_gamma,
    gaussian_binomial,
    inv_generating_function,
    inversions,
    qweighted_bijection_check,
)
from rothe_lab import cli, qseries, words
from rothe_lab.qseries import qchu_m1_term, qchu_term

ONE_PLUS_Q = LaurentPolynomial({0: 1, 1: 1})


def test_lp_op_examples():
    assert ONE_PLUS_Q.shift(-1) == LaurentPolynomial({-1: 1, 0: 1})
    one_minus_q = LaurentPolynomial({0: 1, 1: -1})
    assert ONE_PLUS_Q * one_minus_q == LaurentPolynomial({0: 1, 2: -1})
    assert ONE_PLUS_Q + 0 == ONE_PLUS_Q
    assert 3 + LaurentPolynomial({2: 1}) == LaurentPolynomial({0: 3, 2: 1})


def test_lp_arithmetic_and_canonical_form():
    p = LaurentPolynomial({2: 5, -1: 3})
    assert p - p == LaurentPolynomial()
    assert not p - p
    assert p + 0 == p and 0 + p == p
    assert 2 * p == p + p
    assert LaurentPolynomial({0: 0, 3: 0}) == LaurentPolynomial()
    assert LaurentPolynomial([(1, 2), (1, -2), (0, 1)]) == 1
    assert hash(p) == hash(LaurentPolynomial({-1: 3, 2: 5}))


def test_lp_str_forms():
    assert str(LaurentPolynomial()) == "0"
    assert str(LaurentPolynomial({0: -3})) == "-3"
    assert str(ONE_PLUS_Q) == "1+q"
    assert str(LaurentPolynomial({-1: 1, 0: 1})) == "q^-1+1"
    assert str(LaurentPolynomial({0: 1, 2: -1})) == "1-q^2"
    assert str(LaurentPolynomial({2: 2, 3: 1})) == "2q^2+q^3"


def str_by_concatenation(poly):
    """The piecewise ``+=`` rendering that ``LaurentPolynomial.__str__``
    replaced, kept as its oracle."""
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    pieces = []
    for exponent, coeff in terms:
        mag = abs(coeff)
        if exponent == 0:
            body = str(mag)
        else:
            power = "q" if exponent == 1 else f"q^{exponent}"
            body = power if mag == 1 else f"{mag}{power}"
        pieces.append(("-" if coeff < 0 else "+", body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def test_lp_str_matches_the_concatenation_oracle():
    rng = random.Random(15)
    polys = [
        LaurentPolynomial(),
        LaurentPolynomial({0: 1}),
        LaurentPolynomial({0: -1}),
        LaurentPolynomial({1: 1}),
        LaurentPolynomial({1: -1}),
        LaurentPolynomial({0: -1, 1: -1}),
        LaurentPolynomial({0: 1, 1: -1, 2: 1}),
        LaurentPolynomial({-2: -1, -1: 1, 0: -1, 1: 1, 3: -10**40}),
        LaurentPolynomial({-7: -3, -1: -1, 1: 2}),
        gaussian_binomial(25, 5),
        -gaussian_binomial(9, 4).shift(-20),
    ]
    for _ in range(200):
        span = rng.randint(1, 8)
        low = rng.randint(-5, 3)
        polys.append(LaurentPolynomial(
            {low + i: rng.choice((-2, -1, 0, 1, 2, rng.randint(-10**6, 10**6)))
             for i in range(span)}
        ))
    for poly in polys:
        expected = str_by_concatenation(poly)
        before = hash(poly)
        assert str(poly) == expected, repr(poly)
        # the text is kept: a second call returns it, and neither equality,
        # hashing nor a copy sees it
        assert str(poly) is str(poly)
        assert poly == LaurentPolynomial(poly.terms()) and hash(poly) == before
        for clone in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
            assert getattr(clone, "_text", None) is None
            assert clone == poly and hash(clone) == before and str(clone) == expected
        with pytest.raises(AttributeError):
            poly._text = "0"
        assert str(poly) == expected


@pytest.mark.parametrize("value", [0, 1, -1, -10**30 - 7, 7**200],
                         ids=["zero", "one", "minus-one", "large-negative", "huge"])
def test_lp_constant_hashes_as_its_int(value):
    for poly in (LaurentPolynomial({0: value}), LaurentPolynomial([(0, value)])):
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1 and {value: "int"}[poly] == "int"
    assert LaurentPolynomial() == 0 and len({LaurentPolynomial(), 0}) == 1
    assert LaurentPolynomial({1: 1}) != 1 and LaurentPolynomial({-1: 1}) != 1


def test_lp_json_serialization():
    p = LaurentPolynomial({2: 10**30, -1: -2})
    assert p.to_json_dict() == {"terms": [[-1, "-2"], [2, str(10**30)]]}


def test_lp_min_max_exponent():
    p = LaurentPolynomial({-3: 1, 4: 7})
    assert p.min_exponent() == -3 and p.max_exponent() == 4
    assert LaurentPolynomial().min_exponent() is None


def test_lp_is_immutable():
    p = LaurentPolynomial({1: 1})
    with pytest.raises(AttributeError):
        p._terms = {}
    p.terms()[1] = 99  # mutating the copy must not touch the polynomial
    assert p.coefficient(1) == 1


@pytest.mark.parametrize("poly", [LaurentPolynomial({1: 2, 3: -1}), LaurentPolynomial()],
                         ids=["poly", "zero"])
def test_lp_copies_and_pickles(poly):
    for clone in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert type(clone) is LaurentPolynomial
        assert (clone.min_exponent(), clone.sorted_terms()) == (poly.min_exponent(),
                                                               poly.sorted_terms())
    report = check_qchu(4, 2, 1, 2)
    clone = pickle.loads(pickle.dumps(report))
    assert clone == report and clone.passed and str(clone.lhs) == str(report.lhs)


def test_lp_keeps_its_height():
    rng = random.Random(27)
    polys = [LaurentPolynomial({0: c}) for c in (1, -1, 7, -10**30)]
    polys += [gaussian_binomial(9, 4), -gaussian_binomial(9, 4).shift(-3)]
    for _ in range(200):
        low = rng.randint(-5, 3)
        polys.append(LaurentPolynomial(
            {low + i: rng.choice((-2, -1, 0, 1, 2, rng.randint(-10**40, 10**40)))
             for i in range(rng.randint(1, 8))}
        ))
    polys = [poly for poly in polys if poly]
    assert any(qseries._height_of(p)[1] for p in polys)
    assert not all(qseries._height_of(p)[1] for p in polys)
    for poly in polys:
        before = hash(poly)
        coeffs = [poly.coefficient(e) for e in range(poly.min_exponent(), poly.max_exponent() + 1)]
        height = qseries._height_of(poly)
        assert height == (max(map(abs, coeffs)), min(coeffs) < 0), repr(poly)
        # kept: the second call returns it, and neither equality, hashing nor
        # a copy sees it
        assert qseries._height_of(poly) is height
        assert poly == LaurentPolynomial(poly.terms()) and hash(poly) == before
        for clone in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
            assert getattr(clone, "_height", None) is None
            assert clone == poly and hash(clone) == before
            assert qseries._height_of(clone) == height
        with pytest.raises(AttributeError):
            poly._height = (0, False)
        assert qseries._height_of(poly) is height
    assert qseries._height_of(LaurentPolynomial()) == (0, False)


def test_construction_survives_a_wrapped_init(monkeypatch):
    # a tracer counts constructions by wrapping __init__ in a pass-through of
    # its arguments; a constructor moved to __new__ would hand them on to
    # object.__init__, which raises TypeError
    init = LaurentPolynomial.__init__
    calls = []

    @functools.wraps(init)
    def counted(*args, **kwargs):
        calls.append(args)
        return init(*args, **kwargs)

    monkeypatch.setattr(LaurentPolynomial, "__init__", counted)
    assert LaurentPolynomial({1: 2}).terms() == {1: 2}
    assert check_invw(6, 2, 1).passed
    assert qweighted_bijection_check(2, 1, 1, 2).passed
    assert calls


def test_lp_rejects_foreign_types():
    with pytest.raises(TypeError):
        ONE_PLUS_Q + "q"
    with pytest.raises(TypeError):
        "q" + ONE_PLUS_Q
    with pytest.raises(TypeError):
        ONE_PLUS_Q * 1.5
    with pytest.raises(TypeError):
        1.5 * ONE_PLUS_Q
    with pytest.raises(TypeError):
        ONE_PLUS_Q - "q"
    assert ONE_PLUS_Q != "1+q"


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1) == ONE_PLUS_Q
    assert gaussian_binomial(4, 2) == LaurentPolynomial({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert not gaussian_binomial(3, 5)
    assert not gaussian_binomial(5, -1)
    assert gaussian_binomial(0, 0) == 1
    with pytest.raises(UnsupportedArgumentError):
        gaussian_binomial(-1, 2)


def pascal_gaussian_table(size: int) -> list[list[list[int]]]:
    """``table[a][k]`` holds the coefficients of ``[a, k]`` from ``q^0`` up,
    built row by row from the Pascal recurrence
    ``[a, k] = [a-1, k-1] + q^k [a-1, k]``: no recursion, no cache."""
    table = [[[1]]]
    for a in range(1, size + 1):
        above = table[-1]
        row = [[1]]
        for k in range(1, a + 1):
            coeffs = [0] * (k * (a - k) + 1)
            for e, c in enumerate(above[k - 1]):
                coeffs[e] += c
            if k < a:
                for e, c in enumerate(above[k]):
                    coeffs[e + k] += c
            row.append(coeffs)
        table.append(row)
    return table


def test_gaussian_binomial_matches_pascal_oracle():
    table = pascal_gaussian_table(30)
    for a, row in enumerate(table):
        for k, coeffs in enumerate(row):
            expected = [(e, c) for e, c in enumerate(coeffs) if c]
            assert gaussian_binomial(a, k).sorted_terms() == expected, (a, k)


def test_gaussian_binomial_edges():
    for a in range(6):
        assert not gaussian_binomial(a, -1)
        assert not gaussian_binomial(a, -3)
        assert not gaussian_binomial(a, a + 1)
        assert not gaussian_binomial(a, a + 4)
    assert not gaussian_binomial(-2, -1)
    for k in range(3):
        with pytest.raises(UnsupportedArgumentError):
            gaussian_binomial(-1, k)


def test_gaussian_binomial_large_a_at_q1():
    gaussian_binomial.cache_clear()
    p = gaussian_binomial(2000, 3)
    assert p.value_at_one() == math.comb(2000, 3)
    assert p.max_exponent() == 3 * 1997


def test_check_qchu_tall_x_regression():
    # once a RecursionError: the bracket [1101, 2] was built about 1100
    # calls deep; runs at the interpreter's default recursion limit
    gaussian_binomial.cache_clear()
    rep = check_qchu(1100, 1, 0, 2)
    assert rep.passed and rep.lhs == gaussian_binomial(1101, 2)


def test_gaussian_binomial_at_q1_matches_comb():
    for a in range(31):
        for k in range(a + 1):
            assert gaussian_binomial(a, k).value_at_one() == math.comb(a, k)


def test_gaussian_binomial_symmetry_and_palindrome():
    for a in range(21):
        for k in range(a + 1):
            p = gaussian_binomial(a, k)
            assert p == gaussian_binomial(a, a - k)
            coeffs = [c for _, c in p.sorted_terms()]
            assert all(c > 0 for c in coeffs)
            assert coeffs == coeffs[::-1]
            if k:
                assert p.max_exponent() == k * (a - k)


@pytest.mark.parametrize("argv", [
    "verify --identity qchu --x=3..17 --y=1..7 --m=0..2 --n=0..5",
    "verify --identity invw --p=0..12 --k=0..4 --m=0..2",
])
def test_gaussian_binomial_returns_one_object_per_value(monkeypatch, argv):
    # [a, k] for k > a - k is the cached [a, a - k], and every zero and every
    # one bracket is a shared constant: no value is built or held twice
    returned = []
    cached = qseries.gaussian_binomial

    def spy(a, k):
        returned.append(cached(a, k))
        return returned[-1]

    cached.cache_clear()
    monkeypatch.setattr(qseries, "gaussian_binomial", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(shlex.split(argv)) == 0
    assert len({id(value) for value in returned}) == len(set(returned))


def test_inv_generating_function_examples():
    assert inv_generating_function(3, 1, Grading(1)) == ONE_PLUS_Q
    assert inv_generating_function(0, 0, Grading(2)) == 1
    assert inv_generating_function(5, 2, Grading(1)) == LaurentPolynomial(
        {0: 1, 1: 1, 2: 1}
    )


def reference_inv_gf(p, k, g):
    """The inversion generating function word by word, over the strings."""
    counts = Counter()
    for w in enumerate_gamma(p, k, g):
        counts[inversions(w)] += 1
    return LaurentPolynomial(counts)


def test_inv_generating_function_matches_reference():
    # every class with m <= 3 and word length <= 14
    for m in range(4):
        g = Grading(m)
        for length in range(15):
            for k in range(length + 1):
                p = length + m * k
                assert inv_generating_function(p, k, g) == reference_inv_gf(p, k, g)
    # empty classes: k < 0, or too few letters for k letters b
    for m in range(4):
        for p in range(-2, 7):
            for k in range(-2, 5):
                assert inv_generating_function(p, k, Grading(m)) == reference_inv_gf(
                    p, k, Grading(m)
                ), (p, k, m)


@pytest.mark.parametrize("p, k, m, max_length", [
    (27, 0, 0, MAX_WORD_LENGTH), (40, 5, 2, MAX_WORD_LENGTH), (9, 2, 1, 6), (7, 7, 0, 6),
])
def test_inv_generating_function_cap_matches_reference(monkeypatch, p, k, m, max_length):
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", max_length)
    with pytest.raises(CapExceededError) as got:
        inv_generating_function(p, k, Grading(m))
    with pytest.raises(CapExceededError) as want:
        reference_inv_gf(p, k, Grading(m))
    assert str(got.value) == str(want.value)


def test_word_class_oracles_hold_no_class():
    # the 705,432 words of C(22, 11) take about 50 MB as a list of strings
    tracemalloc.start()
    try:
        rhs = gaussian_binomial(22, 11)
        tracemalloc.reset_peak()
        assert inv_generating_function(22, 11, Grading(0)) == rhs
        assert tracemalloc.get_traced_memory()[1] < 5_000_000
        tracemalloc.reset_peak()
        assert check_cardinality(22, 11, 0).passed
        assert tracemalloc.get_traced_memory()[1] < 5_000_000
    finally:
        tracemalloc.stop()


def test_check_invw_examples():
    assert check_invw(3, 1, 1).passed
    assert check_invw(5, 2, 1).passed
    rep = check_invw(4, 0, 2)
    assert rep.passed and rep.lhs == 1


def test_check_invw_small_exhaustive():
    for m in range(3):
        for k in range(4):
            for p in range(k * m, 13):
                assert check_invw(p, k, m).passed, (p, k, m)


def test_check_qchu_examples():
    rep = check_qchu(1, 1, 0, 1)
    assert rep.passed and rep.lhs == ONE_PLUS_Q
    rep = check_qchu(2, 1, 1, 1)
    assert rep.passed and rep.lhs == LaurentPolynomial({0: 1, 1: 1, 2: 1})
    rep = check_qchu(0, 3, 0, 0)
    assert rep.passed and rep.lhs == 1


def test_check_qchu_parameter_errors():
    with pytest.raises(ParameterError):
        check_qchu(1, 1, 1, 2)  # x < m*n
    with pytest.raises(ParameterError):
        check_qchu(2, 0, 1, 1)  # y < 1
    with pytest.raises(ParameterError):
        check_qchu(2, 1, 1, -1)


def test_check_qchu_m1_examples():
    rep = check_qchu_m1(2, 1, 1)
    assert rep.passed and rep.lhs == gaussian_binomial(3, 1)
    rep = check_qchu_m1(1, 1, 0)
    assert rep.passed and rep.lhs == 1
    assert check_qchu_m1(3, 2, 2).passed


def reference_qchu_m1_term(x: int, y: int, n: int, k: int) -> LaurentPolynomial:
    """The ``k``-th summand of the ``m = 1`` form, written out by hand with the
    schoolbook product: ``q^{k(2k+y-n)} ([x-k, k] [y+k, n-k]
    + q^{-k} [x-k, k-1] [y+k-1, n-k])``."""
    term = reference_mul(gaussian_binomial(x - k, k), gaussian_binomial(y + k, n - k))
    lowered = reference_mul(gaussian_binomial(x - k, k - 1),
                            gaussian_binomial(y + k - 1, n - k))
    return (term + lowered.shift(-k)).shift(k * (2 * k + y - n))


def test_qchu_m1_matches_general_term_by_term():
    for x in range(1, 6):
        for y in range(1, 5):
            for n in range(0, min(x, 4) + 1):
                total = LaurentPolynomial()
                for k in range(n + 1):
                    expected = reference_qchu_m1_term(x, y, n, k)
                    assert qchu_m1_term(x, y, n, k) == expected, (x, y, n, k)
                    assert qchu_term(x, y, 1, n, k) == expected, (x, y, n, k)
                    total = total + expected
                general = check_qchu(x, y, 1, n)
                special = check_qchu_m1(x, y, n)
                assert general.passed and special.passed
                assert general.lhs == special.lhs == total


def test_qchu_lhs_is_plain_polynomial():
    # negative powers of q appear inside individual summands but must cancel
    for m in range(3):
        for n in range(4):
            for x in range(m * n, m * n + 3):
                for y in range(1, 4):
                    lhs = check_qchu(x, y, m, n).lhs
                    assert not lhs or lhs.min_exponent() >= 0


def test_qweighted_bijection_check_examples():
    rep = qweighted_bijection_check(1, 1, 1, 1)
    assert rep.passed and rep.lhs == ONE_PLUS_Q
    rep = qweighted_bijection_check(2, 1, 1, 2)
    assert rep.passed and rep.lhs == gaussian_binomial(3, 2)
    rep = qweighted_bijection_check(0, 1, 0, 0)
    assert rep.passed and rep.lhs == 1


def test_qweighted_parameter_errors():
    with pytest.raises(ParameterError):
        qweighted_bijection_check(0, 1, 1, 1)
    with pytest.raises(ParameterError):
        qweighted_bijection_check(2, 0, 1, 1)


def test_qweighted_refuses_before_any_sum(monkeypatch):
    # the domain before the length cap, and the cap before the q-Chu sides,
    # which cost seconds at (100, 100, 1, 50)
    def no_sum(*args):
        raise AssertionError("q-Chu sides computed for a refused tuple")

    monkeypatch.setattr(qseries, "_qchu_summands", no_sum)
    with pytest.raises(CapExceededError):
        qweighted_bijection_check(100, 100, 1, 50)
    with pytest.raises(ParameterError, match=r"^need p >= m\*n and q >= 1"):
        qweighted_bijection_check(0, 100, 1, 50)


def test_flipped_qchu_exponent_is_caught(monkeypatch):
    # every triple of the k-th summand carries the shift k*(k*m + k + y - n)
    # (less k*j for the j-terms); the mutant negates that common exponent
    summands = qseries._qchu_summands

    def flipped(x, y, m, n, ks):
        return [(shift - 2 * k * (k * m + k + y - n), left, right)
                for k in ks for shift, left, right in summands(x, y, m, n, range(k, k + 1))]

    monkeypatch.setattr(qseries, "_qchu_summands", flipped)
    tuples = [(x, y, m, n) for m in range(2) for n in range(3)
              for x in range(m * n, m * n + 2) for y in range(1, 3)]
    assert any(not check_qchu(*t).passed for t in tuples)
    assert any(not qweighted_bijection_check(*t).passed for t in tuples)


def test_qchu_sum_is_sum_of_terms():
    # one accumulator over every k gives what the per-k terms add up to
    for m in range(3):
        for n in range(5):
            for x in (m * n, m * n + 3, m * n + 11):
                for y in (1, 4):
                    total = LaurentPolynomial()
                    for k in range(n + 1):
                        total = total + qchu_term(x, y, m, n, k)
                    summands = qseries._qchu_summands(x, y, m, n, range(n + 1))
                    assert qseries._sum_of_products(summands) == total, (x, y, m, n)


def test_concatenation_exponent_rule():
    # pairing the two factor classes and concatenating matches the inversion
    # statistic with cross term b_count(u) * a_count(v)
    for m in range(2):
        g = Grading(m)
        for n in range(3):
            for k in range(n + 1):
                for p in range(k * (m + 1), k * (m + 1) + 3):
                    for q in range((n - k) * (m + 1), (n - k) * (m + 1) + 3):
                        paired = LaurentPolynomial()
                        concatenated = LaurentPolynomial()
                        for u in enumerate_gamma(p, k, g):
                            a_u = inversions(u)
                            for v in enumerate_gamma(q, n - k, g):
                                a_count_v = len(v) - v.count("b")
                                exponent = a_u + inversions(v) + k * a_count_v
                                assert exponent == inversions(u + v)
                                paired = paired + LaurentPolynomial({exponent: 1})
                                concatenated = concatenated + LaurentPolynomial(
                                    {inversions(u + v): 1}
                                )
                        assert paired == concatenated


# LaurentPolynomial arithmetic against a plain dict reference

exponents_st = st.integers(min_value=-12, max_value=12)
coeffs_st = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**30), max_value=10**30),
)
term_dicts_st = st.dictionaries(exponents_st, coeffs_st, max_size=8)


def ref_clean(d: dict) -> dict:
    return {e: c for e, c in d.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return ref_clean(out)


def assert_matches(poly: LaurentPolynomial, ref: dict) -> None:
    assert poly.terms() == ref
    assert poly.sorted_terms() == sorted(ref.items())
    assert bool(poly) == bool(ref)
    assert poly.min_exponent() == (min(ref) if ref else None)
    assert poly.max_exponent() == (max(ref) if ref else None)
    assert poly.value_at_one() == sum(ref.values())
    assert poly == LaurentPolynomial(ref)
    assert hash(poly) == hash(LaurentPolynomial(ref))


@given(term_dicts_st, term_dicts_st, st.integers(min_value=-30, max_value=30))
def test_lp_ops_match_dict_reference(a, b, s):
    pa, pb = LaurentPolynomial(a), LaurentPolynomial(b)
    a, b = ref_clean(a), ref_clean(b)
    assert_matches(pa, a)
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
    assert_matches(pa * pb, ref_mul(a, b))
    assert_matches(pa.shift(s), {e + s: c for e, c in a.items()})
    assert (pa == pb) == (a == b)
    assert (pa.shift(s) == pa) == (s == 0 or not a)
    assert_matches(pa + 7, ref_add(a, {0: 7}))
    assert_matches(3 * pa, {e: 3 * c for e, c in a.items()})


@given(term_dicts_st, st.sets(exponents_st), term_dicts_st)
def test_lp_cancellation_trims_to_canonical_form(a, cancel, b):
    # cancel any subset of a's terms, the end terms included; the result
    # must equal the polynomial built from the surviving terms directly
    pa = LaurentPolynomial(a)
    minus = LaurentPolynomial({e: -c for e, c in a.items() if e in cancel})
    survivors = {e: c for e, c in ref_clean(a).items() if e not in cancel}
    assert_matches(pa + minus, survivors)
    assert_matches(pa - pa, {})
    assert_matches(pa + (-pa), {})
    assert pa - pa == LaurentPolynomial() == 0
    pb = LaurentPolynomial(b)
    assert_matches((pa + pb) - pb, ref_clean(a))
    assert_matches(pa * 0, {})
    assert_matches(pa * (pb - pb), {})


# The packed product kernel against the former schoolbook convolution


def dense_form(p: LaurentPolynomial) -> tuple[int, list[int]]:
    """Lowest exponent and the coefficient run from there up, read through
    the public interface."""
    if not p:
        return 0, []
    low = p.min_exponent()
    return low, [p.coefficient(e) for e in range(low, p.max_exponent() + 1)]


def reference_mul(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """The dense schoolbook product that ``LaurentPolynomial.__mul__`` was
    before the packed kernel: one row of the convolution per coefficient of
    the shorter factor."""
    (offset_a, short), (offset_b, long) = dense_form(a), dense_form(b)
    if not short or not long:
        return LaurentPolynomial()
    if len(short) > len(long):
        short, long = long, short
    width = len(long)
    out = [0] * (len(short) + width - 1)
    for i, c in enumerate(short):
        if c:
            out[i : i + width] = [o + c * d for o, d in zip(out[i : i + width], long)]
    return LaurentPolynomial(enumerate(out, offset_a + offset_b))


def with_sign(terms: dict, mode: str) -> dict:
    if mode == "positive":
        return {e: abs(c) for e, c in terms.items()}
    if mode == "negative":
        return {e: -abs(c) for e, c in terms.items()}
    return terms


long_runs_st = st.builds(
    lambda offset, coeffs: dict(enumerate(coeffs, offset)),
    st.integers(min_value=-40, max_value=40),
    st.lists(coeffs_st, min_size=64, max_size=400),
)
one_term_st = st.dictionaries(exponents_st, coeffs_st.filter(bool), min_size=1, max_size=1)
operands_st = st.builds(
    with_sign,
    st.one_of(term_dicts_st, long_runs_st, one_term_st),
    st.sampled_from(("mixed", "positive", "negative")),
)


@settings(max_examples=60, deadline=None)
@given(operands_st, operands_st)
def test_lp_products_match_dict_reference(a, b):
    # long, one-sided, mixed-sign, huge and one-term operands
    pa, pb = LaurentPolynomial(a), LaurentPolynomial(b)
    product = pa * pb
    assert_matches(product, ref_mul(ref_clean(a), ref_clean(b)))
    assert product == reference_mul(pa, pb) == pb * pa


def schoolbook_sum(triples) -> LaurentPolynomial:
    expected = LaurentPolynomial()
    for s, a, b in triples:
        expected = expected + reference_mul(a, b).shift(s)
    return expected


# operands shared by every example below, one unsigned and one signed: from
# the first example on they carry kept heights into calls with new partners
REUSED_OPERANDS = (LaurentPolynomial({0: 3, 2: 5}), LaurentPolynomial({-1: -4, 1: 2, 3: 10**20}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-30, max_value=30), operands_st, operands_st),
                max_size=5))
def test_sum_of_products_matches_schoolbook(triples):
    polys = [(s, LaurentPolynomial(a), LaurentPolynomial(b)) for s, a, b in triples]
    assert qseries._sum_of_products(iter(polys)) == schoolbook_sum(polys)
    # the same objects again, their heights now kept, each also next to
    # each reused operand: the slot width changes, the product must not
    again = polys + [(s + 1, reused, b) for s, _, b in polys for reused in REUSED_OPERANDS]
    again += [(s, a, reused) for reused in REUSED_OPERANDS for s, a, _ in polys]
    assert qseries._sum_of_products(iter(again)) == schoolbook_sum(again)
    assert qseries._sum_of_products(iter(polys)) == schoolbook_sum(polys)


def test_sum_of_products_cancels_to_canonical_zero():
    p = LaurentPolynomial({-3: 2, 0: -5, 4: 10**30})
    r = LaurentPolynomial({1: -1, 2: 7})
    assert qseries._sum_of_products([]) == 0
    assert qseries._sum_of_products([(5, p, LaurentPolynomial())]) == 0
    total = qseries._sum_of_products([(2, p, r), (1, -p, r.shift(1))])
    assert not total and total.min_exponent() is None


@pytest.mark.parametrize("bits", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 72, 73, 129])
@pytest.mark.parametrize("length", [1, 4])
@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
def test_sum_of_products_at_the_width_bound(bits, length, copies, signs):
    # factors of `length` equal coefficients +-M and +-N: the middle
    # coefficient of each product is length*M*N, and the copies share their
    # shift, so the sum's middle coefficient is copies*length*M*N, which is
    # the a-priori bound itself and has exactly `bits` bits. A negative
    # factor costs the slots a sign bit.
    spare = bits - 1 - (length.bit_length() - 1) - (copies.bit_length() - 1)
    big_m, big_n = 2 ** (spare // 2), 2 ** (spare - spare // 2)
    left = LaurentPolynomial({e: signs[0] * big_m for e in range(length)})
    right = LaurentPolynomial({e: signs[1] * big_n for e in range(-2, length - 2)})
    total = qseries._sum_of_products([(3, left, right)] * copies)
    expected = LaurentPolynomial()
    for _ in range(copies):
        expected = expected + reference_mul(left, right).shift(3)
    assert total == expected
    assert total.coefficient(length) == signs[0] * signs[1] * 2 ** (bits - 1)


def random_triples(rng: random.Random, signed: bool) -> list:
    """Up to four seeded ``(shift, left, right)`` triples, some factors zero,
    with coefficients from a few bits to wider than any native slot, and
    negative ones only when ``signed``."""
    def factor():
        if rng.random() < 0.1:
            return LaurentPolynomial()
        top = rng.choice((3, 300, 70_000, 2**40, 10**25))
        offset = rng.randint(-5, 5)
        return LaurentPolynomial({e: rng.randint(-top if signed else 0, top)
                                  for e in range(offset, offset + rng.randint(1, 12))})

    return [(rng.randint(-6, 6), factor(), factor()) for _ in range(rng.randint(0, 4))]


def near_misses(packed) -> list:
    """The packed sum itself, and polynomials that differ from it by one
    term: inside its span, just below and just above it, past its bound, or
    past its slot width in a way that packs to the same integer."""
    _, lowest, count, size, _, bound = packed
    total = qseries._unpack_sum(packed)
    out = [total, LaurentPolynomial()]
    for e in (lowest - 1, lowest, lowest + count // 2, lowest + count - 1, lowest + count):
        out += [total + LaurentPolynomial({e: 1}), total - LaurentPolynomial({e: 1})]
    if total:
        e = total.min_exponent()
        # one slot's worth carried up one slot: the same packed integer
        out.append(total + LaurentPolynomial({e: 1 << (8 * size), e + 1: -1}))
        c = total.coefficient(e)
        out.append(total + LaurentPolynomial({e: (bound + 1 if c > 0 else -bound - 1) - c}))
    return out


def test_packed_comparison_matches_unpacked_equality():
    rng = random.Random(2901)
    verdicts = Counter()
    for signed in (False, True) * 150:
        packed = qseries._pack_sum(random_triples(rng, signed))
        unpacked = qseries._unpack_sum(packed)
        for poly in near_misses(packed):
            verdict = qseries._packed_equals(packed, poly)
            assert verdict == (unpacked == poly), (packed, poly)
            verdicts[packed[4], verdict] += 1
    # an empty sum is the zero polynomial and nothing else
    empty = qseries._pack_sum([])
    assert qseries._packed_equals(empty, LaurentPolynomial())
    for poly in (ONE_PLUS_Q, LaurentPolynomial({-2: -1})):
        assert not qseries._packed_equals(empty, poly)
    assert min(verdicts.values()) > 50 and len(verdicts) == 4


QCHU_SWEEP = [(x, y, m, n) for x in range(9) for y in range(1, 4) for m in range(3)
              for n in range(5) if x >= m * n]


def test_a_passing_check_never_unpacks(monkeypatch):
    # a pass compares the packed double sum with the closed form; it builds
    # no polynomial from it, so it reads no coefficient out of the integer
    rng = random.Random(2902)
    sweep = rng.sample(QCHU_SWEEP, len(QCHU_SWEEP))
    words_sweep = [t for t in sweep if sum(t[:2]) + t[2] * t[3] <= 12]
    for args in sweep:  # warm: every bracket built
        check_qchu(*args)
    unpack, calls = qseries._unpack, []
    monkeypatch.setattr(qseries, "_unpack", lambda *args: calls.append(args) or unpack(*args))
    for x, y, m, n in sweep:
        assert check_qchu(x, y, m, n).passed
        if m == 1:
            assert check_qchu_m1(x, y, n).passed
    for args in words_sweep:
        assert qweighted_bijection_check(*args).passed
    assert calls == []
    assert ONE_PLUS_Q * ONE_PLUS_Q and len(calls) == 1  # the counter counts


def test_a_passing_check_compares_no_terms(monkeypatch):
    # a zero bracket is the shared zero, found by identity, and a pass hands
    # its closed form in as both sides: no polynomial is tested for truth or
    # compared term by term
    calls = Counter()
    for name in ("__eq__", "__bool__"):
        method = getattr(LaurentPolynomial, name)
        monkeypatch.setattr(LaurentPolynomial, name, lambda *args, name=name, method=method:
                            calls.update([name]) or method(*args))
    for x, y, m, n in random.Random(2904).sample(QCHU_SWEEP, 80):
        assert check_qchu(x, y, m, n).passed
        if m == 1:
            assert check_qchu_m1(x, y, n).passed
    assert not calls
    assert ONE_PLUS_Q == ONE_PLUS_Q and ONE_PLUS_Q and calls == {"__eq__": 1, "__bool__": 1}


def test_a_mismatch_reports_the_unpacked_sum(monkeypatch):
    # every summand one power of q lower: each check fails, and its left side
    # is the double sum of the triples it was given, unpacked once
    summands, given = qseries._qchu_summands, []

    def lowered(*args):
        given[:] = [(s - 1, a, b) for s, a, b in summands(*args)]
        return given

    monkeypatch.setattr(qseries, "_qchu_summands", lowered)
    for x, y, m, n in random.Random(2903).sample(QCHU_SWEEP, 40):
        report = check_qchu(x, y, m, n)
        assert not report.passed and report.lhs == qseries._sum_of_products(given)
        assert report.lhs == reference_qchu_lhs(x, y, m, n).shift(-1)
        if m == 1:
            report = check_qchu_m1(x, y, n)
            assert not report.passed and report.lhs == qseries._sum_of_products(given)
        if x + y + m * n <= 12:
            report = qweighted_bijection_check(x, y, m, n)
            structured = str(qseries._sum_of_products(given))
            assert not report.passed and report.counterexample["structured_sum"] == structured


def reference_qchu_lhs(x: int, y: int, m: int, n: int) -> LaurentPolynomial:
    """The double sum of :func:`check_qchu`, term by term with the schoolbook
    product."""
    total = LaurentPolynomial()
    for k in range(n + 1):
        shift = k * (k * m + k + y - n)
        product = reference_mul(gaussian_binomial(x - k * m, k),
                                gaussian_binomial(y + k * m, n - k))
        total = total + product.shift(shift)
        for j in range(1, m + 1 if k else 1):  # the j-terms vanish at k = 0
            product = reference_mul(gaussian_binomial(x - k * m + j - 1, k - 1),
                                    gaussian_binomial(y + k * m - j, n - k))
            total = total + product.shift(shift - k * j)
    return total


def test_qchu_sums_match_schoolbook():
    for m in range(3):
        for n in range(5):
            for x in (m * n, m * n + 2, m * n + 9):
                for y in (1, 3):
                    expected = reference_qchu_lhs(x, y, m, n)
                    summands = qseries._qchu_summands(x, y, m, n, range(n + 1))
                    assert qseries._sum_of_products(summands) == expected, (x, y, m, n)
                    assert check_qchu(x, y, m, n).lhs == expected, (x, y, m, n)
                    if m == 1:
                        assert check_qchu_m1(x, y, n).lhs == expected, (x, y, n)


def test_a_recurring_factor_is_scanned_once(monkeypatch):
    # the kernel sizes its slots from the heights of its factors; counted
    # through the module's min and max, a sweep repeated three times scans
    # each distinct bracket once, where rescanning every factor of every
    # product would scan each recurring one again on every call
    scans = Counter()

    def counted(builtin):
        def scan(*args, **kwargs):
            if len(args) == 1 and isinstance(args[0], tuple):
                scans[builtin.__name__, args[0]] += 1
            return builtin(*args, **kwargs)
        return scan

    gaussian_binomial.cache_clear()
    monkeypatch.setattr(qseries, "min", counted(min), raising=False)
    monkeypatch.setattr(qseries, "max", counted(max), raising=False)
    rng = random.Random(2707)
    sweep = [(x, y, m, n) for x in range(13) for y in range(1, 6) for m in range(3)
             for n in range(5) if x >= m * n]
    rng.shuffle(sweep)
    for _ in range(3):
        for args in sweep:
            assert check_qchu(*args).passed, args
    assert len(scans) > 50
    assert max(scans.values()) == 1


# Each packing path against slot-by-slot references


def slot_sum(coeffs, size: int) -> int:
    """``sum_i coeffs[i] * 2**(8 * size * i)``, one shifted slot at a time."""
    return sum(c << (8 * size * i) for i, c in enumerate(coeffs))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 9])
@pytest.mark.parametrize("signed", [False, True])
def test_pack_matches_the_slot_sum(size, signed):
    # runs of 1 to 30 coefficients, as tuples and as lists, drawn from 0, 1,
    # the slot's largest value and values in between, negated at random
    # when signed: the native, the one-byte and the byte-by-byte paths
    rng = random.Random(3101 + 2 * size + signed)
    top = (1 << (8 * size)) - 1
    for _ in range(300):
        run = [rng.choice((0, 1, top, rng.randint(0, top), rng.randint(0, 255)))
               for _ in range(rng.randint(1, 30))]
        if signed:
            run = [rng.choice((1, -1)) * c for c in run]
        for coeffs in (run, tuple(run)):
            assert qseries._pack(coeffs, size, signed) == slot_sum(coeffs, size), coeffs


def test_pack_sum_matches_schoolbook_at_one_and_two_byte_slots():
    # sums of small factors, whose bounds pack them at one-byte or two-byte
    # slots, unsigned and signed: unpacked, and compared packed, with the
    # schoolbook sum
    rng = random.Random(3102)
    seen = Counter()
    for signed in (False, True) * 200:
        triples = []
        for _ in range(rng.randint(1, 4)):
            factors = []
            for _ in range(2):
                top, offset = rng.choice((1, 2, 3, 15)), rng.randint(-4, 4)
                factors.append(LaurentPolynomial(
                    {e: rng.randint(-top if signed else 0, top)
                     for e in range(offset, offset + rng.randint(1, 12))}))
            triples.append((rng.randint(-5, 5), *factors))
        packed = qseries._pack_sum(triples)
        expected = schoolbook_sum(triples)
        assert qseries._unpack_sum(packed) == expected, triples
        assert qseries._packed_equals(packed, expected), triples
        seen[packed[3], packed[4]] += 1
    assert set(seen) == {(1, False), (2, False), (1, True), (2, True)}, seen
    assert min(seen.values()) > 20, seen


def test_slot_size_is_the_smallest_native_size_that_holds_the_width():
    # width 0 is the empty sum; width w >= 1 is one product whose bound has
    # w bits, or w - 1 bits and a sign bit. The slot is the smallest native
    # size of at least w bits, and beyond 8 bytes the bytes that w needs
    native = sorted(qseries._NATIVE_SLOTS)
    assert native == [1, 2, 4, 8]
    one = LaurentPolynomial({0: 1})
    for width in range(81):
        expected = next((s for s in native if 8 * s >= width), (width + 7) // 8)
        sums = [[]] if width == 0 else [[(0, LaurentPolynomial({0: 1 << (width - 1)}), one)]]
        if width >= 2:
            sums.append([(0, LaurentPolynomial({0: -(1 << (width - 2))}), one)])
        for summands in sums:
            assert qseries._pack_sum(summands)[3] == expected, (width, summands)


def test_one_byte_slots_never_touch_array(monkeypatch):
    # the checks whose double sum packs at one-byte slots give the same
    # reports with array stubbed out: both factors of every product, and
    # the closed form they are compared with, are packed through bytes()
    rng = random.Random(3103)
    sweep = [(x, y, m, n) for x in range(13) for y in range(1, 6) for m in range(3)
             for n in range(6) if x >= m * n]
    rng.shuffle(sweep)

    def slot_size(x, y, m, n):
        return qseries._pack_sum(qseries._qchu_summands(x, y, m, n, range(n + 1)))[3]

    one_byte = [t for t in sweep if slot_size(*t) == 1]
    wider = [t for t in sweep if slot_size(*t) > 1]
    calls = [(check_qchu, t) for t in one_byte]
    calls += [(check_qchu_m1, (x, y, n)) for x, y, m, n in one_byte if m == 1]
    calls += [(qweighted_bijection_check, t) for t in one_byte if sum(t[:2]) + t[2] * t[3] <= 12]
    expected = [check(*args) for check, args in calls]
    assert len(one_byte) > 300 and wider and all(report.passed for report in expected)

    def no_array(*args):
        raise AssertionError(f"array{args!r}")

    monkeypatch.setattr(qseries, "array", no_array)
    assert [check(*args) for check, args in calls] == expected
    with pytest.raises(AssertionError, match="array"):  # the stub bites wider slots
        check_qchu(*wider[0])


def test_a_cold_qchu_round_stays_small():
    # every bracket of the small q-Chu grid's 3,024 check_qchu and 1,008
    # check_qchu_m1 tuples, and their heights, built from an empty cache:
    # 123,416 bytes traced at the peak (Python 3.11), bounded a third above
    grid = [(x, y, m, n) for x in range(21) for y in range(1, 9) for m in range(3)
            for n in range(7) if x >= m * n]
    gaussian_binomial.cache_clear()
    tracemalloc.start()
    try:
        for x, y, m, n in grid:
            assert check_qchu(x, y, m, n).passed, (x, y, m, n)
            if m == 1:
                assert check_qchu_m1(x, y, n).passed, (x, y, n)
        assert len(grid) == 3024
        assert tracemalloc.get_traced_memory()[1] < 160 * 1024
    finally:
        tracemalloc.stop()
        gaussian_binomial.cache_clear()


def test_a_tall_check_keeps_its_peak():
    # [20001, 2] has 40,001 coefficients, which dominate the check's memory:
    # 3,935,256 bytes traced at the peak and 3,295,216 still held by the
    # bracket cache after it (Python 3.11), each bounded a quarter above
    gaussian_binomial.cache_clear()
    tracemalloc.start()
    try:
        assert check_qchu(20_000, 1, 0, 2).passed
        held, peak = tracemalloc.get_traced_memory()
        assert peak < 1.25 * 3_935_256 and held < 1.25 * 3_295_216, (held, peak)
    finally:
        tracemalloc.stop()
        gaussian_binomial.cache_clear()


def test_check_qchu_large_operands():
    rep = check_qchu(200, 200, 1, 6)
    assert rep.passed and rep.lhs == reference_qchu_lhs(200, 200, 1, 6)
    rep = check_qchu(800, 800, 1, 6)
    assert rep.passed and rep.lhs.value_at_one() == math.comb(1600, 6)
