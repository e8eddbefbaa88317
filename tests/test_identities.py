import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rothe_lab import (
    CapExceededError,
    Grading,
    NotInDomainError,
    ParameterError,
    VerificationReport,
    check_gould,
    check_kmpink,
    check_kmx,
    check_pqkm,
    check_rothe1,
    check_rothe2,
    enumerate_gamma,
    gen_binomial,
    grid_prove,
    rothe_coeff,
)
from rothe_lab import identities
from rothe_lab.identities import shift_domain
from rothe_lab.words import prefix_length_of_weight

rationals_st = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def binom(t, k):
    """Independent product-form binomial used as a local oracle."""
    if k < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(t) - i
    return out / math.factorial(k)


# The Fraction-per-term bodies that the integer kernel replaced, kept as
# reference implementations: same values, so the same reports byte for byte.


def reference_gen_binomial(t, k):
    if k < 0:
        return Fraction(0)
    t = Fraction(t)
    if t.denominator == 1:
        ti = t.numerator
        num = 1
        for i in range(k):
            num *= ti - i
        return Fraction(num, math.factorial(k))
    num = Fraction(1)
    for i in range(k):
        num *= t - i
    return num / math.factorial(k)


def reference_rothe_coeff(x, z, k):
    if k < 0:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    x, z = Fraction(x), Fraction(z)
    base = x - k * z
    prod = x
    for i in range(1, k):
        prod *= base - i
    return prod / math.factorial(k)


def reference_rothe1(x, y, z, n):
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    lhs = sum(
        reference_rothe_coeff(x, z, k) * reference_rothe_coeff(y, z, n - k)
        for k in range(n + 1)
    )
    rhs = reference_rothe_coeff(x + y, z, n)
    return VerificationReport.from_sides("rothe1", {"x": x, "y": y, "z": z, "n": n}, lhs, rhs)


def reference_rothe2(x, y, z, n):
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    lhs = sum(
        reference_rothe_coeff(x, z, k) * reference_gen_binomial(y + k * z, n - k)
        for k in range(n + 1)
    )
    rhs = reference_gen_binomial(x + y, n)
    return VerificationReport.from_sides("rothe2", {"x": x, "y": y, "z": z, "n": n}, lhs, rhs)


def same_report(report, reference):
    assert repr(report) == repr(reference)
    assert str(report) == str(reference)
    assert report.to_json_dict() == reference.to_json_dict()


# integers as ints and as Fractions, up to 10**12 in size, and fractions whose
# denominators differ, so that the common denominator is a true lcm
kernel_values_st = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=-10**12, max_value=10**12).map(Fraction),
    st.integers(min_value=-6, max_value=6),
    st.builds(
        Fraction,
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=1, max_value=60),
    ),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
kernel_degree_st = st.integers(min_value=0, max_value=6)


@given(kernel_values_st, st.integers(min_value=-1, max_value=8))
def test_gen_binomial_matches_reference(t, k):
    assert repr(gen_binomial(t, k)) == repr(reference_gen_binomial(t, k))


@given(kernel_values_st, kernel_values_st, st.integers(min_value=-1, max_value=7))
def test_rothe_coeff_matches_reference(x, z, k):
    assert repr(rothe_coeff(x, z, k)) == repr(reference_rothe_coeff(x, z, k))


@given(kernel_values_st, kernel_values_st, kernel_values_st, kernel_degree_st)
def test_rothe_checkers_match_reference(x, y, z, n):
    same_report(check_rothe1(x, y, z, n), reference_rothe1(x, y, z, n))
    same_report(check_rothe2(x, y, z, n), reference_rothe2(x, y, z, n))


@given(
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=-50, max_value=50),
    kernel_degree_st,
)
def test_int_and_fraction_arguments_agree(i, j, z, n):
    for checker in (check_rothe1, check_rothe2):
        same_report(checker(i, j, z, n), checker(Fraction(i), Fraction(j), Fraction(z), n))
    assert repr(gen_binomial(i, n)) == repr(gen_binomial(Fraction(i), n))
    assert repr(rothe_coeff(i, z, n)) == repr(rothe_coeff(Fraction(i), Fraction(z), n))


def test_gen_binomial_examples():
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(-1, 3) == -1
    assert gen_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert gen_binomial(7, -1) == 0
    assert gen_binomial(Fraction(1, 3), -2) == 0


def test_gen_binomial_matches_comb_on_naturals():
    for n in range(12):
        for k in range(14):
            expected = math.comb(n, k) if k <= n else 0
            assert gen_binomial(n, k) == expected


@given(rationals_st, st.integers(min_value=0, max_value=7))
def test_gen_binomial_matches_local_oracle(t, k):
    assert gen_binomial(t, k) == binom(t, k)


def test_gen_binomial_rejects_floats():
    with pytest.raises(ParameterError):
        gen_binomial(0.5, 2)


def test_rothe_coeff_examples():
    assert rothe_coeff(Fraction(7, 3), Fraction(9), 0) == 1
    assert rothe_coeff(Fraction(5, 2), 4, 1) == Fraction(5, 2)
    # x = k*z here, where the quotient form divides by zero
    assert rothe_coeff(2, 1, 2) == -1
    assert rothe_coeff(3, 1, -1) == 0


@given(rationals_st, rationals_st, st.integers(min_value=0, max_value=6))
def test_rothe_coeff_polynomial_relation(x, z, k):
    # clears the denominator of the quotient form; holds even at x = k*z
    assert rothe_coeff(x, z, k) * (x - k * z) == x * gen_binomial(x - k * z, k)


@given(rationals_st, rationals_st, st.integers(min_value=0, max_value=6))
def test_rothe_coeff_binomial_split(x, z, k):
    assert rothe_coeff(x, z, k) == gen_binomial(x - k * z, k) + z * gen_binomial(
        x - k * z - 1, k - 1
    )


def test_check_rothe1_examples():
    rep = check_rothe1(1, 1, 1, 1)
    assert rep.passed and rep.lhs == rep.rhs == 2
    rep = check_rothe1(3, 2, 0, 2)
    assert rep.passed and rep.lhs == 10
    rep = check_rothe1(2, 2, 1, 2)
    assert rep.passed and rep.lhs == 2


def test_check_rothe2_examples():
    rep = check_rothe2(2, 2, 1, 2)
    assert rep.passed and rep.lhs == rep.rhs == 6
    rep = check_rothe2(3, 2, 0, 2)
    assert rep.passed and rep.lhs == 10
    rep = check_rothe2(0, 5, 7, 0)
    assert rep.passed and rep.lhs == 1


@given(rationals_st, rationals_st, rationals_st, st.integers(min_value=0, max_value=5))
def test_check_rothe2_at_random_rational_points(x, y, z, n):
    assert check_rothe2(x, y, z, n).passed


def test_check_gould_examples():
    rep = check_gould(5, 4, 2, 0, 3)
    assert rep.passed
    rep = check_gould(2, 2, 1, 1, 2)
    assert rep.passed and rep.lhs == rep.rhs == 4
    x, y, z, eps = Fraction(1, 2), Fraction(3), Fraction(2), Fraction(1, 3)
    rep = check_gould(x, y, z, eps, 2)
    assert rep.passed
    expected = sum(binom(x - k * z, k) * binom(y + k * z, 2 - k) for k in range(3))
    assert rep.lhs == expected == Fraction(27, 8)


def test_check_pqkm_examples():
    rep = check_pqkm(2, 2, 1, 2)
    assert rep.passed and rep.lhs == 4
    rep = check_pqkm(5, 3, 0, 2)
    assert rep.passed and rep.lhs == 28
    rep = check_pqkm(3, 1, 1, 3)
    assert rep.passed and rep.lhs == 2


def test_check_kmx_examples():
    rep = check_kmx(1, 1, 1, 1)
    assert rep.passed and rep.lhs == rep.rhs == 2
    rep = check_kmx(4, 2, 0, 2)
    assert rep.passed and rep.lhs == 15
    rep = check_kmx(4, 3, 2, 2)
    assert rep.passed and rep.lhs == 21


def test_check_kmx_preconditions():
    with pytest.raises(ParameterError):
        check_kmx(1, 1, 2, 1)  # p < m*n
    with pytest.raises(ParameterError):
        check_kmx(3, 0, 1, 1)  # q < 1
    # the identity makes no claim at m < 0, even where p >= m*n and q >= 1
    with pytest.raises(ParameterError, match="m must be >= 0, got -1"):
        check_kmx(3, 1, -1, 1)


def test_check_kmpink_examples():
    rep = check_kmpink(3, 2, 2, 2, 1)
    assert rep.passed and rep.lhs == rep.rhs == 2
    rep = check_kmpink(3, 2, 2, 2, 2)
    assert rep.passed and rep.lhs == 2
    rep = check_kmpink(5, 7, 1, 0, 1)
    assert rep.passed and rep.lhs == rep.rhs == 0


def test_check_kmpink_parameter_errors():
    with pytest.raises(ParameterError):
        check_kmpink(3, 2, 2, 2, 0)
    with pytest.raises(ParameterError):
        check_kmpink(3, 2, 2, 2, 3)
    with pytest.raises(ParameterError):
        check_kmpink(3, 2, 0, 2, 1)


def test_gould_at_eps_one_is_pqkm():
    for p in range(5):
        for q in range(5):
            for m in range(3):
                for n in range(4):
                    gould = check_gould(p, q, m, 1, n)
                    pqkm = check_pqkm(p, q, m, n)
                    assert gould.status == pqkm.status == "pass"
                    assert gould.lhs == pqkm.lhs
                    assert gould.rhs == pqkm.rhs


def test_combination_property():
    # merging the two branch counts gives the singularity-free convolution,
    # which is exactly the mixed-convolution check at integer points
    for m in range(4):
        for n in range(4):
            for p in range(m * n, m * n + 4):
                for q in range(1, 4):
                    assert check_kmx(p, q, m, n).passed
                    for j in range(1, m + 1):
                        assert check_kmpink(p, q, m, n, j).passed
                    combined = sum(
                        (gen_binomial(p - k * m, k) + m * gen_binomial(p - k * m - 1, k - 1))
                        * gen_binomial(q + k * m, n - k)
                        for k in range(n + 1)
                    )
                    rothe2 = check_rothe2(p, q, m, n)
                    assert combined == gen_binomial(p + q, n) == rothe2.lhs
                    assert rothe2.passed


def test_counting_matches_algebra():
    # both sides of the shift identity count prefixed word classes, and the
    # two-branch identity's right side counts the whole class
    for m in range(3):
        g = Grading(m)
        for n in range(4):
            for p in range(m * n, m * n + 3):
                for q in range(1, 4):
                    total = p + q + m * n
                    pqkm = check_pqkm(p, q, m, n)
                    everything = enumerate_gamma(total, n, g)
                    for side, r in ((pqkm.lhs, p), (pqkm.rhs, p + 1)):
                        assert side == sum(prefix_length_of_weight(w, r, g) is not None
                                           for w in everything)
                    kmx = check_kmx(p, q, m, n)
                    assert kmx.rhs == len(everything)


def test_grid_prove_examples():
    rep = grid_prove("rothe2", 0)
    assert rep.passed and rep.params["grid_points"] == 1
    rep = grid_prove("rothe1", 3)
    assert rep.passed and rep.params["grid_points"] == 64
    rep = grid_prove("gould", 2)
    assert rep.passed and rep.params["grid_points"] == 81


def test_grid_prove_custom_offsets():
    rep = grid_prove("rothe2", 2, offsets=(-3, 5, 2))
    assert rep.passed and rep.params["offsets"] == [-3, 5, 2]


@pytest.mark.parametrize(
    "call",
    [
        lambda: grid_prove("rothe1", 2, (Fraction(1, 2), 0, 0)),
        lambda: grid_prove("rothe1", 2, ("1", 0, 0)),
        lambda: gen_binomial(3, 1.5),
        lambda: check_rothe1(1, 2, 3, 2.0),
    ],
    ids=["fraction-offset", "str-offset", "float-k", "float-n"],
)
def test_non_integer_degree_or_offset_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="must be an int, got"):
        call()


def test_rational_checks_are_priced_quadratically():
    # every coefficient of a degree-n side is itself an O(n) product
    assert identities.IDENTITIES["rothe1"].price(3, 5, 2, 800) >= 800**2


def test_grid_prove_parameter_errors():
    with pytest.raises(ParameterError):
        grid_prove("vandermonde", 2)
    with pytest.raises(ParameterError):
        grid_prove("rothe1", -1)
    with pytest.raises(ParameterError):
        grid_prove("gould", 2, offsets=(0, 0, 0))


CERTIFIABLE = ["rothe1", "rothe2", "gould"]


@pytest.mark.parametrize("name", CERTIFIABLE)
def test_grid_prove_reports_the_check_at_the_far_corner(name):
    record = identities.IDENTITIES[name]
    variables = record.grid_variables
    rng = random.Random(801)
    for n in range(4):
        for _ in range(3):
            offsets = tuple(rng.randint(-5, 5) for _ in variables)
            rep = grid_prove(name, n, offsets)
            corner = {v: off + n for v, off in zip(variables, offsets)}
            expected = record.check(n=n, **corner)
            assert rep.passed and rep.counterexample is None
            assert rep.params == {
                "n": n, "offsets": list(offsets), "grid_points": (n + 1) ** len(variables)
            }
            assert repr((rep.lhs, rep.rhs, rep.status)) == repr(
                (expected.lhs, expected.rhs, expected.status)
            )


@pytest.mark.parametrize("name", CERTIFIABLE)
def test_grid_prove_catches_one_wrong_interior_point(monkeypatch, name):
    record = identities.IDENTITIES[name]
    variables = record.grid_variables
    n, offsets = 2, tuple(range(-1, len(variables) - 1))
    bad = tuple(off + 1 for off in offsets)
    sides = record.sides

    def wrong_once(*args):
        lhs, rhs = sides(*args)
        points = itertools.product(*args[: len(variables)])
        return (side + 1 if point == bad else side for side, point in zip(lhs, points)), rhs

    # no checker is called: the record keeps no check at all
    entry = record._replace(sides=wrong_once, check=None)
    monkeypatch.setitem(identities.IDENTITIES, name, entry)
    rep = grid_prove(name, n, offsets)
    index = 1 + sum((n + 1) ** i for i in range(len(variables)))
    assert rep.status == "fail"
    assert rep.params["grid_points"] == index
    assert rep.counterexample == dict(zip(variables, bad))
    truth = [next(side) for side in sides(*(range(v, v + 1) for v in bad), n, 1)]
    assert (rep.lhs, rep.rhs) == (Fraction(truth[0] + 1, 2), Fraction(truth[1], 2))


def test_gould_sides_match_the_sides_point_by_point():
    # the grid kernel shares rows and tails across points; each point must
    # still read S_0(x, y; z, n) on the left and S_0(x + eps, y - eps; z, n)
    # on the right, over a common denominator d, on axes of uneven lengths
    rng = random.Random(2714)
    for _ in range(150):
        axes = [range(start, start + rng.randint(1, 5))
                for start in (rng.randint(-7, 7) for _ in range(4))]
        n, d = rng.randint(0, 5), rng.choice((1, 1, 2, 3, 6))
        lhs, rhs = identities._gould_sides(*axes, n, d)
        points = list(itertools.product(*axes))
        assert list(lhs) == [identities._convolution_numerator(x, y, z, n, d)
                             for x, y, z, _ in points]
        assert list(rhs) == [identities._convolution_numerator(x + e, y - e, z, n, d)
                             for x, y, z, e in points], (axes, n, d)


def degree_violations(sides, width, n, bases):
    """Each ``(side, variable, base)`` at which the ``(n+1)``-th forward
    difference of an integer side, in one grid variable from an integer base
    point, is not zero: there that side has degree above ``n`` in the
    variable, and an ``(n+1)``-point grid would prove nothing. Each
    difference reads the sides on one ``(n+2)``-point axis."""
    found = []
    for base, var in itertools.product(bases, range(width)):
        axes = [range(v, v + 1) for v in base]
        axes[var] = range(base[var], base[var] + n + 2)
        values = list(zip(*sides(*axes, n, 1)))
        for side in (0, 1):
            difference = sum(
                (-1) ** (n + 1 - step) * math.comb(n + 1, step) * values[step][side]
                for step in range(n + 2)
            )
            if difference:
                found.append((side, var, base))
    return found


def degree_sample(width):
    """A fixed sample of ``(n, bases)``: ``n <= 4``, seeded integer bases."""
    rng = random.Random(1404)
    return [(n, [tuple(rng.randint(-6, 6) for _ in range(width)) for _ in range(6)])
            for n in range(5)]


@pytest.mark.parametrize("name", CERTIFIABLE)
def test_grid_sides_have_degree_at_most_n_in_each_variable(name):
    # the grid of n + 1 points per variable certifies only this degree bound,
    # so the bound is checked, not assumed
    record = identities.IDENTITIES[name]
    width = len(record.grid_variables)
    for n, bases in degree_sample(width):
        assert degree_violations(record.sides, width, n, bases) == [], (name, n)


@pytest.mark.parametrize("name", CERTIFIABLE)
def test_degree_test_catches_a_mutant_that_passes_the_grid(monkeypatch, name):
    # adding prod_{t=0}^{n} (x - t) to the left side leaves every point of
    # the default grid x in 0..n unchanged, but raises the degree in x to n + 1
    record = identities.IDENTITIES[name]
    width = len(record.grid_variables)
    sides = record.sides

    def mutant(*args):
        lhs, rhs = sides(*args)
        points, n = itertools.product(*args[:width]), args[-2]
        return (side + math.prod(point[0] - t for t in range(n + 1))
                for side, point in zip(lhs, points)), rhs

    monkeypatch.setitem(identities.IDENTITIES, name, record._replace(sides=mutant))
    for n, bases in degree_sample(width):
        assert grid_prove(name, n).passed
        assert (0, 0) in {found[:2] for found in degree_violations(mutant, width, n, bases)}


def test_report_json_schema():
    rep = check_rothe2(2, 2, 1, 2)
    blob = json.dumps(rep.to_json_dict())
    assert json.loads(blob) == {
        "identity": "rothe2",
        "params": {"x": "2", "y": "2", "z": "1", "n": 2},
        "lhs": "6",
        "rhs": "6",
        "status": "pass",
    }


def test_report_fail_carries_counterexample():
    rep = VerificationReport.from_sides(
        "demo", {"x": 1, "n": 0}, Fraction(1), Fraction(2)
    )
    assert rep.status == "fail" and not rep.passed
    assert rep.counterexample == {"x": 1, "n": 0}
    assert rep.to_json_dict()["counterexample"] == {"x": 1, "n": 0}


def test_fractional_report_serialization():
    rep = check_rothe2(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), 1)
    assert rep.passed
    payload = rep.to_json_dict()
    assert payload["params"]["x"] == "1/2"
    assert payload["lhs"] == str(rep.lhs)


# The four shift identities as the paper writes them, one hand-written sum
# per side, kept apart from the shared convolution in the library.


def oracle_gould(x, y, z, eps, n):
    lhs = sum(binom(x - k * z, k) * binom(y + k * z, n - k) for k in range(n + 1))
    rhs = sum(
        binom(x + eps - k * z, k) * binom(y - eps + k * z, n - k) for k in range(n + 1)
    )
    return lhs, rhs


def oracle_pqkm(p, q, m, n):
    lhs = sum(
        (binom(p - k * m, k) * binom(q + k * m, n - k) for k in range(n + 1)),
        Fraction(0),
    )
    rhs = sum(
        (binom(p + 1 - k * m, k) * binom(q - 1 + k * m, n - k) for k in range(n + 1)),
        Fraction(0),
    )
    return lhs, rhs


def oracle_kmx(p, q, m, n):
    lhs = Fraction(0)
    for k in range(n + 1):
        lhs += binom(p - k * m, k) * binom(q + k * m, n - k)
        for j in range(1, m + 1):
            lhs += binom(p - k * m + j - 1, k - 1) * binom(q + k * m - j, n - k)
    return lhs, binom(p + q, n)


def oracle_kmpink(p, q, m, n, j):
    lhs = sum(
        (binom(p - k * m + j - 1, k - 1) * binom(q + k * m - j, n - k) for k in range(n + 1)),
        Fraction(0),
    )
    rhs = sum(
        (binom(p - k * m - 1, k - 1) * binom(q + k * m, n - k) for k in range(n + 1)),
        Fraction(0),
    )
    return lhs, rhs


def oracle_points():
    """(checker, oracle, identity, params) over small integer tuples with
    n in -2..6 where the checker allows it, m in 0..3 and j in 1..m, plus a
    few rational gould points."""
    for m, n in itertools.product(range(4), range(-2, 7)):
        for p, q in itertools.product(range(-2, 5), range(-1, 4)):
            params = {"p": p, "q": q, "m": m, "n": n}
            yield check_pqkm, oracle_pqkm, "pqkm", params
            if n >= 0 and shift_domain(p, q, m, n):
                yield check_kmx, oracle_kmx, "kmx", params
            for j in range(1, m + 1):
                yield check_kmpink, oracle_kmpink, "kmpink", {**params, "j": j}
    for x, y, z, eps, n in itertools.product(
        range(-1, 3), range(-1, 3), range(4), range(-1, 2), range(7)
    ):
        params = {"x": x, "y": y, "z": z, "eps": eps, "n": n}
        yield check_gould, oracle_gould, "gould", params
    for x, y, z, eps, n in [
        (Fraction(1, 2), 3, Fraction(2, 3), Fraction(-3, 4), 4),
        (Fraction(-5, 3), Fraction(7, 2), Fraction(1, 4), Fraction(2, 5), 5),
        (0, Fraction(-1, 3), Fraction(-3, 2), Fraction(5, 6), 3),
        (Fraction(9, 4), Fraction(-2, 7), 1, -2, 6),
    ]:
        params = {"x": x, "y": y, "z": z, "eps": eps, "n": n}
        yield check_gould, oracle_gould, "gould", params


def test_shift_checkers_match_the_hand_written_sums():
    for checker, oracle, identity, params in oracle_points():
        lhs, rhs = oracle(**params)
        rep = checker(**params)
        assert (rep.lhs, rep.rhs, rep.status) == (lhs, rhs, "pass"), (identity, params)
        as_json = {
            # gould's rational parameters become Fractions; the rest stay ints
            k: str(v) if identity == "gould" and k != "n" else v
            for k, v in params.items()
        }
        assert rep.to_json_dict() == {
            "identity": identity,
            "params": as_json,
            "lhs": str(lhs),
            "rhs": str(rhs),
            "status": "pass",
        }


@given(
    kernel_values_st, kernel_values_st, kernel_values_st, kernel_values_st, kernel_degree_st
)
def test_gould_matches_reference(x, y, z, eps, n):
    lhs, rhs = oracle_gould(x, y, z, eps, n)
    params = {"x": Fraction(x), "y": Fraction(y), "z": Fraction(z), "eps": Fraction(eps), "n": n}
    same_report(check_gould(x, y, z, eps, n), VerificationReport.from_sides("gould", params, lhs, rhs))


def convolution(a, b, z, n, lower=0):
    """The binomial convolution
    ``S_l(a, b; z, n) = sum_k C(a - k*z, k - l) * C(b + k*z, n - k)``, term by
    term; every term vanishes, so the sum is zero, for ``n < l``."""
    return sum(
        (binom(a - k * z, k - lower) * binom(b + k * z, n - k) for k in range(n + 1)),
        Fraction(0),
    )


@given(
    kernel_values_st,
    kernel_values_st,
    kernel_values_st,
    st.integers(min_value=-2, max_value=6),
    st.integers(min_value=0, max_value=2),
)
def test_convolution_matches_the_hand_written_sum(a, b, z, n, lower):
    d, (A, B, Z) = identities._scaled(a=a, b=b, z=z)
    # k -> k + l: S_l(a, b; z, n) = S_0(a - l*z, b + l*z; z, n - l)
    numerator = identities._convolution_numerator(A - lower * Z, B + lower * Z, Z, n - lower, d)
    assert repr(identities._side(numerator, n - lower, d)) == repr(convolution(a, b, z, n, lower))


def test_off_by_one_convolution_is_caught(monkeypatch):
    # Both sides of gould and pqkm go through the shared convolution, so a
    # fault in it can shift both sides alike and still agree; kmx's right
    # side is the closed form C(p + q, n), which the fault cannot reach.
    numerator = identities._convolution_numerator

    def lowered(a, b, z, n, d):
        # S_1 in place of S_0, through the reindexing S_1(a, b; z, n) = S_0(a - z, b + z; z, n - 1)
        return numerator(a - z, b + z, z, n - 1, d)

    monkeypatch.setattr(identities, "_convolution_numerator", lowered)
    reports = [
        check_kmx(p, q, m, n)
        for m, n in itertools.product(range(3), range(3))
        for p in range(m * n, m * n + 3)
        for q in range(1, 3)
    ]
    assert any(not rep.passed for rep in reports)


def shift_reports(p, q, m, n):
    """(report, reference) pairs of pqkm, kmx and kmpink at one point wherever
    the checker takes it, the reference built from the hand-written convolution."""
    params = {"p": p, "q": q, "m": m, "n": n}
    lhs, rhs = convolution(p, q, m, n), convolution(p + 1, q - 1, m, n)
    yield check_pqkm(**params), VerificationReport.from_sides("pqkm", params, lhs, rhs)
    if isinstance(m, int) and m >= 0 and n >= 0 and shift_domain(p, q, m, n):
        lhs = convolution(p, q, m, n) + sum(
            (convolution(p + j - 1, q - j, m, n, 1) for j in range(1, m + 1)), Fraction(0)
        )
        reference = VerificationReport.from_sides("kmx", params, lhs, binom(p + q, n))
        yield check_kmx(**params), reference
    for j in (1, Fraction(3, 2), 2, Fraction(3), 4):
        if j <= m:
            lhs, rhs = convolution(p + j - 1, q - j, m, n, 1), convolution(p - 1, q, m, n, 1)
            reference = VerificationReport.from_sides("kmpink", {**params, "j": j}, lhs, rhs)
            yield check_kmpink(**params, j=j), reference


def test_shift_checkers_match_the_hand_written_convolution():
    # ints and Fractions (integral ones included), n from -2 to 4, and m
    # rational where the identity allows it
    ps = (-2, 0, 3, 5, Fraction(1, 2), Fraction(-7, 3), Fraction(4))
    qs = (-1, 1, 2, Fraction(-1, 2), Fraction(5, 4))
    ms = (0, 1, 2, 3, Fraction(3, 2), Fraction(2), Fraction(-5, 2))
    count = 0
    for p, q, m, n in itertools.product(ps, qs, ms, range(-2, 5)):
        for report, reference in shift_reports(p, q, m, n):
            same_report(report, reference)
            count += 1
    assert count > 2000


@pytest.mark.parametrize(
    "checker, args", [(check_pqkm, (3, 1, 1, 2)), (check_kmx, (3, 1, 1, 2)),
                      (check_kmpink, (3, 1, 1, 2, 1))],
)
def test_shift_checkers_name_a_non_number_argument(checker, args):
    assert checker(*args).passed
    names = ("p", "q", "m", "n", "j")[: len(args)]
    for i, name in enumerate(names):
        for bad in ("3", 1.5, None, [1]):
            with pytest.raises(ParameterError, match=rf"^{name} must be an int"):
                checker(*args[:i], bad, *args[i + 1:])


def small_points(record):
    """Integer tuples around each record's domain edges; n and m run over
    -1..2, so that the checkers' own argument checks fire too."""
    pools = {"n": range(-1, 3), "m": range(-1, 3), "eps": range(0, 2)}
    return itertools.product(*(pools.get(name, range(-1, 4)) for name in record.order))


def refusal(call, *args):
    """The type and message of the error ``call(*args)`` raises, else ``None``."""
    try:
        call(*args)
    except (ValueError, CapExceededError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", sorted(identities.IDENTITIES))
def test_registry_domain_is_the_checker_precondition(name):
    # a sweep prices every tuple before it skips or checks it, so the price
    # raises exactly what the checker raises, with the same type and message,
    # except where the checker refuses the tuple as outside its domain: there,
    # and only there, the price is None; everywhere else the check passes
    record = identities.IDENTITIES[name]
    for point in small_points(record):
        kwargs = dict(zip(record.order, point))
        refused = refusal(lambda: record.check(**kwargs))
        outside = refused is not None and issubclass(refused[0], NotInDomainError)
        try:
            price = record.price(*point)
        except (ValueError, CapExceededError) as exc:
            assert not outside and refused == (type(exc), str(exc)), kwargs
            continue
        if price is None:
            assert outside, kwargs
        else:
            assert refused is None and record.check(**kwargs).passed, kwargs
            assert price >= 1, kwargs


# each word-class identity's pools of values, and the enumeration its check
# runs, behind the argument refusals and the test of its precondition; m runs
# over -1..2 and the word lengths over both sides of 26
WORD_CLASS_POINTS = {
    "cardinality": ((range(-1, 31), range(-1, 3), range(-1, 3)),
                    lambda p, k, m: enumerate_gamma(p, k, Grading(m))),
    "invw": ((range(-1, 31), range(-1, 3), range(-1, 3)),
             lambda p, k, m: enumerate_gamma(p, k, Grading(m))),
    "qword": ((range(-1, 29), range(1, 3), range(-1, 3), range(-1, 3)),
              lambda p, q, m, n: shift_domain(p, q, m, n)
              and enumerate_gamma(p + q + m * n, n, Grading(m))),
}


@pytest.mark.parametrize("name", sorted(WORD_CLASS_POINTS))
def test_registry_cost_refuses_as_enumeration(name):
    # inside the precondition a price refuses what the enumeration refuses;
    # outside it the price is None: a sweep skips the tuple unpriced
    record = identities.IDENTITIES[name]
    pools, walk = WORD_CLASS_POINTS[name]
    refusals = set()
    for point in itertools.product(*pools):
        expected = refusal(walk, *point)
        try:
            price = record.price(*point)
        except (ValueError, CapExceededError) as exc:
            assert (type(exc), str(exc)) == expected, point
            refusals.add(expected[0])
            continue
        if price is None:
            refused = refusal(lambda: record.check(**dict(zip(record.order, point))))
            assert issubclass(refused[0], NotInDomainError), point
        else:
            assert expected is None and price >= 1, point
    assert refusals == {ParameterError, CapExceededError}


def test_registry_grid_variables():
    registry = identities.IDENTITIES
    assert registry["rothe1"].grid_variables == ("x", "y", "z")
    assert registry["gould"].grid_variables == ("x", "y", "z", "eps")
    certifiable = [k for k, r in registry.items() if r.grid_variables]
    assert certifiable == ["rothe1", "rothe2", "gould"]
