"""The cached coefficient rows against a term-by-term oracle.

Every convolution side is a dot product of cached rows. Here each integer side
is written out again as a sum of products of falling factors, with no row and
no cache, and compared at every point of small grids and at seeded rational
points, once with the row caches emptied before each point and once warm, and
with the two streams of whole grids, point by point in product order.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from rothe_lab import check_gould, check_kmpink, check_kmx, check_pqkm, identities

GRID_RECORDS = ("rothe1", "rothe2", "gould")


def falling(top, k, d):
    """``top (top - d) ... (top - (k-1) d)``, one factor at a time."""
    return math.prod(top - i * d for i in range(k))


def coefficient(x, z, k, d):
    """``k! d**k B_k(x / d, z / d)``: ``x (x - k z - d) ... (x - k z - (k-1) d)``."""
    return 1 if k == 0 else x * falling(x - k * z - d, k - 1, d)


def convolution(a, b, z, n, lower, d):
    """``(n-l)! d**(n-l) S_l(a / d, b / d; z / d, n)``, term by term."""
    return sum(
        math.comb(n - lower, k - lower) * falling(a - k * z, k - lower, d)
        * falling(b + k * z, n - k, d)
        for k in range(lower, n + 1)
    )


def reference_sides(name, *args):
    """The two integer sides of a grid record at scaled arguments, ``n`` and ``d``."""
    if name == "gould":
        x, y, z, e, n, d = args
        return convolution(x, y, z, n, 0, d), convolution(x + e, y - e, z, n, 0, d)
    x, y, z, n, d = args
    if name == "rothe1":
        lhs = sum(
            math.comb(n, k) * coefficient(x, z, k, d) * coefficient(y, z, n - k, d)
            for k in range(n + 1)
        )
        return lhs, coefficient(x + y, z, n, d)
    lhs = sum(
        math.comb(n, k) * coefficient(x, z, k, d) * falling(y + k * z, n - k, d)
        for k in range(n + 1)
    )
    return lhs, falling(x + y, n, d)


def over(numerator, degree, d):
    return Fraction(numerator, math.factorial(degree) * d**degree) if degree >= 0 else Fraction(0)


def reference_report_sides(name, p, q, m, n, j=None):
    """``(lhs, rhs)`` of the pqkm, kmx or kmpink report, from the term-by-term
    convolution over the common denominator of the arguments."""
    values = [p, q, m] + ([] if j is None else [j])
    d = math.lcm(*(Fraction(v).denominator for v in values))
    P, Q, M, *J = (int(Fraction(v) * d) for v in values)
    if name == "pqkm":
        sides = convolution(P, Q, M, n, 0, d), convolution(P + d, Q - d, M, n, 0, d)
        return tuple(over(s, n, d) for s in sides)
    if name == "kmx":
        lowered = sum(convolution(P + i * d - d, Q - i * d, M, n, 1, d) for i in range(1, m + 1))
        lhs = convolution(P, Q, M, n, 0, d) + n * d * lowered
        return over(lhs, n, d), over(falling(P + Q, n, d), n, d)
    sides = convolution(P + J[0] - d, Q - J[0], M, n, 1, d), convolution(P - d, Q, M, n, 1, d)
    return tuple(over(s, n - 1, d) for s in sides)


def point_sides(name, point, n, d):
    """The two integer sides of a grid record at one point: its one-point grid."""
    axes = (range(v, v + 1) for v in point)
    return tuple(next(side) for side in identities.IDENTITIES[name].sides(*axes, n, d))


def row_caches():
    """Every ``functools`` cache of the identities module."""
    return [v for v in vars(identities).values() if callable(getattr(v, "cache_clear", None))]


def clear_rows():
    for cache in row_caches():
        cache.cache_clear()


def grid_cases():
    """``(name, point, n)`` at every point of each grid record's tensor grid
    for ``n <= 4``, two seeded offset vectors per grid."""
    rng = random.Random(1401)
    for name in GRID_RECORDS:
        width = len(identities.IDENTITIES[name].grid_variables)
        for n in range(5):
            for _ in range(2):
                offsets = [rng.randint(-5, 5) for _ in range(width)]
                for point in itertools.product(*(range(o, o + n + 1) for o in offsets)):
                    yield name, point, n


def shift_cases():
    """Seeded ``(name, args)`` of pqkm, kmx and kmpink, a third of them with
    a rational argument, so that the common denominator exceeds 1."""
    rng = random.Random(1402)

    def value():
        t = rng.randint(-6, 6)
        return Fraction(t, rng.randint(2, 4)) if rng.random() < 1 / 3 else t

    cases = []
    while len(cases) < 600:
        n, m = rng.randint(-1, 5), rng.randint(0, 3)
        p, q = value(), value()
        if rng.random() < 0.5 and m >= 1:
            j = rng.choice([Fraction(rng.randint(2, 2 * m), 2), rng.randint(1, m)])
            cases.append(("kmpink", (p, q, m, n, j)))
        elif n >= 0 and p >= m * n and q >= 1:
            cases.append(("kmx", (p, q, m, n)))
        else:
            m = value() if rng.random() < 0.5 else m
            cases.append(("pqkm", (p, q, m, n)))
    return cases


CHECKERS = {"pqkm": check_pqkm, "kmx": check_kmx, "kmpink": check_kmpink}


def evaluate(cases, cold):
    """The integer sides of each grid case, or the report sides of each
    shift case; ``cold`` empties the row caches before every case."""
    out = []
    for name, *args in cases:
        if cold:
            clear_rows()
        if name in CHECKERS:
            report = CHECKERS[name](*args[0])
            out.append((report.lhs, report.rhs))
        else:
            point, n = args
            out.append(point_sides(name, point, n, 1))
    return out


def test_rows_match_the_term_by_term_oracle_cold_and_warm():
    grid = list(grid_cases())
    shifts = shift_cases()
    cases = grid + shifts
    cold = evaluate(cases, cold=True)
    warm = evaluate(cases, cold=False)
    assert cold == warm
    for (name, point, n), sides in zip(grid, cold):
        assert sides == reference_sides(name, *point, n, 1), (name, point, n)
    for (name, args), sides in zip(shifts, cold[len(grid):]):
        assert sides == reference_report_sides(name, *args), (name, args)
    assert {name for name, _ in shifts} == set(CHECKERS)
    assert sum(1 for _, args in shifts if any(isinstance(v, Fraction) for v in args)) > 100


def test_rows_match_the_oracle_at_rational_grid_arguments():
    # the grid records' sides over a common denominator d > 1, at degrees
    # beyond those of the grids above
    rng = random.Random(1403)
    for name in GRID_RECORDS:
        width = len(identities.IDENTITIES[name].grid_variables)
        for _ in range(60):
            d, n = rng.randint(2, 6), rng.randint(0, 9)
            point = [rng.randint(-20, 20) for _ in range(width)]
            sides = point_sides(name, point, n, d)
            assert sides == reference_sides(name, *point, n, d), (name, point, n, d)


def convolution_row_misses():
    builders = identities._binomial_row, identities._binomial_tail
    return sum(builder.cache_info().misses for builder in builders)


def test_kmpink_and_kmx_build_no_row_beyond_the_gould_checks_they_reduce_to():
    # one row shape serves every binomial convolution: the lowered sums of kmpink
    # and kmx are S_0 a degree down, so their rows are those of gould's sides
    clear_rows()
    for p, q, m, n in itertools.product((2, 3, Fraction(7, 2), 6), (1, 2), (1, 2), (1, 2, 3)):
        for j in range(1, m + 1):
            check_gould(p - 1 - m, q + m, m, j, n - 1)
        built = convolution_row_misses()
        for j in range(1, m + 1):
            assert check_kmpink(p, q, m, n, j).passed
        assert convolution_row_misses() == built, ("kmpink", p, q, m, n)
        if p >= m * n:
            check_gould(p, q, m, 0, n)
            built = convolution_row_misses()
            assert check_kmx(p, q, m, n).passed
            assert convolution_row_misses() == built, ("kmx", p, q, m, n)


def test_every_row_cache_is_bounded_by_one_constant():
    caches = row_caches()
    assert caches
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] == identities.ROW_CACHE_SIZE
    assert isinstance(identities.ROW_CACHE_SIZE, int) and identities.ROW_CACHE_SIZE > 0


def stream_cases():
    """``(name, axes, n, d)``: seeded tensor grids of every grid record at ``n``
    from 0 and ``d`` up to 3, with axes of one to ``n + 2`` values; and gould
    grids whose eps axis is all negative, mixed in sign, all positive or one
    value, beside one-element and empty axes."""
    rng = random.Random(1901)

    def axis(length):
        start = rng.randint(-6, 6)
        return range(start, start + length)

    cases = []
    for name in GRID_RECORDS:
        width = len(identities.IDENTITIES[name].grid_variables)
        for n, d in itertools.product(range(4), (1, 2, 3)):
            for _ in range(3):
                cases.append((name, [axis(rng.randint(1, n + 2)) for _ in range(width)], n, d))
            cases.append((name, [axis(1) for _ in range(width)], n, d))
        cases.append((name, [axis(2) for _ in range(width - 1)] + [axis(0)], 2, 1))
        cases.append((name, [axis(0)] + [axis(2) for _ in range(width - 1)], 2, 1))
    for eps in (range(-4, -1), range(-3, -2), range(-2, 3), range(-1, 1), range(0, 1),
                range(2, 5), range(-5, -4)):
        for n in (0, 1, 3):
            lengths = [rng.randint(1, 3) for _ in range(3)]
            cases.append(("gould", [axis(k) for k in lengths] + [eps], n, rng.choice((1, 2))))
    return cases


def test_grid_streams_match_the_oracle_at_every_point_in_product_order():
    for name, axes, n, d in stream_cases():
        lhs, rhs = (list(side) for side in identities.IDENTITIES[name].sides(*axes, n, d))
        expected = [reference_sides(name, *point, n, d) for point in itertools.product(*axes)]
        assert lhs == [side for side, _ in expected], (name, axes, n, d)
        assert rhs == [side for _, side in expected], (name, axes, n, d)


@pytest.mark.parametrize("name", GRID_RECORDS)
def test_grid_prove_fetches_each_row_once_per_axis_pair_not_per_point(name):
    # gould reads the rows of x and of x + eps at every z, each once: at most
    # (n + 1)(3n + 2) calls per builder, against (n + 1)**v points
    width = len(identities.IDENTITIES[name].grid_variables)
    offsets = (1, -2, 0, -3)[:width]
    for n in (4, 7):
        clear_rows()
        assert identities.grid_prove(name, n, offsets).passed
        calls = {cache.__name__: cache.cache_info().hits + cache.cache_info().misses
                 for cache in row_caches()}
        assert 0 < max(calls.values()) <= 3 * (n + 1) ** 2 < (n + 1) ** width, (n, calls)


def test_grid_prove_memory_does_not_follow_the_point_count():
    # with the rows cached, the traced peak is the per-grid tables of rows,
    # O((n + 1)**2) references; one reference per point from n = 6 to n = 12
    # (2,401 to 28,561 points) would add about 204 KiB
    import tracemalloc

    def peak(n):
        clear_rows()
        identities.grid_prove("gould", n)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert identities.grid_prove("gould", n).params["grid_points"] == (n + 1) ** 4
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        small, large = peak(6), peak(12)
    finally:
        tracemalloc.stop()
    assert large - small <= 2**16, (small, large)
