"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (integers, rationals, polynomials); the stated
tolerances are all zero. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines as they complete.
"""

import math
import time

from rothe_lab import (
    Grading,
    b_count,
    check_invw,
    check_kmpink,
    check_kmx,
    check_pqkm,
    check_qchu,
    check_qchu_m1,
    check_rothe2,
    compose,
    decompose,
    enumerate_gamma,
    gaussian_binomial,
    gen_binomial,
    grid_prove,
    has_prefix_of_weight,
    qweighted_bijection_check,
    theorem1_forward,
    theorem1_inverse,
    weight,
)
from rothe_lab.bijections import BranchA
from rothe_lab.qseries import LaurentPolynomial, qchu_m1_term, qchu_term


def comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def report(number: int, name: str, failures: list, detail: str) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail})")
    assert not failures, failures[:5]


def shift_ranges():
    """Parameter tuples shared by criteria 2 and 3."""
    for m in range(4):
        for n in range(5):
            for p in range(m * n, m * n + 6):
                for q in range(1, 6):
                    if p + q + m * n <= 18:
                        yield m, n, p, q


def test_criterion_1_cardinality_oracle():
    start = time.monotonic()
    failures = []
    classes = words_seen = 0
    for m in range(4):
        g = Grading(m)
        for p in range(25):
            for k in range(7):
                got = len(enumerate_gamma(p, k, g))
                expected = comb0(p - k * m, k)
                classes += 1
                words_seen += got
                if got != expected:
                    failures.append((m, p, k, got, expected))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, "cardinality-oracle", failures,
           f"{classes} classes, {words_seen} words, {elapsed:.1f}s")


def test_criterion_2_shift_bijection_roundtrip():
    start = time.monotonic()
    failures = []
    tuples = words_seen = 0
    for m, n, p, q in shift_ranges():
        g = Grading(m)
        everything = enumerate_gamma(p + q + m * n, n, g)
        domain = [w for w in everything if has_prefix_of_weight(w, p, g)]
        codomain = {w for w in everything if has_prefix_of_weight(w, p + 1, g)}
        tuples += 1
        words_seen += len(domain) + len(codomain)
        if len(domain) != len(codomain):
            failures.append(("cardinality", m, n, p, q))
            continue
        images = set()
        for w in domain:
            out = theorem1_forward(w, p, q, g)
            if out not in codomain:
                failures.append(("codomain", m, n, p, q, w))
            if theorem1_inverse(out, p, q, g) != w:
                failures.append(("left-roundtrip", m, n, p, q, w))
            images.add(out)
        if images != codomain:
            failures.append(("surjectivity", m, n, p, q))
        for w in codomain:
            if theorem1_forward(theorem1_inverse(w, p, q, g), p, q, g) != w:
                failures.append(("right-roundtrip", m, n, p, q, w))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(2, "shift-bijection-roundtrip", failures,
           f"{tuples} tuples, {words_seen} word checks, {elapsed:.1f}s")


def test_criterion_3_factorization_bijection():
    start = time.monotonic()
    failures = []
    tuples = 0
    for m, n, p, q in shift_ranges():
        g = Grading(m)
        everything = enumerate_gamma(p + q + m * n, n, g)
        tuples += 1
        branch_a = 0
        branch_b_counts: dict[tuple[int, int], int] = {}
        seen = set()
        for w in everything:
            d = decompose(w, p, q, g)
            if compose(d, p, q, g) != w:
                failures.append(("roundtrip", m, n, p, q, w))
            if d in seen:
                failures.append(("collision", m, n, p, q, w))
            seen.add(d)
            if isinstance(d, BranchA):
                branch_a += 1
                if not has_prefix_of_weight(d.w, p, g):
                    failures.append(("branchA-membership", m, n, p, q, w))
            else:
                key = (d.j, d.k)
                branch_b_counts[key] = branch_b_counts.get(key, 0) + 1
                ok = (
                    1 <= d.j <= m
                    and 1 <= d.k <= n
                    and weight(d.u_prime, g) == p + d.j - m - 1
                    and b_count(d.u_prime) == d.k - 1
                    and weight(d.v, g) == q + m * n - d.j
                    and b_count(d.v) == n - d.k
                )
                if not ok:
                    failures.append(("branchB-membership", m, n, p, q, w))
        # counting both sides of the partition reproduces the summation identity
        prefix_count = sum(
            comb0(p - k * m, k) * comb0(q + k * m, n - k) for k in range(n + 1)
        )
        if branch_a != prefix_count:
            failures.append(("branchA-count", m, n, p, q, branch_a, prefix_count))
        for j in range(1, m + 1):
            for k in range(1, n + 1):
                expected = comb0(p + j - m - 1 - (k - 1) * m, k - 1) * comb0(
                    q + m * n - j - (n - k) * m, n - k
                )
                if branch_b_counts.get((j, k), 0) != expected:
                    failures.append(("branchB-count", m, n, p, q, j, k))
        total = branch_a + sum(branch_b_counts.values())
        if total != len(everything) or total != comb0(p + q, n):
            failures.append(("total-count", m, n, p, q))
    elapsed = time.monotonic() - start
    report(3, "factorization-bijection", failures, f"{tuples} tuples, {elapsed:.1f}s")


def test_criterion_4_grid_certification():
    start = time.monotonic()
    failures = []
    points = 0
    for identity, n_max in (("rothe1", 6), ("rothe2", 6), ("gould", 4)):
        for n in range(n_max + 1):
            rep = grid_prove(identity, n)
            points += rep.params["grid_points"]
            if not rep.passed:
                failures.append((identity, n, rep.counterexample))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, "grid-certification", failures, f"{points} grid points, {elapsed:.1f}s")


def test_criterion_5_integer_identity_sweeps():
    failures = []
    checks = 0
    for m in range(4):
        for n in range(6):
            for p in range(m * n, m * n + 7):
                for q in range(7):
                    rep = check_pqkm(p, q, m, n)
                    checks += 1
                    if not rep.passed:
                        failures.append(("pqkm", p, q, m, n))
                    if q >= 1:
                        rep = check_kmx(p, q, m, n)
                        checks += 1
                        if not rep.passed:
                            failures.append(("kmx", p, q, m, n))
                    for j in range(1, m + 1):
                        rep = check_kmpink(p, q, m, n, j)
                        checks += 1
                        if not rep.passed:
                            failures.append(("kmpink", p, q, m, n, j))
    report(5, "integer-identity-sweeps", failures, f"{checks} checks")


def test_criterion_6_inversion_oracle():
    start = time.monotonic()
    failures = []
    checks = 0
    for m in range(4):
        for k in range(6):
            for p in range(k * m, 19):
                rep = check_invw(p, k, m)
                checks += 1
                if not rep.passed:
                    failures.append((p, k, m))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, "inversion-oracle", failures, f"{checks} checks, {elapsed:.1f}s")


def test_criterion_7_qchu_extension():
    start = time.monotonic()
    failures = []
    checks = 0
    for m in range(4):
        for n in range(5):
            for x in range(m * n, m * n + 5):
                for y in range(1, 6):
                    rep = check_qchu(x, y, m, n)
                    checks += 1
                    if not rep.passed:
                        failures.append(("qchu", x, y, m, n))
                    if m == 0:
                        # the inner sum vanishes: literally the classical
                        # q-Chu-Vandermonde summation
                        classical = LaurentPolynomial()
                        for k in range(n + 1):
                            classical = classical + (
                                gaussian_binomial(x, k) * gaussian_binomial(y, n - k)
                            ).shift(k * (k + y - n))
                        if rep.lhs != classical:
                            failures.append(("classical-qchu", x, y, n))
                    if m == 1:
                        special = check_qchu_m1(x, y, n)
                        if special.lhs != rep.lhs or not special.passed:
                            failures.append(("m1-mismatch", x, y, n))
                        for k in range(n + 1):
                            if qchu_m1_term(x, y, n, k) != qchu_term(x, y, 1, n, k):
                                failures.append(("m1-term", x, y, n, k))
                    wrep = qweighted_bijection_check(x, y, m, n)
                    checks += 1
                    if not wrep.passed:
                        failures.append(("qword", x, y, m, n))
                    if wrep.lhs != gaussian_binomial(x + y, n):
                        failures.append(("qword-bracket", x, y, m, n))
    elapsed = time.monotonic() - start
    report(7, "qchu-extension", failures, f"{checks} checks, {elapsed:.1f}s")


def test_criterion_8_singularity_regression():
    failures = []
    rep = check_rothe2(2, 2, 1, 2)
    if not rep.passed:
        failures.append(rep.to_json_dict())
    if rep.lhs != 6 or rep.rhs != gen_binomial(4, 2):
        failures.append(("value", str(rep.lhs), str(rep.rhs)))
    report(8, "singularity-regression", failures, "x=2 y=2 z=1 n=2 evaluates to 6")
