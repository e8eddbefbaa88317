"""Independent computations and output checkers for the rothe-lab benchmark.

Nothing here imports ``rothe_lab``. The oracles are computed apart from the
program (plain-integer closed forms, a partition-counting DP, the
benchmark's own prefix sums and word enumeration), and each checker takes a
program output plus the inputs that produced it and returns ``None`` when the
output is right or a one-line description of what is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
import re

# ---------------------------------------------------------------------------
# integer closed forms for the rational identities


def falling(t: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= t - i
    return out


def binom(t: int, k: int) -> int:
    """Generalized binomial for integer ``t`` (any sign): ``t^(k) / k!``."""
    if k < 0:
        return 0
    return falling(t, k) // math.factorial(k)


def rothe_b(x: int, z: int, k: int) -> int:
    """``x / (x - kz) * C(x - kz, k)`` written as the integer
    ``C(x - kz, k) + z * C(x - kz - 1, k - 1)``, which has no singular line."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    return binom(x - k * z, k) + z * binom(x - k * z - 1, k - 1)


def closed_form(identity: str, point: tuple[int, ...], n: int) -> int:
    """The common value of both sides of a grid identity at an integer point.

    rothe1: ``B_n(x + y, z)``. rothe2: ``C(x + y, n)``. gould:
    ``sum_k C(x + y - k, n - k) (-z)^k`` (Concrete Mathematics (5.62)), which
    depends on ``x + y`` only, so the ``eps`` shift cannot change it.
    """
    if identity == "rothe1":
        x, y, z = point
        return rothe_b(x + y, z, n)
    if identity == "rothe2":
        x, y, z = point
        return binom(x + y, n)
    if identity == "gould":
        x, y, z, _eps = point
        return sum(binom(x + y - k, n - k) * (-z) ** k for k in range(n + 1))
    raise ValueError(f"no closed form for {identity!r}")


GRID_VARIABLES = {"rothe1": 3, "rothe2": 3, "gould": 4}


def check_grid_report(report, identity: str, n: int, offsets) -> str | None:
    """A passing ``grid_prove`` report over ``(n + 1) ** vars`` points whose
    final sides (evaluated at the grid's far corner) equal the closed form."""
    if not report.passed:
        return f"grid_prove({identity}, {n}, {offsets}) did not pass"
    expected = (n + 1) ** GRID_VARIABLES[identity]
    if report.params.get("grid_points") != expected:
        return f"grid_points {report.params.get('grid_points')} != {expected}"
    corner = tuple(off + n for off in offsets)
    truth = closed_form(identity, corner, n)
    if report.lhs != truth or report.rhs != truth:
        return f"sides at {corner} are {report.lhs}, {report.rhs}; expected {truth}"
    return None


def check_point_report(report, identity: str, point, n: int) -> str | None:
    truth = closed_form(identity, tuple(point), n)
    if not report.passed or report.lhs != truth or report.rhs != truth:
        return f"{identity}{tuple(point)} n={n}: {report.lhs} / {report.rhs}, expected {truth}"
    return None


# ---------------------------------------------------------------------------
# q-series: box partitions and the shape of a Gaussian binomial


def box_partitions(h: int, w: int) -> list[int]:
    """Coefficients of the partitions fitting in an ``h x w`` box, by size.

    Counts multisets of at most ``h`` parts from ``{1..w}`` with a knapsack
    DP; it shares no recurrence with the q-Pascal rule. ``[h + w, h]``
    equals this generating function.
    """
    if h < 0 or w < 0:
        return []
    size = h * w
    dp = [[0] * (size + 1) for _ in range(h + 1)]
    dp[0][0] = 1
    for part in range(1, w + 1):
        for c in range(1, h + 1):
            row, prev = dp[c], dp[c - 1]
            for s in range(part, size + 1):
                row[s] += prev[s - part]
    return [sum(dp[c][s] for c in range(h + 1)) for s in range(size + 1)]


def coefficients(poly) -> list[int] | None:
    """Dense coefficients ``[c_0, ..., c_d]`` of a polynomial with no negative
    exponents, read through its public ``sorted_terms``; ``None`` otherwise."""
    terms = poly.sorted_terms()
    if not terms:
        return []
    if terms[0][0] < 0:
        return None
    dense = [0] * (terms[-1][0] + 1)
    for exponent, coeff in terms:
        dense[exponent] = coeff
    return dense


def check_gaussian(poly, a: int, k: int, *, box: bool) -> str | None:
    """``poly`` is ``[a, k]``: value ``C(a, k)`` at ``q = 1``, minimum
    exponent 0, degree ``k (a - k)``, palindromic coefficients, and (with
    ``box``) equal to the box-partition DP."""
    expected_total = math.comb(a, k) if 0 <= k <= a else 0
    dense = coefficients(poly)
    if dense is None:
        return f"[{a},{k}] has a negative exponent"
    if sum(dense) != expected_total:
        return f"[{a},{k}] at q=1 is {sum(dense)}, expected {expected_total}"
    if expected_total == 0:
        return None if not dense else f"[{a},{k}] should be zero"
    if dense[0] == 0 or len(dense) - 1 != k * (a - k):
        return f"[{a},{k}] spans degrees other than 0..{k * (a - k)}"
    if dense != dense[::-1]:
        return f"[{a},{k}] is not palindromic"
    if box and dense != box_partitions(k, a - k):
        return f"[{a},{k}] differs from the box-partition count"
    return None


def check_qchu_report(report, x: int, y: int, n: int, *, box: bool) -> str | None:
    """A q-Chu-Vandermonde report: both sides equal, and the right side is
    ``[x + y, n]`` by :func:`check_gaussian`."""
    if report.lhs.sorted_terms() != report.rhs.sorted_terms() or not report.passed:
        return f"qchu x={x} y={y} n={n}: sides differ"
    return check_gaussian(report.rhs, x + y, n, box=box)


def check_class_gf(report, a: int, k: int) -> str | None:
    """An enumerated inversion generating function (``check_invw`` or
    ``qweighted_bijection_check``) that passes and equals ``[a, k]``."""
    if not report.passed:
        return f"{report.identity} {report.params} did not pass"
    return check_gaussian(report.lhs, a, k, box=True)


# ---------------------------------------------------------------------------
# words


def prefix_sums(w: str, m: int) -> set[int]:
    """Weights of all prefixes of ``w``, the empty one included."""
    heavy = m + 1
    acc = 0
    out = {0}
    for letter in w:
        acc += 1 if letter == "a" else heavy
        out.add(acc)
    return out


def inversions(w: str) -> int:
    """Pairs ``i < j`` with ``w[i] == 'b'`` and ``w[j] == 'a'``."""
    seen = inv = 0
    for letter in w:
        if letter == "b":
            seen += 1
        else:
            inv += seen
    return inv


def word_weight(w: str, m: int) -> int:
    return len(w) + m * w.count("b")


def own_class(total: int, k: int, m: int) -> list[str]:
    """Every word of weight ``total`` with ``k`` letters ``b``, by
    ``itertools.combinations`` over the positions of the ``b``s."""
    length = total - m * k
    if k < 0 or length < k:
        return []
    out = []
    for positions in itertools.combinations(range(length), k):
        chars = ["a"] * length
        for i in positions:
            chars[i] = "b"
        out.append("".join(chars))
    return sorted(out)


def check_shift(w: str, image: str, back: str, target: int, m: int) -> str | None:
    """A prefix-shift image (``target`` is ``p + 1`` for theorem1_forward and
    ``p`` for its inverse) keeps weight and b-count, has a prefix of weight
    ``target``, and the map in the other direction returns the input."""
    if word_weight(image, m) != word_weight(w, m) or image.count("b") != w.count("b"):
        return f"theorem1 {w} -> {image} changes weight or b-count"
    if target not in prefix_sums(image, m):
        return f"theorem1 {w} -> {image} has no prefix of weight {target}"
    if back != w:
        return f"theorem1 round trip {w} -> {image} -> {back}"
    return None


# ---------------------------------------------------------------------------
# CLI output

SUMMARY_RE = re.compile(r"^(\d+) checked, (\d+) failed(?:, (\d+) skipped)?$")


def check_summary(stdout: str, fmt: str, checked: int, skipped: int) -> str | None:
    """The last line of a ``verify`` run reports ``checked`` tuples, none
    failed and ``skipped`` skipped, and the run printed one passing verdict
    per checked tuple (every JSON line must parse)."""
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    if fmt == "json":
        try:
            records = [json.loads(line) for line in lines]
        except ValueError:
            return "a --format json line does not parse"
        got = records[-1]
        if got != {"checked": checked, "failed": 0, "skipped": skipped}:
            return f"summary {got}, expected {checked} checked, {skipped} skipped"
        passes = sum(1 for r in records[:-1] if r.get("status") == "pass")
    else:
        found = SUMMARY_RE.match(lines[-1])
        if found is None:
            return f"no summary line: {lines[-1]!r}"
        got = (int(found[1]), int(found[2]), int(found[3] or 0))
        if got != (checked, 0, skipped):
            return f"summary {lines[-1]!r}, expected {checked} checked, {skipped} skipped"
        passes = sum(1 for line in lines[:-1] if ": PASS " in line)
    if passes != checked or len(lines) != checked + 1:
        return f"{passes} passing verdicts in {len(lines) - 1} lines, expected {checked}"
    return None
