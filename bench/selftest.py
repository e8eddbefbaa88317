"""Self-test of the benchmark's checkers: each gets a right answer, which it
must accept, and a deliberately wrong one, which must mark the operation
failed. Run with ``python3 bench/selftest.py``; exits 0 when every wrong
answer is caught. It lives outside ``tests/`` and is not collected there.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from types import SimpleNamespace

from common import SRC, OperationLog

sys.path.insert(0, SRC)

import cli_mixed  # noqa: E402
import oracles  # noqa: E402
from rothe_lab import Grading, LaurentPolynomial, cli, identities, qseries  # noqa: E402
from rothe_lab import bijections  # noqa: E402


def outcome(answer, checker) -> OperationLog:
    """Pass ``answer`` through the workload's call-then-check path."""
    log = OperationLog()
    log.new_round()
    ok, out = log.call(lambda: answer)
    if ok:
        log.check(checker(out))
    return log


def expect(name: str, right, wrong, checker) -> bool:
    good, bad = outcome(right, checker), outcome(wrong, checker)
    caught = good.failed == 0 and good.correct and bad.failed == 1 and not bad.correct
    detail = bad.problems[0] if bad.problems else "not caught"
    print(f"{'ok  ' if caught else 'FAIL'} {name}: {detail}")
    return caught


def with_rhs(report, poly):
    return SimpleNamespace(lhs=poly, rhs=poly, passed=True, identity=report.identity,
                           params=report.params)


def polynomial_cases() -> list[bool]:
    x, y, m, n = 6, 3, 1, 3
    report = qseries.check_qchu(x, y, m, n)
    terms = report.rhs.terms()
    one_off = {**terms, 2: terms[2] + 1}
    # sum, degree and symmetry kept: only the box-partition DP sees this one
    shifted = dict(terms)
    top = max(terms)
    for e, d in ((1, 1), (top - 1, 1), (2, -1), (top - 2, -1)):
        shifted[e] += d
    invw = qseries.check_invw(10, 4, 1)
    invw_wrong = {**invw.lhs.terms(), 0: 2}
    return [
        expect("qchu rhs with one coefficient changed",
               report, with_rhs(report, LaurentPolynomial(one_off)),
               lambda r: oracles.check_qchu_report(r, x, y, n, box=False)),
        expect("qchu rhs with a symmetric change",
               report, with_rhs(report, LaurentPolynomial(shifted)),
               lambda r: oracles.check_qchu_report(r, x, y, n, box=True)),
        expect("inversion generating function with one coefficient changed",
               invw, with_rhs(invw, LaurentPolynomial(invw_wrong)),
               lambda r: oracles.check_class_gf(r, 6, 4)),
    ]


def bijection_case() -> bool:
    p, q, m = 3, 4, 1
    g = Grading(m)
    n = 3
    domain = [w for w in oracles.own_class(p + q + m * n, n, m) if p in oracles.prefix_sums(w, m)]
    for w in domain:
        image = bijections.theorem1_forward(w, p, q, g)
        i = image.index("a")
        j = image.index("b")
        swapped = list(image)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        swapped = "".join(swapped)
        if p + 1 not in oracles.prefix_sums(swapped, m):
            continue  # the inverse would refuse it; pick a swap it accepts
        back = bijections.theorem1_inverse(swapped, p, q, g)
        right_back = bijections.theorem1_inverse(image, p, q, g)
        return expect(
            "theorem1 image with two letters swapped",
            (image, right_back), (swapped, back),
            lambda pair: oracles.check_shift(w, pair[0], pair[1], p + 1, m),
        )
    print("FAIL no swappable image found")
    return False


def grid_case() -> bool:
    n, offsets = 3, (1, -2, 0)
    report = identities.grid_prove("rothe1", n, offsets)
    wrong = SimpleNamespace(passed=True, params=report.params, lhs=report.lhs + 1, rhs=report.rhs)
    return expect("grid_prove with a wrong left side", report, wrong,
                  lambda r: oracles.check_grid_report(r, "rothe1", n, offsets))


def cli_cases() -> list[bool]:
    results = []
    for fmt in ("text", "json"):
        op = cli_mixed.verify("kmx", fmt, p=(0, 4), q=(0, 2), m=(0, 1), n=(0, 2))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(op.argv)
        out = buffer.getvalue()
        *body, last = out.splitlines()
        if fmt == "text":
            count, rest = last.split(" ", 1)
            last = f"{int(count) + 1} {rest}"
        else:
            summary = json.loads(last)
            last = json.dumps({**summary, "checked": summary["checked"] - 1})
        wrong = "\n".join([*body, last]) + "\n"
        results.append(code == 0 and expect(
            f"verify --format {fmt} summary with a wrong count", out, wrong, op.check))
    return results


def main() -> int:
    results = [*polynomial_cases(), bijection_case(), grid_case(), *cli_cases()]
    print(f"selftest: {sum(results)} of {len(results)} wrong answers caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
