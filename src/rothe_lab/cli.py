"""Command line front end: enumeration, bijections, identity sweeps, grid proofs.

Exit codes are a stable contract: 0 when every check passes, 1 when a
mathematical check fails (a counterexample is printed), 2 on usage or
configuration errors, work-cap breaches included. Output is deterministic;
``--format json`` emits one JSON object per line with identical verdicts to
the text mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from . import bijections, identities, qseries, words
from .errors import (
    CapExceededError,
    InvariantViolationError,
    NotInDomainError,
    ParameterError,
    UnsupportedArgumentError,
)
from .identities import VerificationReport
from .words import Grading

DEFAULT_WORK_CAP = 10_000_000
CAP_ENV_VAR = "ROTHE_LAB_CAP"


class UsageError(Exception):
    """Bad flags or sweep configuration; maps to exit code 2."""


def _comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _fmt_word(w: str) -> str:
    return w if w else "ε"


# ---------------------------------------------------------------------------
# verify: sweep machinery


@dataclass(frozen=True)
class SweepConfig:
    """A resolved verification sweep."""

    identity: str
    values: dict[str, list]
    fmt: str
    fail_fast: bool
    cap: int


@dataclass(frozen=True)
class _IdentityDef:
    order: tuple[str, ...]
    run: Callable[[dict], VerificationReport]
    estimate: Callable[[dict], int]
    fractional: frozenset = frozenset()
    dependent: dict = field(default_factory=dict)
    skip: Callable[[dict], bool] | None = None
    enum_length: Callable[[dict], int | None] | None = None


def _run_cardinality(v: dict) -> VerificationReport:
    count = len(words.enumerate_gamma(v["p"], v["k"], Grading(v["m"])))
    predicted = _comb0(v["p"] - v["k"] * v["m"], v["k"])
    return VerificationReport.from_sides(
        "cardinality",
        {"p": v["p"], "k": v["k"], "m": v["m"]},
        Fraction(count),
        Fraction(predicted),
    )


def _card_length(v: dict) -> int | None:
    if v["p"] - (v["m"] + 1) * v["k"] < 0:
        return None
    return v["p"] - v["m"] * v["k"]


def _card_work(v: dict) -> int:
    return _comb0(v["p"] - v["k"] * v["m"], v["k"]) * max(1, v["p"] - v["m"] * v["k"]) + 1


def _qword_length(v: dict) -> int | None:
    if v["p"] + v["q"] - v["n"] < 0:
        return None
    return v["p"] + v["q"]


IDENTITIES: dict[str, _IdentityDef] = {
    "rothe1": _IdentityDef(
        order=("x", "y", "z", "n"),
        fractional=frozenset({"x", "y", "z"}),
        run=lambda v: identities.check_rothe1(v["x"], v["y"], v["z"], v["n"]),
        estimate=lambda v: v["n"] + 1,
    ),
    "rothe2": _IdentityDef(
        order=("x", "y", "z", "n"),
        fractional=frozenset({"x", "y", "z"}),
        run=lambda v: identities.check_rothe2(v["x"], v["y"], v["z"], v["n"]),
        estimate=lambda v: v["n"] + 1,
    ),
    "gould": _IdentityDef(
        order=("x", "y", "z", "n", "eps"),
        fractional=frozenset({"x", "y", "z", "eps"}),
        dependent={"eps": lambda acc: range(0, acc["n"] + 1)},
        run=lambda v: identities.check_gould(v["x"], v["y"], v["z"], v["eps"], v["n"]),
        estimate=lambda v: 2 * (v["n"] + 1),
    ),
    "pqkm": _IdentityDef(
        order=("p", "q", "m", "n"),
        run=lambda v: identities.check_pqkm(v["p"], v["q"], v["m"], v["n"]),
        estimate=lambda v: 2 * (v["n"] + 1),
    ),
    "kmx": _IdentityDef(
        order=("p", "q", "m", "n"),
        run=lambda v: identities.check_kmx(v["p"], v["q"], v["m"], v["n"]),
        estimate=lambda v: (v["n"] + 1) * (v["m"] + 1),
        skip=lambda v: v["p"] < v["m"] * v["n"] or v["q"] < 1,
    ),
    "kmpink": _IdentityDef(
        order=("p", "q", "m", "n", "j"),
        dependent={"j": lambda acc: range(1, acc["m"] + 1)},
        run=lambda v: identities.check_kmpink(v["p"], v["q"], v["m"], v["n"], v["j"]),
        estimate=lambda v: 2 * (v["n"] + 1),
        skip=lambda v: not 1 <= v["j"] <= v["m"],
    ),
    "cardinality": _IdentityDef(
        order=("p", "k", "m"),
        run=_run_cardinality,
        estimate=_card_work,
        enum_length=_card_length,
    ),
    "invw": _IdentityDef(
        order=("p", "k", "m"),
        run=lambda v: qseries.check_invw(v["p"], v["k"], v["m"]),
        estimate=_card_work,
        skip=lambda v: v["p"] < v["k"] * v["m"],
        enum_length=_card_length,
    ),
    "qchu": _IdentityDef(
        order=("x", "y", "m", "n"),
        run=lambda v: qseries.check_qchu(v["x"], v["y"], v["m"], v["n"]),
        estimate=lambda v: (v["n"] + 1) ** 2 * (v["m"] + 1) + 1,
        skip=lambda v: v["x"] < v["m"] * v["n"] or v["y"] < 1,
    ),
    "qchu-m1": _IdentityDef(
        order=("x", "y", "n"),
        run=lambda v: qseries.check_qchu_m1(v["x"], v["y"], v["n"]),
        estimate=lambda v: 2 * (v["n"] + 1) ** 2 + 1,
        skip=lambda v: v["x"] < v["n"] or v["y"] < 1,
    ),
    "qword": _IdentityDef(
        order=("p", "q", "m", "n"),
        run=lambda v: qseries.qweighted_bijection_check(v["p"], v["q"], v["m"], v["n"]),
        estimate=lambda v: _comb0(v["p"] + v["q"], v["n"]) * max(1, v["p"] + v["q"])
        + (v["n"] + 1) ** 2 * (v["m"] + 1)
        + 1,
        skip=lambda v: v["p"] < v["m"] * v["n"] or v["q"] < 1,
        enum_length=_qword_length,
    ),
}


def _parse_values(text: str, name: str, fractional: bool) -> list:
    """Parse ``"2..5"`` as an inclusive integer range, ``"3"`` as a single
    integer, and (where rationals are legal) ``"1/2"`` as a single fraction."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise UsageError(f"--{name}: bad range {text!r}; expected LO..HI") from None
        if lo > hi:
            raise UsageError(f"--{name}: empty range {text!r}")
        return list(range(lo, hi + 1))
    if "/" in text:
        if not fractional:
            raise UsageError(f"--{name} must be an integer or integer range, got {text!r}")
        try:
            return [Fraction(text)]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--{name}: bad rational {text!r}") from None
    try:
        return [int(text)]
    except ValueError:
        raise UsageError(
            f"--{name}: bad value {text!r}; expected an integer, LO..HI or NUM/DEN"
        ) from None


def _expand_tuples(defn: _IdentityDef, values: dict[str, list]) -> Iterator[dict]:
    order = defn.order

    def rec(i: int, acc: dict) -> Iterator[dict]:
        if i == len(order):
            yield dict(acc)
            return
        name = order[i]
        pool = values[name] if name in values else defn.dependent[name](acc)
        for value in pool:
            acc[name] = value
            yield from rec(i + 1, acc)
        acc.pop(name, None)

    return rec(0, {})


def _resolve_cap(args) -> int:
    if args.cap is not None:
        if args.cap < 1:
            raise UsageError(f"--cap must be positive, got {args.cap}")
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"${CAP_ENV_VAR} must be an integer, got {env!r}") from None
        if cap < 1:
            raise UsageError(f"${CAP_ENV_VAR} must be positive, got {cap}")
        return cap
    return DEFAULT_WORK_CAP


def _format_report_text(report: VerificationReport) -> str:
    params = " ".join(f"{k}={v}" for k, v in report.params.items())
    head = f"{report.identity} {params}" if params else report.identity
    if report.passed:
        return f"{head}: PASS {report.lhs}"
    return f"{head}: FAIL lhs={report.lhs} rhs={report.rhs}"


def _emit_report(report: VerificationReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(_format_report_text(report))


def cmd_verify(args) -> int:
    defn = IDENTITIES.get(args.identity)
    if defn is None:
        raise UsageError(
            f"unknown identity {args.identity!r}; choose from {', '.join(sorted(IDENTITIES))}"
        )
    values: dict[str, list] = {}
    for name in defn.order:
        raw = getattr(args, name.replace("-", "_"))
        if raw is None:
            if name in defn.dependent:
                continue
            raise UsageError(f"--{name} is required for identity '{args.identity}'")
        values[name] = _parse_values(raw, name, fractional=name in defn.fractional)
    cfg = SweepConfig(args.identity, values, args.format, args.fail_fast, _resolve_cap(args))

    # estimate the work up front, stopping at the first tuple that breaches a
    # cap; refuse the whole sweep on a breach
    total_work = 0
    for v in _expand_tuples(defn, values):
        if defn.skip is not None and defn.skip(v):
            continue
        if defn.enum_length is not None:
            length = defn.enum_length(v)
            if length is not None and length > words.MAX_WORD_LENGTH:
                raise UsageError(
                    f"tuple {v} enumerates words of length {length}, beyond the "
                    f"length cap {words.MAX_WORD_LENGTH}"
                )
        total_work += defn.estimate(v)
        if total_work > cfg.cap:
            raise UsageError(
                f"estimated work of at least {total_work} exceeds the cap {cfg.cap}; "
                f"narrow the ranges or raise --cap / ${CAP_ENV_VAR}"
            )

    checked = failed = skipped = 0
    for v in _expand_tuples(defn, values):
        if defn.skip is not None and defn.skip(v):
            skipped += 1
            continue
        report = defn.run(v)
        checked += 1
        if not report.passed:
            failed += 1
        _emit_report(report, cfg.fmt)
        if failed and cfg.fail_fast:
            break
    if cfg.fmt == "json":
        print(json.dumps({"checked": checked, "failed": failed, "skipped": skipped}))
    else:
        tail = f", {skipped} skipped" if skipped else ""
        print(f"{checked} checked, {failed} failed{tail}")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    g = Grading(args.m)
    if args.prefix_weight is None:
        listing = words.enumerate_gamma(args.p, args.k, g)
    else:
        listing = words.enumerate_gamma_prefix(args.p, args.k, args.prefix_weight, g)
    predicted = _comb0(args.p - args.k * args.m, args.k)
    for w in listing:
        if args.format == "json":
            entry = words.word_json(w, g)
            entry["inversions"] = words.inversions(w)
            print(json.dumps(entry))
        else:
            print(f"{_fmt_word(w)}  weight={words.weight(w, g)} inv={words.inversions(w)}")
    if args.format == "json":
        print(json.dumps({"count": len(listing), "predicted": predicted}))
    else:
        print(
            f"count {len(listing)}, predicted C({args.p - args.k * args.m},{args.k}) = {predicted}"
        )
    return 0


# ---------------------------------------------------------------------------
# bijection


def _emit_pair(w: str, out: str, args, fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {
                    "input": w,
                    "output": out,
                    "p": args.p,
                    "q": args.q,
                    "m": args.m,
                    "n": args.n,
                }
            )
        )
    else:
        print(f"{_fmt_word(w)} → {_fmt_word(out)}")


def _bijection_theorem1(args, g: Grading) -> int:
    forward = bijections.theorem1_inverse if args.inverse else bijections.theorem1_forward
    backward = bijections.theorem1_forward if args.inverse else bijections.theorem1_inverse
    if args.word is not None:
        w = args.word
        if words.b_count(w) != args.n:
            raise UsageError(
                f"word {w!r} has {words.b_count(w)} letters 'b', expected n={args.n}"
            )
        out = forward(w, args.p, args.q, g)
        _emit_pair(w, out, args, args.format)
        return 0

    total = args.p + args.q + g.m * args.n
    domain_r = args.p + 1 if args.inverse else args.p
    codomain_r = args.p if args.inverse else args.p + 1
    everything = words.enumerate_gamma(total, args.n, g)
    domain = [w for w in everything if words.has_prefix_of_weight(w, domain_r, g)]
    codomain = {w for w in everything if words.has_prefix_of_weight(w, codomain_r, g)}
    problems: list[str] = []
    outputs = []
    for w in domain:
        out = forward(w, args.p, args.q, g)
        outputs.append(out)
        _emit_pair(w, out, args, args.format)
        if out not in codomain:
            problems.append(f"{w} maps to {out}, outside the target class")
        elif backward(out, args.p, args.q, g) != w:
            problems.append(f"round trip failed for {w}")
    if len(set(outputs)) != len(outputs):
        problems.append("outputs are not pairwise distinct")
    if len(domain) != len(codomain):
        problems.append(f"class sizes differ: {len(domain)} vs {len(codomain)}")
    return _bijection_summary(problems, len(domain), args.format)


def _bijection_summary(problems: list[str], count: int, fmt: str) -> int:
    if fmt == "json":
        record: dict = {"status": "ok" if not problems else "failed", "count": count}
        if problems:
            record["reason"] = problems[0]
        print(json.dumps(record))
    else:
        if problems:
            print(f"BIJECTION FAILED: {problems[0]}")
        else:
            print(f"BIJECTION OK ({count} words)")
    return 0 if not problems else 1


def _describe_decomposition(d: bijections.Decomposition) -> str:
    if isinstance(d, bijections.BranchA):
        return f"BranchA w={_fmt_word(d.w)}"
    return f"BranchB j={d.j} k={d.k} u'={_fmt_word(d.u_prime)} v={_fmt_word(d.v)}"


def _decomposition_json(w: str, d: bijections.Decomposition, args) -> dict:
    record: dict = {"input": w, "p": args.p, "q": args.q, "m": args.m, "n": args.n}
    if isinstance(d, bijections.BranchA):
        record["branch"] = "A"
    else:
        record.update(branch="B", j=d.j, k=d.k, u_prime=d.u_prime, v=d.v)
    return record


def _bijection_factorize(args, g: Grading) -> int:
    if args.word is not None:
        w = args.word
        if words.b_count(w) != args.n:
            raise UsageError(
                f"word {w!r} has {words.b_count(w)} letters 'b', expected n={args.n}"
            )
        d = bijections.decompose(w, args.p, args.q, g)
        if args.format == "json":
            print(json.dumps(_decomposition_json(w, d, args)))
        else:
            print(_describe_decomposition(d))
        return 0

    total = args.p + args.q + g.m * args.n
    everything = words.enumerate_gamma(total, args.n, g)
    problems: list[str] = []
    seen = set()
    for w in everything:
        d = bijections.decompose(w, args.p, args.q, g)
        if args.format == "json":
            print(json.dumps(_decomposition_json(w, d, args)))
        else:
            print(f"{_fmt_word(w)}: {_describe_decomposition(d)}")
        if d in seen:
            problems.append(f"duplicate decomposition for {w}")
        seen.add(d)
        if bijections.compose(d, args.p, args.q, g) != w:
            problems.append(f"round trip failed for {w}")
    return _bijection_summary(problems, len(everything), args.format)


def cmd_bijection(args) -> int:
    if args.kind == "factorize" and args.inverse:
        raise UsageError("--inverse applies only to kind 'theorem1'")
    if (args.word is None) == (not args.all):
        raise UsageError("give exactly one of --word or --all")
    g = Grading(args.m)
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    if args.kind == "theorem1":
        return _bijection_theorem1(args, g)
    return _bijection_factorize(args, g)


# ---------------------------------------------------------------------------
# grid-prove


def cmd_grid_prove(args) -> int:
    offsets = None
    if args.offsets:
        try:
            offsets = tuple(int(part) for part in args.offsets.split(","))
        except ValueError:
            raise UsageError(
                f"--offsets must be comma-separated integers, got {args.offsets!r}"
            ) from None
    try:
        report = identities.grid_prove(args.identity, args.n, offsets)
    except ParameterError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    elif report.passed:
        print(
            f"CERTIFIED as polynomial identity for n={args.n} "
            f"({report.params['grid_points']} grid points)"
        )
    else:
        point = " ".join(f"{k}={v}" for k, v in report.counterexample.items())
        print(f"COUNTEREXAMPLE {args.identity} at {point}: lhs={report.lhs} rhs={report.rhs}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser and entry point


def _add_format_flag(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output encoding (default: text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rothe-lab",
        description="Enumerate graded binary words, apply the word bijections, "
        "and verify the classical convolution identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list a weight class of words")
    sp.add_argument("--p", type=int, required=True, help="total weight")
    sp.add_argument("--k", type=int, required=True, help="number of letters b")
    sp.add_argument("--m", type=int, required=True, help="grading: letter b weighs m+1")
    sp.add_argument("--prefix-weight", type=int, default=None,
                    help="keep only words having a prefix of this weight")
    _add_format_flag(sp)
    sp.set_defaults(handler=cmd_enumerate)

    sp = sub.add_parser("bijection", help="apply or exhaustively verify a word bijection")
    sp.add_argument("kind", choices=("theorem1", "factorize"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--word", help="apply the map to one word")
    sp.add_argument("--all", action="store_true",
                    help="apply to the whole class and verify bijectivity")
    sp.add_argument("--inverse", action="store_true",
                    help="apply the inverse direction (theorem1 only)")
    _add_format_flag(sp)
    sp.set_defaults(handler=cmd_bijection)

    sp = sub.add_parser("verify", help="run an identity checker over parameter ranges")
    sp.add_argument("--identity", required=True,
                    help=f"one of: {', '.join(sorted(IDENTITIES))}")
    for flag in ("x", "y", "z", "eps", "n", "p", "q", "m", "k", "j"):
        sp.add_argument(f"--{flag}", help="single value or inclusive range LO..HI")
    sp.add_argument("--fail-fast", action="store_true",
                    help="stop at the first failing tuple")
    sp.add_argument("--cap", type=int, default=None,
                    help=f"work cap in elementary evaluations "
                    f"(default {DEFAULT_WORK_CAP}, env ${CAP_ENV_VAR})")
    _add_format_flag(sp)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("grid-prove",
                        help="certify an identity as a polynomial identity on a grid")
    sp.add_argument("--identity", required=True, choices=("rothe1", "rothe2", "gould"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--offsets", default=None,
                    help="comma-separated grid start per variable (default zeros)")
    _add_format_flag(sp)
    sp.set_defaults(handler=cmd_grid_prove)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ParameterError,
        NotInDomainError,
        InvariantViolationError,
        UnsupportedArgumentError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
