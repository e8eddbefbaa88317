"""Command line front end: enumeration, bijections, identity sweeps, grid proofs.

Exit codes are a stable contract: 0 when every check passes, 1 when a
mathematical check fails (a counterexample is printed), 2 on usage or
configuration errors, work-cap breaches included, or, without a message,
when stdout is closed before the run ends, and 3 when the library reports an
internal error (a broken invariant, such as ``NoMatchError``). Their
messages go to stderr alone; a closed stderr loses a message, not its code.
Output is deterministic; ``--format json`` emits one JSON object per line
with identical verdicts to the text mode. Each command yields its lines and
returns its exit status; :func:`main` alone writes them to stdout, in blocks.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections.abc import Generator, Iterator, Sequence
from fractions import Fraction
from itertools import chain
from time import perf_counter_ns

from . import identities, words
from .errors import CapExceededError, ParameterError, RotheLabError
from .identities import Identity, VerificationReport
from .words import Grading

DEFAULT_WORK_CAP = 10_000_000
CAP_ENV_VAR = "ROTHE_LAB_CAP"

# a block of output lines is written no later than a line arriving this long
# after its first, so a slow sweep still shows its lines as it goes
_BLOCK_DELAY_NS = 100_000_000

# a command: its stdout lines, without line ends, and its exit status
_Lines = Generator[str, None, int]

# the verify flags, in registry order
VARIABLES = tuple(dict.fromkeys(name for r in identities.IDENTITIES.values() for name in r.order))


def _fmt_word(w: str) -> str:
    return w if w else "ε"


# ---------------------------------------------------------------------------
# verify: sweep machinery


def _parse_values(text: str, name: str, fractional: bool) -> Sequence:
    """Parse ``"2..5"`` as an inclusive, lazy integer ``range``, ``"3"`` as a single
    integer, and (where rationals are legal) ``"1/2"`` as a single fraction."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ParameterError(f"--{name}: bad range {text!r}; expected LO..HI") from None
        if lo > hi:
            raise ParameterError(f"--{name}: empty range {text!r}")
        return range(lo, hi + 1)
    if "/" in text:
        if not fractional:
            raise ParameterError(f"--{name} must be an integer or integer range, got {text!r}")
        try:
            return [Fraction(text)]
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"--{name}: bad rational {text!r}") from None
    try:
        return [int(text)]
    except ValueError:
        raise ParameterError(
            f"--{name}: bad value {text!r}; expected an integer, LO..HI or NUM/DEN"
        ) from None


def _levels(record: Identity, values: dict[str, Sequence]) -> Iterator[tuple[tuple, Sequence]]:
    """Every level of a sweep, lazily and in sweep order: the values of all but
    the last variable, and the pool of the last. An unset last variable ranges
    over its default, computed from the values before it; that pool may be empty."""
    order = record.order

    def rest(point: tuple, i: int) -> Iterator[tuple[tuple, Sequence]]:
        name = order[i]
        pool = values[name] if name in values else record.default(*point)
        if i + 1 == len(order):
            return iter(((point, pool),))
        return chain.from_iterable(rest((*point, value), i + 1) for value in pool)

    return rest((), 0)


def _resolve_cap(args) -> int:
    if args.cap is not None:
        if args.cap < 1:
            raise ParameterError(f"--cap must be positive, got {args.cap}")
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ParameterError(f"${CAP_ENV_VAR} must be an integer, got {env!r}") from None
        if cap < 1:
            raise ParameterError(f"${CAP_ENV_VAR} must be positive, got {cap}")
        return cap
    return DEFAULT_WORK_CAP


def _refuse_class_over_cap(args, p: int, k: int, m: int) -> None:
    """Refuse, before any output, a walk of the class of weight ``p`` with
    ``k`` letters ``b`` whose price, :func:`words._class_cost`, exceeds the
    cap. Pricing raises the class's own refusals, the grading's and then the
    length cap's, ahead of the comparison."""
    cap = _resolve_cap(args)
    work = words._class_cost(p, k, m)
    if work > cap:
        raise CapExceededError(
            f"estimated work of {work} exceeds the cap {cap}; "
            f"narrow the class or raise --cap / ${CAP_ENV_VAR}"
        )


def _format_report_text(report: VerificationReport) -> str:
    params = " ".join(f"{k}={v}" for k, v in report.params.items())
    head = f"{report.identity} {params}" if params else report.identity
    if report.passed:
        return f"{head}: PASS {report.rhs}"
    return f"{head}: FAIL lhs={report.lhs} rhs={report.rhs}"


def cmd_verify(args) -> _Lines:
    record = identities.IDENTITIES.get(args.identity)
    if record is None:
        raise ParameterError(f"unknown identity {args.identity!r}; "
                             f"choose from {', '.join(sorted(identities.IDENTITIES))}")
    stray = [name for name in VARIABLES
             if name not in record.order and getattr(args, name) is not None]
    if stray:
        takes = ", ".join(f"--{name}" for name in record.order)
        raise ParameterError(f"identity '{args.identity}' takes no --{stray[0]}; it takes {takes}")
    values: dict[str, Sequence] = {}
    for name in record.order:
        raw = getattr(args, name)
        if raw is None:
            if name == record.order[-1] and record.default is not None:
                continue
            raise ParameterError(f"--{name} is required for identity '{args.identity}'")
        values[name] = _parse_values(raw, name, fractional=name in (record.grid_variables or ()))
    cap = _resolve_cap(args)

    # estimate the work up front, stopping at the first tuple that breaches
    # the cap; refuse the whole sweep on a breach, or when a price raises
    # its check's own refusal. A tuple or a level, empty or not, costs
    # at least one unit. Only a last variable may be defaulted, so the given
    # pools (step-1 ranges or one value) count tuples or levels, a lower bound
    # on the work that alone can breach the cap unwalked
    tuples = math.prod(int(pool[-1] - pool[0]) + 1 for pool in values.values())
    total_work = tuples if tuples > cap else 0
    for prefix, pool in () if total_work else _levels(record, values):
        if not pool:
            total_work += 1
        for point in map(prefix.__add__, zip(pool)):
            price = record.price(*point)
            total_work += 1 if price is None else max(price, 1)
            if total_work > cap:
                break
        if total_work > cap:
            break
    if total_work > cap:
        raise CapExceededError(
            f"estimated work of at least {total_work} exceeds the cap {cap}; "
            f"narrow the ranges or raise --cap / ${CAP_ENV_VAR}"
        )

    checked = failed = skipped = 0
    points = (map(prefix.__add__, zip(pool)) for prefix, pool in _levels(record, values))
    for point in chain.from_iterable(points):
        if record.price(*point) is None:
            skipped += 1
            continue
        report = record.check(**dict(zip(record.order, point)))
        checked += 1
        if not report.passed:
            failed += 1
        if args.format == "json":
            yield json.dumps(report.to_json_dict())
        else:
            yield _format_report_text(report)
        if failed and args.fail_fast:
            break
    if args.format == "json":
        yield json.dumps({"checked": checked, "failed": failed, "skipped": skipped})
    else:
        tail = f", {skipped} skipped" if skipped else ""
        yield f"{checked} checked, {failed} failed{tail}"
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> _Lines:
    g = Grading(args.m)
    _refuse_class_over_cap(args, args.p, args.k, g.m)
    listing = words._words(args.p, args.k, g)
    # the listing spells each word of the class itself, so its prefixes are
    # scanned without validating it again; each has weight p and k letters b
    if args.prefix_weight is not None:
        r = args.prefix_weight
        listing = (w for w in listing if words._prefix_length(w, r, g.m) is not None)
    length = args.p - args.k * args.m
    predicted = words._comb0(length, args.k)
    count = 0
    for count, w in enumerate(listing, 1):
        if args.format == "json":
            yield json.dumps({"word": w, "weight": args.p, "b_count": args.k,
                              "inversions": words.inversions(w)})
        else:
            yield f"{_fmt_word(w)}  weight={args.p} inv={words.inversions(w)}"
    if args.format == "json":
        yield json.dumps({"count": count, "predicted": predicted})
    else:
        yield f"count {count}, predicted C({length},{args.k}) = {predicted}"
    return 0


# ---------------------------------------------------------------------------
# bijection


def _theorem1_line(w: str, out: str, args) -> str:
    if args.format == "json":
        params = {"p": args.p, "q": args.q, "m": args.m, "n": args.n}
        return json.dumps({"input": w, "output": out, **params})
    return f"{_fmt_word(w)} → {_fmt_word(out)}"


def _factorize_line(w: str, d: bijections.Decomposition, args) -> str:
    from . import bijections

    if args.format == "json":
        record: dict = {"input": w, "p": args.p, "q": args.q, "m": args.m, "n": args.n}
        if isinstance(d, bijections.BranchA):
            record["branch"] = "A"
        else:
            record.update(branch="B", j=d.j, k=d.k, u_prime=d.u_prime, v=d.v)
        return json.dumps(record)
    if isinstance(d, bijections.BranchA):
        text = f"BranchA w={_fmt_word(d.w)}"
    else:
        text = f"BranchB j={d.j} k={d.k} u'={_fmt_word(d.u_prime)} v={_fmt_word(d.v)}"
    return f"{_fmt_word(w)}: {text}" if args.all else text


def cmd_bijection(args) -> _Lines:
    from . import bijections

    if args.kind == "factorize" and args.inverse:
        raise ParameterError("--inverse applies only to kind 'theorem1'")
    if (args.word is None) == (not args.all):
        raise ParameterError("give exactly one of --word or --all")
    g = Grading(args.m)
    if args.n < 0:
        raise ParameterError(f"--n must be >= 0, got {args.n}")
    if args.word is not None and words.b_count(args.word) != args.n:
        raise ParameterError(
            f"word {args.word!r} has {words.b_count(args.word)} letters 'b', "
            f"expected n={args.n}"
        )
    if args.kind == "factorize":
        apply, undo, line = bijections.decompose, bijections.compose, _factorize_line
    else:
        apply, undo = bijections.theorem1_forward, bijections.theorem1_inverse
        if args.inverse:
            apply, undo = undo, apply
        line = _theorem1_line
    if args.word is not None:
        yield line(args.word, apply(args.word, args.p, args.q, g), args)
        return 0

    identities._require_shift_domain(args.p, args.q, g.m, args.n)
    total = args.p + args.q + g.m * args.n
    # the walk spells, scans and maps every word of the class: price it up
    # front, so that a refused run prints nothing
    _refuse_class_over_cap(args, total, args.n, g.m)
    # the shift carries a weight-p prefix to a weight-(p + 1) prefix; every
    # word has the empty prefix, of weight 0, so factorize maps the whole
    # class to itself and scans no prefix
    source = target = 0
    scan = args.kind == "theorem1"
    if scan:
        source, target = (args.p + 1, args.p) if args.inverse else (args.p, args.p + 1)
    # one pass over the class: the round trip is a left inverse, so it also
    # fails on a repeated image, and the inverse refuses, with a ValueError,
    # an image outside the target class; the loop spells each word itself, so
    # its prefixes are scanned without validating it again
    count = targets = 0
    reason = None
    for w in words._words(total, args.n, g):
        if scan:
            targets += words._prefix_length(w, target, g.m) is not None
            if words._prefix_length(w, source, g.m) is None:
                continue
        count += 1
        image = apply(w, args.p, args.q, g)
        yield line(w, image, args)
        try:
            if undo(image, args.p, args.q, g) != w:
                reason = reason or f"round trip failed for {w}"
        except ValueError:
            reason = reason or f"{w} maps to {image}, outside the target class"
    if scan and count != targets:
        reason = reason or f"class sizes differ: {count} vs {targets}"
    if args.format == "json":
        record: dict = {"status": "failed" if reason else "ok", "count": count}
        if reason:
            record["reason"] = reason
        yield json.dumps(record)
    elif reason:
        yield f"BIJECTION FAILED: {reason}"
    else:
        yield f"BIJECTION OK ({count} words)"
    return 1 if reason else 0


# ---------------------------------------------------------------------------
# grid-prove


def cmd_grid_prove(args) -> _Lines:
    offsets = None
    if args.offsets:
        try:
            offsets = tuple(int(part) for part in args.offsets.split(","))
        except ValueError:
            raise ParameterError(
                f"--offsets must be comma-separated integers, got {args.offsets!r}"
            ) from None
    report = identities.grid_prove(args.identity, args.n, offsets)
    if args.format == "json":
        yield json.dumps(report.to_json_dict())
    elif report.passed:
        yield (f"CERTIFIED as polynomial identity for n={args.n} "
               f"({report.params['grid_points']} grid points)")
    else:
        point = " ".join(f"{k}={v}" for k, v in report.counterexample.items())
        yield f"COUNTEREXAMPLE {args.identity} at {point}: lhs={report.lhs} rhs={report.rhs}"
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser and entry point


def _add_format_flag(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output encoding (default: text)")


def _add_cap_flag(sp, scope: str = "") -> None:
    sp.add_argument("--cap", type=int, default=None,
                    help=f"work cap in elementary evaluations{scope} "
                    f"(default {DEFAULT_WORK_CAP}, env ${CAP_ENV_VAR})")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose refusals go to stderr alone. argparse
    prints the usage part to ``sys.stdout`` when ``sys.stderr`` is ``None``
    (descriptor 2 closed at start); here the whole message goes through
    :func:`_complain`, with the same bytes and exit status 2. Subparsers are
    built from the parser's own class, so they refuse alike."""

    def error(self, message):
        _complain(f"{self.format_usage()}{self.prog}: error: {message}")
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _add_cap_flag(sp)
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
    _add_cap_flag(sp, ", --all only")
    _add_format_flag(sp)
    sp.set_defaults(handler=cmd_bijection)

    sp = sub.add_parser("verify", help="run an identity checker over parameter ranges")
    sp.add_argument("--identity", required=True,
                    help=f"one of: {', '.join(sorted(identities.IDENTITIES))}")
    for name in VARIABLES:
        sp.add_argument(f"--{name}", help="single value or inclusive range LO..HI")
    sp.add_argument("--fail-fast", action="store_true",
                    help="stop at the first failing tuple")
    _add_cap_flag(sp)
    _add_format_flag(sp)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("grid-prove",
                        help="certify an identity as a polynomial identity on a grid")
    sp.add_argument("--identity", required=True,
                    choices=[k for k, r in identities.IDENTITIES.items() if r.grid_variables])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--offsets", default=None,
                    help="comma-separated grid start per variable (default zeros)")
    _add_format_flag(sp)
    sp.set_defaults(handler=cmd_grid_prove)

    return parser


def _write(lines: _Lines) -> int:
    """Write the lines of a command to stdout and return its exit status.

    The lines are joined into blocks, each written with one call and flushed:
    once it holds ``io.DEFAULT_BUFFER_SIZE`` characters, once a line arrives
    ``_BLOCK_DELAY_NS`` or more after its first line, and when the command
    ends, by an exception too, before the exception is reported. ``sys.stdout``
    is looked up at each write, so that a caller may redirect it. A stdout
    closed during the run ends the command with exit 2 and no message.
    """
    block: list[str] = []
    size = start = 0

    def put() -> None:
        text = "\n".join(block) + "\n"
        block.clear()
        stdout = sys.stdout
        # None when the process started without a stdout: print writes nothing then
        if stdout is not None:
            stdout.write(text)
            stdout.flush()

    try:
        try:
            while True:
                try:
                    line = next(lines)
                except StopIteration as stop:
                    return stop.value
                if not block:
                    size, start = 0, perf_counter_ns()
                block.append(line)
                size += len(line) + 1
                if size >= io.DEFAULT_BUFFER_SIZE or perf_counter_ns() - start >= _BLOCK_DELAY_NS:
                    put()
        finally:
            if block:
                put()
    except BrokenPipeError:
        # the reader has gone; the interpreter flushes stdout again at exit,
        # so point the process's own descriptor at the null device (as the
        # Python docs' note on SIGPIPE does) lest that flush fail too
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2


def _complain(message: str) -> None:
    """Print ``message`` to stderr. A missing or closed stderr loses the
    message, never the exit status that goes with it."""
    stderr = sys.stderr
    # None when the process started without a stderr: print would fall back to stdout
    if stderr is not None:
        try:
            print(message, file=stderr)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = build_parser()
    # exact values are read and printed whole, whatever their size: lift the
    # interpreter's limit on int <-> str conversion (4,300 digits by default
    # since Python 3.10.7, where 0 means none) for this run only, so that an
    # in-process caller gets its own limit back
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return _write(args.handler(args))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CapExceededError, ValueError) as exc:
        _complain(f"error: {exc}")
        return 2
    except RotheLabError as exc:
        _complain(f"internal error: {exc}")
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
