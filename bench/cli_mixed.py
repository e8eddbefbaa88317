"""The cli-mixed workload: short ``python -m rothe_lab.cli`` invocations,
one child at a time, each checked against the benchmark's own computations.

Run from ``run.py`` in its own process, which never imports ``rothe_lab``:
its largest child's peak RSS is then the ``RUSAGE_CHILDREN`` maximum.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import oracles
from common import (CLI_REFERENCE, MIN_OPERATIONS, ROOT, OperationLog, SetupProbes, child_env,
                    median_per_key, python)

# The benchmark's own statement of each verify identity: loop order,
# parameters ranging over a default grid, and the tuples the CLI skips
# because they break the checker's preconditions.
SWEEPS = {
    "rothe1": (("x", "y", "z", "n"), {}, None),
    "rothe2": (("x", "y", "z", "n"), {}, None),
    "gould": (("x", "y", "z", "n", "eps"), {"eps": lambda t: range(t["n"] + 1)}, None),
    "pqkm": (("p", "q", "m", "n"), {}, None),
    "kmx": (("p", "q", "m", "n"), {}, lambda t: t["p"] < t["m"] * t["n"] or t["q"] < 1),
    "kmpink": (("p", "q", "m", "n", "j"), {"j": lambda t: range(1, t["m"] + 1)}, None),
    "cardinality": (("p", "k", "m"), {}, None),
    "invw": (("p", "k", "m"), {}, lambda t: t["p"] < t["k"] * t["m"]),
    "qchu": (("x", "y", "m", "n"), {}, lambda t: t["x"] < t["m"] * t["n"] or t["y"] < 1),
    "qchu-m1": (("x", "y", "n"), {}, lambda t: t["x"] < t["n"] or t["y"] < 1),
    "qword": (("p", "q", "m", "n"), {}, lambda t: t["p"] < t["m"] * t["n"] or t["q"] < 1),
}

# the exit-code contract: 0 pass, 1 counterexample, 2 usage or cap refusal
FAULT_ARGS = ["verify", "--identity", "qchu", "--x", "1100", "--y", "1", "--m", "0", "--n", "2"]


class Invocation:
    def __init__(self, kind, argv, exit_code, check, known_fault=False):
        self.kind, self.argv, self.exit_code = kind, argv, exit_code
        self.check, self.known_fault = check, known_fault


def _flag(value) -> str:
    if isinstance(value, tuple):
        return f"{value[0]}..{value[1]}"
    return str(value)


def verify(identity: str, fmt: str, **ranges) -> Invocation:
    """A ``verify`` sweep whose checked/skipped counts the benchmark knows."""
    order, dependent, skip = SWEEPS[identity]
    pools = {
        name: range(v[0], v[1] + 1) if isinstance(v, tuple) else [v]
        for name, v in ranges.items()
    }
    checked = skipped = 0

    def expand(i, acc):
        nonlocal checked, skipped
        if i == len(order):
            if skip is not None and skip(acc):
                skipped += 1
            else:
                checked += 1
            return
        name = order[i]
        for value in pools[name] if name in pools else dependent[name](acc):
            acc[name] = value
            expand(i + 1, acc)

    expand(0, {})
    argv = ["verify", "--identity", identity, "--format", fmt]
    for name, value in ranges.items():
        argv.append(f"--{name}={_flag(value)}")
    return Invocation(
        "verify", argv, 0, lambda out: oracles.check_summary(out, fmt, checked, skipped)
    )


def grid(identity: str, n: int, offsets, fmt: str) -> Invocation:
    points = (n + 1) ** oracles.GRID_VARIABLES[identity]
    corner = tuple(off + n for off in offsets)
    truth = oracles.closed_form(identity, corner, n)

    def check(out):
        if fmt == "text":
            want = f"CERTIFIED as polynomial identity for n={n} ({points} grid points)\n"
            return None if out == want else f"grid-prove said {out!r}"
        got = json.loads(out)
        if (got["status"], got["params"]["grid_points"]) != ("pass", points):
            return f"grid-prove reported {got['status']} over {got['params']['grid_points']}"
        if Fraction(got["lhs"]) != truth or Fraction(got["rhs"]) != truth:
            return f"grid-prove sides {got['lhs']}, {got['rhs']} at {corner}, expected {truth}"
        return None

    argv = ["grid-prove", "--identity", identity, "--n", str(n),
            "--offsets=" + ",".join(map(str, offsets)), "--format", fmt]
    return Invocation("grid-prove", argv, 0, check)


def enumerate_listing(p: int, k: int, m: int, r, fmt: str) -> Invocation:
    listing = [w for w in oracles.own_class(p, k, m) if r is None or r in oracles.prefix_sums(w, m)]
    predicted = math.comb(p - k * m, k) if p - k * m >= 0 else 0

    def check(out):
        lines = out.splitlines()
        if fmt == "json":
            records = [json.loads(line) for line in lines]
            got = [(d["word"], d["inversions"]) for d in records[:-1]]
            tail_ok = records[-1] == {"count": len(listing), "predicted": predicted}
        else:
            got = [(line.split()[0].replace("ε", ""), int(line.rsplit("inv=", 1)[1]))
                   for line in lines[:-1]]
            tail_ok = lines[-1].startswith(f"count {len(listing)}, ") and lines[-1].endswith(
                f" = {predicted}")
        want = [(w, oracles.inversions(w)) for w in listing]
        return None if tail_ok and got == want else f"enumerate listing differs ({len(got)} words)"

    argv = ["enumerate", "--p", str(p), "--k", str(k), "--m", str(m), "--format", fmt]
    if r is not None:
        argv.append(f"--prefix-weight={r}")
    return Invocation("enumerate", argv, 0, check)


def _word(text: str) -> str:
    return "" if text == "ε" else text


def theorem1_word(p: int, q: int, m: int, n: int, w: str) -> Invocation:
    def check(out):
        src, _, image = out.strip().partition(" → ")
        if _word(src) != w:
            return f"bijection echoed {src!r} for {w!r}"
        return oracles.check_shift(w, _word(image), w, p + 1, m)

    argv = ["bijection", "theorem1", "--p", str(p), "--q", str(q), "--m", str(m),
            "--n", str(n), "--word", w]
    return Invocation("bijection", argv, 0, check)


def factorize_word(p: int, q: int, m: int, n: int, w: str) -> Invocation:
    def check(out):
        d = json.loads(out)
        return _check_decomposition(d, w, p, m)

    argv = ["bijection", "factorize", "--p", str(p), "--q", str(q), "--m", str(m),
            "--n", str(n), "--word", w, "--format", "json"]
    return Invocation("bijection", argv, 0, check)


def _check_decomposition(d: dict, w: str, p: int, m: int) -> str | None:
    exact = p in oracles.prefix_sums(w, m)
    if d["input"] != w or (d["branch"] == "A") != exact:
        return f"factorize({w}) chose branch {d['branch']}"
    if d["branch"] == "B" and d["u_prime"] + "b" + d["v"] != w:
        return f"factorize({w}) split into {d['u_prime']!r} b {d['v']!r}"
    return None


def theorem1_all(p: int, q: int, m: int, n: int) -> Invocation:
    domain = [w for w in oracles.own_class(p + q + m * n, n, m) if p in oracles.prefix_sums(w, m)]

    def check(out):
        lines = out.splitlines()
        pairs = [line.split(" → ") for line in lines[:-1]]
        sources = sorted(_word(a) for a, _ in pairs)
        images = [_word(b) for _, b in pairs]
        if lines[-1] != f"BIJECTION OK ({len(domain)} words)" or sources != domain:
            return f"theorem1 --all: {lines[-1]!r} over {len(pairs)} words, expected {len(domain)}"
        if len(set(images)) != len(images):
            return "theorem1 --all images repeat"
        for (a, b) in pairs:
            problem = oracles.check_shift(_word(a), _word(b), _word(a), p + 1, m)
            if problem:
                return problem
        return None

    argv = ["bijection", "theorem1", "--p", str(p), "--q", str(q), "--m", str(m),
            "--n", str(n), "--all"]
    return Invocation("bijection", argv, 0, check)


def factorize_all(p: int, q: int, m: int, n: int) -> Invocation:
    everything = oracles.own_class(p + q + m * n, n, m)

    def check(out):
        records = [json.loads(line) for line in out.splitlines()]
        if records[-1] != {"status": "ok", "count": len(everything)}:
            return f"factorize --all summary {records[-1]}"
        if sorted(r["input"] for r in records[:-1]) != everything:
            return "factorize --all did not visit the class"
        for r in records[:-1]:
            problem = _check_decomposition(r, r["input"], p, m)
            if problem:
                return problem
        return None

    argv = ["bijection", "factorize", "--p", str(p), "--q", str(q), "--m", str(m),
            "--n", str(n), "--all", "--format", "json"]
    return Invocation("bijection", argv, 0, check)


def _class_split(rng: random.Random, length: int, n: int, m: int) -> tuple[int, int]:
    p = rng.randint(m * n, length - 1)
    return p, length - p


def plan(rng: random.Random) -> list[Invocation]:
    """One round of the workload; the seed moves values, not the mix."""
    a = rng.randint(2, 4)
    # five like sweeps of one fixed shape, the round's slowest: they are 5 of
    # 27 invocations, so the 90th percentile falls in their middle, not on an
    # edge between groups where the order of two costs would move it
    heavy = verify("qchu", "text", x=(3, 17), y=(1, 7), m=(0, 2), n=(0, 5))
    ops = [
        *[heavy] * 5,
        grid("gould", 4, [rng.randint(-3, 3) for _ in range(4)], "json"),
        verify("qchu", "json", x=(a + 2, a + 6), y=(1, 4), m=(0, 2), n=(0, 2)),
        verify("qchu-m1", "json", x=(0, rng.randint(5, 7)), y=(1, 3), n=(0, 3)),
        verify("rothe1", "text", x=(rng.randint(-2, 2), 2), y=(-1, 1), z=(0, 1), n=(0, 3)),
        verify("rothe2", "text", x=f"{rng.randrange(1, 9, 2)}/2", y=rng.randint(1, 4),
               z=rng.randint(1, 3), n=4),
        verify("gould", "json", x=(0, 2), y=rng.randint(-2, 2), z=(-1, 1), n=(0, 3)),
        verify("pqkm", "text", p=(0, 5), q=(0, rng.randint(4, 6)), m=(0, 2), n=(0, 3)),
        verify("kmx", "json", p=(0, 6), q=(0, 3), m=(0, 2), n=(0, rng.randint(2, 4))),
        verify("kmpink", "text", p=(2, 6), q=(1, 4), m=(0, 2), n=(0, rng.randint(2, 4))),
        verify("cardinality", "text", p=(0, rng.randint(10, 12)), k=(0, 4), m=(0, 2)),
        verify("invw", "json", p=(0, rng.randint(10, 12)), k=(0, 4), m=(0, 2)),
        verify("qword", "text", p=(0, 5), q=(1, 4), m=(0, 1), n=(0, 3)),
        grid("rothe1", 3, [rng.randint(-3, 3) for _ in range(3)], "text"),
        grid("rothe2", 4, [rng.randint(-3, 3) for _ in range(3)], "json"),
    ]
    m = rng.randint(0, 2)
    k = rng.randint(2, 4)
    length = rng.randint(9, 11)
    ops.append(enumerate_listing(length + k * m, k, m, None, "text"))
    ops.append(enumerate_listing(length + k * m, k, m, rng.randint(2, length - 2), "json"))
    # single words and whole classes for both bijections
    m, n = rng.randint(1, 2), 3
    p, q = _class_split(rng, 9, n, m)
    domain = [w for w in oracles.own_class(p + q + m * n, n, m) if p in oracles.prefix_sums(w, m)]
    ops.append(theorem1_word(p, q, m, n, rng.choice(domain)))
    ops.append(factorize_word(p, q, m, n, rng.choice(oracles.own_class(p + q + m * n, n, m))))
    ops.append(theorem1_all(*_class_split(rng, 13, 6, 1), 1, 6))
    ops.append(factorize_all(*_class_split(rng, 9, n, m), m, n))
    # about 1e5 tuples whose estimated work exceeds the default cap of 1e7
    ops.append(Invocation(
        "refusal",
        ["verify", "--identity", "qchu", f"--x=0..{rng.randint(95, 105)}", "--y=1..50",
         "--m=0..2", "--n=0..9"],
        2, lambda out: None if out == "" else "a refused sweep printed results",
    ))
    rng.shuffle(ops)
    ops.append(Invocation(
        "fault", FAULT_ARGS, 0, lambda out: oracles.check_summary(out, "text", 1, 0),
        known_fault=True,
    ))
    return ops


def invoke(log: OperationLog, op: Invocation, stats: dict) -> None:
    """Run one invocation as a child process and check its outcome."""
    start = perf_counter_ns()
    try:
        done = subprocess.run(
            [python(), "-m", "rothe_lab.cli", *op.argv],
            capture_output=True, env=child_env(), cwd=ROOT, timeout=60,
        )
    except subprocess.TimeoutExpired:
        log.record(perf_counter_ns() - start)
        log.fail(f"{' '.join(op.argv)}: timed out", op.known_fault)
        stats["cli.errors"] += 1
        return
    elapsed = perf_counter_ns() - start
    log.record(elapsed)
    stdout = done.stdout.decode("utf-8")
    stats["cli.invocations"] += 1
    stats["cli.process_s"] += elapsed / 1e9
    stats["cli.stdout_bytes"] += len(done.stdout)
    if op.kind == "refusal":
        stats["cli.refusal_s"] += elapsed / 1e9
    if done.returncode != op.exit_code or b"Traceback" in done.stderr:
        stats["cli.errors"] += 1
        log.fail(f"{' '.join(op.argv)}: exit {done.returncode}", op.known_fault)
        return
    try:
        problem = op.check(stdout)
    except (ValueError, KeyError, IndexError) as exc:  # output that does not parse
        problem = f"{' '.join(op.argv)}: unreadable output ({exc!r})"
    if log.check(problem):
        log.round.checks += 1


CLI_METRICS = ("cli.invocations", "cli.process_s", "cli.refusal_s", "cli.stdout_bytes", "cli.errors")


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Rounds until ``seconds`` have passed; with ``trace``, rounds alternate
    plain and traced (a span per invocation) and the traced ones report the
    cli.* metrics."""
    ops = plan(random.Random(f"cli-mixed:{seed}"))
    # one CPU for this process and, by inheritance, every child, so that the
    # reference timed here and the invocations run where the same host load
    # falls (Linux only)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    log = OperationLog(reference=CLI_REFERENCE)
    traced_rounds, overheads, spans = [], [], []

    def one_round(traced: bool) -> float:
        stats = dict.fromkeys(CLI_METRICS, 0)
        log.new_round()
        start = perf_counter()
        for op in ops:
            begin = perf_counter_ns()
            invoke(log, op, stats)
            if traced:
                spans.append((len(spans) + 1, None, f"cli.{op.kind}", begin, perf_counter_ns()))
        if traced:
            traced_rounds.append(stats)
        return perf_counter() - start

    probes = SetupProbes(seconds)
    probes.probe()
    deadline = perf_counter() + seconds
    while True:
        if trace:
            plain = one_round(False)
            overheads.append(one_round(True) - plain)
        else:
            one_round(False)
        if perf_counter() >= deadline and log.attempted >= MIN_OPERATIONS:
            break
        probes.between_rounds()
    probes.probe()
    result = {**log.summary(), **probes.summary()}
    if trace:
        result["layers"] = {**median_per_key(traced_rounds),
                            "trace.overhead_s": statistics.median(overheads)}
        result["spans"] = spans
    return result
