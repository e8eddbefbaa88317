"""In-process workloads of the benchmark: grid-certify, qchu-sweep and
word-bijections. ``run.py`` starts this file in a fresh interpreter per run,
so the process-wide bracket cache and the peak RSS start from nothing, and
reads the one JSON line it prints.

A run repeats one round of operations, fixed by the seed, until ``--seconds``
have passed (and at least ``MIN_OPERATIONS`` were made), always finishing the
round it is in. Every round starts with the library's ``functools`` caches
emptied, as a fresh process would see them. With ``--trace 1`` the rounds
alternate untraced and traced; the per-layer numbers are medians over the
traced rounds and the tracing overhead is the median wall difference of the
pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
from time import perf_counter

import oracles
from common import MIN_OPERATIONS, OUT_DIR, OperationLog, SetupProbes, median_per_key
from trace import Tracer, install

import rothe_lab
from rothe_lab import bijections, identities, qseries, words

MODULES = (words, bijections, identities, qseries)

# ---------------------------------------------------------------------------
# grid-certify: grid_prove over rothe1, rothe2 and gould

# (identity, n, calls per round), each call at its own seeded offsets. Many
# mid-sized calls instead of a few large ones: the offsets move the cost of
# one call (gould at n = 4 by up to 2x), but barely that of a round. The
# counts put the median inside the 15 rothe2 n = 4 calls and the 90th
# percentile inside the 22 rothe1 n = 5 and gould n = 3 calls, which cost
# about the same, never on the edge between two groups.
GRID_PLAN = (
    ("rothe1", 2, 10), ("rothe2", 2, 10), ("rothe1", 3, 10), ("rothe2", 3, 10),
    ("rothe1", 4, 15), ("rothe2", 4, 15), ("gould", 2, 5),
    ("rothe1", 5, 7), ("rothe2", 5, 8),
    ("gould", 3, 15),
)
POINT_CHECKERS = {"rothe1": "check_rothe1", "rothe2": "check_rothe2", "gould": "check_gould"}


def grid_plan(rng: random.Random) -> list:
    ops = []
    for identity, n, calls in GRID_PLAN:
        nvars = oracles.GRID_VARIABLES[identity]
        for _ in range(calls):
            offsets = tuple(rng.randint(-3, 3) for _ in range(nvars))
            samples = [tuple(off + rng.randint(0, n) for off in offsets) for _ in range(2)]
            ops.append((identity, n, offsets, samples))
    rng.shuffle(ops)
    return ops


def grid_round(ops: list, log: OperationLog) -> None:
    for identity, n, offsets, samples in ops:
        ok, report = log.call(identities.grid_prove, identity, n, offsets)
        if not ok or not log.check(oracles.check_grid_report(report, identity, n, offsets)):
            continue
        checker = getattr(identities, POINT_CHECKERS[identity])
        for point in samples:
            log.check(oracles.check_point_report(checker(*point, n), identity, point, n))
        log.round.checks += (n + 1) ** oracles.GRID_VARIABLES[identity]


# ---------------------------------------------------------------------------
# qchu-sweep: check_qchu and check_qchu_m1 over seeded tuples

# gaussian_binomial recurses to depth about ``a``; this tuple overflows the
# interpreter stack today (RecursionError) although the identity holds
FAULT_TUPLE = (1100, 1, 0, 2)
SMALL_QCHU = [
    (x, y, m, n)
    for x in range(21) for y in range(1, 9) for m in range(3) for n in range(7)
    if x >= m * n
]
SMALL_QCHU_M1 = [(x, y, n) for x in range(21) for y in range(1, 9) for n in range(7) if x >= n]
# sized so that a traced round, whose wrappers deepen the recursion, stays
# clear of the interpreter's recursion limit
TALL_X = range(150, 191)
# (m, n) of the tall tuples: fixed, because n sets most of their cost
TALL_MN = ((0, 2), (1, 2), (0, 3), (1, 3)) * 2


def qchu_plan(rng: random.Random) -> list:
    """Every small tuple, in a seeded order, plus seeded tall ones.

    The whole small grid (4,032 tuples) rather than a sample: the seed then
    moves which tuple meets a bracket first, but not which brackets a round
    builds, so the round's cost and its latency quantiles hardly depend on it.
    """
    ops = [("qchu", t, False) for t in SMALL_QCHU]
    ops += [("qchu-m1", t, False) for t in SMALL_QCHU_M1]
    ops += [("qchu", (rng.choice(TALL_X), rng.randint(1, 3), m, n), False) for m, n in TALL_MN]
    # a seeded sample is also compared with the box-partition DP
    boxed = set(rng.sample(range(len(ops)), 30))
    ops = [(kind, t, i in boxed) for i, (kind, t, _) in enumerate(ops)]
    rng.shuffle(ops)
    # first in the round, right after the caches are emptied, so that it
    # meets the same cold cache in every round
    return [("fault", FAULT_TUPLE, False)] + ops


def qchu_round(ops: list, log: OperationLog) -> None:
    for kind, args, box in ops:
        if kind == "qchu-m1":
            ok, report = log.call(qseries.check_qchu_m1, *args)
            x, y, n = args
        else:
            ok, report = log.call(qseries.check_qchu, *args, known_fault=kind == "fault")
            x, y, _m, n = args
        if ok and log.check(oracles.check_qchu_report(report, x, y, n, box=box)):
            log.round.checks += 1


# ---------------------------------------------------------------------------
# word-bijections: whole-class verification

# (word length p + q, letters b): class sizes C(L, n). Each class is run
# four times, twice with m = 0 and twice with m = 1, at splits p + q spread
# over the range of p by a seeded offset: a call's cost depends on p, and
# spread splits keep the seed from moving the round's cost. Rounds take two
# to three seconds, so that a run has ten or more.
BIJECTION_CLASSES = ((13, 6), (13, 4), (12, 6), (12, 5), (11, 5), (11, 4), (10, 5), (10, 4), (9, 3))
QWORD_CLASSES = ((16, 8), (14, 5))
# C(20, 10) = 184,756 words, the round's largest. m = 0 is left to the other
# classes: it costs a fifth more here than m = 1 or 2, which cost the same.
INVW_CLASS = (20, 10)


def split(rng: random.Random, length: int, n: int, m: int) -> tuple[int, int]:
    """A seeded split ``p + q = length`` with ``p >= m n`` and ``q >= 1``."""
    p = rng.randint(m * n, length - 1)
    return p, length - p


def spread_splits(u: float, length: int, n: int, m: int, strata: int) -> list[tuple[int, int]]:
    """Splits at the fractions ``(u + j) / strata`` of the range of ``p``."""
    low, high = m * n, length - 1
    ps = [low + int((u + j) / strata * (high - low + 1)) for j in range(strata)]
    return [(p, length - p) for p in ps]


def word_plan(rng: random.Random) -> list:
    ops = []
    for length, n in BIJECTION_CLASSES:
        u = rng.random()
        for m in (0, 1):
            ops += [("class", (p, q, m), n) for p, q in spread_splits(u, length, n, m, 2)]
    for length, n in QWORD_CLASSES:
        m = rng.choice([m for m in range(3) if m * n <= length - 1])
        ops.append(("qword", (*split(rng, length, n, m), m), n))
    m = rng.randint(1, 2)
    ops.append(("invw", (INVW_CLASS[0] + INVW_CLASS[1] * m, INVW_CLASS[1], m), None))
    rng.shuffle(ops)
    return ops


def word_round(ops: list, log: OperationLog) -> None:
    for kind, params, n in ops:
        if kind == "invw":
            total, k, m = params
            ok, report = log.call(qseries.check_invw, total, k, m)
            if ok and log.check(oracles.check_class_gf(report, total - k * m, k)):
                log.round.checks += math.comb(total - k * m, k)
        elif kind == "qword":
            p, q, m = params
            ok, report = log.call(qseries.qweighted_bijection_check, p, q, m, n)
            if ok and log.check(oracles.check_class_gf(report, p + q, n)):
                log.round.checks += math.comb(p + q, n)
        else:
            verify_class(log, *params, n)


def verify_class(log: OperationLog, p: int, q: int, m: int, n: int) -> None:
    """Enumerate one class (``m <= 1``) and push every word through both
    bijections and back.

    Prefix weights climb in steps of at most ``m + 1 <= 2``, so every word
    has a prefix of weight ``p`` (it is in the domain of theorem1_forward),
    of weight ``p + 1`` (in its range) or both: each makes the round trip
    forward then inverse, inverse then forward, or both.
    """
    g = words.Grading(m)
    total = p + q + m * n
    size = math.comb(p + q, n)
    ok, listing = log.call(words.enumerate_gamma, total, n, g)
    if not ok or not log.check(
        None if len(listing) == size == len(set(listing)) else
        f"class ({total}, {n}, m={m}) has {len(listing)} words, expected {size}"
    ):
        return
    forward, inverse = bijections.theorem1_forward, bijections.theorem1_inverse
    decompose, compose, branch_a = bijections.decompose, bijections.compose, bijections.BranchA
    images = {forward: set(), inverse: set()}
    parts = set()
    domain = codomain = 0
    for w in listing:
        sums = oracles.prefix_sums(w, m)
        if total not in sums or w.count("b") != n:
            log.fail(f"enumerate_gamma listed {w!r} outside the class")
            return
        in_domain, in_range = p in sums, p + 1 in sums
        domain += in_domain
        codomain += in_range
        for there, back, target in ((forward, inverse, p + 1), (inverse, forward, p)):
            if not (in_domain if there is forward else in_range):
                continue
            ok, image = log.call(there, w, p, q, g, thin=True)
            if ok:
                ok, again = log.call(back, image, p, q, g, thin=True)
                if ok and log.check(oracles.check_shift(w, image, again, target, m)):
                    log.check(f"theorem1 image {image} repeats" if image in images[there] else None)
                    images[there].add(image)
        ok, d = log.call(decompose, w, p, q, g, thin=True)
        if ok:
            if isinstance(d, branch_a) != in_domain or d in parts:
                log.fail(f"decompose({w}) gave a wrong branch or a repeated decomposition")
            parts.add(d)
            ok, again = log.call(compose, d, p, q, g, thin=True)
            if ok:
                log.check(None if again == w else f"compose(decompose({w})) = {again}")
    log.check(None if domain == codomain else f"domain {domain} != codomain {codomain}")
    log.round.checks += size


# (plan, round, keep the latency of every n-th per-word operation)
WORKLOADS = {
    "grid-certify": (grid_plan, grid_round, 1),
    "qchu-sweep": (qchu_plan, qchu_round, 1),
    "word-bijections": (word_plan, word_round, 16),
}

# ---------------------------------------------------------------------------


def cache_clearers() -> list:
    """``cache_clear`` of every ``functools`` cache in the library modules."""
    found = {}
    for module in MODULES:
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    plan, run_round, thin_every = WORKLOADS[args.workload]
    ops = plan(random.Random(f"{args.workload}:{args.seed}"))
    clearers = cache_clearers()
    log = OperationLog(thin_every)
    tracer = Tracer() if args.trace else None
    traced_rounds, overheads = [], []

    def one_round(traced: bool) -> float:
        for clear in clearers:
            clear()
        log.new_round()
        if traced:
            tracer.reset()
            install(tracer)
            log.tracer = tracer
        start = perf_counter()
        try:
            run_round(ops, log)
        finally:
            if traced:
                log.tracer = None
                tracer.uninstall()
        wall = perf_counter() - start
        if traced:
            traced_rounds.append(tracer.round_metrics())
        return wall

    probes = SetupProbes(args.seconds)
    probes.probe()
    deadline = perf_counter() + args.seconds
    while True:
        if tracer is None:
            one_round(False)
        else:
            plain = one_round(False)
            overheads.append(one_round(True) - plain)
        if perf_counter() >= deadline and log.attempted >= MIN_OPERATIONS:
            break
        probes.between_rounds()
    probes.probe()

    # read before the summary, whose sorting is the benchmark's own work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "rothe_lab": os.path.realpath(rothe_lab.__file__),
        "peak_rss_mb": peak_rss_mb,
        **log.summary(),
        **probes.summary(),
    }
    if tracer is not None:
        result["layers"] = {**median_per_key(traced_rounds),
                            "trace.overhead_s": statistics.median(overheads)}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": traced_rounds},
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
