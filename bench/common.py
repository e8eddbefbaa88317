"""Pieces shared by the benchmark entry point (run.py), its in-process worker
and the CLI workload: the operation log, the reference tasks that scale its
timings to the machine's speed, set-up probes, latency percentiles and the
child environment."""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from time import perf_counter, perf_counter_ns
from typing import Callable, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "rothe_lab", "__init__.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# a run keeps going past --seconds until it has this many operations, and its
# latency percentiles always pool at least this many samples, so the 90th
# percentile has at least ten beyond it
MIN_OPERATIONS = 100


class Reference(NamedTuple):
    """A fixed task, apart from ``rothe_lab``, timed between operations (at
    most every ``interval_ns``) so that each round measures how fast the
    machine was while it ran. ``usual_ns`` is its usual mean time inside
    rounds on the machine the benchmark was built on (2-vCPU VM, Python
    3.11.7): every latency is reported as if its round had run at that
    speed."""

    timed: Callable[[], int]
    interval_ns: int
    usual_ns: int


def reference_load() -> int:
    """A fixed pure-Python load of 2–3 ms, apart from ``rothe_lab``.

    It does the kinds of work the program does (small and large integer
    arithmetic, ``Fraction`` arithmetic, strings, dicts and sets), so that a
    shared machine's slow stretches slow it by about as much as they slow
    the program.
    """
    seen: dict[str, int] = {}
    total = 0
    for i in range(3000):
        word = "ab"[i & 1] * (i % 11) + "b" * (i % 3)
        seen[word] = seen.get(word, 0) + i
        total += (i * i * 7919) % 1009
    f = Fraction(1, 3)
    for i in range(1, 150):
        f = f * Fraction(i + 1, i) - Fraction(1, i + 2)
    return total + len(seen) + len({w[::-1] for w in seen}) + f.denominator % 7


def timed_reference() -> int:
    """The reference load's wall time now, in nanoseconds."""
    start = perf_counter_ns()
    reference_load()
    return perf_counter_ns() - start


def timed_cli_reference() -> int:
    """The wall time of a bare interpreter start (``python -c pass``) and 16
    reference loads, in nanoseconds: a short CLI invocation is mostly the
    first, a heavy one mostly work like the second, and neither is
    ``rothe_lab``."""
    start = perf_counter_ns()
    subprocess.run([python(), "-c", "pass"], capture_output=True, env=child_env(), cwd=ROOT,
                   timeout=60)
    for _ in range(16):
        reference_load()
    return perf_counter_ns() - start


# In-process operations are scaled by the reference load, CLI invocations by
# the blend above. In a 110 s test with 6 s windows, a short invocation over
# the blend spread 3.0% between windows (over the reference load 6.7%, raw
# 17%), and a heavy qchu sweep 3.1% (8.8%, raw 20%).
REFERENCE_LOAD = Reference(timed_reference, 20_000_000, 3_000_000)
CLI_REFERENCE = Reference(timed_cli_reference, 1_000_000_000, 100_000_000)


def weighted_quantile(pairs: list, share: float) -> float:
    """The smallest value whose cumulative weight reaches ``share`` of the
    total, over ``(value, weight)`` pairs."""
    pairs = sorted(pairs)
    goal = share * sum(w for _, w in pairs)
    total = 0
    for value, weight in pairs:
        total += weight
        if total >= goal:
            return value
    return pairs[-1][0]


# set-up probes per run, spread over it
SETUP_PROBES = 16
PROBE = (
    "import time; t = time.perf_counter_ns(); import rothe_lab, rothe_lab.cli; "
    "print(time.perf_counter_ns() - t); print(rothe_lab.__file__)"
)


def child_env() -> dict:
    """Environment for every child interpreter: the tree under test first on
    the path, no inherited work-cap override, UTF-8 output."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ROTHE_LAB_CAP")}
    env["PYTHONPATH"] = SRC
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def python() -> str:
    """The running interpreter itself, so children skip any launcher shim."""
    return sys.executable


class SetupProbes:
    """Fresh interpreters importing ``rothe_lab`` and ``rothe_lab.cli``,
    spread over a run: one before its first round, then one after any round
    that ends at least ``seconds / SETUP_PROBES`` after the last probe, and
    one at its end. Their median thus covers the same stretch of machine
    load as the workload, not just its two ends."""

    def __init__(self, seconds: float) -> None:
        self.interval = seconds / SETUP_PROBES
        self.walls: list[int] = []
        self.imports: list[int] = []
        self.paths: set[str] = set()
        self.last = float("-inf")

    def probe(self) -> None:
        """One probe, scaled to the reference machine by the mean of the
        reference load timed just before and just after it."""
        before = timed_reference()
        start = perf_counter_ns()
        done = subprocess.run([python(), "-c", PROBE], capture_output=True, env=child_env(),
                              cwd=ROOT, timeout=60)
        wall = perf_counter_ns() - start
        scale = 2 * REFERENCE_LOAD.usual_ns / (before + timed_reference())
        self.walls.append(wall * scale)
        self.last = perf_counter()
        if done.returncode != 0:
            raise RuntimeError(f"importing rothe_lab failed:\n{done.stderr.decode()}")
        import_ns, path = done.stdout.decode().split("\n")[:2]
        self.imports.append(int(import_ns) * scale)
        self.paths.add(os.path.realpath(path))

    def between_rounds(self) -> None:
        if perf_counter() - self.last >= self.interval:
            self.probe()

    def summary(self) -> dict:
        """``setup_s`` (wall of a probe) and ``import_s`` (its imports alone),
        scaled medians in seconds, and where the probes found ``rothe_lab``."""
        return {
            "setup_s": statistics.median(self.walls) / 1e9,
            "import_s": statistics.median(self.imports) / 1e9,
            "probe_paths": sorted(self.paths),
        }


class Round:
    """One round's checks decided and latency samples, each with the number
    of operations it stands for."""

    def __init__(self, thin_every: int) -> None:
        self.thin_every = thin_every
        self.checks = 0
        self.samples = array("q")
        self.weights = array("l")
        self.reference = array("q")  # reference times taken during the round
        self._thinned = 0

    def record(self, elapsed_ns: int, thin: bool) -> None:
        if not thin:
            self.samples.append(elapsed_ns)
            self.weights.append(1)
        elif self._thinned % self.thin_every == 0:
            self.samples.append(elapsed_ns)
            self.weights.append(self.thin_every)
        self._thinned += thin


class OperationLog:
    """Counts a run's operations and failures, round by round.

    ``known_fault`` marks an operation that fails today because of a named
    program fault: its failure is counted but leaves ``correct`` true.
    Operations called with ``thin=True`` (the many fast per-word calls) keep
    the latency of every ``thin_every``-th one only, standing for all of
    them, so the benchmark's own memory stays small.
    """

    def __init__(self, thin_every: int = 1, reference: Reference = REFERENCE_LOAD) -> None:
        self.thin_every = thin_every
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.rounds: list[Round] = []
        self.round: Round | None = None  # set by new_round
        self.tracer = None  # a trace.Tracer enabled only while the program runs
        self.last_reference = 0

    def calibrate(self) -> None:
        """Time the reference task into the round, unless it ran less than
        its interval ago."""
        if perf_counter_ns() - self.last_reference < self.reference.interval_ns:
            return
        self.round.reference.append(self.reference.timed())
        self.last_reference = perf_counter_ns()

    def new_round(self) -> None:
        self.round = Round(self.thin_every)
        self.rounds.append(self.round)
        self.last_reference = 0
        self.calibrate()

    def record(self, elapsed_ns: int, thin: bool = False) -> None:
        self.round.record(elapsed_ns, thin)
        self.attempted += 1
        self.calibrate()

    def fail(self, problem: str, known_fault: bool = False) -> None:
        """Mark the operation just recorded as failed."""
        self.failed += 1
        if not known_fault:
            self.correct = False
            if len(self.problems) < 5:
                self.problems.append(problem)

    def call(self, fn, *args, known_fault: bool = False, thin: bool = False):
        """Time one call into the program; a raised exception fails it.

        The cyclic garbage collector is paused during the call, as ``timeit``
        does, and runs between calls: otherwise the collections that the
        benchmark's own checks set off land in whichever call comes next.

        Returns ``(True, result)`` or ``(False, None)``.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        gc.disable()
        start = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # the program's failure is the measured outcome
            problem = f"{getattr(fn, '__name__', fn)}{args}: {exc!r}"[:300]
        else:
            problem = None
        elapsed = perf_counter_ns() - start
        gc.enable()
        if tracer is not None:
            tracer.enabled = False
        self.record(elapsed, thin)
        if problem is not None:
            self.fail(problem, known_fault)
            return False, None
        return True, out

    def check(self, problem: str | None) -> bool:
        """Fail the operation just recorded when a checker found a problem."""
        if problem is not None:
            self.fail(problem)
            return False
        return True

    def summary(self) -> dict:
        """Counts over every round; timings scaled round by round to the
        reference machine, then taken per operation at its median round.

        Other tenants of a shared machine slow it by up to 1.7x for seconds
        to minutes, longer than a run. The reference task, run between the
        operations of each round, is slowed by about as much, so each
        round's latencies are multiplied by its usual time over its mean
        time in that round. A slower program stays slower by the same
        factor, as the reference task never calls it.

        Every round repeats the same operations in the same order, so each
        operation has one scaled latency per round; it keeps the middle one
        (or two; the middle few, when needed to pool ``MIN_OPERATIONS``
        samples), so that a latency that happened to fall into a hiccup of
        the machine does not count. The percentiles are taken over the pooled kept
        samples, and ``checks_per_s`` divides a round's checks by the sum of
        the operations' mean kept latency.
        """
        rounds = self.rounds
        width = min(len(r.samples) for r in rounds)
        weights = rounds[0].weights
        scales = [self.reference.usual_ns / statistics.fmean(r.reference) for r in rounds]
        keep = min(len(rounds), -(-MIN_OPERATIONS // width))
        keep += (len(rounds) - keep) % 2  # trim as many rounds from each end
        first = (len(rounds) - keep) // 2
        kept = [sorted(r.samples[i] * s for r, s in zip(rounds, scales))[first:first + keep]
                for i in range(width)]
        # a thinned sample stands for ``weight`` operations
        pooled = [(v, w) for column, w in zip(kept, weights) for v in column]
        round_ns = sum(statistics.fmean(column) * w for column, w in zip(kept, weights))
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct,
            "problems": self.problems,
            "rounds": len(rounds),
            "machine_scale": statistics.median(scales),
            "checks_per_s": statistics.median(r.checks for r in rounds) / (round_ns / 1e9),
            "op_p50_s": weighted_quantile(pooled, 0.5) / 1e9,
            "op_p90_s": weighted_quantile(pooled, 0.9) / 1e9,
        }


def median_per_key(rounds: list[dict]) -> dict:
    """Median of each per-round metric over the traced rounds."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
