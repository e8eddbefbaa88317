"""Span and count tracing of rothe-lab's layers, installed from outside.

The tracer replaces public functions at the module attributes through which
the benchmark and the other modules call them (``qseries.enumerate_gamma``
is how ``qseries`` reaches ``words``, ``bijections.b_count`` how
``bijections`` revalidates words), so recursive and cross-module calls are
seen too. Spans carry (id, parent, name, start, end); each layer's self time
is its spans' durations minus the time their child spans cover. Self time is
summed online and only the first ``span_cap`` spans are kept, so memory stays
bounded however many calls a round makes.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = ("words", "bijections", "identities", "qseries")

# per-layer metric names, in report order; cli.* come from the CLI workload
LAYER_METRICS = (
    "words.enumerate.calls",
    "words.enumerate.words_out",
    "words.inversions.calls",
    "words.self_s",
    "words.errors",
    "bijections.maps",
    "bijections.word_helper_calls",
    "bijections.self_s",
    "bijections.errors",
    "identities.grid_points",
    "identities.checker.calls",
    "identities.gen_binomial.calls",
    "identities.rothe_coeff.calls",
    "identities.self_s",
    "identities.errors",
    "qseries.gaussian_binomial.calls",
    "qseries.gaussian_binomial.distinct",
    "qseries.poly_new.calls",
    "qseries.poly_mul.calls",
    "qseries.term_mults",
    "qseries.self_s",
    "qseries.errors",
)


class Tracer:
    def __init__(self, span_cap: int = 50_000) -> None:
        self.enabled = False
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        """Start a new round of counts and self times (spans are kept)."""
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.distinct_brackets: set = set()

    # -- installation -------------------------------------------------------

    def wrap(self, original, layer: str, name: str, count: str | None = None,
             on_result=None, on_args=None):
        """A traced stand-in for ``original``: one span of ``layer`` per call,
        ``count`` bumped per call. Passes straight through while disabled."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            if count is not None:
                self.counts[count] += 1
            if on_args is not None:
                on_args(self, args)
            stack = self._stack
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [layer, perf_counter_ns(), 0, self._next_id]
            depth = len(stack)
            stack.append(frame)
            try:
                out = original(*args, **kwargs)
            except BaseException:
                # an error is counted where it leaves the layer
                if parent is None or parent[0] != layer:
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = perf_counter_ns()
                # truncating, not popping, also drops frames left behind when a
                # deeper span's bookkeeping was cut short by a RecursionError
                del stack[depth:]
                elapsed = end - frame[1]
                self.self_ns[layer] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                if len(self.spans) < self.span_cap:
                    self.spans.append((frame[3], parent[3] if parent else None, name, frame[1], end))
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def span(self, owner, attr: str, layer: str, count: str | None = None, **hooks) -> None:
        """Replace ``owner.attr`` by its traced stand-in, if it exists."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, self.wrap(original, layer, f"{layer}.{attr}", count, **hooks))
        self._undo.append(lambda: setattr(owner, attr, original))

    def counter(self, owner, attr: str, bump) -> None:
        """Count calls to ``owner.attr`` without a span (for hot methods)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self.enabled:
                bump(self, args)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def round_metrics(self) -> dict:
        out = {name: self.counts.get(name, 0) for name in LAYER_METRICS}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns.get(layer, 0) / 1e9
        out["qseries.gaussian_binomial.distinct"] = len(self.distinct_brackets)
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def _terms(value) -> int:
    return len(value.terms()) if hasattr(value, "terms") else 1


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions of the imported ``rothe_lab``."""
    from rothe_lab import bijections, identities, qseries, words

    def words_out(t, out):
        t.counts["words.enumerate.words_out"] += len(out)

    def grid_points(t, report):
        t.counts["identities.grid_points"] += report.params.get("grid_points", 0)

    # words, reached from the benchmark and from qseries
    for owner in (words, qseries):
        tracer.span(owner, "enumerate_gamma", "words", "words.enumerate.calls", on_result=words_out)
        tracer.span(owner, "inversions", "words", "words.inversions.calls")
    # bijections, and the word helpers they call to revalidate their input
    for attr in ("theorem1_forward", "theorem1_inverse", "decompose", "compose"):
        tracer.span(bijections, attr, "bijections", "bijections.maps")
    for attr in ("b_count", "weight", "prefix_weights", "prefix_length_of_weight"):
        tracer.span(bijections, attr, "words", "bijections.word_helper_calls")
    # identities: grid_prove reaches its checkers through a table
    tracer.span(identities, "grid_prove", "identities", on_result=grid_points)
    for attr in ("gen_binomial", "rothe_coeff"):
        tracer.span(identities, attr, "identities", f"identities.{attr}.calls")
    table = getattr(identities, "_GRID_CHECKERS", {})
    for key, entry in list(table.items()):
        checker = tracer.wrap(entry[0], "identities", f"identities.{key}", "identities.checker.calls")
        table[key] = (checker, *entry[1:])
        tracer._undo.append(lambda key=key, entry=entry: table.__setitem__(key, entry))
    # qseries: the bracket recursion goes through the module attribute
    tracer.span(
        qseries, "gaussian_binomial", "qseries", "qseries.gaussian_binomial.calls",
        on_args=lambda t, args: t.distinct_brackets.add(args),
    )
    for attr in ("check_qchu", "check_qchu_m1", "check_invw", "qweighted_bijection_check",
                 "inv_generating_function", "qchu_term", "qchu_m1_term"):
        tracer.span(qseries, attr, "qseries")
    poly = qseries.LaurentPolynomial

    def new(t, args):
        t.counts["qseries.poly_new.calls"] += 1

    def mul(t, args):
        t.counts["qseries.poly_mul.calls"] += 1
        t.counts["qseries.term_mults"] += _terms(args[0]) * _terms(args[1])

    tracer.counter(poly, "__init__", new)
    tracer.counter(poly, "__mul__", mul)
    tracer.counter(poly, "__rmul__", mul)

