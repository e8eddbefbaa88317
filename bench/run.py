"""Layered benchmark of rothe-lab: one command, four workloads.

    python3 bench/run.py --workload grid-certify --seed 1 --seconds 15 --trace 0

``--workload all`` (the default) runs every workload in turn. The command
measures the tree it sits in (``src/rothe_lab``), never an installed copy.
It prints the metrics by name and unit, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

import cli_mixed
from common import OUT_DIR, PACKAGE_INIT, ROOT, child_env, python
from trace import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid-certify", "qchu-sweep", "word-bijections", "cli-mixed")
END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: ("s" if name.endswith("_s") else "count") for name in LAYER_METRICS},
    "cli.invocations": "count",
    "cli.process_s": "s",
    "cli.import_s": "s",
    "cli.refusal_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.errors": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot measure this tree; no result is printed."""


def measured_tree(path: str) -> None:
    if os.path.realpath(path) != os.path.realpath(PACKAGE_INIT):
        raise BenchError(f"imported rothe_lab from {path}, not from {PACKAGE_INIT}")


def in_process(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one library workload in a fresh worker interpreter."""
    argv = [python(), os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          timeout=seconds + 120)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if workload == "cli-mixed":
        result = cli_mixed.run(seed, seconds, bool(trace))
        # the largest child; the setup probes only import, so are smaller
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        spans = result.pop("spans", None)
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"trace-cli-mixed-seed{seed}.json"), "w") as fh:
                json.dump({"workload": workload, "seed": seed, "spans": spans}, fh)
    else:
        result = in_process(workload, seed, seconds, trace)
    for path in [result.get("rothe_lab"), *result["probe_paths"]]:
        if path is not None:
            measured_tree(path)
    if trace:
        layers = dict.fromkeys(PER_LAYER, 0)
        layers.update(result["layers"])
        layers["cli.import_s"] = result["import_s"]
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: (result[name], unit) for name, unit in END_TO_END.items()}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "rounds": (result["rounds"], result["machine_scale"]),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def report(workload: str, seed: int, out: dict) -> None:
    verdict = "correct" if out["correct"] else "WRONG ANSWERS"
    rounds, scale = out["rounds"]
    print(f"workload {workload} seed {seed}: {out['attempted']} attempted, "
          f"{out['failed']} failed, {verdict}; {rounds} rounds, timings scaled by "
          f"{scale:.4f} (median over rounds) to the reference machine")
    for problem in out["problems"]:
        print(f"  problem: {problem}")
    for name, m in out["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: no rothe_lab source tree at {PACKAGE_INIT}", file=sys.stderr)
        return 2
    print(f"rothe_lab: {os.path.realpath(PACKAGE_INIT)} (python {sys.version.split()[0]})")
    if args.workload != "all":
        try:
            out = measure(args.workload, args.seed, args.seconds, args.trace)
        except (BenchError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(args.workload, args.seed, out)
        print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    # each workload in its own process, so child-process accounting
    # (RUSAGE_CHILDREN) covers that workload alone
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [python(), os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, timeout=args.seconds + 170,
        )
        lines = done.stdout.decode().strip().splitlines()
        if done.returncode != 0:
            return done.returncode
        print("\n".join(lines[1:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
