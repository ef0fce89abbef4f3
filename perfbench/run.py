"""Seeded end-to-end benchmark of the ``separability`` CLI, with a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload moons-dsi --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one summary each
    python3 perfbench/run.py --self-test --seed 0         # counts repeat, outputs correct

One op is one CLI call as a child process, from input files on disk to a
report on stdout: a closed loop with one client.  The benchmark generates
the inputs from ``--seed`` (the set-up, timed five times and again before
every op), computes the expected outputs with scipy alone, then runs ops
until ``--seconds`` have passed and checks every report.

``--trace 0`` reports the end-to-end metrics, medians over the ops:
wall time from spawn to exit, user+sys CPU and peak RSS from the child's
own ``wait4`` rusage (read by ``spawn.py``), and the set-up time.  ``--trace 1`` makes one
traced pass under tracemalloc for the memory peaks, then alternates
untraced ops with traced ones (``traced.py``), which run the CLI in one
process with spans around each layer.  The error rate (failed ops over
ops attempted) is printed in the summary line and carried by the
``attempted`` and ``failed`` fields.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run environment and every
sample go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"
SPAWN = Path(__file__).resolve().parent / "spawn.py"

# set-up runs SETUP_REPS times before the first op and once more before
# every op, so its samples spread over the run like the ops' samples do:
# on a shared or virtual host, CPU speed can drift over tens of seconds
SETUP_REPS = 5
# every op must end by then, so the whole run ends well within 180 s
DEADLINE_S = 165.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

MEASURES = ("F1", "N1", "N2", "N3", "N4", "T1", "LSC", "Density")
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.bytes_parsed": "bytes",
    "dataset.load_csv_peak_mib": "MiB",
    "generators.generate_s": "s",
    "distances.pairwise_s": "s",
    "distances.pairwise_calls": "count",
    "distances.pairs": "count",
    "distances.condensed_bytes": "bytes",
    "dsi.dsi_s": "s",
    "dsi.gather_self_s": "s",
    "dsi.multiset_values": "count",
    "dsi.dsi_peak_mib": "MiB",
    "stats.stat_s": "s",
    "measures.compute_measures_s": "s",
    **{f"measures.{code}_s": "s" for code in MEASURES},
    "measures.compute_measures_peak_mib": "MiB",
    "distances.rss_per_condensed": "ratio",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly across passes over the same inputs
COUNTS = ("distances.pairwise_calls", "distances.pairs", "dsi.multiset_values", "dataset.bytes_parsed")
# (metric, span name): total span time, the span's self time, or its peak
SPAN_TOTALS = {
    "dataset.load_csv_s": "dataset.load_csv",
    "generators.generate_s": "generators.generate",
    "distances.pairwise_s": "distances.pairwise_condensed",
    "dsi.dsi_s": "dsi.dsi",
    "measures.compute_measures_s": "measures.compute_measures",
    **{f"measures.{code}_s": f"measures.{code}" for code in MEASURES},
}
SPAN_SELF = {
    "dsi.gather_self_s": "dsi.class_distance_sets",
    # dsi() reaches the statistics only through a private table, so the
    # statistic is dsi's self time: dsi minus its class_distance_sets child
    "stats.stat_s": "dsi.dsi",
}
SPAN_PEAKS = {
    "dataset.load_csv_peak_mib": "dataset.load_csv",
    "dsi.dsi_peak_mib": "dsi.dsi",
    "measures.compute_measures_peak_mib": "measures.compute_measures",
}


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    error: str | None


class Run:
    """One benchmark run: a workload, its inputs for one seed, and a deadline."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.setup_times: list[float] = []
        for _ in range(SETUP_REPS):
            self.set_up()
        self.expected = workload.expect(self.inputs)
        self.cli_args = workload.argv(self.inputs, seed)
        self.ops: list[Op] = []

    def set_up(self) -> None:
        """Write the inputs again (the same bytes each time) and time it."""
        t0 = time.perf_counter()
        self.inputs = self.workload.setup(self.seed, self.dir)
        self.setup_times.append(time.perf_counter() - t0)

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def op(self, traced: str | None = None, memory: bool = False) -> Op:
        """One CLI call; ``traced`` is the spans file for a traced call."""
        if traced is None:
            cmd = [sys.executable, "-m", "separability.cli", *self.cli_args]
        else:
            cmd = [sys.executable, str(TRACED), traced, "1" if memory else "0", "--", *self.cli_args]
        self.set_up()
        out, err = self.dir / "op.stdout", self.dir / "op.stderr"
        timeout = max(self.time_left(), 1.0)
        launch = [sys.executable, str(SPAWN), str(timeout), str(out), str(err), "--", *cmd]
        child = json.loads(subprocess.run(launch, env=self.env, capture_output=True, text=True, check=True).stdout)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        stderr = err.read_text(encoding="utf-8", errors="replace")
        if child["code"] != 0:
            error = f"exit code {child['code']}: {stderr.strip()[-500:]}"
        elif "Traceback" in stderr:
            error = f"traceback on stderr: {stderr.strip()[-500:]}"
        else:
            error = self.workload.check(stdout, self.expected)
        op = Op(child["wall_s"], child["cpu_s"], child["peak_rss_mib"], error)
        self.ops.append(op)
        return op

    def traced_op(self, memory: bool = False) -> tuple[Op, dict]:
        """One traced CLI call and its per-layer metrics (all zero if it failed)."""
        spans = self.dir / "spans.json"
        spans.unlink(missing_ok=True)
        op = self.op(traced=str(spans), memory=memory)
        trace = {"import_s": 0.0, "spans": [], "counts": {}}
        if not op.error and spans.exists():
            trace = json.loads(spans.read_text())
        return op, layer_metrics(trace, op.wall_s)

    def more(self, seconds: float, longest: float) -> bool:
        """Whether to start another op: time remains and the next one fits the deadline."""
        return time.perf_counter() - self.measure_start < seconds and 2 * longest < self.time_left()

    def measure(self, seconds: float) -> dict:
        self.measure_start = time.perf_counter()
        ops = [self.op()]
        while self.more(seconds, max(o.wall_s for o in ops)):
            ops.append(self.op())
        return {
            "wall_s": statistics.median(o.wall_s for o in ops),
            "cpu_s": statistics.median(o.cpu_s for o in ops),
            "peak_rss_mib": statistics.median(o.peak_rss_mib for o in ops),
            "setup_s": statistics.median(self.setup_times),
        }

    def trace(self, seconds: float) -> dict:
        """Per-layer metrics: one tracemalloc pass, then untraced and traced ops in turn.

        The tracemalloc pass counts towards ``seconds``: it is slow where
        Python allocates per cell (load_csv), and its times are not used.
        """
        self.measure_start = time.perf_counter()
        memory_op, peaks = self.traced_op(memory=True)
        untraced, traced, layers = [], [], []
        while not traced or self.more(seconds, untraced[-1].wall_s + traced[-1].wall_s):
            untraced.append(self.op())
            op, metrics = self.traced_op()
            traced.append(op)
            layers.append(metrics)
        passes = [(memory_op, peaks), *zip(traced, layers)]
        for key in COUNTS:
            seen = {m[key] for op, m in passes if not op.error}
            if len(seen) > 1:
                traced[-1].error = f"count {key} differs between passes over the same inputs: {sorted(seen)}"
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics.update({k: peaks[k] for k in SPAN_PEAKS})
        # the baseline for a memory cap: untraced peak RSS over the largest condensed vector
        rss_mib = statistics.median(o.peak_rss_mib for o in untraced)
        condensed = metrics["distances.condensed_bytes"]
        metrics["distances.rss_per_condensed"] = rss_mib * 2**20 / condensed if condensed else 0.0
        metrics["trace.op_s"] = statistics.median(o.wall_s for o in traced)
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(o.wall_s for o in untraced)
        return metrics


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counts.

    ``cli.self_s`` is what the op's wall time ``wall_s`` spends outside the
    import and the layer spans: interpreter start and exit, argument
    parsing, report formatting and the tracer's own cost.
    """
    total, own, peak = defaultdict(float), defaultdict(float), defaultdict(int)
    children = defaultdict(float)
    for s in trace["spans"]:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(trace["spans"]):
        total[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += s["end"] - s["start"] - children[i]
        peak[s["name"]] = max(peak[s["name"]], s.get("peak_bytes", 0))
    metrics = {"cli.import_s": trace["import_s"]}
    metrics["cli.self_s"] = wall_s - trace["import_s"] - (total["cli.run"] - own["cli.run"])
    metrics.update({k: total[name] for k, name in SPAN_TOTALS.items()})
    metrics.update({k: own[name] for k, name in SPAN_SELF.items()})
    metrics.update({k: peak[name] / 2**20 for k, name in SPAN_PEAKS.items()})
    metrics.update({k: trace["counts"].get(k, 0) for k in (*COUNTS, "distances.condensed_bytes")})
    return metrics


def _getconf(name: str) -> int | None:
    if shutil.which("getconf") is None:
        return None
    out = subprocess.run(["getconf", name], capture_output=True, text=True).stdout.strip()
    return int(out) if out.isdigit() else None


def _commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(args, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


def run_one(workload: Workload, args) -> dict:
    run = Run(workload, args.seed)
    metrics = run.trace(args.seconds) if args.trace else run.measure(args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for o in run.ops if o.error)
    result = {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "env": environment(args, workload.name),
        "result": result,
        "setup_s": run.setup_times,
        "ops": [{"wall_s": o.wall_s, "cpu_s": o.cpu_s, "peak_rss_mib": o.peak_rss_mib, "error": o.error} for o in run.ops],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("env " + json.dumps(record["env"]))
    for op in run.ops:
        if op.error:
            print(f"{workload.name}: op failed: {op.error}")
    shown = " ".join(f"{k}={metrics[k]:.6g} {u}" for k, u in units.items())
    print(f"{workload.name} seed={args.seed}: {shown} error_rate={failed / len(run.ops):.6g} ({failed}/{len(run.ops)} ops)")
    return result


def self_test(args) -> int:
    """Every workload once, traced: outputs correct and counts repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end names differ from run.py")
    if [m["name"] for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer names differ from run.py")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.py lacks")
    args.trace = 1
    for workload in WORKLOADS.values():
        if not run_one(workload, args)["correct"]:
            problems.append(f"{workload.name}: a traced or untraced op failed")
    for problem in problems:
        print("self-test: " + problem)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")
    if not (SRC / "separability" / "cli.py").is_file():
        print(f"error: no separability package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        results = {w.name: run_one(w, args) for w in WORKLOADS.values()}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(run_one(WORKLOADS[args.workload], args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
