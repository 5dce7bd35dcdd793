"""AutoLock end-to-end ledger: one command per named workload.

Run from the repository root::

    python3 perfbench/run.py --workload evolve-mlp-c1908 --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics of a traced run. Each metric is printed as
a ``name value unit`` line; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Work files go under ``.bench_work/`` in the repository root and are
removed on exit. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: distinct inputs (spec seeds) per run. Work per AutoLock run depends
#: on its seed (duplicate genotypes are cache hits), so timings average
#: over a cycle of inputs instead of riding on one seed's trajectory.
INPUTS_PER_RUN = 3
#: fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# setup_s: process start -> inputs ready, in fresh processes
# ---------------------------------------------------------------------------
def probe_setup(workload, work: Path) -> None:
    """Child side: import, generate the circuit, open the store; report."""
    import repro.api.runner  # noqa: F401  (the public entry points)
    from repro.circuits import load_circuit

    load_circuit(workload.circuit)
    if workload.sweep:
        from repro.store import open_store

        work.mkdir(parents=True, exist_ok=True)
        open_store(str(work / "probe.sqlite")).close()
    print(json.dumps({"ready": time.time()}), flush=True)


def measure_setup(args, work: Path) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--probe-setup", str(work / f"probe-{i}"),
        ]
        started = time.time()
        out = subprocess.run(
            cmd, check=True, capture_output=True, text=True, timeout=120
        ).stdout
        times.append(json.loads(out.strip().splitlines()[-1])["ready"] - started)
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------
class Ledger:
    """Runs operations over the run's input cycle and checks every one.

    Operation ``i`` runs input ``i % INPUTS_PER_RUN``; each input's later
    repeats must reproduce its first deterministic-record digest.
    """

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.inputs = [seed * INPUTS_PER_RUN + j for j in range(INPUTS_PER_RUN)]
        self.work = work
        self.ops = []
        self.failed = 0
        self.first_digest: dict[int, str] = {}

    def run(self, timed=contextlib.nullcontext):
        from workloads import OpResult, run_op

        index = len(self.ops)
        seed = self.inputs[index % len(self.inputs)]
        op_dir = self.work / f"op-{index}"
        try:
            op = run_op(self.workload, seed, op_dir, timed)
        except Exception as exc:  # a raising operation is a failed one
            op = OpResult(wall_s=0.0, seed=seed, failures=[f"raised {exc!r}"])
        if op.digest:
            first = self.first_digest.setdefault(seed, op.digest)
            if op.digest != first:
                op.failures.append(f"seed {seed}: digest differs from the first repeat")
        if op.failures:
            self.failed += 1
            for failure in op.failures:
                print(f"op {index} FAILED: {failure}", file=sys.stderr)
        shutil.rmtree(op_dir, ignore_errors=True)
        self.ops.append(op)
        return op

    def run_for(self, seconds: float) -> None:
        """Repeat operations until the next one would overrun ``seconds``.

        Runs at least every input once plus one repeat, so the digest
        check always has something to compare.
        """
        started = time.perf_counter()
        while True:
            self.run()
            elapsed = time.perf_counter() - started
            if (
                len(self.ops) > len(self.inputs)
                and elapsed * (len(self.ops) + 1) / len(self.ops) > seconds
            ):
                return

    def per_input(self, value) -> dict[int, float]:
        """Median of ``value`` over each input's passing operations."""
        by_seed: dict[int, list[float]] = {}
        for op in self.ops:
            if not op.failures:
                by_seed.setdefault(op.seed, []).append(value(op))
        return {seed: _median(values) for seed, values in by_seed.items()}


def end_to_end(args, workload, work: Path) -> tuple[Ledger, dict, dict]:
    setup = measure_setup(args, work)
    from repro.circuits import load_circuit

    load_circuit(workload.circuit)
    ledger = Ledger(workload, args.seed, work)
    ledger.run_for(args.seconds)
    attempted = len(ledger.ops)
    # Per input: median over its repeats. Across inputs: the mean
    # operation, and the input set's evaluations over its wall.
    walls = ledger.per_input(lambda op: op.wall_s) or {0: 0.0}
    fresh = ledger.per_input(lambda op: op.fresh_evals)
    drops = ledger.per_input(lambda op: op.accuracy_drop_pp)
    metrics = {
        "wall_s": (sum(walls.values()) / len(walls), "s"),
        "setup_s": (_median(setup), "s"),
        "evals_per_s": (
            sum(fresh.values()) / sum(walls.values()) if fresh else 0.0, "1/s"
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": ((attempted - ledger.failed) / attempted, "ratio"),
    }
    shown = dict(metrics)
    shown["failure_rate"] = (ledger.failed / attempted, "ratio")
    shown["accuracy_drop_pp"] = (
        sum(drops.values()) / len(drops) if drops else 0.0, "pp"
    )
    shown["operations"] = (attempted, "count")
    return ledger, metrics, shown


def traced(args, workload, work: Path) -> tuple[Ledger, dict, dict]:
    from layers import (
        CONTAINERS, COUNTS, SPAN_CALLS, SPAN_SECONDS, Tracer,
        install_layers, merge,
    )

    tracer = Tracer(work / "spans")
    install_layers(tracer)
    from repro.circuits import load_circuit

    with tracer.timed("setup"):
        load_circuit(workload.circuit)
    setup = tracer.snapshot()
    tracer.uninstall()

    ledger = Ledger(workload, args.seed, work)
    baseline = ledger.run()  # untraced reference for trace.overhead_ratio

    install_layers(tracer)
    tracer.reset()
    tracer.clear_child_files()
    # One whole input cycle, so per-operation counts repeat exactly.
    traced_ops = [ledger.run(tracer.timed) for _ in ledger.inputs]
    tracer.uninstall()
    data = merge(tracer.snapshot(), tracer.child_snapshots())

    missing = [
        name for name in workload.required
        if data["calls"].get(name, 0) == 0
    ]
    if missing:
        raise SystemExit(
            f"traced run: layers {missing} recorded zero calls on "
            f"{workload.name}; a wrapped binding no longer sees its caller"
        )

    n = len(traced_ops)
    wall = sum(op.wall_s for op in traced_ops)
    calls, total, counts = data["calls"], data["total"], data["counts"]
    parent = data["parent"]
    m = {"circuits.load_s": (setup["total"].get("circuits.load", 0.0), "s")}
    for metric, span in SPAN_SECONDS.items():
        m[metric] = (total.get(span, 0.0) / n, "s")
    for metric, span in SPAN_CALLS.items():
        m[metric] = (calls.get(span, 0) / n, "count")
    for metric, name in COUNTS.items():
        unit = "s" if metric.endswith("_s") else "count"
        m[metric] = (counts.get(name, 0.0) / n, unit)
    checked = counts.get("genotype.genes_checked", 0)
    m["genotype.repair_resampled_ratio"] = (
        counts.get("genotype.genes_resampled", 0) / checked if checked else 0.0,
        "ratio",
    )
    m["attack.self_s"] = (data["self"].get("attack.run", 0.0) / n, "s")
    fresh = sum(op.fresh_evals for op in traced_ops)
    hits = sum(op.cache_hits for op in traced_ops)
    m["fitness.fresh_evals"] = (fresh / n, "count")
    m["fitness.cache_hit_ratio"] = (
        hits / (hits + fresh) if hits + fresh else 0.0, "ratio"
    )
    m["evaluator.pool_busy_ratio"] = (
        data["child_busy_s"] / (wall * workload.workers)
        if workload.workers >= 2 else 0.0,
        "ratio",
    )
    m["store.bytes"] = (sum(op.store_bytes for op in traced_ops) / n, "B")
    unattributed = sum(parent["self"].get(name, 0.0) for name in CONTAINERS)
    m["trace.unattributed_share"] = (unattributed / wall if wall else 0.0, "ratio")
    m["trace.overhead_ratio"] = (
        _median([op.wall_s for op in traced_ops if op.seed == baseline.seed])
        / baseline.wall_s - 1.0 if baseline.wall_s else 0.0,
        "ratio",
    )
    m["autolock.accuracy_drop_pp"] = (
        sum(op.accuracy_drop_pp for op in traced_ops) / n, "pp"
    )
    return ledger, m, dict(m)


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"available: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.probe_setup:
        probe_setup(workload, Path(args.probe_setup))
        return 0

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Pool blob files and any other temp files stay inside the checkout.
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        measure = traced if args.trace else end_to_end
        ledger, metrics, shown = measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no concurrent run still uses it

    walls = " ".join(f"{op.wall_s:.3f}" for op in ledger.ops)
    print(f"operation walls (s): {walls}", file=sys.stderr)
    for name, (value, unit) in shown.items():
        print(f"{name:34s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": len(ledger.ops),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
