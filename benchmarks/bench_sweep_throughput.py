"""Sweep throughput — serial vs distributed point execution.

Not a paper experiment: this bench starts the perf trajectory for the
distributed sweep subsystem (``repro.store`` + ``repro.dist``). It runs
one static attack sweep twice from cold — serially, then distributed
across worker processes sharing one SQLite store — checks
the records are byte-identical after nondeterministic-field stripping,
and reports wall-clock plus attack evaluations/second for both modes.

``python benchmarks/bench_sweep_throughput.py`` emits
``BENCH_sweep_throughput.json`` (override the path with
``BENCH_SWEEP_OUT``) so CI can archive the numbers run over run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

try:
    from conftest import print_header, scaled
except ImportError:  # direct `python benchmarks/bench_....py` execution
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import print_header, scaled

from repro.api import ExperimentSpec, SweepSpec, run_sweep

_CIRCUITS = ["rand_150_5"]
_WORKERS_DISTRIBUTED = 2


def _sweep(cache_path: str) -> SweepSpec:
    return SweepSpec(
        name="sweep_throughput",
        base=ExperimentSpec(
            circuit=_CIRCUITS[0],
            key_length=4,
            scheme="dmux",
            attack="muxlink",
            attack_params={"predictor": "bayes"},
            seed=1,
        ),
        axes={"key_length": [4, 6, 8], "seed": [1, 2]},
        cache_path=cache_path,
    )


def _stripped(results) -> list[str]:
    return [
        json.dumps(r.deterministic_record(), sort_keys=True) for r in results
    ]


def run_throughput(out_json: str | None = None) -> dict:
    workers = max(2, scaled(_WORKERS_DISTRIBUTED, minimum=2))
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        serial_sweep = _sweep(os.path.join(tmp, "serial.sqlite"))
        started = time.perf_counter()
        serial = run_sweep(serial_sweep)
        serial_s = time.perf_counter() - started

        dist_sweep = _sweep(os.path.join(tmp, "dist.sqlite"))
        started = time.perf_counter()
        dist = run_sweep(dist_sweep, distributed=workers)
        dist_s = time.perf_counter() - started

        if _stripped(serial.results) != _stripped(dist.results):
            raise AssertionError(
                "distributed records diverge from the serial run"
            )

        n_points = len(serial.results)
        report = {
            "points": n_points,
            "workers_distributed": workers,
            "serial_wall_s": serial_s,
            "distributed_wall_s": dist_s,
            "speedup": serial_s / dist_s if dist_s > 0 else None,
            "serial_fresh_evaluations": serial.fresh_evaluations,
            "distributed_fresh_evaluations": dist.fresh_evaluations,
            "serial_evals_per_s": serial.fresh_evaluations / serial_s
            if serial_s > 0
            else None,
            "distributed_evals_per_s": dist.fresh_evaluations / dist_s
            if dist_s > 0
            else None,
            "records_identical_after_stripping": True,
        }
    if out_json:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_sweep_throughput(benchmark):
    report = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    print_header(
        "SWEEP",
        "Serial vs distributed sweep throughput",
        "ROADMAP: distributing sweep points across workers",
    )
    for key, value in report.items():
        print(f"  {key}: {value}")

    assert report["records_identical_after_stripping"]
    assert report["serial_fresh_evaluations"] == report["points"]
    assert (
        report["distributed_fresh_evaluations"]
        == report["serial_fresh_evaluations"]
    ), "distributed workers must compute exactly the serial fresh work"


if __name__ == "__main__":
    out = os.environ.get("BENCH_SWEEP_OUT", "BENCH_sweep_throughput.json")
    summary = run_throughput(out_json=out)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out}")
