"""Delta re-locking vs the deep-copy reference builder — raw speed.

Not a paper experiment: this bench pins the re-locking win of the
raw-speed fitness core. ``DeltaRelocker`` applies a genotype as
incremental deltas to a shared immutable base netlist (copy-on-write
fanout and site-index bookkeeping, one final acyclicity check); the
deep-copy builder in ``tests/reference/locking.py`` copies the base per
candidate and lets every insertion invalidate and rebuild the fanout
map and topological order.

The bench asserts the delta-locked circuit is structurally identical to
the reference one, then asserts the speedup (delta >= 3x). The timing
assertion applies at full scale; under ``REPRO_BENCH_GUARD`` (the CI
smoke guard) delta must merely never lose to the reference.

Run from the repository root: ``python benchmarks/bench_delta_relock.py``
emits ``BENCH_delta_relock.json`` (override with
``BENCH_DELTA_RELOCK_OUT``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    from conftest import print_header, scaled
except ImportError:  # direct `python benchmarks/bench_....py` execution
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import print_header, scaled

# The reference builder lives with the tests, at the repository root.
_ROOT = str(Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.append(_ROOT)

from repro.circuits import load_circuit
from repro.ec.genotype import random_genotype
from repro.locking import DeltaRelocker
from repro.registry import PRIMITIVES
from tests.reference.locking import apply_genes as reference_apply_genes

_CIRCUIT = "c1908_syn"
_GENES = 64
_RELOCK_REPEATS = 20
_TARGET_DELTA_SPEEDUP = 3.0


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _time_relock(base, genotype, repeats) -> tuple[float, float]:
    relocker = DeltaRelocker(base)
    t0 = time.perf_counter()
    for _ in range(repeats):
        delta = relocker.lock(genotype)
    delta_s = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    for _ in range(repeats):
        reference = reference_apply_genes(base, genotype)
    reference_s = (time.perf_counter() - t0) / repeats

    assert delta.netlist.structurally_equal(reference.netlist)
    assert delta.key.bits == reference.key.bits
    assert delta.scheme == reference.scheme
    return delta_s, reference_s


def run_delta_relock(out_json: str | None = None) -> dict:
    scale = _scale()
    n_genes = scaled(_GENES, minimum=8)
    relock_repeats = scaled(_RELOCK_REPEATS, minimum=2)
    base = load_circuit(_CIRCUIT)
    genotype = random_genotype(
        base, n_genes, np.random.default_rng(11),
        alphabet=tuple(sorted(PRIMITIVES.available())),
    )

    delta_s, reference_s = _time_relock(base, genotype, relock_repeats)

    report = {
        "circuit": _CIRCUIT,
        "n_genes": n_genes,
        "relock_repeats": relock_repeats,
        "delta_relock_s": delta_s,
        "reference_relock_s": reference_s,
        "relock_speedup": reference_s / delta_s if delta_s > 0 else None,
        "target_relock_speedup": _TARGET_DELTA_SPEEDUP,
        "asserted": scale >= 1.0,
        "guarded": bool(os.environ.get("REPRO_BENCH_GUARD")),
    }
    if report["asserted"]:
        assert report["relock_speedup"] >= _TARGET_DELTA_SPEEDUP, (
            f"delta re-locking only {report['relock_speedup']:.2f}x vs "
            f"the reference (target {_TARGET_DELTA_SPEEDUP}x): {report}"
        )
    if report["guarded"]:
        # CI perf-regression guard (smoke scale): delta must never lose
        # to the deep-copy reference.
        assert report["relock_speedup"] >= 1.0, report
    if out_json:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_delta_relock_speed(benchmark):
    report = benchmark.pedantic(run_delta_relock, rounds=1, iterations=1)
    print_header(
        "DELTA",
        "Delta re-locking vs deep-copy reference",
        "ROADMAP: raw-speed fitness core (re-locking was per-candidate "
        "wall-clock)",
    )
    for key, value in report.items():
        print(f"  {key}: {value}")
    assert report["relock_speedup"] is not None


if __name__ == "__main__":
    out = os.environ.get("BENCH_DELTA_RELOCK_OUT", "BENCH_delta_relock.json")
    summary = run_delta_relock(out_json=out)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out}")
