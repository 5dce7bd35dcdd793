"""Co-evolution attacker scoring — one batched evaluator pass vs the
per-attacker scalar loop.

Not a paper experiment: this bench pins the raw-speed win of the
co-evolution engine's attacker phase (``repro.coevo.engine``). The
engine scores a whole attacker generation with **one**
``evaluator.evaluate`` call over ``[[genome], ...]`` pseudo-genotypes:
duplicate genomes (common after truncation survival + crossover)
dedupe through ``genotype_key``, every unique genome hits the shared
:class:`~repro.ec.fitness.FitnessCache`, and the locked elites are
built once per process instead of once per attacker. The scalar
baseline is the loop the batched pass replaces: one fresh
fitness evaluation per population member, relocking the elites and
re-running the attack every time.

Both paths produce identical fitness vectors (asserted at every scale).
Under ``REPRO_BENCH_GUARD`` (the CI smoke guard) batched must never
lose to the scalar loop; at full scale it must win by
``_TARGET_SPEEDUP``.

``python benchmarks/bench_coevo.py`` emits ``BENCH_coevo.json``
(override with ``BENCH_COEVO_OUT``).
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
except ImportError:  # direct `python benchmarks/bench_coevo.py` execution
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import print_header, scaled

from repro.circuits import load_circuit
from repro.coevo.engine import AttackerVsEliteFitness
from repro.coevo.genome import baseline_genome
from repro.ec.evaluator import AsyncEvaluator
from repro.ec.genotype import random_genotype

_CIRCUIT = "c1355_syn"
_KEY_LENGTH = 24
_N_UNIQUE = 6
_DUPLICATES = 2  # each unique genome appears this many times in the pop
_N_ELITES = 2
_WORKERS = 2
_REPEATS = 3
_TARGET_SPEEDUP = 1.5


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _attacker_population(n_unique: int, duplicates: int) -> list:
    """A realistic post-breeding generation: cheap oracle-less attackers
    with repeated genomes (truncation survivors + their clones)."""
    variants = [
        {},  # muxlink/bayes baseline
        {"ensemble": 2},
        {"threshold": 0.25},
        {"attack": "saam"},
        {"attack": "saam", "degree_weight": 1.5},
        {"attack": "scope"},
        {"attack": "saam", "kind_read": False},
        {"ensemble": 3},
    ]
    unique = [baseline_genome(v) for v in variants[:n_unique]]
    return [g for g in unique for _ in range(duplicates)]


def run_batched_attacker_scoring(out_json: str | None = None) -> dict:
    scale = _scale()
    n_unique = scaled(_N_UNIQUE, minimum=2)
    duplicates = max(2, scaled(_DUPLICATES, minimum=2))
    repeats = scaled(_REPEATS, minimum=1)

    base = load_circuit(_CIRCUIT)
    rng = np.random.default_rng(9)
    elites = [
        random_genotype(base, _KEY_LENGTH, rng) for _ in range(_N_ELITES)
    ]
    population = _attacker_population(n_unique, duplicates)
    genotypes = [[genome] for genome in population]

    # -- batched: one evaluator pass, dedupe + shared cache + pool ------
    evaluator = AsyncEvaluator(_WORKERS)
    try:
        evaluator.evaluate(
            genotypes[:1], AttackerVsEliteFitness(base, elites)
        )  # warm the pool
        t0 = time.perf_counter()
        for _ in range(repeats):
            batched, stats = evaluator.evaluate(
                genotypes, AttackerVsEliteFitness(base, elites)
            )
        batched_s = (time.perf_counter() - t0) / repeats
    finally:
        evaluator.close()

    # -- scalar: the loop the batched pass replaces ---------------------
    t0 = time.perf_counter()
    for _ in range(repeats):
        looped = []
        for genome in population:
            locked_once = AttackerVsEliteFitness(base, elites)
            looped.append(locked_once([genome]))
    looped_s = (time.perf_counter() - t0) / repeats

    assert list(map(float, batched)) == list(map(float, looped)), (
        "batched attacker scoring diverged from the scalar loop"
    )

    report = {
        "circuit": _CIRCUIT,
        "key_length": _KEY_LENGTH,
        "n_attackers": len(population),
        "n_unique": n_unique,
        "n_elites": _N_ELITES,
        "workers": _WORKERS,
        "repeats": repeats,
        "batch_dispatched": stats.dispatched,
        "batched_s": batched_s,
        "looped_s": looped_s,
        "speedup": looped_s / batched_s if batched_s > 0 else None,
        "target_speedup": _TARGET_SPEEDUP,
        "asserted": scale >= 1.0,
        "guarded": bool(os.environ.get("REPRO_BENCH_GUARD")),
    }
    assert stats.dispatched <= len(population) // 2, (
        f"duplicate genomes must dedupe: {report}"
    )
    if report["asserted"]:
        assert report["speedup"] >= _TARGET_SPEEDUP, (
            f"batched attacker scoring only {report['speedup']:.2f}x vs the "
            f"per-attacker loop (target {_TARGET_SPEEDUP}x): {report}"
        )
    if report["guarded"]:
        # CI perf-regression guard (smoke scale): batching must never
        # lose to the loop it replaces.
        assert report["speedup"] >= 1.0, report
    if out_json:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_coevo_speed(benchmark):
    report = benchmark.pedantic(
        run_batched_attacker_scoring, rounds=1, iterations=1
    )
    print_header(
        "COEVO",
        "Batched attacker-generation scoring vs per-attacker loop",
        "ROADMAP: adversarial co-evolution (attacker panels vs the lock "
        "population)",
    )
    for key, value in report.items():
        print(f"  {key}: {value}")
    assert report["speedup"] is not None


if __name__ == "__main__":
    out = os.environ.get("BENCH_COEVO_OUT", "BENCH_coevo.json")
    summary = run_batched_attacker_scoring(out_json=out)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out}")
