"""Seed-fixed golden trajectories for the evolutionary engines.

The evaluator refactor (and any future one) must not silently change
search behaviour: with a fixed seed, the GA and NSGA-II are deterministic
functions of (circuit, config, fitness). These tests pin exact
best-fitness trajectories and champion genotypes on registry-parametric
``rand_*`` circuits with a cheap synthetic fitness, so any accidental
change to RNG consumption, operator order, population bookkeeping, or
evaluation order shows up as a hard diff — not as a quietly different
experiment.

If a change *intentionally* alters search behaviour, regenerate the
goldens and say so in the commit message.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.circuits import load_circuit
from repro.ec import (
    AsyncEvaluator,
    GaConfig,
    GeneticAlgorithm,
    Nsga2,
    Nsga2Config,
)


def ones_fitness(genes) -> float:
    return sum(g.k for g in genes) / len(genes)


def two_objectives(genes) -> tuple[float, float]:
    ones = sum(g.k for g in genes) / len(genes)
    return (ones, 1.0 - ones)


def _champion_sha(genes) -> str:
    """Digest of the champion's gene fields; unlike ``genotype_key`` it
    leaves out the kind tag, so the goldens do not follow the cache-key
    format."""
    genes = tuple(dataclasses.astuple(g) for g in genes)
    return hashlib.sha256(repr(genes).encode()).hexdigest()


GA_RAND100_BESTS = [0.3, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1]
GA_RAND100_MEANS = [
    0.45,
    0.425,
    0.3125,
    0.275,
    0.2625,
    0.2875,
    0.28750000000000003,
    0.22500000000000003,
]
GA_RAND100_SHA = "e247de6823bcf1d677afcb66d136a59529ed4b61bb178cdcabf1a679b3b94a64"

GA_RAND200_BESTS = [0.5, 0.5, 0.375, 0.25, 0.25, 0.25]
GA_RAND200_SHA = "93cd991aa0f8b7b02bb60ffc77adcdf255ff8b23ff67e599adc752bc9d7a5a8d"

NSGA2_FRONT = [
    (0.0, 1.0),
    (0.0, 1.0),
    (0.3333333333333333, 0.6666666666666667),
    (0.3333333333333333, 0.6666666666666667),
    (0.5, 0.5),
    (0.5, 0.5),
    (0.6666666666666666, 0.33333333333333337),
    (0.6666666666666666, 0.33333333333333337),
]


def test_ga_trajectory_golden_rand100():
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=10,
        population_size=8,
        generations=8,
        mutation="key_only",
        seed=42,
    )
    result = GeneticAlgorithm(config).run(circuit, ones_fitness)
    assert [s.best for s in result.history] == GA_RAND100_BESTS
    assert [s.mean for s in result.history] == GA_RAND100_MEANS
    assert _champion_sha(result.best_genotype) == GA_RAND100_SHA
    assert result.best_fitness == GA_RAND100_BESTS[-1]


def test_ga_trajectory_golden_rand200_default_operators():
    circuit = load_circuit("rand_200_11")
    config = GaConfig(
        key_length=8,
        population_size=6,
        generations=6,
        mutation="default",
        crossover="uniform",
        seed=7,
    )
    result = GeneticAlgorithm(config).run(circuit, ones_fitness)
    assert [s.best for s in result.history] == GA_RAND200_BESTS
    assert _champion_sha(result.best_genotype) == GA_RAND200_SHA


def test_ga_trajectory_golden_survives_process_pool():
    """The pool evaluator must reproduce the pinned serial trajectory.

    ``ones_fitness`` is a plain module-level function (picklable, no
    cache), so this also covers the evaluator's cache-less dispatch path
    against the golden. The config's default sync loop stays in force:
    the evaluator never picks the loop mode.
    """
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=10,
        population_size=8,
        generations=8,
        mutation="key_only",
        seed=42,
    )
    with AsyncEvaluator(workers=2) as evaluator:
        result = GeneticAlgorithm(config).run(
            circuit, ones_fitness, evaluator=evaluator
        )
    assert [s.best for s in result.history] == GA_RAND100_BESTS
    assert _champion_sha(result.best_genotype) == GA_RAND100_SHA


def test_nsga2_front_golden_rand100():
    circuit = load_circuit("rand_100_7")
    config = Nsga2Config(key_length=6, population_size=8, generations=5, seed=5)
    result = Nsga2(config).run(circuit, two_objectives)
    assert sorted(result.front_objectives) == NSGA2_FRONT
    assert all(
        h["best_per_objective"] == [0.0, 0.33333333333333337]
        for h in result.history
    )


def test_ga_trajectory_golden_unchanged_by_tracing(tmp_path):
    """Telemetry is pure observation: the same golden trajectory must
    fall out whether spans are being recorded or not."""
    from repro.obs import trace as obs_trace

    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=10,
        population_size=8,
        generations=8,
        mutation="key_only",
        seed=42,
    )
    with obs_trace.tracing(tmp_path / "ga.jsonl"):
        result = GeneticAlgorithm(config).run(circuit, ones_fitness)
    assert not obs_trace.enabled()
    assert [s.best for s in result.history] == GA_RAND100_BESTS
    assert [s.mean for s in result.history] == GA_RAND100_MEANS
    assert _champion_sha(result.best_genotype) == GA_RAND100_SHA
    # and the trace actually recorded the loop's stages
    spans = (tmp_path / "ga.jsonl").read_text()
    assert '"loop.run"' in spans and '"loop.evaluate"' in spans
