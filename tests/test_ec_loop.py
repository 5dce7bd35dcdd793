"""The unified search loop: sync golden equivalence + async determinism.

Two contracts pin the ``repro.ec.loop`` refactor:

* **sync** (``async_mode=False``) reproduces the legacy hand-rolled
  engine loops byte-identically — asserted against the same golden
  trajectories ``test_ec_determinism.py`` pins, plus an AutoLock
  pipeline golden captured on the pre-refactor implementation;
* **async** (steady-state) is a deterministic function of the seed:
  completions integrate in submission order, so any worker count — and
  a serial replay — produces the identical champion set.

Plus the crash-safety satellite: a raised attack error flushes dirty
fitness-cache entries (and salvages completed pool siblings) before
propagating.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import pytest

from repro.circuits import load_circuit
from repro.ec import (
    AsyncEvaluator,
    AutoLock,
    AutoLockConfig,
    BacklogTuner,
    CachedFitness,
    FitnessCache,
    GaConfig,
    GeneticAlgorithm,
    Nsga2,
    Nsga2Config,
    SerialEvaluator,
)
from repro.ec.genotype import genotype_key, random_genotype
from repro.errors import EvolutionError
from repro.store import open_store

from test_ec_determinism import (
    GA_RAND100_BESTS,
    GA_RAND100_MEANS,
    GA_RAND100_SHA,
    NSGA2_FRONT,
    ones_fitness,
    two_objectives,
)


def _champion_sha(genes) -> str:
    """Digest of the champion's gene fields; unlike ``genotype_key`` it
    leaves out the kind tag, so the goldens do not follow the cache-key
    format."""
    genes = tuple(dataclasses.astuple(g) for g in genes)
    return hashlib.sha256(repr(genes).encode()).hexdigest()


#: AutoLock golden, captured on the pre-refactor (hand-rolled loop)
#: implementation: rand_150_5, K=8, pop=4, gens=3, bayes fitness+report,
#: report_ensemble=1, seed=11.
AUTOLOCK_BASELINE = 0.625
AUTOLOCK_EVOLVED = 0.4375
AUTOLOCK_BESTS = [0.5, 0.4375, 0.4375]
AUTOLOCK_SHA = "19abb98c8208ac35070f98a1cfcf06699f059d323ce772e2d31b739aed9d2fa9"


def _autolock_config(**overrides) -> AutoLockConfig:
    base = dict(
        key_length=8,
        population_size=4,
        generations=3,
        fitness_predictor="bayes",
        report_predictor="bayes",
        report_ensemble=1,
        seed=11,
    )
    base.update(overrides)
    return AutoLockConfig(**base)


# ------------------------------------------------ sync golden equivalence
def test_sync_ga_reproduces_legacy_golden_through_async_evaluator():
    """The loop's sync path over an AsyncEvaluator's batch API must still
    walk the exact legacy trajectory (the serial/pool variants are pinned
    in test_ec_determinism.py)."""
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=10, population_size=8, generations=8,
        mutation="key_only", seed=42, async_mode=False,
    )
    with AsyncEvaluator(workers=2) as evaluator:
        result = GeneticAlgorithm(config).run(
            circuit, ones_fitness, evaluator=evaluator
        )
    assert [s.best for s in result.history] == GA_RAND100_BESTS
    assert [s.mean for s in result.history] == GA_RAND100_MEANS
    assert _champion_sha(result.best_genotype) == GA_RAND100_SHA


def test_sync_nsga2_reproduces_legacy_golden():
    circuit = load_circuit("rand_100_7")
    config = Nsga2Config(
        key_length=6, population_size=8, generations=5, seed=5,
        async_mode=False,
    )
    result = Nsga2(config).run(circuit, two_objectives)
    assert sorted(result.front_objectives) == NSGA2_FRONT


def test_sync_autolock_reproduces_prerefactor_golden():
    """The full pipeline (GA + report stage) over the loop, vs the values
    captured on the pre-refactor implementation."""
    circuit = load_circuit("rand_150_5")
    result = AutoLock(_autolock_config()).run(circuit)
    assert result.baseline_accuracy == AUTOLOCK_BASELINE
    assert result.evolved_accuracy == AUTOLOCK_EVOLVED
    assert [s.best for s in result.ga.history] == AUTOLOCK_BESTS
    assert _champion_sha(result.ga.best_genotype) == AUTOLOCK_SHA


# --------------------------------------------------- async determinism
class FnFitness(CachedFitness):
    """Picklable, cache-fronted wrapper scoring with ``fn``."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def score(self, genes):
        return self.fn(genes)


def _async_runs(run, fn):
    """``run(evaluator, fitness)`` in-process, then on 1- and 3-worker
    pools; each result with its fitness counters."""
    runs = []
    for evaluator in (
        SerialEvaluator(), AsyncEvaluator(workers=1), AsyncEvaluator(workers=3)
    ):
        fitness = FnFitness(fn)
        with evaluator:
            result = run(evaluator, fitness)
        counters = (
            fitness.evaluations, fitness.cache.hits, fitness.cache.misses
        )
        runs.append((result, counters))
    return runs


def test_async_ga_deterministic_across_worker_counts():
    """Steady state integrates completions in submission order, so the
    trajectory — not just the champion — and its accounting are identical
    at any parallelism, including an in-process serial run."""
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=10, population_size=8, generations=6,
        mutation="key_only", seed=42, async_mode=True,
    )

    def run(evaluator, fitness):
        return GeneticAlgorithm(config).run(
            circuit, fitness, evaluator=evaluator
        )

    (serial, counters), *pooled = _async_runs(run, ones_fitness)
    assert serial.evaluations == 6 * 8
    for result, pool_counters in pooled:
        assert result.hall_of_fame == serial.hall_of_fame
        assert result.best_genotype == serial.best_genotype
        assert result.best_fitness == serial.best_fitness
        assert [
            (s.best, s.mean, s.std, s.cache_hits, s.cache_misses)
            for s in result.history
        ] == [
            (s.best, s.mean, s.std, s.cache_hits, s.cache_misses)
            for s in serial.history
        ]
        assert result.evaluations == serial.evaluations
        assert pool_counters == counters


def test_async_nsga2_deterministic_across_worker_counts():
    circuit = load_circuit("rand_100_7")
    config = Nsga2Config(
        key_length=6, population_size=8, generations=4, seed=5,
        async_mode=True,
    )

    def run(evaluator, fitness):
        return Nsga2(config).run(circuit, fitness, evaluator=evaluator)

    (serial, counters), *pooled = _async_runs(run, two_objectives)
    assert len(serial.history) == config.generations
    for result, pool_counters in pooled:
        assert result.front_objectives == serial.front_objectives
        assert result.front_genotypes == serial.front_genotypes
        assert result.history == serial.history
        assert pool_counters == counters


def test_async_autolock_serial_replay_matches_parallel():
    """A 2-worker steady-state run and a 1-worker async replay of the
    same seed must land on the same champion set."""
    circuit = load_circuit("rand_150_5")
    config = _autolock_config(async_mode=True)
    with AsyncEvaluator(workers=2) as pool:
        parallel = AutoLock(config).run(circuit, evaluator=pool)
    replay = AutoLock(config).run(circuit)
    assert parallel.ga.best_genotype == replay.ga.best_genotype
    assert parallel.ga.hall_of_fame == replay.ga.hall_of_fame
    assert parallel.evolved_accuracy == replay.evolved_accuracy
    assert parallel.baseline_accuracy == replay.baseline_accuracy


def test_async_window_stats_are_per_run_on_a_shared_evaluator():
    """Sweeps share one AsyncEvaluator across points: each run's windowed
    history must account only its own dispatches, not the pool's
    lifetime totals."""
    circuit = load_circuit("rand_100_7")
    budget = 3 * 6

    def config(seed):
        return GaConfig(
            key_length=8, population_size=6, generations=3,
            mutation="key_only", seed=seed, async_mode=True,
        )

    with AsyncEvaluator(workers=2) as evaluator:
        first = GeneticAlgorithm(config(1)).run(
            circuit, ones_fitness, evaluator=evaluator
        )
        second = GeneticAlgorithm(config(2)).run(
            circuit, ones_fitness, evaluator=evaluator
        )
    for result in (first, second):
        misses = [s.cache_misses for s in result.history]
        assert all(m >= 0 for m in misses)
        assert sum(misses) <= budget, (
            "window stats leaked another run's evaluator totals"
        )


def test_async_early_stop_cancels_remaining_budget():
    """Hitting target_fitness mid-stream stops the loop early and cancels
    what it can instead of burning the full budget."""
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=6, population_size=8, generations=50,
        mutation="key_only", target_fitness=0.0, seed=3, async_mode=True,
    )
    with AsyncEvaluator(workers=2) as evaluator:
        result = GeneticAlgorithm(config).run(
            circuit, ones_fitness, evaluator=evaluator
        )
    assert result.best_fitness == 0.0
    assert result.stopped_early
    assert result.evaluations < 50 * 8


class SleepyFitness:
    """Picklable, slow fitness for work that shares the loop's pool."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __call__(self, genes) -> float:
        time.sleep(self.seconds)
        return ones_fitness(genes)


class OnesCache(FitnessCache):
    """A picklable cache that answers every lookup where it is made, with
    the ``ones_fitness`` of the genotype the key names (every gene's key
    tuple ends with its key bit), so a loop over it never uses the pool."""

    def get(self, key):
        self.count_lookup(hit=True)
        return sum(gene[-1] for gene in key) / len(key)


def test_async_early_stop_cancels_only_the_loops_own_work():
    """Work another caller submitted to a shared evaluator before the loop
    ran survives the loop's early-stop cancellation."""
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=6, population_size=8, generations=50,
        mutation="key_only", target_fitness=0.0, seed=3, async_mode=True,
    )
    outside = [random_genotype(circuit, 6, seed_or_rng=s) for s in range(4)]
    known = FnFitness(ones_fitness)
    known.cache = OnesCache()
    with AsyncEvaluator(workers=1) as evaluator:
        # One worker runs the first task and holds the next in its call
        # queue; the rest stay queued, and so cancellable, for the
        # whole GA run, which its cache answers in this process.
        sleepy = SleepyFitness(0.3)
        futures = [evaluator.submit(g, sleepy) for g in outside]
        result = GeneticAlgorithm(config).run(
            circuit, known, evaluator=evaluator
        )
        assert known.evaluations == 0
        assert result.stopped_early
        assert not any(f.cancelled() for f in futures)
        assert [f.result() for f in futures] == [
            ones_fitness(g) for g in outside
        ]


def test_async_mode_none_is_rejected_not_run_sync():
    """The loop mode is a plain bool: the old ``None`` ("follow the
    evaluator") fails loudly on any evaluator instead of running sync."""
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=4, population_size=4, generations=2, async_mode=None,
    )
    with AsyncEvaluator(workers=2) as evaluator:
        with pytest.raises(EvolutionError, match="async_mode"):
            GeneticAlgorithm(config).run(
                circuit, ones_fitness, evaluator=evaluator
            )


def test_async_config_validation():
    with pytest.raises(EvolutionError, match="async_backlog"):
        GaConfig(async_backlog=0)
    with pytest.raises(EvolutionError, match="async_backlog"):
        Nsga2Config(async_backlog=0)
    with pytest.raises(EvolutionError, match="int or 'auto'"):
        GaConfig(async_backlog="adaptive")
    with pytest.raises(EvolutionError, match="int or 'auto'"):
        Nsga2Config(async_backlog="adaptive")
    # "auto" is the one accepted string.
    assert GaConfig(async_backlog="auto").async_backlog == "auto"
    assert Nsga2Config(async_backlog="auto").async_backlog == "auto"


# ------------------------------------------- adaptive backlog tuning
def test_backlog_tuner_bounds_and_ewma():
    tuner = BacklogTuner(4)
    # No observations yet: conservative floor (workers + 1).
    assert tuner.target() == 5
    for _ in range(10):
        tuner.observe(1.0)
    # Uniform latency: peak/mean ~ 1, stays at the floor.
    assert tuner.target() == 5
    skewed = BacklogTuner(4)
    for _ in range(20):
        skewed.observe(0.1)
    skewed.observe(2.0)
    # One straggler: deepen the backlog, but never past 8x workers.
    assert 5 < skewed.target() <= 32
    spiky = BacklogTuner(2)
    spiky.observe(1e-6)
    spiky.observe(1e6)
    assert spiky.target() <= 16
    # Negative latencies (clock weirdness) must not corrupt the EWMA.
    tuner.observe(-1.0)
    assert tuner.target() >= 5


def test_async_ga_runs_with_auto_backlog():
    circuit = load_circuit("rand_100_7")
    results = []
    for backlog in ("auto", None):
        config = GaConfig(
            key_length=4, population_size=4, generations=3,
            async_mode=True, async_backlog=backlog, seed=7,
        )
        evaluator = AsyncEvaluator(2)
        try:
            results.append(
                GeneticAlgorithm(config).run(
                    circuit, ones_fitness, evaluator=evaluator
                )
            )
        finally:
            evaluator.close()
    auto, fixed = results
    assert auto.evaluations == fixed.evaluations
    assert auto.best_fitness <= 1.0


# ------------------------------------------- crash-safe cache flushing
class ExplodingFitness(CachedFitness):
    """Cache-fronted fitness that batches its writes and then crashes.

    Mimics an engine fitness whose persistence relies on a later flush
    (``record`` never writes through): without the loop's
    flush-on-exception, every evaluation paid for before the crash would
    be lost.
    """

    def __init__(self, cache: FitnessCache, explode_after: int) -> None:
        super().__init__(cache)
        self.explode_after = explode_after

    def score(self, genes) -> float:
        if self.evaluations >= self.explode_after:
            raise RuntimeError("attack backend crashed")
        return ones_fitness(genes)

    def record(self, key, value, flush: bool = True) -> None:
        super().record(key, value, flush=False)


def test_engine_crash_flushes_dirty_cache_entries(tmp_path):
    circuit = load_circuit("rand_100_7")
    path = tmp_path / "cache.sqlite"
    fitness = ExplodingFitness(
        FitnessCache(backend=open_store(path), namespace="ns"),
        explode_after=5,
    )
    config = GaConfig(
        key_length=6, population_size=8, generations=4, seed=2,
    )
    with pytest.raises(RuntimeError, match="attack backend crashed"):
        GeneticAlgorithm(config).run(circuit, fitness)
    fitness.cache.backend.close()
    reloaded = FitnessCache(backend=open_store(path), namespace="ns")
    assert len(reloaded.store) == 5, (
        "the evaluations paid for before the crash must be on disk"
    )


class PoisonFitness(CachedFitness):
    """Picklable fitness that crashes on one specific genotype."""

    def __init__(self, poison: tuple, cache: FitnessCache) -> None:
        super().__init__(cache)
        self.poison = poison

    def score(self, genes) -> float:
        if genotype_key(genes) == self.poison:
            raise RuntimeError("poisoned genotype")
        return ones_fitness(genes)


def test_pool_crash_salvages_completed_sibling_evaluations(tmp_path):
    """One failing task in a pool batch must not discard its siblings'
    finished values: they are merged into the cache and flushed before
    the error propagates."""
    circuit = load_circuit("rand_100_7")
    genomes = [random_genotype(circuit, 4, seed_or_rng=s) for s in range(4)]
    poison = genotype_key(genomes[1])
    path = tmp_path / "cache.sqlite"
    fitness = PoisonFitness(
        poison, FitnessCache(backend=open_store(path), namespace="ns")
    )
    with AsyncEvaluator(workers=2) as evaluator:
        with pytest.raises(RuntimeError, match="poisoned genotype"):
            evaluator.evaluate(genomes, fitness)
    fitness.cache.backend.close()
    reloaded = FitnessCache(backend=open_store(path), namespace="ns")
    salvaged = [g for g in genomes if genotype_key(g) != poison]
    assert all(
        reloaded.get(genotype_key(g)) is not None for g in salvaged
    ), "completed sibling evaluations must survive the batch failure"
    assert reloaded.get(poison) is None
