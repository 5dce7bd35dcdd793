"""Population evaluation engine: serial/parallel equivalence and caching.

The evaluator refactor moved the GA/NSGA-II hot path from a per-genome
loop into a batched pipeline (dedupe -> cache -> fan-out -> merge). These
tests pin the contract that made that safe: the pool evaluator is
*observationally identical* to the serial one — same results, same cache
accounting, same evaluation counts — and the persistent cache turns
repeated runs into pure lookups.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import multiprocessing
import os
import pickle
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.runner import run_experiment
from repro.api.spec import ExperimentSpec
from repro.circuits import load_circuit
from repro.ec import (
    AsyncEvaluator,
    AutoLock,
    AutoLockConfig,
    BatchStats,
    CachedFitness,
    FitnessCache,
    GaConfig,
    GeneticAlgorithm,
    Nsga2,
    Nsga2Config,
    SerialEvaluator,
    SpecFitness,
    cache_namespace,
)
from repro.ec import autolock as autolock_module
from repro.ec import evaluator as evaluator_module
from repro.ec.evaluator import open_evaluator
from repro.ec.fitness import MultiObjectiveFitness
from repro.ec.genotype import genotype_key, random_genotype
from repro.store import open_store
from repro.utils.rng import derive_rng, spawn_seeds

from test_ec_determinism import ones_fitness


@pytest.fixture(scope="module")
def circuit():
    return load_circuit("rand_150_5")


def _strip_timing(stats):
    return dataclasses.replace(stats, elapsed_s=0.0, eval_wall_s=0.0)


class CountingFitness(CachedFitness):
    """Cache-fronted, picklable fitness that counts real evaluations."""

    def __init__(
        self, cache: FitnessCache | None = None, offset: float = 0.0
    ) -> None:
        super().__init__(cache)
        self.offset = offset

    def score(self, genes) -> float:
        return sum(g.k for g in genes) / len(genes) + self.offset


class SlowPutCache(FitnessCache):
    """A cache whose ``put`` is slow, widening any merge-after-wake race."""

    def put(self, key, value, flush: bool = True) -> None:
        time.sleep(0.05)
        super().put(key, value, flush)


class SleepyFitness:
    """Picklable, cache-less fitness that sleeps before answering and
    appends one line per call to ``calls`` (when given)."""

    def __init__(self, seconds: float, offset: float = 0.0, calls=None):
        self.seconds = seconds
        self.offset = offset
        self.calls = calls

    def __call__(self, genes) -> float:
        if self.calls is not None:
            with open(self.calls, "a") as fh:
                fh.write("call\n")
        time.sleep(self.seconds)
        return sum(g.k for g in genes) / len(genes) + self.offset


class PidFitness:
    """Picklable, cache-less fitness reporting which process ran it."""

    def __init__(self, offset: int) -> None:
        self.offset = offset

    def __call__(self, genes) -> float:
        import os

        return float(os.getpid() + self.offset)


# ----------------------------------------------------- GA equivalence
def _ga_run(circuit, evaluator, cache):
    fitness = SpecFitness(
        circuit, "muxlink", {"predictor": "bayes", "ensemble": 1},
        attack_seed=5, cache=cache,
    )
    # The generational loop (the config default) on either evaluator.
    config = GaConfig(key_length=6, population_size=6, generations=4, seed=9)
    result = GeneticAlgorithm(config).run(circuit, fitness, evaluator=evaluator)
    return result, fitness


def test_process_pool_ga_matches_serial_exactly(circuit):
    serial_cache, pool_cache = FitnessCache(), FitnessCache()
    serial, serial_fit = _ga_run(circuit, SerialEvaluator(), serial_cache)
    with AsyncEvaluator(workers=2) as evaluator:
        pooled, pool_fit = _ga_run(circuit, evaluator, pool_cache)

    # Byte-identical search outcome.
    assert pooled.best_fitness == serial.best_fitness
    assert pooled.best_genotype == serial.best_genotype
    assert pooled.hall_of_fame == serial.hall_of_fame
    assert pooled.evaluations == serial.evaluations
    assert pooled.stopped_early == serial.stopped_early
    # Identical fitness history, modulo wall-clock fields.
    assert [_strip_timing(s) for s in pooled.history] == [
        _strip_timing(s) for s in serial.history
    ]
    # Identical accounting: fresh evaluations and cache counters.
    assert pool_fit.evaluations == serial_fit.evaluations
    assert (pool_cache.hits, pool_cache.misses) == (
        serial_cache.hits,
        serial_cache.misses,
    )
    assert pool_cache.store == serial_cache.store


def test_process_pool_nsga2_matches_serial_exactly(circuit):
    def nsga_run(evaluator):
        fitness = MultiObjectiveFitness(
            circuit,
            predictor="bayes",
            objectives=("muxlink", "depth"),
            attack_seed=7,
        )
        config = Nsga2Config(
            key_length=5, population_size=6, generations=3, seed=13
        )
        return Nsga2(config).run(circuit, fitness, evaluator=evaluator)

    serial = nsga_run(SerialEvaluator())
    with AsyncEvaluator(workers=2) as evaluator:
        pooled = nsga_run(evaluator)

    assert pooled.front_genotypes == serial.front_genotypes
    assert pooled.front_objectives == serial.front_objectives
    assert pooled.evaluations == serial.evaluations
    assert pooled.history == serial.history


def test_cacheless_fitness_history_counters_match_across_evaluators():
    """A plain function has no cache and no counters, so an evaluator can
    only count what it dispatched: each generation's misses are its
    distinct genotypes, on either evaluator."""
    circuit = load_circuit("rand_100_7")
    config = GaConfig(
        key_length=6, population_size=6, generations=3,
        mutation="key_only", seed=4,
    )

    def run(evaluator):
        result = GeneticAlgorithm(config).run(
            circuit, ones_fitness, evaluator=evaluator
        )
        return [(s.cache_hits, s.cache_misses) for s in result.history]

    serial = run(SerialEvaluator())
    with AsyncEvaluator(workers=2) as evaluator:
        pooled = run(evaluator)
    # Generation 1 breeds one repeat: dispatched once, and no cache to hit.
    assert serial == pooled == [(0, 6), (0, 5), (0, 6)]


# ------------------------------------------------- dedupe + accounting
def test_duplicate_genotypes_dispatched_once(circuit):
    genes = random_genotype(circuit, 4, seed_or_rng=1)
    other = random_genotype(circuit, 4, seed_or_rng=2)
    population = [genes, other, list(genes), list(genes), other]

    fitness = CountingFitness()
    with AsyncEvaluator(workers=2) as evaluator:
        values, stats = evaluator.evaluate(population, fitness)

    assert stats.size == 5
    assert stats.dispatched == 2, "each distinct genotype must be attacked once"
    assert fitness.evaluations == 2
    assert values[0] == values[2] == values[3]
    assert values[1] == values[4]
    # Serial hit/miss semantics: 2 first-occurrence misses, 3 replayed hits.
    assert fitness.cache.misses == 2 and fitness.cache.hits == 3


def test_cache_hits_accumulate_across_generations(circuit):
    genes = random_genotype(circuit, 4, seed_or_rng=3)
    fitness = CountingFitness()
    with AsyncEvaluator(workers=2) as evaluator:
        _, first = evaluator.evaluate([genes, genes], fitness)
        _, second = evaluator.evaluate([genes], fitness)
        assert first.dispatched == 1 and first.cache_hits == 1
        assert second.dispatched == 0 and second.cache_hits == 1
        assert evaluator.total.size == 3
        assert evaluator.total.dispatched == 1
        assert evaluator.total.cache_hits == 2
    assert fitness.evaluations == 1


def test_pool_reused_across_generations_and_fitness_changes(circuit):
    """The pool must survive fitness-cache warm-up *and* fitness swaps.

    The worker snapshot is keyed on fitness object identity, not its
    (mutating) pickled state, and a genuinely new fitness re-sends the
    blob to the live workers instead of respawning the executor — a
    sweep runs many specs through one shared pool, so restarting per
    spec would silently forfeit the fan-out win.
    """
    fitness = CountingFitness()
    a = random_genotype(circuit, 4, seed_or_rng=5)
    b = random_genotype(circuit, 4, seed_or_rng=6)
    with AsyncEvaluator(workers=2) as evaluator:
        evaluator.evaluate([a], fitness)
        pool_after_first = evaluator._pool
        epoch_after_first = evaluator._epoch
        assert pool_after_first is not None
        evaluator.evaluate([b], fitness)  # cache mutated since the snapshot
        assert evaluator._pool is pool_after_first, (
            "same fitness object must not trigger a pool rebuild"
        )
        assert evaluator._epoch == epoch_after_first, (
            "same fitness object must not re-ship its blob"
        )
        evaluator.evaluate([a], CountingFitness())  # genuinely new fitness
        assert evaluator._pool is pool_after_first, (
            "a new fitness must reuse the live workers (new epoch blob), "
            "not restart the executor"
        )
        assert evaluator._epoch == epoch_after_first + 1


def test_pool_worker_processes_survive_fitness_change(circuit):
    """The same worker *processes* answer batches before and after the
    dispatcher switches to a different fitness object.

    Which of the two pool processes serves a given task is a race, so
    the assertion bounds the *union* of observed pids: a respawned
    executor would surface fresh pids and push the union past the pool
    size, while the keep-alive pool can never exceed it.
    """
    import os

    a = random_genotype(circuit, 4, seed_or_rng=5)
    b = random_genotype(circuit, 4, seed_or_rng=6)
    with AsyncEvaluator(workers=2) as evaluator:
        first, _ = evaluator.evaluate([a, b], PidFitness(0))
        second, _ = evaluator.evaluate([a, b], PidFitness(1_000_000))
        parent = os.getpid()
    pids_first = {int(v) for v in first}
    pids_second = {int(v) - 1_000_000 for v in second}
    assert parent not in (pids_first | pids_second), (
        "work must run in worker processes"
    )
    assert len(pids_first | pids_second) <= 2, (
        "fitness change must not respawn the worker processes"
    )


def test_interleaved_fitnesses_stage_one_blob_each(circuit):
    """Switching between live fitness functions never re-ships a blob;
    a released fitness's blob goes, a live one's stays, close() clears
    the rest."""
    genomes = [random_genotype(circuit, 4, seed_or_rng=s) for s in (20, 21, 22)]
    fit_a, fit_b = CountingFitness(), CountingFitness(offset=10.0)
    order = [(fit_a, genomes[0]), (fit_b, genomes[1]), (fit_a, genomes[2])]
    want = [
        CountingFitness(offset=fitness.offset)(genes) for fitness, genes in order
    ]
    with AsyncEvaluator(workers=2) as evaluator:
        epoch0 = evaluator._epoch
        futures = [evaluator.submit(genes, fitness) for fitness, genes in order]
        assert [future.result() for future in futures] == want
        assert evaluator._epoch == epoch0 + 2, "one epoch per fitness object"

        blob_a = evaluator._staged[id(fit_a)][2]
        blob_b = evaluator._staged[id(fit_b)][2]
        blob_dir = evaluator._blob_dir
        assert os.path.exists(blob_a) and os.path.exists(blob_b)
        del futures, order, fit_b
        gc.collect()
        assert not os.path.exists(blob_b), "a released fitness keeps no blob"
        assert os.path.exists(blob_a), "a live fitness keeps its blob"
        assert len(evaluator._staged) == 1
    assert not os.path.exists(blob_dir)


def test_released_fitness_still_answers_its_running_task(circuit):
    """The caller's last reference to a fitness goes while its task waits
    behind other work: the task still loads the blob and answers."""
    genomes = [random_genotype(circuit, 4, seed_or_rng=s) for s in (23, 24, 25)]
    fitness = SleepyFitness(0.0, offset=5.0)
    want = fitness(genomes[2])
    with AsyncEvaluator(workers=2) as evaluator:
        busy = SleepyFitness(0.5)
        blockers = [evaluator.submit(g, busy) for g in genomes[:2]]
        future = evaluator.submit(genomes[2], fitness)
        blob = evaluator._staged[id(fitness)][2]
        del fitness
        gc.collect()
        assert future.result() == want
        assert [b.result() for b in blockers] == [
            SleepyFitness(0.0)(g) for g in genomes[:2]
        ]
        del future
        gc.collect()
        assert not os.path.exists(blob), "the blob goes once its task is done"


class FailingCache(FitnessCache):
    """A picklable cache whose every lookup fails where it is made."""

    def get(self, key):
        raise RuntimeError("fitness attack failed")


def test_ga_error_cancels_only_its_own_queued_report_attacks(
    circuit, tmp_path, monkeypatch
):
    """AutoLock queues its report attacks before the GA; when the GA
    fails, the report attacks that have not started are cancelled, and
    another caller's work on the shared pool still runs."""
    calls = tmp_path / "report_calls.txt"
    calls.touch()

    def spec_fitness(original, attack, params, attack_seed, cache):
        if params["predictor"] == "mlp":  # the report oracle
            return SleepyFitness(0.5, calls=str(calls))
        # The GA's oracle fails its first lookup, in the parent, at once.
        return CountingFitness(FailingCache())

    monkeypatch.setattr(autolock_module, "SpecFitness", spec_fitness)
    config = AutoLockConfig(
        key_length=4, population_size=8, generations=1,
        fitness_predictor="bayes", report_predictor="mlp", report_ensemble=1,
        seed=3,
    )
    genomes = [random_genotype(circuit, 4, seed_or_rng=s) for s in (26, 27, 28)]
    other = SleepyFitness(1.0, offset=7.0)
    with AsyncEvaluator(workers=2) as shared:
        # Another caller's work: two running tasks and one queued one.
        theirs = [shared.submit(g, other) for g in genomes]
        with pytest.raises(RuntimeError, match="fitness attack failed"):
            AutoLock(config).run(circuit, evaluator=shared)
        assert [f.result() for f in theirs] == [other(g) for g in genomes]
    assert len(calls.read_text().splitlines()) <= shared.workers


class SleepyCountingFitness(CountingFitness):
    """Cache-fronted, picklable fitness that sleeps before answering."""

    def __init__(self, seconds: float) -> None:
        super().__init__()
        self.seconds = seconds

    def score(self, genes) -> float:
        time.sleep(self.seconds)
        return super().score(genes)


def test_cancel_pending_counts_only_what_it_stopped(circuit):
    """``ProcessPoolExecutor`` hands some tasks to its workers' call
    queue ahead of time, and those can no longer be cancelled. Every
    future is either cancelled or resolves with its value cached, and
    ``cancel_pending`` returns the number it really cancelled."""
    genomes = [random_genotype(circuit, 4, seed_or_rng=s) for s in range(40, 48)]
    assert len({genotype_key(g) for g in genomes}) == 8
    fitness = SleepyCountingFitness(0.3)
    with AsyncEvaluator(workers=2) as evaluator:
        futures = [evaluator.submit(g, fitness) for g in genomes]
        futures[0].result()
        stopped = evaluator.cancel_pending()
        cancelled = [f for f in futures if f.cancelled()]
        assert stopped == len(cancelled) < len(futures)
        for genes, future in zip(genomes, futures):
            if not future.cancelled():
                value = sum(g.k for g in genes) / len(genes)
                assert future.result() == value
                assert fitness.cache.get(genotype_key(genes)) == value


class LambdaFitness(CachedFitness):
    """Cache-fronted fitness scoring with ``fn``; a lambda makes it
    unpicklable."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def score(self, genes) -> float:
        return self.fn(genes)


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "cached"])
def test_pool_refuses_an_unpicklable_fitness(circuit, wrapped):
    """A lambda, bare or behind a ``CachedFitness``, cannot reach the
    pool's workers: ``evaluate`` and ``submit`` raise ``TypeError``
    naming the way out, and the fitness is never called."""
    genes = random_genotype(circuit, 4, seed_or_rng=4)
    calls = []
    bare = lambda g: calls.append(1) or 0.25  # noqa: E731 - unpicklable
    fitness = LambdaFitness(bare) if wrapped else bare
    with AsyncEvaluator(workers=2) as evaluator:
        with pytest.raises(TypeError, match="cannot pickle.*SerialEvaluator"):
            evaluator.evaluate([genes, list(genes)], fitness)
        with pytest.raises(TypeError, match="cannot pickle.*SerialEvaluator"):
            evaluator.submit(genes, fitness)
        assert evaluator._pool is None, "no worker process was started"
    assert calls == []
    if wrapped:
        assert fitness.evaluations == 0
        assert fitness.cache.hits == fitness.cache.misses == 0


class SharedFailureEvaluator(evaluator_module.Evaluator):
    """Fails every dispatch with one shared exception instance, as a
    broken ``ProcessPoolExecutor`` does to all its pending futures."""

    def __init__(self, error: BaseException) -> None:
        super().__init__()
        self.error = error

    def _dispatch(self, key, genes, fitness, flush):
        future = Future()
        future.set_exception(self.error)
        return future, "fresh"


def test_shared_sibling_failure_raised_once(circuit):
    """Reading the failed siblings must not stack their frames onto the
    shared exception's traceback: it is raised once, whatever the batch
    size."""

    def frames(siblings: int) -> int:
        population = [
            random_genotype(circuit, 4, seed_or_rng=s) for s in range(siblings)
        ]
        evaluator = SharedFailureEvaluator(BrokenProcessPool("pool died"))
        with pytest.raises(BrokenProcessPool) as raised:
            evaluator.evaluate(population, CountingFitness())
        return len(traceback.extract_tb(raised.value.__traceback__))

    assert frames(1) == frames(4)


def test_process_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="workers"):
        AsyncEvaluator(workers=0)


def test_batch_stats_merge():
    a = BatchStats(size=4, cache_hits=1, dispatched=2, wall_s=0.5)
    b = BatchStats(size=2, cache_hits=2, dispatched=0, wall_s=0.25)
    assert a.merged(b) == BatchStats(
        size=6, cache_hits=3, dispatched=2, wall_s=0.75
    )


# ------------------------------------- pool batch vs serial, differential
#: distinct genotypes the differential test draws populations from.
_GENOMES = [
    random_genotype(load_circuit("rand_150_5"), 4, seed_or_rng=s)
    for s in range(6)
]


@pytest.fixture(scope="module")
def shared_pool():
    with AsyncEvaluator(workers=2) as evaluator:
        yield evaluator


@settings(max_examples=20, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(0, len(_GENOMES) - 1), min_size=1, max_size=8),
        min_size=1, max_size=3,
    ),
    warm=st.sets(st.integers(0, len(_GENOMES) - 1)),
)
def test_pool_evaluate_matches_serial_accounting(shared_pool, batches, warm):
    """Random populations with in-batch duplicates and pre-warmed cache
    entries: the pool batch gives the serial loop's values, cache
    counters, evaluation count and batch stats."""
    serial_fit, pool_fit = CountingFitness(), CountingFitness()
    for idx in warm:
        for fitness in (serial_fit, pool_fit):
            fitness.cache.put(genotype_key(_GENOMES[idx]), -1.0 - idx)
    serial = SerialEvaluator()
    for batch in batches:
        population = [list(_GENOMES[i]) for i in batch]
        want, want_stats = serial.evaluate(population, serial_fit)
        got, got_stats = shared_pool.evaluate(population, pool_fit)
        assert got == want
        assert dataclasses.replace(got_stats, wall_s=0.0) == (
            dataclasses.replace(want_stats, wall_s=0.0)
        )
        assert (pool_fit.cache.hits, pool_fit.cache.misses) == (
            serial_fit.cache.hits, serial_fit.cache.misses,
        )
        assert pool_fit.evaluations == serial_fit.evaluations
    assert pool_fit.cache.store == serial_fit.cache.store


def test_pool_batch_flushes_once_and_submit_writes_through(
    circuit, tmp_path
):
    backend = open_store(tmp_path / "cache.sqlite")
    cache = FitnessCache(backend=backend, namespace="ns")
    writes = []
    put_many = backend.put_many

    def counting_put_many(namespace, entries):
        writes.append(len(entries))
        return put_many(namespace, entries)

    backend.put_many = counting_put_many
    fitness = CountingFitness(cache)
    genomes = [random_genotype(circuit, 4, seed_or_rng=s) for s in range(5)]
    with AsyncEvaluator(workers=2) as evaluator:
        evaluator.evaluate(genomes[:3] + [list(genomes[0])], fitness)
        assert writes == [3], "one put_many per pool batch"
        for genes in genomes[3:]:
            evaluator.submit(genes, fitness).result()
        assert writes == [3, 1, 1], "each submit writes through"


# ------------------------------------------------ serial-vs-pool rule
@pytest.mark.parametrize("async_mode", [None, True, False])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("engine", ["ga", None], ids=["engine", "static"])
def test_open_evaluator_rule(engine, workers, async_mode):
    spec = ExperimentSpec(
        circuit="c17", key_length=2, engine=engine, attack="muxlink",
        workers=workers, async_mode=async_mode,
    )
    wants_pool = engine is not None and workers >= 2
    with open_evaluator(
        spec.workers, search=spec.engine is not None
    ) as evaluator:
        if wants_pool:
            assert type(evaluator) is AsyncEvaluator
            assert evaluator.workers == workers
        else:
            assert type(evaluator) is SerialEvaluator


def test_open_evaluator_reuses_or_grows_the_shared_pool():
    with AsyncEvaluator(workers=2) as small:
        assert open_evaluator(2, shared=small) is small
        with open_evaluator(4, shared=small) as grown:
            assert grown is not small and grown.workers == 4
        assert type(open_evaluator(1, shared=small)) is SerialEvaluator


# -------------------------------------------------- on-disk persistence
def test_fitness_cache_disk_round_trip(tmp_path):
    store = open_store(tmp_path / "cache.sqlite")
    key = (("a", "b", "c", "d", 1),)
    cache = FitnessCache(backend=store, namespace="ns1")
    cache.put(key, 0.5)
    cache.put((("e", "f", "g", "h", 0),), (0.1, 0.2))  # vector fitness

    reloaded = FitnessCache(backend=store, namespace="ns1")
    assert reloaded.get(key) == 0.5
    assert reloaded.get((("e", "f", "g", "h", 0),)) == (0.1, 0.2)
    assert reloaded.hits == 2 and reloaded.misses == 0

    # Namespaces are isolated but share the store.
    other = FitnessCache(backend=store, namespace="ns2")
    assert other.get(key) is None
    other.put(key, 0.9)
    assert FitnessCache(backend=store, namespace="ns1").get(key) == 0.5
    assert FitnessCache(backend=store, namespace="ns2").get(key) == 0.9

    # Wiping one namespace leaves the other intact.
    FitnessCache(backend=store, namespace="ns1").wipe_disk()
    assert FitnessCache(backend=store, namespace="ns1").get(key) is None
    assert FitnessCache(backend=store, namespace="ns2").get(key) == 0.9
    store.close()


def test_fitness_cache_pickle_drops_path_and_lock(tmp_path):
    """The pickled state names no store handle and no lock; the clone
    makes its own lock and, with no backend, never writes the store."""
    store = open_store(tmp_path / "cache.sqlite")
    cache = FitnessCache(backend=store, namespace="ns")
    cache.put((("a", "b", "c", "d", 0),), 0.5, flush=False)
    state = cache.__getstate__()
    assert "_lock" not in state and state["backend"] is None
    assert state["store"] == {} and state["_dirty"] == set()
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.backend is None, "worker-side clones must not write the store"
    assert clone._lock is not cache._lock
    clone.put((("x", "y", "z", "w", 1),), 0.1)  # must not touch the store
    clone.flush()
    assert store.load_namespace("ns") == {}, "only the dispatcher flushes"
    cache.flush()
    assert len(FitnessCache(backend=store, namespace="ns")) == 1
    store.close()


def test_pool_blob_size_does_not_grow_with_cached_entries():
    """A pool worker only runs ``score``, so a fitness pickles to the same
    bytes with 0 or 500 cached entries (a cache warmed from a store, say);
    the dispatcher's cache keeps its entries and counts its lookups."""
    fitness = SpecFitness(
        load_circuit("c880_syn"), "muxlink", {"predictor": "bayes"},
        attack_seed=5,
    )
    empty = len(pickle.dumps(fitness))
    keys = [((f"d{i}", "d", "c", "m", i % 2),) for i in range(500)]
    for i, key in enumerate(keys):
        fitness.cache.put(key, i / 500, flush=False)
    assert len(pickle.dumps(fitness)) == empty
    clone = pickle.loads(pickle.dumps(fitness))
    assert len(clone.cache) == 0 and len(fitness.cache) == 500
    assert fitness.cache.get(keys[7]) == 7 / 500
    assert (fitness.evaluations, fitness.cache.hits, fitness.cache.misses) \
        == (0, 1, 0)


def test_cache_namespace_is_order_independent():
    a = cache_namespace("c17", predictor="mlp", ensemble=2)
    b = cache_namespace("c17", ensemble=2, predictor="mlp")
    assert a == b and a.startswith("c17|")
    assert cache_namespace("c17", predictor="bayes") != a


# ------------------------------------------- warm-cache AutoLock reruns
def test_autolock_warm_disk_cache_skips_all_attacks(circuit, tmp_path):
    config = AutoLockConfig(
        key_length=6,
        population_size=4,
        generations=2,
        fitness_predictor="bayes",
        report_predictor="bayes",
        report_ensemble=1,
        seed=3,
    )
    path = tmp_path / "fitness_cache.sqlite"
    with closing(open_store(path)) as store:
        cold = AutoLock(config).run(circuit, store=store)
    assert cold.fitness_evaluations > 0 and cold.report_evaluations > 0

    with closing(open_store(path)) as store:  # a later run, a new handle
        warm = AutoLock(config).run(circuit, store=store)
    assert warm.fitness_evaluations == 0, "GA loop must be 100% cache hits"
    assert warm.report_evaluations == 0, "report stage must be 100% cache hits"
    assert warm.cache_hits == cold.cache_hits + cold.fitness_evaluations
    # Identical verdicts from pure lookups.
    assert warm.evolved_accuracy == cold.evolved_accuracy
    assert warm.baseline_accuracy == cold.baseline_accuracy
    assert warm.ga.best_fitness == cold.ga.best_fitness
    assert warm.ga.hall_of_fame == cold.ga.hall_of_fame


def test_autolock_workers_match_serial(circuit, tmp_path):
    """Pool-sync mode stays byte-identical to serial at any worker count.

    ``async_mode=False`` is the config default; it is spelled out here
    because the test pins the sync-generational contract (the async
    determinism contract lives in ``test_ec_loop.py``).
    """
    base = dict(
        key_length=6,
        population_size=4,
        generations=2,
        fitness_predictor="bayes",
        report_predictor="bayes",
        report_ensemble=1,
        seed=17,
    )
    serial = AutoLock(AutoLockConfig(**base)).run(circuit)
    with AsyncEvaluator(workers=2) as pool:
        pooled = AutoLock(AutoLockConfig(**base, async_mode=False)).run(
            circuit, evaluator=pool
        )
    assert pooled.evolved_accuracy == serial.evolved_accuracy
    assert pooled.baseline_accuracy == serial.baseline_accuracy
    assert pooled.ga.best_genotype == serial.ga.best_genotype
    assert pooled.ga.hall_of_fame == serial.ga.hall_of_fame
    assert pooled.fitness_evaluations == serial.fitness_evaluations


#: a sync AutoLock spec over the mixed alphabet, small enough for three
#: pool start-ups.
MIXED_AUTOLOCK = ExperimentSpec(
    circuit="rand_150_5", key_length=6, engine="autolock",
    attack="muxlink", attack_params={"predictor": "bayes"},
    alphabet=("mux", "xor", "and_or"), async_mode=False, seed=5,
    engine_params={
        "population_size": 4, "generations": 2,
        "report_predictor": "bayes", "report_ensemble": 1,
    },
)


@pytest.fixture(scope="module")
def mixed_autolock_serial_record():
    return run_experiment(MIXED_AUTOLOCK).deterministic_record()


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_pool_record_independent_of_start_method(
    monkeypatch, mixed_autolock_serial_record, method
):
    """The pool takes the platform's start method (Python 3.14 moves
    Linux from fork to forkserver); a 2-worker run gives the serial
    record under each."""
    monkeypatch.setattr(
        evaluator_module, "ProcessPoolExecutor",
        functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
        ),
    )
    pooled = run_experiment(MIXED_AUTOLOCK.with_updates(workers=2))
    assert pooled.deterministic_record() == mixed_autolock_serial_record


# ------------------------------------------ futures over the shared pool
def test_async_result_returns_after_the_merge(circuit):
    """Once ``result()`` returns, the value is cached and counted — even
    when the merge (a slow cache write) outlasts the pool task."""
    fitness = CountingFitness(SlowPutCache())
    genomes = [random_genotype(circuit, 4, seed_or_rng=s) for s in range(3)]
    with AsyncEvaluator(workers=2) as evaluator:
        for n, genes in enumerate(genomes, start=1):
            value = evaluator.submit(genes, fitness).result()
            assert fitness.cache.store[genotype_key(genes)] == value
            assert fitness.evaluations == n


# ------------------------------------- AutoLock report on the shared pool
#: GA history ``(generation, best, mean, std, cache_hits, cache_misses)``
#: of the config below, captured while the report stage still ran serially
#: in the parent: running it on the GA's pool must not move any of it.
REPORT_RUN_HISTORY = {
    True: [
        (0, 1 / 3, 0.6041666666666666, 0.17052818274734272, 2, 5),
        (1, 1 / 3, 1 / 3, 0.0, 2, 2),
        (2, 1 / 3, 1 / 3, 0.0, 0, 1),
    ],
    False: [
        (0, 1 / 3, 0.6041666666666666, 0.17052818274734272, 0, 4),
        (1, 1 / 3, 0.45833333333333337, 0.09316949906249125, 2, 2),
        (2, 1 / 3, 0.35416666666666663, 0.03608439182435163, 3, 1),
    ],
}


@pytest.mark.parametrize("async_mode", [True, False], ids=["async", "sync"])
def test_autolock_report_on_the_pool_matches_a_serial_report(
    circuit, async_mode
):
    config = AutoLockConfig(
        key_length=6,
        population_size=4,
        generations=3,
        fitness_predictor="bayes",
        report_predictor="bayes",
        report_ensemble=1,
        seed=3,
        async_mode=async_mode,
    )
    with AsyncEvaluator(workers=2) as pool:
        result = AutoLock(config).run(circuit, evaluator=pool)

    # The same genotypes, scored by a fresh report oracle in-process.
    seeds = spawn_seeds(derive_rng(config.seed), 3)
    initial = [
        random_genotype(circuit, config.key_length, seed)
        for seed in spawn_seeds(derive_rng(seeds[0]), config.population_size)
    ]
    report = SpecFitness(
        circuit, "muxlink", {"predictor": "bayes", "ensemble": 1},
        attack_seed=seeds[2],
    )
    assert result.baseline_population_accuracies == [report(g) for g in initial]
    assert result.evolved_accuracy == report(result.ga.best_genotype)
    assert result.report_evaluations == report.evaluations
    assert result.report_cache_hits == report.cache.hits == 1
    assert [
        (s.generation, s.best, s.mean, s.std, s.cache_hits, s.cache_misses)
        for s in result.ga.history
    ] == REPORT_RUN_HISTORY[async_mode]
