"""Batched population evaluation: the GA/NSGA-II hot path.

Every generation the evolutionary engines need fitness values for a whole
population at once, and each fresh value costs a full netlist locking plus
an ML attack run. This module turns that per-genome loop into a batch
pipeline:

1. canonicalise each genotype to its cache key,
2. dedupe repeated genotypes within the batch (crossover routinely clones
   parents, elitism re-submits champions),
3. answer what it can from the fitness function's :class:`FitnessCache`
   (optionally persistent across runs),
4. fan the remaining misses out — serially, or across worker processes —
   running only ``fitness.score``, and hand each value to
   ``fitness.record`` in the dispatching process, which counts and
   caches it (:class:`~repro.ec.fitness.CachedFitness`; the serial
   evaluator calls any other callable as is and never memoises it, and
   the pool refuses a fitness it cannot pickle).

Every evaluator is *observationally identical* to a per-genome loop:
fitness functions are deterministic per genotype (fixed attack seed), so
dispatch order and process boundaries cannot change any value, and each
lookup is counted once, as the serial loop would count it.
``tests/test_ec_evaluator.py`` locks this down with byte-for-byte result
equivalence on fixed seeds.

:class:`Evaluator` writes the batch :meth:`~Evaluator.evaluate` and the
futures :meth:`~Evaluator.submit` once, over a subclass's ``_dispatch``,
so every evaluator serves both loop modes and the mode never picks the
evaluator. :func:`open_evaluator` is the one rule that picks the
in-process :class:`SerialEvaluator` or the pool's :class:`AsyncEvaluator`.
Only the owners of a run call it — ``run_experiment``, ``run_sweep``
and the distributed :class:`~repro.dist.worker.Worker`; engines,
AutoLock and co-evolution use the evaluator they are handed.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.ec.fitness import CachedFitness
from repro.ec.genotype import genotype_key
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

Genotype = list  # heterogeneous primitive genes (repro.locking.primitives)
Fitness = Callable[[Sequence], "float | tuple[float, ...]"]

_BATCH_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_eval_batch_seconds",
    "Wall time of one population evaluation batch",
    labels=("evaluator",),
)
_SUBMIT_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_eval_submit_seconds",
    "Dispatch-to-complete latency of fresh pool evaluations",
)
_DISPATCHED = obs_metrics.METRICS.counter(
    "autolock_eval_dispatched_total",
    "Fresh attack evaluations actually dispatched",
    labels=("evaluator",),
)
_DEDUPED = obs_metrics.METRICS.counter(
    "autolock_eval_deduped_total",
    "Evaluations answered by in-batch or in-flight dedupe",
    labels=("evaluator",),
)


@dataclass(frozen=True)
class BatchStats:
    """Accounting for one population evaluation."""

    size: int = 0          #: genomes submitted
    cache_hits: int = 0    #: answers served by the fitness cache
    dispatched: int = 0    #: fresh attack evaluations actually run
    wall_s: float = 0.0    #: wall-clock spent in this batch

    def merged(self, other: "BatchStats") -> "BatchStats":
        return BatchStats(
            size=self.size + other.size,
            cache_hits=self.cache_hits + other.cache_hits,
            dispatched=self.dispatched + other.dispatched,
            wall_s=self.wall_s + other.wall_s,
        )

    def since(self, baseline: "BatchStats") -> "BatchStats":
        """Accounting accumulated after ``baseline`` was snapshot."""
        return BatchStats(
            size=self.size - baseline.size,
            cache_hits=self.cache_hits - baseline.cache_hits,
            dispatched=self.dispatched - baseline.dispatched,
            wall_s=self.wall_s - baseline.wall_s,
        )


class Evaluator:
    """Evaluates genotypes against a fitness function, in both loop modes.

    :meth:`evaluate` (a whole population, the generational loop's
    barrier) and :meth:`submit` (one genotype, a future at once, what
    the steady-state :class:`~repro.ec.loop.SearchLoop` drives) are
    written once, here, over the subclass's :meth:`_dispatch`, so every
    evaluator serves both loop modes. Evaluators are context managers;
    callers that create one own its :meth:`close`.
    """

    #: the ``evaluator`` label of this class's metrics.
    label = ""

    def __init__(self) -> None:
        self.total = BatchStats()

    def submit(self, genes: Genotype, fitness: Fitness) -> Future:
        """Schedule one genotype; returns a future with its fitness value."""
        started = time.perf_counter()
        future, outcome = self._dispatch(
            genotype_key(genes), genes, fitness, flush=True
        )
        fresh = outcome == "fresh"
        if fresh:
            _DISPATCHED.inc(evaluator=self.label)
        elif outcome == "shared":
            _DEDUPED.inc(evaluator=self.label)
        self._record(BatchStats(
            size=1, cache_hits=int(not fresh), dispatched=int(fresh),
            wall_s=time.perf_counter() - started,
        ))
        return future

    def evaluate(
        self, population: Sequence[Genotype], fitness: Fitness
    ) -> tuple[list, BatchStats]:
        """Return fitness values in population order plus batch stats.

        Each distinct genotype is dispatched once; repeats are answered
        from the first one's value.
        """
        started = time.perf_counter()
        cache = fitness.cache if isinstance(fitness, CachedFitness) else None
        hits0 = getattr(cache, "hits", 0)

        keys = [genotype_key(g) for g in population]
        futures: dict[tuple, Future] = {}
        duplicates: list[tuple] = []
        dispatched = shared = 0
        for key, genes in zip(keys, population):
            if key in futures:
                duplicates.append(key)
                continue
            futures[key], outcome = self._dispatch(
                key, genes, fitness, flush=False
            )
            dispatched += outcome == "fresh"
            shared += outcome == "shared"

        # Wait for every sibling before raising the first failure: the
        # ones that completed cost a full attack run each and have merged
        # into the cache, so the single flush below persists them. A
        # broken pool sets one exception instance on all its futures, and
        # each read re-raises it onto its own traceback: keep the first's.
        results: dict[tuple, object] = {}
        failure: tuple | None = None
        for key, future in futures.items():
            try:
                results[key] = future.result()
            except Exception as exc:  # raised below, after the flush
                if failure is None:
                    failure = exc, exc.__traceback__
        try:
            if cache is not None:
                cache.flush()
        finally:
            if failure is not None:
                raise failure[0].with_traceback(failure[1])

        # Replay duplicate lookups so hit/miss counters match a
        # per-genome loop, where every repeat lands in the warm cache.
        if cache is not None:
            for key in duplicates:
                cache.get(key)

        stats = BatchStats(
            size=len(population),
            cache_hits=getattr(cache, "hits", 0) - hits0,
            dispatched=dispatched,
            wall_s=time.perf_counter() - started,
        )
        _BATCH_SECONDS.observe(stats.wall_s, evaluator=self.label)
        if dispatched:
            _DISPATCHED.inc(dispatched, evaluator=self.label)
        if duplicates or shared:
            _DEDUPED.inc(len(duplicates) + shared, evaluator=self.label)
        return [results[key] for key in keys], self._record(stats)

    def _dispatch(
        self, key: tuple, genes: Genotype, fitness: Fitness, flush: bool
    ) -> tuple[Future, str]:
        """Route one genotype; returns its future and how it was answered.

        The outcome is ``"hit"`` (fitness cache), ``"shared"`` (coalesced
        onto an in-flight duplicate) or ``"fresh"`` (the fitness scored
        it). Each dispatch counts one cache lookup, as a per-genome loop
        would; evaluator accounting is the caller's. ``flush`` asks for a
        fresh value to be written through to the cache's store at once.
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release worker resources (no-op for serial)."""

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _record(self, stats: BatchStats) -> BatchStats:
        self.total = self.total.merged(stats)
        return stats


class SerialEvaluator(Evaluator):
    """In-order, in-process evaluation.

    Each dispatch calls ``fitness`` right away (a
    :class:`~repro.ec.fitness.CachedFitness` looks up, or scores and
    records the value, written through) and hands back a finished
    future, so a search walks the same trajectory as on the pool. A
    fitness error propagates from the dispatching call.
    """

    label = "serial"

    def _dispatch(
        self, key: tuple, genes: Genotype, fitness: Fitness, flush: bool
    ) -> tuple[Future, str]:
        cache = fitness.cache if isinstance(fitness, CachedFitness) else None
        hits = getattr(cache, "hits", 0)
        with obs_trace.span("eval.candidate"):
            value = fitness(genes)
        hit = getattr(cache, "hits", 0) > hits
        return _done(value), "hit" if hit else "fresh"


# -- worker-process plumbing -----------------------------------------------
#: per-worker-process ``epoch -> fitness`` snapshots, oldest first. Tasks
#: carry the epoch + blob path; a worker loads a blob only for an epoch it
#: does not hold. Two slots fit the two fitness functions an AutoLock run
#: keeps live (GA and report); a sweep's later ones evict the oldest.
_WORKER_FITNESSES: dict[int, Fitness] = {}
_WORKER_SLOTS = 2


def _eval_epoch(task: "tuple[int, str, Genotype]"):
    epoch, blob_path, genes = task
    fitness = _WORKER_FITNESSES.get(epoch)
    if fitness is None:
        with open(blob_path, "rb") as fh:
            fitness = pickle.load(fh)
        if len(_WORKER_FITNESSES) >= _WORKER_SLOTS:
            del _WORKER_FITNESSES[next(iter(_WORKER_FITNESSES))]
        _WORKER_FITNESSES[epoch] = fitness
    # The dispatcher looked the genotype up and records the value.
    if isinstance(fitness, CachedFitness):
        return fitness.score(genes)
    return fitness(genes)


def _release_blob(staged: dict, key: int, path: str) -> None:
    """Finalizer of a staged fitness: forget its entry, unlink its blob.

    No task names the blob by then: each in-flight task's merge callback
    holds the fitness alive. It may run on any thread, before the id can
    be reused.
    """
    staged.pop(key, None)
    with contextlib.suppress(OSError):
        os.unlink(path)


class _TaskFuture(Future):
    """Dispatcher-side future of one pool task.

    The pool task's done-callback finishes the dispatcher's bookkeeping
    (cache merge, counters) and only then calls :meth:`resolve`, so a
    caller whose ``result()`` returns always sees the value merged and
    counted. CPython wakes ``result()`` waiters *before* it runs
    done-callbacks, which is why the pool's own future cannot be handed
    out. :meth:`cancel` reaches the pool task, but a task the pool has
    already handed to a worker may still run; its value then merges
    into the cache as usual.
    """

    def __init__(self, task: Future) -> None:
        super().__init__()
        self._task = task

    def cancel(self) -> bool:
        # A cancelled task runs its done-callback right here, which
        # resolves this future as cancelled too.
        return self._task.cancel()

    def resolve(self) -> None:
        """Take on the finished pool task's outcome."""
        task = self._task
        if task.cancelled():
            Future.cancel(self)
        elif task.exception() is not None:
            self.set_exception(task.exception())
        else:
            self.set_result(task.result())


def _done(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


class AsyncEvaluator(Evaluator):
    """Deduped, cache-fronted fan-out across keep-alive worker processes.

    Its :meth:`_dispatch` coalesces an in-flight duplicate of the same
    genotype onto its future (counting the hit the serial loop's warm
    cache would give), answers a cache hit with a finished future, and
    otherwise ships the genotype to the pool, whose worker runs only
    ``fitness.score``. So :meth:`~Evaluator.submit` returns while the
    pool works: the steady-state loop keeps breeding, keeping every
    worker busy even when per-candidate attack costs are wildly skewed,
    and AutoLock's report attacks queue up alongside its GA. A
    done-callback hands each value to ``fitness.record`` before the
    in-flight entry goes away and before the returned future resolves,
    so once ``result()`` returns the value is cached and counted.
    ``submit`` records write-through — each value costs a full attack
    run, so it lands on disk the moment it exists, even if the driving
    loop has already stopped — while ``evaluate`` records in memory and
    flushes once per batch.

    Each fitness object is pickled once, the first time it is
    dispatched, into its own blob file under a private temp directory,
    under its own *epoch*. It keeps that epoch and blob while it is
    alive, so dispatches that interleave fitness functions (an AutoLock
    run's report attacks queued alongside its GA) never re-ship a blob;
    the blob is unlinked when the fitness is released, or at
    :meth:`close`. Tasks carry ``(epoch, blob_path, genes)``, and each
    worker keeps the two most recently loaded epochs, loading a blob
    only for an epoch it does not hold. The worker processes stay alive
    across fitness changes, so a sweep that runs many specs through one
    shared evaluator pays process startup once, not once per spec.
    Workers never read a snapshot's cache or counters: they only score.

    Cancelling a returned future stops its pool task only while the pool
    holds it: ``ProcessPoolExecutor`` hands a few tasks ahead to its
    workers, and such a task may still run, its value merging into the
    cache as usual. :meth:`cancel_pending` cancels every dispatch and
    counts the ones it stopped. :meth:`close` cancels, then shuts the
    pool down. A fitness the pool cannot pickle (a lambda, a closure)
    raises :class:`TypeError` at its first dispatch, before it is ever
    called; run such a callable on a :class:`SerialEvaluator`.
    """

    label = "pool"

    def __init__(self, workers: int) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._epoch = 0
        self._blob_dir: str | None = None
        #: id(fitness) -> (weakref to it, its epoch, its blob path), for
        #: every staged fitness still alive.
        self._staged: dict[int, tuple[Callable, int, str]] = {}
        #: (epoch, genotype key) -> in-flight future; epoch-scoped so a
        #: straggler from one fitness can never answer for the next one.
        self._inflight: dict[tuple, Future] = {}
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _dispatch(
        self, key: tuple, genes: Genotype, fitness: Fitness, flush: bool
    ) -> tuple[Future, str]:
        """:meth:`Evaluator._dispatch` over the pool: a ``"fresh"``
        outcome is a pool task, and ``flush`` is the merge's
        write-through flag."""
        started = time.perf_counter()
        epoch, blob_path = self._stage_fitness(fitness)
        inflight_key = (epoch, key)
        memo = isinstance(fitness, CachedFitness)
        with self._inflight_lock:
            shared = self._inflight.get(inflight_key)
        if shared is not None:
            # An identical genotype is already being evaluated: share its
            # future instead of paying a second attack run. The serial
            # loop would have found it in the warm cache.
            if memo:
                fitness.cache.count_lookup(hit=True)
            return shared, "shared"
        cached = fitness.cache.get(key) if memo else None
        if cached is not None:
            return _done(cached), "hit"

        pool = self._ensure_pool()
        task = pool.submit(_eval_epoch, (epoch, blob_path, genes))
        future = _TaskFuture(task)
        with self._inflight_lock:
            self._inflight[inflight_key] = future

        def _merge(task: Future) -> None:
            try:
                if task.cancelled() or task.exception() is not None:
                    return
                value = task.result()
                # Worker processes keep their own registries, so the
                # dispatcher is where per-evaluation latency is seen.
                _SUBMIT_SECONDS.observe(time.perf_counter() - started)
                if memo:
                    # Recorded *before* the in-flight entry goes away, so
                    # a concurrent duplicate dispatch always finds the
                    # value in one of the two places (put() only touches
                    # disk when the cache has a path and ``flush`` is set).
                    with contextlib.suppress(Exception):
                        fitness.record(key, value, flush=flush)
            finally:
                with self._inflight_lock:
                    if self._inflight.get(inflight_key) is future:
                        del self._inflight[inflight_key]
                future.resolve()

        task.add_done_callback(_merge)
        return future, "fresh"

    def _stage_fitness(self, fitness: Fitness) -> tuple[int, str]:
        """``fitness``'s ``(epoch, blob path)``, pickling it on first use."""
        entry = self._staged.get(id(fitness))
        if entry is not None and entry[0]() is fitness:
            return entry[1], entry[2]
        try:
            blob = pickle.dumps(fitness)
        except Exception as exc:
            raise TypeError(
                f"the pool evaluator cannot pickle fitness {fitness!r} for "
                f"its worker processes ({type(exc).__name__}: {exc}); "
                "evaluate it on a SerialEvaluator instead"
            ) from exc
        # New fitness: a new epoch and blob; the live worker processes
        # load it on their first task for it instead of the whole
        # executor restarting per spec.
        if self._blob_dir is None:
            self._blob_dir = tempfile.mkdtemp(prefix="repro-eval-")
        self._epoch += 1
        path = os.path.join(self._blob_dir, f"fitness-{self._epoch}.pkl")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            ref = weakref.ref(fitness)
            weakref.finalize(
                fitness, _release_blob, self._staged, id(fitness), path
            )
        except TypeError:
            # Not weak-referenceable: hold it, and its blob, until close().
            ref = lambda: fitness  # noqa: E731
        self._staged[id(fitness)] = (ref, self._epoch, path)
        return self._epoch, path

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def cancel_pending(self) -> int:
        """Cancel every dispatch; returns how many were really stopped.

        A task already handed to a worker, like a running one, finishes:
        its value still merges into the fitness cache via the
        done-callback, so no paid-for attack run is ever discarded.
        """
        with self._inflight_lock:
            futures = list(self._inflight.values())
        return sum(1 for future in futures if future.cancel())

    def close(self) -> None:
        self.cancel_pending()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._staged.clear()
        if self._blob_dir is not None:
            shutil.rmtree(self._blob_dir, ignore_errors=True)
            self._blob_dir = None


def open_evaluator(
    workers: int,
    *,
    search: bool = True,
    shared: AsyncEvaluator | None = None,
) -> Evaluator:
    """The evaluator a run needs: the one serial-vs-pool rule.

    A run gets the pool evaluator iff it runs a search with
    ``workers >= 2``; anything else gets a :class:`SerialEvaluator`,
    whatever its loop mode, and so does a run with no search loop
    (``search=False``: a static sweep point evaluates no populations).
    ``shared`` is the caller's open pool: it is returned when it has
    enough workers, and otherwise closed and replaced by a bigger one —
    results are worker-count independent, so resizing mid-sweep is
    safe. The caller owns what comes back.
    """
    if not search or workers < 2:
        return SerialEvaluator()
    if shared is not None:
        if shared.workers >= workers:
            return shared
        shared.close()
    return AsyncEvaluator(workers)

