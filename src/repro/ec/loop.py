"""The unified search loop: one steady-state pipeline under every engine.

Historically each engine — the GA, NSGA-II, the single-trajectory
baselines, and the AutoLock outer pipeline — carried its own hand-rolled
generation loop. This module extracts the one loop they all share and
makes the engines *policy bundles* over it:

* :class:`SelectionPolicy` — pick a parent index from the evaluated
  population (tournament/roulette/rank for the GA, Pareto binary
  tournament for NSGA-II);
* :class:`VariationPolicy` — turn two parents into offspring, split into
  a ``pair`` stage (crossover) and a per-child ``finish`` stage
  (mutation + repair) so the loop can stop breeding mid-pair without
  consuming RNG the legacy engines never drew;
* :class:`SurvivalPolicy` — decide who lives: elitist-generational
  replacement (GA) or Pareto environmental selection (NSGA-II). The
  trajectory searches apply their accept/reject rules as they integrate
  each completion in async mode.

The :class:`SearchLoop` drives a policy bundle in one of two modes:

**sync** (``async_mode=False``) reproduces the historical generational
loops *byte-identically*: same RNG consumption order, same evaluator
batches, same bookkeeping (``tests/test_ec_determinism.py`` and
``tests/test_ec_loop.py`` pin this against the golden trajectories).

**async** (``async_mode=True``) is the steady-state pipeline: the loop
keeps up to ``policy.async_backlog`` evaluations submitted to the
evaluator and breeds a replacement the moment any evaluation completes,
so a worker pool never idles at a generation barrier while one slow
attack run finishes. Sync mode drives the evaluator's ``evaluate`` and
async mode its ``submit``; every evaluator has both, so either mode runs
on a :class:`~repro.ec.evaluator.SerialEvaluator` (whose futures come
back finished) or on the pool. Completions are
**integrated in submission order** (FIFO), which makes the whole
trajectory a deterministic function of the seed — independent of worker
count, scheduling, and actual completion timing. That is what lets the
same spec fingerprint cover an async run at any parallelism: replaying
it serially reproduces the identical champion set.

Budget exhaustion (or early convergence) cancels the evaluations in
flight; one the pool already handed to a worker, like one running, still
runs and is harvested into the fitness cache, and a raised attack error
flushes dirty cache entries before propagating — a crash mid-run never loses paid-for evaluations.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.ec.evaluator import BatchStats, Evaluator, SerialEvaluator
from repro.ec.fitness import CachedFitness
from repro.ec.genotype import genotype_key, repair_genotype
from repro.ec.operators import SELECTIONS, MutationConfig, mutate
from repro.errors import EvolutionError
from repro.netlist.netlist import Netlist
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

_GENERATIONS = obs_metrics.METRICS.counter(
    "autolock_loop_generations_total", "Sync-loop generations completed"
)
_INTEGRATIONS = obs_metrics.METRICS.counter(
    "autolock_loop_integrations_total",
    "Async-loop completed evaluations integrated",
)
_BACKLOG = obs_metrics.METRICS.gauge(
    "autolock_loop_backlog", "Async-loop evaluations currently in flight"
)
_BACKLOG_TARGET = obs_metrics.METRICS.gauge(
    "autolock_loop_backlog_target",
    "Async-loop backlog bound currently in force (tuner decision)",
)

Genotype = list  # heterogeneous primitive genes (repro.locking.primitives)


# ---------------------------------------------------------------------------
# policy protocols
# ---------------------------------------------------------------------------
class SelectionPolicy(Protocol):
    """Picks one parent index from the evaluated population."""

    def select(self, values: Sequence, rng) -> int:
        """Index of the chosen parent (``values`` are minimised)."""
        ...  # pragma: no cover - protocol


class VariationPolicy(Protocol):
    """Turns two parents into offspring, in two stages.

    ``pair`` performs recombination (or cloning) of both children at
    once; ``finish`` applies the per-child operators (mutation, repair).
    The split lets the loop drop an unneeded second child *before* its
    mutation draws RNG — exactly what the legacy breeding loops did, and
    a requirement for byte-identical sync trajectories.
    """

    def pair(self, pa: Genotype, pb: Genotype, rng) -> tuple[Genotype, Genotype]:
        ...  # pragma: no cover - protocol

    def finish(self, child: Genotype, rng) -> Genotype:
        ...  # pragma: no cover - protocol


class SurvivalPolicy(Protocol):
    """Decides which individuals form the next population state.

    ``survive`` is the generational rule (sync mode): combine the parent
    population with a full offspring batch. Returning ``values=None``
    asks the loop to (re-)evaluate the whole new population next round —
    the GA's historical semantics, where elites flow through the fitness
    cache again. ``integrate`` is the steady-state rule (async mode):
    fold exactly one evaluated newcomer into the current population.
    """

    def survive(self, population, values, offspring, off_values, rng):
        ...  # pragma: no cover - protocol

    def integrate(self, population, values, genes, value, rng):
        ...  # pragma: no cover - protocol


# ---------------------------------------------------------------------------
# generic policy implementations
# ---------------------------------------------------------------------------
@dataclass
class OperatorSelection:
    """GA selection via the registered operator variants.

    Wraps :data:`repro.ec.operators.SELECTIONS` (tournament / roulette /
    rank); ``tournament_size`` only applies to tournament selection, and
    the RNG call pattern is identical to the legacy GA loop's inline
    dispatch.
    """

    name: str
    tournament_size: int = 3

    def select(self, values, rng) -> int:
        fn = SELECTIONS[self.name]
        if self.name == "tournament":
            return fn(values, rng, self.tournament_size)
        return fn(values, rng)


@dataclass
class CrossoverMutation:
    """Standard EC variation: rate-gated crossover, then mutate + repair.

    ``pair`` draws one uniform variate against ``crossover_rate`` and
    either recombines or clones the parents; ``finish`` mutates against
    the original netlist and repairs collisions — the exact operator
    order of the legacy GA/NSGA-II breeding loops. ``alphabet`` feeds
    the kind-aware mutation (a single-kind alphabet draws no extra RNG,
    keeping the golden trajectories intact).
    """

    original: Netlist
    crossover: object  # Callable[(a, b, rng)] -> (child_a, child_b)
    crossover_rate: float
    mutation: MutationConfig
    alphabet: tuple[str, ...] | None = None

    def pair(self, pa, pb, rng):
        if rng.random() < self.crossover_rate:
            return self.crossover(pa, pb, rng)
        return list(pa), list(pb)

    def finish(self, child, rng):
        child = mutate(
            self.original, child, self.mutation, rng, alphabet=self.alphabet
        )
        return repair_genotype(self.original, child, rng)


@dataclass
class ElitistGenerational:
    """GA survival: the ``elitism`` best parents plus the bred offspring.

    Generational mode returns ``values=None`` so the next round
    re-evaluates everyone (elites resolve as cache hits — the historical
    accounting). Steady-state mode appends the newcomer and evicts the
    current worst once the population exceeds ``mu`` (first-worst wins
    ties, so eviction is deterministic).
    """

    elitism: int
    mu: int

    def survive(self, population, values, offspring, off_values, rng):
        order = np.argsort(values)
        elites = [list(population[int(i)]) for i in order[: self.elitism]]
        return elites + offspring, None

    def integrate(self, population, values, genes, value, rng):
        population = population + [genes]
        values = values + [value]
        if len(values) > self.mu:
            worst = max(range(len(values)), key=values.__getitem__)
            population.pop(worst)
            values.pop(worst)
        return population, values


#: entries a GA hall of fame keeps (co-evolution draws its lock elites
#: from it, so it also bounds ``CoevoEngine``'s ``elite_size``).
HALL_SIZE = 5


def check_async_backlog(backlog: int | str | None) -> None:
    """Reject an ``async_backlog`` that is not ``None``, ``"auto"`` or >= 1."""
    if isinstance(backlog, str):
        if backlog != "auto":
            raise EvolutionError(
                f"async_backlog must be an int or 'auto', got {backlog!r}"
            )
    elif backlog is not None and backlog < 1:
        raise EvolutionError("async_backlog must be >= 1")


def update_hall(
    hall: list[tuple[float, Genotype]],
    population: Sequence[Genotype],
    values: Sequence[float],
) -> None:
    """Merge ``population`` into a deduplicated best-:data:`HALL_SIZE` hall."""
    for genes, fit in zip(population, values):
        hall.append((fit, list(genes)))
    seen: set[tuple] = set()
    unique: list[tuple[float, Genotype]] = []
    for fit, genes in sorted(hall, key=lambda t: t[0]):
        key = genotype_key(genes)
        if key not in seen:
            seen.add(key)
            unique.append((fit, genes))
    hall[:] = unique[:HALL_SIZE]


# ---------------------------------------------------------------------------
# the policy bundle driven by the loop
# ---------------------------------------------------------------------------
class LoopPolicy:
    """Everything engine-specific the :class:`SearchLoop` needs.

    Subclasses (one per engine, defined next to their engine) set the
    strategy objects and the knobs below, implement :meth:`initialize`,
    and override the hooks they need for bookkeeping (history, halls,
    trajectories). The base class provides the shared generational
    breeding scheme and sensible no-op hooks.

    Attributes
    ----------
    selection / variation / survival
        The three strategy objects (see the protocols above).
    generations
        Sync mode: how many loop rounds to run.
    population_size
        The steady population size μ.
    offspring_count
        Sync mode: offspring bred per generation (λ).
    survival_needs_offspring_values
        True when ``survival.survive`` consumes evaluated offspring
        (μ+λ engines like NSGA-II); False
        for the GA's replace-and-re-evaluate scheme.
    max_evaluations
        Async mode: total evaluation budget.
    async_backlog
        Async mode: maximum evaluations in flight. Deliberately a pure
        function of the configuration (never of the worker count), so
        the async trajectory is identical at any parallelism. The
        string ``"auto"`` instead sizes the backlog at run time from a
        :class:`BacklogTuner` over observed evaluation latencies —
        higher throughput under skewed attack costs, at the price of a
        timing-dependent (machine-specific) trajectory.
    sequential_breeding
        True for searches whose next candidate depends on the previous
        result (hill climbing, annealing): async mode then keeps exactly
        one evaluation in flight, preserving their semantics.
    """

    selection: SelectionPolicy
    variation: VariationPolicy
    survival: SurvivalPolicy

    generations: int = 0
    population_size: int = 1
    offspring_count: int = 1
    survival_needs_offspring_values: bool = False
    max_evaluations: int = 0
    sequential_breeding: bool = False

    @property
    def async_backlog(self) -> int | str:
        return self.population_size

    # -- lifecycle ------------------------------------------------------
    def initialize(self, rng) -> list[Genotype]:
        """The initial (unevaluated) population."""
        raise NotImplementedError

    def coerce(self, value):
        """Normalise one raw evaluator value (float / objective tuple)."""
        return value

    # -- sync hooks -----------------------------------------------------
    def on_evaluated(self, gen, population, values, batch, elapsed_s) -> None:
        """After a top-of-round population evaluation (GA stats live here)."""

    def should_stop(self, gen, population, values, n_evals):
        """(stop, stopped_early) checked once per round, post-evaluation."""
        return gen >= self.generations, False

    def breed(self, n, population, values, rng) -> list[Genotype]:
        """Breed ``n`` offspring; the shared generational scheme by default."""
        children: list[Genotype] = []
        while len(children) < n:
            pa = population[self.selection.select(values, rng)]
            pb = population[self.selection.select(values, rng)]
            child_a, child_b = self.variation.pair(pa, pb, rng)
            for child in (child_a, child_b):
                if len(children) >= n:
                    break
                children.append(self.variation.finish(child, rng))
        return children

    def on_generation(self, gen, population, values, batch, elapsed_s) -> None:
        """After survival produced the next population (NSGA-II stats)."""

    # -- async (steady-state) hooks -------------------------------------
    #: current steady-state population/values, owned by the policy.
    async_population: list[Genotype]
    async_values: list

    def integrate_async(
        self, genes, value, completed, rng, elapsed_s, totals: BatchStats
    ) -> None:
        """Fold one completed evaluation into the steady-state population."""
        raise NotImplementedError

    def breed_async(self, rng) -> Genotype:
        """One offspring bred from the current steady-state population."""
        population, values = self.async_population, self.async_values
        pa = population[self.selection.select(values, rng)]
        pb = population[self.selection.select(values, rng)]
        child_a, _ = self.variation.pair(pa, pb, rng)
        return self.variation.finish(child_a, rng)

    def async_should_stop(self, completed) -> bool:
        """Early-convergence check, once per integration."""
        return False


class BacklogTuner:
    """Adapts the async backlog to observed per-candidate latency.

    The steady-state pipeline keeps ``backlog`` evaluations in flight; a
    fixed value is either too small (workers idle whenever one slow
    attack run blocks the FIFO head) or wastefully large (offspring bred
    from stale parents). The tuner sizes it from the two numbers that
    matter: how long a typical evaluation takes (EWMA mean) and how long
    the occasional straggler takes (decaying peak) —

        ``target = clamp(ceil(workers * peak / mean), floor, ceiling)``

    i.e. enough slack that every worker stays busy for the duration of
    the worst straggler seen recently, and no more. ``observe`` is fed
    from future done-callbacks, so it is lock-guarded; cache hits never
    reach it (a memoised answer says nothing about attack latency).

    With uniform costs the target settles at ``workers + 1``; strongly
    skewed costs push it toward ``ceiling = 8 * workers``. Note an
    auto-tuned backlog reacts to *measured timing*, so unlike a fixed
    backlog the bred trajectory may vary across machines and runs —
    opt-in via ``async_backlog="auto"``, never the default.
    """

    def __init__(
        self,
        workers: int,
        *,
        alpha: float = 0.3,
        peak_decay: float = 0.95,
    ) -> None:
        self.workers = max(1, int(workers))
        self.floor = self.workers + 1
        self.ceiling = 8 * self.workers
        self.alpha = alpha
        self.peak_decay = peak_decay
        self._mean: float | None = None
        self._peak = 0.0
        self.observations = 0
        self._lock = threading.Lock()

    def observe(self, latency_s: float) -> None:
        """Record one completed evaluation's wall-clock latency."""
        latency_s = max(0.0, float(latency_s))
        with self._lock:
            self.observations += 1
            if self._mean is None:
                self._mean = latency_s
            else:
                self._mean += self.alpha * (latency_s - self._mean)
            self._peak = max(latency_s, self._peak * self.peak_decay)

    def target(self) -> int:
        """The current backlog size; ``floor`` until evidence arrives."""
        with self._lock:
            mean, peak = self._mean, self._peak
        if not mean or mean <= 0.0 or peak <= 0.0:
            return self.floor
        raw = math.ceil(self.workers * (peak / mean))
        return max(self.floor, min(self.ceiling, raw))


@dataclass
class LoopState:
    """What one :meth:`SearchLoop.run` produced (policy holds the rest)."""

    population: list[Genotype]
    values: list
    evaluations: int
    stopped_early: bool = False
    wall_s: float = 0.0


class SearchLoop:
    """Drives one :class:`LoopPolicy` to completion; see the module doc.

    The caller owns the evaluator's lifetime. ``async_mode`` is a plain
    bool; every evaluator serves both modes, so the mode never follows
    the evaluator and the evaluator never limits the mode.
    """

    def __init__(
        self,
        policy: LoopPolicy,
        evaluator: Evaluator | None = None,
        *,
        async_mode: bool = False,
    ) -> None:
        self.policy = policy
        self.evaluator = evaluator if evaluator is not None else SerialEvaluator()
        if not isinstance(async_mode, bool):
            raise EvolutionError(
                f"async_mode must be True or False, got {async_mode!r}"
            )
        self.async_mode = async_mode

    def run(self, fitness, rng) -> LoopState:
        try:
            with obs_trace.span("loop.run") as span:
                span.set(mode="async" if self.async_mode else "sync")
                if self.async_mode:
                    return self._run_async(fitness, rng)
                return self._run_sync(fitness, rng)
        finally:
            # A raised attack error (or an interrupt) must not lose the
            # evaluations already paid for: flush dirty cache entries
            # (best effort) before propagating. Harmless no-op on the
            # success path.
            if isinstance(fitness, CachedFitness):
                with contextlib.suppress(Exception):
                    fitness.cache.flush()

    # -- sync: the shared generational loop -----------------------------
    def _run_sync(self, fitness, rng) -> LoopState:
        policy = self.policy
        started = time.perf_counter()
        population = policy.initialize(rng)
        values: list | None = None
        n_evals = 0
        gen = 0
        stopped_early = False
        while True:
            if values is None:
                with obs_trace.span("loop.evaluate") as span:
                    span.set(gen=gen, n=len(population))
                    raw, batch = self.evaluator.evaluate(population, fitness)
                values = [policy.coerce(v) for v in raw]
                n_evals += len(population)
                policy.on_evaluated(
                    gen, population, values, batch,
                    time.perf_counter() - started,
                )
            stop, early = policy.should_stop(gen, population, values, n_evals)
            if stop:
                stopped_early = early
                break
            with obs_trace.span("loop.breed"):
                offspring = policy.breed(
                    policy.offspring_count, population, values, rng
                )
            off_values = None
            off_batch = None
            if policy.survival_needs_offspring_values:
                with obs_trace.span("loop.evaluate") as span:
                    span.set(gen=gen, n=len(offspring))
                    raw, off_batch = self.evaluator.evaluate(
                        offspring, fitness
                    )
                off_values = [policy.coerce(v) for v in raw]
                n_evals += len(offspring)
            population, values = policy.survival.survive(
                population, values, offspring, off_values, rng
            )
            policy.on_generation(
                gen, population, values, off_batch,
                time.perf_counter() - started,
            )
            gen += 1
            _GENERATIONS.inc()
        return LoopState(
            population=population,
            values=values if values is not None else [],
            evaluations=n_evals,
            stopped_early=stopped_early,
            wall_s=time.perf_counter() - started,
        )

    # -- async: the steady-state pipeline -------------------------------
    def _run_async(self, fitness, rng) -> LoopState:
        policy = self.policy
        evaluator = self.evaluator
        started = time.perf_counter()
        budget = policy.max_evaluations
        max_pending = policy.async_backlog
        tuner: BacklogTuner | None = None
        if policy.sequential_breeding:
            max_pending = 1
        elif max_pending == "auto":
            tuner = BacklogTuner(getattr(evaluator, "workers", 1))
            max_pending = tuner.floor
        max_pending = max(1, max_pending)

        def submit(genes):
            future = evaluator.submit(genes, fitness)
            if tuner is not None and not future.done():
                # Future lifetime ≈ queue wait + evaluation; cache hits
                # and deduped submissions come back already resolved and
                # carry no latency signal — skip them.
                t0 = time.perf_counter()
                future.add_done_callback(
                    lambda _f: tuner.observe(time.perf_counter() - t0)
                )
            return future

        # Shared evaluators (one pool per sweep/worker) carry accounting
        # from earlier runs; policies must only ever see this run's.
        totals_baseline = evaluator.total
        pending: deque = deque()
        for genes in policy.initialize(rng)[: max(1, budget)]:
            pending.append((genes, submit(genes)))
        submitted = len(pending)
        completed = 0
        stopped_early = False
        _BACKLOG.set(len(pending))
        _BACKLOG_TARGET.set(max_pending)
        try:
            while pending:
                genes, future = pending.popleft()
                value = policy.coerce(future.result())
                completed += 1
                _INTEGRATIONS.inc()
                policy.integrate_async(
                    genes, value, completed, rng,
                    time.perf_counter() - started,
                    evaluator.total.since(totals_baseline),
                )
                if policy.async_should_stop(completed):
                    stopped_early = True
                    break
                if tuner is not None:
                    max_pending = tuner.target()
                    _BACKLOG_TARGET.set(max_pending)
                while submitted < budget and len(pending) < max_pending:
                    child = policy.breed_async(rng)
                    pending.append((child, submit(child)))
                    submitted += 1
                _BACKLOG.set(len(pending))
        finally:
            # Budget exhaustion / convergence / error with work still in
            # flight: cancel it. Only this loop's own submissions — a
            # shared evaluator may be running other callers' work. A task
            # already handed to a worker may still run; it and the running
            # ones finish on their own and their results still land in the
            # fitness cache via the evaluator's merge callback.
            for _, future in pending:
                future.cancel()
        return LoopState(
            population=list(policy.async_population),
            values=list(policy.async_values),
            evaluations=completed,
            stopped_early=stopped_early,
            wall_s=time.perf_counter() - started,
        )
