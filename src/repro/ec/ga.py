"""Single-objective GA: a policy bundle over :mod:`repro.ec.loop`.

The engine is scheme-agnostic: it evolves heterogeneous lists of
primitive genes (the configured alphabet) against any
scalar fitness (minimised). Configuration selects the operator variants
registered in :mod:`repro.ec.operators`, which is what the ablation
experiment (E7) sweeps.

Two execution modes, both driven by the shared
:class:`~repro.ec.loop.SearchLoop`:

* **sync generational** (``async_mode=False``, the default on any
  evaluator) — byte-identical to the historical hand-rolled loop:
  evaluate the whole population, keep ``elitism`` champions, breed the
  rest, repeat;
* **async steady-state** (``async_mode=True``, on any evaluator) — keep
  a worker pool saturated
  by breeding one replacement per completed evaluation, integrating
  completions in submission order so the trajectory is deterministic at
  any worker count. Survival is replace-worst; history entries summarise
  the steady population every ``population_size`` completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.ec.evaluator import BatchStats, Evaluator
from repro.ec.genotype import random_genotype, repair_genotype
from repro.ec.loop import (
    CrossoverMutation,
    ElitistGenerational,
    LoopPolicy,
    LoopState,
    OperatorSelection,
    SearchLoop,
    check_async_backlog,
    update_hall,
)
from repro.ec.operators import (
    CROSSOVERS,
    MUTATIONS,
    SELECTIONS,
    MutationConfig,
)
from repro.errors import EvolutionError
from repro.locking.primitives import DEFAULT_ALPHABET, resolve_alphabet
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng

Genotype = list  # heterogeneous primitive genes (repro.locking.primitives)


@dataclass(frozen=True)
class GaConfig:
    """GA hyper-parameters (paper defaults are deliberately untuned).

    ``async_mode`` selects the loop mode: ``False`` (default) runs the
    historical sync-generational loop on any evaluator, ``True`` the
    steady-state pipeline on any evaluator; the evaluator never picks
    the mode. ``async_backlog`` bounds in-flight
    evaluations in steady-state mode (default: ``population_size``);
    raising it trades parent freshness for saturation under strongly
    skewed attack costs. The string ``"auto"`` sizes the backlog at run
    time from observed evaluation latencies (see
    :class:`~repro.ec.loop.BacklogTuner`) — the trajectory then depends
    on machine timing, so it is opt-in.

    ``alphabet`` names the locking primitives the genotype may compose
    (``repro.registry.PRIMITIVES``); the default ``("mux",)`` reproduces
    the paper's pure D-MUX search space bit-for-bit.
    """

    key_length: int = 32
    population_size: int = 12
    generations: int = 15
    selection: str = "tournament"
    tournament_size: int = 3
    crossover: str = "one_point"
    crossover_rate: float = 0.9
    mutation: str | MutationConfig = "default"
    elitism: int = 2
    target_fitness: float | None = None
    patience: int | None = None
    seed: int = 0
    async_mode: bool = False
    async_backlog: int | str | None = None
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", resolve_alphabet(self.alphabet))
        if self.population_size < 2:
            raise EvolutionError("population_size must be >= 2")
        if self.generations < 1:
            raise EvolutionError("generations must be >= 1")
        if self.elitism >= self.population_size:
            raise EvolutionError("elitism must be smaller than the population")
        if self.selection not in SELECTIONS:
            raise EvolutionError(
                f"unknown selection {self.selection!r}; options {sorted(SELECTIONS)}"
            )
        if self.crossover not in CROSSOVERS:
            raise EvolutionError(
                f"unknown crossover {self.crossover!r}; options {sorted(CROSSOVERS)}"
            )
        if isinstance(self.mutation, str) and self.mutation not in MUTATIONS:
            raise EvolutionError(
                f"unknown mutation {self.mutation!r}; options {sorted(MUTATIONS)}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise EvolutionError("crossover_rate must be in [0, 1]")
        check_async_backlog(self.async_backlog)

    @property
    def mutation_config(self) -> MutationConfig:
        if isinstance(self.mutation, MutationConfig):
            return self.mutation
        return MUTATIONS[self.mutation]


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation fitness summary.

    ``cache_hits`` / ``cache_misses`` / ``eval_wall_s`` come from the
    population evaluator and let convergence benchmarks report effective
    throughput (fresh attack evaluations per second vs memoised answers).
    In steady-state mode one entry summarises the current population
    after each window of ``population_size`` completed evaluations.
    """

    generation: int
    best: float
    mean: float
    std: float
    elapsed_s: float
    cache_hits: int = 0
    cache_misses: int = 0
    eval_wall_s: float = 0.0

    @property
    def throughput(self) -> float:
        """Fresh evaluations per second of evaluator wall time."""
        if self.eval_wall_s <= 0.0:
            return 0.0
        return self.cache_misses / self.eval_wall_s


@dataclass
class GaResult:
    """Outcome of a GA run."""

    best_genotype: Genotype
    best_fitness: float
    history: list[GenerationStats] = field(default_factory=list)
    hall_of_fame: list[tuple[float, Genotype]] = field(default_factory=list)
    evaluations: int = 0
    stopped_early: bool = False

    @property
    def initial_best(self) -> float:
        return self.history[0].best if self.history else float("nan")


class GaPolicy(LoopPolicy):
    """The GA as selection/variation/survival strategies plus bookkeeping.

    Sync mode reproduces the legacy generational loop exactly (same RNG
    order, same history/hall accounting); async mode runs replace-worst
    steady state with windowed history entries.
    """

    def __init__(
        self,
        config: GaConfig,
        original: Netlist,
        initial_population: list[Genotype] | None = None,
    ) -> None:
        cfg = config
        self.config = cfg
        self.original = original
        self.initial_population = initial_population
        self.selection = OperatorSelection(cfg.selection, cfg.tournament_size)
        self.variation = CrossoverMutation(
            original, CROSSOVERS[cfg.crossover], cfg.crossover_rate,
            cfg.mutation_config, alphabet=cfg.alphabet,
        )
        self.survival = ElitistGenerational(cfg.elitism, cfg.population_size)
        self.generations = cfg.generations
        self.population_size = cfg.population_size
        self.offspring_count = cfg.population_size - cfg.elitism
        self.survival_needs_offspring_values = False
        self.max_evaluations = cfg.generations * cfg.population_size
        # bookkeeping shared by both modes
        self.history: list[GenerationStats] = []
        self.hall: list[tuple[float, Genotype]] = []
        self.best_so_far = float("inf")
        self.stale_generations = 0
        # async state
        self.async_population: list[Genotype] = []
        self.async_values: list[float] = []
        self._target_hit = False
        self._window_improved = False
        self._window_totals = BatchStats()
        self._window_elapsed = 0.0

    @property
    def async_backlog(self) -> int | str:
        if self.config.async_backlog is not None:
            return self.config.async_backlog
        return self.population_size

    # -- lifecycle ------------------------------------------------------
    def initialize(self, rng) -> list[Genotype]:
        cfg = self.config
        population: list[Genotype] = []
        if self.initial_population:
            for genes in self.initial_population[: cfg.population_size]:
                if len(genes) != cfg.key_length:
                    raise EvolutionError(
                        f"initial genotype has {len(genes)} genes, "
                        f"config wants {cfg.key_length}"
                    )
                population.append(repair_genotype(self.original, genes, rng))
        while len(population) < cfg.population_size:
            population.append(
                random_genotype(
                    self.original, cfg.key_length, rng, alphabet=cfg.alphabet
                )
            )
        return population

    def coerce(self, value) -> float:
        return float(value)

    # -- sync hooks -----------------------------------------------------
    def on_evaluated(self, gen, population, values, batch, elapsed_s) -> None:
        order = np.argsort(values)
        gen_best = values[int(order[0])]
        self.history.append(
            GenerationStats(
                generation=gen,
                best=gen_best,
                mean=float(np.mean(values)),
                std=float(np.std(values)),
                elapsed_s=elapsed_s,
                cache_hits=batch.cache_hits,
                cache_misses=batch.dispatched,
                eval_wall_s=batch.wall_s,
            )
        )
        update_hall(self.hall, population, values)
        if gen_best < self.best_so_far - 1e-12:
            self.best_so_far = gen_best
            self.stale_generations = 0
        else:
            self.stale_generations += 1

    def should_stop(self, gen, population, values, n_evals):
        cfg = self.config
        gen_best = self.history[-1].best
        if cfg.target_fitness is not None and gen_best <= cfg.target_fitness:
            return True, True
        if cfg.patience is not None and self.stale_generations > cfg.patience:
            return True, True
        if gen >= cfg.generations - 1:
            return True, False
        return False, False

    # -- async hooks ----------------------------------------------------
    def integrate_async(
        self, genes, value, completed, rng, elapsed_s, totals
    ) -> None:
        cfg = self.config
        self.async_population, self.async_values = self.survival.integrate(
            self.async_population, self.async_values, list(genes), value, rng
        )
        update_hall(self.hall, [genes], [value])
        if value < self.best_so_far - 1e-12:
            self.best_so_far = value
            self._window_improved = True
        if cfg.target_fitness is not None and value <= cfg.target_fitness:
            self._target_hit = True
        if completed % cfg.population_size == 0:
            window = completed // cfg.population_size - 1
            delta = totals.since(self._window_totals)
            self.history.append(
                GenerationStats(
                    generation=window,
                    best=min(self.async_values),
                    mean=float(np.mean(self.async_values)),
                    std=float(np.std(self.async_values)),
                    elapsed_s=elapsed_s,
                    cache_hits=delta.cache_hits,
                    cache_misses=delta.dispatched,
                    eval_wall_s=elapsed_s - self._window_elapsed,
                )
            )
            self._window_totals = totals
            self._window_elapsed = elapsed_s
            if not self._window_improved:
                self.stale_generations += 1
            else:
                self.stale_generations = 0
            self._window_improved = False

    def async_should_stop(self, completed) -> bool:
        cfg = self.config
        if self._target_hit:
            return True
        return (
            cfg.patience is not None
            and self.stale_generations > cfg.patience
        )

    # -- result ---------------------------------------------------------
    def result(self, state: LoopState) -> GaResult:
        best_fit, best_geno = min(self.hall, key=lambda t: t[0])
        return GaResult(
            best_genotype=list(best_geno),
            best_fitness=best_fit,
            history=self.history,
            hall_of_fame=self.hall,
            evaluations=state.evaluations,
            stopped_early=state.stopped_early,
        )


class GeneticAlgorithm:
    """Generational GA over MUX-locking genotypes (fitness minimised)."""

    def __init__(self, config: GaConfig) -> None:
        self.config = config

    def run(
        self,
        original: Netlist,
        fitness: Callable[[Sequence], float],
        initial_population: list[Genotype] | None = None,
        evaluator: Evaluator | None = None,
    ) -> GaResult:
        """Evolve lockings of ``original`` against ``fitness``.

        ``initial_population`` overrides random initialisation (used by
        tests and by warm-started experiments); its genotypes are
        repaired, and the population is padded/truncated to size.

        ``evaluator`` runs the fitness evaluation: by default an
        in-process :class:`~repro.ec.evaluator.SerialEvaluator`, while the
        pool evaluator :class:`~repro.ec.evaluator.AsyncEvaluator` fans the
        work out across worker processes (:func:`~repro.ec.evaluator.open_evaluator`
        picks between the two). Either serves both values of
        ``config.async_mode`` and walks the same trajectory. The caller
        owns the evaluator's lifetime (close any pool you pass in).
        """
        cfg = self.config
        rng = derive_rng(cfg.seed)
        policy = GaPolicy(cfg, original, initial_population)
        loop = SearchLoop(policy, evaluator, async_mode=cfg.async_mode)
        state = loop.run(fitness, rng)
        return policy.result(state)
