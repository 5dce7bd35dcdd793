"""NSGA-II multi-objective engine (Deb et al., 2002).

Implements the research-plan extension of the paper: evolve lockings
against a *vector* of objectives (attack accuracies, overhead) and return
the Pareto front instead of a single champion. All objectives are
minimised.

The engine is a policy bundle over :class:`repro.ec.loop.SearchLoop`:
Pareto binary-tournament selection, the shared crossover+mutation
variation, and environmental (non-dominated sorting + crowding) survival.
Sync mode is byte-identical to the historical (μ+λ) loop; async mode
runs steady-state (μ+1) environmental selection, integrating completed
evaluations in submission order so results are worker-count independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.ec.evaluator import BatchStats, Evaluator
from repro.ec.genotype import genotype_key, random_genotype
from repro.ec.loop import (
    CrossoverMutation,
    LoopPolicy,
    LoopState,
    SearchLoop,
    check_async_backlog,
)
from repro.ec.operators import CROSSOVERS, MUTATIONS, MutationConfig
from repro.errors import EvolutionError
from repro.locking.primitives import DEFAULT_ALPHABET, resolve_alphabet
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng

Genotype = list  # heterogeneous primitive genes (repro.locking.primitives)
Objectives = tuple[float, ...]


def dominates(a: Objectives, b: Objectives) -> bool:
    """True if ``a`` Pareto-dominates ``b`` (minimisation)."""
    if len(a) != len(b):
        raise EvolutionError("objective vectors differ in length")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def fast_non_dominated_sort(objs: Sequence[Objectives]) -> list[list[int]]:
    """Partition indices into Pareto fronts (front 0 = non-dominated)."""
    n = len(objs)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: list[list[int]] = [[]]
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if dominates(objs[p], objs[q]):
                dominated_by[p].append(q)
            elif dominates(objs[q], objs[p]):
                domination_count[p] += 1
        if domination_count[p] == 0:
            fronts[0].append(p)
    i = 0
    while fronts[i]:
        nxt: list[int] = []
        for p in fronts[i]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    nxt.append(q)
        i += 1
        fronts.append(nxt)
    fronts.pop()  # trailing empty front
    return fronts


def crowding_distance(objs: Sequence[Objectives], front: list[int]) -> dict[int, float]:
    """Crowding distance of each index in ``front`` (inf at boundaries)."""
    distance = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    n_obj = len(objs[front[0]])
    for m in range(n_obj):
        ordered = sorted(front, key=lambda i: objs[i][m])
        lo, hi = objs[ordered[0]][m], objs[ordered[-1]][m]
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for rank in range(1, len(ordered) - 1):
            prev_v = objs[ordered[rank - 1]][m]
            next_v = objs[ordered[rank + 1]][m]
            distance[ordered[rank]] += (next_v - prev_v) / span
    return distance


def environmental_selection(
    combined: list[Genotype],
    objs: list[Objectives],
    size: int,
) -> tuple[list[Genotype], list[Objectives]]:
    """Standard NSGA-II truncation: fill by front, break ties by crowding."""
    fronts = fast_non_dominated_sort(objs)
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= size:
            chosen.extend(front)
        else:
            crowd = crowding_distance(objs, front)
            ranked = sorted(front, key=lambda i: crowd[i], reverse=True)
            chosen.extend(ranked[: size - len(chosen)])
            break
    return [combined[i] for i in chosen], [objs[i] for i in chosen]


class ParetoBinaryTournament:
    """Rank-then-crowding binary tournament over the current objectives.

    Fronts and crowding are recomputed per call, exactly as the
    historical engine did, so RNG consumption and tie-breaking match the
    pinned golden trajectories.
    """

    def select(self, values, rng) -> int:
        fronts = fast_non_dominated_sort(values)
        rank: dict[int, int] = {}
        for r, front in enumerate(fronts):
            for i in front:
                rank[i] = r
        crowd: dict[int, float] = {}
        for front in fronts:
            crowd.update(crowding_distance(values, front))
        a, b = int(rng.integers(0, len(values))), int(rng.integers(0, len(values)))
        if rank[a] != rank[b]:
            return a if rank[a] < rank[b] else b
        return a if crowd[a] >= crowd[b] else b


@dataclass
class ParetoEnvironmental:
    """NSGA-II survival: (μ+λ) generational, (μ+1) steady-state."""

    mu: int

    def survive(self, population, values, offspring, off_values, rng):
        return environmental_selection(
            population + offspring, values + off_values, self.mu
        )

    def integrate(self, population, values, genes, value, rng):
        return environmental_selection(
            population + [genes], values + [value], self.mu
        )


@dataclass(frozen=True)
class Nsga2Config:
    """NSGA-II hyper-parameters.

    ``async_mode`` / ``async_backlog`` behave exactly as on
    :class:`~repro.ec.ga.GaConfig`.
    """

    key_length: int = 16
    population_size: int = 16
    generations: int = 10
    crossover: str = "uniform"
    crossover_rate: float = 0.9
    mutation: str | MutationConfig = "default"
    seed: int = 0
    async_mode: bool = False
    async_backlog: int | str | None = None
    #: locking-primitive alphabet (see ``repro.registry.PRIMITIVES``).
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", resolve_alphabet(self.alphabet))
        if self.population_size < 4:
            raise EvolutionError("population_size must be >= 4 for NSGA-II")
        if self.crossover not in CROSSOVERS:
            raise EvolutionError(f"unknown crossover {self.crossover!r}")
        if isinstance(self.mutation, str) and self.mutation not in MUTATIONS:
            raise EvolutionError(f"unknown mutation {self.mutation!r}")
        check_async_backlog(self.async_backlog)

    @property
    def mutation_config(self) -> MutationConfig:
        if isinstance(self.mutation, MutationConfig):
            return self.mutation
        return MUTATIONS[self.mutation]


@dataclass
class Nsga2Result:
    """Final population, Pareto front, and bookkeeping."""

    front_genotypes: list[Genotype]
    front_objectives: list[Objectives]
    evaluations: int
    runtime_s: float
    history: list[dict] = field(default_factory=list)


class Nsga2Policy(LoopPolicy):
    """NSGA-II as a strategy bundle over the shared loop."""

    def __init__(self, config: Nsga2Config, original: Netlist) -> None:
        cfg = config
        self.config = cfg
        self.original = original
        self.selection = ParetoBinaryTournament()
        self.variation = CrossoverMutation(
            original, CROSSOVERS[cfg.crossover], cfg.crossover_rate,
            cfg.mutation_config, alphabet=cfg.alphabet,
        )
        self.survival = ParetoEnvironmental(cfg.population_size)
        self.generations = cfg.generations
        self.population_size = cfg.population_size
        self.offspring_count = cfg.population_size
        self.survival_needs_offspring_values = True
        # initial population + one offspring batch per generation
        self.max_evaluations = cfg.population_size * (cfg.generations + 1)
        self.history: list[dict] = []
        # async state
        self.async_population: list[Genotype] = []
        self.async_values: list[Objectives] = []
        self._window_totals = BatchStats()

    @property
    def async_backlog(self) -> int | str:
        if self.config.async_backlog is not None:
            return self.config.async_backlog
        return self.population_size

    # -- lifecycle ------------------------------------------------------
    def initialize(self, rng) -> list[Genotype]:
        cfg = self.config
        return [
            random_genotype(
                self.original, cfg.key_length, rng, alphabet=cfg.alphabet
            )
            for _ in range(cfg.population_size)
        ]

    def coerce(self, value) -> Objectives:
        return tuple(value)

    # -- sync hooks -----------------------------------------------------
    def should_stop(self, gen, population, values, n_evals):
        return gen >= self.config.generations, False

    def on_generation(self, gen, population, values, batch, elapsed_s) -> None:
        self._record_generation(
            gen, values,
            cache_hits=batch.cache_hits if batch else 0,
            cache_misses=batch.dispatched if batch else 0,
        )

    def _record_generation(self, gen, values, *, cache_hits, cache_misses):
        front0 = fast_non_dominated_sort(values)[0]
        self.history.append(
            {
                "generation": gen,
                "front_size": len(front0),
                "best_per_objective": [
                    min(values[i][m] for i in front0)
                    for m in range(len(values[0]))
                ],
                "cache_hits": cache_hits,
                "cache_misses": cache_misses,
            }
        )

    # -- async hooks ----------------------------------------------------
    def integrate_async(
        self, genes, value, completed, rng, elapsed_s, totals
    ) -> None:
        mu = self.config.population_size
        self.async_population, self.async_values = self.survival.integrate(
            self.async_population, self.async_values, list(genes), value, rng
        )
        # The first μ completions are the initial population (no history
        # entry, as in sync mode); each further window of μ completions
        # is one generation-equivalent.
        if completed % mu == 0 and completed >= 2 * mu:
            delta = totals.since(self._window_totals)
            self._record_generation(
                completed // mu - 2,
                self.async_values,
                cache_hits=delta.cache_hits,
                cache_misses=delta.dispatched,
            )
            self._window_totals = totals
        elif completed % mu == 0:
            self._window_totals = totals

    # -- result ---------------------------------------------------------
    def result(self, state: LoopState, runtime_s: float) -> Nsga2Result:
        population, objs = state.population, state.values
        fronts = fast_non_dominated_sort(objs)
        front = fronts[0] if fronts else []
        # Deduplicate identical genotypes in the reported front.
        seen: set[tuple] = set()
        genos: list[Genotype] = []
        front_objs: list[Objectives] = []
        for i in front:
            key = genotype_key(population[i])
            if key in seen:
                continue
            seen.add(key)
            genos.append(list(population[i]))
            front_objs.append(objs[i])
        return Nsga2Result(
            front_genotypes=genos,
            front_objectives=front_objs,
            evaluations=state.evaluations,
            runtime_s=runtime_s,
            history=self.history,
        )


class Nsga2:
    """NSGA-II over MUX-locking genotypes."""

    def __init__(self, config: Nsga2Config) -> None:
        self.config = config

    def run(
        self,
        original: Netlist,
        fitness: Callable[[Sequence], Objectives],
        evaluator: Evaluator | None = None,
    ) -> Nsga2Result:
        """Evolve a Pareto front of lockings of ``original``.

        ``evaluator`` semantics match :meth:`GeneticAlgorithm.run`: the
        serial default preserves the historical loop byte-for-byte, an
        :class:`~repro.ec.evaluator.AsyncEvaluator` can serve
        ``config.async_mode=True``, and the caller owns any pool passed in.
        """
        cfg = self.config
        rng = derive_rng(cfg.seed)
        policy = Nsga2Policy(cfg, original)
        loop = SearchLoop(policy, evaluator, async_mode=cfg.async_mode)
        state = loop.run(fitness, rng)
        return policy.result(state, state.wall_s)
