"""Non-GA black-box optimisers for locking design.

The paper's research plan (§III, last bullet) asks to "explore other
techniques out of the evolutionary computation field to better understand
what heuristics are more suitable for this form of automation". This
module provides three single-trajectory baselines sharing the GA's
genotype, mutation and fitness machinery so the comparison isolates the
*search strategy*:

* :class:`RandomSearch` — independent random genotypes, keep the best.
  The floor any informed heuristic must beat.
* :class:`HillClimber` — first-improvement local search over mutation
  neighbourhoods.
* :class:`SimulatedAnnealing` — hill climbing with a geometric
  temperature schedule that accepts uphill moves early.

All three are policy bundles over the steady-state (async) mode of
:class:`repro.ec.loop.SearchLoop` with a population of one: breeding
proposes the next candidate, integration applies the accept/reject
rule. Random search pipelines freely (its candidates are independent,
so the whole budget can be in flight); hill climbing and annealing are
inherently sequential — each proposal depends on the previous verdict —
so the loop keeps one evaluation in flight for them. Completions are
integrated in submission order, so each search walks one trajectory
per seed on any evaluator, serial or pooled.

All minimise fitness and return the same :class:`SearchResult` shape, so
the heuristic-comparison bench (E11) can sweep them uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.ec.evaluator import Evaluator
from repro.ec.genotype import random_genotype, repair_genotype
from repro.ec.loop import LoopPolicy, LoopState, SearchLoop
from repro.ec.operators import MutationConfig, mutate
from repro.errors import EvolutionError
from repro.locking.primitives import DEFAULT_ALPHABET, resolve_alphabet
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng

Genotype = list  # heterogeneous primitive genes (repro.locking.primitives)
Fitness = Callable[[Sequence], float]


@dataclass
class SearchResult:
    """Outcome of a single-trajectory search."""

    best_genotype: Genotype
    best_fitness: float
    evaluations: int
    runtime_s: float
    #: best fitness after each evaluation (for budget-matched comparisons)
    trajectory: list[float] = field(default_factory=list)


def _validated_budget(evaluations: int) -> int:
    if evaluations < 1:
        raise EvolutionError(f"evaluation budget must be >= 1, got {evaluations}")
    return evaluations


class TrajectoryPolicy(LoopPolicy):
    """Shared policy scaffolding for the single-trajectory searches.

    Population of one; every completed evaluation is offered to the
    accept/reject rule, which decides whether it replaces the
    incumbent, and the trajectory records the reported fitness after
    every evaluation. Subclasses implement :meth:`propose` (the next
    candidate) and :meth:`challenge` (the accept/reject rule) and may
    override :meth:`report` (what the trajectory tracks).
    """

    sequential_breeding = True

    def __init__(self, searcher, original: Netlist) -> None:
        self.searcher = searcher
        self.original = original
        self.max_evaluations = searcher.evaluations
        self.trajectory: list[float] = []
        self.best_genes: Genotype | None = None
        self.best_fit = float("inf")
        self.async_population: list[Genotype] = []
        self.async_values: list[float] = []

    # -- subclass hooks -------------------------------------------------
    def propose(self, current: Genotype | None, rng) -> Genotype:
        """The next candidate genotype."""
        raise NotImplementedError

    def challenge(self, current_fit: float, candidate_fit: float, rng) -> bool:
        """True when the candidate replaces the incumbent."""
        raise NotImplementedError

    def report(self) -> float:
        """The value the trajectory tracks (best-so-far by default)."""
        return self.best_fit

    # -- lifecycle ------------------------------------------------------
    def initialize(self, rng) -> list[Genotype]:
        return [self.propose(None, rng)]

    def coerce(self, value) -> float:
        return float(value)

    def _observe(self, genes: Genotype, fit: float) -> None:
        if fit < self.best_fit:
            self.best_fit = fit
            self.best_genes = list(genes)

    # -- loop hooks -----------------------------------------------------
    def integrate_async(
        self, genes, value, completed, rng, elapsed_s, totals
    ) -> None:
        self._observe(genes, value)
        if not self.async_population:
            self.async_population, self.async_values = [list(genes)], [value]
        elif self.challenge(self.async_values[0], value, rng):
            self.async_population, self.async_values = [list(genes)], [value]
        self.trajectory.append(self.report())

    def breed_async(self, rng) -> Genotype:
        current = self.async_population[0] if self.async_population else None
        return self.propose(current, rng)

    # -- result ---------------------------------------------------------
    def result(self, state: LoopState) -> SearchResult:
        assert self.best_genes is not None
        return SearchResult(
            best_genotype=self.best_genes,
            best_fitness=self.best_fit,
            evaluations=state.evaluations,
            runtime_s=state.wall_s,
            trajectory=self.trajectory,
        )


class _TrajectorySearch:
    """Common driver for the three searchers below."""

    #: overridden per searcher
    name = "trajectory"

    def _policy(self, original: Netlist) -> TrajectoryPolicy:
        raise NotImplementedError

    def run(
        self,
        original: Netlist,
        fitness: Fitness,
        evaluator: Evaluator | None = None,
    ) -> SearchResult:
        """Search lockings of ``original``; same contract as the GA's run.

        The result is the same on any evaluator; an
        :class:`~repro.ec.evaluator.AsyncEvaluator` pipelines where the
        search semantics allow it (random search; the sequential
        searches stay one-in-flight).
        """
        rng = derive_rng(self.seed)
        policy = self._policy(original)
        loop = SearchLoop(policy, evaluator, async_mode=True)
        state = loop.run(fitness, rng)
        return policy.result(state)


class RandomSearch(_TrajectorySearch):
    """Sample ``evaluations`` independent genotypes, keep the best."""

    name = "random_search"

    def __init__(
        self,
        key_length: int,
        evaluations: int = 100,
        seed: int = 0,
        alphabet: tuple[str, ...] = DEFAULT_ALPHABET,
    ):
        self.key_length = key_length
        self.evaluations = _validated_budget(evaluations)
        self.seed = seed
        self.alphabet = resolve_alphabet(alphabet)

    def _policy(self, original: Netlist) -> TrajectoryPolicy:
        return _RandomSearchPolicy(self, original)


class _RandomSearchPolicy(TrajectoryPolicy):
    """Candidates are independent draws — the whole budget may pipeline."""

    sequential_breeding = False

    @property
    def async_backlog(self) -> int:
        return self.max_evaluations

    def propose(self, current, rng) -> Genotype:
        return random_genotype(
            self.original, self.searcher.key_length, rng,
            alphabet=self.searcher.alphabet,
        )

    def challenge(self, current_fit, candidate_fit, rng) -> bool:
        return candidate_fit < current_fit


class HillClimber(_TrajectorySearch):
    """First-improvement local search over the mutation neighbourhood."""

    name = "hill_climber"

    def __init__(
        self,
        key_length: int,
        evaluations: int = 100,
        mutation: MutationConfig | None = None,
        seed: int = 0,
        alphabet: tuple[str, ...] = DEFAULT_ALPHABET,
    ):
        self.key_length = key_length
        self.evaluations = _validated_budget(evaluations)
        self.mutation = mutation or MutationConfig(0.1, 0.15, 0.15)
        self.seed = seed
        self.alphabet = resolve_alphabet(alphabet)

    def _policy(self, original: Netlist) -> TrajectoryPolicy:
        return _HillClimberPolicy(self, original)


class _HillClimberPolicy(TrajectoryPolicy):
    """Neighbourhood proposals, strict-improvement acceptance.

    The trajectory tracks the incumbent's fitness, which for strict
    improvement is identical to best-so-far.
    """

    def propose(self, current, rng) -> Genotype:
        if current is None:
            return random_genotype(
                self.original, self.searcher.key_length, rng,
                alphabet=self.searcher.alphabet,
            )
        return repair_genotype(
            self.original,
            mutate(
                self.original, current, self.searcher.mutation, rng,
                alphabet=self.searcher.alphabet,
            ),
            rng,
        )

    def challenge(self, current_fit, candidate_fit, rng) -> bool:
        return candidate_fit < current_fit


class SimulatedAnnealing(HillClimber):
    """Metropolis acceptance with a geometric cooling schedule.

    Proposals (and the default mutation) are the hill climber's; only
    the acceptance rule differs. Temperature starts at ``t_start`` (in
    fitness units — attack accuracy lives in [0, 1], so 0.05-0.2 is a
    sensible range) and decays by ``cooling`` per step toward ``t_end``.
    """

    name = "simulated_annealing"

    def __init__(
        self,
        key_length: int,
        evaluations: int = 100,
        t_start: float = 0.10,
        t_end: float = 0.005,
        mutation: MutationConfig | None = None,
        seed: int = 0,
        alphabet: tuple[str, ...] = DEFAULT_ALPHABET,
    ):
        if t_start <= 0 or t_end <= 0 or t_end > t_start:
            raise EvolutionError(
                f"need 0 < t_end <= t_start, got t_start={t_start}, t_end={t_end}"
            )
        super().__init__(
            key_length, evaluations, mutation, seed, alphabet
        )
        self.t_start = t_start
        self.t_end = t_end

    def _policy(self, original: Netlist) -> TrajectoryPolicy:
        return _AnnealingPolicy(self, original)


class _AnnealingPolicy(_HillClimberPolicy):
    """Metropolis acceptance; the geometric schedule cools once per step.

    The uphill-acceptance variate is only drawn for worsening moves —
    matching the historical short-circuit, which is what keeps the
    trajectory byte-identical to the legacy implementation.
    """

    def __init__(self, searcher, original: Netlist) -> None:
        super().__init__(searcher, original)
        steps = max(1, searcher.evaluations - 1)
        self._cooling = (searcher.t_end / searcher.t_start) ** (1.0 / steps)
        self._temperature = searcher.t_start

    def challenge(self, current_fit, candidate_fit, rng) -> bool:
        delta = candidate_fit - current_fit
        accept = (
            delta <= 0
            or rng.random() < math.exp(-delta / self._temperature)
        )
        self._temperature = max(
            self.searcher.t_end, self._temperature * self._cooling
        )
        return accept
