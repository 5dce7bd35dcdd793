"""The AutoLock pipeline (Fig. 1 of the paper).

Input: original netlist (ON) and desired key length (K). The pipeline

1. locks ON with N random keys → N genotype encodings (initial population),
2. runs the GA with MuxLink accuracy as (minimised) fitness,
3. decodes the champion genotype into the locked netlist (LN),
4. re-evaluates baseline and champion with an independent, stronger
   attack configuration (ensembled predictor, optionally the GNN), so the
   reported improvement is not an artefact of overfitting the fitness
   oracle. The initial population's report attacks are submitted before
   the GA starts (on a pool they run alongside it, filling the workers
   the GA leaves idle; a serial evaluator scores them right away); the
   champion's follows the GA.

The headline quantity is ``accuracy_drop_pp``: percentage points between
the mean initial-population attack accuracy and the champion's — the
paper reports ≈ 25 pp without any tuning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ec.evaluator import Evaluator, SerialEvaluator
from repro.ec.fitness import FitnessCache, SpecFitness, cache_namespace
from repro.ec.ga import GaConfig, GaResult, GeneticAlgorithm
from repro.ec.genotype import random_genotype
from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import lock_with_genes
from repro.locking.primitives import DEFAULT_ALPHABET, resolve_alphabet
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng, spawn_seeds


@dataclass(frozen=True)
class AutoLockConfig:
    """End-to-end pipeline configuration.

    ``fitness_predictor`` drives the GA loop (fast); ``report_predictor``
    and ``report_ensemble`` drive the final independent evaluation.

    The evaluator that runs the fitness, serial or a process pool, is
    :meth:`AutoLock.run`'s argument, not a config field; the result is
    the same on either. ``async_mode`` selects the GA loop mode:
    ``False`` (default) runs the sync-generational loop (byte-identical
    to serial at any worker count), ``True`` the steady-state pipeline
    (deterministic at any worker count — completions integrate in
    submission order). Only
    ``ExperimentSpec.resolved_async_mode`` derives the mode from the
    worker count. Persistence is not a config field either: the
    experiment store the fitness and report caches use is
    :meth:`AutoLock.run`'s ``store`` argument.
    """

    key_length: int = 32
    population_size: int = 12
    generations: int = 15
    selection: str = "tournament"
    crossover: str = "one_point"
    mutation: str = "default"
    elitism: int = 2
    fitness_predictor: str = "mlp"
    fitness_ensemble: int = 1
    report_predictor: str = "mlp"
    report_ensemble: int = 3
    seed: int = 0
    async_mode: bool = False
    async_backlog: int | str | None = None
    #: locking-primitive alphabet the genotype composes (see
    #: ``repro.registry.PRIMITIVES``); the default reproduces the paper's
    #: pure D-MUX search space bit-for-bit.
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", resolve_alphabet(self.alphabet))

    def ga_config(self) -> GaConfig:
        return GaConfig(
            key_length=self.key_length,
            population_size=self.population_size,
            generations=self.generations,
            selection=self.selection,
            crossover=self.crossover,
            mutation=self.mutation,
            elitism=self.elitism,
            seed=self.seed,
            async_mode=self.async_mode,
            async_backlog=self.async_backlog,
            alphabet=self.alphabet,
        )


@dataclass
class AutoLockResult:
    """Everything the pipeline produced."""

    locked: LockedCircuit
    ga: GaResult
    baseline_accuracy: float
    evolved_accuracy: float
    fitness_evaluations: int
    cache_hits: int
    runtime_s: float
    baseline_population_accuracies: list[float] = field(default_factory=list)
    report_evaluations: int = 0
    report_cache_hits: int = 0

    @property
    def accuracy_drop_pp(self) -> float:
        """Baseline-minus-evolved attack accuracy, in percentage points."""
        return (self.baseline_accuracy - self.evolved_accuracy) * 100.0

    def summary(self) -> str:
        return (
            f"AutoLock on {self.locked.original.name}: "
            f"baseline MuxLink accuracy {self.baseline_accuracy:.3f} -> "
            f"evolved {self.evolved_accuracy:.3f} "
            f"(drop {self.accuracy_drop_pp:+.1f} pp, "
            f"{self.fitness_evaluations} evaluations, "
            f"{self.runtime_s:.1f}s)"
        )


class AutoLock:
    """GA + MuxLink automatic locking designer."""

    def __init__(self, config: AutoLockConfig | None = None) -> None:
        self.config = config if config is not None else AutoLockConfig()

    def run(
        self,
        original: Netlist,
        evaluator: Evaluator | None = None,
        store=None,
    ) -> AutoLockResult:
        """Run the full pipeline on ``original``.

        ``evaluator`` runs the GA and report evaluations; the caller
        owns it (``run_experiment`` opens one per run, sweeps share one
        process pool across many pipeline runs). The default is an
        in-process :class:`~repro.ec.evaluator.SerialEvaluator`.

        ``store`` is an open experiment store (see
        :class:`~repro.store.base.StoreBackend`) the fitness *and* report
        caches persist to, namespaced by circuit + attack configuration,
        so repeated runs and benchmark sweeps reuse prior attack
        evaluations; the caller owns it. None keeps both caches in
        memory.
        """
        cfg = self.config
        started = time.perf_counter()
        evaluator = evaluator if evaluator is not None else SerialEvaluator()
        rng = derive_rng(cfg.seed)
        seeds = spawn_seeds(rng, 3)

        # Step 1 (Fig. 1 x/z): N random lockings as the initial population.
        initial = [
            random_genotype(original, cfg.key_length, seed, alphabet=cfg.alphabet)
            for seed in spawn_seeds(derive_rng(seeds[0]), cfg.population_size)
        ]

        # Step 2: GA refinement against the fast fitness oracle.
        cache = FitnessCache(
            backend=store,
            namespace=cache_namespace(
                original.name,
                role="fitness",
                predictor=cfg.fitness_predictor,
                ensemble=cfg.fitness_ensemble,
                attack_seed=seeds[1],
            ),
        )
        fitness = SpecFitness(
            original,
            "muxlink",
            {"predictor": cfg.fitness_predictor, "ensemble": cfg.fitness_ensemble},
            attack_seed=seeds[1],
            cache=cache,
        )
        # Step 4's oracle: an independent, stronger attack configuration,
        # cached under its own namespace so repeated runs skip it too.
        report_cache = FitnessCache(
            backend=store,
            namespace=cache_namespace(
                original.name,
                role="report",
                predictor=cfg.report_predictor,
                ensemble=cfg.report_ensemble,
                attack_seed=seeds[2],
            ),
        )
        report = SpecFitness(
            original,
            "muxlink",
            {"predictor": cfg.report_predictor, "ensemble": cfg.report_ensemble},
            attack_seed=seeds[2],
            cache=report_cache,
        )
        # The config decides the loop mode whatever the evaluator, so
        # identical configs always walk identical trajectories; every
        # evaluator serves both modes.
        ga = GeneticAlgorithm(cfg.ga_config())
        # Step 4 on the GA's evaluator. The initial population's report
        # does not depend on the GA, so it is submitted first: a pool
        # runs it alongside the GA, a serial evaluator before it.
        pending = [evaluator.submit(g, report) for g in initial]
        try:
            result = ga.run(
                original, fitness, initial_population=initial,
                evaluator=evaluator,
            )
            pending.append(evaluator.submit(result.best_genotype, report))
            report_accs = [future.result() for future in pending]
        finally:
            # On an error, cancel this run's own report attacks (a
            # shared pool may be running other callers' work); one
            # already handed to a worker still runs and is cached.
            for future in pending:
                future.cancel()

        # Step 3: decode champion genotype -> locked netlist.
        locked = lock_with_genes(original, result.best_genotype)
        # Step 4's verdicts: the initial population, then the champion.
        *baseline_accs, evolved_acc = report_accs

        return AutoLockResult(
            locked=locked,
            ga=result,
            baseline_accuracy=float(np.mean(baseline_accs)),
            evolved_accuracy=float(evolved_acc),
            fitness_evaluations=fitness.evaluations,
            cache_hits=cache.hits,
            runtime_s=time.perf_counter() - started,
            baseline_population_accuracies=[float(a) for a in baseline_accs],
            report_evaluations=report.evaluations,
            report_cache_hits=report_cache.hits,
        )
