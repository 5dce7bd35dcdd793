"""The AutoLock pipeline (Fig. 1 of the paper).

Input: original netlist (ON) and desired key length (K). The pipeline

1. locks ON with N random keys → N genotype encodings (initial population),
2. runs the GA with MuxLink accuracy as (minimised) fitness,
3. decodes the champion genotype into the locked netlist (LN),
4. re-evaluates baseline and champion with an independent, stronger
   attack configuration (ensembled predictor, optionally the GNN), so the
   reported improvement is not an artefact of overfitting the fitness
   oracle.

The headline quantity is ``accuracy_drop_pp``: percentage points between
the mean initial-population attack accuracy and the champion's — the
paper reports ≈ 25 pp without any tuning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ec.evaluator import AsyncEvaluator, Evaluator, SerialEvaluator
from repro.ec.fitness import (
    FitnessCache,
    MuxLinkFitness,
    SpecFitness,
    cache_namespace,
)
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

    ``workers >= 2`` fans fitness evaluation out across that many worker
    processes (see :mod:`repro.ec.evaluator`); the default stays serial
    and bit-identical to the historical loop. ``async_mode`` selects the
    GA loop mode: ``None`` (default) runs the steady-state pipeline
    whenever ``workers >= 2`` and the sync-generational loop otherwise;
    ``False`` pins sync (byte-identical to serial at any worker count),
    ``True`` pins steady state (deterministic at any worker count —
    completions integrate in submission order). ``cache_path`` points the
    fitness *and* report caches at a JSON file persisted across runs,
    namespaced by circuit + attack configuration, so repeated runs and
    benchmark sweeps reuse prior attack evaluations.
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
    workers: int = 1
    async_mode: bool | None = None
    async_backlog: int | str | None = None
    cache_path: str | Path | None = None
    #: store backend for ``cache_path`` (None = infer from suffix).
    store: str | None = None
    #: locking-primitive alphabet the genotype composes (see
    #: ``repro.registry.PRIMITIVES``); the default reproduces the paper's
    #: pure D-MUX search space bit-for-bit.
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", resolve_alphabet(self.alphabet))

    def resolved_async_mode(self) -> bool:
        """The loop mode this config runs: explicit, else workers-derived."""
        if self.async_mode is not None:
            return bool(self.async_mode)
        return bool(self.workers and self.workers >= 2)

    def ga_config(self, async_mode: bool | None = None) -> GaConfig:
        return GaConfig(
            key_length=self.key_length,
            population_size=self.population_size,
            generations=self.generations,
            selection=self.selection,
            crossover=self.crossover,
            mutation=self.mutation,
            elitism=self.elitism,
            seed=self.seed,
            async_mode=(
                self.resolved_async_mode() if async_mode is None else async_mode
            ),
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
        self, original: Netlist, evaluator: Evaluator | None = None
    ) -> AutoLockResult:
        """Run the full pipeline on ``original``.

        ``evaluator`` injects an externally-owned population evaluator
        (sweeps share one process pool across many pipeline runs); when
        omitted, one is built from ``config.workers`` and closed here.
        """
        cfg = self.config
        started = time.perf_counter()
        rng = derive_rng(cfg.seed)
        seeds = spawn_seeds(rng, 3)

        # Step 1 (Fig. 1 x/z): N random lockings as the initial population.
        initial = [
            random_genotype(original, cfg.key_length, seed, alphabet=cfg.alphabet)
            for seed in spawn_seeds(derive_rng(seeds[0]), cfg.population_size)
        ]

        # Step 2: GA refinement against the fast fitness oracle.
        cache = FitnessCache(
            path=cfg.cache_path,
            backend=cfg.store,
            namespace=cache_namespace(
                original.name,
                role="fitness",
                predictor=cfg.fitness_predictor,
                ensemble=cfg.fitness_ensemble,
                attack_seed=seeds[1],
            ),
        )
        fitness = MuxLinkFitness(
            original,
            predictor=cfg.fitness_predictor,
            ensemble=cfg.fitness_ensemble,
            attack_seed=seeds[1],
            cache=cache,
        )
        # One resolution rule whether the evaluator is owned or injected:
        # the config decides the loop mode (workers-derived when unset),
        # so identical configs always walk identical trajectories. An
        # injected evaluator that cannot serve the resolved mode raises
        # (SearchLoop names the fix) instead of silently changing it.
        use_async = cfg.resolved_async_mode()
        owns_evaluator = evaluator is None
        if owns_evaluator:
            if use_async or (cfg.workers and cfg.workers >= 2):
                evaluator = AsyncEvaluator(max(1, cfg.workers))
            else:
                evaluator = SerialEvaluator()
        ga = GeneticAlgorithm(cfg.ga_config(async_mode=use_async))
        try:
            result = ga.run(
                original, fitness, initial_population=initial,
                evaluator=evaluator,
            )
        finally:
            if owns_evaluator:
                evaluator.close()

        # Step 3: decode champion genotype -> locked netlist.
        locked = lock_with_genes(original, result.best_genotype)

        # Step 4: independent evaluation of baseline population vs champion.
        # Cached under its own namespace (stronger attack config than the
        # fitness oracle), so repeated runs skip the re-evaluation too.
        report_cache = FitnessCache(
            path=cfg.cache_path,
            backend=cfg.store,
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
        baseline_accs = [report(genes) for genes in initial]
        evolved_acc = report(result.best_genotype)

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
