"""The alternating-epoch arms race: lock population vs. attacker panel.

Each epoch runs two phases on top of the existing machinery:

1. **Lock phase** — the unchanged :class:`~repro.ec.ga.GeneticAlgorithm`
   (sync-generational, warm-started from the previous epoch's hall)
   evolves lock genotypes against :class:`~repro.ec.fitness.SpecFitness`
   over the current *panel*: mean attack accuracy against the strongest
   attackers in the hall of fame, not just the single current best, which
   is the classic defence against co-evolutionary cycling.
2. **Attacker phase** — one batched ``evaluator.evaluate`` pass scores
   the whole attacker population (each genome wrapped as a one-gene
   genotype) with :class:`AttackerVsEliteFitness`: ``1 − mean accuracy``
   against the lock elite (minimised, like every fitness here). The top
   half survives; crossover + mutation breed the next population.

Determinism: every RNG stream is pre-derived from the run seed
(:func:`~repro.utils.rng.spawn_seeds`), the lock GA is pinned to sync
mode, and the batched evaluators return values in population order — so
the whole trajectory is byte-identical at any worker count. Crash
safety: each finished epoch writes a self-contained record (both
populations, both halls, the next attacker population) to the run's
experiment store; a restarted run replays finished epochs from the
store with zero fresh evaluations and resumes at the first unfinished
one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.attacks.scope import ScopeAttack
from repro.coevo.genome import AttackerGenome, baseline_genome
from repro.ec.evaluator import Evaluator, SerialEvaluator
from repro.ec.fitness import (
    DEFAULT_ATTACK_SEED,
    CachedFitness,
    FitnessCache,
    SpecFitness,
    cache_namespace,
    resilience_accuracy,
)
from repro.ec.ga import GaConfig, GaResult, GeneticAlgorithm
from repro.ec.loop import HALL_SIZE
from repro.errors import EvolutionError
from repro.locking.delta import DeltaRelocker
from repro.locking.genome_lock import genotype_from_record, genotype_record
from repro.locking.primitives import DEFAULT_ALPHABET, Gene
from repro.netlist.netlist import Netlist
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.registry import create_attack
from repro.utils.rng import derive_rng, spawn_seeds

_EPOCH_GAUGE = obs_metrics.METRICS.gauge(
    "autolock_coevo_epoch",
    "Current arms-race epoch of the running co-evolution",
)
_LOCK_RESILIENCE = obs_metrics.METRICS.gauge(
    "autolock_coevo_lock_resilience",
    "Best lock fitness (mean panel accuracy, lower = more resilient)",
)
_ATTACKER_ACCURACY = obs_metrics.METRICS.gauge(
    "autolock_coevo_attacker_accuracy",
    "Best attacker key-recovery accuracy against the current lock elite",
)
_ARMS_RACE_GAP = obs_metrics.METRICS.gauge(
    "autolock_coevo_arms_race_gap",
    "epoch-0-elite minus current-elite accuracy vs the current best "
    "attacker (positive = the lock side is winning)",
)
_EVAL_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_coevo_eval_seconds",
    "Wall time of one co-evolution phase, by side",
    labels=("side",),
)
_EPOCHS_TOTAL = obs_metrics.METRICS.counter(
    "autolock_coevo_epochs_total",
    "Co-evolution epochs finished, by outcome",
    labels=("outcome",),
)


def _create(genome: AttackerGenome):
    """Instantiate the attack a genome describes."""
    name, params = genome.to_attack()
    return create_attack(name, **params)


def _checkpoint_key(epoch: int) -> str:
    """The key of one epoch's checkpoint in the checkpoint namespace."""
    return json.dumps([["epoch", epoch]], separators=(",", ":"))


def _fingerprint(payload: Any) -> str:
    """Short stable fingerprint of a JSON-safe payload (namespace scoping)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class AttackerVsEliteFitness(CachedFitness):
    """Attacker fitness: ``1 − mean accuracy`` against the lock elite.

    Minimised (stronger attacker = lower value), keeping one convention
    across both sides. Genotypes are one-element ``[AttackerGenome]``
    lists, so the standard evaluators dedupe and cache them through
    :func:`~repro.ec.genotype.genotype_key` unchanged. Locked elites are
    built lazily and memoised per process.
    """

    def __init__(
        self,
        original: Netlist,
        elites: Sequence[Sequence[Gene]],
        attack_seed: int = DEFAULT_ATTACK_SEED,
        cache: FitnessCache | None = None,
    ) -> None:
        if not elites:
            raise EvolutionError("lock elite must not be empty")
        super().__init__(cache)
        self.original = original
        self.elites = [list(genes) for genes in elites]
        self.attack_seed = attack_seed
        self._relocker = DeltaRelocker(original)
        self._scope = ScopeAttack()
        self._locked: list | None = None

    def _locked_elites(self) -> list:
        if self._locked is None:
            self._locked = [(self._relocker.lock(g), g) for g in self.elites]
        return self._locked

    def score(self, genes: Sequence) -> float:
        (genome,) = genes
        attack = _create(genome)
        total = 0.0
        for locked, lock_genes in self._locked_elites():
            report = attack.run(locked, seed_or_rng=self.attack_seed)
            total += resilience_accuracy(
                locked, lock_genes, report, self._scope, self.attack_seed
            )
        return 1.0 - total / len(self.elites)


class DuelFitness(CachedFitness):
    """Accuracy of one attacker genome against one lock genotype.

    A duel's genotype is the lock genes followed by the attacker genome,
    so its :func:`~repro.ec.genotype.genotype_key` keys the duel cache.
    """

    def __init__(
        self, original: Netlist, attack_seed: int, cache: FitnessCache
    ) -> None:
        super().__init__(cache)
        self.attack_seed = attack_seed
        self._relocker = DeltaRelocker(original)
        self._scope = ScopeAttack()

    def score(self, genes: Sequence) -> float:
        *lock_genes, genome = genes
        locked = self._relocker.lock(lock_genes)
        report = _create(genome).run(locked, seed_or_rng=self.attack_seed)
        return resilience_accuracy(
            locked, lock_genes, report, self._scope, self.attack_seed
        )


@dataclass
class CoevoEpoch:
    """One finished arms-race epoch (both populations, both halls).

    ``to_record`` is JSON-safe and fully deterministic — it doubles as
    the resume checkpoint (``next_attacker_population`` carries the bred
    population the next epoch starts from) and as one entry of the run
    record's ``engine.epochs`` list.
    """

    epoch: int
    panel: list[dict]
    lock_best: list[dict]
    lock_best_fitness: float
    lock_hall: list[dict]
    attacker_population: list[dict]
    attacker_hall: list[dict]
    attacker_best: dict
    attacker_best_fitness: float
    elite_vs_best: float
    epoch0_vs_best: float
    next_attacker_population: list[dict]
    from_cache: bool = field(default=False, compare=False)

    def to_record(self) -> dict:
        return {
            "epoch": self.epoch,
            "panel": self.panel,
            "lock_best": self.lock_best,
            "lock_best_fitness": self.lock_best_fitness,
            "lock_hall": self.lock_hall,
            "attacker_population": self.attacker_population,
            "attacker_hall": self.attacker_hall,
            "attacker_best": self.attacker_best,
            "attacker_best_fitness": self.attacker_best_fitness,
            "elite_vs_best": self.elite_vs_best,
            "epoch0_vs_best": self.epoch0_vs_best,
            "next_attacker_population": self.next_attacker_population,
        }

    @classmethod
    def from_record(cls, data: dict, from_cache: bool = False) -> "CoevoEpoch":
        return cls(from_cache=from_cache, **{
            key: data[key]
            for key in cls.__dataclass_fields__
            if key != "from_cache"
        })


@dataclass
class CoevoResult:
    """Outcome of a co-evolution run."""

    epochs: list[CoevoEpoch]
    best_lock_genotype: list[Gene]
    best_lock_fitness: float
    best_attacker: AttackerGenome
    best_attacker_fitness: float
    fresh_evaluations: int = 0
    cache_hits: int = 0
    replayed_epochs: int = 0

    @property
    def improvement(self) -> float:
        """Arms-race gap at the final epoch (positive = locks hardened):
        epoch-0 elite accuracy minus final elite accuracy, both against
        the final best attacker."""
        last = self.epochs[-1]
        return last.epoch0_vs_best - last.elite_vs_best


class CoevoEngine:
    """Alternating-epoch co-evolution driver.

    ``store`` is the run's open experiment store (the caller owns it);
    the engine builds its fitness caches on it — panel-scoped for the
    lock side, elite-scoped for the attacker side, plus a duel cache for
    the cross-epoch comparisons. One cache serves each namespace: a
    phase whose namespace repeats an earlier epoch's reuses that cache,
    so a run without a store recomputes nothing a store-backed run would
    replay. With a store, every finished epoch checkpoints under
    ``checkpoint_namespace``, and a restarted run replays finished
    epochs from it with zero recomputation. The ``coevo`` engine adapter
    in :mod:`repro.api.engines` builds one from an ``ExperimentSpec``
    and scopes the checkpoints to the spec fingerprint.
    """

    def __init__(
        self,
        original: Netlist,
        *,
        key_length: int = 16,
        epochs: int = 3,
        lock_population: int = 8,
        lock_generations: int = 4,
        attacker_population: int = 6,
        elite_size: int = 2,
        panel_size: int = 2,
        hall_size: int = 4,
        alphabet: tuple[str, ...] = DEFAULT_ALPHABET,
        seed: int = 0,
        attack_seed: int = DEFAULT_ATTACK_SEED,
        baseline: AttackerGenome | None = None,
        mutation_rate: float = 0.35,
        store=None,
        checkpoint_namespace: str | None = None,
    ) -> None:
        if epochs < 1:
            raise EvolutionError("epochs must be >= 1")
        if attacker_population < 2:
            raise EvolutionError("attacker_population must be >= 2")
        if not 1 <= elite_size <= HALL_SIZE:
            # the elite is drawn from the lock GA's hall of fame
            raise EvolutionError(f"elite_size must be in [1, {HALL_SIZE}]")
        if panel_size < 1 or hall_size < panel_size:
            raise EvolutionError(
                "need panel_size >= 1 and hall_size >= panel_size"
            )
        if not 0.0 < mutation_rate <= 1.0:
            raise EvolutionError(
                f"mutation_rate must be in (0, 1], got {mutation_rate}"
            )
        # The per-epoch lock GA, validated here; each epoch swaps the seed.
        self._ga_config = GaConfig(
            key_length=key_length,
            population_size=lock_population,
            generations=lock_generations,
            elitism=min(2, lock_population - 1),
            alphabet=alphabet,
        )
        self.original = original
        self.epochs = epochs
        self.attacker_population = attacker_population
        self.elite_size = elite_size
        self.panel_size = panel_size
        self.hall_size = hall_size
        self.seed = seed
        self.attack_seed = attack_seed
        self.baseline = baseline if baseline is not None else baseline_genome()
        self.mutation_rate = float(mutation_rate)
        self.store = store
        #: where epoch checkpoints live; None (or no store) keeps none.
        self._checkpoints = (
            checkpoint_namespace if store is not None else None
        )
        self._caches: dict[str, FitnessCache] = {}
        self._duels = DuelFitness(original, attack_seed, self._cache(
            cache_namespace(
                original.name, role="coevo-duel", attack_seed=attack_seed
            )
        ))
        #: the lock and attacker phases' count; the duels keep their own.
        self.fresh_evaluations = 0

    def _cache(self, namespace: str) -> FitnessCache:
        """The run's one fitness cache for ``namespace``."""
        if namespace not in self._caches:
            self._caches[namespace] = FitnessCache(
                namespace=namespace, backend=self.store
            )
        return self._caches[namespace]

    # -- hall maintenance ----------------------------------------------
    def _update_attacker_hall(
        self,
        hall: list[tuple[float, AttackerGenome]],
        population: Sequence[AttackerGenome],
        values: Sequence[float],
    ) -> list[tuple[float, AttackerGenome]]:
        """Dedupe by genome identity, keep the ``hall_size`` strongest."""
        best: dict[tuple, tuple[float, AttackerGenome]] = {}
        for fit, genome in list(hall) + list(zip(values, population)):
            gkey = genome.key_tuple()
            seen = best.get(gkey)
            if seen is None or fit < seen[0]:
                best[gkey] = (float(fit), genome)
        ranked = sorted(
            best.values(), key=lambda t: (t[0], t[1].key_tuple())
        )
        return ranked[: self.hall_size]

    # -- phases ---------------------------------------------------------
    def _lock_phase(
        self,
        epoch: int,
        panel: Sequence[AttackerGenome],
        initial: list[list[Gene]] | None,
        ga_seed: int,
        evaluator: Evaluator,
    ) -> GaResult:
        # One genotype scores differently against different panels.
        namespace = cache_namespace(
            self.original.name,
            role="coevo-lock",
            attack_seed=self.attack_seed,
            panel=_fingerprint([list(g.key_tuple()) for g in panel]),
        )
        fitness = SpecFitness(
            self.original,
            attack_seed=self.attack_seed,
            cache=self._cache(namespace),
            panel=[genome.to_attack() for genome in panel],
        )
        config = dataclasses.replace(self._ga_config, seed=ga_seed)
        started = time.perf_counter()
        with obs_trace.span("coevo.lock_phase", epoch=epoch):
            result = GeneticAlgorithm(config).run(
                self.original,
                fitness,
                initial_population=initial,
                evaluator=evaluator,
            )
        _EVAL_SECONDS.observe(time.perf_counter() - started, side="lock")
        self.fresh_evaluations += fitness.evaluations
        return result

    def _attacker_phase(
        self,
        epoch: int,
        population: list[AttackerGenome],
        elites: list[list[Gene]],
        evaluator: Evaluator,
    ) -> list[float]:
        namespace = cache_namespace(
            self.original.name,
            role="coevo-attacker",
            attack_seed=self.attack_seed,
            elite=_fingerprint([genotype_record(g) for g in elites]),
        )
        fitness = AttackerVsEliteFitness(
            self.original,
            elites,
            attack_seed=self.attack_seed,
            cache=self._cache(namespace),
        )
        started = time.perf_counter()
        with obs_trace.span(
            "coevo.attacker_phase", epoch=epoch, population=len(population)
        ):
            # One batched pass for the whole attacker generation.
            values, _stats = evaluator.evaluate(
                [[genome] for genome in population], fitness
            )
        _EVAL_SECONDS.observe(time.perf_counter() - started, side="attacker")
        self.fresh_evaluations += fitness.evaluations
        return [float(v) for v in values]

    def _breed_attackers(
        self,
        population: list[AttackerGenome],
        values: list[float],
        rng,
    ) -> list[AttackerGenome]:
        """Truncation survival + uniform crossover + mutation."""
        order = np.argsort(values, kind="stable")
        survivors = [population[int(i)] for i in order[: max(1, len(order) // 2)]]
        next_pop = list(survivors)
        while len(next_pop) < self.attacker_population:
            a = survivors[int(rng.integers(0, len(survivors)))]
            b = survivors[int(rng.integers(0, len(survivors)))]
            child = a.crossover(b, rng).mutate(rng, rate=self.mutation_rate)
            next_pop.append(child)
        return next_pop[: self.attacker_population]

    # -- the arms race --------------------------------------------------
    def run(self, evaluator: Evaluator | None = None) -> CoevoResult:
        """Run (or resume) the arms race on ``evaluator``, which the
        caller owns; the default is an in-process
        :class:`~repro.ec.evaluator.SerialEvaluator`."""
        evaluator = evaluator if evaluator is not None else SerialEvaluator()
        # Every seed the whole run will need, derived up front — resume
        # replays finished epochs from records, so no RNG state needs
        # persisting to restart mid-run deterministically.
        rng = derive_rng(self.seed)
        init_seed = spawn_seeds(rng, 1)[0]
        lock_seeds = spawn_seeds(rng, self.epochs)
        breed_seeds = spawn_seeds(rng, self.epochs)

        init_rng = derive_rng(init_seed)
        attacker_pop = [self.baseline] + [
            self.baseline.mutate(init_rng, rate=self.mutation_rate)
            for _ in range(self.attacker_population - 1)
        ]
        attacker_hall: list[tuple[float, AttackerGenome]] = [
            (float("inf"), self.baseline)
        ]
        lock_init: list[list[Gene]] | None = None
        epoch0_elite: list[Gene] | None = None
        epochs: list[CoevoEpoch] = []
        replayed = 0
        replaying = self._checkpoints is not None

        for epoch in range(self.epochs):
            _EPOCH_GAUGE.set(float(epoch))
            if replaying:
                record = self.store.get(
                    self._checkpoints, _checkpoint_key(epoch)
                )
                if record is not None:
                    done = CoevoEpoch.from_record(record, from_cache=True)
                    epochs.append(done)
                    attacker_hall = [
                        (entry["fitness"],
                         AttackerGenome.from_dict(entry["genome"]))
                        for entry in done.attacker_hall
                    ]
                    attacker_pop = [
                        AttackerGenome.from_dict(g)
                        for g in done.next_attacker_population
                    ]
                    lock_init = [
                        genotype_from_record(entry["genotype"])
                        for entry in done.lock_hall
                    ]
                    if epoch == 0:
                        epoch0_elite = genotype_from_record(done.lock_best)
                    replayed += 1
                    _EPOCHS_TOTAL.inc(outcome="replayed")
                    continue
                replaying = False

            with obs_trace.span("coevo.epoch", epoch=epoch):
                panel = [
                    genome for _fit, genome in attacker_hall[: self.panel_size]
                ]
                ga = self._lock_phase(
                    epoch, panel, lock_init, lock_seeds[epoch], evaluator
                )
                hall = sorted(ga.hall_of_fame, key=lambda t: t[0])
                elites = [list(genes) for _f, genes in hall[: self.elite_size]]
                if epoch0_elite is None:
                    epoch0_elite = list(elites[0])

                values = self._attacker_phase(
                    epoch, attacker_pop, elites, evaluator
                )
                attacker_hall = self._update_attacker_hall(
                    attacker_hall, attacker_pop, values
                )
                best_fit, best_attacker = attacker_hall[0]
                next_pop = self._breed_attackers(
                    attacker_pop, values, derive_rng(breed_seeds[epoch])
                )

                # The arms-race scoreboard: the current elite and the
                # epoch-0 elite, both against the current best attacker.
                elite_vs_best = self._duels([*elites[0], best_attacker])
                epoch0_vs_best = self._duels(
                    [*epoch0_elite, best_attacker]
                )

                done = CoevoEpoch(
                    epoch=epoch,
                    panel=[g.to_dict() for g in panel],
                    lock_best=genotype_record(ga.best_genotype),
                    lock_best_fitness=float(ga.best_fitness),
                    lock_hall=[
                        {"fitness": float(f),
                         "genotype": genotype_record(genes)}
                        for f, genes in hall
                    ],
                    attacker_population=[
                        {"fitness": float(v), "genome": g.to_dict()}
                        for g, v in zip(attacker_pop, values)
                    ],
                    attacker_hall=[
                        {"fitness": float(f), "genome": g.to_dict()}
                        for f, g in attacker_hall
                    ],
                    attacker_best=best_attacker.to_dict(),
                    attacker_best_fitness=float(best_fit),
                    elite_vs_best=float(elite_vs_best),
                    epoch0_vs_best=float(epoch0_vs_best),
                    next_attacker_population=[
                        g.to_dict() for g in next_pop
                    ],
                )
            epochs.append(done)
            _LOCK_RESILIENCE.set(done.lock_best_fitness)
            _ATTACKER_ACCURACY.set(1.0 - done.attacker_best_fitness)
            _ARMS_RACE_GAP.set(done.epoch0_vs_best - done.elite_vs_best)
            _EPOCHS_TOTAL.inc(outcome="fresh")
            if self._checkpoints is not None:
                self.store.put_many(
                    self._checkpoints,
                    {_checkpoint_key(epoch): done.to_record()},
                )

            attacker_pop = next_pop
            lock_init = [
                genotype_from_record(entry["genotype"])
                for entry in done.lock_hall
            ]

        last = epochs[-1]
        return CoevoResult(
            epochs=epochs,
            best_lock_genotype=genotype_from_record(last.lock_best),
            best_lock_fitness=last.lock_best_fitness,
            best_attacker=AttackerGenome.from_dict(last.attacker_best),
            best_attacker_fitness=last.attacker_best_fitness,
            fresh_evaluations=(
                self.fresh_evaluations + self._duels.evaluations
            ),
            # Every fitness cache of the run is one of these.
            cache_hits=sum(cache.hits for cache in self._caches.values()),
            replayed_epochs=replayed,
        )

