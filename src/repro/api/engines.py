"""Search-engine adapters: one ``run(spec, circuit, evaluator, store)``.

Each adapter translates an :class:`~repro.api.spec.ExperimentSpec` into
one concrete search engine's configuration, runs it on the evaluator
and the experiment store ``run_experiment`` hands it (the run's owner
opens and closes both; the store is None when the spec sets no
``cache_path``, which keeps every cache in memory), and normalises the
outcome into an :class:`EngineOutcome` (champion genotype and locked
design, evaluation accounting, JSON-safe record).
The adapters register themselves under the engine registry, so
``run_experiment`` — and any sweep over the ``engine`` axis, like the
E11 heuristic comparison — never dispatches on concrete classes.

Scalar engines score genotypes with
:class:`~repro.ec.fitness.SpecFitness` — the registry-driven oracle any
registered attack can back (re-exported here for convenience).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.coevo.engine import CoevoEngine
from repro.coevo.genome import baseline_genome
from repro.ec.alternatives import HillClimber, RandomSearch, SimulatedAnnealing
from repro.ec.autolock import AutoLock, AutoLockConfig
from repro.ec.evaluator import Evaluator
from repro.ec.fitness import (
    DEFAULT_ATTACK_SEED,
    FitnessCache,
    MultiObjectiveFitness,
    SpecFitness,
    cache_namespace,
)
from repro.ec.ga import GaConfig, GeneticAlgorithm
from repro.ec.nsga2 import Nsga2, Nsga2Config
from repro.errors import SpecError
from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import (  # noqa: F401 - re-exported
    genotype_from_record,
    genotype_record,
    lock_with_genes,
)
from repro.locking.primitives import Gene
from repro.netlist.netlist import Netlist
from repro.registry import register_engine


def _attack_seed(spec) -> int:
    """The fitness-oracle seed: spec override or the classic default."""
    return spec.attack_seed if spec.attack_seed is not None else DEFAULT_ATTACK_SEED


@dataclass
class EngineOutcome:
    """Normalised result of one engine run.

    ``record`` is the JSON-safe summary written to run artifacts; ``raw``
    keeps the engine's native result object (GaResult, AutoLockResult,
    Nsga2Result, CoevoResult, SearchResult) for programmatic consumers
    like the benchmarks.
    """

    engine: str
    best_genotype: list[Gene] | None
    best_fitness: float | None
    locked: LockedCircuit | None
    fresh_evaluations: int
    cache_hits: int
    record: dict[str, Any] = field(default_factory=dict)
    raw: Any = None


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------
def _config_from_params(
    config_cls, params: dict[str, Any], *, reserved: tuple[str, ...], kind: str,
    **fixed,
):
    """Build a config dataclass from spec engine_params, strictly.

    ``reserved`` names (key_length, seed, …) come from the spec itself
    and may not be overridden; unknown names raise :class:`SpecError`
    listing the accepted ones.
    """
    _check_params(
        params, {f.name for f in dataclasses.fields(config_cls)},
        reserved=reserved, kind=kind,
    )
    return config_cls(**fixed, **params)


def _check_params(
    params: dict[str, Any], names, *, reserved: tuple[str, ...], kind: str
) -> None:
    """Reject engine_params that override spec-level fields or that the
    engine does not accept (:class:`SpecError` listing the accepted)."""
    clash = set(params) & set(reserved)
    if clash:
        raise SpecError(
            f"{kind} engine_params may not override spec-level fields: "
            f"{sorted(clash)}"
        )
    unknown = set(params) - set(names)
    if unknown:
        raise SpecError(
            f"unknown {kind} engine_params: {sorted(unknown)}; "
            f"accepted: {sorted(set(names) - set(reserved))}"
        )


def _fitness_cache(
    spec, circuit: Netlist, attack_seed: int, store
) -> FitnessCache:
    """Namespaced fitness cache for a spec-driven engine on ``store``."""
    return FitnessCache(
        backend=store,
        namespace=cache_namespace(
            circuit.name,
            role="fitness",
            attack=spec.attack,
            attack_seed=attack_seed,
            **spec.attack_params,
        ),
    )


def _spec_fitness(
    spec, circuit: Netlist, attack_seed: int, store
) -> SpecFitness:
    if spec.attack is None:
        raise SpecError(
            f"engine {spec.engine!r} needs an attack oracle; set spec.attack"
        )
    return SpecFitness(
        circuit,
        attack=spec.attack,
        attack_params=spec.attack_params,
        attack_seed=attack_seed,
        cache=_fitness_cache(spec, circuit, attack_seed, store),
    )


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------
@register_engine("ga")
class GaEngine:
    """Single-objective generational GA (`repro.ec.ga`)."""

    name = "ga"

    def run(self, spec, circuit: Netlist, evaluator: Evaluator, store
            ) -> EngineOutcome:
        config = _config_from_params(
            GaConfig, dict(spec.engine_params),
            reserved=("key_length", "seed", "async_mode", "alphabet"),
            kind="ga",
            key_length=spec.key_length, seed=spec.seed,
            async_mode=spec.resolved_async_mode(),
            alphabet=spec.alphabet,
        )
        fitness = _spec_fitness(spec, circuit, _attack_seed(spec), store)
        result = GeneticAlgorithm(config).run(
            circuit, fitness, evaluator=evaluator
        )
        locked = lock_with_genes(circuit, result.best_genotype)
        return EngineOutcome(
            engine=self.name,
            best_genotype=result.best_genotype,
            best_fitness=result.best_fitness,
            locked=locked,
            fresh_evaluations=fitness.evaluations,
            cache_hits=fitness.cache.hits,
            record={
                "best_fitness": result.best_fitness,
                "initial_best": result.initial_best,
                "evaluations": result.evaluations,
                "stopped_early": result.stopped_early,
                "best_genotype": genotype_record(result.best_genotype),
                "history": [
                    {
                        "generation": s.generation,
                        "best": s.best,
                        "mean": s.mean,
                        "std": s.std,
                        "cache_hits": s.cache_hits,
                        "cache_misses": s.cache_misses,
                        "eval_wall_s": s.eval_wall_s,
                    }
                    for s in result.history
                ],
            },
            raw=result,
        )


@register_engine("autolock")
class AutoLockEngine:
    """The full AutoLock pipeline (GA + independent report evaluation)."""

    name = "autolock"

    def run(self, spec, circuit: Netlist, evaluator: Evaluator, store
            ) -> EngineOutcome:
        if spec.attack not in (None, "muxlink"):
            raise SpecError(
                "the autolock engine is the paper's MuxLink-driven pipeline; "
                f"attack {spec.attack!r} is not supported — use engine='ga' "
                "with any registered attack as the oracle instead"
            )
        # The pipeline derives its oracle seeds from spec.seed and only
        # understands the predictor/ensemble attack knobs; reject anything
        # it would silently ignore, since every spec field feeds the
        # fingerprint and an inert knob would cause false cache misses.
        if spec.attack_seed is not None:
            raise SpecError(
                "the autolock engine derives attack seeds from spec.seed; "
                "attack_seed would have no effect — leave it unset"
            )
        unsupported = set(spec.attack_params) - {"predictor", "ensemble"}
        if unsupported:
            raise SpecError(
                f"autolock attack_params {sorted(unsupported)} have no "
                "effect on this engine; supported: predictor, ensemble"
            )
        params = dict(spec.engine_params)
        # The spec's attack block configures the fitness oracle unless the
        # engine_params override it explicitly.
        attack_params = dict(spec.attack_params)
        params.setdefault(
            "fitness_predictor", attack_params.get("predictor", "mlp")
        )
        params.setdefault("fitness_ensemble", attack_params.get("ensemble", 1))
        config = _config_from_params(
            AutoLockConfig, params,
            reserved=("key_length", "seed", "workers", "cache_path",
                      "async_mode", "alphabet"),
            kind="autolock",
            key_length=spec.key_length, seed=spec.seed,
            async_mode=spec.resolved_async_mode(),
            alphabet=spec.alphabet,
        )
        result = AutoLock(config).run(
            circuit, evaluator=evaluator, store=store
        )
        fresh = result.fitness_evaluations + result.report_evaluations
        hits = result.cache_hits + result.report_cache_hits
        return EngineOutcome(
            engine=self.name,
            best_genotype=result.ga.best_genotype,
            best_fitness=result.ga.best_fitness,
            locked=result.locked,
            fresh_evaluations=fresh,
            cache_hits=hits,
            record={
                "best_genotype": genotype_record(result.ga.best_genotype),
                "baseline_accuracy": result.baseline_accuracy,
                "evolved_accuracy": result.evolved_accuracy,
                "accuracy_drop_pp": result.accuracy_drop_pp,
                "best_fitness": result.ga.best_fitness,
                "initial_best": result.ga.initial_best,
                "evaluations": result.ga.evaluations,
                "fitness_evaluations": result.fitness_evaluations,
                "report_evaluations": result.report_evaluations,
                "baseline_population_accuracies":
                    result.baseline_population_accuracies,
            },
            raw=result,
        )


@register_engine("nsga2")
class Nsga2Engine:
    """NSGA-II multi-objective engine; champion = best-security point."""

    name = "nsga2"

    def run(self, spec, circuit: Netlist, evaluator: Evaluator, store
            ) -> EngineOutcome:
        if spec.attack not in (None, "muxlink"):
            raise SpecError(
                "the nsga2 engine scores security with the MuxLink objective; "
                f"attack {spec.attack!r} is not supported"
            )
        params = dict(spec.engine_params)
        attack_seed = _attack_seed(spec)
        objectives = tuple(
            params.pop("objectives", ("muxlink", "depth", "corruption"))
        )
        fitness_kwargs = {
            key: params.pop(key)
            for key in ("corruption_patterns", "corruption_keys")
            if key in params
        }
        config = _config_from_params(
            Nsga2Config, params,
            reserved=("key_length", "seed", "async_mode", "alphabet"),
            kind="nsga2",
            key_length=spec.key_length, seed=spec.seed,
            async_mode=spec.resolved_async_mode(),
            alphabet=spec.alphabet,
        )
        # Every attack_params entry beyond the predictor choice is forwarded
        # to the MuxLink predictor (epochs, ensemble, ...) so the fingerprint
        # and cache namespace never label values the run didn't use.
        predictor_kwargs = dict(spec.attack_params)
        predictor = predictor_kwargs.pop("predictor", "mlp")
        fitness = MultiObjectiveFitness(
            circuit,
            predictor=predictor,
            objectives=objectives,
            attack_seed=attack_seed,
            cache=FitnessCache(
                backend=store,
                namespace=cache_namespace(
                    circuit.name,
                    role="nsga2",
                    objectives="+".join(objectives),
                    attack_seed=attack_seed,
                    **spec.attack_params,
                ),
            ),
            **fitness_kwargs,
            **predictor_kwargs,
        )
        result = Nsga2(config).run(circuit, fitness, evaluator=evaluator)
        champion_idx = min(
            range(len(result.front_objectives)),
            key=lambda i: result.front_objectives[i],
        )
        champion = result.front_genotypes[champion_idx]
        return EngineOutcome(
            engine=self.name,
            best_genotype=champion,
            best_fitness=result.front_objectives[champion_idx][0],
            locked=lock_with_genes(circuit, champion),
            fresh_evaluations=fitness.evaluations,
            cache_hits=fitness.cache.hits,
            record={
                "best_genotype": genotype_record(champion),
                "objectives": list(objectives),
                "front_size": len(result.front_objectives),
                "front_objectives": [
                    list(objs) for objs in result.front_objectives
                ],
                "evaluations": result.evaluations,
            },
            raw=result,
        )


#: CoevoEngine knobs a coevo spec sets through ``engine_params``.
_COEVO_PARAMS = (
    "epochs", "lock_population", "lock_generations", "attacker_population",
    "elite_size", "panel_size", "hall_size", "mutation_rate",
)


@register_engine("coevo")
class ArmsRaceEngine:
    """Adversarial co-evolution (`repro.coevo`): lock GA vs attacker panel.

    ``spec.attack`` + ``spec.attack_params`` override the epoch-0
    attacker genome (:func:`~repro.coevo.genome.baseline_genome`); the
    champion is the final epoch's lock elite. On the run's store every
    finished epoch checkpoints under the spec fingerprint, so an
    interrupted run resumes at the first unfinished epoch.
    """

    name = "coevo"

    def run(self, spec, circuit: Netlist, evaluator: Evaluator, store
            ) -> EngineOutcome:
        if spec.resolved_async_mode():
            raise SpecError(
                "the coevo engine runs its lock GA sync-generational so "
                "records are independent of the worker count; set "
                "async_mode=false"
            )
        if spec.attack is None or "attack" in spec.attack_params:
            raise SpecError(
                "the coevo engine takes its baseline attack from spec.attack "
                "and the other attacker-genome fields from attack_params"
            )
        _check_params(
            spec.engine_params, _COEVO_PARAMS,
            reserved=("key_length", "seed", "attack_seed", "alphabet",
                      "async_mode", "workers", "cache_path"),
            kind="coevo",
        )
        baseline = baseline_genome({**spec.attack_params, "attack": spec.attack})
        result = CoevoEngine(
            circuit,
            key_length=spec.key_length,
            alphabet=spec.alphabet,
            seed=spec.seed,
            attack_seed=_attack_seed(spec),
            baseline=baseline,
            store=store,
            checkpoint_namespace=cache_namespace(
                circuit.name, role="coevo-epochs", spec=spec.fingerprint()
            ),
            **spec.engine_params,
        ).run(evaluator)
        last = result.epochs[-1]
        return EngineOutcome(
            engine=self.name,
            best_genotype=result.best_lock_genotype,
            best_fitness=result.best_lock_fitness,
            locked=lock_with_genes(circuit, result.best_lock_genotype),
            fresh_evaluations=result.fresh_evaluations,
            cache_hits=result.cache_hits,
            record={
                "epochs": [epoch.to_record() for epoch in result.epochs],
                "best_genotype": last.lock_best,
                "best_fitness": result.best_lock_fitness,
                "best_attacker": last.attacker_best,
                "elite_vs_best": last.elite_vs_best,
                "epoch0_vs_best": last.epoch0_vs_best,
                "improvement": result.improvement,
                "replayed_epochs": result.replayed_epochs,
            },
            raw=result,
        )


class TrajectorySearchEngine:
    """Adapter shared by the single-trajectory baselines (E11).

    Wraps :class:`RandomSearch` / :class:`HillClimber` /
    :class:`SimulatedAnnealing` behind the uniform engine interface.
    The searchers always drive the shared search loop's steady-state
    mode, which walks one trajectory per seed on any evaluator: random
    search pipelines on a pool, the sequential searches run one
    evaluation at a time. ``spec.async_mode`` does not change their
    result; its resolved value still feeds the spec fingerprint.
    """

    def __init__(self, searcher_cls) -> None:
        self.searcher_cls = searcher_cls
        self.name = searcher_cls.name

    def run(self, spec, circuit: Netlist, evaluator: Evaluator, store
            ) -> EngineOutcome:
        params = dict(spec.engine_params)
        if "alphabet" in params:
            raise SpecError(
                f"{self.name} engine_params may not set alphabet; "
                "use the spec-level alphabet field"
            )
        try:
            searcher = self.searcher_cls(
                key_length=spec.key_length, seed=spec.seed,
                alphabet=spec.alphabet, **params
            )
        except TypeError as exc:
            raise SpecError(
                f"unknown {self.name} engine_params {sorted(params)}: {exc}"
            ) from exc
        fitness = _spec_fitness(spec, circuit, _attack_seed(spec), store)
        result = searcher.run(circuit, fitness, evaluator=evaluator)
        return EngineOutcome(
            engine=self.name,
            best_genotype=result.best_genotype,
            best_fitness=result.best_fitness,
            locked=lock_with_genes(circuit, result.best_genotype),
            fresh_evaluations=fitness.evaluations,
            cache_hits=fitness.cache.hits,
            record={
                "best_fitness": result.best_fitness,
                "initial_best": result.trajectory[0] if result.trajectory
                else result.best_fitness,
                "evaluations": result.evaluations,
                "best_genotype": genotype_record(result.best_genotype),
            },
            raw=result,
        )


def _trajectory_factory(searcher_cls):
    def factory() -> TrajectorySearchEngine:
        return TrajectorySearchEngine(searcher_cls)

    factory.__qualname__ = f"TrajectorySearchEngine[{searcher_cls.__name__}]"
    return factory


for _searcher in (RandomSearch, HillClimber, SimulatedAnnealing):
    register_engine(_searcher.name, _trajectory_factory(_searcher))
