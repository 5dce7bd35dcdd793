"""Declarative co-evolution: :class:`CoevoSpec` in, arms race out.

The co-evolution counterpart of :mod:`repro.api.spec` /
:mod:`repro.api.runner`: a frozen, JSON-round-trippable spec describing
one arms race (circuit, population sizes, epochs, the attacker baseline
genome), a deterministic fingerprint over the result-determining fields,
and :func:`run_coevo`, which executes the
:class:`~repro.coevo.engine.CoevoEngine` with the standard store
plumbing. With a ``cache_path`` set, every finished epoch checkpoints to
the store and a finished run's record memoises under the ``coevo``
namespace — re-running the same spec replays with zero fresh
evaluations, and an interrupted run resumes at the first unfinished
epoch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.api.artifacts import RunWriter, json_safe
from repro.api.runner import _strip_nondeterministic
from repro.api.spec import (
    _EXECUTION_FIELDS,
    _frozen_params,
    _parse_json,
    _read_spec_file,
)
from repro.circuits import known_circuit, load_circuit
from repro.coevo.engine import CoevoEngine, CoevoResult
from repro.coevo.genome import AttackerGenome, baseline_genome
from repro.ec.evaluator import Evaluator, evaluator_scope
from repro.ec.fitness import DEFAULT_ATTACK_SEED, FitnessCache, cache_namespace
from repro.errors import LockingError, SpecError
from repro.locking.primitives import (
    DEFAULT_ALPHABET,
    normalize_alphabet,
    resolve_alphabet,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

_COEVO_RUNS = obs_metrics.METRICS.counter(
    "autolock_coevo_runs_total",
    "Co-evolution runs executed, by cache outcome",
    labels=("outcome",),
)
_COEVO_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_coevo_run_seconds",
    "End-to-end co-evolution run wall time",
)

#: cache namespace holding finished co-evolution run records, keyed by
#: spec fingerprint (the co-evolution sibling of ``experiment``).
COEVO_NAMESPACE = "coevo"

#: run-record keys that vary without changing the result (cache warmth,
#: resume accounting) — stripped before the record is memoised, exactly
#: like the runner's experiment records.
_COEVO_NONDETERMINISTIC_KEYS = ("replayed_epochs",)


@dataclass(frozen=True)
class CoevoSpec:
    """One adversarial co-evolution run, fully described.

    The lock side is configured like a GA engine spec (population,
    generations per epoch, alphabet, seed); the attacker side by the
    ``attacker`` dict — overrides applied to the default
    :func:`~repro.coevo.genome.baseline_genome`, validated against
    :data:`~repro.coevo.genome.GENOME_FIELDS` with the same unknown-field
    / unknown-registry-name error contract as every other spec.
    """

    circuit: str
    key_length: int = 16
    epochs: int = 3
    lock_population: int = 8
    lock_generations: int = 4
    attacker_population: int = 6
    elite_size: int = 2
    panel_size: int = 2
    hall_size: int = 4
    #: baseline attacker-genome overrides (``GENOME_FIELDS`` names).
    attacker: dict[str, Any] = field(default_factory=dict)
    mutation_rate: float = 0.35
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET
    seed: int = 0
    #: ``None`` means the shared fitness default (``DEFAULT_ATTACK_SEED``).
    attack_seed: int | None = None
    workers: int = 1
    cache_path: str | None = None
    tag: str = ""
    trace: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "attacker", _frozen_params(self.attacker))
        try:
            object.__setattr__(self, "alphabet", normalize_alphabet(self.alphabet))
        except LockingError as exc:
            raise SpecError(str(exc)) from exc
        if self.cache_path is not None:
            object.__setattr__(self, "cache_path", str(self.cache_path))
        if self.trace is not None:
            object.__setattr__(self, "trace", str(self.trace))

    # -- validation -----------------------------------------------------
    def validate(self) -> "CoevoSpec":
        """Check names and ranges; returns ``self``.

        Unknown attacker-genome fields raise :class:`SpecError` listing
        the genome vocabulary; unknown attack / predictor names raise
        :class:`~repro.errors.RegistryError` listing the registry — both
        reach the CLI's standard exit-2 error path.
        """
        if not known_circuit(self.circuit):
            from repro.circuits import available_circuits

            raise SpecError(
                f"unknown circuit {self.circuit!r}; available: "
                f"{', '.join(available_circuits())} or rand_<gates>_<seed>"
            )
        for name, low in (
            ("key_length", 1), ("epochs", 1), ("lock_population", 2),
            ("lock_generations", 1), ("attacker_population", 2),
            ("elite_size", 1), ("panel_size", 1), ("workers", 1),
        ):
            if getattr(self, name) < low:
                raise SpecError(
                    f"{name} must be >= {low}, got {getattr(self, name)}"
                )
        if self.elite_size > 5:
            raise SpecError(
                f"elite_size must be <= 5 (the GA hall keeps 5 entries), "
                f"got {self.elite_size}"
            )
        if self.hall_size < self.panel_size:
            raise SpecError(
                f"hall_size ({self.hall_size}) must be >= panel_size "
                f"({self.panel_size})"
            )
        if not 0.0 < self.mutation_rate <= 1.0:
            raise SpecError(
                f"mutation_rate must be in (0, 1], got {self.mutation_rate}"
            )
        try:
            resolve_alphabet(self.alphabet)
        except LockingError as exc:
            raise SpecError(str(exc)) from exc
        # Unknown fields -> SpecError; unknown attack/predictor names ->
        # RegistryError listing the registry.
        self.baseline()
        return self

    # -- derivation -----------------------------------------------------
    def with_updates(self, **updates: Any) -> "CoevoSpec":
        """A copy with ``updates`` applied (unknown fields rejected)."""
        unknown = set(updates) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise SpecError(f"unknown CoevoSpec fields: {sorted(unknown)}")
        return dataclasses.replace(self, **updates)

    def baseline(self) -> AttackerGenome:
        """The epoch-0 attacker genome (defaults + overrides, validated)."""
        return baseline_genome(self.attacker)

    def resolved_attack_seed(self) -> int:
        return (
            self.attack_seed
            if self.attack_seed is not None
            else DEFAULT_ATTACK_SEED
        )

    def resolved_alphabet(self) -> tuple[str, ...]:
        return tuple(self.alphabet)

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["alphabet"] = list(self.alphabet)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CoevoSpec":
        """Build a spec from a dict, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise SpecError(f"coevo spec must be a JSON object, got {data!r}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise SpecError(
                f"unknown CoevoSpec fields: {sorted(unknown)}; "
                f"known fields: {sorted(names)}"
            )
        if "circuit" not in data:
            raise SpecError("coevo spec needs at least a 'circuit'")
        return cls(**dict(data))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoevoSpec":
        return cls.from_dict(_parse_json(text, "coevo spec"))

    @classmethod
    def from_file(cls, path: str | Path) -> "CoevoSpec":
        return cls.from_json(_read_spec_file(path, "coevo spec"))

    # -- identity -------------------------------------------------------
    def deterministic_dict(self) -> dict[str, Any]:
        """The spec minus execution-only fields, attacker resolved.

        The ``attacker`` overrides are recorded as the *resolved* full
        genome dict, so two spellings of the same baseline (explicit
        default vs elided) share a fingerprint; ``attack_seed`` is
        likewise resolved, and the default alphabet is elided like
        ``ExperimentSpec``.
        """
        data = self.to_dict()
        for key in _EXECUTION_FIELDS:
            data.pop(key, None)
        data["attacker"] = self.baseline().to_dict()
        data["attack_seed"] = self.resolved_attack_seed()
        resolved = self.resolved_alphabet()
        if resolved == DEFAULT_ALPHABET:
            data.pop("alphabet", None)
        else:
            data["alphabet"] = list(resolved)
        return data

    def fingerprint(self) -> str:
        """Stable hex digest of every result-determining field."""
        canonical = json.dumps(
            self.deterministic_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def describe(self) -> str:
        parts = [
            f"circuit={self.circuit}", f"K={self.key_length}",
            f"epochs={self.epochs}",
            f"locks={self.lock_population}x{self.lock_generations}",
            f"attackers={self.attacker_population}",
            f"baseline={self.baseline().attack}",
        ]
        if self.resolved_alphabet() != DEFAULT_ALPHABET:
            parts.append(f"alphabet={','.join(self.resolved_alphabet())}")
        if self.tag:
            parts.append(f"tag={self.tag}")
        return " ".join(parts)


@dataclass
class CoevoRunResult:
    """Everything one co-evolution run produced.

    ``record`` is the JSON-safe summary (the artifact payload);
    ``result`` keeps the live :class:`~repro.coevo.engine.CoevoResult`
    (``None`` when the run was replayed from the store memo).
    """

    spec: CoevoSpec
    record: dict[str, Any]
    result: CoevoResult | None = None
    fresh_evaluations: int = 0
    cache_hits: int = 0
    runtime_s: float = 0.0
    from_cache: bool = False
    results_path: Path | None = None
    manifest_path: Path | None = None

    @property
    def fingerprint(self) -> str:
        return self.record["fingerprint"]

    @property
    def improvement(self) -> float:
        """Final arms-race gap (positive = the lock side hardened)."""
        return float(self.record["improvement"])

    def describe(self) -> str:
        parts = [f"[{self.fingerprint[:8]}]", self.spec.describe()]
        parts.append(f"elite_vs_best={self.record['elite_vs_best']:.3f}")
        parts.append(f"improvement={self.record['improvement']:+.3f}")
        parts.append(f"best_attacker={self.record['best_attacker']['attack']}")
        parts.append(f"fresh={self.fresh_evaluations}")
        if self.from_cache:
            parts.append("(cached)")
        return " ".join(parts)


def _memo_key(spec: CoevoSpec) -> tuple:
    return (("spec", spec.fingerprint()),)


def run_coevo(
    spec: CoevoSpec,
    *,
    out_dir: str | Path | None = None,
    evaluator: Evaluator | None = None,
) -> CoevoRunResult:
    """Run (or replay/resume) one co-evolution spec.

    ``evaluator`` injects a shared population evaluator (the caller owns
    its lifetime); by default the spec's ``workers`` decide between the
    in-process evaluator and one process pool shared by both sides of
    every epoch. ``out_dir`` writes one JSONL line per epoch (both
    populations, both halls) plus a manifest.
    """
    spec.validate()
    with obs_trace.tracing(spec.trace):
        with obs_trace.span("coevo") as span:
            if obs_trace.enabled():
                span.set(
                    fingerprint=spec.fingerprint(),
                    circuit=spec.circuit,
                    epochs=spec.epochs,
                    tag=spec.tag,
                )
            return _execute_coevo(spec, out_dir=out_dir, evaluator=evaluator)


def _execute_coevo(
    spec: CoevoSpec,
    *,
    out_dir: str | Path | None,
    evaluator: Evaluator | None,
) -> CoevoRunResult:
    started = time.perf_counter()
    fingerprint = spec.fingerprint()

    # One open store object shared by every cache of this run (run memo,
    # epoch checkpoints, both fitness namespaces, duels).
    store_obj = None
    run_memo: FitnessCache | None = None
    if spec.cache_path is not None:
        from repro.store import open_store

        store_obj = open_store(spec.cache_path)
        run_memo = FitnessCache(
            path=spec.cache_path, backend=store_obj, namespace=COEVO_NAMESPACE
        )

    key = _memo_key(spec)
    if run_memo is not None:
        cached = run_memo.get(key)
        if cached is not None:
            record = dict(cached)
            record["from_cache"] = True
            record["fresh_evaluations"] = 0
            record["cache_hits"] = 0
            record["replayed_epochs"] = len(record.get("epochs", []))
            record["runtime_s"] = time.perf_counter() - started
            record["tag"] = spec.tag
            result = CoevoRunResult(
                spec=spec,
                record=record,
                runtime_s=record["runtime_s"],
                from_cache=True,
            )
            _COEVO_RUNS.inc(outcome="replayed")
            _COEVO_SECONDS.observe(result.runtime_s)
            _write_coevo_artifacts(result, out_dir)
            return result

    circuit = load_circuit(spec.circuit)

    if spec.cache_path is not None:
        def cache_factory(namespace: str) -> FitnessCache:
            return FitnessCache(
                path=spec.cache_path, backend=store_obj, namespace=namespace
            )
        epoch_memo = cache_factory(
            cache_namespace(circuit.name, role="coevo-epochs", spec=fingerprint)
        )
    else:
        def cache_factory(namespace: str) -> FitnessCache:
            return FitnessCache(namespace=namespace)
        epoch_memo = None

    engine = CoevoEngine(
        circuit,
        key_length=spec.key_length,
        epochs=spec.epochs,
        lock_population=spec.lock_population,
        lock_generations=spec.lock_generations,
        attacker_population=spec.attacker_population,
        elite_size=spec.elite_size,
        panel_size=spec.panel_size,
        hall_size=spec.hall_size,
        alphabet=spec.resolved_alphabet(),
        seed=spec.seed,
        attack_seed=spec.resolved_attack_seed(),
        baseline=spec.baseline(),
        mutation_rate=spec.mutation_rate,
        cache_factory=cache_factory,
        memo=epoch_memo,
    )

    with evaluator_scope(evaluator, spec.workers) as evaluator:
        outcome = engine.run(evaluator)

    last = outcome.epochs[-1]
    runtime_s = time.perf_counter() - started
    record: dict[str, Any] = {
        "fingerprint": fingerprint,
        "tag": spec.tag,
        "kind": "coevo",
        "spec": spec.deterministic_dict(),
        "epochs": [epoch.to_record() for epoch in outcome.epochs],
        "best_lock": last.lock_best,
        "best_lock_fitness": outcome.best_lock_fitness,
        "best_attacker": last.attacker_best,
        "best_attacker_fitness": outcome.best_attacker_fitness,
        "elite_vs_best": last.elite_vs_best,
        "epoch0_vs_best": last.epoch0_vs_best,
        "improvement": outcome.improvement,
        "fresh_evaluations": outcome.fresh_evaluations,
        "cache_hits": outcome.cache_hits,
        "replayed_epochs": outcome.replayed_epochs,
        "runtime_s": runtime_s,
        "from_cache": False,
    }
    result = CoevoRunResult(
        spec=spec,
        record=record,
        result=outcome,
        fresh_evaluations=outcome.fresh_evaluations,
        cache_hits=outcome.cache_hits,
        runtime_s=runtime_s,
    )
    _COEVO_RUNS.inc(outcome="fresh")
    _COEVO_SECONDS.observe(runtime_s)
    if run_memo is not None:
        stored = _strip_nondeterministic(record)
        for extra_key in _COEVO_NONDETERMINISTIC_KEYS:
            stored.pop(extra_key, None)
        run_memo.put(key, json_safe(stored))
    _write_coevo_artifacts(result, out_dir)
    return result


def _write_coevo_artifacts(
    result: CoevoRunResult, out_dir: str | Path | None
) -> None:
    if out_dir is None:
        return
    writer = RunWriter(out_dir, name=f"coevo-{result.fingerprint[:8]}")
    # One JSONL line per epoch — both populations, both halls — then the
    # run summary (sans the bulky epoch list) as the final line.
    for epoch in result.record.get("epochs", []):
        writer.write({"kind": "coevo-epoch", **epoch})
    summary = {k: v for k, v in result.record.items() if k != "epochs"}
    writer.write({**summary, "kind": "coevo-summary"})
    result.manifest_path = writer.finalize(
        spec=result.spec.to_dict(),
        fingerprint=result.fingerprint,
        epochs=len(result.record.get("epochs", [])),
        improvement=result.record.get("improvement"),
        fresh_evaluations=result.fresh_evaluations,
        from_cache=result.from_cache,
    )
    result.results_path = writer.results_path
    result.record["manifest"] = str(result.manifest_path)
