"""The declarative experiment runner: spec in, result + artifacts out.

``run_experiment`` executes one :class:`~repro.api.spec.ExperimentSpec`:

* **static** (``engine=None``) — lock the circuit with the named scheme,
  optionally run the named attack once;
* **engine** — hand the spec to the registered search-engine adapter,
  which evolves a locking with the attack as fitness oracle, on the
  evaluator the runner opens for it (or the one a sweep injects).

Either way the named metrics run on the final locked design and the
whole outcome lands in a JSON-safe record. Results are deterministic
functions of the spec's :meth:`~repro.api.spec.ExperimentSpec.fingerprint`
(execution knobs excluded), which enables the *experiment-level* cache:
with a ``cache_path`` set, a finished spec's record persists under the
``experiment`` namespace of the run's experiment store (key
:func:`record_key`), next to the per-genotype fitness namespaces, and
re-running the same spec replays the record with **zero** fresh attack
evaluations. The run's owner — ``run_experiment`` unless a store is
injected, ``run_sweep``, a :mod:`repro.dist` worker — opens that store
once and closes it; every cache, record and checkpoint of the run uses
the one handle.

``run_sweep`` expands a :class:`~repro.api.spec.SweepSpec` and runs
every point through **one shared evaluator** (a single process pool for
``workers >= 2``) and one shared experiment store, writing a JSONL
stream plus manifest via :mod:`repro.api.artifacts`. It is the one code
path that turns sweep points into records, artifacts and a
:class:`SweepResult`: a distributed sweep first has
:mod:`repro.dist` workers store every point's record, then replays them
through the same point loop.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api.artifacts import RunWriter, json_safe
from repro.api.engines import EngineOutcome
from repro.api.spec import ExperimentSpec, SweepSpec
from repro.attacks.base import AttackReport
from repro.circuits import load_circuit
from repro.ec.evaluator import AsyncEvaluator, Evaluator, open_evaluator
from repro.errors import SpecError
from repro.locking.base import LockedCircuit
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.registry import METRICS, create_attack, create_engine, create_scheme

_RUNS = obs_metrics.METRICS.counter(
    "autolock_experiments_total",
    "Experiments executed, by kind and cache outcome",
    labels=("kind", "outcome"),
)
_RUN_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_experiment_seconds",
    "End-to-end experiment wall time",
    labels=("kind",),
)

#: cache namespace holding finished experiment records, keyed by spec
#: fingerprint — shares the on-disk file with the per-genotype fitness
#: namespaces.
EXPERIMENT_NAMESPACE = "experiment"

#: record keys that vary run-to-run without changing the result; stripped
#: by :meth:`RunResult.deterministic_record` (any ``*_s`` timing field
#: plus cache provenance and cache-warmth accounting — hit/miss/fresh
#: counters and the coevo engine's resumed-epoch count depend on which
#: runs already populated the shared store, not on what the experiment
#: computed).
_NONDETERMINISTIC_KEYS = (
    "from_cache",
    "fresh_evaluations",
    "cache_hits",
    "cache_misses",
    "fitness_evaluations",
    "report_evaluations",
    "replayed_epochs",
)


def record_key(spec: ExperimentSpec) -> str:
    """The key of ``spec``'s record in the ``experiment`` namespace."""
    return json.dumps([["spec", spec.fingerprint()]], separators=(",", ":"))


def _strip_nondeterministic(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            k: _strip_nondeterministic(v)
            for k, v in value.items()
            if not (k.endswith("_s") or k in _NONDETERMINISTIC_KEYS)
        }
    if isinstance(value, list):
        return [_strip_nondeterministic(v) for v in value]
    return value


@dataclass
class RunResult:
    """Everything one experiment produced.

    ``record`` is the JSON-safe summary (what artifacts store);
    ``locked`` / ``attack_report`` / ``engine_outcome`` keep the live
    objects for programmatic consumers — they are ``None`` when the
    result was replayed from the experiment cache.
    """

    spec: ExperimentSpec
    record: dict[str, Any]
    locked: LockedCircuit | None = None
    attack_report: AttackReport | None = None
    engine_outcome: EngineOutcome | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    fresh_evaluations: int = 0
    cache_hits: int = 0
    runtime_s: float = 0.0
    from_cache: bool = False

    @property
    def engine_result(self) -> Any:
        """The engine's native result object (GaResult, AutoLockResult, …)."""
        return self.engine_outcome.raw if self.engine_outcome else None

    @property
    def fingerprint(self) -> str:
        return self.record["fingerprint"]

    def deterministic_record(self) -> dict[str, Any]:
        """The record minus timing/provenance — equal across identical specs."""
        return _strip_nondeterministic(self.record)

    def rebuild_locked(self) -> LockedCircuit:
        """The final locked design, rebuilt from the record if needed.

        Cache-replayed results carry no live objects; engine records
        store the champion genotype and static specs are deterministic,
        so the design can always be reconstructed.
        """
        if self.locked is not None:
            return self.locked
        from repro.locking.genome_lock import (
            genotype_from_record,
            lock_with_genes,
        )

        circuit = load_circuit(self.spec.circuit)
        engine_record = self.record.get("engine") or {}
        genes = genotype_from_record(engine_record.get("best_genotype"))
        if genes is not None:
            self.locked = lock_with_genes(circuit, genes)
        elif self.spec.engine is None:
            scheme = create_scheme(self.spec.scheme, **self.spec.scheme_params)
            self.locked = scheme.lock(
                circuit, self.spec.key_length, seed_or_rng=self.spec.seed
            )
        else:
            raise SpecError(
                "cached engine record carries no champion genotype; "
                "re-run without the experiment cache"
            )
        return self.locked

    def describe(self) -> str:
        """One-line summary for CLI output."""
        parts = [f"[{self.fingerprint[:8]}]", self.spec.describe()]
        attack = self.record.get("attack")
        if attack:
            parts.append(f"acc={attack['accuracy']:.3f}")
        engine = self.record.get("engine")
        if engine and "best_fitness" in engine:
            parts.append(f"best={engine['best_fitness']:.3f}")
        if engine and "accuracy_drop_pp" in engine:
            parts.append(f"drop={engine['accuracy_drop_pp']:+.1f}pp")
        if self.record.get("async_mode"):
            parts.append("loop=async")
        parts.append(f"fresh={self.fresh_evaluations}")
        if self.from_cache:
            parts.append("(cached)")
        return " ".join(parts)


def _attack_record(report: AttackReport) -> dict[str, Any]:
    return {
        "name": report.attack,
        "accuracy": report.accuracy,
        "precision": report.precision,
        "coverage": report.score.coverage,
        "runtime_s": report.runtime_s,
        "extra": {
            k: v
            for k, v in report.extra.items()
            if isinstance(v, (int, float, str, bool))
        },
    }


def run_experiment(
    spec: ExperimentSpec,
    *,
    evaluator: Evaluator | None = None,
    store=None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute one experiment spec; see the module docstring.

    An engine spec runs on ``evaluator`` when one is injected (sweeps
    and distributed workers pass one pool for all points; the caller
    owns its lifetime). Otherwise this is where its evaluator is opened:
    :func:`~repro.ec.evaluator.open_evaluator` sizes it from
    ``spec.workers``, and it is closed when the engine step ends. A
    static spec evaluates no population and opens none.

    ``store`` injects the run's open experiment store the same way
    (sweeps and workers pass theirs and close it themselves). Otherwise,
    when ``spec.cache_path`` is set, the store there is opened here and
    closed when the run ends. The record lookup and write, and every
    fitness cache and checkpoint of an engine run, use that one handle.
    ``out_dir`` additionally writes ``results.jsonl`` +
    ``manifest.json`` artifacts there.

    ``spec.trace`` (when set and no tracer is already active) opens a
    span tracer for the duration of this run; sweeps and workers own the
    tracer instead, so every point lands in one file per process.
    """
    spec.validate()
    with obs_trace.tracing(spec.trace):
        with obs_trace.span("experiment") as span:
            if obs_trace.enabled():
                span.set(
                    fingerprint=spec.fingerprint(), circuit=spec.circuit,
                    kind="engine" if spec.engine else "static",
                    tag=spec.tag,
                )
            if store is None and spec.cache_path is not None:
                # Imported here so importing the runner loads no store.
                from repro.store import open_store

                scope = contextlib.closing(open_store(spec.cache_path))
            else:
                scope = contextlib.nullcontext(store)
            with scope as run_store:
                return _execute_experiment(
                    spec, evaluator=evaluator, store=run_store,
                    out_dir=out_dir,
                )


def _execute_experiment(
    spec: ExperimentSpec,
    *,
    evaluator: Evaluator | None,
    store,
    out_dir: str | Path | None,
) -> RunResult:
    started = time.perf_counter()
    kind = "engine" if spec.engine else "static"

    key = record_key(spec)
    if store is not None:
        cached = store.get(EXPERIMENT_NAMESPACE, key)
        if cached is not None:
            record = dict(cached)
            record["from_cache"] = True
            # Stored records are stripped of warmth counters (see
            # _NONDETERMINISTIC_KEYS); a replay costs nothing by definition.
            record["fresh_evaluations"] = 0
            record["cache_hits"] = 0
            record["runtime_s"] = time.perf_counter() - started
            # The fingerprint excludes the cosmetic tag, so the cached
            # record may carry another label for this experiment.
            record["tag"] = spec.tag
            result = RunResult(
                spec=spec,
                record=record,
                # Replayed metrics are the record's JSON dicts (the live
                # report objects are gone), keeping run.metrics[...] usable.
                metrics=dict(record.get("metrics") or {}),
                fresh_evaluations=0,
                cache_hits=0,
                runtime_s=record["runtime_s"],
                from_cache=True,
            )
            _RUNS.inc(kind=kind, outcome="replayed")
            _RUN_SECONDS.observe(result.runtime_s, kind=kind)
            _write_single_run_artifacts(result, out_dir)
            return result

    with obs_trace.span("experiment.load", circuit=spec.circuit):
        circuit = load_circuit(spec.circuit)
    attack_report: AttackReport | None = None
    outcome: EngineOutcome | None = None
    fresh = hits = 0

    if spec.engine is not None:
        adapter = create_engine(spec.engine)
        scope = (
            open_evaluator(spec.workers) if evaluator is None
            else contextlib.nullcontext(evaluator)
        )
        with obs_trace.span("experiment.engine", engine=spec.engine), \
                scope as engine_evaluator:
            outcome = adapter.run(spec, circuit, engine_evaluator, store)
        locked = outcome.locked
        fresh, hits = outcome.fresh_evaluations, outcome.cache_hits
    else:
        scheme = create_scheme(spec.scheme, **spec.scheme_params)
        with obs_trace.span("experiment.lock", scheme=spec.scheme):
            locked = scheme.lock(
                circuit, spec.key_length, seed_or_rng=spec.seed
            )
        if spec.attack is not None:
            attack = create_attack(spec.attack, **spec.attack_params)
            attack_seed = (
                spec.attack_seed if spec.attack_seed is not None else spec.seed
            )
            with obs_trace.span("experiment.attack", attack=spec.attack):
                attack_report = attack.run(locked, seed_or_rng=attack_seed)
            fresh = 1

    metrics: dict[str, Any] = {}
    if spec.metrics:
        if locked is None:
            raise SpecError(
                f"engine {spec.engine!r} produced no locked design; "
                f"cannot compute metrics {list(spec.metrics)}"
            )
        with obs_trace.span("experiment.metrics"):
            for name in spec.metrics:
                metric = METRICS.get(name)
                metrics[name] = metric(
                    spec, circuit, locked, **spec.metric_params.get(name, {})
                )

    with obs_trace.span("experiment.record"):
        runtime_s = time.perf_counter() - started
        record: dict[str, Any] = {
            "fingerprint": spec.fingerprint(),
            "tag": spec.tag,
            "kind": "engine" if spec.engine else "static",
            # The resolved search-loop mode (None for static specs):
            # recorded so artifacts say which pipeline produced an
            # engine result.
            "async_mode": spec.resolved_async_mode() if spec.engine else None,
            "spec": spec.deterministic_dict(),
            "attack": _attack_record(attack_report) if attack_report else None,
            "engine": dict(outcome.record, engine=outcome.engine)
            if outcome
            else None,
            "metrics": {
                name: json_safe(value) for name, value in metrics.items()
            },
            "fresh_evaluations": fresh,
            "cache_hits": hits,
            "runtime_s": runtime_s,
            "from_cache": False,
        }
        result = RunResult(
            spec=spec,
            record=record,
            locked=locked,
            attack_report=attack_report,
            engine_outcome=outcome,
            metrics=metrics,
            fresh_evaluations=fresh,
            cache_hits=hits,
            runtime_s=runtime_s,
        )
        _RUNS.inc(kind=kind, outcome="fresh")
        _RUN_SECONDS.observe(runtime_s, kind=kind)
        if store is not None:
            store.put_many(
                EXPERIMENT_NAMESPACE,
                {key: json_safe(result.deterministic_record())},
            )
        _write_single_run_artifacts(result, out_dir)
    return result


def _write_single_run_artifacts(
    result: RunResult, out_dir: str | Path | None
) -> None:
    if out_dir is None:
        return
    writer = RunWriter(out_dir, name=f"run-{result.fingerprint[:8]}")
    writer.write(result.record)
    manifest = writer.finalize(
        spec=result.spec.to_dict(),
        fingerprint=result.fingerprint,
        fresh_evaluations=result.fresh_evaluations,
        async_mode=(
            result.spec.resolved_async_mode() if result.spec.engine else None
        ),
    )
    result.record["manifest"] = str(manifest)


@dataclass
class SweepResult:
    """All points of one sweep plus artifact locations.

    For a distributed run, ``distributed`` carries the scheduler's
    accounting (worker count, queue counts, fresh evaluations measured at
    the workers) — the per-point ``results`` are replayed from the
    store's records, so their own counters say nothing about what the
    workers actually computed.
    """

    sweep: SweepSpec
    results: list[RunResult]
    results_path: Path | None = None
    manifest_path: Path | None = None
    distributed: dict[str, Any] | None = None

    @property
    def fresh_evaluations(self) -> int:
        if self.distributed is not None:
            return int(self.distributed.get("fresh_evaluations", 0))
        return sum(r.fresh_evaluations for r in self.results)

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def n_from_cache(self) -> int:
        if self.distributed is not None:
            return int(self.distributed.get("replayed_from_cache", 0))
        return sum(1 for r in self.results if r.from_cache)

    def records(self) -> list[dict[str, Any]]:
        return [r.record for r in self.results]


def run_sweep(
    sweep: SweepSpec,
    *,
    out_dir: str | Path | None = None,
    evaluator: Evaluator | None = None,
    distributed: int | None = None,
    resume: bool = True,
) -> SweepResult:
    """Expand ``sweep`` and run every point through one shared backend.

    All points share a single population evaluator — one process pool
    when a point asks for ``workers >= 2`` — and, when ``cache_path``
    is set, one experiment store, opened here once and closed when the
    sweep ends, carrying both per-genotype fitness namespaces and
    finished experiment records. Re-running a sweep with a
    warm cache replays every unchanged point with zero fresh attack
    evaluations. Points execute sequentially (parallelism lives inside
    the population evaluation, where the attack work is) — unless
    ``distributed`` asks for *point-level* parallelism: ``distributed=N``
    first lets a :class:`~repro.dist.SweepScheduler` run every point on
    N local worker processes over the store's ``sweep_points`` work
    queue, and the point loop below then replays each stored record in
    expansion order. ``resume=False`` reschedules previously finished
    queue rows instead of trusting them (their cached experiment records
    still replay — only the bookkeeping restarts).
    """
    specs = sweep.expand()
    for spec in specs:
        spec.validate()
    scheduler = None
    if distributed is not None and distributed >= 1:
        from repro.dist import SweepScheduler

        scheduler = SweepScheduler(sweep, resume=resume)

    owns_evaluator = evaluator is None
    pool: AsyncEvaluator | None = None

    def _evaluator_for(spec: ExperimentSpec) -> Evaluator:
        # One pool serves every point that needs one (sync batches and
        # steady-state futures alike); the rest run in-process.
        nonlocal pool
        if not owns_evaluator:
            return evaluator  # caller-provided: one evaluator for all
        chosen = open_evaluator(
            spec.workers, search=spec.engine is not None, shared=pool
        )
        if isinstance(chosen, AsyncEvaluator):
            pool = chosen
        return chosen

    writer = RunWriter(out_dir, name=sweep.name) if out_dir is not None else None
    accounting: dict[str, Any] | None = None
    results: list[RunResult] = []
    store = None
    try:
        # The sweep owns the tracer (one file for all points); each
        # point's run_experiment then joins it instead of opening its own.
        with obs_trace.tracing(sweep.trace, sweep=sweep.name), \
                obs_trace.span("sweep", sweep=sweep.name, points=len(specs)):
            if scheduler is not None:
                accounting = scheduler.run(workers=distributed)
            # Opened after the scheduler joined its workers, so no worker
            # is ever forked while this process holds a store connection.
            if sweep.cache_path is not None:
                from repro.store import open_store

                store = open_store(sweep.cache_path)
            for spec in specs:
                result = run_experiment(
                    spec, evaluator=_evaluator_for(spec), store=store
                )
                results.append(result)
                if writer is not None:
                    writer.write(result.record)
    finally:
        if pool is not None:
            pool.close()
        if store is not None:
            store.close()

    swept = SweepResult(sweep=sweep, results=results, distributed=accounting)
    if writer is not None:
        extra = {} if accounting is None else {"distributed": accounting}
        swept.manifest_path = writer.finalize(
            sweep=sweep.to_dict(),
            n_points=len(specs),
            workers=(
                sweep.workers if sweep.workers is not None
                else sweep.base.workers
            ),
            cache_path=sweep.cache_path,
            async_points=sum(1 for s in specs if s.resolved_async_mode()),
            fresh_evaluations=swept.fresh_evaluations,
            replayed_from_cache=swept.n_from_cache,
            **extra,
        )
        swept.results_path = writer.results_path
    return swept
