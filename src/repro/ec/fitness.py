"""Fitness functions: attack accuracy on the decoded phenotype.

The paper measures fitness as MuxLink accuracy — lower accuracy means a
more resilient locking, i.e. higher evolutionary fitness. We keep the
*minimisation* convention throughout (`fitness value = attack accuracy`,
smaller is better), which reads naturally in convergence plots.

Heterogeneous genotypes are scored per primitive kind: key bits of
``"link"``-scored genes (MUX pairs) come from the configured attack's
link prediction, while key bits of ``"scope"``-scored genes (XOR/XNOR
and AND/OR key gates, which link prediction cannot see) come from the
oracle-less constant-propagation heuristic that cracks RLL in E4/E5.
Both guess sets aggregate into one key-prediction accuracy — a single
resilience score the engines minimise. Pure-MUX genotypes take the
historical single-attack path untouched, so cached values and golden
trajectories are unchanged.

Evaluations are deterministic per genotype (fixed attack seed) and cached
by canonical genotype key, since crossover routinely recreates previously
seen individuals; :class:`CachedFitness` is the one memo path, which
every fitness here and in :mod:`repro.coevo` subclasses. The cache is
thread-safe (population evaluators merge worker results from the
dispatching thread) and can persist to the run's open experiment store,
shared across runs and processes, namespaced by circuit + attack
configuration so benchmark sweeps never mix incompatible evaluations.
A cache never opens a store: the run's owner opens it and hands it in.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.muxlink.attack import MuxLinkAttack
from repro.attacks.scope import ScopeAttack
from repro.ec.genotype import genotype_key
from repro.locking.base import LockedCircuit
from repro.locking.delta import DeltaRelocker
from repro.locking.primitives import Gene, primitive_for_gene
from repro.metrics.overhead import area_estimate
from repro.metrics.security import score_guesses
from repro.netlist.netlist import Netlist
from repro.obs import metrics as obs_metrics
from repro.registry import create_attack

_CACHE_LOOKUPS = obs_metrics.METRICS.counter(
    "autolock_cache_lookups_total",
    "FitnessCache lookups by namespace and outcome",
    labels=("namespace", "result"),
)
_CACHE_FLUSH_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_cache_flush_seconds",
    "Wall time flushing dirty FitnessCache entries to the backend",
)
#: :meth:`CachedFitness.record` increments this, in the dispatching
#: process, for every fresh evaluation of every fitness: the GA/NSGA-II
#: and co-evolution fitnesses and duels, and the AutoLock report stage.
FRESH_EVALUATIONS = obs_metrics.METRICS.counter(
    "autolock_fresh_evaluations_total",
    "Fresh (non-cached) attack-backed fitness evaluations",
)

#: default attack seed for attack-backed fitness; fixed so fitness is a
#: deterministic function of the genotype and cache entries are shared
#: between the classic and the spec-driven APIs.
DEFAULT_ATTACK_SEED = 0xA070


def scope_scored_bits(genes: Sequence[Gene]) -> list[bool]:
    """Per-gene flags: True where the owning primitive is scope-scored."""
    return [primitive_for_gene(g).scoring == "scope" for g in genes]


def composite_accuracy(
    locked: LockedCircuit,
    scope_bits: Sequence[bool],
    link_report,
    scope_report,
) -> float:
    """Aggregate per-kind key guesses into one resilience accuracy.

    Key bit ``i`` (gene ``i``) takes its guess from the link-prediction
    report when the gene is link-scored; the merged guesses are scored
    against the true key exactly as a single attack report would be
    (undecided = 0.5).

    A scope-scored bit counts as *recovered* whenever constant
    propagation distinguishes its two hypotheses at all — the attacker
    calibrates the polarity of the simplification signal per key-gate
    type offline (as SCOPE does), so a decided bit is a leaked bit
    regardless of which direction our heuristic reports. Scoring the raw
    direction instead would make anti-correlated gate types (AND/OR
    masking) look *more* resilient than undecidable ones, handing the
    search a bogus sub-0.5 score to exploit.
    """
    truth = dict(locked.key)
    guesses: dict[str, int | None] = {}
    for name, from_scope in zip(locked.key.names, scope_bits):
        if from_scope:
            decided = scope_report.guesses.get(name) is not None
            guesses[name] = truth[name] if decided else None
        else:
            guesses[name] = link_report.guesses.get(name)
    return float(score_guesses(guesses, truth).accuracy)


def resilience_accuracy(
    locked: LockedCircuit,
    genes: Sequence[Gene],
    link_report,
    scope_attack: ScopeAttack,
    attack_seed,
    scope_report=None,
) -> float:
    """The one aggregation rule every scorer shares.

    Pure link-scored genotypes return the link report's accuracy
    untouched (bit-for-bit the historical value — no scope run); mixed
    genotypes additionally run ``scope_attack`` and merge per-kind via
    :func:`composite_accuracy`. Fitness oracles and the AutoLock report
    stage both call this, so the reported accuracy can never diverge
    from what the engine optimised. A caller that already ran the scope
    attack (e.g. for a ``scope`` objective) passes its ``scope_report``
    to avoid propagating constants twice.
    """
    scope_bits = scope_scored_bits(genes)
    if not any(scope_bits):
        return float(link_report.accuracy)
    if scope_report is None:
        scope_report = _scope_report(
            locked, scope_bits, scope_attack, attack_seed
        )
    return composite_accuracy(locked, scope_bits, link_report, scope_report)


def _scope_report(locked, scope_bits, scope_attack, attack_seed):
    """Run ``scope_attack`` on the scope-scored key bits of ``locked``
    (None when no bit is scope-scored)."""
    if not any(scope_bits):
        return None
    return scope_attack.run(
        locked,
        seed_or_rng=attack_seed,
        # Propagate constants only for the scope-scored bits; link-scored
        # bits never read the scope report, so paying for them is waste.
        key_names=[
            name
            for name, from_scope in zip(locked.key.names, scope_bits)
            if from_scope
        ],
    )


def cache_namespace(circuit_name: str, **attack_config) -> str:
    """Canonical persistence namespace for (circuit, attack config).

    Sorted ``key=value`` pairs keep the namespace independent of call-site
    argument order, so two runs with the same configuration always share
    on-disk entries.
    """
    parts = [circuit_name]
    parts += [f"{k}={attack_config[k]}" for k in sorted(attack_config)]
    return "|".join(parts)


def _key_to_str(key: tuple) -> str:
    """Serialise a genotype key to a canonical JSON string."""
    return json.dumps(key, separators=(",", ":"))


@dataclass
class FitnessCache:
    """Genotype-keyed memo with hit statistics.

    ``backend`` is an open experiment store (see
    :class:`~repro.store.base.StoreBackend`) holding ``namespace -> key ->
    value`` entries; the cache loads its namespace from it, writes
    through to it and never closes it (the run that opened it does), so
    several caches share one handle. None keeps the memo in memory. A
    miss in the in-memory snapshot falls through to the store, so
    entries written by sibling worker processes mid-run are found rather
    than recomputed. All mutating operations on one cache object hold an
    internal lock, making it safe to share between the evaluator
    dispatch thread and any caller.
    """

    store: dict[tuple, float | tuple[float, ...]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    namespace: str = "default"
    backend: object | None = None

    def __post_init__(self) -> None:
        self._lock = threading.RLock()
        self._dirty: set[tuple] = set()
        self._load()

    # -- persistence ----------------------------------------------------
    @staticmethod
    def _decode(value):
        # JSON turns tuples into lists; restore vector fitness as tuples.
        return tuple(value) if isinstance(value, list) else value

    def _load(self) -> None:
        if self.backend is None:
            return
        for key_str, value in self.backend.load_namespace(
            self.namespace
        ).items():
            key = tuple(tuple(g) for g in json.loads(key_str))
            self.store[key] = self._decode(value)

    def flush(self) -> None:
        """Merge entries new since the last flush into the backend.

        Keys leave the dirty set only after the backend write succeeds —
        a failed flush (store busy past its retries) keeps them queued
        for the next one instead of silently dropping them forever.
        """
        if self.backend is None:
            return
        with self._lock:
            if not self._dirty:
                return
            keys = tuple(self._dirty)
            entries = {_key_to_str(key): self.store[key] for key in keys}
        started = time.perf_counter()
        self.backend.put_many(self.namespace, entries)
        _CACHE_FLUSH_SECONDS.observe(time.perf_counter() - started)
        with self._lock:
            self._dirty.difference_update(keys)

    def wipe_disk(self) -> None:
        """Remove this cache's namespace from the backing store."""
        if self.backend is None:
            return
        with self._lock:
            self.backend.wipe_namespace(self.namespace)
            self._dirty.clear()

    # -- pickling (worker-process dispatch) -----------------------------
    def __getstate__(self) -> dict:
        """Pickle without the lock, store handle or entries, so unpickled
        copies (fitness clones in workers, which only run ``score``)
        never write the shared store — the dispatching process owns
        lookups and persistence."""
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state["store"] = {}
        state["backend"] = None
        state["_dirty"] = set()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- memo protocol --------------------------------------------------
    def get(self, key: tuple):
        """The memoised value of ``key`` (None on a miss), counted."""
        with self._lock:
            value = self.store.get(key)
            if value is None and self.backend is not None:
                # Another process may have written this entry since our
                # snapshot — one cheap indexed lookup beats an attack run.
                value = self.backend.get(self.namespace, _key_to_str(key))
                if value is not None:
                    value = self.store[key] = self._decode(value)
            self.count_lookup(hit=value is not None)
            return value

    def count_lookup(self, hit: bool) -> None:
        """Count one lookup (an evaluator counts an in-flight hit)."""
        with self._lock:
            self.hits += hit
            self.misses += not hit
        _CACHE_LOOKUPS.inc(
            namespace=self.namespace, result="hit" if hit else "miss"
        )

    def put(self, key: tuple, value, flush: bool = True) -> None:
        """Memoise ``value``; write through to the backend unless
        ``flush=False``.

        The per-put flush is deliberate for attack-backed fitness — each
        fresh value costs an attack run, so persisting it immediately is
        cheap insurance. Batch writers (the evaluator merge loop) pass
        ``flush=False`` and call :meth:`flush` once per batch.
        """
        with self._lock:
            self.store[key] = value
            self._dirty.add(key)
        if flush and self.backend is not None:
            self.flush()

    def __len__(self) -> int:
        return len(self.store)


class CachedFitness:
    """A fitness function fronted by a :class:`FitnessCache`.

    A subclass writes :meth:`score`, a deterministic function of the
    genotype. A call looks the genotype up and, on a miss, scores it and
    hands the value to :meth:`record`. The evaluators split those steps:
    they look up and record in the dispatching process, and run only
    :meth:`score` where the work goes (in a pool worker's copy, say).
    """

    def __init__(self, cache: FitnessCache | None = None) -> None:
        self.cache = cache if cache is not None else FitnessCache()
        self.evaluations = 0

    def score(self, genes: Sequence):
        """The fitness value of ``genes``, computed afresh."""
        raise NotImplementedError

    def record(self, key: tuple, value, flush: bool = True) -> None:
        """Count one fresh evaluation, then memoise its value (written
        through unless ``flush=False``), so a failed store write counts."""
        self.evaluations += 1
        FRESH_EVALUATIONS.inc()
        self.cache.put(key, value, flush=flush)

    def __call__(self, genes: Sequence):
        key = genotype_key(genes)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        value = self.score(genes)
        self.record(key, value)
        return value


class SpecFitness(CachedFitness):
    """Scalar fitness = attack accuracy of the decoded phenotype.

    The attack is resolved through the attack registry, so *any*
    registered attack whose report exposes ``accuracy`` can drive the
    evolutionary loop. Heterogeneous genotypes additionally score their
    scope-scored genes with the oracle-less constant-propagation
    heuristic and aggregate both into one accuracy (see the module
    docstring); pure link-scored genotypes keep the historical
    single-attack value bit-for-bit. ``panel`` replaces ``attack`` /
    ``attack_params`` with ``(attack, params)`` pairs (as
    :meth:`~repro.coevo.genome.AttackerGenome.to_attack` returns) and
    scores their mean accuracy, in panel order. Deterministic per
    genotype (fixed ``attack_seed``) and cache-fronted; plain attributes
    keep it picklable for the :class:`~repro.ec.evaluator.AsyncEvaluator`
    worker path.
    """

    def __init__(
        self,
        original: Netlist,
        attack: str = "muxlink",
        attack_params: dict | None = None,
        attack_seed: int = DEFAULT_ATTACK_SEED,
        cache: FitnessCache | None = None,
        panel: Sequence[tuple[str, dict]] | None = None,
    ) -> None:
        if panel is None:
            panel = [(attack, attack_params or {})]
        if not panel:
            raise ValueError("attack panel must not be empty")
        self.original = original
        self.panel = tuple((name, dict(params)) for name, params in panel)
        super().__init__(cache)
        self.attack_seed = attack_seed
        self._relocker = DeltaRelocker(original)
        self._attacks = [
            create_attack(name, **params) for name, params in self.panel
        ]
        self._scope = ScopeAttack()

    def score(self, genes: Sequence[Gene]) -> float:
        locked = self._relocker.lock(genes)
        reports = [
            attack.run(locked, seed_or_rng=self.attack_seed)
            for attack in self._attacks
        ]
        # One constant-propagation run serves every panel member.
        scope_report = _scope_report(
            locked, scope_scored_bits(genes), self._scope, self.attack_seed
        )
        total = 0.0
        for report in reports:
            total += resilience_accuracy(
                locked, genes, report, self._scope, self.attack_seed,
                scope_report=scope_report,
            )
        return total / len(reports)


class MultiObjectiveFitness(CachedFitness):
    """Vector fitness for NSGA-II (all components minimised).

    Available objectives (picked by name, order preserved):

    ``muxlink``
        MuxLink key-prediction accuracy — security against the learning
        attack.
    ``depth``
        Depth-overhead fraction — MUXes on the critical path cost delay,
        off-path placements are cheap. Varies strongly with placement.
    ``corruption``
        ``1 − mean wrong-key output error`` — a locking whose wrong keys
        barely corrupt the outputs can simply be ignored; minimising this
        maximises corruption. Varies with how close to the outputs the
        locking sits.
    ``area``
        Area-overhead fraction. Only meaningful when genotype lengths
        vary (constant for fixed-K genotypes).
    ``scope``
        SCOPE decision coverage — security against constant propagation
        (constant 0 for pure symmetric MUX genotypes; kept for mixed
        schemes).

    The default triple (muxlink, depth, corruption) realises the research
    plan's "multi-objective optimisation that includes a set of distinct
    attacks" with genuinely conflicting axes: hiding from MuxLink pushes
    insertions into structure-rich regions, corruption pushes them toward
    output cones, and depth pushes them off the critical path
    (experiment E8).
    """

    OBJECTIVES = ("muxlink", "depth", "corruption", "area", "scope")

    def __init__(
        self,
        original: Netlist,
        predictor: str = "mlp",
        objectives: tuple[str, ...] = ("muxlink", "depth", "corruption"),
        attack_seed: int = 0xA070,
        corruption_patterns: int = 256,
        corruption_keys: int = 3,
        cache: FitnessCache | None = None,
        **predictor_kwargs,
    ) -> None:
        unknown = [o for o in objectives if o not in self.OBJECTIVES]
        if unknown:
            raise ValueError(
                f"unknown objectives {unknown}; available: {self.OBJECTIVES}"
            )
        if not objectives:
            raise ValueError("need at least one objective")
        self.original = original
        self.objectives = tuple(objectives)
        self.attack_seed = attack_seed
        self.corruption_patterns = corruption_patterns
        self.corruption_keys = corruption_keys
        super().__init__(cache)
        self._relocker = DeltaRelocker(original)
        self._attack = MuxLinkAttack(predictor=predictor, **predictor_kwargs)
        self._scope = ScopeAttack()
        self._base_area = max(1e-9, area_estimate(original))
        self._base_depth = max(1, original.depth())

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    def _corruption(self, locked) -> float:
        """Mean output error over a few seeded wrong keys."""
        from repro.sim.equivalence import output_error_rate
        from repro.utils.rng import derive_rng

        rng = derive_rng(self.attack_seed)
        key = locked.key
        total = 0.0
        for _ in range(self.corruption_keys):
            bits = [int(b) for b in rng.integers(0, 2, size=len(key))]
            if tuple(bits) == key.bits:
                bits[0] ^= 1
            wrong = dict(zip(key.names, bits))
            total += output_error_rate(
                self.original,
                locked.netlist,
                wrong,
                n_patterns=self.corruption_patterns,
                seed_or_rng=rng,
            )
        return total / self.corruption_keys

    def score(self, genes: Sequence[Gene]) -> tuple[float, ...]:
        locked = self._relocker.lock(genes)
        values: dict[str, float] = {}
        # A full scope report serves both the "scope" objective and the
        # mixed-genotype aggregation in "muxlink" — never propagate
        # constants twice for one evaluation.
        scope_report = (
            self._scope.run(locked, seed_or_rng=self.attack_seed)
            if "scope" in self.objectives
            else None
        )
        if "muxlink" in self.objectives:
            report = self._attack.run(locked, seed_or_rng=self.attack_seed)
            values["muxlink"] = resilience_accuracy(
                locked, genes, report, self._scope, self.attack_seed,
                scope_report=scope_report,
            )
        if "depth" in self.objectives:
            values["depth"] = (
                locked.netlist.depth() - self._base_depth
            ) / self._base_depth
        if "corruption" in self.objectives:
            values["corruption"] = 1.0 - self._corruption(locked)
        if "area" in self.objectives:
            values["area"] = (
                area_estimate(locked.netlist) - self._base_area
            ) / self._base_area
        if scope_report is not None:
            values["scope"] = float(scope_report.score.coverage)
        return tuple(values[name] for name in self.objectives)
