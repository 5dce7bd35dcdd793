"""Declarative experiment and sweep specifications.

An :class:`ExperimentSpec` is the complete, JSON-round-trippable
description of one experiment: which circuit, which locking scheme (by
registry name, with parameters), which attack, optionally which search
engine evolves the locking, which metrics to compute on the result, plus
the seed and execution knobs. :func:`repro.api.runner.run_experiment`
turns one spec into one :class:`~repro.api.runner.RunResult`;
:class:`SweepSpec` expands grid axes over a base spec into many.

Specs are *frozen*: mutate by :meth:`ExperimentSpec.with_updates`. Two
specs with equal deterministic fields share a :meth:`fingerprint`, which
keys the experiment-level result cache — execution knobs (``workers``,
``cache_path``) deliberately do not affect it, because they cannot change
the result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.circuits import known_circuit
from repro.errors import LockingError, SpecError
from repro.locking.primitives import (
    DEFAULT_ALPHABET,
    normalize_alphabet,
    resolve_alphabet,
)
from repro.registry import ATTACKS, ENGINES, METRICS, SCHEMES

#: spec fields excluded from the fingerprint: execution knobs steer *how*
#: an experiment runs and ``tag`` only labels it — neither can change
#: what it computes, so differently-labelled identical specs share
#: cached experiment records.
_EXECUTION_FIELDS = ("workers", "cache_path", "tag", "trace")


def _read_spec_file(path: str | Path, kind: str) -> str:
    """Read a spec file, mapping I/O failures to :class:`SpecError`."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read {kind} file {str(path)!r}: {exc}") from exc


def _parse_json(text: str, kind: str) -> Any:
    """Parse spec JSON, mapping syntax errors to :class:`SpecError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{kind} is not valid JSON: {exc}") from exc


def _frozen_params(params: Mapping[str, Any] | None) -> dict[str, Any]:
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise SpecError(f"parameter block must be a mapping, got {params!r}")
    return dict(params)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully described by registry names and parameters.

    ``engine=None`` runs the *static* pipeline: lock the circuit with
    ``scheme`` and (if ``attack`` is set) attack the result once. A
    non-``None`` engine instead evolves a locking with that search
    engine, using ``attack`` as the fitness oracle (for ``coevo``, as
    the epoch-0 attacker the attacker population evolves from).
    ``metrics`` are computed on the final locked design either way.
    """

    circuit: str
    key_length: int = 32
    scheme: str = "dmux"
    scheme_params: dict[str, Any] = field(default_factory=dict)
    attack: str | None = "muxlink"
    attack_params: dict[str, Any] = field(default_factory=dict)
    engine: str | None = None
    engine_params: dict[str, Any] = field(default_factory=dict)
    metrics: tuple[str, ...] = ()
    metric_params: dict[str, dict[str, Any]] = field(default_factory=dict)
    seed: int = 0
    #: seed for the attack oracle, independent of the locking/search seed;
    #: ``None`` means "derived default" (spec.seed for static runs, the
    #: engines' fixed fitness seed otherwise).
    attack_seed: int | None = None
    #: search-loop mode for engine specs: ``True`` = steady-state
    #: (async), ``False`` = sync-generational, ``None`` = steady-state
    #: iff ``workers > 1``. The *resolved* mode feeds the fingerprint
    #: (see :meth:`resolved_async_mode`) because it changes the search
    #: trajectory — while the resolved result is still independent of
    #: the worker count, since async runs integrate completions in
    #: submission order.
    async_mode: bool | None = None
    #: locking-primitive alphabet engine genotypes compose
    #: (``repro.registry.PRIMITIVES``); order matters — it indexes the
    #: per-gene kind draws. Normalised to a tuple of names on
    #: construction; it always feeds the fingerprint.
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET
    workers: int = 1
    #: experiment store (SQLite file or campaign-server URL) holding the
    #: fitness caches and the finished record.
    cache_path: str | None = None
    tag: str = ""
    #: span-trace output path (``repro.obs``); an execution knob like
    #: ``cache_path`` — observing a run cannot change its result, so the
    #: field is excluded from fingerprints. Workers override it with a
    #: path valid on *their* filesystem.
    trace: str | None = None

    def __post_init__(self) -> None:
        # Normalise mutable/loose inputs so equality and fingerprints are
        # representation-independent (lists vs tuples, None vs {}).
        object.__setattr__(self, "scheme_params", _frozen_params(self.scheme_params))
        object.__setattr__(self, "attack_params", _frozen_params(self.attack_params))
        object.__setattr__(self, "engine_params", _frozen_params(self.engine_params))
        object.__setattr__(
            self,
            "metric_params",
            {k: _frozen_params(v) for k, v in _frozen_params(self.metric_params).items()},
        )
        object.__setattr__(self, "metrics", tuple(self.metrics))
        # Shape only (null = default, strings rejected with a hint);
        # registry validation stays in validate() like every other
        # component name.
        try:
            object.__setattr__(
                self, "alphabet", normalize_alphabet(self.alphabet)
            )
        except LockingError as exc:
            raise SpecError(str(exc)) from exc
        if self.cache_path is not None:
            object.__setattr__(self, "cache_path", str(self.cache_path))
        if self.trace is not None:
            object.__setattr__(self, "trace", str(self.trace))

    # -- validation -----------------------------------------------------
    def validate(self) -> "ExperimentSpec":
        """Check registry names and value ranges; returns ``self``.

        Unknown registry names raise
        :class:`~repro.errors.RegistryError` with the available options
        listed; structural problems raise
        :class:`~repro.errors.SpecError`.
        """
        if not known_circuit(self.circuit):
            from repro.circuits import available_circuits

            raise SpecError(
                f"unknown circuit {self.circuit!r}; available: "
                f"{', '.join(available_circuits())} or rand_<gates>_<seed>"
            )
        if self.key_length < 1:
            raise SpecError(f"key_length must be >= 1, got {self.key_length}")
        if self.workers < 1:
            raise SpecError(f"workers must be >= 1, got {self.workers}")
        if self.async_mode is not None and not isinstance(self.async_mode, bool):
            raise SpecError(
                f"async_mode must be true, false, or null, got {self.async_mode!r}"
            )
        try:
            resolve_alphabet(self.alphabet)
        except LockingError as exc:  # empty / duplicates; unknown names
            raise SpecError(str(exc)) from exc  # raise RegistryError as-is
        if self.engine is None and self.alphabet != DEFAULT_ALPHABET:
            raise SpecError(
                "alphabet configures the genotype of search engines; a "
                "static spec (engine=null) locks with its scheme — drop "
                "the alphabet or set an engine"
            )
        SCHEMES.get(self.scheme)
        if self.attack is not None:
            ATTACKS.get(self.attack)
        if self.engine is not None:
            ENGINES.get(self.engine)
        for metric in self.metrics:
            METRICS.get(metric)
        unknown_metric_params = set(self.metric_params) - set(self.metrics)
        if unknown_metric_params:
            raise SpecError(
                f"metric_params given for metrics not in the spec: "
                f"{sorted(unknown_metric_params)}"
            )
        return self

    # -- derivation -----------------------------------------------------
    def with_updates(self, **updates: Any) -> "ExperimentSpec":
        """A copy with ``updates`` applied (unknown fields rejected)."""
        unknown = set(updates) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise SpecError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        return dataclasses.replace(self, **updates)

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-safe dict; inverse of :meth:`from_dict`."""
        data = dataclasses.asdict(self)
        data["metrics"] = list(self.metrics)
        data["alphabet"] = list(self.alphabet)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a dict, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise SpecError(f"experiment spec must be a JSON object, got {data!r}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise SpecError(
                f"unknown ExperimentSpec fields: {sorted(unknown)}; "
                f"known fields: {sorted(names)}"
            )
        if "circuit" not in data:
            raise SpecError("experiment spec needs at least a 'circuit'")
        return cls(**dict(data))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(_parse_json(text, "experiment spec"))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        return cls.from_json(_read_spec_file(path, "experiment spec"))

    # -- identity -------------------------------------------------------
    def resolved_async_mode(self) -> bool:
        """The search-loop mode this spec actually runs.

        Explicit ``async_mode`` wins; ``None`` defaults to steady-state
        for ``workers > 1``. Static specs (``engine=None``) have no
        search loop and always resolve ``False``, so their fingerprints
        stay independent of the worker count.
        """
        if self.engine is None:
            return False
        if self.async_mode is not None:
            return bool(self.async_mode)
        return self.workers > 1

    def deterministic_dict(self) -> dict[str, Any]:
        """The spec minus execution-only fields (workers, cache_path).

        ``async_mode`` is recorded *resolved*: the steady-state and
        generational loops walk different search trajectories, so the
        mode determines the result — but the resolved value is the same
        at any worker count (async integrates completions in submission
        order), which keeps fingerprints execution-independent.
        ``alphabet`` is always present, the default ``("mux",)`` included.
        """
        data = self.to_dict()
        for key in _EXECUTION_FIELDS:
            data.pop(key, None)
        data["async_mode"] = self.resolved_async_mode()
        return data

    def fingerprint(self) -> str:
        """Stable hex digest of every result-determining field."""
        canonical = json.dumps(
            self.deterministic_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def describe(self) -> str:
        """One-line human summary used by the CLI and sweep logs."""
        parts = [f"circuit={self.circuit}", f"K={self.key_length}",
                 f"scheme={self.scheme}"]
        if self.engine:
            parts.append(f"engine={self.engine}")
            if self.alphabet != DEFAULT_ALPHABET:
                parts.append(f"alphabet={','.join(self.alphabet)}")
        if self.attack:
            parts.append(f"attack={self.attack}")
        if self.tag:
            parts.append(f"tag={self.tag}")
        return " ".join(parts)


#: axis keys with this prefix merge whole partial-spec dicts per value,
#: letting one axis vary several coupled fields together (e.g. an attack
#: name plus its parameters).
MERGE_AXIS_PREFIX = "*"


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiments: a base spec plus per-field value axes.

    ``axes`` maps a spec field name to the list of values it takes; the
    expansion is the cartesian product in axis insertion order. An axis
    whose key starts with ``*`` instead carries partial-spec dicts that
    are merged wholesale — the way to co-vary coupled fields::

        SweepSpec(
            base=ExperimentSpec("c17", key_length=8),
            axes={
                "circuit": ["c17", "c432_syn"],
                "*attack": [
                    {"attack": "muxlink", "attack_params": {"predictor": "mlp"}},
                    {"attack": "random"},
                ],
            },
        )

    ``workers`` and ``cache_path`` apply to every expanded point, which
    is how a sweep shares one process pool and one on-disk cache.
    """

    base: ExperimentSpec
    axes: dict[str, list[Any]] = field(default_factory=dict)
    name: str = "sweep"
    workers: int | None = None
    cache_path: str | None = None
    #: search-loop mode applied to every expanded point (see
    #: ``ExperimentSpec.async_mode``). Distributed engine sweeps should
    #: set this explicitly: point fingerprints embed the *resolved* mode,
    #: so pinning it keeps queue rows stable across worker counts.
    async_mode: bool | None = None
    #: span-trace output path applied to every expanded point (see
    #: ``ExperimentSpec.trace``); execution-only, never fingerprinted.
    trace: str | None = None

    def __post_init__(self) -> None:
        axes = {}
        for key, values in dict(self.axes).items():
            if not isinstance(values, (list, tuple)):
                raise SpecError(
                    f"sweep axis {key!r} must map to a list of values, "
                    f"got {values!r}"
                )
            if not values:
                raise SpecError(f"sweep axis {key!r} is empty")
            axes[key] = list(values)
        object.__setattr__(self, "axes", axes)
        if self.cache_path is not None:
            object.__setattr__(self, "cache_path", str(self.cache_path))

    # -- expansion ------------------------------------------------------
    def expand(self) -> list[ExperimentSpec]:
        """The full grid as concrete specs, in deterministic order."""
        field_names = {f.name for f in dataclasses.fields(ExperimentSpec)}
        for key in self.axes:
            if not key.startswith(MERGE_AXIS_PREFIX) and key not in field_names:
                raise SpecError(
                    f"sweep axis {key!r} is not an ExperimentSpec field; "
                    f"prefix it with {MERGE_AXIS_PREFIX!r} to merge "
                    "partial-spec dicts"
                )
        shared: dict[str, Any] = {}
        if self.workers is not None:
            shared["workers"] = self.workers
        if self.cache_path is not None:
            shared["cache_path"] = self.cache_path
        if self.async_mode is not None:
            shared["async_mode"] = self.async_mode
        if self.trace is not None:
            shared["trace"] = self.trace

        specs: list[ExperimentSpec] = []
        keys = list(self.axes)
        for combo in itertools.product(*(self.axes[k] for k in keys)):
            # First collect this point's field updates (in axis order),
            # then apply them with the component-params reset rule below.
            field_updates: list[tuple[str, Any]] = []
            tag_parts: list[str] = [self.base.tag] if self.base.tag else []
            for key, value in zip(keys, combo):
                if key.startswith(MERGE_AXIS_PREFIX):
                    if not isinstance(value, Mapping):
                        raise SpecError(
                            f"values of merge axis {key!r} must be partial-spec "
                            f"dicts, got {value!r}"
                        )
                    unknown = set(value) - field_names
                    if unknown:
                        raise SpecError(
                            f"merge axis {key!r} value has unknown fields: "
                            f"{sorted(unknown)}"
                        )
                    field_updates.extend(value.items())
                    tag_parts.append(
                        value.get("tag") or f"{key.lstrip(MERGE_AXIS_PREFIX)}"
                        f"={value.get('attack') or value.get('scheme') or value.get('engine') or '…'}"
                    )
                else:
                    field_updates.append((key, value))
                    tag_parts.append(f"{key}={value}")

            # Switching a component to a *different* one invalidates the
            # base spec's parameter block for it (a strategy meant for
            # dmux must not leak into an rll point) — unless this point
            # explicitly provides the block itself.
            provided = {name for name, _ in field_updates}
            updates: dict[str, Any] = dict(shared)
            for name, value in field_updates:
                for comp, params_field in (
                    ("scheme", "scheme_params"),
                    ("attack", "attack_params"),
                    ("engine", "engine_params"),
                ):
                    if (
                        name == comp
                        and params_field not in provided
                        and value != getattr(self.base, comp)
                    ):
                        updates[params_field] = {}
                updates[name] = value
            updates.setdefault("tag", ",".join(tag_parts))
            specs.append(self.base.with_updates(**updates))
        return specs

    def validate(self) -> "SweepSpec":
        """Expand and validate every point; returns ``self``."""
        for spec in self.expand():
            spec.validate()
        return self

    # -- identity -------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable hex digest of the expanded points' fingerprints, in order.

        Point fingerprints leave out the name, worker counts and store
        location but include each point's resolved loop mode, so the
        sweep's id and its ``sweep_points`` queue rows change exactly
        when some point's result would. (For engine points with
        ``async_mode`` unset the worker count picks that mode; distributed
        engine campaigns that want resume to survive worker-count
        changes should pin ``async_mode``.)
        """
        points = [spec.fingerprint() for spec in self.expand()]
        return hashlib.sha256(json.dumps(points).encode()).hexdigest()[:16]

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "workers": self.workers,
            "cache_path": self.cache_path,
            "async_mode": self.async_mode,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"sweep spec must be a JSON object, got {data!r}")
        unknown = set(data) - {
            "name", "base", "axes", "workers", "cache_path", "async_mode",
            "trace",
        }
        if unknown:
            raise SpecError(f"unknown SweepSpec fields: {sorted(unknown)}")
        if "base" not in data:
            raise SpecError("sweep spec needs a 'base' experiment spec")
        return cls(
            base=ExperimentSpec.from_dict(data["base"]),
            axes=dict(data.get("axes", {})),
            name=data.get("name", "sweep"),
            workers=data.get("workers"),
            cache_path=data.get("cache_path"),
            async_mode=data.get("async_mode"),
            trace=data.get("trace"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(_parse_json(text, "sweep spec"))

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        return cls.from_json(_read_spec_file(path, "sweep spec"))
