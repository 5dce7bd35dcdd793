"""Store garbage collection: drop unreachable experiment records, compact.

Long sweep campaigns accrete experiment records in the shared store. A
record is looked up by the key ``[["spec","<fingerprint>"]]``
(:func:`~repro.api.runner.record_key`), where the fingerprint is
recomputed from a live :class:`~repro.api.spec.ExperimentSpec` at lookup
time — so a record whose stored spec **no longer fingerprints to its own
key** can never be served again. That happens when the spec
schema gains result-determining fields (fingerprints shift), when a
plugin the spec names is removed, or when a stored spec no longer parses
at all. :func:`gc_store` finds and drops exactly those records, then asks
the store to compact itself (``VACUUM`` on SQLite) and reports the bytes
reclaimed.

Per-genotype fitness namespaces are deliberately left alone: their
entries stay addressable for as long as their (circuit, attack config)
namespace exists, and dropping warm attack evaluations is the one thing
a cache janitor must never do by accident.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.store.base import open_store


def _record_resolves(key: str, record: Any) -> bool:
    """True when ``record`` can still be served for its own ``key``."""
    # Local import: the runner and its spec machinery stay out of
    # ``import repro.store``.
    from repro.api.runner import record_key
    from repro.api.spec import ExperimentSpec
    from repro.errors import ReproError

    if not isinstance(record, dict):
        return False
    try:
        spec = ExperimentSpec.from_dict(record.get("spec") or {})
        spec.validate()
    except (ReproError, TypeError, ValueError):
        return False  # schema drift or a de-registered plugin
    return record_key(spec) == key


def gc_store(
    path: str | Path, *, namespace: str | None = None
) -> dict[str, Any]:
    """Collect the store at ``path``, opened and closed here; returns a
    JSON-safe report.

    ``namespace`` defaults to the experiment-record namespace. The report
    carries ``examined`` / ``dropped`` / ``kept`` record counts plus
    ``bytes_before`` / ``bytes_after`` / ``bytes_reclaimed`` as measured
    on the backing files around the compaction.
    """
    from repro.api.runner import EXPERIMENT_NAMESPACE

    store = open_store(path)
    target = namespace if namespace is not None else EXPERIMENT_NAMESPACE
    try:
        bytes_before = store.disk_usage()
        records = store.load_namespace(target)
        stale = [
            key
            for key, record in records.items()
            if not _record_resolves(key, record)
        ]
        dropped = store.delete_many(target, stale)
        store.vacuum()
    finally:
        # Close before measuring: SQLite's -wal/-shm sidecars only
        # settle once the connection goes away.
        store.close()
    bytes_after = store.disk_usage()
    return {
        "path": str(path),
        "namespace": target,
        "examined": len(records),
        "dropped": dropped,
        "kept": len(records) - dropped,
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "bytes_reclaimed": max(0, bytes_before - bytes_after),
    }
