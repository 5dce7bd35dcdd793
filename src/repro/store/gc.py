"""Store garbage collection: drop unreachable experiment records, compact.

Long sweep campaigns accrete experiment records in the shared store. A
record is looked up by the key ``(("spec", <fingerprint>))``, where the
fingerprint is recomputed from a live :class:`~repro.api.spec.ExperimentSpec`
at lookup time — so a record whose stored spec **no longer fingerprints to
its own key** can never be served again. That happens when the spec
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

import json
from pathlib import Path
from typing import Any

from repro.store.base import StoreBackend, open_store


def _record_resolves(key: str, record: Any) -> bool:
    """True when ``record`` can still be served for its own ``key``."""
    # Local import: repro.api imports repro.store (via the fitness
    # cache), so the spec machinery must load lazily here.
    from repro.api.spec import ExperimentSpec
    from repro.errors import ReproError

    try:
        parsed = json.loads(key)
        stored_fp = dict([tuple(parsed[0])])["spec"]
    except (ValueError, TypeError, KeyError, IndexError):
        return False  # not a spec-keyed record; unreachable by lookups
    if not isinstance(record, dict):
        return False
    try:
        spec = ExperimentSpec.from_dict(record.get("spec") or {})
        spec.validate()
    except (ReproError, TypeError, ValueError):
        return False  # schema drift or a de-registered plugin
    return spec.fingerprint() == stored_fp


def gc_store(
    path: str | Path,
    backend: StoreBackend | None = None,
    *,
    namespace: str | None = None,
) -> dict[str, Any]:
    """Collect one store; returns a JSON-safe report.

    ``backend`` is an already-open store on ``path`` (left open); by
    default the store at ``path`` is opened and closed here.
    ``namespace`` defaults to the experiment-record namespace. The report
    carries ``examined`` / ``dropped`` / ``kept`` record counts plus
    ``bytes_before`` / ``bytes_after`` / ``bytes_reclaimed`` as measured
    on the backing files around the compaction.
    """
    from repro.api.runner import EXPERIMENT_NAMESPACE

    owns_store = backend is None
    store = open_store(path) if owns_store else backend
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
        if owns_store:
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
