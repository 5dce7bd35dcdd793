"""Store protocol: namespaced key/value state plus a work queue.

An experiment *store* is the shared state behind sweeps: per-genotype
fitness entries, finished experiment records keyed by spec fingerprint,
co-evolution epoch checkpoints, and the ``sweep_points`` work queue of
distributed sweeps. Every store implements both halves of one protocol.
:func:`open_store` picks the implementation from the location alone:

* a URL opens the :data:`repro.registry.STORES` backend registered for
  its scheme — ``http``/``https`` select the
  :class:`~repro.serve.client.HttpStore` campaign-server client, so a
  campaign URL works as any ``cache_path``;
* any other path opens :class:`~repro.store.sqlite_store.SQLiteStore`,
  a WAL-mode SQLite file safe for any number of concurrent processes,
  whatever the path's suffix.

Only a run's owner calls :func:`open_store` — ``run_experiment`` (unless
a store is injected), ``run_sweep``, the distributed worker and
scheduler, the campaign server, :func:`~repro.store.gc.gc_store` and the
CLI's ``store`` verbs — and it closes the store when the run ends. The
caches, records and checkpoints of the run use the handle it is given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Protocol, runtime_checkable

from repro.errors import StoreError
from repro.registry import STORES

#: RFC 3986 scheme followed by ``://`` — a store *URL* rather than a
#: filesystem path. (``C:\cache.db`` has no ``//``, so Windows drive
#: letters never match.)
_URL_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://")


def url_scheme(path: str | Path) -> str | None:
    """The lowercase URL scheme of ``path``, or ``None`` for file paths."""
    match = _URL_SCHEME_RE.match(str(path))
    return match.group(1).lower() if match else None


def is_url(path: str | Path) -> bool:
    """Whether ``path`` is a scheme-qualified URL rather than a file path.

    URL store paths must never be fed through :class:`pathlib.Path`
    (which collapses ``//``) or filesystem existence checks — callers
    branch on this before doing either.
    """
    return url_scheme(path) is not None

#: work-queue point states (the ``sweep_points`` table's ``status``).
STATUS_PENDING = "pending"
STATUS_CLAIMED = "claimed"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@runtime_checkable
class StoreBackend(Protocol):
    """Namespaced key/value persistence plus a lease-based work queue.

    Keys and namespaces are strings; values are JSON-safe objects, and
    :meth:`get` reads the live shared medium, so entries written by
    concurrent processes become visible mid-run.

    Queue points are keyed by ``(sweep_id, fingerprint)``. A *claim*
    marks a pending point as leased to one worker until ``ttl`` seconds
    pass; workers heartbeat long evaluations to extend the lease and
    *complete* points when the experiment record is safely stored.
    Leases that expire (crashed or stalled worker) are requeued, so a
    killed sweep resumes with zero recomputation of completed points.
    """

    # -- key/value ------------------------------------------------------
    def load_namespace(self, namespace: str) -> dict[str, Any]:
        """Every ``key -> value`` currently stored under ``namespace``."""
        ...  # pragma: no cover - protocol

    def get(self, namespace: str, key: str) -> Any | None:
        """One value, or ``None`` when absent."""
        ...  # pragma: no cover - protocol

    def put_many(self, namespace: str, entries: Mapping[str, Any]) -> None:
        """Merge ``entries`` into ``namespace`` (upsert semantics)."""
        ...  # pragma: no cover - protocol

    def wipe_namespace(self, namespace: str) -> None:
        """Drop every entry under ``namespace``; other namespaces survive."""
        ...  # pragma: no cover - protocol

    def delete_many(self, namespace: str, keys: list[str]) -> int:
        """Drop specific entries from ``namespace``; returns how many."""
        ...  # pragma: no cover - protocol

    def vacuum(self) -> None:
        """Compact the backing medium (reclaim space freed by deletes)."""
        ...  # pragma: no cover - protocol

    def disk_usage(self) -> int:
        """Bytes currently held on disk (including any sidecar files)."""
        ...  # pragma: no cover - protocol

    def namespaces(self) -> list[str]:
        """Sorted namespaces currently holding entries."""
        ...  # pragma: no cover - protocol

    def status(self) -> dict[str, Any]:
        """JSON-safe health summary (``autolock store status``)."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any handle; further use may reopen lazily."""
        ...  # pragma: no cover - protocol

    # -- work queue -----------------------------------------------------
    def enqueue_points(
        self, sweep_id: str, points: Mapping[str, Mapping[str, Any]],
        *, reset: bool = False,
    ) -> int:
        """Insert missing points (``fingerprint -> payload``); returns how
        many were newly inserted. ``reset=True`` first forgets every
        existing point of the sweep."""
        ...  # pragma: no cover - protocol

    def claim(
        self, sweep_id: str, worker_id: str, ttl: float
    ) -> ClaimedPoint | None:
        """Lease one pending point, or ``None`` when nothing is claimable."""
        ...  # pragma: no cover - protocol

    def heartbeat(
        self, sweep_id: str, fingerprint: str, worker_id: str, ttl: float
    ) -> bool:
        """Extend a held lease; false when the lease was lost."""
        ...  # pragma: no cover - protocol

    def complete(
        self, sweep_id: str, fingerprint: str, worker_id: str,
        *, fresh_evaluations: int = 0, require_lease: bool = False,
    ) -> bool:
        """Mark a point done (idempotent), recording what it cost.

        Returns whether the point is now done. ``require_lease=True``
        rejects (returns ``False``) a completion from a worker that no
        longer holds the claim instead of overwriting the row."""
        ...  # pragma: no cover - protocol

    def release_worker(self, sweep_id: str, worker_id: str) -> int:
        """Requeue points still claimed by one (dead) worker."""
        ...  # pragma: no cover - protocol

    def fail(
        self, sweep_id: str, fingerprint: str, worker_id: str, error: str,
        *, max_attempts: int = 3,
    ) -> str:
        """Requeue a failed point (or park it as ``failed`` after
        ``max_attempts``); returns the resulting status."""
        ...  # pragma: no cover - protocol

    def requeue_expired(self, sweep_id: str) -> int:
        """Return expired leases to ``pending``; returns how many."""
        ...  # pragma: no cover - protocol

    def retry_failed(self, sweep_id: str) -> int:
        """Requeue every ``failed`` point with a fresh attempt budget;
        returns how many flipped back to ``pending``."""
        ...  # pragma: no cover - protocol

    def queue_counts(self, sweep_id: str) -> dict[str, int]:
        """``status -> point count`` for one sweep."""
        ...  # pragma: no cover - protocol

    def mark_done(self, sweep_id: str, fingerprints: list[str]) -> int:
        """Pre-complete points whose records already exist (warm
        resume); returns how many flipped to done."""
        ...  # pragma: no cover - protocol

    def points(self, sweep_id: str) -> list[dict[str, Any]]:
        """Every point row of one sweep (status, worker, attempts,
        error, completion bookkeeping)."""
        ...  # pragma: no cover - protocol


#: The store surface a campaign server serves, by route family: ``POST
#: /api/<family>/<method>`` calls that :class:`StoreBackend` method with
#: the JSON body as its keyword arguments. Every protocol method except
#: ``close`` is served.
SERVED_METHODS: dict[str, tuple[str, ...]] = {
    "kv": (
        "load_namespace", "get", "put_many", "wipe_namespace",
        "delete_many", "vacuum", "disk_usage", "namespaces", "status",
    ),
    "queue": (
        "enqueue_points", "claim", "heartbeat", "complete",
        "release_worker", "fail", "requeue_expired", "retry_failed",
        "queue_counts", "mark_done", "points",
    ),
}


@dataclass(frozen=True)
class ClaimedPoint:
    """One work-queue point leased to a worker."""

    sweep_id: str
    fingerprint: str
    payload: dict[str, Any] = field(default_factory=dict)
    worker_id: str = ""
    lease_expires: float = 0.0
    attempts: int = 1


def open_store(path: str | Path) -> StoreBackend:
    """Open the experiment store at ``path``.

    A URL opens the :data:`repro.registry.STORES` backend registered for
    its scheme: ``http``/``https`` select the campaign-server client, and
    any other scheme resolves verbatim, so an unknown ``redis://…``
    raises :class:`~repro.errors.RegistryError` listing the registered
    backends. Any other path opens the SQLite store, whatever its suffix.
    A plugin that lacks part of the :class:`StoreBackend` protocol, work
    queue included, is rejected here, once, with a
    :class:`~repro.errors.StoreError` naming it.
    """
    scheme = url_scheme(path)
    if scheme is None:
        name = "sqlite"
    else:
        name = "http" if scheme == "https" else scheme
    store = STORES.create(name, path=path)
    if not isinstance(store, StoreBackend):
        raise StoreError(
            f"store plugin {name!r} ({type(store).__name__}) does not "
            "implement the StoreBackend protocol (key/value + work queue)"
        )
    return store
