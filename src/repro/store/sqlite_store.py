"""SQLite experiment store: concurrent cross-process state + work queue.

One WAL-mode database file carries everything a sweep campaign shares:

* ``kv`` — namespaced key/value entries (per-genotype fitness values,
  finished experiment records and co-evolution checkpoints);
* ``sweep_points`` — the distributed work queue: one row per (sweep,
  point fingerprint) with a lease-based claim protocol, so any number of
  OS processes can cooperate on one sweep without double-running points.

Concurrency model: WAL lets readers proceed under a writer; writes are
short transactions retried with exponential backoff on ``database is
locked``/``busy`` (on top of SQLite's own ``busy_timeout``). Claims use
``BEGIN IMMEDIATE`` so two workers can never lease the same point.
Connections are per-process and guarded by a thread lock — the store is
safe to share between the evaluator dispatch thread and the main thread,
and safe to reopen by path in forked/spawned workers.

Every non-URL store path opens this store, whatever its suffix; a file
that is not a SQLite database (such as a JSON fitness cache written by
older releases) is refused with a :class:`~repro.errors.StoreError` the
first time the store is used.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from repro.errors import StoreError
from repro.registry import register_store
from repro.store.base import (
    STATUS_CLAIMED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    ClaimedPoint,
)

T = TypeVar("T")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kv (
    namespace  TEXT NOT NULL,
    key        TEXT NOT NULL,
    value      TEXT NOT NULL,
    updated_at REAL NOT NULL,
    PRIMARY KEY (namespace, key)
);
CREATE TABLE IF NOT EXISTS sweep_points (
    sweep_id      TEXT NOT NULL,
    fingerprint   TEXT NOT NULL,
    payload       TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    worker_id     TEXT,
    lease_expires REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    error         TEXT,
    enqueued_at   REAL NOT NULL,
    completed_at  REAL,
    fresh_evaluations INTEGER,
    PRIMARY KEY (sweep_id, fingerprint)
);
CREATE INDEX IF NOT EXISTS idx_sweep_points_status
    ON sweep_points (sweep_id, status, lease_expires);
"""

#: ``sqlite3.OperationalError`` messages worth retrying.
_BUSY_MARKERS = ("locked", "busy")


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return any(marker in message for marker in _BUSY_MARKERS)


@register_store("sqlite")
class SQLiteStore:
    """WAL-mode SQLite :class:`~repro.store.base.StoreBackend`."""

    def __init__(
        self,
        path: str | Path,
        *,
        busy_timeout_s: float = 10.0,
        retries: int = 8,
        retry_base_s: float = 0.02,
    ) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise StoreError(
                f"store path {self.path} is a directory; point it at a file"
            )
        self.busy_timeout_s = busy_timeout_s
        self.retries = retries
        self.retry_base_s = retry_base_s
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._pid = os.getpid()

    # -- connection lifecycle -------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """The current process's connection, opened (or reopened) lazily.

        A connection inherited through ``fork`` must never be used in the
        child — the pid check forces each process onto its own handle.
        """
        if self._conn is not None and self._pid != os.getpid():
            self._conn = None  # forked child: abandon the parent's handle
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path,
                timeout=self.busy_timeout_s,
                isolation_level=None,  # autocommit; we manage transactions
                check_same_thread=False,  # guarded by self._lock
            )
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SCHEMA)
            except sqlite3.DatabaseError as exc:
                conn.close()
                if isinstance(exc, sqlite3.OperationalError):
                    raise  # busy/locked: _with_retry decides
                raise StoreError(
                    f"store {self.path} is not a SQLite database ({exc}); "
                    "JSON fitness caches are no longer read — move the "
                    "file aside or point the cache at a new path"
                ) from exc
            self._conn = conn
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None

    def __getstate__(self) -> dict:
        """Pickle by path only; the receiving process reopens lazily."""
        state = self.__dict__.copy()
        state["_conn"] = None
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._pid = os.getpid()

    # -- retry plumbing -------------------------------------------------
    def _with_retry(self, attempt: Callable[[], T]) -> T:
        with self._lock:
            last: sqlite3.OperationalError | None = None
            for round_ in range(self.retries + 1):
                try:
                    return attempt()
                except sqlite3.OperationalError as exc:
                    if not _is_busy(exc):
                        raise
                    last = exc
                    time.sleep(self.retry_base_s * (2 ** round_))
            raise StoreError(
                f"SQLite store {self.path} stayed busy after "
                f"{self.retries + 1} attempts: {last}"
            ) from last

    def _transaction(
        self, work: Callable[[sqlite3.Connection], T], *, immediate: bool = False
    ) -> T:
        """Run ``work`` inside one retried write transaction.

        ``immediate`` takes the database write lock up front — required
        whenever ``work`` reads and then updates (the claim protocol),
        since a deferred transaction could lose that race.
        """

        def attempt() -> T:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE" if immediate else "BEGIN")
            try:
                result = work(conn)
                conn.execute("COMMIT")
                return result
            except BaseException:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.OperationalError:
                    pass  # BEGIN itself failed; nothing to roll back
                raise

        return self._with_retry(attempt)

    def _query(self, sql: str, params: tuple = ()) -> list[tuple]:
        """One retried read."""
        return self._with_retry(
            lambda: self._connect().execute(sql, params).fetchall()
        )

    # -- key/value ------------------------------------------------------
    def load_namespace(self, namespace: str) -> dict[str, Any]:
        rows = self._query(
            "SELECT key, value FROM kv WHERE namespace = ?", (namespace,)
        )
        return {key: json.loads(value) for key, value in rows}

    def get(self, namespace: str, key: str) -> Any | None:
        rows = self._query(
            "SELECT value FROM kv WHERE namespace = ? AND key = ?",
            (namespace, key),
        )
        return json.loads(rows[0][0]) if rows else None

    def put_many(self, namespace: str, entries: Mapping[str, Any]) -> None:
        if not entries:
            return
        now = time.time()
        rows = [
            (namespace, key, json.dumps(value), now)
            for key, value in entries.items()
        ]
        self._transaction(
            lambda conn: conn.executemany(
                "INSERT INTO kv (namespace, key, value, updated_at) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT (namespace, key) DO UPDATE SET "
                "value = excluded.value, updated_at = excluded.updated_at",
                rows,
            )
        )

    def wipe_namespace(self, namespace: str) -> None:
        self._transaction(
            lambda conn: conn.execute(
                "DELETE FROM kv WHERE namespace = ?", (namespace,)
            )
        )

    def delete_many(self, namespace: str, keys: list[str]) -> int:
        """Drop specific entries from one namespace; returns how many."""
        if not keys:
            return 0

        def work(conn: sqlite3.Connection) -> int:
            dropped = 0
            for key in keys:
                cursor = conn.execute(
                    "DELETE FROM kv WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
                dropped += cursor.rowcount
            return dropped

        return self._transaction(work, immediate=True)

    def vacuum(self) -> None:
        """Compact the database file (``VACUUM`` + WAL truncation)."""
        def attempt() -> None:
            conn = self._connect()
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

        self._with_retry(attempt)

    def disk_usage(self) -> int:
        """Bytes currently held by the store's files (db + WAL sidecars)."""
        total = 0
        for path in (
            self.path,
            Path(str(self.path) + "-wal"),
            Path(str(self.path) + "-shm"),
        ):
            with contextlib.suppress(OSError):
                total += path.stat().st_size
        return total

    def namespaces(self) -> list[str]:
        return sorted(
            row[0] for row in self._query("SELECT DISTINCT namespace FROM kv")
        )

    def status(self) -> dict[str, Any]:
        namespace_counts = {
            name: count
            for name, count in self._query(
                "SELECT namespace, COUNT(*) FROM kv "
                "GROUP BY namespace ORDER BY namespace"
            )
        }
        sweeps: dict[str, dict[str, int]] = {}
        for sweep_id, point_status, count in self._query(
            "SELECT sweep_id, status, COUNT(*) FROM sweep_points "
            "GROUP BY sweep_id, status ORDER BY sweep_id"
        ):
            sweeps.setdefault(sweep_id, {})[point_status] = count
        fresh = self._query(
            "SELECT COALESCE(SUM(fresh_evaluations), 0) FROM sweep_points"
        )
        return {
            "backend": "sqlite",
            "path": str(self.path),
            "exists": self.path.exists(),
            "namespaces": namespace_counts,
            "entries": sum(namespace_counts.values()),
            "sweeps": sweeps,
            "fresh_evaluations": int(fresh[0][0]) if fresh else 0,
        }

    # -- work queue -----------------------------------------------------
    def enqueue_points(
        self, sweep_id: str, points: Mapping[str, Mapping[str, Any]],
        *, reset: bool = False,
    ) -> int:
        now = time.time()
        rows = [
            (sweep_id, fingerprint, json.dumps(payload), now)
            for fingerprint, payload in points.items()
        ]

        def work(conn: sqlite3.Connection) -> int:
            if reset:
                conn.execute(
                    "DELETE FROM sweep_points WHERE sweep_id = ?", (sweep_id,)
                )
            before = conn.execute(
                "SELECT COUNT(*) FROM sweep_points WHERE sweep_id = ?",
                (sweep_id,),
            ).fetchone()[0]
            conn.executemany(
                "INSERT OR IGNORE INTO sweep_points "
                "(sweep_id, fingerprint, payload, status, attempts, enqueued_at) "
                "VALUES (?, ?, ?, 'pending', 0, ?)",
                rows,
            )
            after = conn.execute(
                "SELECT COUNT(*) FROM sweep_points WHERE sweep_id = ?",
                (sweep_id,),
            ).fetchone()[0]
            return after - before

        return self._transaction(work, immediate=True)

    def mark_done(self, sweep_id: str, fingerprints: list[str]) -> int:
        """Pre-complete points whose records already exist (warm resume);
        returns how many flipped to done."""
        if not fingerprints:
            return 0
        now = time.time()

        def work(conn: sqlite3.Connection) -> int:
            flipped = 0
            for fingerprint in fingerprints:
                cursor = conn.execute(
                    "UPDATE sweep_points SET status = ?, completed_at = ?, "
                    "worker_id = COALESCE(worker_id, 'cache') "
                    "WHERE sweep_id = ? AND fingerprint = ? AND status != ?",
                    (STATUS_DONE, now, sweep_id, fingerprint, STATUS_DONE),
                )
                flipped += cursor.rowcount
            return flipped

        return self._transaction(work, immediate=True)

    def claim(
        self, sweep_id: str, worker_id: str, ttl: float
    ) -> ClaimedPoint | None:
        now = time.time()

        def work(conn: sqlite3.Connection) -> ClaimedPoint | None:
            row = conn.execute(
                "SELECT fingerprint, payload, attempts FROM sweep_points "
                "WHERE sweep_id = ? AND (status = ? "
                "      OR (status = ? AND lease_expires < ?)) "
                "ORDER BY enqueued_at, fingerprint LIMIT 1",
                (sweep_id, STATUS_PENDING, STATUS_CLAIMED, now),
            ).fetchone()
            if row is None:
                return None
            fingerprint, payload, attempts = row
            conn.execute(
                "UPDATE sweep_points SET status = ?, worker_id = ?, "
                "lease_expires = ?, attempts = attempts + 1 "
                "WHERE sweep_id = ? AND fingerprint = ?",
                (STATUS_CLAIMED, worker_id, now + ttl, sweep_id, fingerprint),
            )
            return ClaimedPoint(
                sweep_id=sweep_id,
                fingerprint=fingerprint,
                payload=json.loads(payload),
                worker_id=worker_id,
                lease_expires=now + ttl,
                attempts=attempts + 1,
            )

        return self._transaction(work, immediate=True)

    def heartbeat(
        self, sweep_id: str, fingerprint: str, worker_id: str, ttl: float
    ) -> bool:
        cursor = self._transaction(
            lambda conn: conn.execute(
                "UPDATE sweep_points SET lease_expires = ? "
                "WHERE sweep_id = ? AND fingerprint = ? "
                "AND worker_id = ? AND status = ?",
                (time.time() + ttl, sweep_id, fingerprint, worker_id,
                 STATUS_CLAIMED),
            )
        )
        return cursor.rowcount > 0

    def complete(
        self, sweep_id: str, fingerprint: str, worker_id: str,
        *, fresh_evaluations: int = 0, require_lease: bool = False,
    ) -> bool:
        """Mark a point done; returns whether the point is now done.

        Default (local workers): unconditional on the lease holder — the
        experiment record is already persisted, so even a worker whose
        lease was stolen mid-run may mark the point done; both leases
        computed the same deterministic record. ``require_lease=True``
        (the campaign server's complete endpoint) instead *rejects* a
        completion from a worker that no longer holds the claim — a
        zombie worker's late complete must not scribble over a row a
        sibling has since reclaimed. An already-``done`` point stays an
        idempotent success either way.
        """

        def work(conn: sqlite3.Connection) -> bool:
            if require_lease:
                row = conn.execute(
                    "SELECT status, worker_id FROM sweep_points "
                    "WHERE sweep_id = ? AND fingerprint = ?",
                    (sweep_id, fingerprint),
                ).fetchone()
                if row is None:
                    return False
                status, holder = row
                if status == STATUS_DONE:
                    return True  # idempotent duplicate complete
                if status != STATUS_CLAIMED or holder != worker_id:
                    return False  # lease lost: requeued or reclaimed
            conn.execute(
                "UPDATE sweep_points SET status = ?, worker_id = ?, "
                "completed_at = ?, error = NULL, fresh_evaluations = ? "
                "WHERE sweep_id = ? AND fingerprint = ?",
                (STATUS_DONE, worker_id, time.time(), fresh_evaluations,
                 sweep_id, fingerprint),
            )
            return True

        return self._transaction(work, immediate=require_lease)

    def release_worker(self, sweep_id: str, worker_id: str) -> int:
        """Requeue every point still claimed by ``worker_id`` (the driver
        calls this after a worker process exits or is killed, so resume
        does not have to wait out the dead worker's lease)."""
        return self._transaction(
            lambda conn: conn.execute(
                "UPDATE sweep_points SET status = ?, worker_id = NULL, "
                "lease_expires = NULL "
                "WHERE sweep_id = ? AND status = ? AND worker_id = ?",
                (STATUS_PENDING, sweep_id, STATUS_CLAIMED, worker_id),
            ).rowcount,
            immediate=True,
        )

    def fail(
        self, sweep_id: str, fingerprint: str, worker_id: str, error: str,
        *, max_attempts: int = 3,
    ) -> str:
        def work(conn: sqlite3.Connection) -> str:
            row = conn.execute(
                "SELECT attempts, status, worker_id FROM sweep_points "
                "WHERE sweep_id = ? AND fingerprint = ?",
                (sweep_id, fingerprint),
            ).fetchone()
            if row is None:
                return "missing"
            attempts, current_status, current_worker = row
            if current_status != STATUS_CLAIMED or current_worker != worker_id:
                # The caller's lease was stolen (stalled past its ttl) and
                # a sibling has since claimed or even completed the point;
                # a failure report for a lease we no longer hold must not
                # clobber their row.
                return current_status
            status = STATUS_FAILED if attempts >= max_attempts else STATUS_PENDING
            conn.execute(
                "UPDATE sweep_points SET status = ?, error = ?, "
                "worker_id = NULL, lease_expires = NULL "
                "WHERE sweep_id = ? AND fingerprint = ?",
                (status, f"{worker_id}: {error}"[:500], sweep_id, fingerprint),
            )
            return status

        return self._transaction(work, immediate=True)

    def retry_failed(self, sweep_id: str) -> int:
        """Requeue every ``failed`` point of one sweep; returns how many.

        Attempt counters reset to zero and the stored error is cleared,
        so the next worker gets a full ``max_attempts`` budget — the verb
        behind ``autolock store retry`` for transient attack failures.
        """
        return self._transaction(
            lambda conn: conn.execute(
                "UPDATE sweep_points SET status = ?, worker_id = NULL, "
                "lease_expires = NULL, error = NULL, attempts = 0 "
                "WHERE sweep_id = ? AND status = ?",
                (STATUS_PENDING, sweep_id, STATUS_FAILED),
            ).rowcount,
            immediate=True,
        )

    def requeue_expired(self, sweep_id: str) -> int:
        return self._transaction(
            lambda conn: conn.execute(
                "UPDATE sweep_points SET status = ?, worker_id = NULL, "
                "lease_expires = NULL "
                "WHERE sweep_id = ? AND status = ? AND lease_expires < ?",
                (STATUS_PENDING, sweep_id, STATUS_CLAIMED, time.time()),
            ).rowcount,
            immediate=True,
        )

    def queue_counts(self, sweep_id: str) -> dict[str, int]:
        return {
            status: count
            for status, count in self._query(
                "SELECT status, COUNT(*) FROM sweep_points "
                "WHERE sweep_id = ? GROUP BY status",
                (sweep_id,),
            )
        }

    def points(self, sweep_id: str) -> list[dict[str, Any]]:
        """Every point row of one sweep (introspection/tests)."""
        rows = self._query(
            "SELECT fingerprint, status, worker_id, lease_expires, attempts, "
            "error, completed_at, fresh_evaluations "
            "FROM sweep_points WHERE sweep_id = ? "
            "ORDER BY enqueued_at, fingerprint",
            (sweep_id,),
        )
        return [
            {
                "fingerprint": fingerprint,
                "status": status,
                "worker_id": worker_id,
                "lease_expires": lease_expires,
                "attempts": attempts,
                "error": error,
                "completed_at": completed_at,
                "fresh_evaluations": fresh_evaluations,
            }
            for (fingerprint, status, worker_id, lease_expires, attempts,
                 error, completed_at, fresh_evaluations) in rows
        ]
