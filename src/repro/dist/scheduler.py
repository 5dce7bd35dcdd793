"""Sweep scheduler: expand a sweep into the work queue, drive workers.

The :class:`SweepScheduler` owns the driver side of a distributed sweep:

* **enqueue** — expand the :class:`~repro.api.spec.SweepSpec` into
  ``sweep_points`` rows keyed by ``(sweep fingerprint, point
  fingerprint)``. Rows are inserted idempotently, so re-running a killed
  sweep re-offers only what is not already done; points whose experiment
  record already sits in the store are pre-completed without ever
  reaching a worker (zero recomputation on resume);
* **run** — spawn N local worker processes (each a
  :class:`~repro.dist.worker.Worker` loop) against the shared store and
  wait for the queue to drain, releasing the leases of any worker that
  died so a follow-up run never waits out a dead lease. It returns only
  the run's accounting; :func:`~repro.api.runner.run_sweep`, which
  calls it, then replays every point's stored record through its
  ordinary point loop, so a distributed sweep's records and artifacts
  are assembled exactly like a serial one's. The records are
  byte-identical to a serial run's after nondeterministic-field
  stripping, because workers run the same ``run_experiment`` against
  the same spec fingerprints.

Workers do not have to be local children: any process on any machine
that can open the store file may run ``autolock worker`` against the
same ``sweep_id`` and the scheduler will happily share the queue with
it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
import uuid
from dataclasses import dataclass, field
from typing import Any

from repro.api.runner import EXPERIMENT_NAMESPACE, record_key
from repro.api.spec import ExperimentSpec, SweepSpec
from repro.errors import StoreError
from repro.obs import trace as obs_trace
from repro.obs.logs import get_logger
from repro.store import (
    STATUS_CLAIMED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    open_store,
)
from repro.dist.worker import worker_entry

log = get_logger("dist.scheduler")


@dataclass
class SweepScheduler:
    """Driver for one distributed sweep over a shared store."""

    sweep: SweepSpec
    #: keep previously finished queue rows (the normal, zero-recompute
    #: path); ``False`` forgets the sweep's rows and reschedules every
    #: point — cached experiment records still replay, only the queue
    #: bookkeeping restarts.
    resume: bool = True
    lease_ttl: float = 60.0
    max_attempts: int = 3
    sweep_id: str = ""
    specs: list[ExperimentSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.sweep.cache_path is None:
            raise StoreError(
                "a distributed sweep needs a shared store; set the sweep's "
                "cache_path (e.g. sweep.sqlite) so workers have somewhere "
                "to meet"
            )
        if not self.sweep_id:
            self.sweep_id = self.sweep.fingerprint()
        self.specs = self.sweep.expand()
        for spec in self.specs:
            spec.validate()
        self._store = open_store(self.sweep.cache_path)

    # -- queue management -----------------------------------------------
    def enqueue(self) -> int:
        """Schedule every point; returns how many rows were newly added.

        Points already recorded in the store's experiment namespace are
        marked done immediately — a resumed or warm sweep never re-runs
        them.
        """
        points = {
            spec.fingerprint(): spec.to_dict() for spec in self.specs
        }
        added = self._store.enqueue_points(
            self.sweep_id, points, reset=not self.resume
        )
        existing = self._store.load_namespace(EXPERIMENT_NAMESPACE)
        recorded = [
            spec.fingerprint()
            for spec in self.specs
            if record_key(spec) in existing
        ]
        self._store.mark_done(self.sweep_id, recorded)
        return added

    def queue_counts(self) -> dict[str, int]:
        return self._store.queue_counts(self.sweep_id)

    # -- execution ------------------------------------------------------
    def run(self, workers: int) -> dict[str, Any]:
        """Enqueue, drive ``workers`` local processes, reconcile the queue.

        Returns the run's accounting: worker count, sweep id, queue
        counts, fresh evaluations the workers paid this run, points
        completed this run, points replayed from earlier runs, and wall
        time. The store handle is closed when this returns.
        """
        if workers < 1:
            raise StoreError(f"distributed workers must be >= 1, got {workers}")
        started = time.perf_counter()
        with obs_trace.span("sweep.distributed") as span, \
                contextlib.closing(self._store):
            span.set(sweep_id=self.sweep_id, workers=workers)
            with obs_trace.span("sweep.enqueue"):
                self.enqueue()
            done_before = {
                p["fingerprint"]
                for p in self._store.points(self.sweep_id)
                if p["status"] == STATUS_DONE
            }

            worker_ids = [
                f"sched-{uuid.uuid4().hex[:6]}-{i}" for i in range(workers)
            ]
            # Children must open their own database handles; close ours so
            # a forked child never inherits a connection with live state.
            self._store.close()
            context = multiprocessing.get_context()
            processes = [
                context.Process(
                    target=worker_entry,
                    args=(
                        {
                            "store_path": str(self.sweep.cache_path),
                            "sweep_id": self.sweep_id,
                            "worker_id": worker_id,
                            "lease_ttl": self.lease_ttl,
                            "max_attempts": self.max_attempts,
                            "trace": self.sweep.trace,
                        },
                    ),
                    daemon=False,
                )
                for worker_id in worker_ids
            ]
            log.info(
                "sweep %s [%s]: driving %d local worker(s)",
                self.sweep.name, self.sweep_id, workers,
            )
            with obs_trace.span("sweep.workers") as span:
                span.set(n=workers)
                for process in processes:
                    process.start()
                for process in processes:
                    process.join()
            # A worker that died mid-point (crash, kill -9) leaves its
            # lease behind; release it so this — or the next — run
            # reclaims the point immediately instead of waiting out the
            # ttl.
            with obs_trace.span("sweep.reconcile"):
                for worker_id in worker_ids:
                    self._store.release_worker(self.sweep_id, worker_id)
                self._store.requeue_expired(self.sweep_id)
                counts = self.queue_counts()
                rows = self._store.points(self.sweep_id)
            if counts.get(STATUS_FAILED):
                errors = [
                    f"  {p['fingerprint']}: {p['error']}"
                    for p in rows
                    if p["status"] == STATUS_FAILED
                ]
                raise StoreError(
                    f"sweep {self.sweep.name} [{self.sweep_id}] finished "
                    f"with {counts[STATUS_FAILED]} failed point(s) after "
                    f"{self.max_attempts} attempts each:\n" + "\n".join(errors)
                )
            if counts.get(STATUS_PENDING) or counts.get(STATUS_CLAIMED):
                raise StoreError(
                    f"sweep {self.sweep.name} [{self.sweep_id}] still has "
                    f"unfinished points ({counts}) after its workers exited "
                    "— likely killed; re-run with resume to continue where "
                    "it stopped"
                )
        return {
            "workers": workers,
            "sweep_id": self.sweep_id,
            "queue": counts,
            "fresh_evaluations": sum(
                int(p["fresh_evaluations"] or 0)
                for p in rows
                if p["status"] == STATUS_DONE
                and p["fingerprint"] not in done_before
            ),
            "completed_this_run": sum(
                1 for p in rows if p["fingerprint"] not in done_before
            ),
            "replayed_from_cache": sum(
                1 for s in self.specs if s.fingerprint() in done_before
            ),
            "wall_s": time.perf_counter() - started,
        }
