"""Sweep worker: claim points from a shared store, run them, stream back.

A :class:`Worker` is one OS process cooperating on one sweep. Its loop:

1. *claim* the next pending point from the store's ``sweep_points``
   queue (lease-based, so no two workers ever run the same point);
2. run it through the ordinary :func:`repro.api.runner.run_experiment`
   on the worker's one open store handle — the finished record streams
   straight into the shared store, and fitness/report namespaces are
   shared too, so sibling workers reuse each other's attack evaluations.
   Engine points that ask for parallel or steady-state evaluation run
   their (async) search loops on **one** worker-owned
   :class:`~repro.ec.evaluator.AsyncEvaluator`, so the process pool is
   paid for once per worker, not once per point;
3. *heartbeat* the lease from a background thread while the evaluation
   runs, so slow points are not mistaken for dead workers;
4. *complete* the point (recording how many fresh attack evaluations it
   cost) and claim the next one.

The loop exits when the queue holds nothing claimable and nothing is
still leased to a sibling. Failures requeue the point until
``max_attempts``, then park it as ``failed`` with the error attached.
``worker_entry`` is the process entry point used by the scheduler and
the ``autolock worker`` CLI verb — workers only need the store path and
the sweep id; everything else lives in the queue payloads.
"""

from __future__ import annotations

import os
import random
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.api.runner import run_experiment
from repro.api.spec import ExperimentSpec
from repro.ec.evaluator import AsyncEvaluator, open_evaluator
from repro.errors import StoreError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logs import configure_logging, get_logger
from repro.store import STATUS_CLAIMED, STATUS_PENDING, open_store

T = TypeVar("T")

log = get_logger("dist.worker")

_POINTS = obs_metrics.METRICS.counter(
    "autolock_worker_points_total",
    "Queue points finished by this worker process, by outcome",
    labels=("status",),
)
_RETRIES = obs_metrics.METRICS.counter(
    "autolock_store_retries_total",
    "Store operations retried after a StoreError",
    labels=("op",),
)
_LEASES_LOST = obs_metrics.METRICS.counter(
    "autolock_worker_leases_lost_total",
    "Leases lost mid-run (stolen by a sibling or server unreachable)",
)
_POINT_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_worker_point_seconds",
    "Wall time one claimed point took to run",
)


def default_worker_id() -> str:
    """A human-traceable, collision-safe worker identity."""
    return f"w{os.getpid()}-{uuid.uuid4().hex[:6]}"


def retry_with_backoff(
    op: str,
    fn: Callable[[], T],
    *,
    attempts: int = 5,
    base_s: float = 0.2,
    cap_s: float = 5.0,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn``, retrying :class:`StoreError` with jittered backoff.

    Campaign stores live across a network: a blip or a server restart
    surfaces as a ``StoreError`` that is gone a moment later. Delays
    double from ``base_s`` up to ``cap_s`` with ±50% jitter (so a fleet
    of workers doesn't re-dogpile a recovering server in lockstep); when
    all ``attempts`` fail, the last error is re-raised wrapped with the
    operation name so ``autolock worker`` exits non-zero with context.
    """
    last: StoreError | None = None
    for attempt in range(max(1, attempts)):
        try:
            return fn()
        except StoreError as exc:
            last = exc
            if attempt + 1 >= max(1, attempts):
                break
            delay = min(cap_s, base_s * (2**attempt))
            jittered = delay * (0.5 + random.random())
            _RETRIES.inc(op=op)
            log.warning(
                "%s failed (attempt %d/%d): %s — retrying in %.2fs",
                op, attempt + 1, max(1, attempts), exc, jittered,
            )
            sleep(jittered)
    raise StoreError(
        f"{op} still failing after {max(1, attempts)} attempts: {last}"
    ) from last


class _LeaseHeartbeat:
    """Background thread renewing one point's lease while it runs."""

    def __init__(
        self, queue, point, interval_s: float, ttl: float,
        retry: Callable[[str, Callable[[], T]], T] | None = None,
    ) -> None:
        self._queue = queue
        self._point = point
        self._interval_s = interval_s
        self._ttl = ttl
        self._retry = retry
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.lost = False

    def _beat(self) -> bool:
        return self._queue.heartbeat(
            self._point.sweep_id,
            self._point.fingerprint,
            self._point.worker_id,
            self._ttl,
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                if self._retry is not None:
                    held = self._retry("heartbeat", self._beat)
                else:
                    held = self._beat()
            except StoreError:
                # Server unreachable past the retry budget: the lease
                # will expire server-side and a sibling will requeue the
                # point, so behave exactly as if the lease was stolen.
                self.lost = True
                return
            if not held:
                # Lease stolen (we stalled past the ttl). Keep computing —
                # the result is deterministic and complete() is idempotent —
                # but stop renewing a lease we no longer hold.
                self.lost = True
                return

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclass
class WorkerReport:
    """What one worker loop accomplished."""

    worker_id: str
    points_completed: int = 0
    points_failed: int = 0
    fresh_evaluations: int = 0
    wall_s: float = 0.0

    def describe(self) -> str:
        return (
            f"worker {self.worker_id}: {self.points_completed} points, "
            f"{self.points_failed} failed, "
            f"{self.fresh_evaluations} fresh attack evaluations, "
            f"{self.wall_s:.1f}s"
        )


@dataclass
class Worker:
    """One claim-run-complete loop against a shared sweep store."""

    store_path: str
    sweep_id: str
    worker_id: str = field(default_factory=default_worker_id)
    lease_ttl: float = 60.0
    poll_interval_s: float = 0.2
    max_attempts: int = 3
    #: stop after this many completed points (crash simulation in tests,
    #: bounded drain in ops); ``None`` runs until the queue is finished.
    max_points: int | None = None
    #: store-call retry budget (claim/heartbeat/complete over a network
    #: store): attempts with exponential backoff from ``retry_base_s``
    #: capped at ``retry_cap_s``. Exhaustion releases the lease and
    #: raises, so the CLI exits non-zero instead of wedging.
    retry_attempts: int = 5
    retry_base_s: float = 0.2
    retry_cap_s: float = 5.0
    #: span-trace stem; each worker writes its own derived file
    #: (``trace-<worker_id>.jsonl``) so processes never share a writer.
    trace: str | None = None

    def _retry(self, op: str, fn: Callable[[], T]) -> T:
        return retry_with_backoff(
            op,
            fn,
            attempts=self.retry_attempts,
            base_s=self.retry_base_s,
            cap_s=self.retry_cap_s,
        )

    def run(self) -> WorkerReport:
        trace_path = (
            obs_trace.derive_worker_path(self.trace, self.worker_id)
            if self.trace
            else None
        )
        with obs_trace.tracing(trace_path, worker=self.worker_id):
            with obs_trace.span("worker.run") as span:
                span.set(worker=self.worker_id, sweep=self.sweep_id)
                return self._run()

    def _run(self) -> WorkerReport:
        started = time.perf_counter()
        report = WorkerReport(worker_id=self.worker_id)
        with obs_trace.span("worker.connect"):
            # One handle for the whole loop: claims, heartbeats, and every
            # record and fitness cache of every point it runs.
            store = open_store(self.store_path)
        heartbeat_interval = max(0.05, self.lease_ttl / 3.0)
        #: lazily-built pool shared by every parallel/steady-state engine
        #: point this worker runs (grown when a point asks for more
        #: workers; results are worker-count independent).
        shared_evaluator: AsyncEvaluator | None = None
        try:
            while True:
                if (
                    self.max_points is not None
                    and report.points_completed >= self.max_points
                ):
                    break
                with obs_trace.span("worker.claim"):
                    point = self._retry(
                        "claim",
                        lambda: store.claim(
                            self.sweep_id, self.worker_id, self.lease_ttl
                        ),
                    )
                if point is None:
                    # claim() already treats expired leases as claimable,
                    # so an empty claim means: drained, or siblings still
                    # hold live leases.
                    with obs_trace.span("worker.idle"):
                        counts = self._retry(
                            "queue status",
                            lambda: store.queue_counts(self.sweep_id),
                        )
                        drained = not (
                            counts.get(STATUS_PENDING, 0)
                            or counts.get(STATUS_CLAIMED, 0)
                        )
                        if not drained:
                            time.sleep(self.poll_interval_s)
                    if drained:
                        break  # queue drained: every point done or failed
                    continue
                with obs_trace.span("worker.prepare"):
                    log.info("claimed point %s", point.fingerprint[:12])
                    # The enqueuer's trace path belongs to another
                    # process, possibly another machine; this worker's
                    # own tracer — opened in run() — already covers the
                    # whole loop. (Its cache_path is never opened: the
                    # point runs on this worker's store handle.)
                    spec = ExperimentSpec.from_dict(point.payload)
                    spec = spec.with_updates(trace=None)
                    evaluator = open_evaluator(
                        spec.workers,
                        search=spec.engine is not None,
                        shared=shared_evaluator,
                    )
                    if isinstance(evaluator, AsyncEvaluator):
                        shared_evaluator = evaluator
                heartbeat = _LeaseHeartbeat(
                    store, point, heartbeat_interval, self.lease_ttl,
                    retry=self._retry,
                )
                point_started = time.perf_counter()
                try:
                    with obs_trace.span("worker.point") as span, heartbeat:
                        span.set(fingerprint=point.fingerprint)
                        result = run_experiment(
                            spec, evaluator=evaluator, store=store,
                        )
                except Exception as exc:  # noqa: BLE001 - point-level isolation
                    if heartbeat.lost:
                        # Our lease was stolen mid-run; the point belongs
                        # to a sibling now — reporting our failure would
                        # scribble on their row. (The store guards this
                        # too; skipping here avoids a misleading error.)
                        _LEASES_LOST.inc()
                        log.warning(
                            "lease for %s lost mid-run; leaving the point "
                            "to its new owner", point.fingerprint[:12],
                        )
                        continue
                    with obs_trace.span("worker.fail"):
                        log.warning(
                            "point %s failed: %s: %s",
                            point.fingerprint[:12], type(exc).__name__, exc,
                        )
                        status = store.fail(
                            self.sweep_id,
                            point.fingerprint,
                            self.worker_id,
                            f"{type(exc).__name__}: {exc}",
                            max_attempts=self.max_attempts,
                        )
                    _POINTS.inc(status=status)
                    if status == "failed":
                        report.points_failed += 1
                    continue
                if heartbeat.lost:
                    # Our lease expired mid-run and the point belongs to
                    # a sibling; the lease-guarded complete would be
                    # rejected anyway. The record itself is already
                    # safely (and identically) in the store.
                    _LEASES_LOST.inc()
                    log.warning(
                        "lease for %s expired mid-run; result is in the "
                        "store, completion left to the lease holder",
                        point.fingerprint[:12],
                    )
                    continue
                with obs_trace.span("worker.complete"):
                    self._retry(
                        "complete",
                        lambda: store.complete(
                            self.sweep_id,
                            point.fingerprint,
                            self.worker_id,
                            fresh_evaluations=result.fresh_evaluations,
                        ),
                    )
                    log.info(
                        "completed %s (%d fresh evaluations, %.1fs)",
                        point.fingerprint[:12], result.fresh_evaluations,
                        time.perf_counter() - point_started,
                    )
                _POINTS.inc(status="completed")
                _POINT_SECONDS.observe(time.perf_counter() - point_started)
                report.points_completed += 1
                report.fresh_evaluations += result.fresh_evaluations
        except StoreError:
            # Retry budget exhausted (server down for good, bad token,
            # …): hand whatever we still hold back to the queue so a
            # sibling can pick it up, then surface the error — the CLI
            # turns it into a non-zero exit.
            try:
                store.release_worker(self.sweep_id, self.worker_id)
            except StoreError:
                pass  # the release itself needs the unreachable server
            raise
        finally:
            with obs_trace.span("worker.close"):
                if shared_evaluator is not None:
                    shared_evaluator.close()
                store.close()
        report.wall_s = time.perf_counter() - started
        return report


def worker_entry(config: dict[str, Any]) -> WorkerReport:
    """Process entry point: build a :class:`Worker` from plain kwargs.

    Takes a plain dict (picklable under any multiprocessing start
    method) so the scheduler and the CLI share one spawn path. The
    non-:class:`Worker` key ``verbose`` tunes this process's log level;
    all lines are worker-id-prefixed so interleaved multi-worker stdout
    stays attributable.
    """
    config = dict(config)
    verbose = config.pop("verbose", False)
    worker = Worker(**config)
    configure_logging(
        "DEBUG" if verbose else None, worker_id=worker.worker_id
    )
    report = worker.run()
    log.info(report.describe())
    return report
