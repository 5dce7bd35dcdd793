"""Distributed sweep execution: scheduler + workers over a shared store.

``run_sweep(distributed=N)`` is the one-call entry point: the
scheduler runs every point on the workers, and ``run_sweep``'s own point
loop then replays the stored records into the sweep's result and
artifacts. The pieces — :class:`~repro.dist.scheduler.SweepScheduler`
(expand, enqueue, drive, reconcile) and
:class:`~repro.dist.worker.Worker` (claim, run, heartbeat, complete) —
are public so operators can run workers on other machines via
``autolock worker`` against the same store file.
"""

from repro.dist.scheduler import SweepScheduler
from repro.dist.worker import Worker, WorkerReport, default_worker_id, worker_entry

__all__ = [
    "SweepScheduler",
    "Worker",
    "WorkerReport",
    "default_worker_id",
    "worker_entry",
]
