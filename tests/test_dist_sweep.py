"""Distributed sweep execution: scheduler, workers, resume semantics.

The contract under test (ISSUE 3 acceptance): a sweep distributed across
>= 2 worker processes on a shared SQLite store yields records
byte-identical (after nondeterministic-field stripping) to the serial
``run_sweep``, and a killed sweep resumes with zero re-evaluation of
already-completed points.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import ExperimentSpec, SweepSpec, run_sweep
from repro.api.runner import EXPERIMENT_NAMESPACE, record_key
from repro.dist import SweepScheduler, Worker
from repro.errors import StoreError
from repro.store import SQLiteStore

from reference.store import entry_updated_at


def _static_sweep(cache_path, n_points: int = 3) -> SweepSpec:
    return SweepSpec(
        name="dist_static",
        base=ExperimentSpec(
            circuit="rand_150_5",
            key_length=4,
            scheme="dmux",
            attack="muxlink",
            attack_params={"predictor": "bayes"},
            seed=1,
        ),
        axes={"key_length": [4, 6, 8][:n_points]},
        cache_path=str(cache_path),
    )


def _engine_sweep(cache_path) -> SweepSpec:
    return SweepSpec(
        name="dist_engine",
        base=ExperimentSpec(
            circuit="rand_100_9",
            key_length=4,
            attack="muxlink",
            attack_params={"predictor": "bayes"},
            engine="ga",
            engine_params={"population_size": 4, "generations": 2},
        ),
        axes={"seed": [0, 1]},
        cache_path=str(cache_path),
    )


def _stripped(results) -> list[str]:
    return [
        json.dumps(r.deterministic_record(), sort_keys=True) for r in results
    ]


# ------------------------------------------------- serial equivalence
def test_distributed_static_sweep_matches_serial_byte_for_byte(tmp_path):
    serial = run_sweep(_static_sweep(tmp_path / "serial.sqlite"))
    dist = run_sweep(_static_sweep(tmp_path / "dist.sqlite"), distributed=2)
    assert _stripped(serial.results) == _stripped(dist.results)
    assert dist.fresh_evaluations == serial.fresh_evaluations == 3
    assert dist.distributed["workers"] == 2
    assert dist.distributed["completed_this_run"] == 3


def test_distributed_engine_sweep_matches_serial_byte_for_byte(tmp_path):
    serial = run_sweep(_engine_sweep(tmp_path / "serial.sqlite"))
    dist = run_sweep(_engine_sweep(tmp_path / "dist.sqlite"), distributed=2)
    assert _stripped(serial.results) == _stripped(dist.results)
    # Engine records must still carry the champion for rebuild_locked.
    rebuilt = dist.results[0].rebuild_locked()
    assert rebuilt.key.bits == serial.results[0].rebuild_locked().key.bits


def test_distributed_warm_resume_reports_zero_fresh(tmp_path):
    sweep = _static_sweep(tmp_path / "dist.sqlite")
    cold = run_sweep(sweep, distributed=2)
    assert cold.fresh_evaluations == 3
    warm = run_sweep(sweep, distributed=2)
    assert warm.fresh_evaluations == 0, "warm resume must replay everything"
    assert warm.n_from_cache == 3
    assert warm.distributed["completed_this_run"] == 0


def test_distributed_artifacts_written(tmp_path):
    from repro.api import read_manifest, read_results

    out = tmp_path / "arts"
    result = run_sweep(
        _static_sweep(tmp_path / "dist.sqlite"), distributed=2, out_dir=out
    )
    records = read_results(out)
    manifest = read_manifest(out)
    assert len(records) == 3
    assert [r["fingerprint"] for r in records] == [
        r.fingerprint for r in result.results
    ], "artifact order must follow the deterministic expansion order"
    assert manifest["distributed"]["workers"] == 2
    assert manifest["n_points"] == 3


def test_distributed_manifest_matches_the_in_process_one(tmp_path):
    """One assembly path: the distributed manifest carries every key of
    the in-process manifest plus the scheduler's accounting, and its
    elapsed time covers the whole sweep, workers included."""
    from repro.api import read_manifest

    run_sweep(_static_sweep(tmp_path / "serial.sqlite"), out_dir=tmp_path / "s")
    result = run_sweep(
        _static_sweep(tmp_path / "dist.sqlite"), distributed=2,
        out_dir=tmp_path / "d",
    )
    serial = read_manifest(tmp_path / "s")
    dist = read_manifest(tmp_path / "d")
    assert set(dist) == set(serial) | {"distributed"}
    assert dist["distributed"] == result.distributed
    assert dist["elapsed_s"] >= dist["distributed"]["wall_s"]
    assert dist["fresh_evaluations"] == serial["fresh_evaluations"] == 3
    assert dist["async_points"] == serial["async_points"]


def test_distributed_trace_is_rooted_at_the_sweep(tmp_path):
    """The sweep's own file holds one root ``sweep`` span with the
    scheduler and the replayed points under it; each worker process
    writes the points it ran to its own file."""
    from repro.obs.summarize import load_spans

    trace = tmp_path / "trace.jsonl"
    sweep = dataclasses.replace(
        _static_sweep(tmp_path / "dist.sqlite"), trace=str(trace)
    )
    run_sweep(sweep, distributed=2)

    spans = load_spans([trace])
    roots = [s for s in spans if s.get("parent") is None]
    assert [r["name"] for r in roots] == ["sweep"]
    under_root = [s["name"] for s in spans if s.get("parent") == roots[0]["span"]]
    assert under_root.count("sweep.distributed") == 1
    assert under_root.count("experiment") == 3
    worker_files = sorted(tmp_path.glob("trace-*.jsonl"))
    assert len(worker_files) == 2
    worker_spans = load_spans(worker_files)
    assert [s["name"] for s in worker_spans].count("worker.point") == 3


def test_worker_run_time_lies_inside_its_child_spans(tmp_path, monkeypatch):
    """Each step of a worker's loop, the lease heartbeat's start and stop
    included, runs under a child span: a heartbeat slow to start still
    leaves ``worker.run`` almost no self time."""
    import time

    from repro.dist import worker as worker_module
    from repro.obs.summarize import load_spans, summarize

    heartbeat = worker_module._LeaseHeartbeat
    enter = heartbeat.__enter__

    def slow_enter(self):
        time.sleep(0.1)
        return enter(self)

    monkeypatch.setattr(heartbeat, "__enter__", slow_enter)
    store_path = tmp_path / "dist.sqlite"
    scheduler = SweepScheduler(_static_sweep(store_path, n_points=1))
    scheduler.enqueue()
    report = Worker(
        store_path=str(store_path), sweep_id=scheduler.sweep_id,
        trace=str(tmp_path / "trace.jsonl"),
    ).run()
    assert report.points_completed == 1

    spans = load_spans(sorted(tmp_path.glob("trace-*.jsonl")))
    rows = {row["name"]: row for row in summarize(spans)["rows"]}
    assert rows["worker.point"]["cum_s"] >= 0.1
    assert rows["worker.run"]["self_s"] < 0.05


# ------------------------------------------------------- crash + resume
def test_killed_sweep_resumes_with_zero_recomputation(tmp_path):
    """Kill after one point; the resume must not re-run that point."""
    store_path = tmp_path / "dist.sqlite"
    sweep = _static_sweep(store_path)

    # Phase 1: a lone worker completes exactly one point, then "dies"
    # (max_points simulates the kill between points).
    scheduler = SweepScheduler(sweep)
    scheduler.enqueue()
    report = Worker(
        store_path=str(store_path),
        sweep_id=scheduler.sweep_id,
        max_points=1,
    ).run()
    assert report.points_completed == 1

    store = SQLiteStore(store_path)
    rows = {p["fingerprint"]: p for p in store.points(scheduler.sweep_id)}
    done_fp = [fp for fp, p in rows.items() if p["status"] == "done"]
    assert len(done_fp) == 1
    done_spec = next(
        s for s in sweep.expand() if s.fingerprint() == done_fp[0]
    )
    record_written_at = entry_updated_at(
        store_path, EXPERIMENT_NAMESPACE, record_key(done_spec)
    )
    completed_at = rows[done_fp[0]]["completed_at"]
    assert record_written_at is not None

    # Phase 2: resume with two fresh workers; only the two remaining
    # points may cost fresh attack evaluations.
    resumed = run_sweep(sweep, distributed=2)
    assert len(resumed.results) == 3
    assert resumed.fresh_evaluations == 2, (
        "resume recomputed an already-completed point"
    )
    assert resumed.distributed["completed_this_run"] == 2

    rows_after = {
        p["fingerprint"]: p for p in store.points(scheduler.sweep_id)
    }
    assert rows_after[done_fp[0]]["completed_at"] == completed_at, (
        "resume touched the finished point's queue row"
    )
    assert (
        entry_updated_at(
            store_path, EXPERIMENT_NAMESPACE, record_key(done_spec)
        )
        == record_written_at
    ), "resume rewrote the finished point's experiment record"
    store.close()


def test_worker_killed_mid_point_lease_expires_and_point_reruns(tmp_path):
    """A lease abandoned mid-evaluation is requeued after its ttl."""
    store_path = tmp_path / "dist.sqlite"
    sweep = _static_sweep(store_path, n_points=2)
    scheduler = SweepScheduler(sweep)
    scheduler.enqueue()

    # Simulate a worker that claimed a point and was then kill -9'd.
    store = SQLiteStore(store_path)
    dead = store.claim(scheduler.sweep_id, "dead-worker", ttl=0.05)
    assert dead is not None
    store.close()

    result = run_sweep(sweep, distributed=1)
    assert len(result.results) == 2
    assert result.fresh_evaluations == 2, "abandoned point must still run"
    store = SQLiteStore(store_path)
    rows = {p["fingerprint"]: p for p in store.points(scheduler.sweep_id)}
    assert rows[dead.fingerprint]["status"] == "done"
    assert rows[dead.fingerprint]["attempts"] >= 2
    store.close()


# --------------------------------------------------------- failure path
def test_poisoned_point_fails_after_max_attempts_and_scheduler_reports(
    tmp_path,
):
    store_path = tmp_path / "dist.sqlite"
    sweep = _static_sweep(store_path, n_points=2)
    scheduler = SweepScheduler(sweep, max_attempts=2)
    scheduler.enqueue()
    # Poison pill: a payload whose circuit does not exist.
    store = SQLiteStore(store_path)
    bad_payload = sweep.base.with_updates(circuit="no_such_circuit").to_dict()
    store.enqueue_points(
        scheduler.sweep_id, {"poison": bad_payload}
    )
    store.close()

    with pytest.raises(StoreError, match="failed point"):
        scheduler.run(workers=1)

    store = SQLiteStore(store_path)
    rows = {p["fingerprint"]: p for p in store.points(scheduler.sweep_id)}
    assert rows["poison"]["status"] == "failed"
    assert "no_such_circuit" in rows["poison"]["error"]
    assert rows["poison"]["attempts"] == 2
    # The healthy points still completed despite the poison pill.
    healthy = [p for fp, p in rows.items() if fp != "poison"]
    assert all(p["status"] == "done" for p in healthy)
    store.close()


def test_distributed_sweep_requires_cache_path(tmp_path):
    sweep = SweepSpec(
        base=ExperimentSpec(circuit="rand_150_5", key_length=4, seed=1),
        axes={"key_length": [4, 6]},
    )
    with pytest.raises(StoreError, match="cache_path"):
        run_sweep(sweep, distributed=2)


# ------------------------------------------------------------------ CLI
def test_cli_distributed_sweep_and_store_status(tmp_path, capsys):
    from repro.cli import main

    sweep_path = tmp_path / "sweep.json"
    store_path = tmp_path / "store.sqlite"
    sweep_path.write_text(_static_sweep(store_path, n_points=2).to_json())

    assert main(["sweep", str(sweep_path), "--workers-distributed", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 points" in out and "distributed: 2 workers" in out

    # Warm resume: the CI-greppable zero-fresh line.
    assert (
        main(["sweep", str(sweep_path), "--workers-distributed", "2",
              "--resume"])
        == 0
    )
    assert "0 fresh attack evaluations" in capsys.readouterr().out

    assert main(["store", "status", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "experiment" in out and "done=2" in out

    assert main(["store", "status", str(store_path), "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["backend"] == "sqlite" and status["entries"] == 2


def test_cli_worker_joins_via_spec(tmp_path, capsys):
    from repro.cli import main

    sweep_path = tmp_path / "sweep.json"
    store_path = tmp_path / "store.sqlite"
    sweep_path.write_text(_static_sweep(store_path, n_points=2).to_json())

    assert main(["worker", "--spec", str(sweep_path)]) == 0
    out = capsys.readouterr().out
    assert "2 points" in out and "0 failed" in out

    # A second worker finds the queue drained.
    assert main(["worker", "--spec", str(sweep_path)]) == 0
    assert "0 points" in capsys.readouterr().out


def test_cli_worker_needs_target(capsys):
    from repro.cli import main

    assert main(["worker"]) == 2
    assert "needs either" in capsys.readouterr().err


def test_cli_store_status_refuses_to_fabricate_a_store(tmp_path, capsys):
    from repro.cli import main

    missing = tmp_path / "typo.sqlite"
    assert main(["store", "status", str(missing)]) == 2
    assert "no store at" in capsys.readouterr().err
    assert not missing.exists(), "read-only inspection must not create files"


def test_worker_uses_its_own_store_path_not_the_enqueuers(
    tmp_path, monkeypatch
):
    """A worker joining from elsewhere rewrites spec cache paths to its
    own view of the store, so fitness/record state stays shared instead
    of silently landing in a stray file named after the enqueuer's cwd."""
    monkeypatch.chdir(tmp_path)  # any stray relative-path file lands here
    store_path = tmp_path / "shared.sqlite"
    # Enqueue with a *relative* cache_path, the way a CI job would.
    sweep = _static_sweep("enqueuer-relative.sqlite", n_points=2)
    specs = sweep.expand()
    store = SQLiteStore(store_path)
    store.enqueue_points(
        sweep.fingerprint(),
        {s.fingerprint(): s.to_dict() for s in specs},
    )
    store.close()

    report = Worker(
        store_path=str(store_path), sweep_id=sweep.fingerprint()
    ).run()
    assert report.points_completed == 2
    assert not (tmp_path / "enqueuer-relative.sqlite").exists()

    # The records landed in the worker's store, under the same memo keys.
    store = SQLiteStore(store_path)
    for spec in specs:
        assert (
            store.get(EXPERIMENT_NAMESPACE, record_key(spec)) is not None
        ), "record must live in the shared store the worker was given"
    store.close()
