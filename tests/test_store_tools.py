"""Store operations: ``autolock store retry`` and ``autolock store gc``.

Retry contract: a transiently-poisoned sweep point that exhausted its
attempt budget is parked as ``failed``; the retry verb flips it back to
``pending`` with a fresh budget so the next worker completes it once the
transient cause is gone. Exit codes: 0 = requeued, 1 = nothing failed,
2 = missing store / unknown sweep.

GC contract: experiment records whose stored spec no longer fingerprints
to its own key (schema drift, removed plugins, garbage) are dropped, the
store is compacted (VACUUM), and the report counts bytes reclaimed —
while resolvable records and per-genotype fitness namespaces survive.
"""

from __future__ import annotations

import json

import pytest

import repro.dist.worker as worker_mod
from repro.api import ExperimentSpec, SweepSpec, run_experiment
from repro.api.runner import EXPERIMENT_NAMESPACE, record_key
from repro.cli import main
from repro.dist import SweepScheduler, Worker
from repro.store import SQLiteStore, gc_store


def _sweep(cache_path, n_points: int = 2) -> SweepSpec:
    return SweepSpec(
        name="retry_sweep",
        base=ExperimentSpec(
            circuit="rand_150_5",
            key_length=4,
            scheme="dmux",
            attack="muxlink",
            attack_params={"predictor": "bayes"},
            seed=1,
        ),
        axes={"key_length": [4, 6][:n_points]},
        cache_path=str(cache_path),
    )


# ------------------------------------------------------------- retry
def test_store_retry_requeues_transient_failure_to_success(
    tmp_path, monkeypatch, capsys
):
    """Poison-pill point fails out, `store retry` requeues it, and the
    retried run completes once the transient cause is gone."""
    store_path = tmp_path / "store.sqlite"
    sweep = _sweep(store_path)
    scheduler = SweepScheduler(sweep, max_attempts=1)
    scheduler.enqueue()
    poisoned_fp = sweep.expand()[0].fingerprint()
    flag = tmp_path / "attack-backend-down"
    flag.touch()

    real_run = worker_mod.run_experiment

    def flaky_run(spec, **kwargs):
        if spec.fingerprint() == poisoned_fp and flag.exists():
            raise RuntimeError("transient attack backend outage")
        return real_run(spec, **kwargs)

    monkeypatch.setattr(worker_mod, "run_experiment", flaky_run)

    report = Worker(
        store_path=str(store_path), sweep_id=scheduler.sweep_id,
        max_attempts=1,
    ).run()
    assert report.points_failed == 1 and report.points_completed == 1

    store = SQLiteStore(store_path)
    rows = {p["fingerprint"]: p for p in store.points(scheduler.sweep_id)}
    assert rows[poisoned_fp]["status"] == "failed"
    assert "transient attack backend outage" in rows[poisoned_fp]["error"]
    store.close()

    # The transient cause clears; retry requeues with a fresh budget.
    flag.unlink()
    assert (
        main(["store", "retry", str(store_path), scheduler.sweep_id]) == 0
    )
    assert "requeued 1 failed point" in capsys.readouterr().out
    store = SQLiteStore(store_path)
    rows = {p["fingerprint"]: p for p in store.points(scheduler.sweep_id)}
    assert rows[poisoned_fp]["status"] == "pending"
    assert rows[poisoned_fp]["attempts"] == 0
    assert rows[poisoned_fp]["error"] is None
    store.close()

    report = Worker(
        store_path=str(store_path), sweep_id=scheduler.sweep_id,
        max_attempts=1,
    ).run()
    assert report.points_completed == 1 and report.points_failed == 0
    store = SQLiteStore(store_path)
    assert all(
        p["status"] == "done" for p in store.points(scheduler.sweep_id)
    ), "the retried point must succeed once the transient cause is gone"
    store.close()

    # Nothing failed anymore: exit code 1 says "nothing to retry".
    assert (
        main(["store", "retry", str(store_path), scheduler.sweep_id]) == 1
    )
    assert "no failed points" in capsys.readouterr().out


def test_store_retry_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.sqlite"
    assert main(["store", "retry", str(missing), "deadbeef"]) == 2
    assert "no store at" in capsys.readouterr().err

    # Store exists but the sweep id is unknown.
    store_path = tmp_path / "store.sqlite"
    store = SQLiteStore(store_path)
    store.status()  # touch the database so the file exists
    store.close()
    assert main(["store", "retry", str(store_path), "deadbeef"]) == 2
    assert "no sweep" in capsys.readouterr().err


# ---------------------------------------------------------------- gc
def _seed_record(tmp_path):
    """One resolvable experiment record in a SQLite store."""
    store_path = tmp_path / "gc.sqlite"
    spec = ExperimentSpec(
        circuit="rand_150_5", key_length=4,
        attack="muxlink", attack_params={"predictor": "bayes"},
        seed=1, cache_path=str(store_path),
    )
    result = run_experiment(spec)
    # run_experiment persisted the record through the spec's cache_path.
    assert not result.from_cache
    return store_path, spec


def test_store_gc_drops_unresolvable_records_and_compacts(tmp_path, capsys):
    store_path, spec = _seed_record(tmp_path)
    # Two co-evolution records in the same namespace: one stays live,
    # the other goes stale once its stored spec.seed is edited.
    coevo, stale_coevo = (
        ExperimentSpec(
            circuit="rand_100_7", key_length=4, engine="coevo",
            engine_params={"epochs": 1, "lock_population": 4,
                           "lock_generations": 1, "attacker_population": 2},
            async_mode=False, seed=seed, cache_path=str(store_path),
        )
        for seed in (1, 2)
    )
    run_experiment(coevo)
    run_experiment(stale_coevo)
    store = SQLiteStore(store_path)
    # Stale records: a fingerprint that no longer matches its stored spec
    # (schema drift), a spec naming a de-registered plugin, garbage, and
    # the edited coevo record.
    drifted = dict(store.get(EXPERIMENT_NAMESPACE, record_key(spec)))
    edited = dict(store.get(EXPERIMENT_NAMESPACE, record_key(stale_coevo)))
    edited["spec"] = dict(edited["spec"], seed=3)
    store.put_many(EXPERIMENT_NAMESPACE, {
        '[["spec","0000000000000000"]]': drifted,
        '[["spec","1111111111111111"]]': {
            "spec": {"circuit": "rand_150_5", "attack": "laser"},
        },
        "not-a-spec-key": {"spec": {}},
        record_key(stale_coevo): edited,
    })
    # Fitness namespaces must never be collected.
    store.put_many("rand_150_5|fitness", {"k": 0.5})
    # Deleted bulk makes the VACUUM measurable.
    store.put_many(
        "bloat", {f"k{i}": "x" * 256 for i in range(2000)}
    )
    store.wipe_namespace("bloat")
    store.close()

    assert main(["store", "gc", str(store_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["examined"] == 6
    assert report["dropped"] == 4
    assert report["kept"] == 2
    assert report["bytes_reclaimed"] > 0, "VACUUM must reclaim the bloat"

    store = SQLiteStore(store_path)
    assert store.get(EXPERIMENT_NAMESPACE, record_key(spec)) is not None
    assert store.get(EXPERIMENT_NAMESPACE, record_key(coevo)) is not None
    assert store.get(EXPERIMENT_NAMESPACE, record_key(stale_coevo)) is None
    assert store.get(EXPERIMENT_NAMESPACE, "not-a-spec-key") is None
    assert store.get("rand_150_5|fitness", "k") == 0.5
    store.close()

    # The surviving records still replay with zero fresh evaluations.
    for live in (spec, coevo):
        warm = run_experiment(live)
        assert warm.from_cache and warm.fresh_evaluations == 0


def test_store_gc_missing_store_exits_2(tmp_path, capsys):
    assert main(["store", "gc", str(tmp_path / "nope.sqlite")]) == 2
    assert "no store at" in capsys.readouterr().err


def _malformed_sqlite(path):
    """A store file with a valid SQLite header whose pages past the
    first are overwritten: opening works, the first query raises
    ``sqlite3.DatabaseError`` ("database disk image is malformed")."""
    store = SQLiteStore(path)
    store.put_many("ns", {f"k{i}": {"v": "x" * 200} for i in range(100)})
    store.close()
    data = bytearray(path.read_bytes())
    page_size = int.from_bytes(data[16:18], "big")
    data[page_size:] = b"\xab" * (len(data) - page_size)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("verb", [
    ["status"], ["retry", "deadbeef"], ["gc"],
], ids=["status", "retry", "gc"])
def test_store_verbs_on_a_corrupt_file_exit_2(tmp_path, capsys, verb):
    """A file that is not a SQLite database, and one whose pages are
    malformed, each give one ``error: cannot …`` line naming the file,
    never a traceback."""
    garbage = tmp_path / "bad.sqlite"
    garbage.write_bytes(b"this is not a sqlite database, just bytes\n" * 64)
    malformed = tmp_path / "malformed.sqlite"
    _malformed_sqlite(malformed)
    for bad in (garbage, malformed):
        assert main(["store", verb[0], str(bad), *verb[1:]]) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("error: cannot ")
        assert str(bad) in lines[0]
        assert "Traceback" not in err
    assert "malformed" in lines[0]


def test_queue_retry_failed_api(tmp_path):
    """Direct store.retry_failed: only failed rows flip, budget resets."""
    store = SQLiteStore(tmp_path / "q.sqlite")
    store.enqueue_points("sw", {"a": {"x": 1}, "b": {"x": 2}})
    point = store.claim("sw", "w1", ttl=60)
    assert store.fail("sw", point.fingerprint, "w1", "boom", max_attempts=1) == "failed"
    assert store.queue_counts("sw") == {"failed": 1, "pending": 1}
    assert store.retry_failed("sw") == 1
    assert store.queue_counts("sw") == {"pending": 2}
    rows = {p["fingerprint"]: p for p in store.points("sw")}
    assert rows[point.fingerprint]["attempts"] == 0
    assert store.retry_failed("sw") == 0
    store.close()
