"""Experiment stores: backends, concurrent writers, and the work queue.

The SQLite store is the shared state behind distributed sweeps, so these
tests hammer exactly what production leans on: cross-process writes with
no lost or corrupted entries, lease-based claiming with expiry/requeue,
and the FitnessCache integration (read-through visibility of sibling
writers, pickling hygiene).
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import time

import pytest

from repro.ec.fitness import FitnessCache
from repro.errors import StoreError
from repro.registry import STORES, register_store
from repro.serve import CampaignServer, HttpStore
from repro.store import SQLiteStore, StoreBackend, open_store
from repro.store.base import SERVED_METHODS

TOKEN = "store-contract-token"


@pytest.fixture
def store(tmp_path):
    """The store the contract tests below run against: a local SQLite
    file here, an :class:`HttpStore` in :class:`TestHttpStoreContract`."""
    store = SQLiteStore(tmp_path / "q.sqlite")
    yield store
    store.close()


# ------------------------------------------------------------ factory
def test_open_store_opens_sqlite_whatever_the_suffix(tmp_path):
    for name in ("cache", "cache.json", "cache.sqlite", "cache.db"):
        store = open_store(tmp_path / name)
        assert isinstance(store, SQLiteStore), name
        store.put_many("ns", {"k": 1})
        store.close()
        assert (tmp_path / name).exists()


def test_store_registry_lists_backends():
    assert STORES.available() == ["http", "sqlite"]


def test_open_store_rejects_a_plugin_without_the_queue(tmp_path):
    class KvOnlyStore:
        """Key/value methods only — no work queue."""

        def __init__(self, path):
            self.path = path

        def load_namespace(self, namespace): return {}
        def get(self, namespace, key): return None
        def put_many(self, namespace, entries): pass
        def wipe_namespace(self, namespace): pass
        def delete_many(self, namespace, keys): return 0
        def vacuum(self): pass
        def disk_usage(self): return 0
        def namespaces(self): return []
        def status(self): return {}
        def close(self): pass

    register_store("kvonly", KvOnlyStore)
    try:
        with pytest.raises(StoreError) as info:
            open_store("kvonly://host/campaign")
    finally:
        STORES._entries.pop("kvonly")
    message = str(info.value)
    assert "'kvonly'" in message and "KvOnlyStore" in message
    assert "work queue" in message


def test_non_sqlite_file_is_refused_naming_the_path(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"ns": {"k": 0.5}}))
    store = SQLiteStore(path)
    with pytest.raises(StoreError, match="no longer read") as info:
        store.load_namespace("x")
    assert str(path) in str(info.value)
    assert path.read_text() == json.dumps({"ns": {"k": 0.5}}), "left intact"


# ------------------------------------------------------ kv round trips
def test_kv_round_trip_and_namespacing(store):
    store.put_many("ns1", {"a": 0.5, "b": [1, 2]})
    store.put_many("ns2", {"a": {"nested": True}})
    assert store.get("ns1", "a") == 0.5
    assert store.get("ns1", "b") == [1, 2]
    assert store.get("ns2", "a") == {"nested": True}
    assert store.get("ns1", "missing") is None
    assert store.load_namespace("ns1") == {"a": 0.5, "b": [1, 2]}
    assert store.namespaces() == ["ns1", "ns2"]
    store.wipe_namespace("ns1")
    assert store.load_namespace("ns1") == {}
    assert store.get("ns2", "a") == {"nested": True}
    status = store.status()
    assert status["entries"] == 1 and "ns2" in status["namespaces"]


def test_sqlite_store_pickles_by_path(tmp_path):
    store = SQLiteStore(tmp_path / "s.sqlite")
    store.put_many("ns", {"k": 1.5})
    clone = pickle.loads(pickle.dumps(store))
    assert clone.get("ns", "k") == 1.5
    clone.close()
    store.close()


# --------------------------------------------- concurrent writer hammer
def _hammer(path: str, worker_idx: int, n: int) -> None:
    store = SQLiteStore(path, retries=12)
    for i in range(n):
        store.put_many(
            "fitness|c17", {f"w{worker_idx}-k{i}": worker_idx + i * 0.5}
        )
        store.put_many(
            "experiment",
            {f"w{worker_idx}-e{i}": {"worker": worker_idx, "i": i}},
        )
    store.close()


def test_two_processes_hammering_one_sqlite_store_lose_nothing(tmp_path):
    path = str(tmp_path / "hammer.sqlite")
    n = 60
    procs = [
        multiprocessing.Process(target=_hammer, args=(path, w, n))
        for w in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    assert all(p.exitcode == 0 for p in procs)

    store = SQLiteStore(path)
    fitness = store.load_namespace("fitness|c17")
    experiments = store.load_namespace("experiment")
    assert len(fitness) == 2 * n, "lost fitness entries under contention"
    assert len(experiments) == 2 * n, "lost experiment entries under contention"
    for w in range(2):
        for i in range(n):
            assert fitness[f"w{w}-k{i}"] == w + i * 0.5
            assert experiments[f"w{w}-e{i}"] == {"worker": w, "i": i}
    store.close()


# ------------------------------------------------------------ the queue
def test_claim_is_exclusive_and_ordered(store):
    assert store.enqueue_points("sw", {"p1": {"a": 1}, "p2": {"a": 2}}) == 2
    # Idempotent: re-offering the same points adds nothing.
    assert store.enqueue_points("sw", {"p1": {"a": 1}, "p2": {"a": 2}}) == 0

    first = store.claim("sw", "w1", ttl=60)
    second = store.claim("sw", "w2", ttl=60)
    assert first.fingerprint == "p1" and first.payload == {"a": 1}
    assert second.fingerprint == "p2"
    assert store.claim("sw", "w3", ttl=60) is None, "nothing left to claim"

    store.complete("sw", "p1", "w1", fresh_evaluations=3)
    store.complete("sw", "p2", "w2")
    assert store.queue_counts("sw") == {"done": 2}
    rows = {p["fingerprint"]: p for p in store.points("sw")}
    assert rows["p1"]["fresh_evaluations"] == 3


def test_lease_expiry_requeues_and_reclaims(store):
    store.enqueue_points("sw", {"p1": {}})
    stale = store.claim("sw", "w1", ttl=0.05)
    assert stale is not None
    assert store.claim("sw", "w2", ttl=60) is None, "lease still held"
    time.sleep(0.1)
    assert store.requeue_expired("sw") == 1
    fresh = store.claim("sw", "w2", ttl=60)
    assert fresh is not None and fresh.worker_id == "w2"
    assert fresh.attempts == 2, "attempt count survives the requeue"


def test_expired_lease_is_directly_claimable_without_requeue(store):
    store.enqueue_points("sw", {"p1": {}})
    store.claim("sw", "w1", ttl=0.01)
    time.sleep(0.05)
    taken = store.claim("sw", "w2", ttl=60)
    assert taken is not None and taken.worker_id == "w2"


def test_heartbeat_extends_only_held_leases(store):
    store.enqueue_points("sw", {"p1": {}})
    point = store.claim("sw", "w1", ttl=0.2)
    assert store.heartbeat("sw", point.fingerprint, "w1", ttl=60) is True
    assert store.heartbeat("sw", point.fingerprint, "w2", ttl=60) is False
    assert store.requeue_expired("sw") == 0, "renewed lease must not expire"


def test_release_worker_requeues_only_that_workers_claims(store):
    store.enqueue_points("sw", {"p1": {}, "p2": {}})
    store.claim("sw", "dead", ttl=3600)
    store.claim("sw", "alive", ttl=3600)
    assert store.release_worker("sw", "dead") == 1
    counts = store.queue_counts("sw")
    assert counts == {"pending": 1, "claimed": 1}


def test_fail_requeues_until_max_attempts_then_parks(store):
    store.enqueue_points("sw", {"p1": {}})
    point = store.claim("sw", "w1", ttl=60)
    assert (
        store.fail("sw", point.fingerprint, "w1", "boom", max_attempts=2)
        == "pending"
    )
    point = store.claim("sw", "w1", ttl=60)
    assert point.attempts == 2
    assert (
        store.fail("sw", point.fingerprint, "w1", "boom again", max_attempts=2)
        == "failed"
    )
    assert store.claim("sw", "w1", ttl=60) is None
    rows = store.points("sw")
    assert rows[0]["status"] == "failed" and "boom again" in rows[0]["error"]


def test_fail_from_a_stolen_lease_cannot_clobber_the_row(store):
    """A stalled worker whose lease expired and was re-claimed (or even
    completed) by a sibling must not flip the row when it finally errors."""
    store.enqueue_points("sw", {"p1": {}})
    store.claim("sw", "slow", ttl=0.01)
    time.sleep(0.05)
    store.claim("sw", "fast", ttl=60)  # steals the expired lease
    store.complete("sw", "p1", "fast")
    # The stalled worker reports its (now irrelevant) failure.
    assert store.fail("sw", "p1", "slow", "late boom", max_attempts=2) == "done"
    rows = store.points("sw")
    assert rows[0]["status"] == "done" and rows[0]["error"] is None
    # Same protection while the sibling still holds the claim.
    store.enqueue_points("sw", {"p2": {}})
    store.claim("sw", "slow", ttl=0.01)
    time.sleep(0.05)
    store.claim("sw", "fast", ttl=60)
    assert (
        store.fail("sw", "p2", "slow", "late boom", max_attempts=2) == "claimed"
    )
    rows = {p["fingerprint"]: p for p in store.points("sw")}
    assert rows["p2"]["status"] == "claimed"
    assert rows["p2"]["worker_id"] == "fast"


def test_mark_done_precompletes_points(store):
    store.enqueue_points("sw", {"p1": {}, "p2": {}})
    assert store.mark_done("sw", ["p1"]) == 1
    assert store.mark_done("sw", ["p1"]) == 0, "already done: no flip"
    assert store.claim("sw", "w1", ttl=60).fingerprint == "p2"


def test_complete_from_a_non_holder_checks_the_lease_over_http(store):
    """A local store checks the lease only under ``require_lease=True``;
    the campaign server checks it on every complete."""
    store.enqueue_points("sw", {"p1": {}})
    store.claim("sw", "holder", ttl=60)
    assert (
        store.complete("sw", "p1", "stranger", require_lease=True) is False
    )
    [row] = store.points("sw")
    assert row["status"] == "claimed" and row["worker_id"] == "holder"
    over_http = isinstance(store, HttpStore)
    assert store.complete("sw", "p1", "stranger") is not over_http
    [row] = store.points("sw")
    assert row["status"] == ("claimed" if over_http else "done")


def test_served_methods_are_the_protocol_minus_close():
    served = [m for methods in SERVED_METHODS.values() for m in methods]
    protocol = [name for name in vars(StoreBackend) if not name.startswith("_")]
    assert sorted(served) == sorted(set(protocol) - {"close"})
    assert len(served) == len(set(served)), "one route per method"
    for backend in (HttpStore, SQLiteStore):
        for method in served:
            assert method in vars(backend), (backend.__name__, method)


class TestHttpStoreContract:
    """The store contract above, through an :class:`HttpStore` in front
    of a :class:`CampaignServer` (the SQLite ids stay unsuffixed)."""

    @pytest.fixture
    def store(self, tmp_path):
        server = CampaignServer(tmp_path / "q.sqlite", token=TOKEN, port=0)
        server.start()
        store = HttpStore(server.url, token=TOKEN)
        yield store
        store.close()
        server.stop()

    test_kv_round_trip_and_namespacing = staticmethod(
        test_kv_round_trip_and_namespacing
    )
    test_claim_is_exclusive_and_ordered = staticmethod(
        test_claim_is_exclusive_and_ordered
    )
    test_lease_expiry_requeues_and_reclaims = staticmethod(
        test_lease_expiry_requeues_and_reclaims
    )
    test_expired_lease_is_directly_claimable_without_requeue = staticmethod(
        test_expired_lease_is_directly_claimable_without_requeue
    )
    test_heartbeat_extends_only_held_leases = staticmethod(
        test_heartbeat_extends_only_held_leases
    )
    test_release_worker_requeues_only_that_workers_claims = staticmethod(
        test_release_worker_requeues_only_that_workers_claims
    )
    test_fail_requeues_until_max_attempts_then_parks = staticmethod(
        test_fail_requeues_until_max_attempts_then_parks
    )
    test_fail_from_a_stolen_lease_cannot_clobber_the_row = staticmethod(
        test_fail_from_a_stolen_lease_cannot_clobber_the_row
    )
    test_mark_done_precompletes_points = staticmethod(
        test_mark_done_precompletes_points
    )
    test_complete_from_a_non_holder_checks_the_lease_over_http = staticmethod(
        test_complete_from_a_non_holder_checks_the_lease_over_http
    )


# ------------------------------------- FitnessCache on a sqlite backend
def test_fitness_cache_round_trip_on_sqlite(tmp_path):
    path = tmp_path / "cache.sqlite"
    key = (("a", "b", "c", "d", 1),)
    store = open_store(path)
    cache = FitnessCache(backend=store, namespace="ns1")
    cache.put(key, 0.5)
    cache.put((("e", "f", "g", "h", 0),), (0.1, 0.2))  # vector fitness
    store.close()

    reopened = open_store(path)
    reloaded = FitnessCache(backend=reopened, namespace="ns1")
    assert reloaded.get(key) == 0.5
    assert reloaded.get((("e", "f", "g", "h", 0),)) == (0.1, 0.2)

    FitnessCache(backend=reopened, namespace="ns1").wipe_disk()
    assert FitnessCache(backend=reopened, namespace="ns1").get(key) is None
    reopened.close()


def test_fitness_cache_on_an_open_store_persists(tmp_path):
    """``backend`` alone makes a cache persistent: it writes through,
    a second cache on the same handle loads the entry, and a sibling's
    later write is read through."""
    store = open_store(tmp_path / "cache.sqlite")
    key, sibling_key = (("a", "b", "c", "d", 1),), (("e", "f", "g", "h", 0),)
    cache = FitnessCache(backend=store, namespace="ns")
    cache.put(key, 0.5)
    cache.flush()
    assert store.load_namespace("ns") == {'[["a","b","c","d",1]]': 0.5}

    second = FitnessCache(backend=store, namespace="ns")
    assert second.store == {key: 0.5}
    FitnessCache(backend=store, namespace="ns").put(sibling_key, 0.25)
    assert cache.get(sibling_key) == 0.25 and cache.hits == 1
    store.close()


def _cache_writer(path: str, key_tuple, value: float) -> None:
    store = open_store(path)
    FitnessCache(backend=store, namespace="shared").put(key_tuple, value)
    store.close()


def test_fitness_cache_read_through_sees_sibling_process_writes(tmp_path):
    path = str(tmp_path / "cache.sqlite")
    key = (("x", "y", "z", "w", 1),)
    store = open_store(path)
    reader = FitnessCache(backend=store, namespace="shared")
    assert reader.get(key) is None, "cold cache misses"

    process = multiprocessing.Process(
        target=_cache_writer, args=(path, key, 0.75)
    )
    process.start()
    process.join()
    assert process.exitcode == 0

    # The reader's in-memory snapshot predates the write; read-through
    # must find the sibling's entry instead of reporting a miss.
    assert reader.get(key) == 0.75
    assert reader.hits == 1
    store.close()


def test_fitness_cache_flush_failure_keeps_entries_dirty(tmp_path):
    """A failed backend write must not drop entries from future flushes."""

    class FlakyStore(SQLiteStore):
        def __init__(self, path):
            super().__init__(path)
            self.fail_next = False

        def put_many(self, namespace, entries):
            if self.fail_next:
                self.fail_next = False
                raise StoreError("simulated busy store")
            super().put_many(namespace, entries)

    backend = FlakyStore(tmp_path / "cache.sqlite")
    cache = FitnessCache(namespace="ns", backend=backend)
    key = (("a", "b", "c", "d", 0),)
    backend.fail_next = True
    with pytest.raises(StoreError):
        cache.put(key, 0.5)  # write-through flush fails
    cache.flush()  # next flush must retry the same entry
    backend.close()
    store = open_store(tmp_path / "cache.sqlite")
    assert FitnessCache(backend=store, namespace="ns").get(key) == 0.5
    store.close()


def test_fitness_cache_pickle_drops_backend(tmp_path):
    """A worker-side clone carries no lock, store handle or entries, so
    it never writes the shared store; the dispatcher's cache keeps its
    entries."""
    store = open_store(tmp_path / "cache.sqlite")
    cache = FitnessCache(backend=store, namespace="ns")
    cache.put((("a", "b", "c", "d", 0),), 0.5)
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.backend is None
    assert clone.store == {} and len(cache) == 1, "entries stay home"
    clone.put((("x", "y", "z", "w", 1),), 0.1)  # must not touch the store
    assert store.load_namespace("ns") == {'[["a","b","c","d",0]]': 0.5}
    store.close()
