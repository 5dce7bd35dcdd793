"""Campaign service: HTTP store backend, cross-machine workers, dashboard.

The contract under test (ISSUE 7 acceptance): a sweep distributed across
>= 2 workers speaking to a :class:`~repro.serve.server.CampaignServer`
over HTTP yields records byte-identical (after nondeterministic-field
stripping) to the serial ``run_sweep``; a killed campaign resumes with
zero recomputation; unauthenticated and wrong-token clients are rejected
without corrupting queue state; and the streaming results endpoint
replays history then delivers new records live.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ExperimentSpec, SweepSpec, run_sweep
from repro.api.runner import EXPERIMENT_NAMESPACE
from repro.dist import SweepScheduler, Worker
from repro.dist.scheduler import _record_key
from repro.dist.worker import retry_with_backoff
from repro.errors import RegistryError, StoreError
from repro.serve import TOKEN_ENV, CampaignServer, HttpStore
from repro.store import ensure_queue, infer_backend, is_url, open_store

TOKEN = "test-campaign-token"


@pytest.fixture
def server(tmp_path, monkeypatch):
    """A live campaign server on an ephemeral port, token exported so
    worker child processes inherit credentials like a real fleet."""
    monkeypatch.setenv(TOKEN_ENV, TOKEN)
    srv = CampaignServer(tmp_path / "camp.sqlite", token=TOKEN, port=0)
    srv.start()
    yield srv
    srv.stop()


def _static_sweep(cache_path, n_points: int = 3) -> SweepSpec:
    return SweepSpec(
        name="serve_static",
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


def _stripped(results) -> list[str]:
    return [
        json.dumps(r.deterministic_record(), sort_keys=True) for r in results
    ]


# ------------------------------------------------------ backend inference
def test_url_schemes_resolve_before_suffix_inference():
    # http://…/campaign.db must NOT be mis-routed to sqlite by its suffix.
    assert infer_backend("http://host:8787/campaign.db") == "http"
    assert infer_backend("https://host/campaign") == "http"
    assert infer_backend("cache.sqlite") == "sqlite"
    assert infer_backend("cache.json") == "json"
    assert is_url("http://host/x") and not is_url("plain/cache.db")


def test_unknown_url_scheme_fails_with_registry_listing(tmp_path):
    with pytest.raises(RegistryError, match="redis.*available"):
        open_store("redis://host:6379/0")


def test_open_store_url_returns_http_backend(server):
    store = open_store(server.url + "/campaign")
    assert isinstance(store, HttpStore)
    assert store.read_through is True


# --------------------------------------------------- serial equivalence
def test_http_sweep_matches_serial_byte_for_byte(tmp_path, server):
    serial = run_sweep(_static_sweep(tmp_path / "serial.json"))
    dist = run_sweep(_static_sweep(server.url + "/campaign"), distributed=2)
    assert _stripped(serial.results) == _stripped(dist.results)
    assert dist.fresh_evaluations == serial.fresh_evaluations == 3
    assert dist.distributed["workers"] == 2


def test_killed_campaign_resumes_with_zero_recomputation(server):
    sweep = _static_sweep(server.url)

    # Phase 1: a lone HTTP worker completes one point, then "dies".
    scheduler = SweepScheduler(sweep)
    scheduler.enqueue()
    report = Worker(
        store_path=server.url, sweep_id=scheduler.sweep_id, max_points=1
    ).run()
    assert report.points_completed == 1

    store = HttpStore(server.url)
    rows = {p["fingerprint"]: p for p in store.points(scheduler.sweep_id)}
    done_fp = [fp for fp, p in rows.items() if p["status"] == "done"]
    assert len(done_fp) == 1
    done_spec = next(
        s for s in sweep.expand() if s.fingerprint() == done_fp[0]
    )
    written_at = store.entry_updated_at(
        EXPERIMENT_NAMESPACE, _record_key(done_spec)
    )
    assert written_at is not None

    # Phase 2: resume with two fresh workers — only the two remaining
    # points may cost fresh attack evaluations, and the finished
    # point's record must not be rewritten.
    resumed = run_sweep(sweep, distributed=2)
    assert len(resumed.results) == 3
    assert resumed.fresh_evaluations == 2, (
        "resume recomputed an already-completed point"
    )
    assert (
        store.entry_updated_at(EXPERIMENT_NAMESPACE, _record_key(done_spec))
        == written_at
    ), "resume rewrote the finished point's experiment record"


# ------------------------------------------------------------------ auth
def test_unauthenticated_request_rejected_401(server):
    request = urllib.request.Request(
        server.url + "/api/kv/namespaces", data=b"{}", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 401
    assert excinfo.value.headers["WWW-Authenticate"] == "Bearer"


def test_dashboard_and_stream_reject_bad_token(server):
    for route in ("/status", "/stream/results?follow=0"):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                server.url + route + ("&" if "?" in route else "?")
                + "token=wrong",
                timeout=5,
            )
        assert excinfo.value.code == 401


def test_wrong_token_cannot_claim_heartbeat_or_complete(server):
    good = HttpStore(server.url)
    good.enqueue_points("s", {"fp": {"x": 1}})
    bad = HttpStore(server.url, token="wrong")
    for op in (
        lambda: bad.claim("s", "thief", 30.0),
        lambda: bad.heartbeat("s", "fp", "thief", 30.0),
        lambda: bad.complete("s", "fp", "thief"),
    ):
        with pytest.raises(StoreError, match="rejected credentials"):
            op()
    # The point is untouched: the rightful worker claims it first try.
    assert good.claim("s", "honest", 30.0).fingerprint == "fp"


def test_unauthorized_error_names_host_and_auth_hint(server):
    bad = HttpStore(server.url, token="wrong")
    with pytest.raises(StoreError) as excinfo:
        bad.namespaces()
    message = str(excinfo.value)
    assert f"{server.host}:{server.port}" in message
    assert TOKEN_ENV in message  # the actionable fix


# ------------------------------------------- lease TTL boundary (HTTP)
def test_slow_heartbeat_loses_lease_requeued_once_zombie_rejected(server):
    """Satellite 3: a worker slower than its TTL loses the lease, the
    point requeues exactly once, and the zombie's late complete is
    rejected without corrupting the record."""
    store = HttpStore(server.url)
    store.put_many(EXPERIMENT_NAMESPACE, {"rec": {"value": "original"}})
    store.enqueue_points("s", {"fp": {"x": 1}})

    zombie = store.claim("s", "zombie", 0.05)
    assert zombie is not None
    time.sleep(0.15)  # heartbeat "slower than the TTL": lease expires

    # Requeued exactly once — a second pass finds nothing expired.
    assert store.requeue_expired("s") == 1
    assert store.requeue_expired("s") == 0
    # The zombie's next heartbeat reports the lease as lost (an expired
    # lease is only revivable *until* someone requeues it).
    assert store.heartbeat("s", "fp", "zombie", 0.05) is False

    sibling = store.claim("s", "sibling", 30.0)
    assert sibling.fingerprint == "fp"
    assert sibling.attempts == 2

    # The zombie's late complete is rejected; the sibling's lease and
    # the stored record survive untouched.
    assert store.complete("s", "fp", "zombie") is False
    rows = {p["fingerprint"]: p for p in store.points("s")}
    assert rows["fp"]["status"] == "claimed"
    assert rows["fp"]["worker_id"] == "sibling"
    assert store.get(EXPERIMENT_NAMESPACE, "rec") == {"value": "original"}
    assert store.complete("s", "fp", "sibling") is True


# ------------------------------------------------------------- streaming
def test_stream_replays_history_then_delivers_live(server):
    store = HttpStore(server.url)
    store.put_many(EXPERIMENT_NAMESPACE, {"k1": {"n": 1}, "k2": {"n": 2}})

    received: list[tuple[int, dict]] = []
    done = threading.Event()

    def tail():
        for offset, record in store.stream_results(timeout_s=10.0):
            received.append((offset, record))
            if len(received) >= 3:
                done.set()
                return

    tailer = threading.Thread(target=tail, daemon=True)
    tailer.start()
    # Let the tailer drain the two historical records, then land a new
    # one mid-tail — it must arrive live, without reconnecting.
    deadline = time.time() + 5.0
    while len(received) < 2 and time.time() < deadline:
        time.sleep(0.02)
    assert [r["n"] for _, r in received] == [1, 2], "history must replay"
    store.put_many(EXPERIMENT_NAMESPACE, {"k3": {"n": 3}})
    assert done.wait(timeout=5.0), "live record never arrived"
    tailer.join(timeout=5.0)
    assert [r["n"] for _, r in received] == [1, 2, 3]

    # Byte-offset resume: replay only what a dropped tail missed.
    resumed = list(
        store.stream_results(offset=received[0][0], follow=False)
    )
    assert [r["n"] for _, r in resumed] == [2, 3]


def test_rewritten_record_not_duplicated_in_stream(server):
    store = HttpStore(server.url)
    store.put_many(EXPERIMENT_NAMESPACE, {"k": {"n": 1}})
    store.put_many(EXPERIMENT_NAMESPACE, {"k": {"n": 1}})  # idempotent put
    assert len(list(store.stream_results(follow=False))) == 1


# ------------------------------------------------------- worker retries
def test_retry_with_backoff_recovers_from_transient_blips():
    calls, delays = [], []
    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise StoreError("blip")
        return "ok"
    assert (
        retry_with_backoff(
            "claim", flaky, attempts=5, base_s=0.2, cap_s=5.0,
            sleep=delays.append,
        )
        == "ok"
    )
    assert len(calls) == 3 and len(delays) == 2
    # Exponential with ±50% jitter: delay i lies in [0.5, 1.5]·base·2^i.
    assert 0.1 <= delays[0] <= 0.3 and 0.2 <= delays[1] <= 0.6


def test_retry_with_backoff_exhaustion_names_the_operation():
    def always_down():
        raise StoreError("connection refused")
    with pytest.raises(StoreError, match="claim still failing after 3"):
        retry_with_backoff(
            "claim", always_down, attempts=3, base_s=0.0, cap_s=0.0,
            sleep=lambda s: None,
        )


def test_worker_releases_lease_and_raises_when_server_dies(
    server, monkeypatch
):
    """The server vanishes between a worker's claim and its complete:
    retries exhaust, the lease is handed back, and run() raises (the
    CLI maps that to a non-zero exit)."""
    store = HttpStore(server.url)
    spec = _static_sweep(server.url, n_points=1).expand()[0]
    store.enqueue_points("s", {spec.fingerprint(): spec.to_dict()})
    released = []

    class DyingQueue:
        """Claims work; completion finds the server gone for good."""

        def claim(self, sweep_id, worker_id, ttl):
            return store.claim(sweep_id, worker_id, ttl)

        def complete(self, *args, **kwargs):
            raise StoreError("connection refused")

        def release_worker(self, sweep_id, worker_id):
            released.append((sweep_id, worker_id))
            return 1

    import repro.dist.worker as worker_mod

    monkeypatch.setattr(worker_mod, "ensure_queue", lambda s: DyingQueue())
    worker = Worker(
        store_path=server.url, sweep_id="s",
        retry_attempts=2, retry_base_s=0.0, retry_cap_s=0.0,
    )
    with pytest.raises(StoreError, match="complete still failing after 2"):
        worker.run()
    assert released == [("s", worker.worker_id)], (
        "exhausted worker must hand its lease back before exiting"
    )


# ------------------------------------------------------------------ CLI
def test_cli_store_status_against_url(server, capsys):
    from repro.cli import main

    HttpStore(server.url).put_many(EXPERIMENT_NAMESPACE, {"k": {"n": 1}})
    assert main(["store", "status", server.url, "--token", TOKEN]) == 0
    out = capsys.readouterr().out
    assert "server:" in out and server.url in out

    assert main(["store", "status", server.url, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["server"]["url"] == server.url
    assert status["entries"] == 1


def test_cli_worker_drains_queue_over_http(server, capsys):
    from repro.cli import main

    sweep = _static_sweep(server.url, n_points=2)
    scheduler = SweepScheduler(sweep)
    scheduler.enqueue()
    assert (
        main(
            ["worker", "--store", server.url,
             "--sweep-id", scheduler.sweep_id, "--token", TOKEN]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 points" in out and "0 failed" in out


def test_cli_unreachable_server_exits_2_one_line(capsys):
    from repro.cli import main

    assert main(["store", "status", "http://127.0.0.1:9/x"]) == 2
    err = capsys.readouterr().err
    assert "cannot reach campaign server" in err
    assert "127.0.0.1:9" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, "one-line error, not a dump"


def test_cli_wrong_token_exits_2_with_auth_hint(server, capsys):
    from repro.cli import main

    assert main(["store", "status", server.url, "--token", "wrong"]) == 2
    err = capsys.readouterr().err
    assert "rejected credentials" in err and TOKEN_ENV in err
    assert "Traceback" not in err


def test_cli_unknown_scheme_exits_2_with_registry_listing(capsys):
    from repro.cli import main

    assert main(["store", "status", "redis://host:6379/0"]) == 2
    err = capsys.readouterr().err
    assert "unknown store backend 'redis'" in err
    assert "http" in err and "sqlite" in err  # the registry listing


def test_cli_worker_conflicting_stores_exits_2(capsys):
    from repro.cli import main

    assert (
        main(["worker", "a.sqlite", "--store", "http://h:1", "--sweep-id", "s"])
        == 2
    )
    assert "two different stores" in capsys.readouterr().err


def test_serve_refuses_empty_token_and_url_store(tmp_path):
    with pytest.raises(StoreError, match="token"):
        CampaignServer(tmp_path / "s.sqlite", token="")
    with pytest.raises(StoreError, match="local"):
        CampaignServer("http://other:8787", token="x")


# ------------------------------------------------------------ dashboard
def test_dashboard_html_and_json_status(server):
    store = HttpStore(server.url)
    store.enqueue_points("dash", {"fp": {"x": 1}})
    store.claim("dash", "w-dash", 30.0)

    body = (
        urllib.request.urlopen(
            f"{server.url}/status?token={TOKEN}", timeout=5
        )
        .read()
        .decode()
    )
    assert "autolock campaign server" in body
    assert "w-dash" in body  # live lease row
    assert 'http-equiv="refresh"' in body  # auto-refreshing view

    status = json.loads(
        urllib.request.urlopen(
            f"{server.url}/status?format=json&token={TOKEN}", timeout=5
        ).read()
    )["result"]
    leases = status["server"]["leases"]
    assert leases and leases[0]["worker_id"] == "w-dash"
    assert leases[0]["expires_in_s"] > 0
    assert "w-dash" not in status["server"]["workers"], (
        "ledger tracks transport identities (X-Worker-Id), set per client"
    )


def test_fitness_cache_keeps_url_paths_verbatim(server):
    from repro.ec.fitness import FitnessCache

    cache = FitnessCache(path=server.url, namespace="fit")
    assert cache.path == server.url, "Path() would collapse http:// to http:/"
    key = (("mux", 3, 7),)  # genotype-shaped: a tuple of gene tuples
    cache.put(key, 0.25)
    assert FitnessCache(path=server.url, namespace="fit").get(key) == 0.25


def test_status_json_shape_pinned(server):
    """The /status JSON contract: cache and throughput sections always
    present — zeros, never omitted, before any traffic arrives."""
    status = json.loads(
        urllib.request.urlopen(
            f"{server.url}/status?format=json&token={TOKEN}", timeout=5
        ).read()
    )["result"]
    assert {
        "backend", "path", "exists", "namespaces", "entries", "sweeps",
        "fresh_evaluations", "cache", "server",
    } <= set(status)
    assert status["cache"] == {
        "hits": 0, "misses": 0, "fresh_evaluations": 0,
    }
    throughput = status["server"]["throughput"]
    assert throughput == {
        "completed_last_60s": 0,
        "completed_per_min": 0,
        "completed_tracked": 0,
    }

    # traffic moves the ledgers: one kv miss, one hit, one completion
    store = HttpStore(server.url)
    store.put_many("fit_ns", {"k": 1.0})
    assert store.get("fit_ns", "nope") is None
    assert store.get("fit_ns", "k") == 1.0
    store.enqueue_points("shape", {"fp": {"x": 1}})
    store.claim("shape", "w-shape", 30.0)
    store.complete("shape", "fp", "w-shape", fresh_evaluations=3)

    status = store.status()
    assert status["cache"]["hits"] == 1
    assert status["cache"]["misses"] == 1
    assert status["cache"]["fresh_evaluations"] == 3
    assert status["fresh_evaluations"] == 3  # backing store agrees
    assert status["server"]["throughput"]["completed_last_60s"] == 1
    assert status["server"]["throughput"]["completed_tracked"] == 1


def test_metrics_endpoint_serves_prometheus_text(server):
    store = HttpStore(server.url)
    store.put_many("exp_ns", {"k": {"v": 2}})
    store.get("exp_ns", "k")
    store.enqueue_points("prom", {"fp": {"x": 1}})

    request = urllib.request.Request(f"{server.url}/metrics?token={TOKEN}")
    with urllib.request.urlopen(request, timeout=5) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        body = response.read().decode()

    # request, queue, and cache metric families, in exposition format
    assert "# TYPE autolock_http_requests_total counter" in body
    assert "# TYPE autolock_http_request_seconds histogram" in body
    assert "# TYPE autolock_queue_points gauge" in body
    assert "# TYPE autolock_server_cache_lookups_total counter" in body
    assert 'autolock_server_cache_lookups_total{result="hit"}' in body
    assert 'autolock_queue_points{sweep_id="prom", status="pending"} 1' in body
    assert 'route="/api/kv"' in body
    assert "autolock_store_entries" in body
    # every line parses as comment or `name{labels} value`
    for line in body.strip().splitlines():
        assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{server.url}/metrics", timeout=5)
    assert excinfo.value.code == 401


# ------------------------------------------------------------ keep-alive
def test_keepalive_reuses_one_connection(server):
    store = HttpStore(server.url)
    store.put_many("ka", {"k": {"v": 1}})
    sock = store._conn.sock
    assert sock is not None
    assert store.get("ka", "k") == {"v": 1}
    assert store.enqueue_points("ka_sweep", {"fp": {"x": 1}}) == 1
    assert store.queue_counts("ka_sweep")["pending"] == 1
    # same TCP connection carried all four requests
    assert store._conn.sock is sock
    store.close()
    assert store._conn is None


def test_stale_keepalive_connection_retried_once(server, monkeypatch):
    import http.client

    store = HttpStore(server.url)
    store.put_many("ka_stale", {"k": {"v": 3}})  # establish the connection

    real = store._roundtrip
    failures = {"n": 0}

    def flaky(conn, method, target, data, headers):
        if failures["n"] == 0:
            failures["n"] += 1
            raise http.client.BadStatusLine("")  # server idled out the socket
        return real(conn, method, target, data, headers)

    monkeypatch.setattr(store, "_roundtrip", flaky)
    # the stale first attempt is retried transparently on a fresh socket
    assert store.get("ka_stale", "k") == {"v": 3}
    assert failures["n"] == 1


def test_fresh_connection_failure_is_not_retried(server, monkeypatch):
    import http.client

    store = HttpStore(server.url)  # no prior request: nothing to reuse

    def always_stale(conn, method, target, data, headers):
        raise http.client.BadStatusLine("")

    monkeypatch.setattr(store, "_roundtrip", always_stale)
    with pytest.raises(StoreError, match="cannot reach campaign server"):
        store.get("ka_fresh", "k")


def test_forked_child_opens_own_connection(server):
    store = HttpStore(server.url)
    store.put_many("ka_fork", {"k": {"v": 4}})
    parent_conn = store._conn
    assert parent_conn is not None

    # simulate the post-fork world: the PID stamp no longer matches
    store._conn_pid = store._conn_pid + 1
    assert store.get("ka_fork", "k") == {"v": 4}
    # the child dropped the inherited handle without closing the
    # parent's socket, and opened its own
    assert store._conn is not parent_conn
    assert parent_conn.sock is not None

    # close() in a "child" (stamp mismatch) must also leave the
    # inherited socket untouched
    inherited = store._conn
    store._conn_pid = store._conn_pid + 1
    store.close()
    assert store._conn is None
    assert inherited.sock is not None


def test_queue_state_survives_many_keepalive_roundtrips(server):
    # claim/heartbeat/complete chatter on one persistent connection
    store = HttpStore(server.url, client_id="ka-worker")
    n = 8
    store.enqueue_points("ka_loop", {f"fp{i}": {"x": i} for i in range(n)})
    done = 0
    while True:
        claimed = store.claim("ka_loop", "ka-worker", ttl=30.0)
        if claimed is None:
            break
        assert store.heartbeat("ka_loop", claimed.fingerprint, "ka-worker", 30.0)
        assert store.complete("ka_loop", claimed.fingerprint, "ka-worker")
        done += 1
    assert done == n
    counts = store.queue_counts("ka_loop")
    assert counts["done"] == n and counts.get("pending", 0) == 0
