"""The campaign server: one store, many machines, live visibility.

:class:`CampaignServer` fronts a local SQLite store over plain stdlib
HTTP (``ThreadingHTTPServer`` + JSON), so any machine that can reach the
port can join a sweep campaign — no shared filesystem, no extra
dependencies. It exposes:

* ``POST /api/kv/<method>`` and ``POST /api/queue/<method>`` — the
  key/value and work-queue halves of the
  :class:`~repro.store.base.StoreBackend` protocol under its method
  names (:data:`~repro.store.base.SERVED_METHODS`); the JSON body holds
  the keyword arguments and the reply ``{"result": …}`` the return
  value. A body the method's signature does not take gets a 400 JSON
  error, an unserved method a 404, and a ``Content-Length`` that is not
  a byte count a 400 that closes the connection. ``complete`` always
  verifies the lease (``require_lease=True`` on the backing store): a
  zombie worker whose lease expired gets a clean rejection instead of
  scribbling over a sibling's row;
* ``GET /stream/results`` — a chunked, byte-offset-resumable tail of the
  campaign's ``results.jsonl``: every experiment record the server has
  seen land in the experiment namespace, replayed from ``?offset=N`` and
  then streamed live while workers complete points (``?follow=0`` stops
  at the end of the log; a bad ``offset`` or ``follow`` is a 400);
* ``GET /status`` — the live dashboard: JSON with ``?format=json``,
  otherwise a plain auto-refreshing HTML view of per-sweep
  pending/leased/done/failed counts, per-worker lease ages and
  last-seen identities, cache traffic, and completion throughput;
* ``GET /metrics`` — Prometheus text exposition of the process-wide
  :data:`~repro.obs.metrics.METRICS` registry (request counters and
  latencies, queue depths, cache lookups), refreshed with scrape-time
  gauges from the backing store.

Every request requires the campaign bearer token (``Authorization:
Bearer <token>``; the dashboard and stream also accept ``?token=`` so a
browser can watch). All store access is serialised through one lock —
the HTTP layer is many-threaded, the backing store sees a single
writer at a time.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import hmac
import html
import inspect
import json
import threading
import time
import typing
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.errors import ReproError, StoreError
from repro.obs import metrics as obs_metrics
from repro.store.base import (
    SERVED_METHODS,
    STATUS_CLAIMED,
    StoreBackend,
    is_url,
    open_store,
)

_REQUESTS = obs_metrics.METRICS.counter(
    "autolock_http_requests_total",
    "Campaign-server requests by route family, method, and status code",
    labels=("route", "method", "code"),
)
_REQUEST_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_http_request_seconds",
    "Campaign-server request handling wall time by route family",
    labels=("route",),
)
_SERVER_CACHE_LOOKUPS = obs_metrics.METRICS.counter(
    "autolock_server_cache_lookups_total",
    "kv get operations answered by the campaign server, by result "
    "(remote workers' fitness-cache read-throughs)",
    labels=("result",),
)
_QUEUE_POINTS = obs_metrics.METRICS.gauge(
    "autolock_queue_points",
    "Sweep-queue points by sweep and status (scrape-time)",
    labels=("sweep_id", "status"),
)
_STORE_ENTRIES = obs_metrics.METRICS.gauge(
    "autolock_store_entries",
    "kv entries in the backing store (scrape-time)",
)
_QUEUE_FRESH = obs_metrics.METRICS.gauge(
    "autolock_queue_fresh_evaluations",
    "Fresh attack evaluations recorded on completed queue points "
    "(scrape-time)",
)

#: namespace whose puts are mirrored into the results log. Kept as a
#: literal (= ``repro.api.runner.EXPERIMENT_NAMESPACE``) so the server
#: module never imports the heavy experiment stack.
RESULTS_NAMESPACE = "experiment"

#: how many recent completion timestamps feed the throughput readout.
_THROUGHPUT_WINDOW_S = 300.0

#: each served method's argument types: the request schema is the
#: :class:`StoreBackend` signature.
_WIRE_HINTS = {
    method: typing.get_type_hints(getattr(StoreBackend, method))
    for methods in SERVED_METHODS.values()
    for method in methods
}


def _fits(value: Any, hint: Any) -> bool:
    """Whether a decoded JSON ``value`` has the type ``hint`` names."""
    if hint is Any:
        return True
    origin = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if not isinstance(value, (int, float) if origin is float else origin):
        return False
    if origin is list:
        return all(_fits(item, args[0]) for item in value)
    if origin is collections.abc.Mapping:
        return all(_fits(item, args[1]) for item in value.values())
    return True


class CampaignServer:
    """Serve one store's kv + work queue + results stream over HTTP."""

    def __init__(
        self,
        store_path: str | Path,
        *,
        token: str,
        host: str = "127.0.0.1",
        port: int = 8787,
        results_path: str | Path | None = None,
    ) -> None:
        if not token:
            raise StoreError(
                "a campaign server needs a non-empty bearer token; pass "
                "--token or generate one (`autolock serve` does this for you)"
            )
        if is_url(store_path):
            raise StoreError(
                "a campaign server fronts a *local* store; chaining it onto "
                f"another URL ({store_path}) would just add a hop — point "
                "workers at the existing server instead"
            )
        self.token = token
        self.store_path = str(store_path)
        self.store = open_store(store_path)
        #: one big lock: the HTTP layer is many-threaded, the backing
        #: store sees exactly one writer at a time.
        self._store_lock = threading.RLock()
        self.results_path = Path(
            results_path
            if results_path is not None
            else f"{self.store_path}.results.jsonl"
        )
        self.results_path.parent.mkdir(parents=True, exist_ok=True)
        self.results_path.touch(exist_ok=True)
        self._results_cond = threading.Condition()
        self._shutting_down = threading.Event()
        #: per-identity ledger (X-Worker-Id header): last_seen + requests.
        self._clients: dict[str, dict[str, float | int]] = {}
        #: recent completion timestamps (throughput readout).
        self._completions: deque[float] = deque()
        #: kv get ledger: remote FitnessCache read-throughs land here, so
        #: the dashboard sees hit/miss traffic even though the caches
        #: themselves live in worker processes on other machines.
        self._cache_hits = 0
        self._cache_misses = 0
        #: served methods the server adds behaviour to; every other one
        #: goes straight to the backing store.
        self._hooks = {
            "get": self._get,
            "put_many": self._put_many,
            "complete": self._complete,
            "claim": self._claim,
            "status": self.status,
        }
        self.started_at = time.time()
        self._httpd = _CampaignHTTPServer((host, port), _CampaignHandler)
        self._httpd.campaign = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CampaignServer":
        """Serve from a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``autolock serve`` verb)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._shutting_down.set()
        with self._results_cond:
            self._results_cond.notify_all()  # wake tailing streams
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._store_lock:
            self.store.close()

    def __enter__(self) -> "CampaignServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request-side helpers (called from handler threads) -------------
    def check_token(self, presented: str | None) -> bool:
        return presented is not None and hmac.compare_digest(
            presented, self.token
        )

    def note_client(self, worker_id: str | None) -> None:
        if not worker_id:
            return
        with self._store_lock:
            entry = self._clients.setdefault(
                worker_id, {"first_seen": time.time(), "requests": 0}
            )
            entry["last_seen"] = time.time()
            entry["requests"] = int(entry["requests"]) + 1

    def store_op(self, family: str, method: str, payload: Any) -> Any:
        """Serve ``POST /api/<family>/<method>``: call that store method
        with the JSON ``payload`` as its keyword arguments.

        Raises :class:`KeyError` for a method the family does not serve
        and :class:`ValueError` for a payload the method does not take:
        not an object, or an argument missing, unknown or of the wrong
        JSON type for the :class:`StoreBackend` signature.
        """
        if method not in SERVED_METHODS.get(family, ()):
            raise KeyError(f"{family}/{method}")
        call = self._hooks.get(method) or getattr(self.store, method)
        if not isinstance(payload, dict):
            raise ValueError(
                f"the body must be a JSON object, got {type(payload).__name__}"
            )
        try:
            inspect.signature(call).bind(**payload)
        except TypeError as exc:
            raise ValueError(str(exc)) from None
        hints = _WIRE_HINTS[method]
        for name, value in payload.items():
            if not _fits(value, hints[name]):
                raise ValueError(
                    f"argument {name!r} must be "
                    f"{inspect.formatannotation(hints[name])}"
                )
        with self._store_lock:
            return call(**payload)

    # -- served methods the server adds behaviour to -------------------
    def _get(self, namespace: str, key: str) -> Any | None:
        """A kv get, counted in the hit/miss ledger."""
        value = self.store.get(namespace, key)
        _SERVER_CACHE_LOOKUPS.inc(result="miss" if value is None else "hit")
        if value is None:
            self._cache_misses += 1
        else:
            self._cache_hits += 1
        return value

    def _claim(
        self, sweep_id: str, worker_id: str, ttl: float
    ) -> dict[str, Any] | None:
        point = self.store.claim(sweep_id, worker_id, ttl)
        return None if point is None else dataclasses.asdict(point)

    def _complete(
        self, sweep_id: str, fingerprint: str, worker_id: str,
        *, fresh_evaluations: int = 0,
    ) -> bool:
        """Complete under the caller's lease only, so a zombie worker
        whose lease expired cannot scribble over a sibling's row; the
        payload cannot name ``require_lease``."""
        done = self.store.complete(
            sweep_id, fingerprint, worker_id,
            fresh_evaluations=fresh_evaluations, require_lease=True,
        )
        if done:
            now = time.time()
            self._completions.append(now)
            while (
                self._completions
                and self._completions[0] < now - _THROUGHPUT_WINDOW_S
            ):
                self._completions.popleft()
        return done

    # -- results log ----------------------------------------------------
    def _put_many(self, namespace: str, entries: dict[str, Any]) -> None:
        """Upsert kv entries, mirroring *new* experiment records into the
        results log (stream tailers see them the moment they land)."""
        fresh_records: list[Any] = []
        if namespace == RESULTS_NAMESPACE:
            fresh_records = [
                value
                for key, value in entries.items()
                if self.store.get(namespace, key) is None
            ]
        self.store.put_many(namespace, entries)
        if fresh_records:
            with self._results_cond:
                with self.results_path.open("a", encoding="utf-8") as fh:
                    for record in fresh_records:
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._results_cond.notify_all()

    # -- status / dashboard --------------------------------------------
    def status(self) -> dict[str, Any]:
        """The backing store's status plus the server's own vitals."""
        backing = self.store.status()
        now = time.time()
        recent = [t for t in self._completions if t >= now - 60.0]
        leases = []
        for sweep_id in backing["sweeps"]:
            for point in self.store.points(sweep_id):
                if point["status"] != STATUS_CLAIMED:
                    continue
                leases.append(
                    {
                        "sweep_id": sweep_id,
                        "fingerprint": point["fingerprint"],
                        "worker_id": point["worker_id"],
                        "attempts": point["attempts"],
                        "expires_in_s": round(
                            (point["lease_expires"] or now) - now, 2
                        ),
                    }
                )
        # Always-present cache section: remote workers' read-throughs as
        # seen server-side, plus the fresh-evaluation total persisted on
        # the queue rows (zeros before any traffic, never omitted).
        backing["cache"] = {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "fresh_evaluations": backing["fresh_evaluations"],
        }
        backing["server"] = {
            "url": self.url,
            "version": __version__,
            "uptime_s": round(now - self.started_at, 1),
            "results_path": str(self.results_path),
            "results_bytes": self.results_path.stat().st_size,
            "auth": "bearer",
            "workers": {
                worker_id: {
                    "last_seen_s_ago": round(
                        now - float(entry["last_seen"]), 1
                    ),
                    "requests": int(entry["requests"]),
                }
                for worker_id, entry in sorted(self._clients.items())
            },
            "leases": leases,
            "throughput": {
                "completed_last_60s": len(recent),
                "completed_per_min": len(recent),
                "completed_tracked": len(self._completions),
            },
        }
        return backing

    def metrics_text(self) -> str:
        """Prometheus text for ``GET /metrics``.

        Counters and histograms accumulate as requests arrive; gauges
        that mirror store state (entries, queue depths, fresh
        evaluations) are refreshed from the backing store at scrape
        time so a scrape never serves stale depths.
        """
        with self._store_lock:
            backing = self.store.status()
            _STORE_ENTRIES.set(backing["entries"])
            for sweep_id, counts in backing["sweeps"].items():
                for point_status, count in counts.items():
                    _QUEUE_POINTS.set(
                        count, sweep_id=sweep_id, status=point_status
                    )
            _QUEUE_FRESH.set(backing["fresh_evaluations"])
        return obs_metrics.METRICS.render_prometheus()

    def dashboard_html(self) -> str:
        """The auto-refreshing plain-HTML view of :meth:`status`."""
        with self._store_lock:
            status = self.status()
        server = status["server"]
        sweeps = status["sweeps"]

        def esc(value: Any) -> str:
            return html.escape(str(value))

        sweep_rows = "".join(
            "<tr><td><code>{sid}</code></td><td>{p}</td><td>{c}</td>"
            "<td>{d}</td><td>{f}</td></tr>".format(
                sid=esc(sweep_id),
                p=counts.get("pending", 0),
                c=counts.get("claimed", 0),
                d=counts.get("done", 0),
                f=counts.get("failed", 0),
            )
            for sweep_id, counts in sorted(sweeps.items())
        ) or "<tr><td colspan=5>(no sweeps enqueued)</td></tr>"
        lease_rows = "".join(
            "<tr><td>{w}</td><td><code>{fp}</code></td><td>{a}</td>"
            "<td>{e}s</td></tr>".format(
                w=esc(lease["worker_id"]),
                fp=esc(lease["fingerprint"][:16]),
                a=lease["attempts"],
                e=lease["expires_in_s"],
            )
            for lease in server["leases"]
        ) or "<tr><td colspan=4>(no live leases)</td></tr>"
        worker_rows = "".join(
            "<tr><td>{w}</td><td>{seen}s ago</td><td>{n}</td></tr>".format(
                w=esc(worker_id), seen=row["last_seen_s_ago"],
                n=row["requests"],
            )
            for worker_id, row in server["workers"].items()
        ) or "<tr><td colspan=3>(no workers seen yet)</td></tr>"
        cache = status["cache"]
        throughput = server["throughput"]
        tiles = (
            ("cache hits", cache["hits"]),
            ("cache misses", cache["misses"]),
            ("fresh evaluations", cache["fresh_evaluations"]),
            ("completed last 60s", throughput["completed_last_60s"]),
            ("completions tracked", throughput["completed_tracked"]),
        )
        metric_tiles = "".join(
            f"<td><b>{esc(label)}</b><br>{esc(value)}</td>"
            for label, value in tiles
        )
        return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>autolock campaign — {esc(status.get('path', ''))}</title>
<style>
 body {{ font-family: monospace; margin: 1.5em; }}
 table {{ border-collapse: collapse; margin: 0.5em 0 1.5em; }}
 td, th {{ border: 1px solid #999; padding: 0.25em 0.75em; text-align: left; }}
 h2 {{ margin-bottom: 0; }}
</style></head><body>
<h1>autolock campaign server</h1>
<p>store <code>{esc(status.get('path', ''))}</code>
 ({esc(status.get('backend', '?'))}) &middot; {status.get('entries', 0)}
 kv entries &middot; up {server['uptime_s']}s &middot;
 throughput {server['throughput']['completed_last_60s']}/min &middot;
 results log {server['results_bytes']} bytes &middot;
 <a href="/metrics">/metrics</a></p>
<h2>metrics</h2>
<table><tr>{metric_tiles}</tr></table>
<h2>sweeps</h2>
<table><tr><th>sweep</th><th>pending</th><th>leased</th><th>done</th>
<th>failed</th></tr>{sweep_rows}</table>
<h2>live leases</h2>
<table><tr><th>worker</th><th>point</th><th>attempts</th>
<th>expires in</th></tr>{lease_rows}</table>
<h2>workers seen</h2>
<table><tr><th>identity</th><th>last seen</th><th>requests</th></tr>
{worker_rows}</table>
</body></html>
"""


class _CampaignHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    campaign: CampaignServer


class _CampaignHandler(BaseHTTPRequestHandler):
    server_version = "autolock-campaign"
    protocol_version = "HTTP/1.1"
    # Nagle + the client's delayed ACK would stall every keep-alive
    # response ~40ms (headers and body are separate small writes).
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    @property
    def campaign(self) -> CampaignServer:
        return self.server.campaign  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # campaign traffic is high-rate; the dashboard is the log

    def _send_json(self, code: int, payload: Any, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # also sets close_connection: the socket is dropped
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self, query: dict[str, list[str]]) -> bool:
        header = self.headers.get("Authorization", "")
        token = None
        if header.startswith("Bearer "):
            token = header[len("Bearer "):]
        elif query.get("token"):
            token = query["token"][0]
        if self.campaign.check_token(token):
            self.campaign.note_client(self.headers.get("X-Worker-Id"))
            return True
        self.send_response(401)
        body = json.dumps(
            {"error": "missing or invalid bearer token"}
        ).encode("utf-8")
        self.send_header("WWW-Authenticate", "Bearer")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return False

    @staticmethod
    def _route(path: str) -> str:
        """The canonical route, ignoring any cosmetic base path — so
        ``open_store("http://host:8787/campaign")`` works unchanged."""
        for marker in ("/api/", "/stream/", "/status", "/metrics"):
            index = path.find(marker)
            if index >= 0:
                return path[index:]
        return path

    @classmethod
    def _route_family(cls, path: str) -> str:
        """Low-cardinality route label for the request metrics."""
        route = cls._route(path)
        for family in ("/api/kv", "/api/queue", "/stream/results",
                       "/status", "/metrics"):
            if route.startswith(family):
                return family
        return "other"

    def send_response(self, code: int, message: str | None = None) -> None:
        self._last_code = code
        super().send_response(code, message)

    def _timed(self, method: str, handler) -> None:
        """Run one verb handler, recording count + latency per route."""
        started = time.perf_counter()
        self._last_code = 0
        try:
            handler()
        finally:
            route = self._route_family(urlsplit(self.path).path)
            _REQUESTS.inc(
                route=route, method=method, code=str(self._last_code)
            )
            _REQUEST_SECONDS.observe(
                time.perf_counter() - started, route=route
            )

    # -- verbs ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._timed("POST", self._handle_post)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._timed("GET", self._handle_get)

    def _handle_post(self) -> None:
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        # Drain the body *before* any early return (auth reject, unknown
        # endpoint): unread bytes would desynchronise a keep-alive
        # connection, corrupting the client's next request.
        header = self.headers.get("Content-Length", "0")
        if not header.strip().isdecimal():
            # The body's end is unknown, so the connection cannot carry
            # another request: answer, then close it.
            self._send_json(
                400, {"error": f"bad Content-Length: {header!r}"}, close=True
            )
            return
        raw_body = self.rfile.read(int(header))
        if not self._authorized(query):
            return
        route = self._route(parts.path)
        if not route.startswith("/api/"):
            self._send_json(404, {"error": f"unknown endpoint {route!r}"})
            return
        try:
            payload = json.loads(raw_body or b"{}")
            family, _, method = route[len("/api/"):].partition("/")
            result = self.campaign.store_op(family, method, payload)
        except KeyError as exc:
            self._send_json(404, {"error": f"unknown operation: {exc}"})
            return
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            self._send_json(400, {"error": f"bad request: {exc}"})
            return
        except ReproError as exc:
            self._send_json(409, {"error": str(exc)})
            return
        self._send_json(200, {"result": result})

    def _handle_get(self) -> None:
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        if not self._authorized(query):
            return
        route = self._route(parts.path)
        if route.startswith("/metrics"):
            body = self.campaign.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if route.startswith("/status"):
            if query.get("format", [""])[0] == "json":
                with self.campaign._store_lock:
                    self._send_json(200, {"result": self.campaign.status()})
            else:
                body = self.campaign.dashboard_html().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            return
        if route.startswith("/stream/results"):
            self._stream_results(query)
            return
        self._send_json(404, {"error": f"unknown endpoint {route!r}"})

    # -- chunked results tail ------------------------------------------
    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _stream_results(self, query: dict[str, list[str]]) -> None:
        campaign = self.campaign
        offset = query.get("offset", ["0"])[0]
        follow = query.get("follow", ["1"])[0]
        if not offset.isdecimal() or follow not in ("0", "1"):
            error = f"bad stream query: offset={offset!r}, follow={follow!r}"
            self._send_json(400, {"error": error})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            with campaign.results_path.open("rb") as fh:
                fh.seek(int(offset))
                while not campaign._shutting_down.is_set():
                    data = fh.read()
                    if data:
                        self._write_chunk(data)
                    elif follow == "0":
                        break
                    else:
                        with campaign._results_cond:
                            campaign._results_cond.wait(timeout=0.5)
            self._write_chunk(b"")  # terminating zero-length chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # tailing client went away; nothing to clean up
