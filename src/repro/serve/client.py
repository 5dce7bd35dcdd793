"""``HttpStore``: the campaign server's client, a drop-in store backend.

Registered under :data:`repro.registry.STORES` as ``"http"``, so
:func:`~repro.store.base.open_store` on ``http://host:8787/campaign`` —
and therefore every run owner that opens a ``cache_path``
(``run_experiment``, ``run_sweep``, :class:`SweepScheduler`,
:class:`Worker`, the ``store`` verbs) — speaks to a remote
:class:`~repro.serve.server.CampaignServer` with zero call-site
changes; the caches, records and checkpoints of a run only ever see the
open handle. Every :class:`~repro.store.base.StoreBackend` method but
``close`` is one JSON POST to ``/api/kv/<method>`` or
``/api/queue/<method>`` under its own name, its keyword arguments as
the body; the server serialises them onto its backing SQLite store, so
N machines of workers share one campaign exactly like N local processes
share one SQLite file. The forwarding methods are built from
:data:`~repro.store.base.SERVED_METHODS` and wear the protocol's
signatures and docstrings; only ``claim`` (which rebuilds the
:class:`~repro.store.base.ClaimedPoint`) and ``complete`` (which never
sends ``require_lease``) are written by hand.

Auth is a bearer token (``token=`` or the :data:`TOKEN_ENV` environment
variable — worker processes inherit it across ``multiprocessing``
spawns) plus a per-client identity sent as ``X-Worker-Id`` on every
request, which the server's dashboard surfaces as last-seen/requests per
worker. Failures never leak http.client tracebacks: an unreachable or
unauthorized server raises :class:`~repro.errors.StoreError` with a
one-line actionable message (host, port, auth hint) that the CLI maps to
exit code 2.

Transport is one persistent ``http.client.HTTPConnection`` per store
instance (the server speaks HTTP/1.1 keep-alive), so the
claim/heartbeat/complete chatter of a worker loop pays the TCP handshake
once instead of per request. A lock serialises each request's
checkout, round trip and read, so one store serves several threads (a
worker's loop, its lease heartbeat and the pool's cache flushes). The
connection is fork-safe — a child process detects the inherited socket
via a PID stamp and silently opens its own, never touching the parent's
stream — and self-healing: a request that hits a stale keep-alive socket
(server idled it out between requests) is retried once on a fresh
connection. Result streams always use a dedicated single-use connection
so a long tail never starves the request/response channel.

This module is imported during store-registry population, so it stays
stdlib-only and import-cheap (no numpy, no server code).
"""

from __future__ import annotations

import functools
import http.client
import inspect
import json
import os
import socket
import threading
import urllib.parse
from pathlib import Path
from typing import Any, Iterator

from repro.errors import StoreError
from repro.registry import register_store
from repro.store.base import SERVED_METHODS, ClaimedPoint, StoreBackend, is_url

#: environment variable carrying the campaign bearer token; read by
#: every HttpStore that is not given an explicit ``token=``, so worker
#: processes spawned by the scheduler inherit credentials for free.
TOKEN_ENV = "AUTOLOCK_TOKEN"


def default_client_id() -> str:
    """A human-traceable identity for the server's per-worker ledger."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _set_nodelay(sock) -> None:
    """Disable Nagle: on a reused keep-alive connection, Nagle holding
    the second small write until the peer's delayed ACK turns every
    request into a ~40ms stall (one-shot connections never notice —
    close() flushes)."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):  # pragma: no cover - e.g. AF_UNIX
        pass


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    def connect(self) -> None:
        super().connect()
        _set_nodelay(self.sock)


class _NoDelayHTTPSConnection(http.client.HTTPSConnection):
    def connect(self) -> None:
        super().connect()
        _set_nodelay(self.sock)


@register_store("http")
class HttpStore:
    """Store backend + work queue proxied over a campaign server."""

    def __init__(
        self,
        path: str | Path,
        *,
        token: str | None = None,
        timeout_s: float = 30.0,
        client_id: str | None = None,
    ) -> None:
        url = str(path)
        if not is_url(url):
            raise StoreError(
                f"http store path must be an http(s) URL, got {url!r} "
                "(e.g. http://host:8787/campaign)"
            )
        self.url = url.rstrip("/")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV, "")
        self.timeout_s = timeout_s
        self.client_id = client_id or default_client_id()
        parsed = urllib.parse.urlsplit(self.url)
        self._netloc = parsed.netloc or self.url
        self._scheme = parsed.scheme or "http"
        self._base_path = parsed.path
        self._conn: http.client.HTTPConnection | None = None
        self._conn_pid: int | None = None
        #: one request at a time on the shared keep-alive connection.
        self._lock = threading.Lock()

    # -- transport ------------------------------------------------------
    def _open_connection(self, timeout_s: float) -> http.client.HTTPConnection:
        cls = (
            _NoDelayHTTPSConnection
            if self._scheme == "https"
            else _NoDelayHTTPConnection
        )
        return cls(self._netloc, timeout=timeout_s)

    def _checkout(
        self, timeout_s: float
    ) -> tuple[http.client.HTTPConnection, bool]:
        """The persistent connection and whether it was already used.

        A reused connection may have been idled out by the server since
        the last request — callers retry once on a fresh one when the
        first attempt dies with a stale-socket signature.
        """
        if self._conn is not None and self._conn_pid != os.getpid():
            # Forked child: the socket is the *parent's* stream. Closing
            # it here would send FIN on their behalf; just drop the
            # object and open our own.
            self._conn = None
        if self._conn is None:
            self._conn = self._open_connection(timeout_s)
            self._conn_pid = os.getpid()
            return self._conn, False
        conn = self._conn
        conn.timeout = timeout_s
        if conn.sock is not None:
            conn.sock.settimeout(timeout_s)
        return conn, True

    def _discard(self, conn: http.client.HTTPConnection) -> None:
        if self._conn is conn:
            self._conn = None
        try:
            conn.close()
        except OSError:  # pragma: no cover - close never matters here
            pass

    #: a request on a *reused* connection failing one of these ways means
    #: the server closed the idle socket between requests — retry once on
    #: a fresh connection before declaring the server unreachable.
    _STALE_CONN_ERRORS = (
        http.client.BadStatusLine,
        http.client.CannotSendRequest,
        ConnectionResetError,
        BrokenPipeError,
    )

    def _request(
        self, route: str, payload: dict | None, *, method: str = "POST",
        timeout_s: float | None = None, stream: bool = False,
    ):
        data = None
        headers = {
            "Authorization": f"Bearer {self.token}",
            "X-Worker-Id": self.client_id,
        }
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        timeout = timeout_s or self.timeout_s
        target = f"{self._base_path}{route}"

        if stream:
            # Dedicated single-use connection: a long tail must not
            # occupy (or inherit the timeout of) the request channel.
            conn = self._open_connection(timeout)
            try:
                response = self._roundtrip(conn, method, target, data, headers)
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                self._raise_unreachable(exc)
            if response.status != 200:
                body = response.read()
                conn.close()
                self._raise_http_error(route, response, body)
            response.stream_conn = conn  # closed by stream_results
            return response

        with self._lock:
            for retry_left in (True, False):
                conn, reused = self._checkout(timeout)
                try:
                    response = self._roundtrip(
                        conn, method, target, data, headers
                    )
                    # Drain fully so a keep-alive connection is reusable.
                    body = response.read()
                except self._STALE_CONN_ERRORS as exc:
                    self._discard(conn)
                    if reused and retry_left:
                        continue
                    self._raise_unreachable(exc)
                except (http.client.HTTPException, OSError) as exc:
                    self._discard(conn)
                    self._raise_unreachable(exc)
                break
        if response.status != 200:
            self._raise_http_error(route, response, body)
        return json.loads(body) if body else None

    def _roundtrip(self, conn, method, target, data, headers):
        conn.request(method, target, body=data, headers=headers)
        return conn.getresponse()

    def _raise_unreachable(self, exc: BaseException) -> None:
        reason = getattr(exc, "reason", exc)
        raise StoreError(
            f"cannot reach campaign server at {self._netloc}: {reason} — "
            "is `autolock serve` running on that host/port?"
        ) from None

    def _raise_http_error(self, route: str, response, body: bytes) -> None:
        detail = ""
        try:
            detail = json.loads(body.decode("utf-8", "replace")).get("error", "")
        except Exception:  # noqa: BLE001 - body is best-effort context
            pass
        if response.status in (401, 403):
            raise StoreError(
                f"campaign server at {self._netloc} rejected credentials "
                f"({response.status}): pass --token / set {TOKEN_ENV} to the "
                "token `autolock serve` printed"
            ) from None
        raise StoreError(
            f"campaign server at {self._netloc} refused "
            f"{route} ({response.status}): {detail or response.reason}"
        ) from None

    def _call(self, family: str, method: str, **arguments: Any) -> Any:
        """Call one served :class:`~repro.store.base.StoreBackend`
        method: ``POST /api/<family>/<method>`` with the arguments as
        the JSON body."""
        return self._request(f"/api/{family}/{method}", arguments)["result"]

    # -- store methods the client adds behaviour to ---------------------
    def claim(
        self, sweep_id: str, worker_id: str, ttl: float
    ) -> ClaimedPoint | None:
        row = self._call(
            "queue", "claim", sweep_id=sweep_id, worker_id=worker_id, ttl=ttl
        )
        return ClaimedPoint(**row) if row is not None else None

    def complete(
        self, sweep_id: str, fingerprint: str, worker_id: str,
        *, fresh_evaluations: int = 0, require_lease: bool = True,
    ) -> bool:
        """Report a finished point; the server *always* verifies the lease,
        so ``require_lease`` is not sent.

        Returns ``False`` when the server rejected the completion (this
        worker's lease expired and a sibling owns the point now) — the
        record in the kv namespaces is untouched either way.
        """
        return self._call(
            "queue", "complete", sweep_id=sweep_id, fingerprint=fingerprint,
            worker_id=worker_id, fresh_evaluations=fresh_evaluations,
        )

    def close(self) -> None:
        """Release the persistent keep-alive connection, if any.

        Only the process that opened the socket closes it; a forked
        child's inherited handle is dropped without touching the
        parent's stream.
        """
        conn, self._conn = self._conn, None
        if conn is not None and self._conn_pid == os.getpid():
            try:
                conn.close()
            except OSError:  # pragma: no cover - close never matters here
                pass

    # -- streaming results ---------------------------------------------
    def stream_results(
        self, *, offset: int = 0, follow: bool = True,
        timeout_s: float | None = None,
    ) -> Iterator[tuple[int, dict[str, Any]]]:
        """Tail the campaign's ``results.jsonl`` over chunked HTTP.

        Yields ``(next_offset, record)`` pairs: every line already in the
        log from byte ``offset`` on, then — with ``follow=True`` — new
        records live as workers complete points. ``next_offset`` is the
        byte position *after* the yielded line; pass it back as
        ``offset`` to resume a dropped tail without replaying. The
        stream ends when the server shuts down, the caller breaks out,
        or (``follow=True``) no record arrives within ``timeout_s``.
        """
        response = self._request(
            f"/stream/results?offset={int(offset)}&follow={int(follow)}",
            None,
            method="GET",
            timeout_s=timeout_s,
            stream=True,
        )
        position = int(offset)
        try:
            with response:
                for raw in response:
                    position += len(raw)
                    line = raw.decode("utf-8").strip()
                    if line:
                        yield position, json.loads(line)
        except _STREAM_END_ERRORS:
            return  # idle past timeout_s or server went away mid-tail
        finally:
            conn = getattr(response, "stream_conn", None)
            if conn is not None:
                conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HttpStore({self.url!r})"


def _forward(family: str, name: str):
    """``HttpStore.<name>``: one :meth:`HttpStore._call` with the
    arguments bound, defaults applied, by the protocol's signature,
    whose name, signature and docstring it wears."""
    protocol = getattr(StoreBackend, name)
    signature = inspect.signature(protocol)

    @functools.wraps(protocol)
    def method(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        del arguments["self"]
        return self._call(family, name, **arguments)

    return method


for _family, _names in SERVED_METHODS.items():
    for _name in _names:
        if _name not in vars(HttpStore):
            setattr(HttpStore, _name, _forward(_family, _name))
del _family, _names, _name


#: what a dying or idle chunked stream surfaces mid-read; the tail
#: generator treats these as end-of-stream, not errors.
_STREAM_END_ERRORS = (
    TimeoutError,
    socket.timeout,
    http.client.IncompleteRead,
    ConnectionError,
)
