"""Span tracing: nested wall/CPU timings written as JSONL.

Disabled by default. The module-level tracer is ``None`` until
:func:`start_tracing` installs one, and :func:`span` — the only call
instrumented code makes — is a single global check that hands back one
shared no-op object when tracing is off. No span objects, no file
handles, no timestamps are created on the disabled path, so goldens and
benchmarks are unaffected unless ``--trace`` is passed.

When enabled, each ``with span("name", key=value):`` block appends one
JSON line to the trace file on exit::

    {"span": 7, "parent": 3, "name": "ec.generation", "t0": ...,
     "wall_s": 0.81, "cpu_s": 0.12, "thread": "MainThread",
     "attrs": {"key": "value"}}

Parent linkage comes from a per-thread span stack, so nesting reflects
the call structure of each thread. Spans opened on helper threads with
no enclosing span become roots of their own — keep tracing on the
dispatcher side (the done-callback threads record histograms instead)
so ``trace summarize`` coverage stays meaningful.

One process writes one file; multi-process runs (sweep workers) each
derive their own path so JSONL lines never interleave across writers.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Union


class _NullSpan:
    """Shared do-nothing span returned whenever tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: times itself and emits a JSONL record on exit."""

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent_id", "_t0",
        "_wall0", "_cpu0",
    )

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = next(self._tracer._ids)
        stack.append(self.span_id)
        self._t0 = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_s = time.perf_counter() - self._wall0
        cpu_s = time.thread_time() - self._cpu0
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._emit({
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": self._t0,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "thread": threading.current_thread().name,
            "attrs": self.attrs,
        })
        return False


class Tracer:
    """Appends span records to one JSONL file, thread-safely."""

    def __init__(self, path: Union[str, Path],
                 **attrs: Any) -> None:
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._write_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.attrs = dict(attrs)
        self._emit({"meta": {"pid": os.getpid(), **self.attrs}})

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def _emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, default=str)
        with self._write_lock:
            if self._fh.closed:
                return  # late done-callback after stop_tracing()
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._write_lock:
            if not self._fh.closed:
                self._fh.close()


#: The active tracer, or ``None`` (the default, no-op state).
_TRACER: Tracer | None = None


def _drop_inherited_tracer() -> None:
    """Forked children share the parent's tracer *and* file offset;
    writing through it would interleave bytes into the parent's file.
    Drop the reference — without closing the parent-owned descriptor —
    so the child starts untraced and may open its own derived file."""
    global _TRACER
    _TRACER = None


if hasattr(os, "register_at_fork"):  # spawn'd children re-import fresh
    os.register_at_fork(after_in_child=_drop_inherited_tracer)


def span(name: str, **attrs: Any) -> Union[_Span, _NullSpan]:
    """Open a span under the active tracer; a shared no-op when off."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def enabled() -> bool:
    return _TRACER is not None


def start_tracing(path: Union[str, Path], **attrs: Any) -> Tracer:
    """Install the process-wide tracer. Raises if one is already active."""
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError(
            f"tracing already active (writing {_TRACER.path}); "
            "stop_tracing() first"
        )
    _TRACER = Tracer(path, **attrs)
    return _TRACER


def stop_tracing() -> None:
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is not None:
        tracer.close()


@contextlib.contextmanager
def tracing(path: Union[str, Path, None], **attrs: Any) -> Iterator[None]:
    """Trace the enclosed block; a no-op when ``path`` is ``None``.

    Owns nothing if a tracer is already active (the outermost owner —
    e.g. a sweep — wins and nested experiment runs join its trace).
    """
    if path is None or enabled():
        yield
        return
    start_tracing(path, **attrs)
    try:
        yield
    finally:
        stop_tracing()


def derive_worker_path(path: Union[str, Path], worker_id: str) -> Path:
    """Per-worker trace filename so parallel processes never share a file."""
    base = Path(path)
    return base.with_name(f"{base.stem}-{worker_id}{base.suffix or '.jsonl'}")
