"""Experiment stores: shared sweep state behind one protocol.

See :mod:`repro.store.base` for the :class:`StoreBackend` protocol and
:func:`open_store`, and :mod:`repro.store.sqlite_store` for the
concurrent SQLite database every file path opens.
"""

from repro.store.base import (
    STATUS_CLAIMED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    ClaimedPoint,
    StoreBackend,
    is_url,
    open_store,
    url_scheme,
)
from repro.store.gc import gc_store
from repro.store.sqlite_store import SQLiteStore

# Imported last: the HttpStore client registers the "http" backend and
# itself imports repro.store.base, so it must come after base is bound.
from repro.serve.client import HttpStore  # noqa: E402

__all__ = [
    "gc_store",
    "STATUS_CLAIMED",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_PENDING",
    "ClaimedPoint",
    "HttpStore",
    "SQLiteStore",
    "StoreBackend",
    "is_url",
    "open_store",
    "url_scheme",
]
