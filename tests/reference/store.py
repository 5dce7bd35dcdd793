"""Direct reads of a SQLite store file, below the store protocol.

The zero-recompute tests ask when an entry was last written; the
runtime never needs that, so no store method answers it.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path


def entry_updated_at(path: str | Path, namespace: str, key: str) -> float | None:
    """The ``kv.updated_at`` column of one entry, or ``None`` when absent."""
    conn = sqlite3.connect(str(path))
    try:
        row = conn.execute(
            "SELECT updated_at FROM kv WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
    finally:
        conn.close()
    return row[0] if row else None
