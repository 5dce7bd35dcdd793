"""Reference implementations kept as differential oracles.

Each module here is the straightforward one-item-at-a-time version of a
batched or incremental code path in ``repro``. The runtime no longer
ships them; the tests compare the runtime path against them.
"""
