"""Reference implementations kept as differential oracles.

Each module here is the straightforward version of a code path in
``repro``: one item at a time instead of batched or incremental
(``muxlink``), a full rescan and a BFS instead of an incrementally kept
site index (``genotype``), a deep copy per built circuit instead of a
copy-on-write work copy (``locking``), plain DPLL instead of CDCL
(``dpll``), or finite differences instead of hand-written backward
passes (``gradcheck``).
The runtime does not ship them; the tests compare the runtime path
against them.

``netlist`` holds the checkers the runtime itself never needs: whole-
netlist validation, the 0/1-vector simulator front end, and the MUX
sites of a D-MUX insertion record.
``store`` reads an entry's last write time straight from a SQLite
store file, for the zero-recompute assertions.
``fitness`` scores a lock against an attacker panel with one constant-
propagation run per panel member, the oracle for the shared scope run
of ``SpecFitness(panel=...)``.
"""
