"""The per-netlist locking-site index: lockable-wire pool + reachability.

Sampling, repairing and validating a genotype ask two questions many
times per gene: *which wires may still be locked?* and *would this MUX
pair close a combinational loop?* A :class:`SiteIndex` answers both from
state built once per netlist:

* **The lockable-wire pool** — every ``(driver, consumer_gate)`` wire in
  scan order (gates in insertion order, fanins in pin order), the same
  order and multiplicity as a full rescan, with a liveness mask over it.
  A sampler filters the live wires by the genes' ``used`` set and turns
  each ``rng.integers`` draw into a wire by rank, so every draw picks
  the wire a rescan would have picked.
* **A bitset transitive closure** — one numpy ``uint64`` row per signal;
  bit ``j`` of row ``i`` is set iff signal ``i`` reaches signal ``j``
  (every signal reaches itself). :meth:`Netlist.has_path
  <repro.netlist.netlist.Netlist.has_path>` answers from it in O(1).

Both parts are derived state, cached on the netlist like its topological
order: built lazily on first use, each on its own, and dropped by any
mutation of a plain :class:`~repro.netlist.netlist.Netlist`. A
copy-on-write view (:class:`~repro.netlist.cow.CowNetlist`) instead
takes a private copy of its base's index (:meth:`SiteIndex.fork`) and
keeps it exact through the locking mutations:

* a new signal gets a row, and every row reaching one of its fanins
  gains its bit;
* a rewired pin adds the edge ``new_src → gate``: one vectorised OR of
  the gate's row into the rows that reach the new driver. A MUX pair
  thus adds ``f_j ⇝ g_i`` and ``f_i ⇝ g_j``; a key gate adds nothing
  between original signals. The removed edge ``old_src → gate`` changes
  nothing while ``old_src`` still reaches the new driver, as it does
  when the new driver is a key gate fed by ``old_src``;
* a rewired pin kills the pool entry of the wire it held. Locking
  mutations only ever add MUX or key-fed gates, which never add wires.

A mutation the view cannot follow exactly (removing a gate, an edge
whose loss may cut paths, a change that adds lockable wires) drops the
affected part, which is then rebuilt from the view itself on next use.

Lockable wires exclude wires into or out of key gates — MUX key-gates,
and any gate with a key-input fanin (the XOR/XNOR and AND/OR key gates)
— plus key-input and constant drivers, mirroring D-MUX's used-wire
rules. Keeping key-gate outputs out of the pool also guarantees every
sampled gene references only signals of the *original* design, so a
genotype sampled against a work copy (whose inserted gates carry
temporary names) rebuilds identically on a fresh work copy through
:func:`~repro.locking.genome_lock.apply_genes`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import NetlistError
from repro.netlist.gates import GateType

if TYPE_CHECKING:
    from repro.netlist.netlist import Netlist

__all__ = ["SiteIndex"]

_WORD = np.dtype("<u8")
#: spare closure rows a work copy starts with: a 32-gene MUX genotype
#: adds 96 signals (a key input and two MUXes per gene).
_SLACK = 128
_OPAQUE = (GateType.MUX, GateType.CONST0, GateType.CONST1)


def _key_fed(gate, key_set) -> bool:
    return bool(key_set) and any(src in key_set for src in gate.fanins)


def _lockable_consumer(gate, key_set) -> bool:
    return gate.gtype is not GateType.MUX and not _key_fed(gate, key_set)


def _lockable_driver(gates, src: str, key_set) -> bool:
    if src in key_set:
        return False
    gate = gates.get(src)
    return gate is None or (
        gate.gtype not in _OPAQUE and not _key_fed(gate, key_set)
    )


class SiteIndex:
    """Lockable-wire pool and reachability closure of one netlist.

    Each part is built on first use from the netlist passed to
    :meth:`pool` / :meth:`closure`, always the netlist holding the index.
    """

    __slots__ = ("_pool", "_closure")

    def __init__(self) -> None:
        self._pool: _WirePool | None = None
        self._closure: _Closure | None = None

    def pool(self, netlist: "Netlist") -> "_WirePool":
        if self._pool is None:
            self._pool = _WirePool(netlist)
        return self._pool

    def closure(self, netlist: "Netlist") -> "_Closure":
        if self._closure is None:
            self._closure = _Closure(netlist)
        return self._closure

    def fork(self, netlist: "Netlist") -> "SiteIndex":
        """A private copy of ``netlist``'s index for a view of ``netlist``."""
        dup = SiteIndex()
        dup._pool = self.pool(netlist).copy()
        dup._closure = self.closure(netlist).copy()
        return dup

    # ------------------------------------------------------------------
    # incremental maintenance (copy-on-write views call these after
    # each mutation; ``netlist`` is the mutated view)
    # ------------------------------------------------------------------
    def added(self, netlist: "Netlist", name: str) -> None:
        """Signal ``name`` (an input or a gate) was just created."""
        gate = netlist.gates.get(name)
        if self._closure is not None:
            self._closure.add(name, gate.fanins if gate is not None else ())
        if self._pool is not None and gate is not None:
            key_set = set(netlist.key_inputs)
            if _lockable_consumer(gate, key_set) and any(
                _lockable_driver(netlist.gates, src, key_set)
                for src in gate.fanins
            ):
                self._pool = None

    def rewired(
        self, netlist: "Netlist", gate_name: str, pin: int, old_src: str | None
    ) -> None:
        """Pin ``pin`` of ``gate_name`` now reads a new driver.

        ``old_src`` is the driver it replaced (``None`` for a pin just
        appended by ``widen_gate``).
        """
        gate = netlist.gates[gate_name]
        new_src = gate.fanins[pin]
        closure = self._closure
        if closure is not None:
            closure.link(new_src, gate_name)
            if (
                old_src is not None
                and old_src not in gate.fanins
                and not closure.reaches(old_src, new_src)
            ):
                self._closure = None
        if self._pool is not None:
            key_set = set(netlist.key_inputs)
            if (
                new_src in key_set
                or old_src in key_set
                or (
                    _lockable_consumer(gate, key_set)
                    and _lockable_driver(netlist.gates, new_src, key_set)
                )
            ):
                self._pool = None
            elif old_src is not None:
                self._pool.kill(old_src, gate_name, pin)


class _Ranked:
    """Live, unused pool wires, indexable by rank (a draw's value)."""

    __slots__ = ("_wires", "_ids")

    def __init__(self, wires: list, ids: np.ndarray) -> None:
        self._wires = wires
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, rank: int) -> tuple[str, str]:
        return self._wires[self._ids[rank]]

    def __iter__(self):
        return (self._wires[i] for i in self._ids.tolist())


class _WirePool:
    """Every lockable wire in scan order, with a liveness mask.

    ``pins[i]`` is the consumer pin wire ``i`` enters; ``_by_driver``
    lists each driver's wire ids in scan order, the one lookup table.
    """

    __slots__ = ("wires", "pins", "alive", "_by_driver")

    def __init__(self, netlist: "Netlist") -> None:
        key_set = set(netlist.key_inputs)
        gates = netlist.gates
        fed = {n for n, g in gates.items() if _key_fed(g, key_set)}
        opaque = key_set | fed | {
            n for n, g in gates.items() if g.gtype in _OPAQUE
        }
        wires: list[tuple[str, str]] = []
        pins: list[int] = []
        by_driver: dict[str, list[int]] = {}
        for gate in gates.values():
            if gate.gtype is GateType.MUX or gate.name in fed:
                continue
            for pin, src in enumerate(gate.fanins):
                if src not in opaque:
                    by_driver.setdefault(src, []).append(len(wires))
                    wires.append((src, gate.name))
                    pins.append(pin)
        self.wires = wires
        self.pins = pins
        self.alive = np.ones(len(wires), dtype=bool)
        self._by_driver = by_driver

    def copy(self) -> "_WirePool":
        # The tables are never mutated after the build; only the mask is.
        dup = object.__new__(_WirePool)
        dup.wires, dup.pins = self.wires, self.pins
        dup.alive = self.alive.copy()
        dup._by_driver = self._by_driver
        return dup

    def _ids(self, src: str, consumer: str) -> list[int]:
        wires = self.wires
        return [i for i in self._by_driver.get(src, ()) if wires[i][1] == consumer]

    def kill(self, src: str, gate_name: str, pin: int) -> None:
        """The wire ``src → gate_name`` on ``pin`` was rewired away."""
        for i in self._ids(src, gate_name):
            if self.pins[i] == pin:
                self.alive[i] = False

    def free(self, used: Iterable[tuple[str, str]] = ()) -> _Ranked:
        """Live wires not in ``used``, in scan order."""
        mask = self.alive
        dead = [i for src, consumer in used for i in self._ids(src, consumer)]
        if dead:
            mask = mask.copy()
            mask[dead] = False
        return _Ranked(self.wires, np.flatnonzero(mask))

    def driven_by(self, driver: str) -> list[tuple[str, str]]:
        """Live wires whose driver is ``driver``, in scan order."""
        alive = self.alive
        return [
            self.wires[i] for i in self._by_driver.get(driver, ()) if alive[i]
        ]


class _Closure:
    """Bit ``j`` of row ``i`` is set iff signal ``i`` reaches signal ``j``."""

    __slots__ = ("pos", "bits", "size")

    def __init__(self, netlist: "Netlist") -> None:
        # Descendant sets as Python ints in reverse topological order,
        # then written into the rows one by one (each int freed once
        # written): far fewer interpreter steps than one numpy OR per
        # gate. Raises NetlistError on a cyclic netlist.
        names = list(netlist.signals())
        pos = {name: i for i, name in enumerate(names)}
        rows = [1 << i for i in range(len(names))]
        gates = netlist.gates
        for name in reversed(netlist._order()):
            row = rows[pos[name]]
            for src in gates[name].fanins:
                rows[pos[src]] |= row
        words = max(1, (len(names) + 63) >> 6)
        self.bits = np.zeros((len(names), words), dtype=_WORD)
        raw, width = memoryview(self.bits).cast("B"), 8 * words
        for i in range(len(rows)):
            raw[i * width : (i + 1) * width] = rows[i].to_bytes(width, "little")
            rows[i] = None
        self.pos = pos
        self.size = len(names)

    def copy(self) -> "_Closure":
        dup = object.__new__(_Closure)
        dup.pos = dict(self.pos)
        dup.size = self.size
        dup.bits = self.bits
        dup._reserve(self.size + _SLACK)
        return dup

    def _reserve(self, rows: int) -> None:
        """Reallocate with room for ``rows`` signals (always copies)."""
        words = max(self.bits.shape[1], (rows + 63) >> 6)
        bits = np.zeros((rows, words), dtype=_WORD)
        bits[: self.size, : self.bits.shape[1]] = self.bits[: self.size]
        self.bits = bits

    def reaches(self, src: str, dst: str) -> bool:
        i, j = self.pos.get(src), self.pos.get(dst)
        if i is None or j is None:
            raise NetlistError(f"has_path: unknown signal {src!r} or {dst!r}")
        return bool(int(self.bits[i, j >> 6]) >> (j & 63) & 1)

    def _reaching(self, names: Iterable[str]) -> np.ndarray:
        """Mask over live rows: the signals reaching any of ``names``."""
        live = self.bits[: self.size]
        mask = np.zeros(self.size, dtype=bool)
        for name in names:
            j = self.pos[name]
            mask |= (live[:, j >> 6] & np.uint64(1 << (j & 63))) != 0
        return mask

    def add(self, name: str, fanins: Iterable[str]) -> None:
        """A new signal: it reaches itself, its fanins' ancestors reach it."""
        i = self.size
        if i == len(self.bits):
            self._reserve(i + max(_SLACK, i >> 3))
        rows = self._reaching(fanins) if fanins else None
        self.pos[name] = i
        self.size = i + 1
        word, bit = i >> 6, np.uint64(1 << (i & 63))
        self.bits[i, word] = bit
        if rows is not None:
            self.bits[:i][rows, word] |= bit

    def link(self, src: str, dst: str) -> None:
        """New edge ``src → dst``: whatever reaches ``src`` reaches ``dst``'s set.

        Rows already reaching ``dst`` hold its whole set and are skipped;
        for a MUX pair that leaves the ancestors of the decoy driver.
        """
        live = self.bits[: self.size]
        rows = self._reaching((src,)) & ~self._reaching((dst,))
        live[rows] |= live[self.pos[dst]]
