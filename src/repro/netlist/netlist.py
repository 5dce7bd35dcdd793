"""The :class:`Netlist` container: a combinational gate-level DAG.

Signals are identified by name. A signal is either a primary input, a key
input (for locked designs), or the output of exactly one gate. Primary
outputs are a subset of signal names. The class offers the small set of
mutation primitives that locking schemes need — adding inputs/gates and
rewiring a consumer pin — plus the graph queries (topological order,
fanouts, reachability, levels) that simulation, SAT encoding and the
attacks are built on.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.errors import NetlistError
from repro.netlist.gates import Gate, GateType
from repro.netlist.sites import SiteIndex


class Netlist:
    """A named combinational netlist.

    Parameters
    ----------
    name:
        Human-readable design name (propagated to ``.bench`` output).

    Notes
    -----
    Mutation invalidates the cached topological order, fanout map and
    locking-site index (:class:`~repro.netlist.sites.SiteIndex`); caches
    are rebuilt lazily on the next query and never pickled. All mutating
    methods validate their arguments eagerly so a netlist can never hold
    a dangling reference, but acyclicity is only enforced when a
    topological order is requested, because locking transformations
    check reachability *before* inserting.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self.inputs: list[str] = []
        self.key_inputs: list[str] = []
        self.outputs: list[str] = []
        self.gates: dict[str, Gate] = {}
        self._topo_cache: list[str] | None = None
        self._fanout_cache: dict[str, list[tuple[str, int]]] | None = None
        self._site_index: SiteIndex | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def all_inputs(self) -> list[str]:
        """Primary inputs followed by key inputs (simulation order)."""
        return self.inputs + self.key_inputs

    def signals(self) -> Iterator[str]:
        """Iterate every signal name: inputs, key inputs, then gate outputs."""
        yield from self.inputs
        yield from self.key_inputs
        yield from self.gates

    def is_signal(self, name: str) -> bool:
        """True if ``name`` names an input, key input, or gate output."""
        return name in self.gates or name in self._input_set()

    def _input_set(self) -> set[str]:
        return set(self.inputs) | set(self.key_inputs)

    def __contains__(self, name: str) -> bool:
        return self.is_signal(name)

    def __len__(self) -> int:
        """Number of gates (inputs are not counted)."""
        return len(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"keys={len(self.key_inputs)}, outputs={len(self.outputs)}, "
            f"gates={len(self.gates)})"
        )

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def _check_fresh(self, name: str) -> None:
        if not name:
            raise NetlistError("signal names must be non-empty")
        if self.is_signal(name):
            raise NetlistError(f"signal {name!r} already exists")

    def add_input(self, name: str) -> None:
        """Declare a new primary input signal."""
        self._check_fresh(name)
        self.inputs.append(name)
        self._invalidate()

    def add_key_input(self, name: str) -> None:
        """Declare a new key input signal (locked designs only)."""
        self._check_fresh(name)
        self.key_inputs.append(name)
        self._invalidate()

    def add_output(self, name: str) -> None:
        """Mark existing signal ``name`` as a primary output."""
        if not self.is_signal(name):
            raise NetlistError(f"cannot mark unknown signal {name!r} as output")
        if name in self.outputs:
            raise NetlistError(f"signal {name!r} is already an output")
        self.outputs.append(name)

    def add_gate(
        self, name: str, gtype: GateType, fanins: Iterable[str]
    ) -> Gate:
        """Create gate ``name = gtype(*fanins)``; every fanin must exist."""
        self._check_fresh(name)
        fanins = tuple(fanins)
        for src in fanins:
            if not self.is_signal(src):
                raise NetlistError(f"gate {name!r}: unknown fanin {src!r}")
        gate = Gate(name, gtype, fanins)
        self.gates[name] = gate
        self._invalidate()
        return gate

    def remove_gate(self, name: str) -> None:
        """Delete gate ``name``; it must be unused (no consumers, not a PO)."""
        if name not in self.gates:
            raise NetlistError(f"no gate named {name!r}")
        consumers = self.fanouts().get(name, [])
        if consumers:
            users = ", ".join(g for g, _ in consumers[:5])
            raise NetlistError(f"cannot remove {name!r}: still drives {users}")
        if name in self.outputs:
            raise NetlistError(f"cannot remove {name!r}: it is a primary output")
        del self.gates[name]
        self._invalidate()

    def rewire_pin(self, gate_name: str, pin: int, new_src: str) -> None:
        """Redirect fanin ``pin`` of ``gate_name`` to signal ``new_src``."""
        if gate_name not in self.gates:
            raise NetlistError(f"no gate named {gate_name!r}")
        if not self.is_signal(new_src):
            raise NetlistError(f"unknown signal {new_src!r}")
        self.gates[gate_name] = self.gates[gate_name].with_fanin(pin, new_src)
        self._invalidate()

    def widen_gate(self, gate_name: str, new_src: str) -> None:
        """Append ``new_src`` as an extra fanin of an n-ary gate.

        Only valid for gate types without a fanin upper bound (AND/OR/
        NAND/NOR/XOR/XNOR); raises for fixed-arity gates.
        """
        if gate_name not in self.gates:
            raise NetlistError(f"no gate named {gate_name!r}")
        if not self.is_signal(new_src):
            raise NetlistError(f"unknown signal {new_src!r}")
        gate = self.gates[gate_name]
        self.gates[gate_name] = Gate(
            gate.name, gate.gtype, gate.fanins + (new_src,)
        )
        self._invalidate()

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fanout_cache = None
        self._site_index = None

    def __getstate__(self) -> dict:
        # Derived caches stay behind: the reachability closure alone is
        # n²/8 bytes, and pool workers rebuild what they use.
        state = self.__dict__.copy()
        state.update(_topo_cache=None, _fanout_cache=None, _site_index=None)
        return state

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def fanouts(self) -> dict[str, list[tuple[str, int]]]:
        """Map each signal to the ``(consumer_gate, pin)`` pairs it drives."""
        if self._fanout_cache is None:
            fanout: dict[str, list[tuple[str, int]]] = {s: [] for s in self.signals()}
            for gate in self.gates.values():
                for pin, src in enumerate(gate.fanins):
                    fanout[src].append((gate.name, pin))
            self._fanout_cache = fanout
        return self._fanout_cache

    def fanout_count(self, signal: str) -> int:
        """Number of consumer pins driven by ``signal``."""
        return len(self.fanouts().get(signal, []))

    def topological_order(self) -> list[str]:
        """Gate names in dependency order (fanins before consumers).

        Raises :class:`NetlistError` if the netlist contains a
        combinational cycle.
        """
        return self._order()

    def _order(self) -> list[str]:
        # The cached sort behind topological_order(); internal callers
        # (the reachability closure) use it directly.
        if self._topo_cache is not None:
            return self._topo_cache
        fanouts = self.fanouts()
        # In-degree counts gate-driven pins: every pin, minus the pins
        # the inputs drive (one pass over their fanouts, not the fanins).
        indeg = {name: len(gate.fanins) for name, gate in self.gates.items()}
        for sig in self.all_inputs:
            for consumer, _pin in fanouts.get(sig, ()):
                indeg[consumer] -= 1
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: list[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for consumer, _pin in fanouts.get(name, ()):
                left = indeg[consumer] - 1
                indeg[consumer] = left
                if not left:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            stuck = sorted(set(self.gates) - set(order))[:5]
            raise NetlistError(
                f"combinational cycle detected involving gates near {stuck}"
            )
        self._topo_cache = order
        return order

    def check_acyclic(self) -> None:
        """Assert the netlist is a DAG (raises :class:`NetlistError`).

        The locking primitives call this after every insertion as a
        defensive guard; on a plain netlist it is one full sort per
        insertion. Their reachability checks already reject every
        cycle-closing gene before mutating, so
        :class:`~repro.netlist.cow.CowNetlist` work copies make it a
        no-op and their owners (genotype sampling, repair and
        validation, :func:`~repro.locking.genome_lock.apply_genes`,
        D-MUX locking) run one full :meth:`topological_order` per
        built circuit instead.
        """
        self.topological_order()

    def levels(self) -> dict[str, int]:
        """Logic level of each signal: inputs at 0, gates at 1 + max(fanins)."""
        level: dict[str, int] = {s: 0 for s in self._input_set()}
        for name in self.topological_order():
            gate = self.gates[name]
            if gate.fanins:
                level[name] = 1 + max(level[src] for src in gate.fanins)
            else:
                level[name] = 0
        return level

    def depth(self) -> int:
        """Maximum logic level over all signals (0 for gate-free netlists)."""
        lv = self.levels()
        return max(lv.values(), default=0)

    def site_index(self) -> SiteIndex:
        """This netlist's locking-site index (lockable wires + reachability).

        Created empty on first call; its parts are built on first use and
        the whole index is dropped by the next mutation (a
        :class:`~repro.netlist.cow.CowNetlist` keeps its own copy exact
        instead).
        """
        if self._site_index is None:
            self._site_index = SiteIndex()
        return self._site_index

    def has_path(self, src: str, dst: str) -> bool:
        """True if a directed path ``src`` ⇝ ``dst`` exists (src == dst counts).

        Used by MUX insertion to reject pairings that would create a
        combinational cycle. The single reachability entry point: it
        reads one bit of the site index's transitive closure,
        built in one pass over the netlist after a mutation and kept up
        to date incrementally on copy-on-write views. Raises
        :class:`NetlistError` for unknown signals and, like
        :meth:`topological_order`, on a netlist with a cycle.
        """
        return self.site_index().closure(self).reaches(src, dst)

    # ------------------------------------------------------------------
    # Copying / equality
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Netlist":
        """Deep, independent copy (gates are immutable so lists suffice)."""
        dup = Netlist(name or self.name)
        dup.inputs = list(self.inputs)
        dup.key_inputs = list(self.key_inputs)
        dup.outputs = list(self.outputs)
        dup.gates = dict(self.gates)
        return dup

    def structurally_equal(self, other: "Netlist") -> bool:
        """Exact structural equality: same inputs/outputs/gates (names included)."""
        return (
            self.inputs == other.inputs
            and self.key_inputs == other.key_inputs
            and self.outputs == other.outputs
            and self.gates == other.gates
        )

    # ------------------------------------------------------------------
    # Naming helpers
    # ------------------------------------------------------------------
    def fresh_name(self, prefix: str) -> str:
        """Return a signal name starting with ``prefix`` not yet in use."""
        if not self.is_signal(prefix):
            return prefix
        i = 0
        while self.is_signal(f"{prefix}_{i}"):
            i += 1
        return f"{prefix}_{i}"
