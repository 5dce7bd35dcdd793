"""Stateful property test: arbitrary mutation sequences keep invariants.

Hypothesis drives random sequences of netlist operations (add input/gate,
rewire, widen, mark output) and checks after every step that the netlist
stays structurally valid, acyclic and self-consistent — the guarantees the
locking transformations and the GA's repair logic rely on.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.circuits import load_circuit
from repro.errors import NetlistError
from repro.locking.dmux import lockable_wires
from repro.locking.primitives import XorGene, get_primitive
from repro.netlist import GateType, Netlist
from repro.netlist.cow import CowNetlist
from tests.reference import genotype as ref
from tests.reference.netlist import validate_netlist

_BINARY_TYPES = [GateType.AND, GateType.NAND, GateType.OR, GateType.XOR]


class NetlistMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.netlist = Netlist("stateful")
        self.netlist.add_input("seed_input")
        self.counter = 0

    # ------------------------------------------------------------- helpers
    def _fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _signals(self) -> list[str]:
        return list(self.netlist.signals())

    # --------------------------------------------------------------- rules
    @rule()
    def add_input(self) -> None:
        self.netlist.add_input(self._fresh("in"))

    @rule(data=st.data())
    def add_unary_gate(self, data) -> None:
        src = data.draw(st.sampled_from(self._signals()))
        gtype = data.draw(st.sampled_from([GateType.NOT, GateType.BUF]))
        self.netlist.add_gate(self._fresh("g"), gtype, [src])

    @rule(data=st.data())
    def add_binary_gate(self, data) -> None:
        signals = self._signals()
        a = data.draw(st.sampled_from(signals))
        b = data.draw(st.sampled_from(signals))
        gtype = data.draw(st.sampled_from(_BINARY_TYPES))
        self.netlist.add_gate(self._fresh("g"), gtype, [a, b])

    @precondition(lambda self: len(self.netlist.gates) > 0)
    @rule(data=st.data())
    def rewire_safely(self, data) -> None:
        """Rewire a random pin to a random *non-descendant* source."""
        gate_name = data.draw(st.sampled_from(sorted(self.netlist.gates)))
        gate = self.netlist.gates[gate_name]
        pin = data.draw(st.integers(min_value=0, max_value=len(gate.fanins) - 1))
        candidates = [
            s for s in self._signals()
            if not self.netlist.has_path(gate_name, s)
        ]
        if not candidates:
            return
        new_src = data.draw(st.sampled_from(candidates))
        self.netlist.rewire_pin(gate_name, pin, new_src)

    @precondition(lambda self: len(self.netlist.gates) > 0)
    @rule(data=st.data())
    def widen_nary_gate(self, data) -> None:
        nary = [
            n for n, g in self.netlist.gates.items() if g.gtype in _BINARY_TYPES
        ]
        if not nary:
            return
        gate_name = data.draw(st.sampled_from(sorted(nary)))
        src = data.draw(st.sampled_from(self._signals()))
        if self.netlist.has_path(gate_name, src):
            return
        self.netlist.widen_gate(gate_name, src)

    @precondition(lambda self: len(self.netlist.gates) > 0)
    @rule(data=st.data())
    def mark_output(self, data) -> None:
        candidates = [
            g for g in self.netlist.gates if g not in self.netlist.outputs
        ]
        if candidates:
            self.netlist.add_output(data.draw(st.sampled_from(sorted(candidates))))

    @rule()
    def copy_is_equal_and_independent(self) -> None:
        dup = self.netlist.copy()
        assert dup.structurally_equal(self.netlist)
        dup.add_input(self._fresh("dupin"))
        assert not dup.structurally_equal(self.netlist)

    # ---------------------------------------------------------- invariants
    @invariant()
    def always_valid(self) -> None:
        validate_netlist(self.netlist, require_outputs=False)

    @invariant()
    def topo_order_respects_dependencies(self) -> None:
        order = self.netlist.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for gate in self.netlist.gates.values():
            for src in gate.fanins:
                if src in position:
                    assert position[src] < position[gate.name]

    @invariant()
    def fanouts_match_fanins(self) -> None:
        count_from_fanouts = sum(
            len(v) for v in self.netlist.fanouts().values()
        )
        count_from_fanins = sum(
            len(g.fanins) for g in self.netlist.gates.values()
        )
        assert count_from_fanouts == count_from_fanins

    @invariant()
    def levels_are_consistent(self) -> None:
        levels = self.netlist.levels()
        for gate in self.netlist.gates.values():
            if gate.fanins:
                assert levels[gate.name] == 1 + max(
                    levels[s] for s in gate.fanins
                )


NetlistMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestNetlistStateful = NetlistMachine.TestCase


class CowViewMachine(NetlistMachine):
    """The same mutations, plus key-gate insertion and gate removal, on a
    copy-on-write view of a generated circuit. The view keeps its site
    index incrementally (or drops a part it cannot follow); every answer
    must equal a rescan and a BFS."""

    def __init__(self) -> None:
        super().__init__()
        self.netlist = CowNetlist.from_base(load_circuit("rand_30_3"))
        self.netlist.add_input("seed_input")

    @rule(data=st.data())
    def insert_key_gate(self, data) -> None:
        wires = lockable_wires(self.netlist)
        if not wires:
            return
        f, g = data.draw(st.sampled_from(wires))
        gene = XorGene(f, g, data.draw(st.integers(0, 1)))
        get_primitive("xor").apply_gene(self.netlist, gene, self._fresh("key"))

    @rule(data=st.data())
    def remove_unused_gate(self, data) -> None:
        fanouts = self.netlist.fanouts()
        unused = sorted(
            n for n in self.netlist.gates
            if not fanouts[n] and n not in self.netlist.outputs
        )
        if unused:
            self.netlist.remove_gate(data.draw(st.sampled_from(unused)))

    @invariant()
    def site_index_matches_references(self) -> None:
        assert lockable_wires(self.netlist) == ref.lockable_wires(self.netlist)
        signals = self._signals()
        for src in signals[::5]:
            for dst in signals:
                assert self.netlist.has_path(src, dst) == ref.has_path(
                    self.netlist, src, dst
                ), (src, dst)


CowViewMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestCowViewStateful = CowViewMachine.TestCase


def test_rewire_to_descendant_is_detectable():
    """The machine avoids cycles via has_path; confirm the guard matters."""
    n = Netlist("guard")
    n.add_input("a")
    n.add_gate("g1", GateType.NOT, ["a"])
    n.add_gate("g2", GateType.NOT, ["g1"])
    n.rewire_pin("g1", 0, "g2")  # creates a cycle
    try:
        n.topological_order()
    except NetlistError:
        return
    raise AssertionError("cycle went undetected")
