"""Netlist container: construction, mutation, graph queries."""

import pytest

from repro.errors import NetlistError
from repro.netlist import GateType, Netlist


def build_chain() -> Netlist:
    n = Netlist("chain")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", GateType.AND, ["a", "b"])
    n.add_gate("g2", GateType.NOT, ["g1"])
    n.add_gate("g3", GateType.OR, ["g2", "a"])
    n.add_output("g3")
    return n


def test_signal_accounting():
    n = build_chain()
    assert len(n) == 3
    assert set(n.signals()) == {"a", "b", "g1", "g2", "g3"}
    assert "g1" in n and "nope" not in n
    assert n.all_inputs == ["a", "b"]


def test_duplicate_names_rejected():
    n = build_chain()
    with pytest.raises(NetlistError):
        n.add_input("a")
    with pytest.raises(NetlistError):
        n.add_gate("g1", GateType.NOT, ["a"])
    with pytest.raises(NetlistError):
        n.add_key_input("g2")
    with pytest.raises(NetlistError):
        n.add_input("")


def test_unknown_fanin_rejected():
    n = build_chain()
    with pytest.raises(NetlistError):
        n.add_gate("g4", GateType.NOT, ["ghost"])


def test_output_rules():
    n = build_chain()
    with pytest.raises(NetlistError):
        n.add_output("ghost")
    with pytest.raises(NetlistError):
        n.add_output("g3")  # already an output
    n.add_output("g1")
    assert n.outputs == ["g3", "g1"]


def test_topological_order_and_cache_invalidation():
    n = build_chain()
    order = n.topological_order()
    assert order.index("g1") < order.index("g2") < order.index("g3")
    n.add_gate("g4", GateType.NOT, ["g3"])
    assert "g4" in n.topological_order()


def test_cycle_detection():
    n = build_chain()
    # Rewire g1's input to g3, creating g1 -> g2 -> g3 -> g1.
    n.rewire_pin("g1", 0, "g3")
    with pytest.raises(NetlistError, match="cycle"):
        n.topological_order()


def test_fanouts_and_counts():
    n = build_chain()
    fo = n.fanouts()
    assert ("g1", 0) in fo["a"] or ("g3", 1) in fo["a"]
    assert n.fanout_count("a") == 2
    assert n.fanout_count("g3") == 0


def test_rewire_and_replace():
    n = build_chain()
    n.rewire_pin("g3", 1, "b")
    assert n.gates["g3"].fanins == ("g2", "b")
    with pytest.raises(NetlistError):
        n.rewire_pin("ghost", 0, "a")
    with pytest.raises(NetlistError):
        n.rewire_pin("g1", 0, "ghost")


def test_remove_gate_rules():
    n = build_chain()
    with pytest.raises(NetlistError, match="drives"):
        n.remove_gate("g1")
    with pytest.raises(NetlistError, match="output"):
        n.remove_gate("g3")
    n.add_gate("dead", GateType.NOT, ["a"])
    n.remove_gate("dead")
    assert "dead" not in n
    with pytest.raises(NetlistError):
        n.remove_gate("dead")


def test_levels_and_depth():
    n = build_chain()
    levels = n.levels()
    assert levels["a"] == 0 and levels["g1"] == 1
    assert levels["g2"] == 2 and levels["g3"] == 3
    assert n.depth() == 3


def test_has_path():
    n = build_chain()
    assert n.has_path("a", "g3")
    assert n.has_path("g1", "g2")
    assert not n.has_path("g3", "a")
    assert n.has_path("a", "a"), "src == dst counts as reachable"
    with pytest.raises(NetlistError):
        n.has_path("ghost", "a")


def test_copy_independence():
    n = build_chain()
    dup = n.copy("dup")
    dup.add_gate("extra", GateType.NOT, ["a"])
    dup.rewire_pin("g3", 1, "b")
    assert "extra" not in n
    assert n.gates["g3"].fanins == ("g2", "a")
    assert dup.name == "dup"


def test_structural_equality():
    a, b = build_chain(), build_chain()
    assert a.structurally_equal(b)
    b.rewire_pin("g3", 1, "b")
    assert not a.structurally_equal(b)


def test_fresh_name():
    n = build_chain()
    assert n.fresh_name("new") == "new"
    assert n.fresh_name("g1") == "g1_0"
    n.add_gate("g1_0", GateType.NOT, ["a"])
    assert n.fresh_name("g1") == "g1_1"
