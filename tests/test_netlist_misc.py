"""Verilog writer, validation, statistics."""

import pytest

from repro.errors import NetlistError
from repro.netlist import GateType, Netlist, compute_stats, write_verilog
from repro.netlist.verilog import write_verilog_file

from reference.netlist import dangling_signals, validate_netlist


# ---------------------------------------------------------------- verilog
def test_verilog_structure(c17):
    text = write_verilog(c17)
    assert "module c17(" in text
    assert text.count("input ") == 5
    assert text.count("output ") == 2
    assert "nand g" in text
    assert text.strip().endswith("endmodule")


def test_verilog_mux_and_const():
    n = Netlist("m")
    n.add_input("s")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("one", GateType.CONST1, [])
    n.add_gate("z", GateType.MUX, ["s", "a", "b"])
    n.add_output("z")
    n.add_output("one")
    text = write_verilog(n)
    assert "assign z = s ? b : a;" in text
    assert "assign one = 1'b1;" in text


def test_verilog_escapes_nonstandard_names():
    n = Netlist("weird")
    n.add_input("a.b[3]")
    n.add_gate("z", GateType.NOT, ["a.b[3]"])
    n.add_output("z")
    text = write_verilog(n)
    assert "\\a.b[3] " in text


def test_verilog_key_inputs_commented(dmux_locked):
    text = write_verilog(dmux_locked.netlist)
    assert "// key input" in text


def test_verilog_file(tmp_path, c17):
    path = tmp_path / "c17.v"
    write_verilog_file(c17, path)
    assert path.read_text().startswith("//")


# ---------------------------------------------------------------- validate
def test_validate_ok(c17):
    validate_netlist(c17)


def test_validate_requires_outputs():
    n = Netlist("empty")
    n.add_input("a")
    n.add_gate("g", GateType.NOT, ["a"])
    with pytest.raises(NetlistError, match="no primary outputs"):
        validate_netlist(n)
    validate_netlist(n, require_outputs=False)


def test_validate_catches_corruption(c17):
    # Simulate post-hoc corruption that bypassed add_gate's checks.
    bad = c17.copy()
    from repro.netlist.gates import Gate

    bad.gates["G10"] = Gate("G10", GateType.NAND, ("G1", "ghost"))
    with pytest.raises(NetlistError, match="undefined"):
        validate_netlist(bad)


def test_validate_duplicate_output(c17):
    bad = c17.copy()
    bad.outputs.append("G22")
    with pytest.raises(NetlistError, match="twice"):
        validate_netlist(bad)


def test_dangling_signals(c17):
    assert dangling_signals(c17) == []
    n = c17.copy()
    n.add_gate("dead", GateType.NOT, ["G1"])
    assert dangling_signals(n) == ["dead"]


# ---------------------------------------------------------------- stats
def test_stats_c17(c17):
    stats = compute_stats(c17)
    assert stats.n_inputs == 5
    assert stats.n_outputs == 2
    assert stats.n_gates == 6
    assert stats.depth == 3
    assert stats.gate_type_counts == {"NAND": 6}
    assert stats.avg_fanin == pytest.approx(2.0)
    assert stats.max_fanout >= 2
    assert "c17" in stats.as_row()


def test_stats_empty():
    n = Netlist("void")
    n.add_input("a")
    stats = compute_stats(n)
    assert stats.n_gates == 0
    assert stats.avg_fanin == 0.0
    assert stats.depth == 0
