"""ISCAS .bench parsing/writing, including property-based round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import load_circuit
from repro.errors import BenchParseError
from repro.netlist import parse_bench, write_bench
from repro.netlist.bench import parse_bench_file, write_bench_file


def test_parse_c17(c17):
    assert c17.inputs == ["G1", "G2", "G3", "G6", "G7"]
    assert c17.outputs == ["G22", "G23"]
    assert len(c17.gates) == 6
    assert c17.gates["G22"].fanins == ("G10", "G16")


def test_comments_and_blank_lines():
    n = parse_bench(
        """
        # a comment
        INPUT(x)   # trailing comment

        OUTPUT(y)
        y = NOT(x)
        """
    )
    assert n.inputs == ["x"] and n.outputs == ["y"]


def test_forward_references_allowed():
    n = parse_bench(
        """
        INPUT(a)
        OUTPUT(z)
        z = NOT(m)
        m = BUF(a)
        """
    )
    assert n.gates["z"].fanins == ("m",)


def test_keyinput_marker_and_convention():
    n = parse_bench(
        """
        INPUT(a)
        KEYINPUT(k0)
        INPUT(keyinput1)
        OUTPUT(z)
        z = XOR(a, k0)
        """
    )
    assert n.inputs == ["a"]
    assert n.key_inputs == ["k0", "keyinput1"]


def test_gate_aliases():
    n = parse_bench("INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
    assert n.gates["z"].gtype.value == "BUF"


def test_mux_and_const_gates():
    n = parse_bench(
        """
        INPUT(s)
        INPUT(a)
        INPUT(b)
        OUTPUT(z)
        one = CONST1()
        z = MUX(s, a, b)
        OUTPUT(one)
        """
    )
    assert n.gates["z"].gtype.value == "MUX"
    assert n.gates["one"].fanins == ()


@pytest.mark.parametrize(
    "text, match",
    [
        ("INPUT(a)\nz = DFF(a)\nOUTPUT(z)", "sequential"),
        ("INPUT(a)\nz = FROB(a)\nOUTPUT(z)", "unknown gate type"),
        ("INPUT(a)\nOUTPUT(z)\nz = NOT(ghost)", "undefined"),
        ("INPUT(a)\nOUTPUT(ghost)\nz = NOT(a)", "no driver"),
        ("INPUT(a)\na = NOT(a)\nOUTPUT(a)", "defined twice"),
        ("INPUT(a)\nwhat is this line", "unrecognised"),
        ("INPUT(a)\nOUTPUT(z)\nz = NOT(a, a)", "requires"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(BenchParseError, match=match):
        parse_bench(text)


@pytest.mark.parametrize("kind", ["DFF", "LATCH"])
def test_sequential_element_message_is_self_contained(kind):
    """The DFF/LATCH rejection states its reason and the fix inline."""
    with pytest.raises(BenchParseError) as err:
        parse_bench(f"INPUT(a)\nz = {kind}(a)\nOUTPUT(z)")
    assert str(err.value) == (
        f"line 2: sequential element {kind} is not supported: only "
        "combinational netlists can be simulated, attacked and locked; cut "
        "flip-flops into pseudo-primary inputs/outputs first"
    )


def test_parse_error_carries_line_number():
    with pytest.raises(BenchParseError) as err:
        parse_bench("INPUT(a)\nbogus line here\n")
    assert err.value.line_no == 2


def test_roundtrip_c17(c17):
    again = parse_bench(write_bench(c17), "c17")
    assert c17.structurally_equal(again)


def test_roundtrip_with_key_inputs(dmux_locked):
    text = write_bench(dmux_locked.netlist)
    again = parse_bench(text, dmux_locked.netlist.name)
    assert dmux_locked.netlist.structurally_equal(again)


def test_key_marker_off_writes_plain_inputs(dmux_locked):
    text = write_bench(dmux_locked.netlist, include_key_marker=False)
    assert "KEYINPUT" not in text
    again = parse_bench(text)
    # The keyinput<N> naming convention still classifies them as keys.
    assert set(again.key_inputs) == set(dmux_locked.netlist.key_inputs)


def test_file_roundtrip(tmp_path, c17):
    path = tmp_path / "c17.bench"
    write_bench_file(c17, path)
    again = parse_bench_file(path)
    assert again.name == "c17"
    assert c17.structurally_equal(again)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=10, max_value=80), st.integers(min_value=0, max_value=10**6))
def test_roundtrip_random_circuits(n_gates, seed):
    """write -> parse is the identity on arbitrary generated circuits."""
    circuit = load_circuit(f"rand_{n_gates}_{seed}")
    again = parse_bench(write_bench(circuit), circuit.name)
    assert circuit.structurally_equal(again)
