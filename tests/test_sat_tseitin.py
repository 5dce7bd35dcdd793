"""Tseitin encoding: SAT models must agree with the logic simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import load_circuit
from repro.errors import CnfError
from repro.netlist import GateType, Netlist
from repro.sat import CdclSolver, Cnf, encode_netlist

from reference.netlist import bits, simulate_bits


def test_encoding_var_map(c17):
    enc = encode_netlist(c17)
    assert set(enc.var_of) == set(c17.signals())
    assert enc.lit("G22") == enc.var_of["G22"]
    assert enc.lit("G22", False) == -enc.var_of["G22"]
    with pytest.raises(CnfError):
        enc.lit("ghost")


def test_forced_output_yields_valid_input(c17):
    """Solving for G23=1 must produce inputs that simulate to G23=1."""
    enc = encode_netlist(c17)
    result = CdclSolver(enc.cnf).solve([enc.lit("G23", True)])
    assert result.is_sat
    inputs = {s: np.array([int(result.model[enc.var_of[s]])]) for s in c17.inputs}
    sim = simulate_bits(c17, inputs)
    assert int(bits(sim, "G23")[0]) == 1


def test_unsatisfiable_output_combination():
    """A gate and its negation cannot both be 1."""
    n = Netlist("n")
    n.add_input("a")
    n.add_gate("x", GateType.BUF, ["a"])
    n.add_gate("y", GateType.NOT, ["a"])
    n.add_output("x")
    n.add_output("y")
    enc = encode_netlist(n)
    result = CdclSolver(enc.cnf).solve([enc.lit("x"), enc.lit("y")])
    assert result.is_unsat


def test_bindings_share_variables(c17):
    cnf = Cnf()
    pi = {s: cnf.new_var(s) for s in c17.inputs}
    enc_a = encode_netlist(c17, cnf, bindings=pi, name_prefix="A_")
    enc_b = encode_netlist(c17, cnf, bindings=pi, name_prefix="B_")
    # Identical circuits on shared inputs: outputs can never differ.
    out = c17.outputs[0]
    d = cnf.new_var()
    a, b = enc_a.var_of[out], enc_b.var_of[out]
    cnf.add_clauses([[-d, a, b], [-d, -a, -b], [d, -a, b], [d, a, -b]])
    assert CdclSolver(cnf).solve([d]).is_unsat


def test_bindings_validation(c17):
    cnf = Cnf()
    with pytest.raises(CnfError, match="unknown signal"):
        encode_netlist(c17, cnf, bindings={"ghost": 1})
    with pytest.raises(CnfError, match="not an allocated"):
        encode_netlist(c17, cnf, bindings={"G1": 99})


def test_const_and_mux_encoding():
    n = Netlist("m")
    n.add_input("s")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("one", GateType.CONST1, [])
    n.add_gate("zero", GateType.CONST0, [])
    n.add_gate("z", GateType.MUX, ["s", "a", "b"])
    n.add_output("z")
    enc = encode_netlist(n)
    for s, a, b in [(0, 1, 0), (1, 0, 1), (1, 1, 0), (0, 0, 1)]:
        expected = a if s == 0 else b
        result = CdclSolver(enc.cnf).solve(
            [enc.lit("s", bool(s)), enc.lit("a", bool(a)), enc.lit("b", bool(b))]
        )
        assert result.is_sat
        assert result.model[enc.var_of["z"]] == bool(expected)
        assert result.model[enc.var_of["one"]] is True
        assert result.model[enc.var_of["zero"]] is False


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=15, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)
def test_models_match_simulation_on_random_circuits(n_gates, seed):
    """For random circuits and inputs, SAT models equal simulation values."""
    circuit = load_circuit(f"rand_{n_gates}_{seed}")
    enc = encode_netlist(circuit)
    rng = np.random.default_rng(seed)
    inputs = {s: np.array([int(rng.integers(0, 2))]) for s in circuit.inputs}
    sim = simulate_bits(circuit, inputs)
    assumptions = [enc.lit(s, bool(inputs[s][0])) for s in circuit.inputs]
    result = CdclSolver(enc.cnf).solve(assumptions)
    assert result.is_sat, "fully constrained circuit must be satisfiable"
    for gate_name in circuit.gates:
        assert result.model[enc.var_of[gate_name]] == bool(bits(sim, gate_name)[0])
