"""Benchmark-circuit suite: registry, profiles, generator invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    ISCAS85_PROFILES,
    CircuitProfile,
    available_circuits,
    generate_circuit,
    load_circuit,
    synthetic_suite,
)
from repro.errors import NetlistError

from reference.netlist import dangling_signals, validate_netlist


def test_available_circuits_contains_suite():
    names = available_circuits()
    assert "c17" in names
    assert "c432_syn" in names and "c7552_syn" in names


def test_c17_is_genuine():
    c17 = load_circuit("c17")
    assert len(c17.gates) == 6
    assert all(g.gtype.value == "NAND" for g in c17.gates.values())


def test_load_returns_independent_copies():
    a = load_circuit("c432_syn")
    b = load_circuit("c432_syn")
    a.add_input("extra")
    assert "extra" not in b


def test_determinism():
    a = load_circuit("c880_syn")
    b = load_circuit("c880_syn")
    assert a.structurally_equal(b)


def test_unknown_circuit():
    with pytest.raises(NetlistError, match="unknown circuit"):
        load_circuit("c9999")


def test_parametric_random_circuits():
    a = load_circuit("rand_50_1")
    b = load_circuit("rand_50_2")
    assert not a.structurally_equal(b)
    validate_netlist(a)


@pytest.mark.parametrize("name", sorted(ISCAS85_PROFILES))
def test_profiles_match_interface(name):
    profile = ISCAS85_PROFILES[name]
    circuit = load_circuit(name)
    validate_netlist(circuit)
    assert len(circuit.inputs) == profile.n_inputs
    assert len(circuit.outputs) == profile.n_outputs
    # Gate count may exceed the profile slightly (XOR merge of dangling
    # logic) but must stay within 5 %.
    assert profile.n_gates <= len(circuit.gates) <= int(profile.n_gates * 1.05)
    # Depth matches the ISCAS-85 target within a small tolerance.
    assert abs(circuit.depth() - profile.target_depth) <= 2
    # No dead logic (dangling primary inputs are impossible by construction).
    assert [s for s in dangling_signals(circuit) if s not in circuit.inputs] == []


def test_synthetic_suite_size_cap():
    small = synthetic_suite(max_gates=600)
    names = [c.name for c in small]
    assert "c17" in names and "c432_syn" in names
    assert all(len(c) <= 600 or c.name == "c17" for c in small)


def test_profile_validation():
    with pytest.raises(NetlistError):
        CircuitProfile("x", n_inputs=0, n_outputs=1, n_gates=1)
    with pytest.raises(NetlistError):
        CircuitProfile("x", n_inputs=1, n_outputs=1, n_gates=1, target_depth=0)
    with pytest.raises(NetlistError):
        CircuitProfile("x", n_inputs=1, n_outputs=5, n_gates=2)
    with pytest.raises(NetlistError):
        CircuitProfile("x", n_inputs=1, n_outputs=1, n_gates=1, max_fanin=1)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=5, max_value=40),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=10, max_value=120),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
def test_generator_invariants(n_inputs, n_outputs, n_gates, depth, seed):
    """Generated circuits are valid, match the interface, and hit depth."""
    if n_outputs > n_gates:
        n_outputs = n_gates
    profile = CircuitProfile(
        name="prop",
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        n_gates=n_gates,
        target_depth=depth,
        seed=seed,
    )
    circuit = generate_circuit(profile)
    validate_netlist(circuit)
    assert len(circuit.inputs) == n_inputs
    assert len(circuit.outputs) == n_outputs
    assert circuit.depth() >= min(depth, n_gates) - 1
    # Every input drives something.
    fanouts = circuit.fanouts()
    assert all(fanouts[s] for s in circuit.inputs)
