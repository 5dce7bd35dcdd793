"""Simulation substrate: packing, the simulator, and equivalence checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import load_circuit
from repro.errors import SimulationError
from repro.netlist import GateType, Netlist
from repro.netlist.gates import evaluate_bits
from repro.sim import (
    check_equivalence,
    exhaustive_patterns,
    output_error_rate,
    pack_bits,
    random_patterns,
    simulate,
    unpack_bits,
    oracle_fn,
)
from repro.sim.patterns import constant_words, n_words_for

from reference.netlist import bits, simulate_bits


# ---------------------------------------------------------------- patterns
@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300))
def test_pack_unpack_roundtrip(bits):
    words = pack_bits(bits)
    assert len(words) == n_words_for(len(bits))
    assert np.array_equal(unpack_bits(words, len(bits)), np.array(bits, dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 100, 127, 128, 129])
def test_pack_unpack_non_multiple_of_64(n):
    """Padding bits above ``n`` never leak into the unpacked vector."""
    bits = np.resize(np.array([1, 0, 1, 1, 0], dtype=np.uint8), n)
    words = pack_bits(bits)
    assert np.array_equal(unpack_bits(words, n), bits)
    # All-ones input: every payload bit set, every pad bit must stay 0.
    ones = np.ones(n, dtype=np.uint8)
    packed_ones = pack_bits(ones)
    assert np.array_equal(unpack_bits(packed_ones, n), ones)
    pad = len(packed_ones) * 64 - n
    if pad:
        top = int(packed_ones[-1])
        assert top >> (64 - pad) == 0, "padding bits are not zero"


def test_pack_rejects_matrices():
    with pytest.raises(SimulationError):
        pack_bits(np.zeros((2, 2)))


def test_n_words_guard():
    with pytest.raises(SimulationError):
        n_words_for(0)


def test_unpack_guard():
    with pytest.raises(SimulationError):
        unpack_bits(np.zeros(1, dtype=np.uint64), 65)


def test_constant_words():
    ones = constant_words(1, 100)
    zeros = constant_words(0, 100)
    assert np.all(unpack_bits(ones, 100) == 1)
    assert np.all(unpack_bits(zeros, 100) == 0)


def test_exhaustive_patterns_cover_all():
    packed, n = exhaustive_patterns(["a", "b", "c"])
    assert n == 8
    rows = {
        tuple(int(unpack_bits(packed[s], n)[j]) for s in ("a", "b", "c"))
        for j in range(n)
    }
    assert len(rows) == 8


def test_exhaustive_guard():
    with pytest.raises(SimulationError):
        exhaustive_patterns([f"x{i}" for i in range(30)])


def test_random_patterns_deterministic():
    a = random_patterns(["x", "y"], 128, 42)
    b = random_patterns(["x", "y"], 128, 42)
    assert np.array_equal(a["x"], b["x"]) and np.array_equal(a["y"], b["y"])


# ---------------------------------------------------------------- simulator
def test_c17_exhaustive_against_reference(c17):
    """Bit-parallel simulation agrees with naive per-pattern evaluation."""
    packed, n = exhaustive_patterns(c17.inputs)
    result = simulate(c17, packed, n)
    for j in range(n):
        values = {s: int(unpack_bits(packed[s], n)[j]) for s in c17.inputs}
        for name in c17.topological_order():
            gate = c17.gates[name]
            values[name] = evaluate_bits(gate.gtype, [values[x] for x in gate.fanins])
        for out in c17.outputs:
            assert int(bits(result, out)[j]) == values[out]


def test_simulate_bits_key_broadcast(dmux_locked):
    n = dmux_locked.netlist
    vectors = {s: np.array([0, 1, 0, 1]) for s in n.inputs}
    res = simulate_bits(n, vectors, key=dict(dmux_locked.key))
    assert res.n_patterns == 4
    for out in n.outputs:
        assert bits(res, out).shape == (4,)


def test_simulate_bits_errors(dmux_locked, c17):
    with pytest.raises(SimulationError, match="requires key bits"):
        simulate_bits(dmux_locked.netlist, {s: [0] for s in dmux_locked.netlist.inputs})
    with pytest.raises(SimulationError, match="unknown key"):
        simulate_bits(c17, {s: [0] for s in c17.inputs}, key={"ghost": 1})
    with pytest.raises(SimulationError, match="differing lengths"):
        vec = {s: [0] for s in c17.inputs}
        vec["G1"] = [0, 1]
        simulate_bits(c17, vec)


def test_simulate_bits_empty_input_dict(c17):
    """No vectors at all is reported as such, not as a length mismatch."""
    with pytest.raises(SimulationError, match="input_bits is empty"):
        simulate_bits(c17, {})


def test_simulate_bits_missing_primary_input(c17):
    vec = {s: [0] for s in c17.inputs[1:]}
    with pytest.raises(SimulationError, match="missing primary inputs"):
        simulate_bits(c17, vec)


def test_simulate_bits_rejects_non_input_signals(c17, dmux_locked):
    vec = {s: [0] for s in c17.inputs}
    vec["G22"] = [0]  # an output, not an input
    with pytest.raises(SimulationError, match="non-input signals"):
        simulate_bits(c17, vec)
    # Key bits passed as pattern vectors get a pointed hint.
    n = dmux_locked.netlist
    kvec = {s: [0] for s in n.inputs}
    kvec[n.key_inputs[0]] = [0]
    with pytest.raises(SimulationError, match="key inputs belong in key="):
        simulate_bits(n, kvec, key=dict(dmux_locked.key))


def test_simulate_missing_input(c17):
    with pytest.raises(SimulationError, match="missing value"):
        simulate(c17, {}, 1)


def test_const_gates_simulation():
    n = Netlist("const")
    n.add_input("a")
    n.add_gate("one", GateType.CONST1, [])
    n.add_gate("z", GateType.AND, ["a", "one"])
    n.add_output("z")
    res = simulate_bits(n, {"a": np.array([0, 1])})
    assert list(bits(res, "z")) == [0, 1]


def test_oracle_fn(c17):
    oracle = oracle_fn(c17)
    out = oracle({s: 1 for s in c17.inputs})
    assert out == {"G22": 1, "G23": 0}


def test_oracle_rejects_locked(dmux_locked):
    with pytest.raises(SimulationError):
        oracle_fn(dmux_locked.netlist)


def test_oracle_batch_matches_singles(c17):
    oracle = oracle_fn(c17)
    queries = [
        dict(zip(c17.inputs, bits))
        for bits in itertools.product([0, 1], repeat=len(c17.inputs))
    ]
    assert oracle.batch(queries) == [oracle(q) for q in queries]
    assert oracle.batch([]) == []


# ------------------------------------------------------------- equivalence
def test_equivalence_identity(c17):
    res = check_equivalence(c17, c17.copy())
    assert res.equal and res.method == "exhaustive"


def test_equivalence_detects_difference(c17):
    other = c17.copy()
    other.rewire_pin("G22", 0, "G1")
    res = check_equivalence(c17, other)
    assert not res.equal
    assert res.mismatched_output in ("G22", "G23")
    # The counterexample must actually witness the difference.
    cex = res.counterexample
    left = simulate_bits(c17, {s: np.array([cex[s]]) for s in c17.inputs})
    right = simulate_bits(other, {s: np.array([cex[s]]) for s in c17.inputs})
    out = res.mismatched_output
    assert int(bits(left, out)[0]) != int(bits(right, out)[0])


def test_equivalence_locked_with_key(dmux_locked):
    res = check_equivalence(
        dmux_locked.original,
        dmux_locked.netlist,
        key_right=dict(dmux_locked.key),
        seed_or_rng=0,
    )
    assert res.equal


def test_equivalence_interface_mismatch(c17, tiny):
    with pytest.raises(SimulationError):
        check_equivalence(c17, tiny)


def test_equivalence_random_method():
    big = load_circuit("rand_200_3")
    assert len(big.inputs) > 12
    res = check_equivalence(big, big.copy(), n_random=256, seed_or_rng=1)
    assert res.equal and res.method == "random"


def test_output_error_rate_bounds(rll_locked):
    correct = output_error_rate(
        rll_locked.original, rll_locked.netlist, dict(rll_locked.key), seed_or_rng=0
    )
    assert correct == 0.0
    wrong_key = dict(rll_locked.key.flipped(0))
    wrong = output_error_rate(
        rll_locked.original, rll_locked.netlist, wrong_key, seed_or_rng=0
    )
    assert 0.0 < wrong <= 1.0
