"""Random logic locking (XOR/XNOR) invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import load_circuit
from repro.errors import LockingError
from repro.locking import RandomLogicLocking
from repro.netlist.gates import GateType
from repro.sim import check_equivalence

from reference.netlist import validate_netlist


def test_structure(rll_locked):
    netlist = rll_locked.netlist
    validate_netlist(netlist)
    assert len(netlist.key_inputs) == 8
    assert len(netlist.gates) == len(rll_locked.original.gates) + 8
    assert rll_locked.scheme == "rll"
    assert rll_locked.key_length == 8


def test_keygate_types_match_bits(rll_locked):
    """XOR for key bit 0, XNOR for key bit 1 — the EPIC convention."""
    for rec in rll_locked.insertions:
        gate = rll_locked.netlist.gates[rec.keygate]
        expected = GateType.XNOR if rec.key_bit else GateType.XOR
        assert gate.gtype is expected
        assert rec.locked_signal in gate.fanins
        assert rec.key_name in gate.fanins


def test_correct_key_preserves_function(rll_locked):
    res = check_equivalence(
        rll_locked.original,
        rll_locked.netlist,
        key_right=dict(rll_locked.key),
        seed_or_rng=3,
    )
    assert res.equal


def test_wrong_key_changes_function(rll_locked):
    wrong = rll_locked.key.flipped(0)
    res = check_equivalence(
        rll_locked.original,
        rll_locked.netlist,
        key_right=dict(wrong),
        n_random=2048,
        seed_or_rng=3,
    )
    assert not res.equal, "flipping an RLL key bit must corrupt the function"


def test_nets_locked_once(rll_locked):
    locked_signals = [rec.locked_signal for rec in rll_locked.insertions]
    assert len(locked_signals) == len(set(locked_signals))


def test_original_untouched(rand100):
    before = rand100.copy()
    RandomLogicLocking().lock(rand100, 8, seed_or_rng=1)
    assert rand100.structurally_equal(before)


def test_too_long_key_rejected(c17):
    with pytest.raises(LockingError, match="lockable nets"):
        RandomLogicLocking().lock(c17, 500, seed_or_rng=1)
    with pytest.raises(LockingError):
        RandomLogicLocking().lock(c17, 0, seed_or_rng=1)


def test_determinism(rand100):
    a = RandomLogicLocking().lock(rand100, 8, seed_or_rng=9)
    b = RandomLogicLocking().lock(rand100, 8, seed_or_rng=9)
    assert a.netlist.structurally_equal(b.netlist)
    assert a.key == b.key


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=30, max_value=80),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
)
def test_equivalence_property(n_gates, seed, key_len):
    """Locked-with-correct-key ≡ original, for arbitrary circuits/keys."""
    circuit = load_circuit(f"rand_{n_gates}_{seed}")
    locked = RandomLogicLocking().lock(circuit, key_len, seed_or_rng=seed)
    validate_netlist(locked.netlist)
    res = check_equivalence(
        circuit, locked.netlist, key_right=dict(locked.key),
        n_random=512, seed_or_rng=seed,
    )
    assert res.equal
