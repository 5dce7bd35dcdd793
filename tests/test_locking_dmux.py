"""D-MUX pairwise MUX locking: functional, structural and safety invariants."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.circuits import load_circuit
from repro.errors import LockingError
from repro.locking import (
    DMuxLocking,
    MuxGene,
    apply_gene,
    gene_applicable,
    sample_gene,
)
from repro.locking.dmux import lockable_wires
from repro.netlist import GateType
from repro.sim import check_equivalence

from reference.netlist import mux_sites, validate_netlist


def test_structure_shared(dmux_locked):
    netlist = dmux_locked.netlist
    validate_netlist(netlist)
    assert len(netlist.key_inputs) == 8
    # Shared strategy: 2 MUXes per key bit.
    muxes = [g for g in netlist.gates.values() if g.gtype is GateType.MUX]
    assert len(muxes) == 16
    for mux in muxes:
        assert mux.fanins[0] in netlist.key_inputs, "select pin must be a key"


def test_correct_key_preserves_function(dmux_locked):
    res = check_equivalence(
        dmux_locked.original,
        dmux_locked.netlist,
        key_right=dict(dmux_locked.key),
        seed_or_rng=4,
    )
    assert res.equal


def test_two_key_strategy(rand100):
    locked = DMuxLocking("two_key").lock(rand100, 8, seed_or_rng=5)
    validate_netlist(locked.netlist)
    muxes = [g for g in locked.netlist.gates.values() if g.gtype is GateType.MUX]
    assert len(muxes) == 8, "two_key: one MUX per key bit"
    res = check_equivalence(
        rand100, locked.netlist, key_right=dict(locked.key), seed_or_rng=4
    )
    assert res.equal
    # Records carry distinct key names per MUX.
    for rec in locked.insertions:
        assert rec.key_name_i != rec.key_name_j


_TWO_KEY_BENCH = """
from repro.circuits import load_circuit
from repro.locking import DMuxLocking
from repro.netlist.bench import write_bench
locked = DMuxLocking("two_key").lock(load_circuit("rand_150_5"), 8, seed_or_rng=1)
print(write_bench(locked.netlist), end="")
"""


def test_two_key_lock_is_independent_of_hash_seed():
    """Key inputs are created in key order, not in set-iteration order:
    the written ``.bench`` is the same in every interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    texts = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _TWO_KEY_BENCH],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        texts.append(proc.stdout)
    assert texts[0] and texts[0] == texts[1] == texts[2]


def test_two_key_needs_even_length(rand100):
    with pytest.raises(LockingError, match="even"):
        DMuxLocking("two_key").lock(rand100, 7, seed_or_rng=1)


def test_unknown_strategy():
    with pytest.raises(LockingError):
        DMuxLocking("bogus")


def test_insertion_metadata_consistency(dmux_locked):
    netlist = dmux_locked.netlist
    for rec in dmux_locked.insertions:
        for site in mux_sites(rec):
            mux = netlist.gates[site.mux]
            assert mux.gtype is GateType.MUX
            sel, d0, d1 = mux.fanins
            assert sel == site.key_name
            # The correct key bit must select the true source.
            selected = d0 if site.key_bit == 0 else d1
            assert selected == site.true_src
            other = d1 if site.key_bit == 0 else d0
            assert other == site.false_src
            # The MUX drives the recorded consumer.
            assert site.mux in netlist.gates[site.consumer].fanins


def test_wires_used_once(dmux_locked):
    seen = set()
    for rec in dmux_locked.insertions:
        for wire in ((rec.f_i, rec.g_i), (rec.f_j, rec.g_j)):
            assert wire not in seen, f"wire {wire} locked twice"
            seen.add(wire)


def test_gene_validation_rules(c17):
    with pytest.raises(LockingError):
        MuxGene("a", "b", "c", "d", 2)  # bad key bit
    # Same drivers rejected.
    assert not gene_applicable(c17, MuxGene("G11", "G16", "G11", "G19", 0))
    # Same consumers rejected.
    assert not gene_applicable(c17, MuxGene("G10", "G22", "G16", "G22", 0))
    # Nonexistent wire rejected.
    assert not gene_applicable(c17, MuxGene("G1", "G23", "G11", "G19", 0))


def test_cycle_risk_rejected(c17):
    # G16 -> G23 wire and G10 -> G22: fine. But pairing a wire with a
    # consumer that reaches the other driver must be rejected:
    # G11 drives G16; G16 reaches G23. Pair (G3->G10... ) construct:
    # wire1 = (G16, G23), wire2 = (G3, G11): g_i=G23 does not reach f_j=G3,
    # g_j=G11 reaches f_i=G16? G11 -> G16 yes => cycle risk => reject.
    gene = MuxGene("G16", "G23", "G3", "G11", 0)
    assert not gene_applicable(c17, gene)
    with pytest.raises(LockingError, match="cycle"):
        apply_gene(c17.copy(), gene, "k0")


def test_apply_gene_key_bit_one(c17):
    work = c17.copy()
    gene = MuxGene("G10", "G22", "G19", "G23", 1)
    assert gene_applicable(work, gene)
    rec = apply_gene(work, gene, "k0")
    validate_netlist(work)
    # k=1: d1 must be the true source on both MUXes.
    mux_i = work.gates[rec.mux_i]
    assert mux_i.fanins == ("k0", "G19", "G10")
    res = check_equivalence(c17, work, key_right={"k0": 1}, seed_or_rng=0)
    assert res.equal
    res_wrong = check_equivalence(c17, work, key_right={"k0": 0}, seed_or_rng=0)
    assert not res_wrong.equal


def test_lockable_wires_excludes_key_machinery(dmux_locked):
    wires = lockable_wires(dmux_locked.netlist)
    mux_names = {
        g.name
        for g in dmux_locked.netlist.gates.values()
        if g.gtype is GateType.MUX
    }
    for src, dst in wires:
        assert src not in mux_names
        assert dst not in mux_names
        assert src not in dmux_locked.netlist.key_inputs


def test_sample_gene_respects_used_pins(rand100):
    used = set()
    rng_seed = 3
    gene = sample_gene(rand100, rng_seed, used_pins=used)
    assert gene is not None
    used.update(gene.wires)
    for _ in range(10):
        nxt = sample_gene(rand100, rng_seed, used_pins=used)
        assert nxt is not None
        assert not (set(nxt.wires) & used)
        used.update(nxt.wires)


def test_exhausted_sites_return_none(tiny):
    # tiny has very few wires; exhaust them.
    used = set(lockable_wires(tiny))
    assert sample_gene(tiny, 0, used_pins=used) is None


def test_determinism(rand100):
    a = DMuxLocking("shared").lock(rand100, 8, seed_or_rng=7)
    b = DMuxLocking("shared").lock(rand100, 8, seed_or_rng=7)
    assert a.netlist.structurally_equal(b.netlist)
    assert a.key == b.key


def test_original_untouched(rand100):
    before = rand100.copy()
    DMuxLocking("shared").lock(rand100, 8, seed_or_rng=1)
    assert rand100.structurally_equal(before)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=40, max_value=100),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10),
)
def test_equivalence_property(n_gates, seed, key_len):
    """Locked-with-correct-key ≡ original for arbitrary D-MUX lockings."""
    circuit = load_circuit(f"rand_{n_gates}_{seed}")
    try:
        locked = DMuxLocking("shared").lock(circuit, key_len, seed_or_rng=seed)
    except LockingError:
        return  # tiny circuits can legitimately run out of sites
    validate_netlist(locked.netlist)
    res = check_equivalence(
        circuit, locked.netlist, key_right=dict(locked.key),
        n_random=512, seed_or_rng=seed,
    )
    assert res.equal
