"""The locking-site index against its scan and BFS references.

:class:`~repro.netlist.sites.SiteIndex` keeps the lockable-wire pool and
a bitset reachability closure per netlist, and copy-on-write work copies
update both gene by gene. Every answer must equal the rescan / BFS
oracles in ``tests/reference/genotype.py``, and every genotype function
and neighbourhood move must draw the same genes from the same RNG
stream as its reference.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import load_circuit
from repro.ec.genotype import (
    genotype_is_valid,
    genotype_key,
    random_genotype,
    repair_genotype,
)
from repro.errors import EvolutionError
from repro.locking import DeltaRelocker
from repro.locking.dmux import lockable_wires
from repro.locking.primitives import get_primitive
from repro.netlist import GateType
from repro.netlist.cow import CowNetlist
from tests.reference import genotype as ref
from tests.reference import locking as ref_locking
from tests.strategies import alphabets, circuits


def _assert_index_matches(work, gene, rng) -> None:
    """Pool equals the rescan; whole closure rows equal BFS for the gene's
    drivers, the newest (inserted) signals and random signals."""
    assert lockable_wires(work) == ref.lockable_wires(work)
    signals = list(work.signals())
    sources = [f for f, _ in gene.wires] + signals[-6:] + [
        signals[int(i)] for i in rng.integers(0, len(signals), size=12)
    ]
    for src in sources:
        row = {dst for dst in signals if work.has_path(src, dst)}
        assert row == ref.reachable(work, src), src


@settings(max_examples=40, deadline=None)
@given(name=circuits, alphabet=alphabets, seed=st.integers(0, 2**16))
def test_work_copy_index_matches_rescan_after_every_gene(name, alphabet, seed):
    base = load_circuit(name)
    rng = np.random.default_rng(seed)
    probe_rng = np.random.default_rng(seed + 1)
    work = CowNetlist.from_base(base)
    used: set = set()
    for idx in range(10):
        kind = alphabet[idx % len(alphabet)]
        primitive = get_primitive(kind)
        state = rng.bit_generator.state
        gene = primitive.sample(work, rng, used_pins=used)
        twin = np.random.default_rng()
        twin.bit_generator.state = state
        assert gene == ref.sample(kind, work, twin, used)
        if gene is None:
            break
        # The neighbourhood move on the work copy draws like the reference.
        moved = primitive.neighbor(work, gene, used, np.random.default_rng(idx))
        assert moved == ref.neighbor(work, gene, used, np.random.default_rng(idx))
        index = work.site_index()
        parts = (index.pool(work), index.closure(work))
        primitive.apply_gene(work, gene, f"k{idx}")
        used.update(gene.wires)
        # Locking mutations are followed incrementally, never rebuilt.
        assert work.site_index() is index
        assert (index.pool(work), index.closure(work)) == parts
        _assert_index_matches(work, gene, probe_rng)
    work.topological_order()


@settings(max_examples=40, deadline=None)
@given(
    name=circuits,
    alphabet=alphabets,
    key_length=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_genotype_functions_match_reference(name, alphabet, key_length, seed):
    base = load_circuit(name)
    try:
        expected = ref.random_genotype(base, key_length, seed, alphabet)
    except EvolutionError:
        with pytest.raises(EvolutionError):
            random_genotype(base, key_length, seed, alphabet)
        return
    genes = random_genotype(base, key_length, seed, alphabet)
    assert genotype_key(genes) == genotype_key(expected)
    assert genotype_is_valid(base, genes) and ref.genotype_is_valid(base, genes)

    # A spliced, partly duplicated genotype: conflicts and stale genes.
    other = ref.random_genotype(base, key_length, seed + 1, alphabet)
    broken = genes[: key_length // 2] + other[key_length // 2 :] + genes[:1]
    assert genotype_is_valid(base, broken) == ref.genotype_is_valid(base, broken)
    try:
        expected = ref.repair_genotype(base, broken, seed + 2)
    except EvolutionError:
        with pytest.raises(EvolutionError):
            repair_genotype(base, broken, seed + 2)
        return
    repaired = repair_genotype(base, broken, seed + 2)
    assert genotype_key(repaired) == genotype_key(expected)


@settings(max_examples=30, deadline=None)
@given(name=circuits, alphabet=alphabets, seed=st.integers(0, 2**16))
def test_neighbor_on_original_matches_reference(name, alphabet, seed):
    base = load_circuit(name)
    genes = ref.random_genotype(base, 4, seed, alphabet)
    used = {w for g in genes for w in g.wires}
    for idx, gene in enumerate(genes):
        primitive = get_primitive(gene.kind)
        got = primitive.neighbor(base, gene, used, np.random.default_rng(idx))
        want = ref.neighbor(base, gene, used, np.random.default_rng(idx))
        assert got == want


def test_index_is_rebuilt_after_base_mutation_and_never_pickled():
    base = load_circuit("rand_150_5")
    size = len(pickle.dumps(base))
    first = random_genotype(base, 6, seed_or_rng=1)
    relocker = DeltaRelocker(base)
    relocker.lock(first)
    index = base._site_index
    assert index is not None, "sampling builds the base's index"
    assert len(pickle.dumps(base)) <= size, "derived caches must not ship"

    driver, consumer = lockable_wires(base)[0]
    base.add_gate("stale_probe", GateType.AND, [driver, base.inputs[0]])
    assert base._site_index is None
    base.rewire_pin(consumer, base.gates[consumer].fanins.index(driver), "stale_probe")
    assert lockable_wires(base) == ref.lockable_wires(base)
    assert base.site_index() is not index

    again = random_genotype(base, 6, seed_or_rng=2)
    assert genotype_key(again) == genotype_key(
        ref.random_genotype(base, 6, seed_or_rng=2)
    )
    # The relocker reads the rebuilt caches: no stale fanout map.
    delta, want = relocker.lock(again), ref_locking.apply_genes(base, again)
    assert delta.netlist.structurally_equal(want.netlist)
    assert delta.netlist.fanouts() == want.netlist.fanouts()


def test_work_copy_pickles_with_its_fanouts():
    base = load_circuit("rand_80_2")
    view = CowNetlist.from_base(base)
    gene = get_primitive("mux").sample(view, np.random.default_rng(0))
    get_primitive("mux").apply_gene(view, gene, "k0")
    clone = pickle.loads(pickle.dumps(view))
    assert clone.structurally_equal(view)
    assert clone.fanouts() == view.fanouts()
    assert lockable_wires(clone) == lockable_wires(view)


def test_has_path_rejects_unknown_signals_and_cycles(tiny):
    from repro.errors import NetlistError

    with pytest.raises(NetlistError, match="unknown signal"):
        tiny.has_path("a", "ghost")
    tiny.rewire_pin("g_and", 0, "g_not")  # closes a loop
    with pytest.raises(NetlistError, match="cycle"):
        tiny.has_path("a", "g_or")
