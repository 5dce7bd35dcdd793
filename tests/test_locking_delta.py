"""One locking builder against its deep-copy oracle.

``lock_with_genes``, ``DeltaRelocker.lock`` and ``DMuxLocking.lock`` all
build on a copy-on-write work copy of the original. Each must be
indistinguishable from its plain-copy reference in
``tests/reference/locking.py``: structure, name, key, scheme,
insertions, fanouts, topological order and error messages.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import load_circuit
from repro.ec.genotype import random_genotype
from repro.errors import EvolutionError, LockingError
from repro.locking import DeltaRelocker, DMuxLocking, MuxGene, lock_with_genes
from repro.locking.genome_lock import genes_from_locked
from repro.locking.primitives import get_primitive
from repro.netlist import Netlist
from repro.netlist.cow import CowNetlist
from repro.registry import PRIMITIVES
from tests.reference import locking as ref
from tests.reference.netlist import validate_netlist
from tests.strategies import alphabets, circuits


def _assert_same_lock(got, want):
    assert got.netlist.structurally_equal(want.netlist)
    assert got.netlist.name == want.netlist.name
    assert got.key.names == want.key.names
    assert got.key.bits == want.key.bits
    assert got.scheme == want.scheme
    assert got.insertions == want.insertions
    assert got.netlist.topological_order() == want.netlist.topological_order()
    assert got.netlist.fanouts() == want.netlist.fanouts()


def _error(build, *args):
    with pytest.raises(LockingError) as info:
        build(*args)
    return str(info.value)


def _ghost(kind):
    names = ("ghost_a", "ghost_b", "ghost_c", "ghost_d")
    if kind == "mux":
        return MuxGene(*names, 0)
    return get_primitive(kind).gene_cls(*names[:2], 0)


def test_delta_matches_scratch_dmux_genes(rand100):
    """Genes decoded from a D-MUX lock rebuild like the deep-copy
    ("scratch") reference."""
    locked = DMuxLocking("shared").lock(rand100, 8, seed_or_rng=13)
    genes = genes_from_locked(locked)
    want = ref.apply_genes(rand100, genes)
    delta = DeltaRelocker(rand100).lock(genes)
    validate_netlist(delta.netlist)
    _assert_same_lock(delta, want)
    _assert_same_lock(lock_with_genes(rand100, genes), want)


@pytest.mark.parametrize("kind", sorted(PRIMITIVES.available()))
def test_delta_matches_scratch_every_primitive(rand100, kind):
    rng = np.random.default_rng(17)
    prim = PRIMITIVES.create(kind)
    genes = [prim.sample(rand100, rng) for _ in range(6)]
    want = ref.apply_genes(rand100, genes)
    _assert_same_lock(DeltaRelocker(rand100).lock(genes), want)
    _assert_same_lock(lock_with_genes(rand100, genes), want)


@pytest.mark.parametrize("seed", [0, 5, 21])
def test_delta_matches_scratch_mixed_alphabet(seed):
    base = load_circuit("rand_150_5")
    rng = np.random.default_rng(seed)
    genotype = random_genotype(
        base, 12, rng, alphabet=tuple(sorted(PRIMITIVES.available()))
    )
    want = ref.apply_genes(base, genotype)
    _assert_same_lock(DeltaRelocker(base).lock(genotype), want)
    _assert_same_lock(lock_with_genes(base, genotype), want)


@settings(max_examples=40, deadline=None)
@given(
    name=circuits,
    alphabet=alphabets,
    key_length=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_genotype_builders_match_deep_copy_reference(
    name, alphabet, key_length, seed
):
    base = load_circuit(name)
    try:
        genes = random_genotype(base, key_length, seed, alphabet)
    except EvolutionError:
        return  # tiny circuits can run out of sites
    want = ref.apply_genes(base, genes)
    built = lock_with_genes(base, genes)
    assert type(built.netlist) is Netlist
    _assert_same_lock(built, want)
    relocker = DeltaRelocker(base)
    _assert_same_lock(relocker.lock(genes), want)

    ghost = genes[:-1] + [_ghost(genes[-1].kind)]
    for bad in ([], genes + genes[:1], ghost):
        message = _error(ref.apply_genes, base, bad)
        assert _error(lock_with_genes, base, bad) == message
        assert _error(relocker.lock, bad) == message


@settings(max_examples=40, deadline=None)
@given(
    name=circuits,
    strategy=st.sampled_from(["shared", "two_key"]),
    key_length=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
def test_dmux_lock_matches_deep_copy_reference(name, strategy, key_length, seed):
    base = load_circuit(name)
    scheme = DMuxLocking(strategy)
    try:
        want = ref.dmux_lock(scheme, base, key_length, seed)
    except LockingError as exc:
        assert _error(scheme.lock, base, key_length, seed) == str(exc)
        return
    got = scheme.lock(base, key_length, seed_or_rng=seed)
    assert type(got.netlist) is Netlist
    _assert_same_lock(got, want)


def test_relocker_is_reusable_and_base_untouched(rand100):
    before_gates = dict(rand100.gates)
    before_fanouts = {k: list(v) for k, v in rand100.fanouts().items()}
    relocker = DeltaRelocker(rand100)
    rng = np.random.default_rng(3)
    for _ in range(4):
        relocker.lock(random_genotype(rand100, 4, rng))
    assert dict(rand100.gates) == before_gates
    assert {k: list(v) for k, v in rand100.fanouts().items()} == before_fanouts


def test_delta_error_messages_match_scratch(rand100):
    """Invalid genotypes fail with the deep-copy reference's messages."""
    relocker = DeltaRelocker(rand100)
    locked = DMuxLocking("shared").lock(rand100, 4, seed_or_rng=5)
    genes = genes_from_locked(locked)
    ghost = MuxGene("ghost_a", "ghost_b", "ghost_c", "ghost_d", 0)
    for bad, match in (
        ([], "at least one gene"),
        (genes + [genes[0]], "reuses wire"),
        ([ghost], "gene 0 inapplicable"),
    ):
        message = _error(relocker.lock, bad)
        assert match in message
        assert message == _error(ref.apply_genes, rand100, bad)


def test_cow_view_mutations_do_not_leak_to_base(rand100):
    from repro.netlist import GateType

    view = CowNetlist.from_base(rand100)
    sig = rand100.outputs[0]
    consumers_before = list(rand100.fanouts().get(sig, []))
    view.add_gate("cow_extra", GateType.BUF, [sig])
    assert rand100.fanouts().get(sig, []) == consumers_before
    assert "cow_extra" not in rand100.gates
    assert ("cow_extra", 0) in view.fanouts()[sig]
