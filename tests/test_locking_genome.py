"""Genotype → phenotype mapping (lock_with_genes) and its inverse."""

import pytest

from repro.errors import LockingError
from repro.locking import DMuxLocking, MuxGene, lock_with_genes
from repro.locking.genome_lock import genes_from_locked
from repro.sim import check_equivalence

from reference.netlist import validate_netlist


def test_roundtrip_through_genotype(rand100):
    locked = DMuxLocking("shared").lock(rand100, 8, seed_or_rng=13)
    genes = genes_from_locked(locked)
    assert len(genes) == 8
    rebuilt = lock_with_genes(rand100, genes)
    validate_netlist(rebuilt.netlist)
    assert rebuilt.key.bits == locked.key.bits
    res = check_equivalence(
        locked.netlist,
        rebuilt.netlist,
        key_left=dict(locked.key),
        key_right=dict(rebuilt.key),
        seed_or_rng=2,
    )
    assert res.equal


def test_key_bits_equal_gene_bits(rand100):
    locked = DMuxLocking("shared").lock(rand100, 6, seed_or_rng=3)
    genes = genes_from_locked(locked)
    rebuilt = lock_with_genes(rand100, genes)
    assert rebuilt.key.bits == tuple(g.k for g in genes)
    assert rebuilt.scheme == "dmux-genotype"


def test_functional_equivalence_with_correct_key(rand100):
    locked = DMuxLocking("shared").lock(rand100, 8, seed_or_rng=4)
    genes = genes_from_locked(locked)
    rebuilt = lock_with_genes(rand100, genes)
    res = check_equivalence(
        rand100, rebuilt.netlist, key_right=dict(rebuilt.key), seed_or_rng=1
    )
    assert res.equal


def test_empty_genotype_rejected(rand100):
    with pytest.raises(LockingError, match="at least one gene"):
        lock_with_genes(rand100, [])


def test_wire_reuse_rejected(rand100):
    locked = DMuxLocking("shared").lock(rand100, 4, seed_or_rng=5)
    genes = genes_from_locked(locked)
    with pytest.raises(LockingError, match="reuses wire"):
        lock_with_genes(rand100, genes + [genes[0]])


def test_inapplicable_gene_rejected(rand100):
    gene = MuxGene("ghost_a", "ghost_b", "ghost_c", "ghost_d", 0)
    with pytest.raises(LockingError, match="gene 0 inapplicable"):
        lock_with_genes(rand100, [gene])


def test_genes_from_locked_rejects_multi_consumer_net_cuts(rll_locked):
    """RLL cuts whole nets; a multi-consumer cut has no wire-level gene.
    The error names the failing insertion index and the scheme."""
    with pytest.raises(LockingError, match=r"insertion \d+ of scheme 'rll'"):
        genes_from_locked(rll_locked)


def test_genes_from_locked_rejects_two_key(rand100):
    locked = DMuxLocking("two_key").lock(rand100, 4, seed_or_rng=5)
    with pytest.raises(
        LockingError,
        match=r"insertion 0 of scheme 'dmux-two_key'.*two_key",
    ):
        genes_from_locked(locked)
