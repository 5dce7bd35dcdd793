"""Deep-copy locking builders.

The runtime builds every genotype phenotype and every D-MUX lock on a
copy-on-write work copy (:class:`~repro.netlist.cow.CowNetlist`) whose
fanout map and site index follow each insertion, with one acyclicity
sort per built circuit. These are the straightforward versions: a plain
``original.copy()`` that every insertion invalidates, re-sorted by the
primitives' per-insertion ``check_acyclic`` guard.

* :func:`apply_genes` — oracle for
  :func:`~repro.locking.genome_lock.apply_genes`, and so for
  ``lock_with_genes`` and ``DeltaRelocker.lock``.
* :func:`dmux_lock` — oracle for
  :meth:`DMuxLocking.lock <repro.locking.dmux.DMuxLocking.lock>`.
"""

from __future__ import annotations

from typing import Any

from repro.errors import LockingError
from repro.locking.base import LockedCircuit
from repro.locking.dmux import MuxPairInsertion, apply_gene, sample_gene
from repro.locking.genome_lock import genotype_scheme_name
from repro.locking.key import Key
from repro.locking.primitives import primitive_for_gene
from repro.utils.rng import derive_rng


def apply_genes(original, genes, key_prefix: str = "keyinput") -> LockedCircuit:
    """Apply ``genes`` in order to a plain deep copy of ``original``."""
    if not genes:
        raise LockingError("genotype must contain at least one gene")
    seen_wires: set[tuple[str, str]] = set()
    for idx, gene in enumerate(genes):
        for wire in gene.wires:
            if wire in seen_wires:
                raise LockingError(
                    f"gene {idx} reuses wire {wire[0]}->{wire[1]}; "
                    "genotype needs repair"
                )
            seen_wires.add(wire)

    locked = original.copy(f"{original.name}_auto{len(genes)}")
    insertions: list[Any] = []
    for idx, gene in enumerate(genes):
        try:
            insertions.append(
                primitive_for_gene(gene).apply_gene(
                    locked, gene, f"{key_prefix}{idx}"
                )
            )
        except LockingError as exc:
            raise LockingError(f"gene {idx} inapplicable: {exc}") from exc

    key = Key(
        tuple(f"{key_prefix}{i}" for i in range(len(genes))),
        tuple(g.k for g in genes),
    )
    return LockedCircuit(
        netlist=locked,
        key=key,
        scheme=genotype_scheme_name(genes),
        original=original,
        insertions=insertions,
    )


def dmux_lock(scheme, netlist, key_length: int, seed_or_rng=None) -> LockedCircuit:
    """``scheme.lock(netlist, key_length, seed_or_rng)`` on a plain copy.

    ``scheme`` is a :class:`~repro.locking.dmux.DMuxLocking`; its
    strategy and key prefix pick the wiring.
    """
    scheme._require_positive_key(key_length)
    if scheme.strategy == "two_key" and key_length % 2:
        raise LockingError("two_key strategy needs an even key length")
    rng = derive_rng(seed_or_rng)
    locked = netlist.copy(f"{netlist.name}_{scheme.name}{key_length}")
    key_names = scheme._fresh_key_names(locked, key_length, scheme._key_prefix)

    insertions: list[MuxPairInsertion] = []
    used: set[tuple[str, str]] = set()
    bits: list[int] = []
    n_pairs = key_length if scheme.strategy == "shared" else key_length // 2
    for p in range(n_pairs):
        gene = sample_gene(locked, rng, used_pins=used)
        if gene is None:
            raise LockingError(
                f"{netlist.name}: ran out of lockable wire pairs after "
                f"{p} of {n_pairs} insertions"
            )
        if scheme.strategy == "shared":
            rec = apply_gene(locked, gene, key_names[p])
            bits.append(gene.k)
        else:
            bit_j = int(rng.integers(0, 2))
            rec = apply_gene(
                locked,
                gene,
                key_names[2 * p],
                key_names[2 * p + 1],
                key_bit_j=bit_j,
            )
            bits.extend([gene.k, bit_j])
        insertions.append(rec)
        used.update(gene.wires)

    return LockedCircuit(
        netlist=locked,
        key=Key(tuple(key_names), tuple(bits)),
        scheme=f"{scheme.name}-{scheme.strategy}",
        original=netlist,
        insertions=insertions,
    )
