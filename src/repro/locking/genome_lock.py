"""Genotype → phenotype mapping: build a locked netlist from primitive genes.

This is the encoding step of the AutoLock workflow (Fig. 1 of the paper):
the GA manipulates heterogeneous lists of primitive genes (see
:mod:`repro.locking.primitives`), and this module turns such a list back
into a concrete locked circuit whose key bit ``i`` is gene ``i``'s ``k``
field. The inverse, :func:`genes_from_locked`, decodes a locked
circuit's insertion records back into genes through the same primitive
registry, so any scheme whose records a registered primitive understands
can seed the evolutionary search.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import LockingError
from repro.locking.base import LockedCircuit
from repro.locking.key import Key
from repro.locking.primitives import (
    Gene,
    primitive_for_gene,
    primitive_for_insertion,
)
from repro.netlist.netlist import Netlist


def genotype_scheme_name(genes: Sequence[Gene]) -> str:
    """Scheme label of a genotype-built circuit.

    Pure-MUX genotypes keep the historical ``"dmux-genotype"`` label;
    mixed genotypes name their primitive kinds in order of first
    appearance (``"genotype-mux+xor"``).
    """
    kinds = list(dict.fromkeys(g.kind for g in genes))
    if kinds == ["mux"]:
        return "dmux-genotype"
    return "genotype-" + "+".join(kinds)


def lock_with_genes(
    original: Netlist,
    genes: Sequence[Gene],
    key_prefix: str = "keyinput",
) -> LockedCircuit:
    """Apply ``genes`` in order to a copy of ``original``.

    Gene ``i`` is wired to key input ``{key_prefix}{i}`` (one key bit per
    gene — the paper's encoding, whatever the gene's primitive kind).
    Raises :class:`~repro.errors.LockingError` if any gene is
    inapplicable; the evolutionary operators are expected to repair
    genotypes *before* building phenotypes.
    """
    return apply_genes(original, genes, original.copy, key_prefix)


def apply_genes(
    original: Netlist,
    genes: Sequence[Gene],
    start: Callable[[str], Netlist],
    key_prefix: str = "keyinput",
) -> LockedCircuit:
    """The one gene-application body behind every genotype → phenotype map.

    ``start(name)`` returns the netlist the genes mutate: a deep copy of
    ``original`` (:func:`lock_with_genes`) or a copy-on-write view of it
    (:class:`~repro.locking.delta.DeltaRelocker`). Validation, naming,
    insertion order, key and scheme label are shared, so both builders
    produce the same circuit and the same errors.
    """
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

    locked = start(f"{original.name}_auto{len(genes)}")
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


def genes_from_locked(locked: LockedCircuit) -> list[Gene]:
    """Recover the genotype of a locked circuit (encoding step).

    Each insertion record is decoded by the registered primitive that
    understands it; any record no primitive can decode — or that carries
    no single-key-bit gene (e.g. a ``two_key`` D-MUX pair, a multi-
    consumer RLL net cut) — raises a :class:`LockingError` naming the
    insertion index and the circuit's scheme.
    """
    genes: list[Gene] = []
    for idx, rec in enumerate(locked.insertions):
        primitive = primitive_for_insertion(rec)
        if primitive is None:
            raise LockingError(
                f"insertion {idx} of scheme {locked.scheme!r}: no registered "
                f"primitive decodes {type(rec).__name__} records"
            )
        try:
            genes.append(primitive.decode(rec))
        except LockingError as exc:
            raise LockingError(
                f"insertion {idx} of scheme {locked.scheme!r}: {exc}"
            ) from exc
    return genes
