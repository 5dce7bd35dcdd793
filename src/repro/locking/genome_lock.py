"""Genotype → phenotype mapping: build a locked netlist from primitive genes.

This is the encoding step of the AutoLock workflow (Fig. 1 of the paper):
the GA manipulates heterogeneous lists of primitive genes (see
:mod:`repro.locking.primitives`), and this module turns such a list back
into a concrete locked circuit whose key bit ``i`` is gene ``i``'s ``k``
field. The inverse, :func:`genes_from_locked`, decodes a locked
circuit's insertion records back into genes through the same primitive
registry, so any scheme whose records a registered primitive understands
can seed the evolutionary search. :func:`genotype_record` and
:func:`genotype_from_record` are the JSON codec that experiment records
and co-evolution checkpoints store genotypes in.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Sequence

from repro.errors import LockingError, NetlistError
from repro.locking.base import LockedCircuit
from repro.locking.key import Key
from repro.locking.primitives import (
    Gene,
    get_primitive,
    primitive_for_gene,
    primitive_for_insertion,
)
from repro.netlist.cow import CowNetlist
from repro.netlist.netlist import Netlist
from repro.obs import metrics as obs_metrics

_RELOCK_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_relock_seconds",
    "Re-lock (genotype -> phenotype) wall time",
)


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
    genotypes *before* building phenotypes. The locked netlist is a
    plain :class:`~repro.netlist.netlist.Netlist` materialised from the
    work copy :func:`apply_genes` builds on.
    """
    locked = apply_genes(original, genes, key_prefix)
    return replace(locked, netlist=locked.netlist.copy())


def apply_genes(
    original: Netlist,
    genes: Sequence[Gene],
    key_prefix: str = "keyinput",
) -> LockedCircuit:
    """The one gene-application body behind every genotype → phenotype map.

    The genes mutate a :class:`~repro.netlist.cow.CowNetlist` work copy
    of ``original``, which reads the base's cached fanout map and site
    index and patches both per insertion. The returned circuit's netlist
    is that work copy.
    """
    started = time.perf_counter()
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

    locked = CowNetlist.from_base(original, f"{original.name}_auto{len(genes)}")
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
    # The per-gene ``check_acyclic`` guard is a no-op on the work copy;
    # validate the finished phenotype once instead.
    try:
        locked.topological_order()
    except NetlistError as exc:  # pragma: no cover - genes are pre-checked
        raise LockingError(f"genotype built a cyclic netlist: {exc}") from exc
    _RELOCK_SECONDS.observe(time.perf_counter() - started)
    return LockedCircuit(
        netlist=locked,
        key=Key(
            tuple(f"{key_prefix}{i}" for i in range(len(genes))),
            tuple(g.k for g in genes),
        ),
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


def genotype_record(genes: Sequence[Gene] | None) -> list[dict] | None:
    """JSON-safe genotype; inverse of :func:`genotype_from_record`.

    Each gene record names its primitive ``kind`` alongside the gene
    fields, so heterogeneous champions replay through the registry.
    """
    if genes is None:
        return None
    return [primitive_for_gene(g).gene_record(g) for g in genes]


def genotype_from_record(data: Sequence[dict] | None) -> list[Gene] | None:
    """Rebuild a genotype from its record form; every gene record must
    name its primitive ``kind``."""
    if data is None:
        return None
    genes: list[Gene] = []
    for record in data:
        record = dict(record)
        kind = record.pop("kind", None)
        if kind is None:
            raise LockingError(f"gene record {record!r} carries no 'kind'")
        genes.append(get_primitive(kind).gene_from_record(record))
    return genes
