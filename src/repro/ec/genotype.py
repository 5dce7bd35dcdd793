"""Genotype handling: sampling, validation, repair over an alphabet.

A genotype is a heterogeneous list of primitive genes (see
:mod:`repro.locking.primitives`); gene ``i`` carries key bit ``i``. The
historical single-scheme genotype — a list of
:class:`~repro.locking.dmux.MuxGene` — is the special case of the
default alphabet ``("mux",)``, and every function here consumes exactly
the same RNG stream for it as the pre-alphabet implementation (the
golden-trajectory tests pin this).

Evolutionary operators can produce genotypes whose genes conflict (reuse
a wire another gene consumed) or became inapplicable;
:func:`repair_genotype` restores validity deterministically by
re-sampling offending genes *within their own kind*, which keeps
selection pressure on the valid design space instead of wasting fitness
evaluations on penalty scores (an invalid individual would cost an
attack run and hand the search a flat, uninformative value) and
preserves the genotype's primitive mix.

All three walk the genes against a
:class:`~repro.netlist.cow.CowNetlist` work copy of the original: the
copy keeps its fanouts and its site index (lockable-wire pool and
reachability bitsets, :mod:`repro.netlist.sites`) exact gene by gene, so
no gene rescans the netlist or walks the graph, and the genotype gets
one full acyclicity check at the end instead of one per gene.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import EvolutionError
from repro.locking.primitives import (
    DEFAULT_ALPHABET,
    Gene,
    get_primitive,
    primitive_for_gene,
    resolve_alphabet,
)
from repro.netlist.cow import CowNetlist
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng


def genotype_key(genes: Sequence[Gene]) -> tuple:
    """Canonical hashable key of a genotype (for fitness caching); every
    gene's tuple starts with its kind."""
    return tuple(g.key_tuple() for g in genes)


def _sample_kind(alphabet: tuple[str, ...], rng) -> str:
    """Pick a gene kind; draws RNG only when there is a real choice."""
    if len(alphabet) == 1:
        return alphabet[0]
    return alphabet[int(rng.integers(0, len(alphabet)))]


def _sample_any(work: Netlist, alphabet, kind, rng, used):
    """Sample a gene of ``kind``, falling back across the alphabet.

    The fallback order is deterministic (alphabet order) so exhausted
    kinds never make the trajectory depend on dict/set iteration.
    """
    gene = get_primitive(kind).sample(work, rng, used_pins=used)
    if gene is not None:
        return gene
    for other in alphabet:
        if other == kind:
            continue
        gene = get_primitive(other).sample(work, rng, used_pins=used)
        if gene is not None:
            return gene
    return None


def random_genotype(
    original: Netlist,
    key_length: int,
    seed_or_rng=None,
    alphabet: Sequence[str] | None = None,
) -> list[Gene]:
    """Sample a random valid genotype of ``key_length`` genes.

    Mirrors the paper's initialisation: lock the original netlist with a
    random key of the requested size (Fig. 1, step z initialisation).
    With a multi-kind ``alphabet`` each gene first draws its primitive
    kind uniformly, then a site from that primitive; the single-kind
    default draws no kind variate, reproducing the historical stream.
    """
    if key_length < 1:
        raise EvolutionError(f"key_length must be >= 1, got {key_length}")
    names = resolve_alphabet(alphabet)
    rng = derive_rng(seed_or_rng)
    work = CowNetlist.from_base(original)
    genes: list[Gene] = []
    used: set[tuple[str, str]] = set()
    for idx in range(key_length):
        kind = _sample_kind(names, rng)
        gene = _sample_any(work, names, kind, rng, used)
        if gene is None:
            raise EvolutionError(
                f"{original.name}: no applicable locking site for gene {idx} "
                f"(key too long for this netlist?)"
            )
        primitive_for_gene(gene).apply_gene(work, gene, f"__tmp_k{idx}")
        used.update(gene.wires)
        genes.append(gene)
    work.topological_order()
    return genes


def repair_genotype(
    original: Netlist,
    genes: Sequence[Gene],
    seed_or_rng=None,
) -> list[Gene]:
    """Return a valid genotype, re-sampling conflicting or stale genes.

    Genes are processed in order against a working copy of the netlist;
    a gene that no longer applies (wire consumed by an earlier gene, cycle
    risk introduced by context changes) is replaced by a freshly sampled
    gene *of the same primitive kind* — repair preserves the genotype's
    alphabet mix. When that kind has no free sites left, repair falls
    back across the genotype's other kinds (in order of first
    appearance) before giving up, mirroring initialisation — a saturated
    circuit degrades the mix rather than aborting a paid-for search.
    The result always has ``len(genes)`` genes.
    """
    rng = derive_rng(seed_or_rng)
    kind_order = tuple(dict.fromkeys(g.kind for g in genes))
    work = CowNetlist.from_base(original)
    used: set[tuple[str, str]] = set()
    repaired: list[Gene] = []
    for idx, gene in enumerate(genes):
        primitive = primitive_for_gene(gene)
        conflict = any(w in used for w in gene.wires)
        if conflict or not primitive.applicable(work, gene):
            gene = _sample_any(work, kind_order, primitive.kind, rng, used)
            if gene is None:
                raise EvolutionError(
                    f"{original.name}: repair failed at gene {idx}: no "
                    f"applicable locking site left for any of {kind_order}"
                )
        primitive_for_gene(gene).apply_gene(work, gene, f"__tmp_k{idx}")
        used.update(gene.wires)
        repaired.append(gene)
    work.topological_order()
    return repaired


def genotype_is_valid(original: Netlist, genes: Sequence[Gene]) -> bool:
    """True if ``genes`` can be applied in order without repair."""
    work = CowNetlist.from_base(original)
    used: set[tuple[str, str]] = set()
    for idx, gene in enumerate(genes):
        if any(w in used for w in gene.wires):
            return False
        primitive = primitive_for_gene(gene)
        if not primitive.applicable(work, gene):
            return False
        primitive.apply_gene(work, gene, f"__tmp_k{idx}")
        used.update(gene.wires)
    work.topological_order()
    return True


def genotype_kinds(genes: Sequence[Gene]) -> tuple[str, ...]:
    """The primitive kinds of ``genes``, in gene order."""
    return tuple(g.kind for g in genes)


__all__ = [
    "DEFAULT_ALPHABET",
    "genotype_key",
    "genotype_kinds",
    "genotype_is_valid",
    "random_genotype",
    "repair_genotype",
]
