"""Scan- and walk-based genotype references.

The runtime answers "which wires may still be locked?" and "does ``a``
reach ``b``?" from a :class:`~repro.netlist.sites.SiteIndex` kept
incrementally on a copy-on-write work copy. These are the
straightforward versions: one full gate scan per question, one BFS per
reachability probe, a plain ``original.copy()`` per genotype.

* :func:`lockable_wires` — oracle for the index's wire pool (order and
  multiplicity).
* :func:`reachable` / :func:`has_path` — oracles for the bitset closure
  behind :meth:`Netlist.has_path <repro.netlist.netlist.Netlist.has_path>`.
* :func:`sample`, :func:`neighbor` — each built-in primitive's site
  sampler and neighbourhood move, drawing the same RNG stream.
* :func:`random_genotype`, :func:`repair_genotype`,
  :func:`genotype_is_valid` — the genotype functions of
  :mod:`repro.ec.genotype`.

Gene application reuses the runtime's ``apply_gene`` on the plain copy:
the references decide *which* genes apply, which is what the index
answers.
"""

from __future__ import annotations

from collections import deque

from repro.errors import EvolutionError
from repro.locking.dmux import MuxGene
from repro.locking.primitives import get_primitive, resolve_alphabet
from repro.netlist.gates import GateType
from repro.utils.rng import derive_rng


def lockable_wires(netlist) -> list[tuple[str, str]]:
    """All wires ``(driver, consumer_gate)`` eligible for locking, by rescan."""
    wires: list[tuple[str, str]] = []
    key_set = set(netlist.key_inputs)

    def is_key_fed(gate) -> bool:
        return any(f in key_set for f in gate.fanins)

    for gate in netlist.gates.values():
        if gate.gtype is GateType.MUX:
            continue
        if key_set and is_key_fed(gate):
            continue
        for src in gate.fanins:
            if src in key_set:
                continue
            src_gate = netlist.gates.get(src)
            if src_gate is not None and (
                src_gate.gtype
                in (GateType.MUX, GateType.CONST0, GateType.CONST1)
                or (key_set and is_key_fed(src_gate))
            ):
                continue
            wires.append((src, gate.name))
    return wires


def reachable(netlist, src: str) -> set[str]:
    """Every signal ``src`` reaches, itself included, by BFS over fanouts."""
    fanouts: dict[str, list[str]] = {}
    for gate in netlist.gates.values():
        for fanin in gate.fanins:
            fanouts.setdefault(fanin, []).append(gate.name)
    seen = {src}
    frontier = deque([src])
    while frontier:
        for consumer in fanouts.get(frontier.popleft(), ()):
            if consumer not in seen:
                seen.add(consumer)
                frontier.append(consumer)
    return seen


def has_path(netlist, src: str, dst: str) -> bool:
    """True if ``src`` ⇝ ``dst`` (src == dst counts)."""
    return dst in reachable(netlist, src)


def _mux_applicable(netlist, gene: MuxGene) -> bool:
    if gene.f_i == gene.f_j or gene.g_i == gene.g_j:
        return False
    for f, g in gene.wires:
        consumer = netlist.gates.get(g)
        if consumer is None or f not in consumer.fanins:
            return False
        if consumer.gtype is GateType.MUX:
            return False
        if f in netlist.key_inputs:
            return False
        if f in netlist.gates and netlist.gates[f].gtype is GateType.MUX:
            return False
    return not (
        has_path(netlist, gene.g_i, gene.f_j)
        or has_path(netlist, gene.g_j, gene.f_i)
    )


def applicable(netlist, gene) -> bool:
    """Can ``gene`` be applied to ``netlist`` right now?"""
    if gene.kind == "mux":
        return _mux_applicable(netlist, gene)
    # The key-gate checks read no reachability and no wire pool.
    return get_primitive(gene.kind).applicable(netlist, gene)


def sample(kind: str, netlist, rng, used=None, max_tries: int = 400):
    """A random applicable gene of ``kind`` avoiding ``used``, or None."""
    used = used or set()
    wires = [w for w in lockable_wires(netlist) if w not in used]
    if kind == "mux":
        if len(wires) < 2:
            return None
        for _ in range(max_tries):
            ia, ib = rng.integers(0, len(wires), size=2)
            (f_i, g_i), (f_j, g_j) = wires[int(ia)], wires[int(ib)]
            gene = MuxGene(f_i, g_i, f_j, g_j, int(rng.integers(0, 2)))
            if _mux_applicable(netlist, gene):
                return gene
        return None
    if not wires:
        return None
    gene_cls = get_primitive(kind).gene_cls
    for _ in range(max_tries):
        f, g = wires[int(rng.integers(0, len(wires)))]
        gene = gene_cls(f, g, int(rng.integers(0, 2)))
        if applicable(netlist, gene):
            return gene
    return None


def neighbor(netlist, gene, used, rng, max_tries: int = 60):
    """The gene kind's local move (reroute the decoy / slide the key gate)."""
    if gene.kind == "mux":
        wires = [w for w in lockable_wires(netlist) if w not in used]
        if not wires:
            return None
        for _ in range(max_tries):
            f_j, g_j = wires[int(rng.integers(0, len(wires)))]
            candidate = MuxGene(
                gene.f_i, gene.g_i, f_j, g_j, int(rng.integers(0, 2))
            )
            if _mux_applicable(netlist, candidate):
                return candidate
        return None
    wires = [
        w
        for w in lockable_wires(netlist)
        if w not in used and w[0] == gene.f and w[1] != gene.g
    ]
    if not wires:
        return None
    for _ in range(min(max_tries, 2 * len(wires))):
        f, g = wires[int(rng.integers(0, len(wires)))]
        candidate = type(gene)(f, g, gene.k)
        if applicable(netlist, candidate):
            return candidate
    return None


def _sample_any(work, alphabet, kind, rng, used):
    gene = sample(kind, work, rng, used)
    if gene is not None:
        return gene
    for other in alphabet:
        if other != kind:
            gene = sample(other, work, rng, used)
            if gene is not None:
                return gene
    return None


def _apply(work, gene, idx: int) -> None:
    get_primitive(gene.kind).apply_gene(work, gene, f"__tmp_k{idx}")


def random_genotype(original, key_length, seed_or_rng=None, alphabet=None):
    if key_length < 1:
        raise EvolutionError(f"key_length must be >= 1, got {key_length}")
    names = resolve_alphabet(alphabet)
    rng = derive_rng(seed_or_rng)
    work = original.copy()
    genes, used = [], set()
    for idx in range(key_length):
        kind = names[0] if len(names) == 1 else names[
            int(rng.integers(0, len(names)))
        ]
        gene = _sample_any(work, names, kind, rng, used)
        if gene is None:
            raise EvolutionError(f"no applicable locking site for gene {idx}")
        _apply(work, gene, idx)
        used.update(gene.wires)
        genes.append(gene)
    return genes


def repair_genotype(original, genes, seed_or_rng=None):
    rng = derive_rng(seed_or_rng)
    kind_order = tuple(dict.fromkeys(g.kind for g in genes))
    work = original.copy()
    used, repaired = set(), []
    for idx, gene in enumerate(genes):
        if any(w in used for w in gene.wires) or not applicable(work, gene):
            gene = _sample_any(work, kind_order, gene.kind, rng, used)
            if gene is None:
                raise EvolutionError(f"repair failed at gene {idx}")
        _apply(work, gene, idx)
        used.update(gene.wires)
        repaired.append(gene)
    return repaired


def genotype_is_valid(original, genes) -> bool:
    work = original.copy()
    used: set = set()
    for idx, gene in enumerate(genes):
        if any(w in used for w in gene.wires) or not applicable(work, gene):
            return False
        _apply(work, gene, idx)
        used.update(gene.wires)
    return True
