"""Attacker's view of a key-locked netlist.

MuxLink (Alrahis et al., DATE 2022) casts key recovery as link prediction:
remove every key-controlled MUX from the netlist, leaving "open" pins, and
ask which of the MUX's two data inputs is the true driver of each consumer.
:func:`extract_observed` builds that *observed graph* — the locked netlist
minus key inputs and key-MUXes — in one walk over the netlist, together
with the MUX link queries and the non-MUX key-gate sites, using only
information genuinely available to an oracle-less attacker. The graph is
built once and never changes afterwards.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class MuxQuery:
    """One key-controlled MUX the attacker must resolve.

    Deciding that ``d0`` drives the consumers implies key bit 0 (MUX
    semantics select ``d0`` at 0), and vice versa.
    """

    mux: str
    key_name: str
    d0: str
    d1: str
    consumers: tuple[str, ...]


#: What an *observed* key-gate kind says about its key bit, per the
#: published insertion conventions (EPIC XOR/XNOR, AND/OR masking): a
#: correct-key-transparent gate of kind XOR was inserted for bit 0, XNOR
#: for bit 1, AND for bit 1, OR for bit 0. Naive (unsynthesised) RLL and
#: the xor/and_or locking primitives both leak the bit this way.
KEYGATE_KIND_BIT: dict[str, int] = {"XOR": 0, "XNOR": 1, "AND": 1, "OR": 0}


@dataclass(frozen=True)
class KeyGateQuery:
    """One non-MUX key gate (XOR/XNOR/AND/OR) visible to the attacker.

    ``key_name`` is the gate's first key fanin; ``kind`` is the observed
    gate type, which :data:`KEYGATE_KIND_BIT` maps to the key bit the
    insertion convention implies.
    """

    gate: str
    key_name: str
    kind: str


class ObservedGraph:
    """Undirected graph over observed signals with gate-type labels.

    Built once from its nodes ``(name, gtype, is_gate)``, its observed
    wires as ``(driver, consumer)`` index pairs and its key-gate sites,
    and never changed afterwards. ``directed_edges`` keeps the wires in
    the order given (self-loops skipped); they supply the self-supervised
    positive training samples. Each ``adj[u]`` is filled in that same
    wire order, which fixes its iteration order and so the order of the
    Adamic-Adar sums.

    ``levels`` are longest-path logic levels (inputs at 0) over the
    observed wires; an attacker can always compute them, and locality in
    levels is the key structural signal separating true links from D-MUX
    decoys. ``keygate_kinds`` maps the node of each key-gate site to its
    observed kind; it is empty on pure-MUX designs.

    The derived caches — CSR snapshot, per-node type index, neighbour-type
    counts, Adamic-Adar terms, the 2-hop level of each node's radius-2
    ball — are built on first use and kept for the graph's lifetime.
    """

    def __init__(
        self,
        nodes: Sequence[tuple[str, str, bool]],
        wires: Iterable[tuple[int, int]],
        keygate_sites: Iterable[KeyGateQuery] = (),
    ) -> None:
        self.nodes: list[str] = [name for name, _, _ in nodes]
        self.gtypes: list[str] = [gtype for _, gtype, _ in nodes]
        self.is_gate: list[bool] = [gate for _, _, gate in nodes]
        self.index: dict[str, int] = {
            name: i for i, name in enumerate(self.nodes)
        }
        self.adj: list[set[int]] = [set() for _ in self.nodes]
        self.directed_edges: list[tuple[int, int]] = []
        for wire in wires:
            u, v = wire
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
                self.directed_edges.append(wire)
        self.levels: list[int] = _levels(self.n_nodes, self.directed_edges)
        self.keygate_sites: tuple[KeyGateQuery, ...] = tuple(keygate_sites)
        self.keygate_kinds: dict[int, str] = {
            self.index[site.gate]: site.kind for site in self.keygate_sites
        }
        self._csr_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._gtype_idx: np.ndarray | None = None
        self._type_hist: np.ndarray | None = None
        self._inv_log_deg: list[float] | None = None
        self._balls: dict[int, set[int]] = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR snapshot of the undirected adjacency: ``(indptr, indices)``.

        Row ``i``'s neighbours are ``indices[indptr[i]:indptr[i+1]]``,
        sorted ascending. Built on first use, so bulk callers — the
        batched subgraph extractor, the stacked GNN feature builder —
        amortise one build across a whole population of link queries.
        """
        if self._csr_cache is not None:
            return self._csr_cache
        n = self.n_nodes
        counts = np.fromiter(
            (len(s) for s in self.adj), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for i, nbrs in enumerate(self.adj):
            indices[indptr[i] : indptr[i + 1]] = sorted(nbrs)
        self._csr_cache = (indptr, indices)
        return indptr, indices


def _levels(n: int, directed_edges: list[tuple[int, int]]) -> list[int]:
    """Longest-path level of each of ``n`` nodes over the directed wires."""
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in directed_edges:
        indeg[v] += 1
        out[u].append(v)
    level = [0] * n
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        node = ready.pop()
        for nxt in out[node]:
            level[nxt] = max(level[nxt], level[node] + 1)
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return level


def extract_observed(netlist: Netlist) -> tuple[ObservedGraph, list[MuxQuery]]:
    """Build the observed graph and MUX queries for ``netlist`` in one walk.

    Key inputs are dropped entirely; each MUX whose select pin is a key
    input becomes a :class:`MuxQuery` instead of a node. Everything else —
    including MUXes that are part of the original design — stays a normal
    node, in netlist order after the primary inputs. An XOR/XNOR/AND/OR
    gate with a key fanin is also a key-gate site (``graph.keygate_sites``,
    in gate order).
    """
    key_set = set(netlist.key_inputs)
    nodes = [(sig, "PI", False) for sig in netlist.inputs]
    srcs: list[str] = []  # each observed fanin, in walk order,
    dsts: list[int] = []  # and the node index of the gate it feeds
    key_muxes: dict[str, tuple[str, ...]] = {}
    sites: list[KeyGateQuery] = []
    for gate in netlist.gates.values():
        if gate.gtype is GateType.MUX and gate.fanins[0] in key_set:
            key_muxes[gate.name] = gate.fanins
            continue
        consumer, kind = len(nodes), gate.gtype.value
        nodes.append((gate.name, kind, True))
        site = kind in KEYGATE_KIND_BIT
        for src in gate.fanins:
            if src not in key_set:
                srcs.append(src)
                dsts.append(consumer)
            elif site:
                # The key fanin is invisible to the attacker, but the
                # *kind* of the gate that consumed it is not, so
                # key-gate-aware features and the kind-read can score
                # these bits too.
                sites.append(KeyGateQuery(gate.name, src, kind))
                site = False

    index = {name: i for i, (name, _, _) in enumerate(nodes)}
    wires: list[tuple[int, int]] = []
    mux_consumers: dict[str, list[str]] = {}
    for src, consumer in zip(srcs, dsts):
        if src in key_muxes:
            mux_consumers.setdefault(src, []).append(nodes[consumer][0])
        else:
            wires.append((index[src], consumer))

    queries: list[MuxQuery] = []
    for mux, (sel, d0, d1) in key_muxes.items():
        if d0 in key_muxes or d1 in key_muxes:
            # Chained key-MUXes are outside this attack's model; the site
            # simply stays undecided (counted as coin-flip in scoring).
            continue
        consumers = tuple(mux_consumers.get(mux, ()))
        queries.append(
            MuxQuery(mux=mux, key_name=sel, d0=d0, d1=d1, consumers=consumers)
        )
    return ObservedGraph(nodes, wires, sites), queries


def read_keygate_kinds(graph: ObservedGraph) -> dict[str, int]:
    """Key bits the observed key-gate kinds leak, one per key input.

    Each key input named by a site of ``graph.keygate_sites`` gets the
    bit :data:`KEYGATE_KIND_BIT` reads from its first site's kind. This
    is the kind-read that cracks naive RLL and the ``xor`` / ``and_or``
    insertions without any learning.
    """
    bits: dict[str, int] = {}
    for site in graph.keygate_sites:
        bits.setdefault(site.key_name, KEYGATE_KIND_BIT[site.kind])
    return bits
