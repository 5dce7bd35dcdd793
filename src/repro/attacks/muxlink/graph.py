"""Attacker's view of a MUX-locked netlist.

MuxLink (Alrahis et al., DATE 2022) casts key recovery as link prediction:
remove every key-controlled MUX from the netlist, leaving "open" pins, and
ask which of the MUX's two data inputs is the true driver of each consumer.
This module builds that *observed graph* — the locked netlist minus key
inputs and key-MUXes — plus the list of link queries, using only
information genuinely available to an oracle-less attacker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    ``kind`` is the observed gate type; :data:`KEYGATE_KIND_BIT` maps it
    to the key bit the insertion convention implies.
    """

    gate: str
    key_name: str
    kind: str


@dataclass
class ObservedGraph:
    """Undirected graph over observed signals with gate-type labels.

    ``directed_edges`` additionally records observed *wire directions*
    (driver → consumer), which supply the self-supervised positive
    training samples.
    """

    nodes: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)
    gtypes: list[str] = field(default_factory=list)
    adj: list[set[int]] = field(default_factory=list)
    directed_edges: list[tuple[int, int]] = field(default_factory=list)
    is_gate: list[bool] = field(default_factory=list)
    #: longest-path logic level per node (inputs at 0), over observed wires;
    #: an attacker can always compute this, and locality in levels is the
    #: key structural signal separating true links from D-MUX decoys.
    levels: list[int] = field(default_factory=list)
    #: node index -> observed key-gate kind ("XOR"/"XNOR"/"AND"/"OR") for
    #: nodes whose dropped fanin was a key input. Empty on pure-MUX
    #: designs, so pre-keygate behaviour (and every golden) is untouched.
    keygate_kinds: dict[int, str] = field(default_factory=dict)
    #: bumped on every node or wire added; :meth:`drop_stale_caches` then
    #: drops every derived cache below (CSR snapshot, per-node type index,
    #: neighbour-type counts, Adamic-Adar terms, the 2-hop level of each
    #: node's radius-2 ball), so none of them describes an older graph.
    _adj_version: int = field(default=0, repr=False)
    _cache_version: int = field(default=0, repr=False)
    _csr_cache: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )
    _gtype_idx: np.ndarray | None = field(default=None, repr=False)
    _type_hist: np.ndarray | None = field(default=None, repr=False)
    _inv_log_deg: list[float] | None = field(default=None, repr=False)
    _balls: dict[int, set[int]] = field(default_factory=dict, repr=False)

    def add_node(self, name: str, gtype: str, gate: bool) -> int:
        if name in self.index:
            return self.index[name]
        idx = len(self.nodes)
        self.nodes.append(name)
        self.index[name] = idx
        self.gtypes.append(gtype)
        self.adj.append(set())
        self.is_gate.append(gate)
        self._adj_version += 1
        return idx

    def add_edge(self, u: int, v: int) -> None:
        """Add a directed wire u → v (stored undirected + direction list)."""
        if u == v:
            return
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.directed_edges.append((u, v))
        self._adj_version += 1

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def compute_levels(self) -> None:
        """(Re)compute longest-path levels from the directed wire list."""
        n = self.n_nodes
        indeg = [0] * n
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.directed_edges:
            indeg[v] += 1
            out[u].append(v)
        level = [0] * n
        ready = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for nxt in out[node]:
                level[nxt] = max(level[nxt], level[node] + 1)
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        self.levels = level

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def drop_stale_caches(self) -> None:
        """Drop every derived cache built before the last node or wire."""
        if self._cache_version != self._adj_version:
            self._csr_cache = self._gtype_idx = None
            self._type_hist = self._inv_log_deg = None
            self._balls = {}
            self._cache_version = self._adj_version

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR snapshot of the undirected adjacency: ``(indptr, indices)``.

        Row ``i``'s neighbours are ``indices[indptr[i]:indptr[i+1]]``,
        sorted ascending. Rebuilt lazily after a node or wire is added, so
        bulk callers — the batched subgraph extractor, the stacked GNN
        feature builder — amortise one build across a whole population
        of link queries.
        """
        self.drop_stale_caches()
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


def extract_observed(netlist: Netlist) -> tuple[ObservedGraph, list[MuxQuery]]:
    """Build the observed graph and MUX queries for ``netlist``.

    Key inputs are dropped entirely; each MUX whose select pin is a key
    input becomes a :class:`MuxQuery` instead of a node. Everything else —
    including MUXes that are part of the original design — stays a normal
    node.
    """
    key_set = set(netlist.key_inputs)
    graph = ObservedGraph()

    def is_key_mux(name: str) -> bool:
        gate = netlist.gates.get(name)
        return (
            gate is not None
            and gate.gtype is GateType.MUX
            and gate.fanins[0] in key_set
        )

    for sig in netlist.inputs:
        graph.add_node(sig, "PI", gate=False)
    for gate in netlist.gates.values():
        if not is_key_mux(gate.name):
            graph.add_node(gate.name, gate.gtype.value, gate=True)

    mux_consumers: dict[str, list[str]] = {}
    for gate in netlist.gates.values():
        if is_key_mux(gate.name):
            continue
        g_idx = graph.index[gate.name]
        for src in gate.fanins:
            if src in key_set:
                # The key fanin is invisible to the attacker, but the
                # *kind* of the gate that consumed it is not: annotate
                # XOR/XNOR/AND/OR key gates so key-gate-aware features
                # (and the SAAM kind-read) can score these bits too.
                if gate.gtype.value in KEYGATE_KIND_BIT:
                    graph.keygate_kinds[g_idx] = gate.gtype.value
                continue
            if is_key_mux(src):
                mux_consumers.setdefault(src, []).append(gate.name)
                continue
            graph.add_edge(graph.index[src], g_idx)

    queries: list[MuxQuery] = []
    for gate in netlist.gates.values():
        if not is_key_mux(gate.name):
            continue
        sel, d0, d1 = gate.fanins
        consumers = tuple(mux_consumers.get(gate.name, ()))
        if is_key_mux(d0) or is_key_mux(d1):
            # Chained key-MUXes are outside this attack's model; the site
            # simply stays undecided (counted as coin-flip in scoring).
            continue
        queries.append(
            MuxQuery(mux=gate.name, key_name=sel, d0=d0, d1=d1, consumers=consumers)
        )
    graph.compute_levels()
    return graph, queries


def extract_keygates(netlist: Netlist) -> list[KeyGateQuery]:
    """List the non-MUX key gates (XOR/XNOR/AND/OR) of ``netlist``.

    Key-select MUXes are handled by :func:`extract_observed` as
    :class:`MuxQuery` sites; this covers the complementary ``xor`` /
    ``and_or`` insertion styles, whose observed gate *kind* leaks the key
    bit per :data:`KEYGATE_KIND_BIT`. Deterministic (netlist iteration
    order); uses only attacker-visible structure.
    """
    key_set = set(netlist.key_inputs)
    sites: list[KeyGateQuery] = []
    for gate in netlist.gates.values():
        if gate.gtype is GateType.MUX:
            continue
        kind = gate.gtype.value
        if kind not in KEYGATE_KIND_BIT:
            continue
        for src in gate.fanins:
            if src in key_set:
                sites.append(
                    KeyGateQuery(gate=gate.name, key_name=src, kind=kind)
                )
                break
    return sites
