"""MuxLink references: the observed graph, and per-link features,
subgraphs, GNN and Bayes scoring.

* :func:`extract_observed` / :func:`extract_keygates` — the observed
  graph built node by node and wire by wire in three walks over the
  netlist, as a :class:`ReferenceGraph`, and the non-MUX key gates found
  by a walk of their own. Oracle for
  :func:`repro.attacks.muxlink.graph.extract_observed`: every field of
  the graph (each ``adj[u]``'s iteration order included), its key-gate
  sites and the MUX queries (exact equality).
* :func:`link_feature_vector` — one candidate link's MLP descriptor,
  built with the candidate edge masked. Oracle for
  :func:`repro.attacks.muxlink.features.link_feature_matrix` (bitwise
  equality).
* :func:`mlp_forward_rows` — the MLP forward run one row at a time.
  Oracle for the stacked forward in
  :meth:`~repro.attacks.muxlink.mlp_predictor.MlpLinkPredictor.score_links`
  (bitwise equality).
* :func:`extract_enclosing_subgraph` — one pair's enclosing subgraph by
  plain BFS on a graph with the candidate edge removed, as an
  :class:`EnclosingSubgraph` holding a dense adjacency. Oracle for every
  block of the stacked
  :class:`~repro.attacks.muxlink.subgraph.SubgraphBatch` that
  :func:`repro.attacks.muxlink.subgraph.extract_enclosing_subgraphs`
  returns: node ids, DRNL labels and CSR (exact equality).
* :func:`subgraph_feature_matrix` — one subgraph's node features. Oracle
  for :func:`~repro.attacks.muxlink.features.subgraph_feature_matrix_stack`.
* :func:`normalized_adjacency` / :func:`block_diag_from_subgraphs` — a
  dense block's row-normalised ``A + I``, and the block-diagonal CSR
  operator stacked from those blocks by ``np.nonzero``. Oracle for
  :meth:`~repro.attacks.muxlink.gnn._BlockDiagAdj.from_batch` and
  :meth:`~repro.attacks.muxlink.gnn._BlockDiagAdj.select` (array for
  array, bitwise). :func:`dense_blocks` turns a batch back into dense
  blocks for comparing with the reference extractor.
* :func:`gnn_score_link` / :func:`gnn_fit` — the one-subgraph-at-a-time
  GNN forward, backward and training loop, run on a
  :class:`~repro.attacks.muxlink.gnn.GnnLinkPredictor`'s own weights.
  The batched path reassociates floating-point sums, so it matches
  these to ~1e-9, not bitwise.
* :func:`block_diag_matmul` / :func:`block_diag_transpose` — a CSR
  product as one ``np.add.reduceat`` over every row, and the transpose
  by a ``lexsort`` of the non-zeros by column. Oracles for the
  segment-sum plan of ``_BlockDiagAdj @ z`` and for its symmetric-block
  transpose (bitwise equality).
* :func:`gnn_fit_rebuild` / :func:`gnn_score_links_rebuild` — the
  block-diagonal trainer and scorer that extract each pair with
  :func:`extract_enclosing_subgraph`, rebuild the features and the
  sparse operator from those dense blocks for every minibatch (with
  :func:`subgraph_feature_matrix` and :func:`block_diag_from_subgraphs`,
  nothing of the batched extractor) and run all ``2L`` sparse products
  of an L-layer step (layer 0's ``S @ X`` and its discarded input
  gradient included) through the two oracles above. Oracle for the
  per-fit prepared operators and the sparse products of
  :meth:`~repro.attacks.muxlink.gnn.GnnLinkPredictor.fit` and
  :meth:`~repro.attacks.muxlink.gnn.GnnLinkPredictor.score_links`
  (bitwise equality).
* :func:`bayes_score_link` — the per-link Bayes scorer. Oracle for
  :meth:`~repro.attacks.muxlink.bayes.BayesLinkPredictor.score_links`
  (bitwise equality).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.muxlink.bayes import _delta_bin
from repro.attacks.muxlink.features import (
    _KEYGATE_INDEX,
    LINK_FEATURE_DIM,
    N_KEYGATE_KINDS,
    N_TYPES,
    link_feature_dim,
    make_training_pairs,
    subgraph_feature_dim,
    type_index,
)
from repro.attacks.muxlink.gnn import _BlockDiagAdj
from repro.attacks.muxlink.graph import (
    KEYGATE_KIND_BIT,
    KeyGateQuery,
    MuxQuery,
    ObservedGraph,
)
from repro.attacks.muxlink.subgraph import drnl_from_distances
from repro.ml.layers import Linear
from repro.ml.losses import bce_with_logits
from repro.ml.optim import Adam
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng


# ----------------------------------------------------------- observed graph
@dataclass
class ReferenceGraph:
    """The observed graph as a mutable builder: nodes and wires added one
    at a time, levels computed on request."""

    nodes: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)
    gtypes: list[str] = field(default_factory=list)
    adj: list[set[int]] = field(default_factory=list)
    directed_edges: list[tuple[int, int]] = field(default_factory=list)
    is_gate: list[bool] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)
    keygate_kinds: dict[int, str] = field(default_factory=dict)

    def add_node(self, name: str, gtype: str, gate: bool) -> int:
        if name in self.index:
            return self.index[name]
        idx = len(self.nodes)
        self.nodes.append(name)
        self.index[name] = idx
        self.gtypes.append(gtype)
        self.adj.append(set())
        self.is_gate.append(gate)
        return idx

    def add_edge(self, u: int, v: int) -> None:
        """Add a directed wire u → v (stored undirected + direction list)."""
        if u == v:
            return
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.directed_edges.append((u, v))

    def compute_levels(self) -> None:
        """(Re)compute longest-path levels from the directed wire list."""
        n = len(self.nodes)
        indeg = [0] * n
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.directed_edges:
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
        self.levels = level


def extract_observed(netlist: Netlist) -> tuple[ReferenceGraph, list[MuxQuery]]:
    """The observed graph and MUX queries of ``netlist``, in three walks:
    nodes, then wires (and key-gate kinds), then queries."""
    key_set = set(netlist.key_inputs)
    graph = ReferenceGraph()

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
            continue
        queries.append(
            MuxQuery(mux=gate.name, key_name=sel, d0=d0, d1=d1, consumers=consumers)
        )
    graph.compute_levels()
    return graph, queries


def extract_keygates(netlist: Netlist) -> list[KeyGateQuery]:
    """The non-MUX key gates (XOR/XNOR/AND/OR) of ``netlist`` with their
    first key fanin, in gate order."""
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


@contextmanager
def _edge_masked(graph: ObservedGraph, u: int, v: int):
    """Hide the undirected edge u–v (if present) for the ``with`` body.

    The SEAL convention: the link being predicted must not be visible to
    the extractor. Masks ``graph.adj`` in place and puts the edge back
    afterwards. A discarded set entry leaves a dummy slot that the
    re-add reuses, so every neighbour set keeps its iteration order —
    which fixes the order of the Adamic-Adar sum. The graph's derived
    caches are left alone: nothing inside the ``with`` body reads them.
    """
    present = v in graph.adj[u]
    if present:
        graph.adj[u].discard(v)
        graph.adj[v].discard(u)
    try:
        yield
    finally:
        if present:
            graph.adj[u].add(v)
            graph.adj[v].add(u)


# ----------------------------------------------------------------- features
def _bounded_distance(graph: ObservedGraph, u: int, v: int, limit: int = 4) -> int:
    """Shortest-path length u→v up to ``limit`` (limit+1 = unreachable)."""
    if u == v:
        return 0
    dist = {u: 0}
    frontier = deque([u])
    while frontier:
        node = frontier.popleft()
        d = dist[node]
        if d == limit:
            continue
        for nxt in graph.adj[node]:
            if nxt == v:
                return d + 1
            if nxt not in dist:
                dist[nxt] = d + 1
                frontier.append(nxt)
    return limit + 1


def _neighbor_type_histogram(graph: ObservedGraph, u: int) -> np.ndarray:
    hist = np.zeros(N_TYPES, dtype=np.float64)
    for nxt in graph.adj[u]:
        hist[type_index(graph.gtypes[nxt])] += 1.0
    total = hist.sum()
    return hist / total if total > 0 else hist


def _write_keygate_cols(
    graph: ObservedGraph, feats: np.ndarray, u: int, v: int
) -> None:
    """Fill the per-endpoint key-gate-kind one-hots after the prefix."""
    ku = graph.keygate_kinds.get(u)
    if ku is not None:
        feats[LINK_FEATURE_DIM + _KEYGATE_INDEX[ku]] = 1.0
    kv = graph.keygate_kinds.get(v)
    if kv is not None:
        feats[LINK_FEATURE_DIM + N_KEYGATE_KINDS + _KEYGATE_INDEX[kv]] = 1.0


def _level_delta_onehot(delta: int) -> np.ndarray:
    """One-hot of ``level(v) - level(u)`` around the ideal wire delta of 1.

    Slots: [Δ<=-2, Δ=-1, Δ=0, Δ=1, Δ=2, Δ=3, Δ>=4].
    """
    onehot = np.zeros(7, dtype=np.float64)
    onehot[int(np.clip(delta + 2, 0, 6))] = 1.0
    return onehot


def link_feature_vector(
    graph: ObservedGraph, u: int, v: int, keygate_cols: bool = False
) -> np.ndarray:
    """Descriptor of candidate link ``u → v`` (edge masked if present).

    Layout: [type(u) | type(v) | log-degrees(u, v, min) | CN, Jaccard,
    Adamic-Adar | distance one-hot (1..5+) | level-delta one-hot |
    scaled levels | neighbour-type hist(u) | neighbour-type hist(v)].
    ``keygate_cols`` appends two key-gate-kind one-hots after that
    prefix, leaving the first :data:`LINK_FEATURE_DIM` columns
    byte-identical to the historical extractor.
    """
    with _edge_masked(graph, u, v):
        feats = np.zeros(link_feature_dim(keygate_cols), dtype=np.float64)
        feats[type_index(graph.gtypes[u])] = 1.0
        feats[N_TYPES + type_index(graph.gtypes[v])] = 1.0
        base = 2 * N_TYPES
        deg_u, deg_v = graph.degree(u), graph.degree(v)
        feats[base + 0] = np.log1p(deg_u)
        feats[base + 1] = np.log1p(deg_v)
        feats[base + 2] = np.log1p(min(deg_u, deg_v))
        base += 3
        common = graph.adj[u] & graph.adj[v]
        union = graph.adj[u] | graph.adj[v]
        feats[base + 0] = float(len(common))
        feats[base + 1] = len(common) / len(union) if union else 0.0
        feats[base + 2] = float(
            sum(1.0 / np.log1p(graph.degree(w)) for w in common if graph.degree(w) > 1)
        )
        base += 3
        dist = _bounded_distance(graph, u, v, limit=4)
        feats[base + min(dist, 5)] = 1.0  # slots: 0(unused),1,2,3,4,5=farther
        base += 6
        delta = graph.levels[v] - graph.levels[u]
        feats[base : base + 7] = _level_delta_onehot(delta)
        base += 7
        max_level = max(max(graph.levels), 1)
        feats[base + 0] = graph.levels[u] / max_level
        feats[base + 1] = graph.levels[v] / max_level
        base += 2
        feats[base : base + N_TYPES] = _neighbor_type_histogram(graph, u)
        feats[base + N_TYPES : base + 2 * N_TYPES] = _neighbor_type_histogram(graph, v)
        if keygate_cols:
            _write_keygate_cols(graph, feats, u, v)
        return feats


def mlp_forward_rows(model, x: np.ndarray) -> np.ndarray:
    """Logits of a ``Linear``/``ReLU`` stack, one ``(1, d)`` row at a time."""
    steps = [
        (layer.weight.value, layer.bias.value)
        if isinstance(layer, Linear)
        else None
        for layer in model.layers
    ]
    scores = np.empty(x.shape[0], dtype=np.float64)
    for i in range(x.shape[0]):
        h = x[i : i + 1]
        for wb in steps:
            h = h @ wb[0] + wb[1] if wb is not None else h * (h > 0)
        scores[i] = h[0, 0]
    return scores


# ---------------------------------------------------------------- subgraphs
@dataclass
class EnclosingSubgraph:
    """Induced subgraph around a candidate link.

    ``node_ids`` are indices into the parent :class:`ObservedGraph`;
    positions 0 and 1 are always ``u`` and ``v``. ``adj`` is the dense
    symmetric adjacency (no self-loops); ``drnl`` the per-node labels,
    capped at ``max_label`` (0 = unreachable from one endpoint).
    """

    node_ids: list[int]
    adj: np.ndarray
    drnl: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


def _bounded_bfs(
    graph: ObservedGraph, start: int, max_depth: int
) -> dict[int, int]:
    """Distances from ``start`` up to ``max_depth`` hops."""
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        d = dist[node]
        if d == max_depth:
            continue
        for nxt in graph.adj[node]:
            if nxt not in dist:
                dist[nxt] = d + 1
                frontier.append(nxt)
    return dist


def _subgraph_distances(
    nodes: list[int], adj_sets: list[set[int]], start_pos: int
) -> np.ndarray:
    """BFS distances inside the induced subgraph (positions, not ids)."""
    dist = np.full(len(nodes), -1, dtype=np.int64)
    dist[start_pos] = 0
    frontier = deque([start_pos])
    while frontier:
        pos = frontier.popleft()
        for nxt in adj_sets[pos]:
            if dist[nxt] < 0:
                dist[nxt] = dist[pos] + 1
                frontier.append(nxt)
    return dist


def extract_enclosing_subgraph(
    graph: ObservedGraph,
    u: int,
    v: int,
    hops: int = 2,
    max_nodes: int = 120,
    max_label: int = 8,
) -> EnclosingSubgraph:
    """The ``hops``-hop enclosing subgraph of candidate link (u, v).

    The (u, v) edge itself — if present — is excluded from both the
    adjacency and the distance computation, per the SEAL protocol.
    Oversized neighbourhoods are truncated deterministically, keeping the
    nodes closest to either endpoint.
    """
    with _edge_masked(graph, u, v):
        dist_u = _bounded_bfs(graph, u, hops)
        dist_v = _bounded_bfs(graph, v, hops)
        members = set(dist_u) | set(dist_v)
        members.discard(u)
        members.discard(v)
        ordered = sorted(
            members,
            key=lambda x: (
                min(dist_u.get(x, hops + 1), dist_v.get(x, hops + 1)),
                x,
            ),
        )
        node_ids = [u, v] + ordered[: max(0, max_nodes - 2)]
        pos_of = {nid: pos for pos, nid in enumerate(node_ids)}
        adj_sets: list[set[int]] = [set() for _ in node_ids]
        for pos, nid in enumerate(node_ids):
            for nxt in graph.adj[nid]:
                nxt_pos = pos_of.get(nxt)
                if nxt_pos is not None:
                    adj_sets[pos].add(nxt_pos)

        du = _subgraph_distances(node_ids, adj_sets, 0)
        dv = _subgraph_distances(node_ids, adj_sets, 1)
        labels = drnl_from_distances(du, dv, max_label)

        n = len(node_ids)
        adj = np.zeros((n, n), dtype=np.float64)
        for pos, nbrs in enumerate(adj_sets):
            for nxt in nbrs:
                adj[pos, nxt] = 1.0
        return EnclosingSubgraph(node_ids=node_ids, adj=adj, drnl=labels)


def subgraph_feature_matrix(
    graph: ObservedGraph, sub: EnclosingSubgraph, max_label: int = 8
) -> np.ndarray:
    """Per-node GNN features: type one-hot ⊕ DRNL one-hot ⊕ degree/levels."""
    feats = np.zeros(
        (sub.n_nodes, subgraph_feature_dim(max_label)), dtype=np.float64
    )
    lvl_u = graph.levels[sub.node_ids[0]]
    lvl_v = graph.levels[sub.node_ids[1]]
    for pos, nid in enumerate(sub.node_ids):
        feats[pos, type_index(graph.gtypes[nid])] = 1.0
        feats[pos, N_TYPES + int(sub.drnl[pos])] = 1.0
        feats[pos, -3] = np.log1p(graph.degree(nid))
        feats[pos, -2] = np.clip(graph.levels[nid] - lvl_u, -4, 4) / 4.0
        feats[pos, -1] = np.clip(graph.levels[nid] - lvl_v, -4, 4) / 4.0
    return feats


# ---------------------------------------------------------------------- GNN
def normalized_adjacency(adj: np.ndarray) -> np.ndarray:
    """Row-normalised ``A + I`` (mean-aggregation message passing)."""
    a_hat = adj + np.eye(len(adj))
    return a_hat / a_hat.sum(axis=1, keepdims=True)


def block_diag_from_subgraphs(subs: list[EnclosingSubgraph]) -> _BlockDiagAdj:
    """The block-diagonal CSR operator over ``subs``' normalised blocks."""
    offsets = np.zeros(len(subs) + 1, dtype=np.int64)
    row_nnz: list[np.ndarray] = []
    cols_l: list[np.ndarray] = []
    data_l: list[np.ndarray] = []
    for b, sub in enumerate(subs):
        block = normalized_adjacency(sub.adj)
        r, c = np.nonzero(block)
        row_nnz.append(np.bincount(r, minlength=block.shape[0]))
        cols_l.append(c + offsets[b])
        data_l.append(block[r, c])
        offsets[b + 1] = offsets[b] + block.shape[0]
    indptr = np.zeros(offsets[-1] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    # np.nonzero emits row-major order per block and blocks are
    # appended in order, so (cols, data) is already CSR-sorted.
    return _BlockDiagAdj(
        indptr, np.concatenate(cols_l), np.concatenate(data_l), offsets
    )


def extract_each(
    graph: ObservedGraph, pairs, hops: int, max_nodes: int, max_label: int
) -> list[EnclosingSubgraph]:
    """:func:`extract_enclosing_subgraph` for every pair, in order."""
    return [
        extract_enclosing_subgraph(graph, u, v, hops, max_nodes, max_label)
        for u, v in pairs
    ]


def dense_blocks(batch) -> list[EnclosingSubgraph]:
    """Each block of a :class:`~repro.attacks.muxlink.subgraph.SubgraphBatch`
    as an :class:`EnclosingSubgraph`: its node ids, DRNL labels and its
    CSR made dense, less the identity — so a missing self-loop shows as
    a −1 on the diagonal, not as a 0."""
    out = []
    for b in range(len(batch)):
        lo, hi = int(batch.offsets[b]), int(batch.offsets[b + 1])
        adj = -np.eye(hi - lo)
        rows = np.repeat(np.arange(hi - lo), np.diff(batch.indptr[lo : hi + 1]))
        cols = batch.indices[batch.indptr[lo] : batch.indptr[hi]] - lo
        adj[rows, cols] += 1.0
        out.append(
            EnclosingSubgraph(
                node_ids=batch.node_ids[lo:hi].tolist(),
                adj=adj,
                drnl=batch.drnl[lo:hi],
            )
        )
    return out


def _gnn_forward(predictor, sub: EnclosingSubgraph) -> tuple[float, dict]:
    """Logit for one subgraph; returns the backward context."""
    x = subgraph_feature_matrix(predictor._graph, sub, predictor.max_label)
    s = normalized_adjacency(sub.adj)
    h = predictor._conv.forward(s, s @ x)  # (n, emb)
    readout = np.concatenate([h[0], h[1], h.mean(axis=0)]).reshape(1, -1)
    logit = predictor._head.forward(readout, train=True)
    return float(logit[0, 0]), {"n": h.shape[0], "emb": h.shape[1]}


def _gnn_backward(predictor, d_logit: float, ctx: dict) -> None:
    d_read = predictor._head.backward(np.array([[d_logit]]))[0]
    emb, n = ctx["emb"], ctx["n"]
    d_h = np.tile(d_read[2 * emb :] / n, (n, 1))
    d_h[0] += d_read[:emb]
    d_h[1] += d_read[emb : 2 * emb]
    predictor._conv.backward(d_h)


def gnn_score_link(predictor, u: int, v: int) -> float:
    """Logit that ``u`` drives ``v``, one subgraph through the dense stack."""
    sub = extract_enclosing_subgraph(
        predictor._graph, u, v, predictor.hops, predictor.max_nodes,
        predictor.max_label,
    )
    return _gnn_forward(predictor, sub)[0]


def gnn_fit(predictor, graph: ObservedGraph, seed_or_rng=None) -> None:
    """``GnnLinkPredictor.fit`` with one forward/backward per sample.

    Same RNG stream, same minibatches of 8, same Adam steps; only the
    per-sample loop replaces the block-diagonal batch.
    """
    rng = derive_rng(seed_or_rng)
    predictor._graph = graph
    predictor._build(rng)
    pairs, labels = make_training_pairs(graph, predictor.n_train, rng)
    subs = extract_each(
        graph, pairs, predictor.hops, predictor.max_nodes, predictor.max_label
    )
    optimizer = Adam(predictor.params(), lr=predictor.lr)
    predictor.train_history = []
    order = np.arange(len(subs))
    for _ in range(predictor.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), 8):
            for i in order[start : start + 8]:
                logit, ctx = _gnn_forward(predictor, subs[int(i)])
                loss, d = bce_with_logits(
                    np.array([logit]), np.array([labels[int(i)]])
                )
                _gnn_backward(predictor, float(d[0]), ctx)
                losses.append(loss)
            optimizer.step()
        predictor.train_history.append(float(np.mean(losses)))


def block_diag_matmul(op: _BlockDiagAdj, z: np.ndarray) -> np.ndarray:
    """``op @ z`` as one ``np.add.reduceat`` over the CSR row segments."""
    contrib = z.take(op.indices, axis=0)
    contrib *= op.data[:, None]
    return np.add.reduceat(contrib, op.indptr[:-1], axis=0)


def block_diag_transpose(op: _BlockDiagAdj) -> _BlockDiagAdj:
    """``op.T`` in CSR, by a ``lexsort`` of the non-zeros by column."""
    rows = np.repeat(np.arange(op.n), np.diff(op.indptr))
    order = np.lexsort((rows, op.indices))
    counts = np.bincount(op.indices, minlength=op.n)
    t_indptr = np.zeros(op.n + 1, dtype=np.int64)
    np.cumsum(counts, out=t_indptr[1:])
    return _BlockDiagAdj(t_indptr, rows[order], op.data[order], op.offsets)


def _rebuild_forward(
    predictor, subs: list[EnclosingSubgraph], train: bool
) -> tuple[np.ndarray, dict]:
    """Batch logits with the features and ``S`` built from ``subs`` here."""
    x = np.concatenate(
        [
            subgraph_feature_matrix(predictor._graph, sub, predictor.max_label)
            for sub in subs
        ]
    )
    s = block_diag_from_subgraphs(subs)
    z = x
    cache, outs = [], []
    for w in predictor._conv.weights:
        sz = block_diag_matmul(s, z)
        z = np.tanh(sz @ w.value)
        cache.append((sz, z))
        outs.append(z)
    h = np.concatenate(outs, axis=1)
    counts = np.array([sub.n_nodes for sub in subs], dtype=np.int64)
    offsets = np.zeros(len(subs), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    means = np.add.reduceat(h, offsets, axis=0) / counts[:, None]
    readout = np.concatenate([h[offsets], h[offsets + 1], means], axis=1)
    logits = predictor._head.forward(readout, train=train)[:, 0]
    ctx = {"s_t": block_diag_transpose(s), "cache": cache, "counts": counts, "offsets": offsets}
    return logits, ctx


def _rebuild_backward(predictor, d_logits: np.ndarray, ctx: dict) -> None:
    """Backward through :func:`_rebuild_forward`, layer 0's input grad too."""
    d_read = predictor._head.backward(d_logits.reshape(-1, 1))
    weights = predictor._conv.weights
    emb = sum(w.value.shape[1] for w in weights)
    counts, offsets = ctx["counts"], ctx["offsets"]
    d_h = np.repeat(d_read[:, 2 * emb :] / counts[:, None], counts, axis=0)
    d_h[offsets] += d_read[:, :emb]
    d_h[offsets + 1] += d_read[:, emb : 2 * emb]
    starts = np.cumsum([0] + [w.value.shape[1] for w in weights])
    carry = None
    for layer in range(len(weights) - 1, -1, -1):
        sz, z = ctx["cache"][layer]
        chunk = d_h[:, starts[layer] : starts[layer + 1]]
        dz = chunk if carry is None else chunk + carry
        da = dz * (1.0 - z**2)
        weights[layer].grad += sz.T @ da
        carry = block_diag_matmul(ctx["s_t"], da @ weights[layer].value.T)


def gnn_fit_rebuild(predictor, graph: ObservedGraph, seed_or_rng=None) -> None:
    """``GnnLinkPredictor.fit`` rebuilding features and ``S`` per minibatch.

    Same RNG stream, minibatches of 8 and Adam steps as the prepared
    trainer; the pairs are extracted one at a time by the reference
    extractor, and every step stacks its subgraphs' features, builds
    their block-diagonal operator (and its transpose) from their dense
    blocks, and runs every sparse product of the stack as a plain
    ``reduceat``.
    """
    rng = derive_rng(seed_or_rng)
    predictor._graph = graph
    predictor._build(rng)
    pairs, labels = make_training_pairs(graph, predictor.n_train, rng)
    subs = extract_each(
        graph, pairs, predictor.hops, predictor.max_nodes, predictor.max_label
    )
    optimizer = Adam(predictor.params(), lr=predictor.lr)
    predictor.train_history = []
    order = np.arange(len(subs))
    for _ in range(predictor.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), 8):
            idx = order[start : start + 8]
            logits, ctx = _rebuild_forward(
                predictor, [subs[int(i)] for i in idx], train=True
            )
            loss_sum, d = bce_with_logits(logits, labels[idx], reduction="sum")
            _rebuild_backward(predictor, d, ctx)
            losses.extend([loss_sum / len(idx)] * len(idx))
            optimizer.step()
        predictor.train_history.append(float(np.mean(losses)))


def gnn_score_links_rebuild(predictor, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Logits for ``pairs`` with ``S @ X`` formed inside the forward."""
    subs = extract_each(
        predictor._graph, pairs, predictor.hops, predictor.max_nodes,
        predictor.max_label,
    )
    return _rebuild_forward(predictor, subs, train=False)[0]


# -------------------------------------------------------------------- Bayes
def bayes_score_link(predictor, u: int, v: int) -> float:
    """Log-likelihood that ``u`` truly drives ``v``, one link at a time."""
    graph = predictor._graph
    score = float(
        predictor._log_cond[
            type_index(graph.gtypes[u]), type_index(graph.gtypes[v])
        ]
    )
    score += float(
        predictor._log_delta[_delta_bin(graph.levels[v] - graph.levels[u])]
    )
    score += 0.1 * np.log1p(graph.degree(u)) - 0.05 * abs(
        graph.degree(u) - predictor._mean_degree
    ) / max(1.0, predictor._mean_degree)
    return score
