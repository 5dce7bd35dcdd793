"""Feature engineering for the MuxLink link predictors.

Two feature families:

* :func:`subgraph_feature_matrix_stack` — per-node features for the
  GNN (gate-type one-hot ⊕ DRNL one-hot ⊕ scaled degree ⊕ level
  offsets), row-stacked over a batch of enclosing subgraphs;
* :func:`link_feature_matrix` — a fixed-length descriptor per candidate
  link for the fast MLP predictor (endpoint types, degrees, common-
  neighbour statistics, bounded distance, neighbourhood type histograms),
  built for a whole batch of links at once.

Plus :func:`make_training_pairs`, the self-supervised sampler: positives
are observed wires, negatives are non-adjacent (signal, gate) pairs drawn
to match the direction convention of real wires.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.muxlink.graph import ObservedGraph
from repro.attacks.muxlink.subgraph import SubgraphBatch
from repro.utils.rng import derive_rng

#: Fixed gate-type vocabulary (index = one-hot position).
GATE_TYPE_VOCAB: list[str] = [
    "PI",
    "BUF",
    "NOT",
    "AND",
    "NAND",
    "OR",
    "NOR",
    "XOR",
    "XNOR",
    "MUX",
    "CONST0",
    "CONST1",
]
_TYPE_INDEX = {t: i for i, t in enumerate(GATE_TYPE_VOCAB)}
N_TYPES = len(GATE_TYPE_VOCAB)


def type_index(gtype: str) -> int:
    """Vocabulary index of a gate-type string (unknown types -> PI slot)."""
    return _TYPE_INDEX.get(gtype, 0)


def graph_type_indices(graph: ObservedGraph) -> np.ndarray:
    """Per-node :func:`type_index` array, cached on the graph."""
    if graph._gtype_idx is None:
        graph._gtype_idx = np.fromiter(
            map(type_index, graph.gtypes), dtype=np.intp, count=graph.n_nodes
        )
    return graph._gtype_idx


def _node_terms(graph: ObservedGraph) -> tuple[np.ndarray, list[float]]:
    """Neighbour-type counts and Adamic-Adar terms, cached on the graph.

    The counts are one ``(n_nodes, N_TYPES)`` float64 row per node; the
    Adamic-Adar term of a node is ``1/log1p(degree)``, 0.0 at degree
    <= 1 (such a node never sits between two distinct endpoints).
    """
    gtype_idx = graph_type_indices(graph)
    if graph._type_hist is None:
        indptr, indices = graph.csr()
        n, degrees = graph.n_nodes, np.diff(indptr)
        slots = np.repeat(np.arange(n) * N_TYPES, degrees) + gtype_idx[indices]
        counts = np.bincount(slots, minlength=n * N_TYPES)
        graph._type_hist = counts.reshape(n, N_TYPES).astype(np.float64)
        inv = np.zeros(n)
        np.divide(1.0, np.log1p(degrees), out=inv, where=degrees > 1)
        graph._inv_log_deg = inv.tolist()
    return graph._type_hist, graph._inv_log_deg


def _two_hops(adj: list[set[int]], src: int, hidden: int = -1) -> set[int]:
    """The nodes other than ``src`` that end a 2-hop walk from ``src``.

    With ``adj[src]`` this is the radius-2 ball of ``src``, by level.
    ``hidden`` names a neighbour of ``src`` whose wire to ``src`` is not
    walked — the mask on a candidate link that is itself an observed wire.
    """
    far = set().union(*[adj[w] for w in adj[src] if w != hidden])
    far.discard(src)
    return far


#: extra per-node feature slots beyond type/DRNL one-hots: log-degree plus
#: clipped level offsets to the two link endpoints.
SUBGRAPH_EXTRA_FEATURES = 3


def subgraph_feature_dim(max_label: int = 8) -> int:
    """Width of :func:`subgraph_feature_matrix_stack` rows."""
    return N_TYPES + max_label + 1 + SUBGRAPH_EXTRA_FEATURES


def subgraph_feature_matrix_stack(
    graph: ObservedGraph,
    batch: SubgraphBatch,
    max_label: int = 8,
) -> np.ndarray:
    """Per-node GNN features, one row per row of ``batch``.

    Each row is type one-hot ⊕ DRNL one-hot ⊕ log-degree ⊕ the clipped
    level offsets to the subgraph's candidate driver (position 0) and
    consumer (position 1). The level offsets give the GNN the same
    locality signal the MLP features encode, without which D-MUX decoys
    are nearly indistinguishable. One vectorised pass over the batch's
    stacked node ids and DRNL labels: one-hots via fancy indexing,
    degrees read from the CSR snapshot, level offsets via per-block
    repeats.
    """
    gtype_idx = graph_type_indices(graph)
    indptr, _ = graph.csr()
    degrees = np.diff(indptr)
    levels = np.asarray(graph.levels, dtype=np.int64)
    counts = np.diff(batch.offsets)
    offsets = batch.offsets[:-1]
    ids, drnl = batch.node_ids, batch.drnl
    n_total = ids.size
    feats = np.zeros((n_total, subgraph_feature_dim(max_label)))
    rows = np.arange(n_total)
    feats[rows, gtype_idx[ids]] = 1.0
    feats[rows, N_TYPES + drnl] = 1.0
    feats[:, -3] = np.log1p(degrees[ids])
    node_levels = levels[ids]
    lvl_u = np.repeat(levels[ids[offsets]], counts)
    lvl_v = np.repeat(levels[ids[offsets + 1]], counts)
    feats[:, -2] = np.clip(node_levels - lvl_u, -4, 4) / 4.0
    feats[:, -1] = np.clip(node_levels - lvl_v, -4, 4) / 4.0
    return feats


#: dimensionality of :func:`link_feature_matrix` rows (the keygate-free prefix)
LINK_FEATURE_DIM = N_TYPES * 2 + 3 + 3 + 6 + 7 + 2 + N_TYPES * 2

#: key-gate kind vocabulary for the opt-in ``keygate_cols`` columns.
KEYGATE_KIND_VOCAB: list[str] = ["XOR", "XNOR", "AND", "OR"]
_KEYGATE_INDEX = {k: i for i, k in enumerate(KEYGATE_KIND_VOCAB)}
N_KEYGATE_KINDS = len(KEYGATE_KIND_VOCAB)


def link_feature_dim(keygate_cols: bool = False) -> int:
    """Row width of the link descriptors.

    With ``keygate_cols`` the byte-identical :data:`LINK_FEATURE_DIM`
    prefix is followed by two per-endpoint key-gate-kind one-hots, so
    ``xor``/``and_or`` insertions become visible to the predictors.
    """
    return LINK_FEATURE_DIM + (2 * N_KEYGATE_KINDS if keygate_cols else 0)


def feature_group_slices(keygate_cols: bool = False) -> dict[str, slice]:
    """Named column groups of a link descriptor (for feature weighting).

    Slices partition the full row; group names are the vocabulary used by
    the MLP predictor's ``feature_weights`` knob and the attacker-genome
    ``feature_weight_*`` fields.
    """
    b = 0
    groups: dict[str, slice] = {}
    for name, width in (
        ("types", 2 * N_TYPES),
        ("degrees", 3),
        ("common", 3),
        ("distance", 6),
        ("level_delta", 7),
        ("levels", 2),
        ("hist", 2 * N_TYPES),
    ):
        groups[name] = slice(b, b + width)
        b += width
    if keygate_cols:
        groups["keygate"] = slice(b, b + 2 * N_KEYGATE_KINDS)
    return groups


def link_feature_matrix(
    graph: ObservedGraph,
    pairs: list[tuple[int, int]],
    keygate_cols: bool = False,
) -> np.ndarray:
    """Descriptors of candidate links ``u → v``, one row per pair.

    Layout (see :func:`feature_group_slices`): [type(u) | type(v) |
    log-degrees(u, v, min) | CN, Jaccard, Adamic-Adar | distance one-hot
    (1..5+) | level-delta one-hot | scaled levels | neighbour-type
    hist(u) | neighbour-type hist(v)]. ``keygate_cols`` appends two
    key-gate-kind one-hots after that prefix, leaving the first
    :data:`LINK_FEATURE_DIM` columns byte-identical.

    A pair that is an observed wire (in either direction) is described
    with that wire masked — the SEAL convention: the link being
    predicted must not be visible. The graph is never mutated; instead
    both degrees drop by one, the union by two, each endpoint's
    neighbour-type histogram drops the other endpoint's type, and the
    pair's two radius-2 balls skip the wire (and are not cached).
    Common neighbours are unchanged (there are no self-loops).

    The level delta one-hot has slots [Δ<=-2, Δ=-1, Δ=0, Δ=1, Δ=2, Δ=3,
    Δ>=4] around the ideal wire delta of 1: true wires sit at Δ≈1, while
    D-MUX decoys drawn from arbitrary locations spread widely — the
    single strongest oracle-less signal against vanilla D-MUX.
    """
    n = len(pairs)
    out = np.zeros((n, link_feature_dim(keygate_cols)), dtype=np.float64)
    if not pairs:
        return out
    adj = graph.adj
    gtype_idx = graph_type_indices(graph)
    type_hist, inv_log_deg = _node_terms(graph)
    balls = graph._balls
    col = {name: s.start for name, s in feature_group_slices().items()}
    us = np.fromiter((u for u, _ in pairs), dtype=np.intp, count=n)
    vs = np.fromiter((v for _, v in pairs), dtype=np.intp, count=n)
    masked = [v in adj[u] for u, v in pairs]

    def far(node: int) -> set[int]:
        if node not in balls:
            balls[node] = _two_hops(adj, node)
        return balls[node]

    dist: list[int] = []
    n_common: list[int] = []
    adamic_adar: list[float] = []
    for (u, v), m in zip(pairs, masked):
        common = adj[u] & adj[v]
        # Meet in the middle: a path of k <= 4 hops has a midpoint at most
        # 2 hops from each end, so d(u, v) is the least k at which the
        # radius-2 balls' levels meet. Adjacent pairs are masked, so k = 1
        # never occurs; a masked pair's balls skip the wire, uncached.
        if u == v:
            dist.append(0)
        elif common:
            dist.append(2)
        else:
            far_u = _two_hops(adj, u, v) if m else far(u)
            if not far_u.isdisjoint(adj[v]):
                dist.append(3)
            else:
                far_v = _two_hops(adj, v, u) if m else far(v)
                dist.append(5 if far_u.isdisjoint(far_v) else 4)
        # Adamic-Adar terms are summed in the iteration order of the set
        # adj[u] & adj[v], as in the per-link reference extractor, so the
        # sums agree bit for bit.
        n_common.append(len(common))
        aa = 0.0
        for w in common:
            aa += inv_log_deg[w]
        adamic_adar.append(aa)

    mask = np.array(masked, dtype=np.int64)
    degrees = np.diff(graph.csr()[0])
    deg_u, deg_v = degrees[us] - mask, degrees[vs] - mask
    n_common = np.array(n_common, dtype=np.int64)
    n_union = deg_u + deg_v - n_common
    rows = np.arange(n)
    out[rows, gtype_idx[us]] = 1.0
    out[rows, N_TYPES + gtype_idx[vs]] = 1.0
    c = col["degrees"]
    out[:, c + 0] = np.log1p(deg_u)
    out[:, c + 1] = np.log1p(deg_v)
    out[:, c + 2] = np.log1p(np.minimum(deg_u, deg_v))
    c = col["common"]
    out[:, c + 0] = n_common
    np.divide(n_common, n_union, out=out[:, c + 1], where=n_union > 0)
    out[:, c + 2] = adamic_adar
    out[rows, col["distance"] + np.array(dist, dtype=np.intp)] = 1.0
    levels = np.asarray(graph.levels, dtype=np.int64)
    lev_u, lev_v = levels[us], levels[vs]
    out[rows, col["level_delta"] + np.clip(lev_v - lev_u + 2, 0, 6)] = 1.0
    max_level = max(int(levels.max()), 1)
    c = col["levels"]
    out[:, c + 0] = lev_u / max_level
    out[:, c + 1] = lev_v / max_level

    edge_rows = np.flatnonzero(mask)
    hist_u, hist_v = type_hist[us], type_hist[vs]
    hist_u[edge_rows, gtype_idx[vs[edge_rows]]] -= 1.0
    hist_v[edge_rows, gtype_idx[us[edge_rows]]] -= 1.0
    c = col["hist"]
    for hist, start in ((hist_u, c), (hist_v, c + N_TYPES)):
        total = hist.sum(axis=1, keepdims=True)
        np.divide(
            hist, total, out=out[:, start : start + N_TYPES], where=total > 0
        )

    if keygate_cols:
        kinds = graph.keygate_kinds
        c_u, c_v = LINK_FEATURE_DIM, LINK_FEATURE_DIM + N_KEYGATE_KINDS
        for row, (u, v) in enumerate(pairs):
            if u in kinds:
                out[row, c_u + _KEYGATE_INDEX[kinds[u]]] = 1.0
            if v in kinds:
                out[row, c_v + _KEYGATE_INDEX[kinds[v]]] = 1.0
    return out


def make_training_pairs(
    graph: ObservedGraph,
    n_samples: int,
    seed_or_rng=None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Self-supervised training pairs: (pairs, labels).

    Half positives (observed wires), half negatives (non-adjacent pairs
    whose target is a gate node, mirroring the candidate-link shape).
    ``n_samples`` is a target; the actual count may be lower on tiny
    graphs.
    """
    rng = derive_rng(seed_or_rng)
    edges = graph.directed_edges
    if not edges:
        return [], np.zeros(0)
    n_pos = min(n_samples // 2, len(edges))
    pos_idx = rng.choice(len(edges), size=n_pos, replace=False)
    positives = [edges[int(i)] for i in pos_idx]

    # Negatives mirror the D-MUX decoy construction: the false candidate of
    # a MUX pairs the *driver of one real wire* with the *consumer of
    # another*. Training on uniformly random non-edges would mis-match the
    # test distribution and weaken the attack.
    negatives: list[tuple[int, int]] = []
    attempts = 0
    while len(negatives) < n_pos and attempts < 50 * n_pos:
        attempts += 1
        u, _ = edges[int(rng.integers(0, len(edges)))]
        _, v = edges[int(rng.integers(0, len(edges)))]
        if u == v or graph.has_edge(u, v):
            continue
        negatives.append((u, v))

    pairs = positives + negatives
    labels = np.array([1.0] * len(positives) + [0.0] * len(negatives))
    order = rng.permutation(len(pairs))
    pairs = [pairs[int(i)] for i in order]
    return pairs, labels[order]
