"""Feature engineering for the MuxLink link predictors.

Two feature families:

* :func:`subgraph_feature_matrix_stack` — per-node features for the
  GNN (gate-type one-hot ⊕ DRNL one-hot ⊕ scaled degree ⊕ level
  offsets), row-stacked over a batch of enclosing subgraphs;
* :func:`link_feature_vector` — a fixed-length descriptor of a candidate
  link for the fast MLP predictor (endpoint types, degrees, common-
  neighbour statistics, bounded distance, neighbourhood type histograms).

Plus :func:`make_training_pairs`, the self-supervised sampler: positives
are observed wires, negatives are non-adjacent (signal, gate) pairs drawn
to match the direction convention of real wires.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.attacks.muxlink.graph import ObservedGraph
from repro.attacks.muxlink.subgraph import EnclosingSubgraph
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
    """Per-node :func:`type_index` array, cached on the graph.

    Gate types never change after construction; only adjacency is ever
    masked/restored, so the cache needs no invalidation beyond a length
    check (nodes are append-only).
    """
    gtypes = graph.gtypes
    cached = getattr(graph, "_gtype_idx", None)
    if cached is None or len(cached) != len(gtypes):
        cached = np.fromiter(
            (type_index(t) for t in gtypes), dtype=np.intp, count=len(gtypes)
        )
        graph._gtype_idx = cached
    return cached


#: extra per-node feature slots beyond type/DRNL one-hots: log-degree plus
#: clipped level offsets to the two link endpoints.
SUBGRAPH_EXTRA_FEATURES = 3


def subgraph_feature_dim(max_label: int = 8) -> int:
    """Width of :func:`subgraph_feature_matrix_stack` rows."""
    return N_TYPES + max_label + 1 + SUBGRAPH_EXTRA_FEATURES


def subgraph_feature_matrix_stack(
    graph: ObservedGraph,
    subs: list[EnclosingSubgraph],
    max_label: int = 8,
) -> np.ndarray:
    """Per-node GNN features, row-stacked over a batch of subgraphs.

    Each row is type one-hot ⊕ DRNL one-hot ⊕ log-degree ⊕ the clipped
    level offsets to the subgraph's candidate driver (position 0) and
    consumer (position 1). The level offsets give the GNN the same
    locality signal the MLP features encode, without which D-MUX decoys
    are nearly indistinguishable. One vectorised pass over the
    concatenated node lists: one-hots via fancy indexing, degrees read
    from the CSR snapshot, level offsets via per-graph repeats.
    """
    if not subs:
        return np.zeros((0, subgraph_feature_dim(max_label)))
    gtype_idx = graph_type_indices(graph)
    indptr, _ = graph.csr()
    degrees = np.diff(indptr)
    levels = np.asarray(graph.levels, dtype=np.int64)
    counts = np.array([sub.n_nodes for sub in subs], dtype=np.int64)
    offsets = np.zeros(len(subs), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    ids = np.concatenate(
        [np.asarray(sub.node_ids, dtype=np.int64) for sub in subs]
    )
    drnl = np.concatenate([sub.drnl for sub in subs]).astype(np.intp)
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


#: dimensionality of :func:`link_feature_vector` (the keygate-free prefix)
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

    Slots: [Δ<=-2, Δ=-1, Δ=0, Δ=1, Δ=2, Δ=3, Δ>=4]. True wires sit at
    Δ≈1; D-MUX decoys drawn from arbitrary locations spread widely — the
    single strongest oracle-less signal against vanilla D-MUX.
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
    removed = graph.remove_undirected(u, v)
    try:
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
    finally:
        if removed:
            graph.restore_undirected(u, v)


def _bounded_distances_to(
    graph: ObservedGraph, src: int, targets: set[int], limit: int = 4
) -> dict[int, int]:
    """BFS distances from ``src`` to each target, truncated at ``limit``.

    Targets farther than ``limit`` are absent; read with
    ``dmap.get(node, limit + 1)`` to match :func:`_bounded_distance`
    (the observed graph is undirected, so distance is symmetric). The
    walk stops as soon as every target is resolved — at ``limit`` hops a
    neighbourhood can cover most of the circuit, so the early exit, not
    the map sharing, is what makes the batched extractor cheap.
    """
    adj = graph.adj
    dist = {src: 0}
    remaining = len(targets - {src})
    level = [src]
    for d in range(1, limit + 1):
        if not remaining or not level:
            break
        next_level: list[int] = []
        for node in level:
            for nxt in adj[node]:
                if nxt not in dist:
                    dist[nxt] = d
                    next_level.append(nxt)
                    if nxt in targets:
                        remaining -= 1
        level = next_level
    return dist


def link_feature_matrix(
    graph: ObservedGraph,
    pairs: list[tuple[int, int]],
    keygate_cols: bool = False,
) -> np.ndarray:
    """:func:`link_feature_vector` for many candidate links at once.

    Bit-identical to stacking the scalar extractor row by row (the
    vectorised columns run the same numpy ops elementwise; the set
    statistics keep the scalar path's iteration and summation order),
    but shares per-call caches across pairs: neighbour-type histograms
    and inverse-log-degree terms per node, one early-exit distance BFS
    per consumer instead of one full bounded BFS per pair. Pairs that
    exist as observed edges take the scalar path, which masks the edge
    before extracting (the SEAL convention) — masking would invalidate
    the shared caches.
    """
    n = len(pairs)
    out = np.zeros((n, link_feature_dim(keygate_cols)), dtype=np.float64)
    if not pairs:
        return out
    max_level = max(max(graph.levels), 1)
    levels = graph.levels
    gtypes = graph.gtypes
    adj = graph.adj
    hists: dict[int, np.ndarray] = {}
    inv_log_deg: dict[int, float] = {}
    gtype_idx = graph_type_indices(graph)

    def hist(node: int) -> np.ndarray:
        h = hists.get(node)
        if h is None:
            nbrs = adj[node]
            if nbrs:
                counts = np.bincount(
                    gtype_idx[list(nbrs)], minlength=N_TYPES
                ).astype(np.float64)
                h = counts / counts.sum()
            else:
                h = np.zeros(N_TYPES, dtype=np.float64)
            hists[node] = h
        return h

    # Partition: edge pairs fall back to the (masking) scalar extractor;
    # the rest group by consumer for one shared distance BFS each.
    fast: list[tuple[int, int, int]] = []
    by_consumer: dict[int, set[int]] = {}
    for row, (u, v) in enumerate(pairs):
        if v in adj[u]:
            out[row] = link_feature_vector(graph, u, v, keygate_cols=keygate_cols)
        else:
            fast.append((row, u, v))
            by_consumer.setdefault(v, set()).add(u)
    if keygate_cols:
        for row, u, v in fast:
            _write_keygate_cols(graph, out[row], u, v)
    if not fast:
        return out

    dists: dict[tuple[int, int], int] = {}
    for v, targets in by_consumer.items():
        dmap = _bounded_distances_to(graph, v, targets, limit=4)
        for u in targets:
            dists[(u, v)] = dmap.get(u, 5)

    m = len(fast)
    rows = np.empty(m, dtype=np.intp)
    tu = np.empty(m, dtype=np.intp)
    tv = np.empty(m, dtype=np.intp)
    deg_u = np.empty(m, dtype=np.int64)
    deg_v = np.empty(m, dtype=np.int64)
    lev_u = np.empty(m, dtype=np.int64)
    lev_v = np.empty(m, dtype=np.int64)
    dist_slot = np.empty(m, dtype=np.intp)
    for j, (row, u, v) in enumerate(fast):
        rows[j] = row
        tu[j] = gtype_idx[u]
        tv[j] = gtype_idx[v]
        du, dv = len(adj[u]), len(adj[v])
        deg_u[j] = du
        deg_v[j] = dv
        lev_u[j] = levels[u]
        lev_v[j] = levels[v]
        dist = dists[(u, v)]
        dist_slot[j] = dist if dist < 5 else 5

        feats = out[row]
        common = adj[u] & adj[v]
        # |u ∪ v| = deg(u) + deg(v) − |u ∩ v|: the same integer the
        # scalar path gets from building the union set.
        n_union = du + dv - len(common)
        feats[2 * N_TYPES + 3] = float(len(common))
        feats[2 * N_TYPES + 4] = len(common) / n_union if n_union else 0.0
        aa = 0
        for w in common:  # same set expression as the scalar path, so
            if len(adj[w]) > 1:  # the summation order matches exactly
                term = inv_log_deg.get(w)
                if term is None:
                    term = inv_log_deg[w] = 1.0 / np.log1p(len(adj[w]))
                aa = aa + term
        feats[2 * N_TYPES + 5] = float(aa)

        feats[LINK_FEATURE_DIM - 2 * N_TYPES : LINK_FEATURE_DIM - N_TYPES] = hist(u)
        feats[LINK_FEATURE_DIM - N_TYPES : LINK_FEATURE_DIM] = hist(v)

    # Vectorised columns: elementwise ufuncs/divisions reproduce the
    # scalar per-pair values bit for bit.
    out[rows, tu] = 1.0
    out[rows, N_TYPES + tv] = 1.0
    base = 2 * N_TYPES
    out[rows, base + 0] = np.log1p(deg_u)
    out[rows, base + 1] = np.log1p(deg_v)
    out[rows, base + 2] = np.log1p(np.minimum(deg_u, deg_v))
    base += 6  # common-neighbour stats already written in the loop
    out[rows, base + dist_slot] = 1.0
    base += 6
    delta_slot = np.clip(lev_v - lev_u + 2, 0, 6)
    out[rows, base + delta_slot] = 1.0
    base += 7
    out[rows, base + 0] = lev_u / max_level
    out[rows, base + 1] = lev_v / max_level
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
