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

    Gate types never change after construction, so the cache needs no
    invalidation beyond a length check (nodes are append-only).
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


def _bounded_distances_to(
    adj: list[set[int]],
    src: int,
    targets: set[int],
    limit: int = 4,
    hidden: int | None = None,
) -> dict[int, int]:
    """BFS distances from ``src`` to each target, truncated at ``limit``.

    Targets farther than ``limit`` are absent; read with
    ``dmap.get(node, limit + 1)`` (the observed graph is undirected, so
    distance is symmetric). ``hidden`` names a neighbour of ``src``
    whose wire to ``src`` is not walked — the mask on a candidate link
    that is itself an observed wire. The walk stops as soon as every
    target is resolved: at ``limit`` hops a neighbourhood can cover most
    of the circuit, so the early exit is what makes the extractor cheap.
    """
    level = [w for w in adj[src] if w != hidden]
    dist = dict.fromkeys(level, 1)
    dist[src] = 0
    remaining = len(targets - dist.keys())
    for d in range(2, limit + 1):
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
    pair's distance BFS skips the wire. Common neighbours are unchanged
    (there are no self-loops). Unmasked pairs share one early-exit
    distance BFS per consumer.

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
    col = {name: s.start for name, s in feature_group_slices().items()}
    us = np.fromiter((u for u, _ in pairs), dtype=np.intp, count=n)
    vs = np.fromiter((v for _, v in pairs), dtype=np.intp, count=n)
    masked = [v in adj[u] for u, v in pairs]

    by_consumer: dict[int, set[int]] = {}
    for (u, v), m in zip(pairs, masked):
        if not m:
            by_consumer.setdefault(v, set()).add(u)
    dmaps = {
        v: _bounded_distances_to(adj, v, targets)
        for v, targets in by_consumer.items()
    }
    dist = np.fromiter(
        (
            _bounded_distances_to(adj, v, {u}, hidden=u).get(u, 5)
            if m
            else dmaps[v].get(u, 5)
            for (u, v), m in zip(pairs, masked)
        ),
        dtype=np.intp,
        count=n,
    )

    # Adamic-Adar terms are summed in the iteration order of the set
    # adj[u] & adj[v], as in the per-link reference extractor, so the
    # sums agree bit for bit.
    n_common = np.empty(n, dtype=np.int64)
    adamic_adar = np.empty(n, dtype=np.float64)
    inv_log_deg: dict[int, float] = {}
    for row, (u, v) in enumerate(pairs):
        common = adj[u] & adj[v]
        n_common[row] = len(common)
        aa = 0
        for w in common:
            if len(adj[w]) > 1:
                term = inv_log_deg.get(w)
                if term is None:
                    term = inv_log_deg[w] = 1.0 / np.log1p(len(adj[w]))
                aa = aa + term
        adamic_adar[row] = aa

    mask = np.array(masked, dtype=np.int64)
    deg_u = np.fromiter((len(adj[u]) for u, _ in pairs), np.int64, n) - mask
    deg_v = np.fromiter((len(adj[v]) for _, v in pairs), np.int64, n) - mask
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
    out[rows, col["distance"] + dist] = 1.0
    levels = np.asarray(graph.levels, dtype=np.int64)
    lev_u, lev_v = levels[us], levels[vs]
    out[rows, col["level_delta"] + np.clip(lev_v - lev_u + 2, 0, 6)] = 1.0
    max_level = max(int(levels.max()), 1)
    c = col["levels"]
    out[:, c + 0] = lev_u / max_level
    out[:, c + 1] = lev_v / max_level

    counts: dict[int, np.ndarray] = {}

    def type_counts(node: int) -> np.ndarray:
        h = counts.get(node)
        if h is None:
            h = counts[node] = np.bincount(
                gtype_idx[list(adj[node])], minlength=N_TYPES
            )
        return h

    edge_rows = np.flatnonzero(mask)
    hist_u = np.array([type_counts(u) for u, _ in pairs], dtype=np.float64)
    hist_v = np.array([type_counts(v) for _, v in pairs], dtype=np.float64)
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
