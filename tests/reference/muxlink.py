"""Per-link MuxLink references: subgraph extraction, GNN and Bayes scoring.

* :func:`extract_enclosing_subgraph` — one pair's enclosing subgraph by
  plain BFS on a graph with the candidate edge removed. Oracle for
  :func:`repro.attacks.muxlink.subgraph.extract_enclosing_subgraphs`
  (exact equality).
* :func:`subgraph_feature_matrix` — one subgraph's node features. Oracle
  for :func:`~repro.attacks.muxlink.features.subgraph_feature_matrix_stack`.
* :func:`gnn_score_link` / :func:`gnn_fit` — the one-subgraph-at-a-time
  GNN forward, backward and training loop, run on a
  :class:`~repro.attacks.muxlink.gnn.GnnLinkPredictor`'s own weights.
  The batched path reassociates floating-point sums, so it matches
  these to ~1e-9, not bitwise.
* :func:`bayes_score_link` — the per-link Bayes scorer. Oracle for
  :meth:`~repro.attacks.muxlink.bayes.BayesLinkPredictor.score_links`
  (bitwise equality).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.attacks.muxlink.bayes import _delta_bin
from repro.attacks.muxlink.features import (
    N_TYPES,
    make_training_pairs,
    subgraph_feature_dim,
    type_index,
)
from repro.attacks.muxlink.gnn import normalized_adjacency
from repro.attacks.muxlink.graph import ObservedGraph
from repro.attacks.muxlink.subgraph import EnclosingSubgraph, drnl_from_distances
from repro.ml.losses import bce_with_logits
from repro.ml.optim import Adam
from repro.utils.rng import derive_rng


# ---------------------------------------------------------------- subgraphs
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
    removed = graph.remove_undirected(u, v)
    try:
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
    finally:
        if removed:
            graph.restore_undirected(u, v)


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
def _gnn_forward(predictor, sub: EnclosingSubgraph) -> tuple[float, dict]:
    """Logit for one subgraph; returns the backward context."""
    x = subgraph_feature_matrix(predictor._graph, sub, predictor.max_label)
    h = predictor._conv.forward(normalized_adjacency(sub.adj), x)  # (n, emb)
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
    subs = [
        extract_enclosing_subgraph(
            graph, u, v, predictor.hops, predictor.max_nodes,
            predictor.max_label,
        )
        for u, v in pairs
    ]
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
