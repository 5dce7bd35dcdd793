"""Enclosing-subgraph extraction with DRNL labels (SEAL / MuxLink style).

For a candidate link ``(u, v)`` the GNN operates on the ``h``-hop
enclosing subgraph around the pair. Nodes carry Double-Radius Node Labels
(DRNL, Zhang & Chen 2018): a structural role label derived from each
node's distances to ``u`` and ``v``, which is what lets a link predictor
generalise across locations in the netlist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.muxlink.graph import ObservedGraph


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


def drnl_from_distances(du: np.ndarray, dv: np.ndarray, max_label: int) -> np.ndarray:
    """DRNL label per node from distances to the two endpoints.

    ``f(x) = 1 + min(du, dv) + (d//2) * (d//2 + d%2 - 1)`` with
    ``d = du + dv``; endpoints get 1, unreachable nodes 0, everything
    clipped to ``max_label``.
    """
    du = du.astype(np.int64)
    dv = dv.astype(np.int64)
    labels = np.zeros(len(du), dtype=np.int64)
    reachable = (du >= 0) & (dv >= 0)
    d = du + dv
    half = d // 2
    raw = 1 + np.minimum(du, dv) + half * (half + d % 2 - 1)
    labels[reachable] = raw[reachable]
    labels[~reachable] = 0
    # Endpoints always get label 1, even if the counterpart endpoint is
    # unreachable once the candidate edge is excluded.
    labels[(du == 0) | (dv == 0)] = 1
    return np.clip(labels, 0, max_label)


def _gather_slices(
    starts: np.ndarray, counts: np.ndarray, source: np.ndarray
) -> np.ndarray:
    """Concatenate ``source[starts[i] : starts[i] + counts[i]]`` for all i.

    The vectorised multi-slice gather: one fancy index instead of a
    python loop of slice copies.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    cum_excl = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=cum_excl[1:])
    return source[np.repeat(starts - cum_excl, counts) + np.arange(total)]


def _batch_bounded_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    starts: np.ndarray,
    mates: np.ndarray,
    max_depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded BFS from ``starts[b]`` for every pair b, all pairs at once.

    Pair b's traversal lives at flat keys ``b * n + node``; each level
    expands every pair's frontier in one multi-slice gather, masking
    pair b's candidate edge ``(starts[b], mates[b])`` in both directions
    (the SEAL exclusion, applied logically instead of mutating the
    graph). Returns flat ``(visited, dist)`` arrays of size B*n: per
    pair, the bounded BFS distances on a graph with that pair's
    undirected candidate edge removed.
    """
    n_pairs = starts.size
    visited = np.zeros(n_pairs * n, dtype=bool)
    dist = np.zeros(n_pairs * n, dtype=np.int64)
    frontier_pid = np.arange(n_pairs, dtype=np.int64)
    frontier_node = starts.copy()
    visited[frontier_pid * n + frontier_node] = True
    for depth in range(1, max_depth + 1):
        row_start = indptr[frontier_node]
        row_len = indptr[frontier_node + 1] - row_start
        nbrs = _gather_slices(row_start, row_len, indices)
        if nbrs.size == 0:
            break
        pids = np.repeat(frontier_pid, row_len)
        srcs = np.repeat(frontier_node, row_len)
        keep = ~(
            ((srcs == starts[pids]) & (nbrs == mates[pids]))
            | ((srcs == mates[pids]) & (nbrs == starts[pids]))
        )
        keys = pids[keep] * n + nbrs[keep]
        keys = np.unique(keys[~visited[keys]])
        if keys.size == 0:
            break
        visited[keys] = True
        dist[keys] = depth
        frontier_pid = keys // n
        frontier_node = keys - frontier_pid * n
    return visited, dist


def _block_distances(
    rows: np.ndarray, cols: np.ndarray, n_total: int, starts: np.ndarray
) -> np.ndarray:
    """BFS distances inside stacked induced subgraphs (−1 = unreachable).

    ``(rows, cols)`` is the edge list of the block-diagonal adjacency
    over all subgraphs; blocks never touch, so seeding one start per
    block runs every per-subgraph BFS simultaneously.
    """
    dist = np.full(n_total, -1, dtype=np.int64)
    frontier = np.zeros(n_total, dtype=bool)
    frontier[starts] = True
    dist[starts] = 0
    depth = 0
    while True:
        depth += 1
        cand = cols[frontier[rows]]
        cand = cand[dist[cand] < 0]
        if cand.size == 0:
            return dist
        cand = np.unique(cand)
        dist[cand] = depth
        frontier[:] = False
        frontier[cand] = True


#: cap on the flat per-chunk BFS state (pairs x graph nodes); batches
#: larger than this are processed in chunks to bound memory.
_CHUNK_CELLS = 2_000_000


def extract_enclosing_subgraphs(
    graph: ObservedGraph,
    pairs: list[tuple[int, int]],
    hops: int = 2,
    max_nodes: int = 120,
    max_label: int = 8,
) -> list[EnclosingSubgraph]:
    """The ``hops``-hop enclosing subgraph of every candidate link (u, v).

    Each pair's (u, v) edge — if present — is excluded from both the
    adjacency and the distance computation, per the SEAL protocol.
    Oversized neighbourhoods are truncated deterministically, keeping the
    nodes closest to either endpoint (ties broken by node id).

    The work is amortised across the whole batch: one CSR adjacency
    snapshot (:meth:`ObservedGraph.csr`) shared by every pair, every
    pair's bounded BFS advanced together one level at a time over flat
    int arrays (:func:`_batch_bounded_bfs`), one lexsort
    ordering/truncating all neighbourhoods at once, and the DRNL
    distance passes run on the stacked block-diagonal subgraphs
    (:func:`_block_distances`) instead of per pair.
    """
    if not pairs:
        return []
    n = graph.n_nodes
    chunk = max(1, _CHUNK_CELLS // max(n, 1))
    if len(pairs) > chunk:
        out: list[EnclosingSubgraph] = []
        for at in range(0, len(pairs), chunk):
            out.extend(
                extract_enclosing_subgraphs(
                    graph, pairs[at : at + chunk], hops, max_nodes, max_label
                )
            )
        return out

    indptr, indices = graph.csr()
    n_pairs = len(pairs)
    pair_arr = np.asarray(pairs, dtype=np.int64)
    u_arr, v_arr = pair_arr[:, 0], pair_arr[:, 1]

    visited_u, dist_u = _batch_bounded_bfs(indptr, indices, n, u_arr, v_arr, hops)
    visited_v, dist_v = _batch_bounded_bfs(indptr, indices, n, v_arr, u_arr, hops)

    # -- members of every pair's neighbourhood, ordered and truncated --
    mem_keys = np.flatnonzero(visited_u | visited_v)
    mem_pid = mem_keys // n
    mem_node = mem_keys - mem_pid * n
    not_endpoint = (mem_node != u_arr[mem_pid]) & (mem_node != v_arr[mem_pid])
    mem_keys = mem_keys[not_endpoint]
    mem_pid = mem_pid[not_endpoint]
    mem_node = mem_node[not_endpoint]
    unreachable = hops + 1
    du_m = np.where(visited_u[mem_keys], dist_u[mem_keys], unreachable)
    dv_m = np.where(visited_v[mem_keys], dist_v[mem_keys], unreachable)
    # Order by (min endpoint distance, node id) within each pair, in a
    # single lexsort over the batch.
    order = np.lexsort((mem_node, np.minimum(du_m, dv_m), mem_pid))
    sorted_pid = mem_pid[order]
    group_start = np.flatnonzero(
        np.concatenate(([True], sorted_pid[1:] != sorted_pid[:-1]))
    )
    group_len = np.diff(np.concatenate((group_start, [sorted_pid.size])))
    rank = np.arange(sorted_pid.size) - np.repeat(group_start, group_len)
    keep = rank < max(0, max_nodes - 2)
    kept_pid = sorted_pid[keep]
    kept_node = mem_node[order][keep]

    # -- stacked node lists: positions 0/1 are the endpoints -----------
    n_sub = np.bincount(kept_pid, minlength=n_pairs) + 2
    offsets = np.zeros(n_pairs, dtype=np.int64)
    np.cumsum(n_sub[:-1], out=offsets[1:])
    n_total = int(n_sub.sum())
    all_nodes = np.empty(n_total, dtype=np.int64)
    all_nodes[offsets] = u_arr
    all_nodes[offsets + 1] = v_arr
    interior = np.ones(n_total, dtype=bool)
    interior[offsets] = False
    interior[offsets + 1] = False
    all_nodes[interior] = kept_node
    all_pids = np.repeat(np.arange(n_pairs, dtype=np.int64), n_sub)
    all_pos = np.arange(n_total, dtype=np.int64) - np.repeat(offsets, n_sub)
    pos_flat = np.full(n_pairs * n, -1, dtype=np.int64)
    pos_flat[all_pids * n + all_nodes] = all_pos

    # -- block-diagonal edge list of all induced subgraphs -------------
    row_start = indptr[all_nodes]
    row_len = indptr[all_nodes + 1] - row_start
    nb = _gather_slices(row_start, row_len, indices)
    t_src = np.repeat(np.arange(n_total, dtype=np.int64), row_len)
    t_tgt_pos = pos_flat[np.repeat(all_pids, row_len) * n + nb]
    t_src_pos = np.repeat(all_pos, row_len)
    inside = (t_tgt_pos >= 0) & ~(  # candidate edge excluded per SEAL
        ((t_src_pos == 0) & (t_tgt_pos == 1))
        | ((t_src_pos == 1) & (t_tgt_pos == 0))
    )
    rows_g = t_src[inside]
    cols_g = np.repeat(offsets[all_pids], row_len)[inside] + t_tgt_pos[inside]

    # -- DRNL from distances inside the induced subgraphs --------------
    du_all = _block_distances(rows_g, cols_g, n_total, offsets)
    dv_all = _block_distances(rows_g, cols_g, n_total, offsets + 1)
    labels_all = drnl_from_distances(du_all, dv_all, max_label)

    # -- materialise per-pair dense adjacency + dataclass --------------
    edge_seg = np.searchsorted(rows_g, np.concatenate((offsets, [n_total])))
    out = []
    for b in range(n_pairs):
        lo, hi = int(edge_seg[b]), int(edge_seg[b + 1])
        size = int(n_sub[b])
        base = int(offsets[b])
        adj = np.zeros((size, size), dtype=np.float64)
        adj[rows_g[lo:hi] - base, cols_g[lo:hi] - base] = 1.0
        out.append(
            EnclosingSubgraph(
                node_ids=all_nodes[base : base + size].tolist(),
                adj=adj,
                drnl=labels_all[base : base + size],
            )
        )
    return out
