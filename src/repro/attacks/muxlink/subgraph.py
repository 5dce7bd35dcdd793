"""Enclosing-subgraph extraction with DRNL labels (SEAL / MuxLink style).

For a candidate link ``(u, v)`` the GNN operates on the ``h``-hop
enclosing subgraph around the pair. Nodes carry Double-Radius Node Labels
(DRNL, Zhang & Chen 2018): a structural role label derived from each
node's distances to ``u`` and ``v``, which is what lets a link predictor
generalise across locations in the netlist.

A batch comes back as one :class:`SubgraphBatch`, which the GNN reads
as is. Per-pair BFS state is sorted keys ``pair * n + node``, so memory
grows with the subgraphs found, not with pairs × graph nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.muxlink.graph import ObservedGraph


@dataclass(frozen=True)
class SubgraphBatch:
    """The enclosing subgraphs of a batch of candidate links, stacked.

    Pair ``b`` owns rows ``offsets[b]:offsets[b + 1]``. ``node_ids`` are
    indices into the parent :class:`ObservedGraph`, a block's rows 0 and
    1 its ``u`` and ``v``; ``drnl`` the per-row labels, capped at
    ``max_label`` (0 = unreachable from one endpoint). ``(indptr,
    indices)`` is the block-diagonal ``A + I`` in CSR, columns ascending.
    """

    node_ids: np.ndarray
    offsets: np.ndarray
    drnl: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1


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


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Last index of each key in non-empty ``sorted_keys``, or −1."""
    at = np.searchsorted(sorted_keys, keys, side="right") - 1
    return np.where((at >= 0) & (sorted_keys[at] == keys), at, -1)


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
    graph). Returns ``(keys, dist)``: the sorted keys of every node a
    pair's BFS reached and its distance, on a graph with that pair's
    undirected candidate edge removed.
    """
    frontier_pid = np.arange(starts.size, dtype=np.int64)
    frontier_node = starts.copy()
    keys = frontier_pid * n + frontier_node
    dist = np.zeros(keys.size, dtype=np.int64)
    for depth in range(1, max_depth + 1):
        row_start = indptr[frontier_node]
        row_len = indptr[frontier_node + 1] - row_start
        nbrs = _gather_slices(row_start, row_len, indices)
        pids = np.repeat(frontier_pid, row_len)
        srcs = np.repeat(frontier_node, row_len)
        keep = ~(
            ((srcs == starts[pids]) & (nbrs == mates[pids]))
            | ((srcs == mates[pids]) & (nbrs == starts[pids]))
        )
        new = pids[keep] * n + nbrs[keep]
        new = np.unique(new[_find(keys, new) < 0])
        if new.size == 0:
            break
        at = np.searchsorted(keys, new)
        keys = np.insert(keys, at, new)
        dist = np.insert(dist, at, depth)
        frontier_pid = new // n
        frontier_node = new - frontier_pid * n
    return keys, dist


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


def extract_enclosing_subgraphs(
    graph: ObservedGraph,
    pairs: list[tuple[int, int]],
    hops: int = 2,
    max_nodes: int = 120,
    max_label: int = 8,
) -> SubgraphBatch:
    """The ``hops``-hop enclosing subgraph of every candidate link (u, v).

    Each pair's (u, v) edge — if present — is excluded from both the
    adjacency and the distance computation, per the SEAL protocol.
    Oversized neighbourhoods are truncated deterministically, keeping the
    nodes closest to either endpoint (ties broken by node id).

    The work is amortised across the whole batch: one CSR adjacency
    snapshot (:meth:`ObservedGraph.csr`) shared by every pair, every
    pair's bounded BFS advanced together one level at a time over flat
    sorted keys (:func:`_batch_bounded_bfs`), one lexsort
    ordering/truncating all neighbourhoods at once, and the DRNL
    distance passes run on the stacked block-diagonal subgraphs
    (:func:`_block_distances`) instead of per pair.
    """
    n = graph.n_nodes
    indptr, indices = graph.csr()
    n_pairs = len(pairs)
    pair_arr = np.asarray(pairs, dtype=np.int64).reshape(n_pairs, 2)
    u_arr, v_arr = pair_arr[:, 0], pair_arr[:, 1]

    keys_u, dist_u = _batch_bounded_bfs(indptr, indices, n, u_arr, v_arr, hops)
    keys_v, dist_v = _batch_bounded_bfs(indptr, indices, n, v_arr, u_arr, hops)

    # -- members of every pair's neighbourhood, ordered and truncated --
    mem_keys = np.union1d(keys_u, keys_v)
    mem_pid = mem_keys // n
    mem_node = mem_keys - mem_pid * n
    not_endpoint = (mem_node != u_arr[mem_pid]) & (mem_node != v_arr[mem_pid])
    mem_keys = mem_keys[not_endpoint]
    mem_pid = mem_pid[not_endpoint]
    mem_node = mem_node[not_endpoint]
    unreachable = hops + 1
    at_u, at_v = _find(keys_u, mem_keys), _find(keys_v, mem_keys)
    du_m = np.where(at_u >= 0, dist_u[at_u], unreachable)
    dv_m = np.where(at_v >= 0, dist_v[at_v], unreachable)
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
    offsets = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(n_sub, out=offsets[1:])
    starts = offsets[:-1]
    n_total = int(offsets[-1])
    all_nodes = np.empty(n_total, dtype=np.int64)
    all_nodes[starts] = u_arr
    all_nodes[starts + 1] = v_arr
    interior = np.ones(n_total, dtype=bool)
    interior[starts] = False
    interior[starts + 1] = False
    all_nodes[interior] = kept_node
    all_pids = np.repeat(np.arange(n_pairs, dtype=np.int64), n_sub)
    all_pos = np.arange(n_total, dtype=np.int64) - np.repeat(starts, n_sub)
    # Row of (pair, node) by key lookup; a node listed twice in a block
    # (u == v) resolves to its later row.
    node_keys = all_pids * n + all_nodes
    by_key = np.argsort(node_keys, kind="stable")
    row_keys = node_keys[by_key]

    # -- block-diagonal edge list of all induced subgraphs -------------
    row_start = indptr[all_nodes]
    row_len = indptr[all_nodes + 1] - row_start
    nb = _gather_slices(row_start, row_len, indices)
    t_src = np.repeat(np.arange(n_total, dtype=np.int64), row_len)
    at = _find(row_keys, np.repeat(all_pids, row_len) * n + nb)
    t_tgt = by_key[at]
    t_tgt_pos = t_tgt - np.repeat(starts[all_pids], row_len)
    t_src_pos = np.repeat(all_pos, row_len)
    inside = (at >= 0) & ~(  # candidate edge excluded per SEAL
        ((t_src_pos == 0) & (t_tgt_pos == 1))
        | ((t_src_pos == 1) & (t_tgt_pos == 0))
    )
    rows_g = t_src[inside]
    cols_g = t_tgt[inside]

    # -- DRNL from distances inside the induced subgraphs --------------
    du_all = _block_distances(rows_g, cols_g, n_total, starts)
    dv_all = _block_distances(rows_g, cols_g, n_total, starts + 1)
    labels_all = drnl_from_distances(du_all, dv_all, max_label)

    # -- CSR of A + I, columns ascending per row ------------------------
    flat = np.concatenate(
        (rows_g * n_total + cols_g, np.arange(n_total) * (n_total + 1))
    )
    flat.sort()
    csr_indptr = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_g, minlength=n_total) + 1, out=csr_indptr[1:])
    return SubgraphBatch(
        node_ids=all_nodes,
        offsets=offsets,
        drnl=labels_all,
        indptr=csr_indptr,
        indices=flat % n_total,
    )
