"""Message-passing GNN link predictor (DGCNN-style, pure numpy).

Mirrors the published MuxLink architecture at reduced scale: stacked
graph-convolution layers over the DRNL-labelled enclosing subgraph, a
centre+mean readout, and an MLP head. The readout replaces DGCNN's
SortPooling: it is fixed-width without a sort, its gradient is a
one-line hand derivation, and the two endpoint rows keep the candidate
link's identity. Forward and backward passes are hand-derived; the
test suite validates them against finite differences.

Per layer (``S`` = row-normalised adjacency with self-loops, a constant):

.. math::  Z_l = \\tanh(S\\, Z_{l-1} W_l)

with gradients ``dW_l = (S Z_{l-1})^T dA`` and
``dZ_{l-1} = S^T (dA W_l^T)`` where ``dA = dZ_l · (1 - Z_l²)``.
``Z_0 = X`` are the node features, a constant, so layer 0 takes
``S X`` pre-aggregated and its input gradient is never formed: a step
of an L-layer stack costs ``2(L-1)`` sparse products (4 for the default
three layers), half with ``S`` and half with ``S^T``.

Scoring and training are batched and prepared once: a fit (or one
``score_links`` call) extracts its enclosing subgraphs in one
vectorised pass as one stacked ``SubgraphBatch``, then reads their
features, one block-diagonal sparse operator (:class:`_BlockDiagAdj`,
the batch's CSR of ``A + I``, rows scaled) and ``S X`` off it — once,
not per step. A training minibatch slices its blocks out of those with
:meth:`_BlockDiagAdj.select`, one orientation only: every block is
symmetric, so ``S^T`` shares the slice's CSR pattern, and one
segment-sum plan (:class:`_SegmentPlan`, built on the step's first
product) serves all four products. The conv stack runs once over the
stacked node set, and the centre+mean readout feeds the MLP head one
``(B, 3·emb)`` batch. Three references live in
``tests/reference/`` as differential oracles: the ``reduceat`` product
and column-sorted transpose (bitwise equal), a trainer that rebuilds
features and operators per minibatch from dense blocks (bitwise
equal), and the one-subgraph-at-a-time dense path (the batched
reductions reassociate floating-point sums, so the two agree to ~1e-9
in the logits, not bitwise).
"""

from __future__ import annotations

import time

import numpy as np

from repro.attacks.muxlink.features import (
    make_training_pairs,
    subgraph_feature_dim,
    subgraph_feature_matrix_stack,
)
from repro.attacks.muxlink.graph import ObservedGraph
from repro.attacks.muxlink.subgraph import (
    SubgraphBatch,
    extract_enclosing_subgraphs,
)
from repro.errors import AttackError
from repro.obs import metrics as obs_metrics
from repro.registry import register_predictor
from repro.ml.layers import Linear, Param, ReLU
from repro.ml.losses import bce_with_logits
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.utils.rng import derive_rng, spawn_seeds

#: batch-size buckets for the links-per-call histogram (powers of two,
#: not latencies).
_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

_GNN_BATCH_LINKS = obs_metrics.METRICS.histogram(
    "autolock_gnn_batch_links",
    "Candidate links per GnnLinkPredictor.score_links call",
    buckets=_SIZE_BUCKETS,
)
_GNN_STAGE_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_gnn_score_seconds",
    "Batched GNN scoring wall time split by stage",
    labels=("stage",),
)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, b) for a, b in zip(lo, hi)])``, vectorised."""
    lengths = hi - lo
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(lo - (ends - lengths), lengths)


#: rows of at most this many terms are summed by :class:`_SegmentPlan`.
#: ``np.add.reduceat`` sums a row of n terms as ``c0 + pairwise(c1..)``,
#: and numpy's pairwise sum is a plain left-to-right loop below 8 terms;
#: from 8 on it switches to 8 accumulators, so longer rows keep it.
_SHORT = 8


class _SegmentPlan:
    """How :meth:`_BlockDiagAdj.__matmul__` sums each row's terms.

    Built from the sparsity pattern alone, so ``s`` and ``s.T`` (same
    ``indptr`` and ``indices``) share one. Rows are stably sorted by
    non-zero count, longest first: the rows owning a ``k``-th term are
    then a prefix of the short rows (at most :data:`_SHORT` terms).
    ``perm`` lists CSR positions term-major — every short row's term 0,
    then term 1 of the first rows that have one, ... up to term 7 (the
    ``(rows, slice)`` pairs in ``terms``) — then the long rows' ranges
    back to back, summed by ``np.add.reduceat`` at ``long_starts`` from
    ``long_at`` on. ``cols`` is ``indices[perm]``; ``unsort`` takes the
    sorted row sums back to row order.
    """

    __slots__ = ("perm", "cols", "n_short", "terms", "long_at",
                 "long_starts", "unsort")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        neg = indptr[:-1] - indptr[1:]
        by_count = np.argsort(neg, kind="stable")
        # more[k] = rows with more than k terms
        more = np.searchsorted(neg[by_count], -np.arange(_SHORT + 1)).tolist()
        n_long = more[_SHORT]
        self.n_short = at = more[0] - n_long
        first = indptr[by_count[n_long:]]
        parts = [first]
        self.terms: list[tuple[int, slice]] = []
        for k in range(1, _SHORT):
            rows = more[k] - n_long
            if not rows:
                break
            parts.append(first[:rows] + k)
            self.terms.append((rows, slice(at, at + rows)))
            at += rows
        self.long_at = at
        self.long_starts = None
        if n_long:
            long_rows = by_count[:n_long]
            lo, hi = indptr[long_rows], indptr[long_rows + 1]
            self.long_starts = np.cumsum(hi - lo) - (hi - lo)
            parts.append(_ranges(lo, hi))
        self.perm = np.concatenate(parts)
        self.cols = indices[self.perm]
        self.unsort = np.empty_like(by_count)
        self.unsort[by_count] = np.arange(by_count.size)


class _BlockDiagAdj:
    """Block-diagonal row-normalised adjacency over stacked subgraphs.

    CSR-encoded so a batch of B subgraphs costs one sparse matmul per
    conv layer instead of B dense ones. Supports ``s @ z`` and
    ``s.T @ z``, which is all :class:`_GraphConvStack` needs — the stack
    runs unchanged over a single dense adjacency or a whole batch.
    ``offsets[b]`` is block ``b``'s first row (``offsets[-1] == n``): a
    block's rows and nonzeros are one contiguous range, which
    :meth:`select` slices.

    Every block is symmetric (a subgraph's adjacency plus self-loops),
    so ``s.T`` has the ``indptr`` and ``indices`` of ``s``
    and shares its :class:`_SegmentPlan`. Its data is ``diag(s)`` at the
    column, ``1/deg_j``, which row ``j`` of ``s`` holds in every non-zero.

    A product sums each row's terms in ``np.add.reduceat``'s order, so
    it is bit for bit the plain CSR segment sum: ``c0 + ((c1 + c2) +
    …)`` for rows of up to :data:`_SHORT` terms, one vector operation
    per term index over a prefix of the count-sorted rows, and
    ``np.add.reduceat`` itself over the longer rows only.
    """

    __slots__ = ("n", "indptr", "indices", "data", "offsets", "_t", "_plan")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.n = indptr.size - 1
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.offsets = offsets
        self._t: _BlockDiagAdj | None = None
        self._plan: _SegmentPlan | None = None

    @classmethod
    def from_batch(cls, batch: SubgraphBatch) -> _BlockDiagAdj:
        """Row-normalised ``A + I`` over ``batch``: a row sums to its
        non-zero count, an exact integer, so ``1 / row_nnz`` is exact."""
        row_nnz = np.diff(batch.indptr)
        data = np.repeat(1.0 / row_nnz, row_nnz)
        return cls(batch.indptr, batch.indices, data, batch.offsets)

    @property
    def plan(self) -> _SegmentPlan:
        if self._plan is None:
            self._plan = _SegmentPlan(self.indptr, self.indices)
        return self._plan

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        plan = self.plan
        contrib = z.take(plan.cols, axis=0)
        contrib *= self.data[plan.perm][:, None]
        sums = contrib[: plan.n_short]
        if plan.terms:
            (rows, at), *rest = plan.terms
            tail = contrib[at]
            for rows_k, at_k in rest:
                tail[:rows_k] += contrib[at_k]
            sums[:rows] += tail
        if plan.long_starts is not None:
            long_sums = np.add.reduceat(
                contrib[plan.long_at :], plan.long_starts, axis=0
            )
            sums = np.concatenate([long_sums, sums])
        return sums.take(plan.unsort, axis=0)

    @property
    def T(self) -> _BlockDiagAdj:
        if self._t is None:
            self._t = _BlockDiagAdj(
                self.indptr,
                self.indices,
                self.data[self.indptr[:-1]][self.indices],
                self.offsets,
            )
            self._t._plan, self._t._t = self.plan, self
        return self._t

    def select(self, blocks: np.ndarray) -> tuple[_BlockDiagAdj, np.ndarray]:
        """The operator over ``blocks`` (in that order) and its rows here.

        Array for array equal to :meth:`from_batch` over the chosen
        subgraphs, in both orientations: each block's row and nonzero
        ranges are concatenated and re-offset, with no ``nonzero``. Its
        transpose follows from the symmetric-block rule and shares its
        one :class:`_SegmentPlan`, so a training step builds one
        orientation and one plan for its four sparse products. The
        second value indexes this operator's rows, for gathering
        row-aligned data such as layer 0's ``S X``.
        """
        lo, hi = self.offsets[blocks], self.offsets[blocks + 1]
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(hi - lo, out=offsets[1:])
        rows = _ranges(lo, hi)
        nz_lo, nz_hi = self.indptr[lo], self.indptr[hi]
        nz = _ranges(nz_lo, nz_hi)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(self.indptr[rows + 1] - self.indptr[rows], out=indptr[1:])
        indices = self.indices[nz] + np.repeat(offsets[:-1] - lo, nz_hi - nz_lo)
        return _BlockDiagAdj(indptr, indices, self.data[nz], offsets), rows


class _GraphConvStack:
    """Stacked tanh graph convolutions with manual backprop.

    ``s`` may be a dense ``(n, n)`` row-normalised adjacency or a
    :class:`_BlockDiagAdj` over a stacked batch — forward and backward
    only ever use ``s @ z`` and ``s.T @ z``. Layer 0 takes its input
    already aggregated (``sx = s @ x``: the features are constants, so
    the caller prepares it once), and backward skips layer 0's input
    gradient, which nothing reads. A step of L layers thus costs
    ``L - 1`` sparse products forward and ``L - 1`` backward.
    """

    def __init__(self, in_dim: int, hidden_dims: tuple[int, ...], seed_or_rng=None):
        rng = derive_rng(seed_or_rng)
        self.weights: list[Param] = []
        prev = in_dim
        for i, dim in enumerate(hidden_dims):
            bound = np.sqrt(6.0 / (prev + dim))
            self.weights.append(
                Param(rng.uniform(-bound, bound, size=(prev, dim)), name=f"gc{i}.W")
            )
            prev = dim
        self.out_dim = int(sum(hidden_dims))
        self._cache: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._s: np.ndarray | _BlockDiagAdj | None = None

    def forward(
        self, s: np.ndarray | _BlockDiagAdj, sx: np.ndarray
    ) -> np.ndarray:
        """Per-node embeddings (concat of all layer outputs) from ``s @ x``."""
        self._s = s
        self._cache = []
        sz = sx
        outs = []
        for layer, w in enumerate(self.weights):
            if layer:
                sz = s @ outs[-1]
            z = np.tanh(sz @ w.value)
            self._cache.append((sz, z))
            outs.append(z)
        return np.concatenate(outs, axis=1)

    def backward(self, d_h: np.ndarray) -> None:
        """Accumulate weight gradients from the concatenated embedding grad."""
        assert self._cache is not None and self._s is not None, "backward before forward"
        # Split d_h back into per-layer chunks.
        chunks: list[np.ndarray] = []
        start = 0
        for w in self.weights:
            dim = w.value.shape[1]
            chunks.append(d_h[:, start : start + dim])
            start += dim
        carry: np.ndarray | None = None
        for layer in range(len(self.weights) - 1, -1, -1):
            sz, z = self._cache[layer]
            dz = chunks[layer] if carry is None else chunks[layer] + carry
            da = dz * (1.0 - z**2)
            self.weights[layer].grad += sz.T @ da
            if layer:
                carry = self._s.T @ (da @ self.weights[layer].value.T)

    def params(self) -> list[Param]:
        return list(self.weights)


@register_predictor("gnn")
class GnnLinkPredictor:
    """Enclosing-subgraph GNN with centre+mean readout and MLP head."""

    name = "gnn"

    def __init__(
        self,
        hidden_dims: tuple[int, ...] = (32, 32, 16),
        mlp_hidden: int = 32,
        hops: int = 2,
        epochs: int = 12,
        lr: float = 5e-3,
        n_train: int = 220,
        max_nodes: int = 100,
        max_label: int = 8,
    ) -> None:
        self.hidden_dims = hidden_dims
        self.mlp_hidden = mlp_hidden
        self.hops = hops
        self.epochs = epochs
        self.lr = lr
        self.n_train = n_train
        self.max_nodes = max_nodes
        self.max_label = max_label
        self._graph: ObservedGraph | None = None
        self._conv: _GraphConvStack | None = None
        self._head: Sequential | None = None
        self.train_history: list[float] = []

    # -- model plumbing ------------------------------------------------
    def _feature_dim(self) -> int:
        return subgraph_feature_dim(self.max_label)

    def _build(self, seed_or_rng) -> None:
        rng = derive_rng(seed_or_rng)
        seeds = spawn_seeds(rng, 3)
        self._conv = _GraphConvStack(self._feature_dim(), self.hidden_dims, seeds[0])
        emb = self._conv.out_dim
        self._head = Sequential(
            [
                Linear(3 * emb, self.mlp_hidden, seed_or_rng=seeds[1], name="h1"),
                ReLU(),
                Linear(self.mlp_hidden, 1, seed_or_rng=seeds[2], name="out"),
            ]
        )

    def _prepare(
        self, batch: SubgraphBatch
    ) -> tuple[_BlockDiagAdj, np.ndarray]:
        """The block-diagonal ``S`` over ``batch`` and layer 0's ``S X``.

        Built once per fit or scoring call; training steps slice both
        with :meth:`_BlockDiagAdj.select`.
        """
        s = _BlockDiagAdj.from_batch(batch)
        return s, s @ subgraph_feature_matrix_stack(
            self._graph, batch, self.max_label
        )

    def _forward_batch(
        self, s: _BlockDiagAdj, sx: np.ndarray, train: bool = False
    ) -> tuple[np.ndarray, dict]:
        """Logits for the subgraphs behind ``s`` via one block-diagonal pass.

        The conv stack runs once over the stacked node set; the
        centre+mean readout is gathered with segment offsets (positions
        0/1 of each block are the candidate endpoints) so the MLP head
        scores all B logits in a single forward.
        """
        assert self._conv is not None and self._head is not None
        h = self._conv.forward(s, sx)  # (n_total, emb)
        counts = np.diff(s.offsets)
        offsets = s.offsets[:-1]
        means = np.add.reduceat(h, offsets, axis=0) / counts[:, None]
        readout = np.concatenate(
            [h[offsets], h[offsets + 1], means], axis=1
        )  # (B, 3*emb)
        logits = self._head.forward(readout, train=train)[:, 0]
        ctx = {"counts": counts, "offsets": offsets, "emb": h.shape[1]}
        return logits, ctx

    def _backward_batch(self, d_logits: np.ndarray, ctx: dict) -> None:
        """Backward through :meth:`_forward_batch` with segment bookkeeping."""
        assert self._conv is not None and self._head is not None
        d_read = self._head.backward(d_logits.reshape(-1, 1))  # (B, 3*emb)
        emb = ctx["emb"]
        counts, offsets = ctx["counts"], ctx["offsets"]
        # Mean-readout gradient spreads over each block's rows; the two
        # centre rows (segment offsets +0/+1, always distinct — every
        # subgraph holds both endpoints) add their direct terms.
        d_h = np.repeat(d_read[:, 2 * emb :] / counts[:, None], counts, axis=0)
        d_h[offsets] += d_read[:, :emb]
        d_h[offsets + 1] += d_read[:, emb : 2 * emb]
        self._conv.backward(d_h)

    def params(self) -> list[Param]:
        assert self._conv is not None and self._head is not None
        return self._conv.params() + self._head.params()

    # -- public API ------------------------------------------------------
    def fit(self, graph: ObservedGraph, seed_or_rng=None) -> None:
        """Self-supervised training on enclosing subgraphs of wire samples."""
        rng = derive_rng(seed_or_rng)
        self._graph = graph
        self._build(rng)
        pairs, labels = make_training_pairs(graph, self.n_train, rng)
        if not pairs:
            raise AttackError("observed graph has no wires to train on")
        s_all, sx_all = self._prepare(
            extract_enclosing_subgraphs(
                graph, pairs, self.hops, self.max_nodes, self.max_label
            )
        )
        optimizer = Adam(self.params(), lr=self.lr)
        self.train_history = []
        order = np.arange(len(pairs))
        batch = 8
        for _ in range(self.epochs):
            rng.shuffle(order)
            losses = []
            for start in range(0, len(order), batch):
                idx = order[start : start + batch]
                s, rows = s_all.select(idx)
                logits, ctx = self._forward_batch(s, sx_all[rows], train=True)
                # reduction="sum" makes the one batched backward
                # gradient-equivalent to len(idx) per-sample passes; the
                # repeated batch-mean keeps train_history the per-sample
                # epoch mean.
                loss_sum, d = bce_with_logits(
                    logits, labels[idx], reduction="sum"
                )
                self._backward_batch(d, ctx)
                losses.extend([loss_sum / len(idx)] * len(idx))
                optimizer.step()
            self.train_history.append(float(np.mean(losses)))

    def score_links(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Logits for many links in one block-diagonal batched pass."""
        if self._graph is None or self._conv is None:
            raise AttackError("predictor not fitted")
        _GNN_BATCH_LINKS.observe(len(pairs))
        if not pairs:
            # e.g. a mixed-alphabet genotype without a single MUX gene
            return np.zeros(0, dtype=np.float64)
        started = time.perf_counter()
        batch = extract_enclosing_subgraphs(
            self._graph, pairs, self.hops, self.max_nodes, self.max_label
        )
        _GNN_STAGE_SECONDS.observe(
            time.perf_counter() - started, stage="extract"
        )
        started = time.perf_counter()
        logits, _ = self._forward_batch(*self._prepare(batch))
        _GNN_STAGE_SECONDS.observe(
            time.perf_counter() - started, stage="forward"
        )
        return np.asarray(logits, dtype=np.float64)
