"""GNN link predictor internals: hand-derived gradients vs finite
differences, the prepared trainer vs the per-minibatch rebuild (bitwise),
the sparse products vs the plain ``reduceat`` product (bitwise), the
stacked subgraph batch vs the per-pair reference extractor, and the
batched pipeline vs the per-link reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from reference.muxlink import (
    block_diag_from_subgraphs,
    block_diag_matmul,
    block_diag_transpose,
    dense_blocks,
    extract_each,
    extract_enclosing_subgraph,
    gnn_fit,
    gnn_fit_rebuild,
    gnn_score_link,
    gnn_score_links_rebuild,
    normalized_adjacency,
    subgraph_feature_matrix,
)
from repro.attacks.muxlink.features import (
    make_training_pairs,
    subgraph_feature_matrix_stack,
)
from repro.attacks.muxlink import gnn
from repro.attacks.muxlink.gnn import (
    GnnLinkPredictor,
    _BlockDiagAdj,
    _GraphConvStack,
)
from repro.attacks.muxlink.graph import ObservedGraph, extract_observed
from repro.attacks.muxlink.subgraph import extract_enclosing_subgraphs
from repro.circuits import load_circuit
from repro.locking import DMuxLocking


def test_normalized_adjacency_rows_sum_to_one():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    s = normalized_adjacency(adj)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert s.shape == (3, 3)
    # Isolated node: only the self-loop contributes.
    iso = normalized_adjacency(np.zeros((2, 2)))
    assert np.allclose(iso, np.eye(2))


def test_graph_conv_stack_shapes():
    rng = np.random.default_rng(0)
    stack = _GraphConvStack(5, (7, 3), seed_or_rng=1)
    x = rng.normal(size=(4, 5))
    s = normalized_adjacency((rng.random((4, 4)) > 0.5).astype(float))
    s = normalized_adjacency(((s + s.T) > 0).astype(float))
    h = stack.forward(s, s @ x)
    assert h.shape == (4, 10)  # 7 + 3 concatenated
    assert stack.out_dim == 10


def test_graph_conv_stack_gradients_match_finite_differences():
    """The hand-derived backward pass of the conv stack must agree with a
    central-difference approximation on every weight matrix."""
    rng = np.random.default_rng(3)
    n, f = 5, 4
    adj = (rng.random((n, n)) > 0.6).astype(float)
    adj = ((adj + adj.T) > 0).astype(float)
    np.fill_diagonal(adj, 0)
    s = normalized_adjacency(adj)
    sx = s @ rng.normal(size=(n, f))
    stack = _GraphConvStack(f, (6, 3), seed_or_rng=5)

    def loss_of_output(h):
        return float((h**2).sum())

    h = stack.forward(s, sx)
    for p in stack.params():
        p.zero_grad()
    stack.backward(2 * h)

    eps = 1e-6
    for p in stack.params():
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = p.value[idx]
            p.value[idx] = original + eps
            plus = loss_of_output(stack.forward(s, sx))
            p.value[idx] = original - eps
            minus = loss_of_output(stack.forward(s, sx))
            p.value[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        rel = float(np.max(np.abs(analytic - numeric) / denom))
        assert rel < 1e-5, f"{p.name}: gradient error {rel}"


def _ring_graph(n=12):
    nodes = [(f"n{i}", "AND" if i % 2 else "NAND", True) for i in range(n)]
    return ObservedGraph(nodes, [(i, (i + 1) % n) for i in range(n)])


def test_gnn_end_to_end_gradient_descent_reduces_loss():
    g = _ring_graph()
    predictor = GnnLinkPredictor(
        hidden_dims=(8, 4), mlp_hidden=8, hops=2, epochs=10, n_train=16, lr=1e-2
    )
    predictor.fit(g, seed_or_rng=7)
    assert len(predictor.train_history) == 10
    assert predictor.train_history[-1] < predictor.train_history[0], (
        f"training loss did not decrease: {predictor.train_history}"
    )


def test_gnn_score_is_deterministic_after_fit():
    g = _ring_graph()
    predictor = GnnLinkPredictor(hidden_dims=(6,), epochs=2, n_train=10)
    predictor.fit(g, seed_or_rng=1)
    first = predictor.score_links([(0, 5)])[0]
    assert predictor.score_links([(0, 5)])[0] == first


def test_gnn_requires_fit():
    predictor = GnnLinkPredictor()
    with pytest.raises(Exception):
        predictor.score_links([(0, 1)])[0]


def test_gnn_subgraph_pipeline_on_disconnected_pair():
    """Scoring a pair with no connecting path must still work (DRNL 0s)."""
    a, b, c, d = range(4)
    g = ObservedGraph(
        [("a", "AND", True), ("b", "OR", True), ("c", "NOT", True),
         ("d", "NAND", True)],
        [(a, b), (c, d)],
    )
    (sub,) = dense_blocks(extract_enclosing_subgraphs(g, [(a, d)], hops=2))
    assert sub.n_nodes >= 2
    predictor = GnnLinkPredictor(hidden_dims=(4,), epochs=1, n_train=4)
    predictor.fit(g, seed_or_rng=2)
    assert np.isfinite(predictor.score_links([(a, d)])[0])


# ----------------------------------------------------------- batched path
def _random_graph(n=60, n_edges=150, seed=0, isolated=()):
    """A random graph of ``n`` wired nodes (self-loop draws are dropped),
    followed by one unwired AND node per name in ``isolated``."""
    rng = np.random.default_rng(seed)
    types = ["AND", "OR", "NAND", "NOR", "XOR", "INV"]
    nodes = [
        (f"n{i}", types[int(rng.integers(0, len(types)))], True)
        for i in range(n)
    ]
    wires = [
        (int(rng.integers(0, n)), int(rng.integers(0, n)))
        for _ in range(n_edges)
    ]
    return ObservedGraph(nodes + [(name, "AND", True) for name in isolated], wires)


def _sample_pairs(g, k, seed=1):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < k:
        u, v = int(rng.integers(0, g.n_nodes)), int(rng.integers(0, g.n_nodes))
        if u != v:
            pairs.append((u, v))
    return pairs


def test_batched_extraction_equals_scalar():
    """The batched extractor equals the reference one pair at a time,
    including observed-edge pairs (SEAL masking) and disconnected pairs;
    the stacked feature matrix equals the per-subgraph reference."""
    g = _random_graph(isolated=("iso",))
    # mix of random pairs among the wired nodes, true edges in both
    # directions, and a disconnected pair
    pairs = _sample_pairs(_random_graph(), 20)
    u0, v0 = g.directed_edges[0]
    pairs += [(u0, v0), (v0, u0), tuple(g.directed_edges[7])]
    iso = g.index["iso"]
    pairs += [(0, iso), (iso, 1)]
    for hops, max_nodes in ((2, 40), (1, 120), (3, 12)):
        batch = extract_enclosing_subgraphs(
            g, pairs, hops=hops, max_nodes=max_nodes
        )
        batched = dense_blocks(batch)
        assert len(batched) == len(pairs)
        for (u, v), got in zip(pairs, batched):
            want = extract_enclosing_subgraph(
                g, u, v, hops=hops, max_nodes=max_nodes
            )
            assert got.node_ids == want.node_ids
            assert np.array_equal(got.adj, want.adj)
            assert np.array_equal(got.drnl, want.drnl)
        stacked = subgraph_feature_matrix_stack(g, batch)
        assert np.array_equal(
            stacked,
            np.concatenate([subgraph_feature_matrix(g, s) for s in batched]),
        )
    # the reference restores every masked edge
    assert g.has_edge(u0, v0)
    empty = extract_enclosing_subgraphs(g, [])
    assert len(empty) == 0 and subgraph_feature_matrix_stack(g, empty).shape[0] == 0


def test_block_diag_operator_matches_dense():
    g = _random_graph(n=30, n_edges=70, seed=3)
    pairs = _sample_pairs(g, 5, seed=4)
    subs = extract_each(g, pairs, hops=2, max_nodes=120, max_label=8)
    sizes = {sub.n_nodes for sub in subs}
    assert len(sizes) > 1, "want a ragged batch"
    op = _BlockDiagAdj.from_batch(extract_enclosing_subgraphs(g, pairs, hops=2))
    blocks = [normalized_adjacency(sub.adj) for sub in subs]
    n_total = sum(b.shape[0] for b in blocks)
    dense = np.zeros((n_total, n_total))
    at = 0
    for b in blocks:
        dense[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n_total, 6))
    assert np.allclose(op @ x, dense @ x)
    assert np.allclose(op.T @ x, dense.T @ x)
    assert op.T.T is op


@settings(max_examples=30, deadline=None)
@given(
    gates=st.integers(20, 200),
    circuit_seed=st.integers(0, 50),
    hops=st.integers(1, 3),
    max_nodes=st.integers(2, 16),
    data=st.data(),
)
def test_subgraph_batch_equals_per_pair_reference(
    gates, circuit_seed, hops, max_nodes, data
):
    """Every block of the stacked batch — node ids, DRNL labels and CSR —
    equals the per-pair reference extractor's subgraph, and the operator
    built from the batch equals the one the reference builds from the
    dense blocks, array for array (bitwise data). ``max_nodes`` is small,
    so truncation fires; observed wires in both directions exercise the
    SEAL mask."""
    graph, _ = extract_observed(load_circuit(f"rand_{gates}_{circuit_seed}"))
    index = st.integers(0, graph.n_nodes - 1)
    wires = data.draw(
        st.lists(st.sampled_from(graph.directed_edges), max_size=6)
    )
    pairs = [(u, v) for u, v in wires] + [(v, u) for u, v in wires[:2]]
    pairs += data.draw(
        st.lists(
            st.tuples(index, index).filter(lambda e: e[0] != e[1]),
            min_size=1 if not pairs else 0,
            max_size=6,
        )
    )
    batch = extract_enclosing_subgraphs(graph, pairs, hops, max_nodes)
    subs = extract_each(graph, pairs, hops, max_nodes, max_label=8)
    assert len(batch) == len(pairs)
    assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.node_ids.size
    for b, want in enumerate(subs):
        lo, hi = batch.offsets[b], batch.offsets[b + 1]
        assert batch.node_ids[lo:hi].tolist() == want.node_ids
        assert np.array_equal(batch.drnl[lo:hi], want.drnl)
        r, c = np.nonzero(want.adj + np.eye(want.n_nodes))
        nz_lo, nz_hi = batch.indptr[lo], batch.indptr[hi]
        assert np.array_equal(
            np.diff(batch.indptr[lo : hi + 1]),
            np.bincount(r, minlength=want.n_nodes),
        )
        assert np.array_equal(batch.indices[nz_lo:nz_hi] - lo, c)
    got, ref = _BlockDiagAdj.from_batch(batch), block_diag_from_subgraphs(subs)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(_bits(got.data), _bits(ref.data))
    assert np.array_equal(got.offsets, ref.offsets)


def test_subgraph_batch_memory_grows_with_subgraphs_not_graph():
    """Extracting a GNN fit's 220 training pairs on c7552 (D-MUX, K=8)
    peaks under 8 MB of traced allocations: the extractor's per-pair
    state is sorted keys over the subgraphs it finds, not a
    ``pairs × graph nodes`` table (24.8 MB with such tables)."""
    locked = DMuxLocking().lock(load_circuit("c7552_syn"), 8, seed_or_rng=5)
    graph, _ = extract_observed(locked.netlist)
    pairs, _ = make_training_pairs(graph, 220, 0)
    graph.csr()  # the shared CSR snapshot is the graph's, not the batch's
    tracemalloc.start()
    try:
        batch = extract_enclosing_subgraphs(graph, pairs, hops=2, max_nodes=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == len(pairs) == 220
    assert peak < 8_000_000, f"extraction peaked at {peak / 1e6:.1f} MB"


def test_batched_logits_match_scalar_on_ragged_batch():
    """No padding/block-diag leakage: every logit in a ragged batch equals
    the same link scored alone through the reference dense forward."""
    g = _random_graph(seed=5)
    predictor = GnnLinkPredictor(
        hidden_dims=(8, 4), mlp_hidden=8, epochs=2, n_train=30
    )
    predictor.fit(g, seed_or_rng=9)
    pairs = _sample_pairs(g, 17, seed=6)  # odd count, ragged sizes
    batched = predictor.score_links(pairs)
    scalar = np.array([gnn_score_link(predictor, u, v) for u, v in pairs])
    assert batched.shape == (17,)
    assert np.allclose(batched, scalar, rtol=0, atol=1e-9)


def test_one_and_zero_pair_batches_match_reference():
    """A one-pair batch runs the batched path and matches the reference
    forward; a zero-pair batch — a mixed genotype without a MUX gene
    sends none — is an empty array."""
    g = _ring_graph()
    predictor = GnnLinkPredictor(hidden_dims=(6,), epochs=1, n_train=10)
    predictor.fit(g, seed_or_rng=3)
    want = gnn_score_link(predictor, 0, 5)
    single = predictor.score_links([(0, 5)])
    assert single.shape == (1,)
    assert abs(single[0] - want) < 1e-9
    empty = predictor.score_links([])
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_batched_backward_matches_finite_differences():
    """FD check through the full batched pipeline: block-diagonal conv,
    segment readout, MLP head — every parameter."""
    g = _random_graph(n=25, n_edges=60, seed=7)
    predictor = GnnLinkPredictor(hidden_dims=(5, 3), mlp_hidden=4)
    predictor._graph = g
    predictor._build(11)
    batch = extract_enclosing_subgraphs(
        g, _sample_pairs(g, 4, seed=8), hops=2, max_nodes=20
    )
    s, sx = predictor._prepare(batch)

    def loss_now():
        logits, _ = predictor._forward_batch(s, sx, train=True)
        return float((logits**2).sum()), logits

    _, logits = loss_now()
    for p in predictor.params():
        p.zero_grad()
    predictor._backward_batch(
        2.0 * logits, predictor._forward_batch(s, sx, train=True)[1]
    )

    eps = 1e-6
    for p in predictor.params():
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = p.value[idx]
            p.value[idx] = original + eps
            plus, _ = loss_now()
            p.value[idx] = original - eps
            minus, _ = loss_now()
            p.value[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        rel = float(np.max(np.abs(analytic - numeric) / denom))
        assert rel < 1e-5, f"{p.name}: gradient error {rel}"


def test_batched_training_matches_per_sample_reference():
    """Batched training walks the same trajectory as the reference
    per-sample loop (same RNG stream, minibatches and Adam steps)."""
    g = _random_graph(seed=10)
    batched = GnnLinkPredictor(hidden_dims=(6, 3), epochs=3, n_train=24)
    scalar = GnnLinkPredictor(hidden_dims=(6, 3), epochs=3, n_train=24)
    batched.fit(g, seed_or_rng=13)
    gnn_fit(scalar, g, seed_or_rng=13)
    assert np.allclose(batched.train_history, scalar.train_history, atol=1e-9)
    pairs = _sample_pairs(g, 10, seed=14)
    assert np.allclose(
        batched.score_links(pairs), scalar.score_links(pairs), atol=1e-9
    )


# ------------------------------------------------- per-fit preparation
def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def _observed_graphs(draw):
    """Random small observed graphs with at least one wire."""
    n = draw(st.integers(4, 30))
    types = ["AND", "OR", "NAND", "NOR", "XOR", "INV", "MUX"]
    nodes = [(f"n{i}", draw(st.sampled_from(types)), True) for i in range(n)]
    index = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.tuples(index, index).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=3 * n,
        )
    )
    return ObservedGraph(nodes, edges)


@st.composite
def _hub_graphs(draw):
    """Small observed graphs with 1-3 hub nodes of degree >= 9, so a hub's
    operator row holds 9+ terms (8+ with the candidate edge masked, plus
    the self-loop) and reaches the ``reduceat`` branch."""
    n = draw(st.integers(12, 40))
    nodes = [(f"n{i}", "AND" if i % 3 else "XOR", True) for i in range(n)]
    index = st.integers(0, n - 1)
    hubs = draw(st.lists(index, min_size=1, max_size=3, unique=True))
    wires = []
    for hub in hubs:
        others = [v for v in range(n) if v != hub]
        spokes = draw(
            st.lists(st.sampled_from(others), min_size=9, max_size=n - 1,
                     unique=True)
        )
        wires += [(hub, v) for v in spokes]
    wires += draw(st.lists(st.tuples(index, index), max_size=2 * n))
    return ObservedGraph(nodes, wires), hubs


@settings(max_examples=40, deadline=None)
@given(graph_hubs=_hub_graphs(), data=st.data())
def test_sparse_products_bitwise_equal_reduceat(graph_hubs, data):
    """``op @ z`` and ``op.T @ z`` equal the plain ``reduceat`` product
    over the ``lexsort`` transpose bit for bit, on whole operators and on
    ``select``ions in both orientations, with rows of 1 to 9+ terms and
    signed zeros in ``z``."""
    graph, hubs = graph_hubs
    index = st.integers(0, graph.n_nodes - 1)
    pairs = [(hubs[0], (hubs[0] + 1) % graph.n_nodes)] + data.draw(
        st.lists(
            st.tuples(index, index).filter(lambda e: e[0] != e[1]),
            max_size=12,
        )
    )
    whole = _BlockDiagAdj.from_batch(
        extract_enclosing_subgraphs(graph, pairs, hops=2, max_nodes=100)
    )
    subs = extract_each(graph, pairs, hops=2, max_nodes=100, max_label=8)
    assert np.diff(whole.indptr).max() > gnn._SHORT  # a reduceat row
    blocks = np.array(
        data.draw(
            st.lists(st.integers(0, len(subs) - 1), min_size=1, max_size=10)
        ),
        dtype=np.int64,
    )
    picked, _ = whole.select(blocks)
    want = block_diag_from_subgraphs([subs[int(b)] for b in blocks])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    width = data.draw(st.sampled_from([1, 3, 32]))
    for op, ref in (
        (whole, block_diag_from_subgraphs(subs)),
        (picked, want),
    ):
        ref_t = block_diag_transpose(ref)
        for got, w_op in ((op, ref), (op.T, ref_t)):
            assert np.array_equal(got.indptr, w_op.indptr)
            assert np.array_equal(got.indices, w_op.indices)
            assert np.array_equal(_bits(got.data), _bits(w_op.data))
        z = rng.normal(size=(op.n, width))
        z[rng.random(z.shape) < 0.2] = 0.0
        z[rng.random(z.shape) < 0.2] = -0.0
        assert np.array_equal(_bits(op @ z), _bits(block_diag_matmul(ref, z)))
        assert np.array_equal(
            _bits(op.T @ z), _bits(block_diag_matmul(ref_t, z))
        )
        assert op.plan is op.T.plan


@settings(max_examples=25, deadline=None)
@given(graph=_observed_graphs(), data=st.data())
def test_select_equals_from_subgraphs_both_orientations(graph, data):
    """select(blocks) yields the operator the reference builds from the
    chosen subgraphs' dense blocks, array for array, and so does its
    transpose."""
    index = st.integers(0, graph.n_nodes - 1)
    pairs = data.draw(
        st.lists(
            st.tuples(index, index).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=16,
        )
    )
    whole = _BlockDiagAdj.from_batch(
        extract_enclosing_subgraphs(graph, pairs, hops=2, max_nodes=12)
    )
    subs = extract_each(graph, pairs, hops=2, max_nodes=12, max_label=8)
    blocks = np.array(
        data.draw(
            st.lists(st.integers(0, len(subs) - 1), min_size=1, max_size=10)
        ),
        dtype=np.int64,
    )
    got, rows = whole.select(blocks)
    want = block_diag_from_subgraphs([subs[int(b)] for b in blocks])
    for g_op, w_op in ((got, want), (got.T, block_diag_transpose(want))):
        assert np.array_equal(g_op.indptr, w_op.indptr)
        assert np.array_equal(g_op.indices, w_op.indices)
        assert np.array_equal(_bits(g_op.data), _bits(w_op.data))
        assert np.array_equal(g_op.offsets, w_op.offsets)
    assert got.T.T is got
    x = np.arange(whole.n * 2, dtype=np.float64).reshape(-1, 2)
    assert np.array_equal(
        x[rows],
        np.concatenate(
            [x[whole.offsets[b] : whole.offsets[b + 1]] for b in blocks]
        ),
    )


# Last of the randomised tests, and never shrunk: each example runs two
# whole GNN fits, so a wrong kernel is reported by the cheap product
# tests above first, and this one fails on its first failing example.
@settings(
    max_examples=25, deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
@given(
    graph=_observed_graphs(),
    seed=st.integers(0, 2**16),
    hidden=st.sampled_from([(5,), (6, 3), (8, 4, 3)]),
    max_nodes=st.sampled_from([6, 20, 100]),
    data=st.data(),
)
def test_prepared_training_bitwise_equals_per_batch_rebuild(
    graph, seed, hidden, max_nodes, data
):
    """Training on per-fit prepared operators (features, CSR blocks and
    layer 0's S·X built once, 2(L-1) sparse products per step) walks
    bit for bit the trajectory of the trainer that rebuilds everything
    per minibatch and runs all 2L products — params, loss history and
    scores."""
    kwargs = dict(
        hidden_dims=hidden, mlp_hidden=6, epochs=2, n_train=24,
        max_nodes=max_nodes,
    )
    prepared = GnnLinkPredictor(**kwargs)
    rebuilt = GnnLinkPredictor(**kwargs)
    prepared.fit(graph, seed_or_rng=seed)
    gnn_fit_rebuild(rebuilt, graph, seed_or_rng=seed)
    for got, want in zip(prepared.params(), rebuilt.params()):
        assert np.array_equal(_bits(got.value), _bits(want.value)), got.name
    assert np.array_equal(
        _bits(prepared.train_history), _bits(rebuilt.train_history)
    )
    index = st.integers(0, graph.n_nodes - 1)
    pairs = data.draw(
        st.lists(
            st.tuples(index, index).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=12,
        )
    )
    assert np.array_equal(
        _bits(prepared.score_links(pairs)),
        _bits(gnn_score_links_rebuild(rebuilt, pairs)),
    )


def test_training_step_runs_four_sparse_products(monkeypatch):
    """A training step of a 3-layer stack runs 2 sparse products forward
    and 2 backward: layer 0's S·X is prepared once per fit and its input
    gradient is never formed."""
    g = _random_graph(n=30, n_edges=70, seed=12)
    predictor = GnnLinkPredictor(hidden_dims=(6, 5, 4), mlp_hidden=4)
    predictor._graph = g
    predictor._build(3)
    batch = extract_enclosing_subgraphs(g, _sample_pairs(g, 12, seed=2), hops=2)
    s_all, sx_all = predictor._prepare(batch)
    s, rows = s_all.select(np.array([3, 0, 7]))
    calls = []
    matmul = _BlockDiagAdj.__matmul__
    plans = []

    def counted(self, z):
        calls.append(self)
        return matmul(self, z)

    class CountedPlan(gnn._SegmentPlan):
        def __init__(self, *args):
            plans.append(self)
            super().__init__(*args)

    monkeypatch.setattr(_BlockDiagAdj, "__matmul__", counted)
    monkeypatch.setattr(gnn, "_SegmentPlan", CountedPlan)
    logits, ctx = predictor._forward_batch(s, sx_all[rows], train=True)
    assert len(calls) == 2
    predictor._backward_batch(np.ones_like(logits), ctx)
    assert len(calls) == 4
    assert calls[2] is calls[3] is s.T
    # S and S^T share the step's one segment-sum plan
    assert len(plans) == 1 and s.plan is s.T.plan is plans[0]
