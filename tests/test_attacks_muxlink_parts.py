"""MuxLink building blocks: observed graph, DRNL subgraphs, features."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference.muxlink as ref
from reference.muxlink import dense_blocks, link_feature_vector, mlp_forward_rows
from reference.netlist import mux_sites
from repro.attacks.muxlink import extract_observed
from repro.attacks.muxlink.features import (
    LINK_FEATURE_DIM,
    N_KEYGATE_KINDS,
    feature_group_slices,
    link_feature_dim,
    link_feature_matrix,
    make_training_pairs,
    subgraph_feature_dim,
    subgraph_feature_matrix_stack,
    type_index,
)
from repro.attacks.muxlink.graph import KEYGATE_KIND_BIT, ObservedGraph
from repro.attacks.muxlink.mlp_predictor import MlpLinkPredictor
from repro.attacks.muxlink.subgraph import (
    drnl_from_distances,
    extract_enclosing_subgraphs,
)
from repro.circuits import load_circuit
from repro.ec.genotype import random_genotype
from repro.errors import AttackError, EvolutionError
from repro.locking import DMuxLocking, RandomLogicLocking, lock_with_genes
from repro.netlist.gates import GateType
from tests.strategies import alphabets, circuits


# ----------------------------------------------------------- observed graph
def test_extract_removes_key_machinery(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    assert len(queries) == 16  # 8 shared-key genes -> 16 MUXes
    node_set = set(graph.nodes)
    for key in dmux_locked.netlist.key_inputs:
        assert key not in node_set
    for gate in dmux_locked.netlist.gates.values():
        if gate.gtype is GateType.MUX:
            assert gate.name not in node_set


def test_queries_reference_real_candidates(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    truth = {}
    for rec in dmux_locked.insertions:
        for site in mux_sites(rec):
            truth[site.mux] = site
    for q in queries:
        site = truth[q.mux]
        assert {q.d0, q.d1} == {site.true_src, site.false_src}
        assert q.consumers == (site.consumer,)
        assert q.key_name == site.key_name
        # The locked pin itself is open: a candidate edge may only appear in
        # the observed graph if the candidate *also* drives the consumer on
        # another, unlocked pin.
        consumer_gate = dmux_locked.netlist.gates[q.consumers[0]]
        c = graph.index[q.consumers[0]]
        for cand in (q.d0, q.d1):
            if cand not in consumer_gate.fanins:
                assert not graph.has_edge(graph.index[cand], c)


def test_unlocked_circuit_has_no_queries(c17):
    graph, queries = extract_observed(c17)
    assert queries == []
    assert graph.n_nodes == 11  # 5 PIs + 6 gates
    assert len(graph.directed_edges) == 12  # 6 gates x 2 fanins


def test_levels_computed(dmux_locked):
    graph, _ = extract_observed(dmux_locked.netlist)
    assert len(graph.levels) == graph.n_nodes
    assert max(graph.levels) > 0
    # PIs that drive something sit at level 0.
    for sig in dmux_locked.netlist.inputs:
        if sig in graph.index:
            has_in = any(v == graph.index[sig] for _, v in graph.directed_edges)
            if not has_in:
                assert graph.levels[graph.index[sig]] == 0


def _assert_same_observed(netlist):
    """The one-walk extractor equals the three-walk reference on every
    field, the iteration order of each neighbour set included."""
    graph, queries = extract_observed(netlist)
    want, want_queries = ref.extract_observed(netlist)
    assert graph.nodes == want.nodes
    assert graph.index == want.index
    assert graph.gtypes == want.gtypes
    assert graph.is_gate == want.is_gate
    assert [list(s) for s in graph.adj] == [list(s) for s in want.adj]
    assert graph.directed_edges == want.directed_edges
    assert graph.levels == want.levels
    assert list(graph.keygate_kinds.items()) == list(want.keygate_kinds.items())
    assert list(graph.keygate_sites) == ref.extract_keygates(netlist)
    assert queries == want_queries


@settings(max_examples=60, deadline=None)
@given(
    name=circuits,
    alphabet=alphabets,
    key_length=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_extract_observed_matches_reference(name, alphabet, key_length, seed):
    base = load_circuit(name)
    try:
        genes = random_genotype(base, key_length, seed, alphabet)
    except EvolutionError:
        return  # tiny circuits can run out of sites
    _assert_same_observed(lock_with_genes(base, genes).netlist)


def test_extract_observed_matches_reference_on_rll(rll_locked):
    _assert_same_observed(rll_locked.netlist)


# ------------------------------------------------------------------- DRNL
def test_drnl_endpoint_labels():
    du = np.array([0, -1, 1, 2])
    dv = np.array([1, 0, 1, 1])
    labels = drnl_from_distances(du, dv, max_label=8)
    assert labels[0] == 1 and labels[1] == 1  # endpoints
    # (1,1): d=2 -> 1 + 1 + 1*(1+0-1) = 2
    assert labels[2] == 2
    # (2,1): d=3 -> 1 + 1 + 1*(1+1-1) = 3
    assert labels[3] == 3


def test_drnl_unreachable_and_cap():
    du = np.array([5, -1])
    dv = np.array([5, 3])
    labels = drnl_from_distances(du, dv, max_label=4)
    assert labels[0] == 4  # capped
    assert labels[1] == 0  # unreachable from u


def _path_graph(n=6):
    nodes = [(f"n{i}", "AND" if i else "PI", bool(i)) for i in range(n)]
    return ObservedGraph(nodes, [(i - 1, i) for i in range(1, n)])


def test_enclosing_subgraph_excludes_candidate_edge():
    g = _path_graph()
    (sub,) = dense_blocks(extract_enclosing_subgraphs(g, [(2, 3)], hops=2))
    # Candidate edge (2,3) exists in g but must be excluded from sub.adj.
    pos = {nid: i for i, nid in enumerate(sub.node_ids)}
    assert sub.adj[pos[2], pos[3]] == 0.0
    # ... without touching the parent graph.
    assert g.has_edge(2, 3)
    assert sub.node_ids[0] == 2 and sub.node_ids[1] == 3
    assert sub.adj.shape == (sub.n_nodes, sub.n_nodes)
    assert np.array_equal(sub.adj, sub.adj.T)
    assert np.all(np.diag(sub.adj) == 0)


def test_enclosing_subgraph_hops_bound():
    g = _path_graph(10)
    (sub,) = dense_blocks(extract_enclosing_subgraphs(g, [(4, 5)], hops=1))
    # 1 hop around nodes 4,5 (edge removed): {3,4} ∪ {5,6}
    assert set(sub.node_ids) == {3, 4, 5, 6}


def test_enclosing_subgraph_max_nodes_truncation():
    hub, spoke0 = 0, 1
    spokes = [(f"s{i}", "OR", True) for i in range(50)]
    g = ObservedGraph(
        [("hub", "AND", True), *spokes], [(hub, s) for s in range(1, 51)]
    )
    (sub,) = dense_blocks(
        extract_enclosing_subgraphs(g, [(hub, spoke0)], hops=2, max_nodes=10)
    )
    assert sub.n_nodes == 10


# ----------------------------------------------------------------- features
def _oracle_rows(graph, pairs, keygate_cols=False):
    """The per-link reference extractor stacked row by row."""
    return np.array(
        [link_feature_vector(graph, u, v, keygate_cols) for u, v in pairs]
    ).reshape(len(pairs), link_feature_dim(keygate_cols))


def _locked_graph(gates: int, seed: int, scheme: str):
    locker = DMuxLocking() if scheme == "dmux" else RandomLogicLocking()
    locked = locker.lock(load_circuit(f"rand_{gates}_{seed}"), 4, seed_or_rng=seed)
    return extract_observed(locked.netlist)


@settings(max_examples=30, deadline=None)
@given(
    gates=st.integers(30, 90),
    seed=st.integers(0, 40),
    scheme=st.sampled_from(["dmux", "rll"]),
    keygate_cols=st.booleans(),
    data=st.data(),
)
def test_link_feature_matrix_equals_per_link_oracle(
    gates, seed, scheme, keygate_cols, data
):
    """The batched extractor equals the per-link reference bit for bit on
    a mix of observed wires, reversed wires, MUX query links, random
    (mostly non-edge) pairs and duplicates — and never mutates the
    graph, though every observed wire must be described masked."""
    graph, queries = _locked_graph(gates, seed, scheme)
    edges = graph.directed_edges
    index = st.integers(0, graph.n_nodes - 1)
    picked = data.draw(st.lists(st.sampled_from(edges), max_size=12))
    pairs = picked + [(v, u) for u, v in picked[::2]]
    for q in queries:
        for consumer in q.consumers:
            c = graph.index[consumer]
            pairs += [(graph.index[q.d0], c), (graph.index[q.d1], c)]
    pairs += data.draw(st.lists(st.tuples(index, index), max_size=12))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    adj_before = [list(nbrs) for nbrs in graph.adj]

    got = link_feature_matrix(graph, pairs, keygate_cols=keygate_cols)

    assert [list(nbrs) for nbrs in graph.adj] == adj_before
    assert np.array_equal(got, _oracle_rows(graph, pairs, keygate_cols))
    distance = feature_group_slices()["distance"].start
    for row, (u, v) in enumerate(pairs):
        if graph.has_edge(u, v):
            assert got[row, distance + 1] == 0.0, "masked wire leaked distance 1"


@pytest.mark.parametrize(
    ("gates", "seed"), [(150, 1), (260, 7), (400, 3)], ids=str
)
def test_link_feature_matrix_distance_slots_on_large_locks(gates, seed):
    """On larger locks the batched extractor equals the per-link oracle on
    every observed wire (masked), every MUX query link, self pairs and
    random pairs, and the distance column hits every reachable slot —
    including masked wires whose detour is exactly 3 or 4 hops, the
    cases the radius-2 balls only meet through a midpoint. Slot 1 is
    never hit: an adjacent pair is an observed wire, so it is masked."""
    graph, queries = _locked_graph(gates, seed, "dmux")
    rng = np.random.default_rng(seed)
    wires = list(graph.directed_edges)
    pairs = wires + [(v, u) for u, v in wires[::5]]
    for q in queries:
        for consumer in q.consumers:
            c = graph.index[consumer]
            pairs += [(graph.index[q.d0], c), (graph.index[q.d1], c)]
    nodes = rng.integers(0, graph.n_nodes, size=(60, 2))
    pairs += [(int(u), int(u)) for u, _ in nodes[:10]]
    pairs += [(int(u), int(v)) for u, v in nodes]

    got = link_feature_matrix(graph, pairs)

    assert np.array_equal(got, _oracle_rows(graph, pairs))
    distance = feature_group_slices()["distance"]
    slots = got[:, distance].argmax(axis=1)
    assert set(slots.tolist()) == {0, 2, 3, 4, 5}
    masked = np.array([graph.has_edge(u, v) for u, v in pairs])
    assert {3, 4} <= set(slots[masked].tolist())
    selves = np.array([u == v for u, v in pairs])
    assert np.all(slots[selves] == 0)


def test_link_feature_vector_shape(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    q = queries[0]
    pair = (graph.index[q.d0], graph.index[q.consumers[0]])
    rows = link_feature_matrix(graph, [pair])
    assert rows.shape == (1, LINK_FEATURE_DIM)
    assert np.all(np.isfinite(rows))
    assert np.array_equal(rows[0], link_feature_vector(graph, *pair))
    assert link_feature_matrix(graph, []).shape == (0, LINK_FEATURE_DIM)


def test_positive_features_mask_the_edge(dmux_locked):
    """Feature extraction must not leak 'distance 1' for existing wires."""
    graph, _ = extract_observed(dmux_locked.netlist)
    u, v = graph.directed_edges[0]
    rows = link_feature_matrix(graph, [(u, v), (v, u)])
    # Distance one-hot block: slots base..base+5; slot 1 means distance 1,
    # which is impossible once the candidate edge itself is masked.
    base = 2 * 12 + 3 + 3
    assert np.all(rows[:, base + 1] == 0.0)
    assert graph.has_edge(u, v), "the graph is never mutated"
    assert np.array_equal(rows, _oracle_rows(graph, [(u, v), (v, u)]))


def test_subgraph_feature_matrix_shape(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    q = queries[0]
    batch = extract_enclosing_subgraphs(
        graph, [(graph.index[q.d0], graph.index[q.consumers[0]])], hops=2
    )
    (sub,) = dense_blocks(batch)
    feats = subgraph_feature_matrix_stack(graph, batch, max_label=8)
    assert feats.shape == (sub.n_nodes, subgraph_feature_dim(8))
    # Exactly one type bit and one DRNL bit per node.
    assert np.all(feats[:, :12].sum(axis=1) == 1.0)
    assert np.all(feats[:, 12 : 12 + 9].sum(axis=1) == 1.0)


# ------------------------------------------------------- key-gate features
def test_keygate_cols_pure_mux_prefix_byte_identical(dmux_locked):
    """Golden pin: on a pure-MUX netlist the widened feature rows carry
    the classic 69 columns byte-for-byte, and the 8 key-gate columns
    stay all-zero — the default path cannot drift."""
    graph, queries = extract_observed(dmux_locked.netlist)
    q = queries[0]
    pairs, _ = make_training_pairs(graph, 40, seed_or_rng=3)
    pairs.append((graph.index[q.d0], graph.index[q.consumers[0]]))
    plain_m = link_feature_matrix(graph, pairs)
    wide_m = link_feature_matrix(graph, pairs, keygate_cols=True)
    assert wide_m.shape == (len(pairs), LINK_FEATURE_DIM + 2 * N_KEYGATE_KINDS)
    assert np.array_equal(wide_m[:, :LINK_FEATURE_DIM], plain_m)
    assert np.all(wide_m[:, LINK_FEATURE_DIM:] == 0.0)
    assert np.array_equal(wide_m, _oracle_rows(graph, pairs, keygate_cols=True))


def test_keygate_cols_one_hot_on_keygates(rll_locked):
    graph, _ = extract_observed(rll_locked.netlist)
    assert graph.keygate_kinds, "RLL key gates must be annotated"
    node, kind = next(iter(graph.keygate_kinds.items()))
    assert kind in KEYGATE_KIND_BIT
    peer = (node + 1) % graph.n_nodes
    pairs = [(node, peer), (peer, node)]
    rows = link_feature_matrix(graph, pairs, keygate_cols=True)
    assert np.array_equal(rows, _oracle_rows(graph, pairs, keygate_cols=True))
    u_cols = rows[0, LINK_FEATURE_DIM : LINK_FEATURE_DIM + N_KEYGATE_KINDS]
    assert u_cols.sum() == 1.0, "endpoint u gets exactly one kind bit"
    v_cols = rows[1, LINK_FEATURE_DIM + N_KEYGATE_KINDS :]
    assert np.array_equal(v_cols, u_cols), "and so does endpoint v"


def test_extract_keygates_matches_insertions(rll_locked):
    graph, _ = extract_observed(rll_locked.netlist)
    sites = graph.keygate_sites
    assert len(sites) == 8
    truth = dict(rll_locked.key)
    for site in sites:
        assert KEYGATE_KIND_BIT[site.kind] == truth[site.key_name]


def test_feature_group_slices_partition():
    for keygate_cols in (False, True):
        slices = feature_group_slices(keygate_cols=keygate_cols)
        dim = link_feature_dim(keygate_cols=keygate_cols)
        covered = sorted(
            i for s in slices.values() for i in range(s.start, s.stop)
        )
        assert covered == list(range(dim)), "groups must tile the row"
        assert ("keygate" in slices) == keygate_cols
    assert link_feature_dim() == LINK_FEATURE_DIM


def test_type_index_fallback():
    assert type_index("AND") == 3
    assert type_index("UNKNOWN_TYPE") == 0


def test_make_training_pairs_balance(dmux_locked):
    graph, _ = extract_observed(dmux_locked.netlist)
    pairs, labels = make_training_pairs(graph, 100, seed_or_rng=1)
    assert len(pairs) == len(labels)
    n_pos = int(labels.sum())
    assert n_pos == 50
    assert len(pairs) - n_pos == 50
    edge_set = set(graph.directed_edges)
    for (u, v), label in zip(pairs, labels):
        if label == 1.0:
            assert (u, v) in edge_set
        else:
            assert not graph.has_edge(u, v)


def test_make_training_pairs_deterministic(dmux_locked):
    graph, _ = extract_observed(dmux_locked.netlist)
    a = make_training_pairs(graph, 60, seed_or_rng=2)
    b = make_training_pairs(graph, 60, seed_or_rng=2)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


# ------------------------------------------------------- predictor oracles
def test_bayes_score_links_bitwise_equals_reference(dmux_locked):
    """Batched Bayes scores equal the per-link reference bit for bit,
    over every MUX candidate link plus observed wires and random pairs."""
    from reference.muxlink import bayes_score_link
    from repro.attacks.muxlink.bayes import BayesLinkPredictor

    graph, queries = extract_observed(dmux_locked.netlist)
    predictor = BayesLinkPredictor()
    predictor.fit(graph)
    pairs = []
    for q in queries:
        for consumer in q.consumers:
            c = graph.index[consumer]
            pairs += [(graph.index[q.d0], c), (graph.index[q.d1], c)]
    pairs += graph.directed_edges[:20]
    rng = np.random.default_rng(4)
    pairs += [
        tuple(int(x) for x in rng.integers(0, graph.n_nodes, size=2))
        for _ in range(20)
    ]
    want = np.array([bayes_score_link(predictor, u, v) for u, v in pairs])
    assert np.array_equal(predictor.score_links(pairs), want)
    u, v = pairs[0]
    assert predictor.score_links([(u, v)])[0] == want[0]
    assert predictor.score_links([]).shape == (0,)


@pytest.mark.parametrize("keygate_cols", [False, True], ids=["69", "77"])
def test_mlp_stacked_forward_bitwise_equals_per_row(rll_locked, keygate_cols):
    """Pin: the stacked ``(n, 1, d)`` forward gives bitwise the logits of
    a one-row-at-a-time forward on the real 69→64→32→1 and 77→64→32→1
    networks. A BLAS build that rounds stacked rows differently fails
    here by name, not as a drifted golden elsewhere."""
    graph, _ = extract_observed(rll_locked.netlist)
    predictor = MlpLinkPredictor(
        epochs=2, n_train=120, keygate_cols=keygate_cols
    )
    with pytest.raises(AttackError):
        predictor.score_links([(0, 1)])
    predictor.fit(graph, seed_or_rng=5)
    layer_shapes = [
        layer.weight.value.shape
        for layer in predictor._model.layers
        if hasattr(layer, "weight")
    ]
    dim = link_feature_dim(keygate_cols)
    assert layer_shapes == [(dim, 64), (64, 32), (32, 1)]

    pairs, _ = make_training_pairs(graph, 200, seed_or_rng=6)
    x = _oracle_rows(graph, pairs, keygate_cols)
    x_norm = (x - predictor._mu) / predictor._sigma
    want = mlp_forward_rows(predictor._model, x_norm)
    assert np.array_equal(predictor.score_links(pairs), want)
    assert np.array_equal(predictor.score_links(pairs[:1]), want[:1])
    empty = predictor.score_links([])
    assert empty.shape == (0,)


# ------------------------------------------------------- end-to-end golden
#: The floats of each golden attack (per-bit margins, per-MUX site scores,
#: the final training loss), as computed with OpenBLAS's SkylakeX kernels.
GOLDEN_FLOATS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "muxlink_attacks.json")
    .read_text()
)


def _assert_golden(name, report, decisions_sha):
    """Pin one attack report: its decisions exactly, its floats closely.

    The decisions — site count, accuracy, the key and MUX names scored and
    the guessed bits — are pinned by sha. The floats are pinned against
    :data:`GOLDEN_FLOATS` at ``rtol = atol = 1e-12``: numpy's bundled
    OpenBLAS picks its ``dgemm`` kernel from the CPU, and the Haswell and
    Prescott kernels round the small products of training and scoring
    differently from SkylakeX, moving these floats by up to about 1e-13
    relative (1.4e-14 absolute), so the tolerance leaves a margin of about
    tenfold relative and seventyfold absolute over the kernels seen."""
    extra = report.extra
    margins = sorted(extra["margins"].items())
    site_scores = sorted(extra["site_scores"].items())
    decisions = (
        extra["n_sites"],
        report.accuracy,
        [key for key, _ in margins],
        [mux for mux, _ in site_scores],
        sorted(report.guesses.items()),
    )
    digest = hashlib.sha256(repr(decisions).encode()).hexdigest()
    assert digest == decisions_sha, name
    want = GOLDEN_FLOATS[name]
    got = {
        "margins": [value for _, value in margins],
        "site_scores": [list(pair) for _, pair in site_scores],
        "final_train_loss": extra["final_train_loss"],
    }
    for field, values in got.items():
        np.testing.assert_allclose(
            values, want[field], rtol=1e-12, atol=1e-12,
            err_msg=f"{name}: {field}",
        )


MLP_ATTACK_SHA = "6d298f7dff66905840a7033ea8b8836ada8714c9020a56a452304d917d00b7ae"


def test_mlp_attack_golden_dmux():
    """Golden pin of a whole MLP MuxLink attack: features, training,
    scoring and the ensemble vote. The pin covers the per-bit margins,
    the per-MUX site scores, the last member's final training loss and
    the guessed bits, so any drift in the link-feature extractor shows
    up here as well as in its per-link differential."""
    from repro.attacks.muxlink import MuxLinkAttack

    locked = DMuxLocking("shared").lock(
        load_circuit("rand_200_3"), 12, seed_or_rng=5
    )
    report = MuxLinkAttack(predictor="mlp", ensemble=3).run(
        locked, seed_or_rng=9
    )
    extra = report.extra
    assert extra["n_sites"] == 24 and extra["ensemble"] == 3
    _assert_golden("mlp-dmux", report, MLP_ATTACK_SHA)


GNN_ATTACK_SHA = {
    "dmux": "b5b62a685a2193926a8ba048b91581f1e7f9354d9ba4a1043f86057f8a56283e",
    "mixed-keygates": (
        "9c046f1ccb51a2da2c8f7c7d9bcb4d6627fd0ca853db036ea7f6203a8b628cd5"
    ),
}


def test_gnn_attack_golden():
    """Golden pin of a whole GNN MuxLink attack on a D-MUX lock and on a
    mixed-alphabet lock scored with ``keygates=True``: subgraph
    extraction, the sparse conv products of training and scoring, and
    the vote. The pin covers the per-bit margins, the per-MUX site
    scores, the final training loss and the guessed bits."""
    from repro.attacks.muxlink import MuxLinkAttack
    from repro.ec.genotype import random_genotype
    from repro.locking.genome_lock import lock_with_genes

    circuit = load_circuit("rand_200_3")
    locks = {
        "dmux": (DMuxLocking("shared").lock(circuit, 12, seed_or_rng=5), {}),
        "mixed-keygates": (
            lock_with_genes(
                circuit,
                random_genotype(
                    circuit, 12, 4, alphabet=("mux", "xor", "and_or")
                ),
            ),
            {"keygates": True},
        ),
    }
    for name, (locked, params) in locks.items():
        report = MuxLinkAttack(predictor="gnn", **params).run(
            locked, seed_or_rng=9
        )
        extra = report.extra
        if params:
            assert extra["n_sites"] > 0 and extra["n_keygate_sites"] > 0
        _assert_golden(f"gnn-{name}", report, GNN_ATTACK_SHA[name])
