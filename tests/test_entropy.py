import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottletree import entropy
from bottletree.autodiff import LOG_EPS, finite_difference_check
from bottletree.entropy import (DegenerateBatchError, DimensionError,
                                EncodingTree, build_adjacency, check_graph,
                                check_membership, entropy_report,
                                hard_assignment, intermediate_layer_entropy,
                                se_loss, se_loss_matrix,
                                structural_entropy_definition,
                                tree_from_assignment)
from bottletree.softbins import distance_matrix, make_bins, soft_cuts, soft_volumes, soften
from bottletree.verify import MULTI_TILE_ROWS


def ring_graph_4():
    # complete graph on 4 vertices, unit weights, no self-loops
    a = np.ones((4, 4))
    np.fill_diagonal(a, 0.0)
    return a


def random_case(rng, n=None, r=None):
    n = n or int(rng.integers(4, 17))
    d = int(rng.integers(2, 6))
    r = r or int(rng.integers(2, 5))
    h = rng.standard_normal((n, d))
    labels = rng.integers(0, r, size=n)
    return build_adjacency(h), hard_assignment(labels, r), h, labels


class TestBuildAdjacency:
    def test_zero_embeddings_give_half_everywhere(self):
        adj = build_adjacency(np.zeros((3, 4)))
        np.testing.assert_array_equal(adj, np.full((3, 3), 0.5))
        assert adj.sum() == pytest.approx(4.5)

    def test_orthonormal_rows(self):
        h = np.eye(4)[:2]  # e1, e2
        a = build_adjacency(h)
        assert a[0, 1] == pytest.approx(0.5)
        assert a[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = build_adjacency(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(a, a.T, atol=1e-12)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            build_adjacency(np.zeros((1, 4)))

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionError, match=r"\(2, 3, 4\)"):
            build_adjacency(np.zeros((2, 3, 4)))

    def test_volume_equals_degree_sum(self):
        rng = np.random.default_rng(1)
        adj = build_adjacency(rng.standard_normal((5, 3)))
        assert adj.dtype == np.float64 and adj.shape == (5, 5)
        assert adj.sum() == pytest.approx(adj.sum(axis=1).sum(), abs=1e-9)


class TestHardAssignment:
    def test_one_hot_rows(self):
        c = hard_assignment([0, 1, 0], 2)
        np.testing.assert_array_equal(c, [[1, 0], [0, 1], [1, 0]])
        # a one-hot membership built directly is the same hard tree
        direct = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert (tree_from_assignment(direct).class_members
                == tree_from_assignment(c).class_members == [(0, 2), (1,)])

    def test_single_class_all_ones_column(self):
        c = hard_assignment([0, 0, 0], 1)
        np.testing.assert_array_equal(c, [[1], [1], [1]])

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            hard_assignment([2], 2)

    @pytest.mark.parametrize("labels", [[0.9, 1.5], [0.0, np.nan]], ids=["fraction", "nan"])
    def test_non_integral_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="class labels must be integers"):
            hard_assignment(np.array(labels), 3)

    def test_integral_floats_and_empty_labels_are_labels(self):
        np.testing.assert_array_equal(hard_assignment(np.array([2.0, 0.0]), 3),
                                      [[0, 0, 1], [1, 0, 0]])
        assert hard_assignment([], 3).shape == (0, 3)

    def test_soft_mode_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_membership([[0.7, 0.7]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_membership([[1.5, -0.5]])
        check_membership([[0.7, 0.3]])  # ok
        check_membership([[1.0, 0.0]])  # ok: one-hot is the hard case


def _entry_points():
    """Every route that takes a graph or a membership from its caller, as
    (route of (graph, membership), takes a graph, takes a membership)."""
    tree = EncodingTree(4, [(0, 1), (2, 3)])
    return {
        "se_loss_matrix": (se_loss_matrix, True, True),
        "entropy_report": (entropy_report, True, True),
        "soft_cuts": (soft_cuts, True, True),
        "soft_volumes": (soft_volumes, True, True),
        "structural_entropy_definition":
            (lambda a, c: structural_entropy_definition(a, tree), True, False),
        "intermediate_layer_entropy":
            (lambda a, c: intermediate_layer_entropy(a, tree), True, False),
        "tree_from_assignment": (lambda a, c: tree_from_assignment(c), False, True),
    }


# (graph or None for a valid one, membership or None, error, message)
BAD_INPUTS = {
    "rows-sum-past-1": (None, [[0.7, 0.7]], ValueError, "rows must sum to 1 within 1e-9"),
    "entries-outside-0-1": (None, [[1.5, -0.5]], ValueError, r"entries must lie in \[0, 1\]"),
    "graph-not-square": (np.ones((4, 3)), None, DimensionError,
                         r"adjacency must be square, got shape \(4, 3\)"),
    "graph-with-nan": (np.where(np.eye(4) > 0, np.nan, 1.0), None, ValueError,
                       "adjacency entries must be finite"),
}


class TestChecksAtEntry:
    @pytest.mark.parametrize("route, bad", [
        (route, bad) for route, (_, graph, membership) in _entry_points().items()
        for bad, (a, c, _, _) in BAD_INPUTS.items()
        if (graph and a is not None) or (membership and c is not None)])
    def test_every_route_checks_what_it_takes(self, route, bad):
        fn = _entry_points()[route][0]
        a, c, error, message = BAD_INPUTS[bad]
        a = ring_graph_4() if a is None else a
        c = hard_assignment([0, 0, 1, 1], 2) if c is None else c
        fn(ring_graph_4(), hard_assignment([0, 0, 1, 1], 2))  # the valid pair passes
        with pytest.raises(error, match=message):
            fn(a, c)

    def test_checks_return_float64_arrays(self):
        a, c = check_graph([[1, 0], [0, 1]]), check_membership([[1, 0], [0, 1]])
        assert a.dtype == c.dtype == np.float64 and type(a) is type(c) is np.ndarray

    def test_pair_row_counts_must_match(self):
        with pytest.raises(DimensionError, match="assignment has 2 rows but graph has 4"):
            soft_cuts(ring_graph_4(), hard_assignment([0, 1], 2))


class TestEncodingTree:
    def test_two_singleton_classes(self):
        tree = tree_from_assignment(hard_assignment([0, 1], 2))
        assert tree.class_members == [(0,), (1,)]

    def test_single_class_holds_all(self):
        tree = tree_from_assignment(hard_assignment([0, 0, 0], 1))
        assert tree.class_members == [(0, 1, 2)]

    def test_empty_class_still_present(self):
        tree = tree_from_assignment(hard_assignment([0, 0], 2))
        assert tree.class_members == [(0, 1), ()]
        assert tree.nodes["class:1"].members == ()

    def test_stacked_membership_rejected(self):
        with pytest.raises(DimensionError, match="2-D"):
            tree_from_assignment(hard_assignment([[0, 1], [1, 0]], 2))

    def test_soft_input_rejected(self):
        soft = [[1.0, 0.0], [0.5, 0.5]]
        with pytest.raises(ValueError, match="one-hot"):
            tree_from_assignment(soft)

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            EncodingTree(3, [(0, 1), (1, 2)])


class TestDefinitionOracle:
    def test_single_class_term_is_zero(self):
        adj = ring_graph_4()
        tree = tree_from_assignment(hard_assignment([0, 0, 0, 0], 1))
        per_node, _ = structural_entropy_definition(adj, tree)
        assert per_node["class:0"] == 0.0

    def test_hand_enumerated_two_class_case(self):
        adj = ring_graph_4()
        tree = tree_from_assignment(hard_assignment([0, 0, 1, 1], 2))
        per_node, total = structural_entropy_definition(adj, tree)
        # cut 4, vol 12, class volume 6: each class term is 1/3
        assert per_node["class:0"] == pytest.approx(1 / 3)
        assert per_node["class:1"] == pytest.approx(1 / 3)
        # each leaf: cut 3, volume 3, parent volume 6
        assert per_node["leaf:0"] == pytest.approx(1 / 4)
        assert total == pytest.approx(2 / 3 + 4 * (1 / 4))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        adj, c, h, labels = random_case(rng)
        per, total = structural_entropy_definition(adj, tree_from_assignment(c))
        perm = rng.permutation(len(adj))
        adj_p = build_adjacency(h[perm])
        c_p = hard_assignment(labels[perm], c.shape[1])
        _, total_p = structural_entropy_definition(adj_p, tree_from_assignment(c_p))
        assert total_p == pytest.approx(total, abs=1e-12)

    def test_leaf_vertex_mismatch(self):
        tree = tree_from_assignment(hard_assignment([0, 1], 2))
        with pytest.raises(DimensionError):
            structural_entropy_definition(ring_graph_4(), tree)


class TestIntermediateLayerEntropy:
    def test_one_class_is_zero(self):
        adj = ring_graph_4()
        tree = tree_from_assignment(hard_assignment([0, 0, 0, 0], 1))
        assert intermediate_layer_entropy(adj, tree) == 0.0

    def test_hand_case(self):
        adj = ring_graph_4()
        tree = tree_from_assignment(hard_assignment([0, 0, 1, 1], 2))
        assert intermediate_layer_entropy(adj, tree) == pytest.approx(2 / 3)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        adj, c, _, _ = random_case(rng)
        tree = tree_from_assignment(c)
        base = intermediate_layer_entropy(adj, tree)
        for scale in (0.1, 10.0):
            scaled = adj * scale
            assert intermediate_layer_entropy(scaled, tree) == pytest.approx(base, abs=1e-9)


class TestSeLossMatrix:
    def test_single_class_is_zero(self):
        adj = ring_graph_4()
        assert se_loss_matrix(adj, hard_assignment([0] * 4, 1)) == 0.0

    def test_matches_hand_case(self):
        adj = ring_graph_4()
        c = hard_assignment([0, 0, 1, 1], 2)
        assert se_loss_matrix(adj, c) == pytest.approx(2 / 3)

    def test_empty_class_contributes_zero(self):
        adj = ring_graph_4()
        c = hard_assignment([0, 0, 1, 1], 3)  # class 2 empty
        c2 = hard_assignment([0, 0, 1, 1], 2)
        assert se_loss_matrix(adj, c) == pytest.approx(se_loss_matrix(adj, c2), abs=1e-12)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            se_loss_matrix(ring_graph_4(), hard_assignment([0, 1], 2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matrix_equals_definition(self, seed):
        rng = np.random.default_rng(seed)
        adj, c, _, _ = random_case(rng)
        matrix_val = se_loss_matrix(adj, c)
        oracle_val = intermediate_layer_entropy(adj, tree_from_assignment(c))
        assert matrix_val == pytest.approx(oracle_val, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        adj, c, _, _ = random_case(rng)
        value = se_loss_matrix(adj, c)
        assert -1e-12 <= value <= math.log2(c.shape[1]) + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        adj, c, _, _ = random_case(rng)
        base = se_loss_matrix(adj, c)
        for scale in (0.1, 10.0):
            scaled = adj * scale
            assert se_loss_matrix(scaled, c) == pytest.approx(base, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        adj, c, h, labels = random_case(rng)
        base = se_loss_matrix(adj, c)
        perm = rng.permutation(len(adj))
        adj_p = build_adjacency(h[perm])
        c_p = hard_assignment(labels[perm], c.shape[1])
        assert se_loss_matrix(adj_p, c_p) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_gradient_wrt_embeddings(self, trial):
        rng = np.random.default_rng(40 + trial)
        labels = rng.integers(0, 3, size=6)
        c = hard_assignment(labels, 3)

        def f(h):
            return se_loss_matrix(build_adjacency(h), c), dense_se_gradient(h, c)

        assert finite_difference_check(f, rng.standard_normal((6, 4)), h=1e-5) < 1e-4


def dense_se_gradient(h, assignment):
    """dL/dH of ``se_loss_matrix(build_adjacency(h), assignment)``, over the
    whole n x n graph at once.

    With a_k = dL/dcut_k, b_k = dL/dvol_k, s = dL/dsum(A) and u = C(a + b),
    dL/dA = s 11^T + 1 u^T - C diag(a) C^T; chained through
    A = sigmoid(HH^T), dL/dH = (M + M^T) H with M = dL/dA * A * (1 - A).
    """
    a, c = build_adjacency(h), assignment
    total = a.sum()
    cuts, vols = np.diag((1.0 - c).T @ a @ c), (a @ c).sum(axis=0)
    ratio = np.maximum(vols / total, LOG_EPS)
    inside = vols / total >= LOG_EPS  # the floored log passes no gradient
    a_k = -np.log2(ratio) / total
    b_k = -cuts * inside / (total * total * ratio * math.log(2.0))
    s = (cuts * (np.log2(ratio) + inside / math.log(2.0))).sum() / (total * total)
    d_a = s + (c @ (a_k + b_k))[None, :] - (c * a_k) @ c.T
    m = d_a * a * (1.0 - a)
    return (m + m.T) @ h


class TestFusedSeLoss:
    """``se_loss`` pinned to the matrix form and its dense gradient."""

    @staticmethod
    def assert_matches_composite(h, c):
        fused, backward = se_loss(h, c, need_grad=True)
        assert abs(fused - se_loss_matrix(build_adjacency(h), c)) <= 1e-12
        ref = dense_se_gradient(h, c)
        assert np.abs(backward(1.0) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("block_rows", [None, 3, 1])
    @pytest.mark.parametrize("case", ["hard", "soft", "empty-class", "two-points"])
    def test_matches_composite(self, monkeypatch, case, block_rows):
        rng = np.random.default_rng(60)
        n = 2 if case == "two-points" else 23
        h = 1.5 * rng.standard_normal((n, 3))
        if case == "soft":
            c = check_membership(rng.dirichlet(np.ones(4), size=n))
        elif case == "empty-class":
            c = hard_assignment(rng.integers(0, 2, size=n), 3)
        else:
            c = hard_assignment(rng.integers(0, 2, size=n), 2)
        if block_rows is not None:
            monkeypatch.setattr(entropy, "SE_BLOCK_ENTRIES", block_rows * n)
        self.assert_matches_composite(h, c)

    def test_gradient_on_row_blocks(self, monkeypatch):
        monkeypatch.setattr(entropy, "SE_BLOCK_ENTRIES", 2 * 7)
        rng = np.random.default_rng(61)
        c = check_membership(rng.dirichlet(np.ones(3), size=7))

        def f(h):
            loss, backward = se_loss(h, c, need_grad=True)
            return loss, backward(1.0)

        assert finite_difference_check(f, rng.standard_normal((7, 2))) < 1e-6

    @staticmethod
    def regression_case(n, seed):
        """Latent of width 1 and a 5-bin soft assignment, as regression trains."""
        rng = np.random.default_rng(seed)
        bins = make_bins(0.0, 5.0, 5)
        c = soften(distance_matrix(rng.uniform(0.0, 5.0, size=n), bins))
        return 2.0 * rng.standard_normal((n, 1)), c

    def test_matches_composite_over_shipped_tiles(self):
        n = 400
        assert math.ceil(n / (entropy.SE_BLOCK_ENTRIES // n)) >= 3  # tiles
        self.assert_matches_composite(*self.regression_case(n, 62))

    @pytest.mark.parametrize("case", ["soft-d1", "hard-d3"])
    def test_matches_composite_with_a_ragged_last_tile(self, case):
        n = 401
        rows = entropy.SE_BLOCK_ENTRIES // n
        assert n % rows and math.ceil(n / rows) >= 3
        if case == "soft-d1":
            self.assert_matches_composite(*self.regression_case(n, 65))
        else:
            rng = np.random.default_rng(66)
            c = hard_assignment(rng.integers(0, 3, size=n), 3)
            self.assert_matches_composite(1.5 * rng.standard_normal((n, 3)), c)

    def test_forward_visits_only_the_upper_half_graph(self, monkeypatch):
        entries, sigmoid = [], entropy._sigmoid_of_negated

        def counted(x, *args, **kwargs):
            entries.append(x.size)
            return sigmoid(x, *args, **kwargs)

        monkeypatch.setattr(entropy, "_sigmoid_of_negated", counted)
        n = 1024
        rows = entropy.SE_BLOCK_ENTRIES // n
        h, c = self.regression_case(n, 67)
        se_loss(h, c, need_grad=True)[1](1.0)
        assert len(entries) == n // rows
        assert sum(entries) <= n * (n + rows) // 2  # the full graph is n * n

    def test_d1_tiles_are_blocks_of_build_adjacency(self, monkeypatch):
        # At d = 1 every Gram entry is one rounded product in both routes,
        # and both apply the one sigmoid, so each tile is a block of A.
        tiles, sigmoid = [], entropy._sigmoid_of_negated

        def captured(x, *args, **kwargs):
            a_t = sigmoid(x, *args, **kwargs)
            tiles.append(a_t.copy())
            return a_t

        monkeypatch.setattr(entropy, "_sigmoid_of_negated", captured)
        n = 401
        rows = entropy.SE_BLOCK_ENTRIES // n
        h, c = self.regression_case(n, 68)
        se_loss(h, c, need_grad=True)
        monkeypatch.undo()
        a = build_adjacency(h)
        assert len(tiles) == math.ceil(n / rows) >= 3 and n % rows
        for a_t in tiles:  # tile [start, start + rows) forms columns start:
            start = n - a_t.shape[1]
            assert np.array_equal(a_t, a[start:start + a_t.shape[0], start:])

    @pytest.mark.parametrize("n, tiles", [(20, 1), (401, 3)], ids=["one-tile", "ragged-tiles"])
    def test_extreme_latents_stay_finite_and_pinned(self, n, tiles):
        # Past exp's overflow: h_i . h_j reaches -1e3 and below, where
        # exp(-x) is inf, and 37 and above, where sigmoid(x) is exactly 1.0.
        rng = np.random.default_rng(72)
        h = 40.0 * rng.standard_normal((n, 2))
        c = check_membership(rng.dirichlet(np.ones(3), size=n))
        gram = h @ h.T
        assert (gram < -1e3).any() and (gram >= 37.0).any()
        assert math.ceil(n / (entropy.SE_BLOCK_ENTRIES // n)) == tiles
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss, backward = se_loss(h, c, need_grad=True)
            grad = backward(1.0)
        assert np.isfinite(loss) and np.isfinite(grad).all()
        self.assert_matches_composite(h, c)

    def test_width_one_gram_by_broadcast_equals_matmul(self):
        h = self.regression_case(1024, 68)[0]
        h_t = h.T.copy()
        for start in (0, 64):  # a full-width tile and a trapezoid one
            tile = slice(start, start + 64)
            assert np.array_equal(h[tile] * h_t[:, start:], h[tile] @ h_t[:, start:])

    def test_constant_embeddings_give_the_same_loss(self):
        # with or without the gradient panel, the same bits
        h, c = self.regression_case(400, 63)
        assert se_loss(h, c)[0] == se_loss(h, c, need_grad=True)[0]
        assert se_loss(h, c)[1] is None

    def test_backward_never_allocates_the_graph(self):
        import tracemalloc

        h, c = self.regression_case(3000, 64)
        _, backward = se_loss(h, c, need_grad=True)
        tracemalloc.start()
        try:
            backward(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one 3000 x 3000 graph is 69 MiB

    @pytest.mark.parametrize("n, d, soft, need_grad", [
        (20, 2, False, True), (20, 2, True, True), (20, 1, True, True),
        (MULTI_TILE_ROWS[0], 2, True, True), (MULTI_TILE_ROWS[1], 3, False, True),
        (MULTI_TILE_ROWS[1], 1, True, False), (20, 2, False, False),
    ], ids=["hard", "soft", "d1", "soft-tiles", "hard-tiles", "d1-tiles-forward",
            "forward"])
    def test_stack_gives_each_slice_its_solo_value_and_gradient(self, n, d, soft, need_grad):
        rng = np.random.default_rng(71)
        h = rng.standard_normal((3, n, d))
        if soft:
            c = rng.dirichlet(np.ones(3), size=(3, n))
        else:
            c = hard_assignment(rng.integers(0, 3, size=(3, n)), 3)
        weights = (1.0, -2.0, 0.5)
        loss, backward = se_loss(h, c, need_grad=need_grad)
        stacked = backward(np.asarray(weights)) if need_grad else None
        for s, w in enumerate(weights):
            value, alone = se_loss(h[s], c[s], need_grad=need_grad)
            assert loss[s] == value
            if need_grad:
                assert stacked[s].tobytes() == alone(w).tobytes()
            else:
                assert backward is None and alone is None

    @pytest.mark.parametrize("need_grad", [False, True], ids=["forward", "with-panel"])
    def test_stack_holds_one_tile_block(self, need_grad):
        # The slices take turns in the call's one block of Gram and graph
        # tiles, 1 MB here; every other array is O(S * n * (r+1) * d), 384 kB.
        # A block per slice would hold 8 MB, and 8 slices' graphs 256 MB.
        import tracemalloc

        rng = np.random.default_rng(73)
        k, n, d, r = 8, 2000, 1, 2
        h = rng.standard_normal((k, n, d))
        c = hard_assignment(rng.integers(0, r, size=(k, n)), r)
        block = 2 * (entropy.SE_BLOCK_ENTRIES // n) * n * 8
        tracemalloc.start()
        try:
            se_loss(h, c, need_grad=need_grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block + 8 * k * n * (r + 1) * d * 8

    def test_rejects_bad_inputs(self):
        c = hard_assignment([0, 1, 0], 2)
        with pytest.raises(DimensionError):
            se_loss(np.zeros(3), c)
        with pytest.raises(DimensionError):
            se_loss(np.zeros((4, 2)), c)
        with pytest.raises(DegenerateBatchError):
            se_loss(np.zeros((1, 2)), hard_assignment([0], 2))
        with pytest.raises(ValueError, match="embeddings must be finite"):
            se_loss([[0.0], [np.nan], [1.0]], c)


class TestDebugReport:
    def test_report_is_json_ready_and_consistent(self):
        import json

        rng = np.random.default_rng(9)
        adj, c, _, _ = random_case(rng, n=5, r=2)
        report = entropy_report(adj, c)
        json.dumps(report)  # serializable
        vol = report["volume"]
        loss = -sum((g / vol) * math.log2(max(v / vol, 1e-12))
                    for g, v in zip(report["cut_weights"], report["class_volumes"]))
        assert report["se_loss"] == pytest.approx(loss, abs=1e-9)

    def test_cut_and_volume_views_match_tree(self):
        report = entropy_report(ring_graph_4(), hard_assignment([0, 0, 1, 1], 2))
        np.testing.assert_allclose(report["cut_weights"], [4.0, 4.0])
        np.testing.assert_allclose(report["class_volumes"], [6.0, 6.0])
        assert report["se_loss"] == pytest.approx(2 / 3)
