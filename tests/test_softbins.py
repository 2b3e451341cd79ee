import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tape_reference import constant

from bottletree.entropy import (AssignmentMatrix, build_adjacency,
                                hard_assignment, se_loss_matrix)
from bottletree.softbins import (BinSpec, distance_matrix, make_bins,
                                 nearest_bin, soft_cuts, soft_volumes, soften)


def random_adj(rng, n):
    return build_adjacency(rng.standard_normal((n, int(rng.integers(2, 6)))))


def random_soft(rng, n, r):
    return AssignmentMatrix(rng.dirichlet(np.ones(r), size=n), mode="soft")


class TestMakeBins:
    def test_five_bins_over_zero_five(self):
        assert make_bins(0.0, 5.0, 5).centers == (0.5, 1.5, 2.5, 3.5, 4.5)

    def test_four_bins_over_one_five(self):
        assert make_bins(1.0, 5.0, 4).centers == (1.5, 2.5, 3.5, 4.5)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            make_bins(2.0, 2.0, 4)
        with pytest.raises(ValueError):
            make_bins(0.0, 5.0, 1)

    def test_centers_strictly_increasing_inside_range(self):
        bins = make_bins(-3.0, 7.0, 8)
        centers = np.asarray(bins.centers)
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > bins.lo and centers[-1] < bins.hi


class TestDistanceMatrix:
    def test_label_on_center(self):
        d = distance_matrix([0.5], BinSpec(0.0, 2.0, (0.5, 1.5)))
        np.testing.assert_array_equal(d, [[0.0, 1.0]])

    def test_hand_row(self):
        d = distance_matrix([2.0], make_bins(0.0, 5.0, 5))
        np.testing.assert_array_equal(d, [[1.5, 0.5, 0.5, 1.5, 2.5]])

    def test_row_min_zero_iff_on_center(self):
        bins = make_bins(0.0, 5.0, 5)
        d = distance_matrix([0.5, 0.7], bins)
        assert d[0].min() == 0.0
        assert d[1].min() > 0.0

    def test_out_of_range_warns_but_works(self):
        with pytest.warns(UserWarning):
            d = distance_matrix([7.0], make_bins(0.0, 5.0, 5))
        assert np.all(np.isfinite(d))


class TestSoften:
    def test_equidistant_row_is_uniform(self):
        out = soften(np.array([[1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(out.membership, [[1 / 3] * 3])

    def test_direct_evaluation(self):
        out = soften(np.array([[0.5, 1.5]]))
        np.testing.assert_allclose(out.membership,
                                   [[0.73106, 0.26894]], atol=1e-5)

    def test_monotonicity(self):
        out = soften(np.array([[0.2, 1.0, 3.0]])).membership[0]
        assert out[0] > out[1] > out[2]

    def test_argmax_is_nearest_bin(self):
        rng = np.random.default_rng(0)
        bins = make_bins(0.0, 5.0, 5)
        y = rng.uniform(0, 5, size=40)
        soft = soften(distance_matrix(y, bins))
        np.testing.assert_array_equal(np.argmax(soft.membership, axis=1),
                                      nearest_bin(y, bins))

    @given(st.lists(st.floats(0, 5), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, labels):
        soft = soften(distance_matrix(labels, make_bins(0.0, 5.0, 5)))
        np.testing.assert_allclose(soft.membership.sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_temperature_sharpens(self):
        d = np.array([[0.5, 1.5]])
        cold = soften(d, temperature=0.1).membership[0, 0]
        warm = soften(d, temperature=1.0).membership[0, 0]
        assert cold > warm

    @pytest.mark.parametrize("temperature", [0.1, 1.0, 3.0])
    def test_membership_bits_match_the_tape_softmax(self, temperature):
        rng = np.random.default_rng(61)
        d = distance_matrix(rng.uniform(0.0, 5.0, size=40), make_bins(0.0, 5.0, 5))
        reference = constant(-d / temperature).softmax(axis=1).values
        assert np.array_equal(soften(d, temperature).membership, reference)

    def test_stacked_labels_soften_slice_by_slice(self):
        rng = np.random.default_rng(62)
        bins = make_bins(0.0, 5.0, 5)
        y = rng.uniform(0.0, 5.0, size=(3, 16))
        stacked = soften(distance_matrix(y, bins), 0.5)
        assert stacked.n == 16 and stacked.num_classes == 5
        for row, labels in zip(stacked.membership, y):
            assert np.array_equal(row, soften(distance_matrix(labels, bins), 0.5).membership)
        assert np.array_equal(nearest_bin(y, bins)[1], nearest_bin(y[1], bins))

    def test_no_gradient_flows_into_membership(self):
        # labels are data: the membership is a plain array, never a tape node
        soft = soften(np.array([[0.5, 1.5]]))
        assert type(soft.membership) is np.ndarray


class TestSoftVolumes:
    def test_one_hot_reduces_to_hard_volume(self):
        rng = np.random.default_rng(1)
        adj = random_adj(rng, 6)
        labels = rng.integers(0, 3, size=6)
        hard = hard_assignment(labels, 3)
        onehot = AssignmentMatrix(hard.membership, mode="soft")
        expected = [adj.degrees[labels == j].sum() for j in range(3)]
        np.testing.assert_allclose(soft_volumes(adj, onehot), expected, atol=1e-12)

    def test_uniform_membership_splits_volume_evenly(self):
        rng = np.random.default_rng(2)
        adj = random_adj(rng, 5)
        uniform = AssignmentMatrix(np.full((5, 4), 0.25), mode="soft")
        np.testing.assert_allclose(soft_volumes(adj, uniform),
                                   np.full(4, adj.volume / 4), atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, seed):
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(3, 12)), int(rng.integers(2, 5))
        adj = random_adj(rng, n)
        soft = random_soft(rng, n, r)
        assert soft_volumes(adj, soft).sum() == pytest.approx(adj.volume, abs=1e-9)


class TestSoftCuts:
    def test_one_hot_reduces_to_hard_cut(self):
        rng = np.random.default_rng(3)
        adj = random_adj(rng, 6)
        labels = rng.integers(0, 2, size=6)
        onehot = AssignmentMatrix(hard_assignment(labels, 2).membership, mode="soft")
        a = adj.weights
        for j in range(2):
            inside = np.flatnonzero(labels == j)
            outside = np.flatnonzero(labels != j)
            manual = a[np.ix_(inside, outside)].sum()
            assert soft_cuts(adj, onehot)[j] == pytest.approx(manual, abs=1e-9)

    def test_all_ones_column_has_zero_cut(self):
        rng = np.random.default_rng(4)
        adj = random_adj(rng, 4)
        m = np.zeros((4, 2))
        m[:, 0] = 1.0
        soft = AssignmentMatrix(m, mode="soft")
        cuts = soft_cuts(adj, soft)
        assert cuts[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_matrix_expression(self):
        rng = np.random.default_rng(5)
        adj = random_adj(rng, 7)
        soft = random_soft(rng, 7, 3)
        m = soft.membership
        a = adj.weights
        matrix_diag = np.diag((1.0 - m).T @ a @ m)
        np.testing.assert_allclose(soft_cuts(adj, soft), matrix_diag, atol=1e-9)


class TestSoftSeLoss:
    def test_one_hot_equals_hard_loss_exactly(self):
        rng = np.random.default_rng(6)
        adj = random_adj(rng, 8)
        labels = rng.integers(0, 3, size=8)
        hard = hard_assignment(labels, 3)
        onehot = AssignmentMatrix(hard.membership.copy(), mode="soft")
        assert se_loss_matrix(adj, onehot) == se_loss_matrix(adj, hard)

    def test_uniform_membership_closed_form(self):
        # every class: volume vol/r, cut (1-1/r)*vol/r -> loss (r-1)/r*log2(r)
        rng = np.random.default_rng(7)
        for r in (2, 3, 5):
            n = int(rng.integers(3, 10))
            adj = random_adj(rng, n)
            uniform = AssignmentMatrix(np.full((n, r), 1.0 / r), mode="soft")
            expected = (r - 1) / r * math.log2(r)
            assert se_loss_matrix(adj, uniform) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_summation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(3, 12)), int(rng.integers(2, 5))
        adj = random_adj(rng, n)
        soft = random_soft(rng, n, r)
        cuts, vols = soft_cuts(adj, soft), soft_volumes(adj, soft)
        vol = adj.volume
        expected = -sum((g / vol) * math.log2(max(v / vol, 1e-12))
                        for g, v in zip(cuts, vols))
        assert se_loss_matrix(adj, soft) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(3, 12)), int(rng.integers(2, 5))
        value = se_loss_matrix(random_adj(rng, n), random_soft(rng, n, r))
        assert -1e-12 <= value <= math.log2(r) + 1e-12


def test_nearest_bin_tie_goes_to_lower_index():
    bins = make_bins(0.0, 2.0, 2)  # centers 0.5, 1.5; tie at 1.0
    assert nearest_bin([1.0], bins)[0] == 0
