import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from bottletree.metrics import (accuracy, average_ranks, classification_scores,
                                confusion_matrix, macro_f1, macro_recall, pearson,
                                per_class_f1, spearman)


def loop_f1_and_recall(preds, golds, num_classes):
    """Per-class F1 and recall, class by class from boolean masks: the reference."""
    preds, golds = np.asarray(preds), np.asarray(golds)
    f1, recall = np.zeros(num_classes), np.zeros(num_classes)
    for c in range(num_classes):
        tp = float(np.sum((preds == c) & (golds == c)))
        fp = float(np.sum((preds == c) & (golds != c)))
        fn = float(np.sum((preds != c) & (golds == c)))
        denom = 2.0 * tp + fp + fn
        f1[c] = 2.0 * tp / denom if denom > 0 else 0.0
        support = float(np.sum(golds == c))
        recall[c] = tp / support if support > 0 else 0.0
    return f1, recall


class TestMacroF1:
    def test_perfect_predictions(self):
        assert macro_f1([0, 1, 0, 1], [0, 1, 0, 1], 2) == 1.0

    def test_all_one_class_hand_case(self):
        # preds all 0, golds [0, 1]: class0 F1 = 2/3, class1 F1 = 0
        assert macro_f1([0, 0], [0, 1], 2) == pytest.approx(1 / 3)

    def test_absent_class_contributes_zero(self):
        f1s = per_class_f1([0, 0], [0, 0], 2)
        assert f1s[0] == 1.0
        assert f1s[1] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            macro_f1([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            macro_f1([0, 3], [0, 1], 2)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=30),
           st.permutations(list(range(4))))
    @settings(max_examples=50, deadline=None)
    def test_relabeling_invariance(self, golds, relabel):
        rng = np.random.default_rng(len(golds))
        preds = rng.integers(0, 4, size=len(golds))
        golds = np.asarray(golds)
        mapping = np.asarray(relabel)
        base = macro_f1(preds, golds, 4)
        assert macro_f1(mapping[preds], mapping[golds], 4) == pytest.approx(base)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            preds = rng.integers(0, 3, 10)
            golds = rng.integers(0, 3, 10)
            assert 0.0 <= macro_f1(preds, golds, 3) <= 1.0


class TestConfusionMatrix:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_the_class_loop_bit_for_bit(self, seed, n, r):
        rng = np.random.default_rng(seed)
        preds, golds = rng.integers(0, r, size=n), rng.integers(0, r, size=n)
        f1, recall = loop_f1_and_recall(preds, golds, r)
        assert per_class_f1(preds, golds, r).tobytes() == f1.tobytes()
        assert macro_f1(preds, golds, r) == float(f1.mean())
        assert macro_recall(preds, golds, r) == float(recall.mean())
        assert classification_scores(preds, golds, r) == {
            "accuracy": accuracy(preds, golds), "macro_f1": float(f1.mean()),
            "macro_recall": float(recall.mean()), "per_class_f1": f1.tolist()}


    @pytest.mark.parametrize("preds, golds", [([0.9, 1.2], [0, 1]), ([0, 1], [0.0, 1.5]),
                                              ([0, 1], [0.0, np.nan])])
    def test_non_integral_labels_rejected(self, preds, golds):
        with pytest.raises(ValueError, match="class labels must be integers"):
            macro_f1(preds, golds, 2)

    def test_integral_floats_and_empty_input_are_labels(self):
        assert macro_f1([0.0, 1.0], [0, 1], 2) == 1.0
        assert confusion_matrix([], [], 2).tolist() == [[0, 0], [0, 0]]


class TestMacroRecall:
    def test_perfect(self):
        assert macro_recall([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_partial(self):
        # class 0 recall 1/2, class 1 recall 1
        assert macro_recall([0, 1, 1], [0, 0, 1], 2) == pytest.approx(0.75)

    @pytest.mark.parametrize("preds, golds", [([0, 2], [0, 1]), ([0, 1], [0, 2]),
                                              ([0, -1], [0, 1])])
    def test_out_of_range(self, preds, golds):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            macro_recall(preds, golds, 2)


class TestAccuracy:
    def test_simple(self):
        assert accuracy([0, 1, 1], [0, 1, 0]) == pytest.approx(2 / 3)


class TestCorrelations:
    def test_identity(self):
        x = np.arange(10, dtype=float)
        assert pearson(x, x) == pytest.approx(1.0)
        assert spearman(x, x) == pytest.approx(1.0)

    def test_negation(self):
        x = np.arange(10, dtype=float)
        assert pearson(x, -x) == pytest.approx(-1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_monotone_nonlinear(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 4.0, 9.0])
        assert spearman(x, y) == pytest.approx(1.0)
        assert pearson(x, y) < 1.0
        assert pearson(x, y) == pytest.approx(
            float(scipy_stats.pearsonr(x, y).statistic))

    def test_constant_input_is_zero_with_warning(self):
        with pytest.warns(UserWarning):
            assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        with pytest.warns(UserWarning):
            assert spearman([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])

    @given(st.integers(0, 2**32 - 1), st.integers(5, 60))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_random_data(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        assert pearson(x, y) == pytest.approx(
            float(scipy_stats.pearsonr(x, y).statistic), abs=1e-12)
        assert spearman(x, y) == pytest.approx(
            float(scipy_stats.spearmanr(x, y).statistic), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_spearman_ties_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, size=20).astype(float)  # heavy ties
        y = rng.integers(0, 4, size=20).astype(float)
        ours = spearman(x, y)
        theirs = float(scipy_stats.spearmanr(x, y).statistic)
        if np.isnan(theirs):  # scipy yields nan on constant input; we define 0
            assert ours == 0.0
        else:
            assert ours == pytest.approx(theirs, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_spearman_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3.0 * y + 1.0) == pytest.approx(base, abs=1e-12)


class TestAverageRanks:
    def test_no_ties(self):
        np.testing.assert_array_equal(average_ranks([30.0, 10.0, 20.0]),
                                      [3.0, 1.0, 2.0])

    def test_ties_share_average(self):
        np.testing.assert_array_equal(average_ranks([1.0, 2.0, 2.0, 3.0]),
                                      [1.0, 2.5, 2.5, 4.0])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_matches_scipy_rankdata(self, values):
        np.testing.assert_allclose(average_ranks(values),
                                   scipy_stats.rankdata(values, method="average"))

    def test_matches_the_scan_over_tie_runs_bit_for_bit(self):
        def scan(x):  # the reference: walk each run of equal sorted values
            order = np.argsort(x, kind="stable")
            ranks = np.empty(x.size)
            sorted_x = x[order]
            i = 0
            while i < x.size:
                j = i
                while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
                    j += 1
                ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(5)
        cases = [np.zeros(0), np.ones(1)]
        for n in (2, 17, 300):  # distinct, few values, rounded, NaNs among ties
            cases += [rng.standard_normal(n), rng.integers(0, 4, n),
                      np.round(rng.standard_normal(n), 1),
                      np.where(rng.random(n) < 0.3, np.nan, rng.integers(0, 3, n))]
        for x in cases:
            assert average_ranks(x).tobytes() == scan(x).tobytes()
