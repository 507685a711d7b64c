import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajseg import metrics
from trajseg.errors import InvalidInputError, UndefinedMetricError

from oracles import pair_counting_ari


class TestAri:
    def test_perfect_match(self):
        assert metrics.ari([0, 1, 1, 2], [5, 3, 3, 9]) == pytest.approx(1.0)

    def test_constant_pred_balanced_truth(self):
        assert metrics.ari([1, 1, 1, 1], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_checkerboard_value(self):
        # frozen from the pair-counting oracle: 6 pairs, index 0, E=2/3, max=2
        assert pair_counting_ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
        assert metrics.ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_degenerate_single_cluster_both_sides(self):
        assert metrics.ari([0, 0, 0], [1, 1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            metrics.ari([0, 1], [0, 1, 2])

    def test_matches_pair_counting_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = rng.integers(4, 12)
            pred = rng.integers(0, 3, n)
            truth = rng.integers(0, 3, n)
            assert metrics.ari(pred, truth) == pytest.approx(
                pair_counting_ari(pred, truth), abs=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=12))
def test_ari_symmetry_and_relabel_invariance(truth):
    rng = np.random.default_rng(len(truth))
    pred = rng.integers(0, 3, len(truth))
    a = metrics.ari(pred, truth)
    assert metrics.ari(truth, pred) == a
    relabeled = [(t + 7) * 3 for t in truth]
    assert metrics.ari(pred, relabeled) == a


class TestFgAri:
    def test_all_foreground_equals_ari(self):
        pred = [0, 1, 0, 1, 2]
        truth = [1, 1, 2, 2, 2]
        assert metrics.fg_ari(pred, truth, [True] * 5) == metrics.ari(pred, truth)

    def test_background_ignored(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([5, 7, 3, 3, 4, 4])  # background scrambled, fg perfect
        assert metrics.fg_ari(pred, truth, truth != 0) == pytest.approx(1.0)

    def test_equals_filtered_ari(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 4, 30)
        pred = rng.integers(0, 4, 30)
        fg = truth != 0
        assert metrics.fg_ari(pred, truth, fg) == metrics.ari(pred[fg], truth[fg])

    def test_too_few_foreground(self):
        with pytest.raises(UndefinedMetricError):
            metrics.fg_ari([0, 1, 2], [0, 0, 1], [False, False, True])


def test_metric_report_keys():
    rep = metrics.metric_report([0, 1, 1, 0], [0, 1, 1, 2])
    assert set(rep) == {"ari", "fg_ari", "jaccard", "k_pred", "k_true"}
    assert rep["k_pred"] == 2 and rep["k_true"] == 3
