import numpy as np
import pytest

from spectralkan import (ConfusionMatrix, LabelMap, kappa, overall_accuracy,
                         report, tally)
from spectralkan.errors import ContractError, UndefinedMetricError


def cm(tn, fp, fn, tp):
    return ConfusionMatrix(np.array([[tn, fp], [fn, tp]]))


class TestAccumulate:
    """Tallying a full prediction grid against a label map."""

    def test_perfect_prediction_is_diagonal(self):
        truth = LabelMap((np.arange(16).reshape(4, 4) % 2).astype(np.uint8))
        result = tally(truth.labels.copy(), truth.labels)
        assert result.counts[0, 1] == 0 and result.counts[1, 0] == 0
        assert result.total == 16

    def test_all_unknown_is_empty(self):
        truth = LabelMap(np.full((3, 3), 255, dtype=np.uint8))
        result = tally(np.zeros((3, 3), dtype=np.uint8), truth.labels)
        assert result.total == 0
        with pytest.raises(UndefinedMetricError):
            overall_accuracy(result)

    def test_four_pixel_enumeration(self):
        truth = LabelMap(np.array([[0, 0], [1, 1]], dtype=np.uint8))
        pred = np.array([[0, 1], [0, 1]], dtype=np.uint8)
        result = tally(pred, truth.labels)
        assert result.counts.tolist() == [[1, 1], [1, 1]]

    def test_unknowns_are_masked(self):
        truth = LabelMap(np.array([[0, 255], [255, 1]], dtype=np.uint8))
        pred = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        result = tally(pred, truth.labels)
        assert result.total == 2
        assert result.counts[0, 1] == 1 and result.counts[1, 1] == 1

    def test_rejects_dimension_mismatch(self):
        truth = LabelMap(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ContractError):
            tally(np.zeros((3, 2), dtype=np.uint8), truth.labels)


class TestOverallAccuracy:
    def test_perfect(self):
        assert overall_accuracy(cm(50, 0, 0, 50)) == 1.0

    def test_direct_ratio(self):
        assert overall_accuracy(cm(40, 10, 10, 40)) == 0.8

    def test_total_disagreement(self):
        assert overall_accuracy(cm(0, 7, 5, 0)) == 0.0


class TestKappa:
    def test_perfect_balanced(self):
        assert kappa(cm(50, 0, 0, 50)) == 1.0

    def test_chance_agreement(self):
        assert kappa(cm(25, 25, 25, 25)) == 0.0

    def test_formula_substitution(self):
        assert abs(kappa(cm(40, 10, 10, 40)) - 0.6) <= 1e-12

    def test_degenerate_single_cell(self):
        assert kappa(cm(100, 0, 0, 0)) == 0.0

    def test_identical_rows_give_zero(self):
        for a, b in [(3, 7), (10, 1), (5, 5)]:
            assert abs(kappa(cm(a, b, a, b))) <= 1e-12

    def test_kappa_is_one_iff_diagonal(self):
        assert kappa(cm(3, 0, 0, 9)) == 1.0
        assert kappa(cm(3, 1, 0, 9)) < 1.0

    def test_empty_matrix_raises(self):
        with pytest.raises(UndefinedMetricError):
            kappa(cm(0, 0, 0, 0))


class TestProperties:
    def test_label_swap_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, size=50)
        truth = rng.integers(0, 2, size=50)
        a = tally(pred, truth)
        b = tally(1 - pred, 1 - truth)
        assert overall_accuracy(a) == overall_accuracy(b)
        assert abs(kappa(a) - kappa(b)) <= 1e-12

    def test_shard_merge_matches_global(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 2, size=100)
        truth = rng.integers(0, 2, size=100)
        merged = tally(pred[:37], truth[:37]).counts \
            + tally(pred[37:], truth[37:]).counts
        assert np.array_equal(merged, tally(pred, truth).counts)

    def test_report_payload(self):
        payload = report(cm(40, 10, 10, 40))
        assert payload["oa"] == 0.8
        assert abs(payload["kappa"] - 0.6) <= 1e-12
        assert payload["confusion"] == [[40, 10], [10, 40]]
        assert payload["evaluated_pixels"] == 100


class TestValueChecks:
    """Values are checked as given; none is rounded into a count."""

    @pytest.mark.parametrize("pred,truth", [
        ([0.7, 1.9], [1, 1]), ([0, 2], [0, 1]), ([0, 1], [2, 1]),
        ([0, 1], [-1, 1]), ([0, 1], [0.5, 1]), ([0, 1], [np.nan, 1]),
    ], ids=["fractional-pred", "pred-2", "truth-2", "truth-minus-1",
            "fractional-truth", "nan-truth"])
    def test_tally_rejects_values_outside_the_classes(self, pred, truth):
        with pytest.raises(ContractError):
            tally(np.array(pred), np.array(truth))

    def test_tally_ignores_predictions_on_unknown_pixels(self):
        result = tally(np.array([0.5, 1.0, 0.0]), np.array([255, 1, 0]))
        assert result.counts.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("counts", [
        [[0.5, 2.7], [1, 3]], [[0.5, 0], [0, 0.9]], [[np.inf, 0], [0, 1]],
        [[np.nan, 0], [0, 1]], [[1e30, 0], [0, 1]], [[-1, 0], [0, 0]],
        [[1, 2, 3], [4, 5, 6]],
    ], ids=["fractions", "fractions-below-one", "inf", "nan", "beyond-int64",
            "negative", "2x3"])
    def test_confusion_matrix_rejects_counts_that_are_not_whole(self, counts):
        with pytest.raises(ContractError):
            ConfusionMatrix(np.array(counts))

    def test_confusion_matrix_keeps_whole_floats(self):
        assert ConfusionMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])).counts.tolist() \
            == [[1, 2], [3, 4]]
