import math

import numpy as np
import pytest

from flowal import (
    ConfusionMatrix,
    ForestParams,
    SyntheticSpec,
    TimingRecord,
    confusion,
    evaluate_accuracy,
    f1_macro,
    fit_forest,
    generate_synthetic,
    tar,
    ttr,
)
from flowal.errors import (
    ClassOutOfRange,
    InvalidParams,
    LengthMismatch,
    ZeroDenominator,
)
from tests.test_engine import seeded_split


class TestTar:
    def test_identity(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.01, 1.0, size=20):
            assert tar(x, x) == 1.0

    def test_benchmark_point(self):
        # 0.74 subset accuracy against a 0.99 full model
        value = tar(0.74, 0.99)
        assert value == 0.74 / 0.99  # bit-exact: same division
        assert value == pytest.approx(0.7475, abs=1e-4)

    def test_zero_numerator(self):
        assert tar(0.0, 0.9) == 0.0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            tar(0.5, 0.0)

    @pytest.mark.parametrize("acc_subset, acc_full", [
        (0.5, math.nan), (math.nan, 0.5), (0.5, math.inf), (1.5, 1.0),
        (-0.1, 0.5), (0.5, -0.1)])
    def test_accuracies_outside_the_unit_interval_rejected(self, acc_subset,
                                                            acc_full):
        with pytest.raises(InvalidParams, match=r"in \[0, 1\]"):
            tar(acc_subset, acc_full)

    def test_homogeneous(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = rng.uniform(0.05, 1.0, size=3)
            assert tar(c * a, c * b) == pytest.approx(tar(a, b), rel=1e-12)


class TestTtr:
    def test_identity(self):
        assert ttr(TimingRecord(5.0, 0.0, 5.0)) == 1.0

    def test_benchmark_point(self):
        # 3.4 s of subset work against a 139.8 s full training run
        value = ttr(TimingRecord(3.4, 0.0, 139.8))
        assert value == 3.4 / 139.8  # bit-exact
        assert round(value, 4) == 0.0243
        assert round(value, 3) == 0.024

    def test_zero_numerator(self):
        assert ttr(TimingRecord(0.0, 0.0, 10.0)) == 0.0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            ttr(TimingRecord(1.0, 1.0, 0.0))

    def test_negative_times_rejected(self):
        with pytest.raises(InvalidParams):
            TimingRecord(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_times_rejected(self, bad, position):
        times = [1.0, 1.0, 1.0]
        times[position] = bad
        with pytest.raises(InvalidParams, match="finite"):
            TimingRecord(*times)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 1]))
        assert cm.accuracy() == 1.0

    def test_hand_tally(self):
        cm = confusion([0, 1, 1], [0, 1, 0], 2)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 1]])
        assert cm.accuracy() == pytest.approx(2 / 3)

    def test_row_sums_match_truth_counts(self):
        rng = np.random.default_rng(3)
        truths = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        cm = confusion(preds, truths, 4)
        np.testing.assert_array_equal(cm.counts.sum(axis=1),
                                      np.bincount(truths, minlength=4))
        assert cm.total == 200

    def test_trace_over_total_equals_accuracy_cross_module(self):
        ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=40,
                                              n_features=3, seed=2))
        test, train = seeded_split(ds, 0.4, 0)
        model = fit_forest(train, ForestParams(n_trees=9), 0)
        preds = model.predict_many(test.features)
        cm = confusion(preds, test.labels, 3)
        assert cm.accuracy() == evaluate_accuracy(model, test)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0], 2)
        with pytest.raises(LengthMismatch):
            confusion([], [], 2)
        with pytest.raises(ClassOutOfRange):
            confusion([0, 2], [0, 1], 2)


class TestF1Macro:
    def test_perfect_diagonal(self):
        assert f1_macro(ConfusionMatrix(np.diag([3, 2, 5]))) == 1.0

    def test_absent_class_contributes_zero(self):
        # class 2 never appears in truths or predictions
        cm = ConfusionMatrix(np.array([[2, 0, 0], [0, 2, 0], [0, 0, 0]]))
        assert f1_macro(cm) == pytest.approx(2 / 3, abs=1e-12)

    def test_hand_example(self):
        # per-class F1 both equal 2/3, so the macro does too
        cm = ConfusionMatrix(np.array([[1, 1], [0, 1]]))
        assert f1_macro(cm) == pytest.approx(2 / 3, abs=1e-12)
        assert f1_macro(cm) == pytest.approx(0.6667, abs=1e-4)

    def test_bounded_and_one_iff_perfect(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            counts = rng.integers(0, 6, size=(n, n))
            if counts.sum() == 0:
                continue
            cm = ConfusionMatrix(counts)
            value = f1_macro(cm)
            assert 0.0 <= value <= 1.0
            diagonal = (counts == np.diag(np.diag(counts))).all()
            full_support = (np.diag(counts) > 0).all()
            assert (value == 1.0) == (diagonal and full_support)
