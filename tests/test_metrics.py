"""Classification metrics vs hand counts and O(n^2) rank oracles."""

import numpy as np
import pytest

from flog.metrics import (
    CSV_HEADER,
    RoundMetrics,
    confusion,
    csv_row,
    evaluate,
    prf1_accuracy,
    roc_auc,
)


def pairwise_auc(scores, labels):
    """O(n^2) concordance oracle: ties count half."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_hand_built_ten_sample_case(self):
        scores = [0.9, 0.8, 0.3, 0.6, 0.2, 0.7, 0.1, 0.5, 0.4, 0.95]
        labels = [1, 1, 1, 0, 0, 1, 0, 0, 1, 1]
        # predictions (>= 0.5): 1 1 0 1 0 1 0 1 0 1
        # TP: idx 0,1,5,9  FP: idx 3,7  TN: idx 4,6  FN: idx 2,8
        assert confusion(scores, labels) == (4, 2, 2, 2)

    def test_partition(self):
        rng = np.random.default_rng(0)
        scores = rng.random(57)
        labels = rng.integers(0, 2, size=57)
        tp, fp, tn, fn = confusion(scores, labels)
        assert tp + fp + tn + fn == 57

    def test_all_correct(self):
        assert confusion([0.9, 0.1], [1, 0]) == (1, 0, 1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion([], [])
        with pytest.raises(ValueError):
            confusion([0.5], [1, 0])


class TestPrf1:
    def test_perfect(self):
        assert prf1_accuracy((5, 0, 5, 0)) == (1.0, 1.0, 1.0, 1.0, False)

    def test_no_positive_predictions_degenerate(self):
        p, r, f1, acc, degenerate = prf1_accuracy((0, 0, 8, 2))
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        assert degenerate

    def test_f1_consistency_check(self):
        # P=0.9997, R=0.9182 must give F1 = 0.9572 to within 5e-5.
        p, r = 0.9997, 0.9182
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.9572, abs=5e-5)

    def test_f1_identity_on_random_rows(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tp, fp, tn, fn = (int(x) for x in rng.integers(0, 20, size=4))
            if tp + fp + tn + fn == 0:
                continue
            p, r, f1, _, _ = prf1_accuracy((tp, fp, tn, fn))
            if p + r > 0:
                assert f1 == pytest.approx(2 * p * r / (p + r))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.9], [0, 1]) == 1.0

    def test_all_ties_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_pairwise_oracle_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = 200
            # Quantized scores force ties to exercise the correction.
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(80)
        labels = rng.integers(0, 2, size=80)
        a = roc_auc(scores, labels)
        b = roc_auc(np.exp(5 * scores), labels)
        assert a == pytest.approx(b, abs=1e-12)

    def test_rounding_tie_changes_auc(self):
        # 0.010000000000000002 ** 0.5 == 0.01 ** 0.5 in floating point, so a
        # "monotone" transform can tie two distinct scores and move the AUC.
        scores = [0.5, 0.5, 0.010000000000000002, 0.01]
        labels = [0, 1, 0, 1]
        assert roc_auc(scores, labels) == 0.375
        assert roc_auc([0.5, 0.5, 0.01, 0.01], labels) == 0.5
        assert roc_auc([s**0.5 for s in scores], labels) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.4, 0.6], [1, 1])


class TestEvaluate:
    def test_builds_row(self):
        m = evaluate([0.9, 0.1], [1, 0], round_idx=3, participants=2, eps_spent=1.5)
        assert m.round == 3
        assert m.f1 == 1.0
        assert m.roc_auc == 1.0
        assert m.eps_spent == 1.5

    def test_accuracy_invariant_under_joint_flip(self):
        rng = np.random.default_rng(4)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        m1 = evaluate(scores, labels)
        m2 = evaluate(1.0 - scores - 1e-12, 1 - labels)
        assert m1.accuracy == pytest.approx(m2.accuracy)

    def test_single_class_auc_falls_back(self):
        m = evaluate([0.9, 0.8], [1, 1])
        assert m.roc_auc == 0.5


class TestCsv:
    def test_header_and_row_shape(self):
        m = RoundMetrics(
            round=0, participants=4, accuracy=1.0, precision=1.0, recall=1.0,
            f1=1.0, roc_auc=1.0, eps_spent=0.5, mean_pre_clip_norm=2.0,
            wall_seconds=0.25,
        )
        row = csv_row(m)
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert row.startswith("0,4,1.000000")
