"""Binary classification metrics for per-round evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    participants: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float
    eps_spent: float
    mean_pre_clip_norm: float
    wall_seconds: float


def confusion(scores, labels, threshold: float = 0.5) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) at the given probability threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be non-empty and equal length")
    pred = scores >= threshold
    pos = labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    tn = int(np.sum(~pred & ~pos))
    fn = int(np.sum(~pred & pos))
    return tp, fp, tn, fn


def prf1_accuracy(conf) -> tuple[float, float, float, float, bool]:
    """(precision, recall, f1, accuracy, degenerate) from a confusion tuple.

    Zero-denominator metrics are reported as 0 with the degenerate flag set.
    """
    tp, fp, tn, fn = conf
    n = tp + fp + tn + fn
    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return precision, recall, f1, (tp + tn) / n, degenerate


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC, a tied (positive, negative) pair counting one half.

    2U is counted exactly as an integer: for each positive, the negatives
    scored strictly below it plus those scored at or below it.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("roc_auc needs at least one sample of each class")
    u2 = int(np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum())
    return u2 / 2.0 / (pos.size * neg.size)


def evaluate(scores, labels, round_idx=0, participants=0, eps_spent=0.0,
             mean_pre_clip_norm=0.0, wall_seconds=0.0) -> RoundMetrics:
    precision, recall, f1, accuracy, _ = prf1_accuracy(confusion(scores, labels))
    labels_arr = np.asarray(labels)
    auc = roc_auc(scores, labels) if 0 < labels_arr.sum() < len(labels_arr) else 0.5
    return RoundMetrics(
        round=round_idx,
        participants=participants,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        roc_auc=auc,
        eps_spent=eps_spent,
        mean_pre_clip_norm=mean_pre_clip_norm,
        wall_seconds=wall_seconds,
    )


CSV_HEADER = (
    "round,participants,accuracy,precision,recall,f1,roc_auc,"
    "eps_spent,mean_pre_clip_norm,wall_seconds"
)


def csv_row(m: RoundMetrics) -> str:
    return (
        f"{m.round},{m.participants},{m.accuracy:.6f},{m.precision:.6f},"
        f"{m.recall:.6f},{m.f1:.6f},{m.roc_auc:.6f},{m.eps_spent:.6f},"
        f"{m.mean_pre_clip_norm:.6f},{m.wall_seconds:.3f}"
    )
