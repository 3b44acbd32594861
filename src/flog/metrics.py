"""Binary classification metrics, and rounds.csv: `evaluate` scores a round's
predictions, its caller adds the round fields it holds to make that round's
`RoundMetrics`, and this module alone writes and reads those rows."""

from __future__ import annotations

import csv
import typing
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass(frozen=True)
class RoundMetrics:
    """A round's row of rounds.csv: its fields are the columns, in order."""

    round: int
    participants: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float
    eps_spent: float
    mean_pre_clip_norm: float
    wall_seconds: float = field(metadata={"format": ".3f"})


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


def evaluate(scores, labels) -> dict[str, float]:
    """Accuracy, precision, recall, f1 and roc_auc (0.5 on one class), by field name."""
    precision, recall, f1, accuracy, _ = prf1_accuracy(confusion(scores, labels))
    labels_arr = np.asarray(labels)
    auc = roc_auc(scores, labels) if 0 < labels_arr.sum() < len(labels_arr) else 0.5
    return dict(accuracy=accuracy, precision=precision, recall=recall, f1=f1, roc_auc=auc)


# rounds.csv's columns, in field order: (name, type, format spec). The spec is
# the field's own "format", else "d" for an int and ".6f" for a float.
_COLUMNS = [(f.name, t, f.metadata.get("format", {int: "d", float: ".6f"}[t]))
            for f, t in zip(fields(RoundMetrics), typing.get_type_hints(RoundMetrics).values())]
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


def csv_row(m: RoundMetrics) -> str:
    return ",".join(format(getattr(m, name), spec) for name, _, spec in _COLUMNS)


def csv_text(rounds: Iterable[RoundMetrics]) -> str:
    """The text of a rounds.csv: the header, then one line per round."""
    return "".join(line + "\n" for line in [CSV_HEADER, *map(csv_row, rounds)])


def read_last_round(path) -> RoundMetrics | None:
    """The last row of the rounds.csv at `path`, if any, each column by its field's type."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return None
    try:
        return RoundMetrics(**{name: t(rows[-1][name]) for name, t, _ in _COLUMNS})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: last row does not parse: {exc!r}") from None
