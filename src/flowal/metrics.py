"""Evaluation metrics: accuracy ratios, confusion matrix, macro F1.

TAR and TTR are the two headline ratios of the benchmark:

  TAR = subset-trained accuracy / full-dataset-trained accuracy
  TTR = (subset training time + subset selection time) / full training time

Both are exact rational functions of their inputs; nothing here reads a
clock.  Timing values arrive as a TimingRecord measured elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassOutOfRange,
    InvalidParams,
    LengthMismatch,
    ZeroDenominator,
    _check_finite,
)


def tar(acc_subset: float, acc_full: float) -> float:
    """Training accuracy ratio; raises when the full-model accuracy is zero.

    Both accuracies must lie in [0, 1], which also rejects NaN and infinity.
    """
    for name, value in (("subset accuracy", acc_subset),
                        ("full accuracy", acc_full)):
        if not 0 <= value <= 1:
            raise InvalidParams(f"{name} must be in [0, 1], got {value}")
    if acc_full == 0:
        raise ZeroDenominator("full-dataset accuracy must be positive")
    return acc_subset / acc_full


@dataclass(frozen=True)
class TimingRecord:
    """Seconds spent training on the subset, selecting it, and training on everything."""

    subset_train_time: float
    subset_selection_time: float
    full_train_time: float

    def __post_init__(self):
        for name in ("subset_train_time", "subset_selection_time",
                     "full_train_time"):
            _check_finite(getattr(self, name), name, InvalidParams, 0)


def ttr(timing: TimingRecord) -> float:
    """Training time ratio; raises when the full training time is zero."""
    if timing.full_train_time <= 0:
        raise ZeroDenominator("full training time must be positive")
    return (timing.subset_train_time + timing.subset_selection_time) \
        / timing.full_train_time


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts grid with true classes as rows and predicted classes as columns."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise LengthMismatch("confusion matrix must be square")
        if (c < 0).any():
            raise ClassOutOfRange("confusion counts must be nonnegative")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total


def confusion(predictions, truths, n_classes: int) -> ConfusionMatrix:
    """Tally (truth, prediction) pairs into an n_classes x n_classes grid."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truths, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1 or pred.size == 0:
        raise LengthMismatch("predictions and truths must be equal-length, non-empty")
    for arr, name in ((pred, "prediction"), (true, "truth")):
        if (arr < 0).any() or (arr >= n_classes).any():
            raise ClassOutOfRange(f"{name} outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return ConfusionMatrix(counts)


def f1_macro(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1; a class with no support and no
    predictions contributes 0 rather than being skipped."""
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr,
                   out=np.zeros_like(diag), where=pr > 0)
    return float(f1.mean())
