"""Confusion-matrix accumulation, overall accuracy and Cohen's kappa."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import UNKNOWN
from .errors import ContractError, UndefinedMetricError


@dataclass
class ConfusionMatrix:
    """2x2 tally; rows are ground truth, columns are predictions."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((2, 2), dtype=np.int64))

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if (raw.shape != (2, 2) or raw.dtype.kind not in "biuf"
                or not np.all(np.isfinite(raw))):
            raise ContractError("confusion matrix must be 2x2 and finite")
        # A count beyond the int64 range casts to some other value, which
        # the comparison below rejects.
        with np.errstate(invalid="ignore"):
            self.counts = raw.astype(np.int64)
        if np.any(self.counts != raw) or np.any(self.counts < 0):
            raise ContractError(
                "confusion matrix counts must be non-negative whole numbers")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def tally(pred: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    """Count (truth, prediction) pairs, skipping unknown truth pixels."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise ContractError(
            f"prediction and truth sizes differ: {pred.shape} vs {truth.shape}")
    # Values are checked as given, before any cast could round them.
    if not np.all(np.isin(truth, (0, 1, UNKNOWN))):
        raise ContractError(f"truth must be 0, 1 or {UNKNOWN}")
    known = truth != UNKNOWN
    t, q = truth[known], pred[known]
    if not np.all(np.isin(q, (0, 1))):
        raise ContractError("predictions must be 0 or 1 on evaluated pixels")
    counts = np.bincount(t.astype(np.int64) * 2 + q.astype(np.int64),
                         minlength=4).reshape(2, 2)
    return ConfusionMatrix(counts)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of evaluated pixels on the diagonal."""
    if cm.total == 0:
        raise UndefinedMetricError("no evaluated pixels")
    return float(np.trace(cm.counts)) / cm.total


def kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    A tally concentrated in a single cell has p_e = 1; that degenerate
    case reports 0 so all-one-class runs come out cleanly.
    """
    n = cm.total
    if n == 0:
        raise UndefinedMetricError("no evaluated pixels")
    p_o = float(np.trace(cm.counts)) / n
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    p_e = float(rows @ cols) / (n * n)
    if p_e == 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def report(cm: ConfusionMatrix) -> dict:
    """JSON-ready summary of the tally."""
    return {
        "oa": overall_accuracy(cm),
        "kappa": kappa(cm),
        "confusion": cm.counts.tolist(),
        "evaluated_pixels": cm.total,
    }
