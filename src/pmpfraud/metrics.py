"""Binary classification metrics for imbalanced data.

AUC uses the rank formulation of the Mann-Whitney statistic with average
ranks for ties, so it is O(n log n) and exactly matches the pairwise
comparison count. F1 and G-Mean are computed at a fixed threshold; any
zero-denominator rate or F1 term is defined as zero.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["auc", "f1_macro", "g_mean", "confusion", "MetricsReport", "compute_report"]


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores share the mean of their rank range."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg = ends - (counts - 1) / 2.0
    return avg[inverse]


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (ties half)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-d arrays")
    num_pos = int((labels == 1).sum())
    num_neg = int((labels == 0).sum())
    if num_pos == 0 or num_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)


def confusion(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> dict:
    """Counts at ``score >= threshold`` predicting the positive class."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    return {
        "tp": int((pred & pos).sum()),
        "fp": int((pred & ~pos).sum()),
        "fn": int((~pred & pos).sum()),
        "tn": int((~pred & ~pos).sum()),
    }


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def f1_macro(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Unweighted mean of the two per-class F1 scores."""
    c = confusion(scores, labels, threshold)
    f1_pos = _f1_from_counts(c["tp"], c["fp"], c["fn"])
    f1_neg = _f1_from_counts(c["tn"], c["fn"], c["fp"])
    return 0.5 * (f1_pos + f1_neg)


def g_mean(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Geometric mean of true positive and true negative rates."""
    c = confusion(scores, labels, threshold)
    tpr = c["tp"] / (c["tp"] + c["fn"]) if c["tp"] + c["fn"] else 0.0
    tnr = c["tn"] / (c["tn"] + c["fp"]) if c["tn"] + c["fp"] else 0.0
    return float(np.sqrt(tpr * tnr))


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    f1_macro: float
    g_mean: float
    threshold: float
    confusion: dict
    split: str = ""
    seed: int = -1

    def to_dict(self) -> dict:
        return asdict(self)


def compute_report(scores, labels, threshold: float = 0.5, split: str = "", seed: int = -1) -> MetricsReport:
    return MetricsReport(
        auc=auc(scores, labels),
        f1_macro=f1_macro(scores, labels, threshold),
        g_mean=g_mean(scores, labels, threshold),
        threshold=threshold,
        confusion=confusion(scores, labels, threshold),
        split=split,
        seed=seed,
    )
