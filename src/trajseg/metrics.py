"""Clustering and segmentation metrics.

Adjusted Rand index over label vectors and its foreground-restricted
variant.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError

__all__ = [
    "ari",
    "fg_ari",
    "metric_report",
]


def _as_labels(x, name):
    x = np.asarray(x)
    if x.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-d, got shape {x.shape}")
    return x


def _pairs(x):
    x = np.asarray(x, dtype=np.int64)
    return (x * (x - 1) // 2).sum()


def ari(pred, truth) -> float:
    """Adjusted Rand index between two labelings, in [-1, 1].

    1 means the clusterings agree up to a relabeling; 0 is the chance
    level.  When the chance-adjusted denominator is zero (for example a
    single cluster on both sides) the result is defined as 0.  It is
    computed from the contingency table of the two labelings: counts[i, j]
    elements lie in predicted cluster i and true cluster j.
    """
    pred = _as_labels(pred, "pred")
    truth = _as_labels(truth, "truth")
    if pred.shape != truth.shape:
        raise InvalidInputError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    n = int(pred.size)
    if n < 2:
        raise InvalidInputError("need at least 2 elements")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    index = _pairs(counts)
    sum_a = _pairs(counts.sum(axis=1))
    sum_b = _pairs(counts.sum(axis=0))
    total = n * (n - 1) // 2
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    denom = maximum - expected
    if denom == 0.0:
        return 0.0
    return float((index - expected) / denom)


def fg_ari(pred, truth, fg_mask) -> float:
    """ARI restricted to the elements where ``fg_mask`` is True."""
    pred = _as_labels(pred, "pred")
    truth = _as_labels(truth, "truth")
    fg_mask = np.asarray(fg_mask, dtype=bool)
    if fg_mask.shape != pred.shape or pred.shape != truth.shape:
        raise InvalidInputError("pred, truth and fg_mask must have equal length")
    if fg_mask.sum() < 2:
        raise UndefinedMetricError("fewer than 2 foreground elements")
    return ari(pred[fg_mask], truth[fg_mask])


def metric_report(pred, truth):
    """Standard metric dictionary: {ari, fg_ari, jaccard, k_pred, k_true}.

    The background is true label 0; ``fg_ari`` is None when fewer than 2
    elements have another true label.  ``jaccard`` is always None: labels
    of tracks carry no masks to match.  The key stays so that
    ``metrics.json`` keeps its layout.
    """
    pred = _as_labels(pred, "pred")
    truth = _as_labels(truth, "truth")
    fg = truth != 0
    report = {
        "ari": ari(pred, truth),
        "fg_ari": fg_ari(pred, truth, fg) if fg.sum() >= 2 else None,
        "jaccard": None,
        "k_pred": int(np.unique(pred).size),
        "k_true": int(np.unique(truth).size),
    }
    return report
