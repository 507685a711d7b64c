"""Clustering and segmentation metrics.

Adjusted Rand index over label vectors, its foreground-restricted variant,
a minimum-cost assignment solver, and Hungarian-matched mean Jaccard over
mask sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError

__all__ = [
    "ContingencyTable",
    "ari",
    "fg_ari",
    "hungarian",
    "jaccard_matched",
    "metric_report",
]


def _as_labels(x, name):
    x = np.asarray(x)
    if x.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-d, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of two labelings.

    counts[i, j] is the number of elements in predicted cluster i and true
    cluster j; ``row_marginals`` / ``col_marginals`` are the cluster sizes
    and ``n`` the total element count.
    """

    counts: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int

    @classmethod
    def from_labels(cls, pred, truth) -> "ContingencyTable":
        pred = _as_labels(pred, "pred")
        truth = _as_labels(truth, "truth")
        if pred.shape != truth.shape:
            raise InvalidInputError(
                f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}"
            )
        _, pi = np.unique(pred, return_inverse=True)
        _, ti = np.unique(truth, return_inverse=True)
        kp = pi.max() + 1
        kt = ti.max() + 1
        counts = np.zeros((kp, kt), dtype=np.int64)
        np.add.at(counts, (pi, ti), 1)
        return cls(
            counts=counts,
            row_marginals=counts.sum(axis=1),
            col_marginals=counts.sum(axis=0),
            n=int(pred.size),
        )


def _pairs(x):
    x = np.asarray(x, dtype=np.int64)
    return (x * (x - 1) // 2).sum()


def ari(pred, truth) -> float:
    """Adjusted Rand index between two labelings, in [-1, 1].

    1 means the clusterings agree up to a relabeling; 0 is the chance
    level.  When the chance-adjusted denominator is zero (for example a
    single cluster on both sides) the result is defined as 0.
    """
    table = ContingencyTable.from_labels(pred, truth)
    if table.n < 2:
        raise InvalidInputError("need at least 2 elements")
    index = _pairs(table.counts)
    sum_a = _pairs(table.row_marginals)
    sum_b = _pairs(table.col_marginals)
    total = table.n * (table.n - 1) // 2
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


def _solve_square(cost):
    """Shortest-augmenting-path assignment on a square cost matrix.

    Returns row -> column indices.  Classic potentials formulation, one
    augmentation per row; deterministic for a fixed input.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.intp)  # match[j]: row on column j (1-based, 0 free)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used
            free[0] = False
            idx = np.flatnonzero(free)
            cur = cost[i0 - 1, idx - 1] - u[i0] - v[idx]
            better = cur < minv[idx]
            minv[idx] = np.where(better, cur, minv[idx])
            way[idx[better]] = j0
            j1 = idx[np.argmin(minv[idx])]
            delta = minv[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = np.empty(n, dtype=np.intp)
    row_to_col[match[1:] - 1] = np.arange(n)
    return row_to_col


def hungarian(cost):
    """Minimum-cost maximum matching of rows to columns.

    Rectangular inputs are padded to square with a sentinel larger than any
    achievable real total, so as many real pairs as possible are matched.
    Among cost-optimal matchings the lexicographically smallest row-to-
    column assignment is returned (ties resolved toward smaller column
    indices for earlier rows, with unmatched ranked last).

    Returns
    -------
    assignment : (n,) int array, column index per row, -1 if unmatched
    total : float, summed cost over matched pairs
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise InvalidInputError(f"cost must be a nonempty 2-d array, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise InvalidInputError("cost contains non-finite entries")
    n, m = cost.shape
    s = max(n, m)
    big = (np.abs(cost).max() + 1.0) * (s + 1)
    forbid = big * (s + 2)

    square = np.full((s, s), big)
    square[:n, :m] = cost

    def real_total(mat):
        rc = _solve_square(mat)
        pairs = [(i, rc[i]) for i in range(n) if rc[i] < m and mat[i, rc[i]] < big]
        return sum(cost[i, j] for i, j in pairs), len(pairs)

    opt_total, opt_count = real_total(square)
    tol = 1e-9 * (1.0 + abs(opt_total))

    # Fix rows one at a time to obtain the lexicographically smallest optimum.
    work = square.copy()
    assignment = np.full(n, -1, dtype=np.intp)
    taken = np.zeros(m, dtype=bool)
    for i in range(n):
        fixed = False
        for j in range(m):
            if taken[j]:
                continue
            saved = work[i].copy()
            work[i, :] = forbid
            work[i, j] = cost[i, j]
            total, count = real_total(work)
            if count == opt_count and total <= opt_total + tol:
                assignment[i] = j
                taken[j] = True
                fixed = True
                break
            work[i] = saved
        if not fixed:
            # row stays unmatched; restrict it to padding columns
            work[i, :m] = forbid
    return assignment, float(opt_total)


def jaccard_matched(pred_masks, true_masks) -> float:
    """Mean IoU over Hungarian-matched mask pairs.

    ``pred_masks`` is (K, HW) boolean and ``true_masks`` (K', HW); masks
    are matched by maximising total IoU and the mean runs over all true
    masks, unmatched ones contributing 0.
    """
    pred_masks = np.asarray(pred_masks, dtype=bool)
    true_masks = np.asarray(true_masks, dtype=bool)
    if pred_masks.ndim != 2 or true_masks.ndim != 2:
        raise InvalidInputError("mask sets must be 2-d (masks, pixels)")
    if true_masks.shape[0] == 0:
        raise UndefinedMetricError("no true masks to match against")
    if pred_masks.shape[1] != true_masks.shape[1]:
        raise InvalidInputError("mask sets must share the pixel dimension")
    if pred_masks.shape[0] == 0:
        return 0.0
    inter = (pred_masks[:, None, :] & true_masks[None, :, :]).sum(axis=2)
    union = (pred_masks[:, None, :] | true_masks[None, :, :]).sum(axis=2)
    iou = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    assignment, _ = hungarian(-iou)
    scores = [iou[i, j] for i, j in enumerate(assignment) if j >= 0]
    return float(np.sum(scores) / true_masks.shape[0])


def metric_report(pred, truth):
    """Standard metric dictionary: {ari, fg_ari, jaccard, k_pred, k_true}.

    The background is true label 0; ``fg_ari`` is None when fewer than 2
    elements have another true label.  ``jaccard`` is always None: labels
    of tracks carry no masks to match (``jaccard_matched`` scores mask
    sets).
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
