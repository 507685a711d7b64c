"""Subspace-clustering and clustering baselines.

K-means with k-means++ seeding and restarts, sparse self-expression via
ADMM, low-rank self-expression via an inexact augmented Lagrangian with
singular-value thresholding in the row space of the data, simple affinity
symmetrisation, and spectral clustering on the normalised Laplacian.  All solvers are deterministic
given their seeds and sized for dense desk-scale problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import DegenerateInputError, DivergenceError, InvalidInputError

__all__ = [
    "CoefficientMatrix",
    "AffinityMatrix",
    "kmeans",
    "ssc_admm",
    "lrr",
    "affinity",
    "spectral_cluster",
]

KMEANS_RESTARTS = 10  # k-means++ seeded Lloyd runs, best kept
KMEANS_MAX_ITER = 300  # Lloyd iterations per restart
SSC_TOL = 1e-4  # max-norm change of the SSC coefficients that stops ADMM
LRR_TOL = 1e-7  # max-norm constraint residual that stops LRR
LRR_MU0 = 1e-6  # initial LRR penalty
LRR_MU_MAX = 1e10  # cap of the growing LRR penalty


@dataclass(frozen=True)
class CoefficientMatrix:
    """Self-expression coefficients produced by a subspace solver.

    ``converged`` is True when the solver met its stopping rule and False
    when it stopped at its iteration cap.  ``noise`` carries the
    column-sparse error term for solvers that model one (LRR); SSC leaves
    it None.
    """

    c: np.ndarray
    iterations: int
    primal_residual: float
    converged: bool
    noise: np.ndarray | None = None


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative affinity with zero diagonal."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInputError("affinity must be square")
        if np.abs(w - w.T).max() > 1e-12:
            raise InvalidInputError("affinity must be symmetric")
        if w.min() < 0:
            raise InvalidInputError("affinity must be nonnegative")
        if np.abs(np.diag(w)).max() > 0:
            raise InvalidInputError("affinity diagonal must be zero")


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _kmeanspp_init(data, k, rng):
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[int(rng.integers(n))]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = data[int(rng.integers(n))]
            continue
        centers[j] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(data, centers):
    n, k = data.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        dist = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        for j in range(k):
            sel = new_labels == j
            if not np.any(sel):
                # revive an empty cluster with the worst-fit point
                far = int(dist[np.arange(n), new_labels].argmax())
                centers[j] = data[far]
                new_labels[far] = j
                sel = new_labels == j
            centers[j] = data[sel].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    wcss = float(((data - centers[labels]) ** 2).sum())
    return labels, wcss


def kmeans(data, k, seed=0):
    """Lloyd iterations with k-means++ seeding, best of ``KMEANS_RESTARTS``
    runs.

    Runs are scored by within-cluster sum of squares; each restart draws
    from a stream derived deterministically from (seed, restart index).
    """
    data = nk.as_matrix(data, "data")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must lie in [1, {n}], got {k}")
    best_labels = None
    best_wcss = np.inf
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        centers = _kmeanspp_init(data, k, rng)
        labels, wcss = _lloyd(data, centers.copy())
        if wcss < best_wcss - 1e-12:
            best_wcss = wcss
            best_labels = labels
    return best_labels


# ---------------------------------------------------------------------------
# sparse self-expression (ADMM)
# ---------------------------------------------------------------------------


def _soft_threshold(x, thr):
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def ssc_admm(data, alpha=100.0, max_iter=200) -> CoefficientMatrix:
    """Sparse self-expression of columns: min |C|_1 + lam/2 |D - DC|_F^2.

    Columns are unit-normalised internally.  The data-fidelity weight is
    lam = alpha / mu with mu = min_i max_{j != i} |d_i . d_j|, and the
    ADMM penalty equals alpha.  Iterations stop when the successive
    coefficient change drops below ``SSC_TOL`` in max norm, or after
    ``max_iter`` iterations.  The zero-diagonal constraint is enforced
    throughout.  ``alpha`` must be positive: at zero the system is
    singular, and a negative weight rewards the misfit.
    """
    if not alpha > 0:
        raise InvalidInputError(f"alpha must be positive, got {alpha}")
    data = nk.as_matrix(data, "data")
    n = data.shape[1]
    if n < 2:
        raise InvalidInputError("need at least 2 columns")
    norms = np.linalg.norm(data, axis=0)
    d = data / np.maximum(norms, 1e-300)
    gram = d.T @ d
    off = np.abs(gram - np.diag(np.diag(gram)))
    mu = float(off.max(axis=0).min())
    if mu == 0.0:
        raise DegenerateInputError("all columns mutually orthogonal")
    lam = alpha / mu
    rho = alpha
    lhs = np.linalg.inv(lam * gram + rho * np.eye(n))
    c = np.zeros((n, n))
    dual = np.zeros((n, n))
    z = c
    iterations = max_iter
    converged = False
    for it in range(max_iter):
        z = lhs @ (lam * gram + rho * c - dual)
        np.fill_diagonal(z, 0.0)
        c_new = _soft_threshold(z + dual / rho, 1.0 / rho)
        np.fill_diagonal(c_new, 0.0)
        dual = dual + rho * (z - c_new)
        change = np.abs(c_new - c).max()
        c = c_new
        if change < SSC_TOL:
            iterations = it + 1
            converged = True
            break
    return CoefficientMatrix(
        c=c,
        iterations=iterations,
        primal_residual=float(np.abs(z - c).max()),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# low-rank self-expression (inexact augmented Lagrangian)
# ---------------------------------------------------------------------------


def _svt(matrix, thr):
    """Singular-value thresholding of a matrix with no more rows than
    columns, through the Gram matrix of its rows unless round-off there
    could move a kept singular value (see ``lrr``); one ``numkernel.svd``
    call either way."""
    gram = matrix @ matrix.T
    if gram.shape[0] * np.finfo(float).eps * np.trace(gram) > 1e-8 * thr * thr:
        f = nk.svd(matrix)
        keep = f.sigma > thr
        return (f.u[:, keep] * (f.sigma[keep] - thr)) @ f.v[:, keep].T
    f = nk.svd(gram)
    sigma = np.sqrt(f.sigma)
    keep = sigma > thr
    if not np.any(keep):
        return np.zeros_like(matrix)
    u = f.u[:, keep]
    return (u * (1.0 - thr / sigma[keep])) @ (u.T @ matrix)


def _column_shrink(matrix, thr):
    norms = np.linalg.norm(matrix, axis=0)
    scale = np.maximum(norms - thr, 0.0) / np.maximum(norms, 1e-300)
    return matrix * scale


def lrr(data, lam=0.2, rho=1.01, max_iter=10_000):
    """Low-rank self-expression with column-sparse errors.

    Solves min |C|_* + lam |E|_{2,1} subject to D = DC + E by an inexact
    augmented Lagrangian: singular-value thresholding for the nuclear
    term, column-wise shrinkage for the error term, and a penalty that
    starts at ``LRR_MU0`` and grows by ``rho`` each iteration up to
    ``LRR_MU_MAX``.  Stops when the constraint residual |D - DC - E|_max
    falls below ``LRR_TOL``, or after ``max_iter`` iterations; aborts if
    the residual keeps growing for 500 consecutive iterations.  ``rho``
    must be at least 1, since a penalty that shrinks lets the constraint
    residual grow without bound; ``lam`` must be positive and ``max_iter``
    at least 1.

    The iterates are carried in the row space of D (Liu et al., "Robust
    recovery of subspace structures by low-rank representation", TPAMI
    2013).  With Q an orthonormal basis of span(D^T) (N x q, q = min(N, m)
    for an m x N matrix D) and B = DQ, every iterate of the N x N loop keeps
    its columns in span(Q): they all start at zero, (D^T D + I)^-1 maps the
    span into itself, thresholding the singular values of QM gives
    Q SVT(M), and the multiplier updates stay in it.  So C = QZ, J = QZ_J
    and Y2 = QW, with Q^T (D^T D + I)^-1 Q = (B^T B + I)^-1, DC = BZ and
    Q^T D^T = B^T, is the same sequence of iterates carried on q x N
    matrices: each iteration thresholds a q x N matrix instead of an N x N
    one.  The stopping rule and the divergence guard still use the max norm
    of the full gap C - J = Q(Z - Z_J), which Q does not preserve.

    The thresholding itself goes through the q x q Gram matrix G = M M^T of
    the iterate M: one SVD of G gives U and lambda = sigma^2, and
    U_k diag(1 - tau / sigma_k) U_k^T M over the kept sigma_k > tau is the
    thresholded M, since its right factors are V_k = M^T U_k / sigma_k.  A
    guard keeps the SVD of M itself where q eps |M|_F^2 > 1e-8 tau^2, so
    that round-off in G's eigenvalues cannot move a kept sigma by more than
    1e-8 relative.  Each iteration makes one ``numkernel.svd`` call.
    """
    if not rho >= 1:
        raise InvalidInputError(f"rho must be at least 1, got {rho}")
    if not lam > 0:
        raise InvalidInputError(f"lam must be positive, got {lam}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be at least 1, got {max_iter}")
    data = nk.as_matrix(data, "data")
    n = data.shape[1]
    if n < 2:
        raise InvalidInputError("need at least 2 columns")
    q = np.linalg.qr(data.T)[0]
    b = data @ q
    inv_lhs = np.linalg.inv(b.T @ b + np.eye(q.shape[1]))
    bt_data = b.T @ data
    z = np.zeros((q.shape[1], n))
    err = np.zeros_like(data)
    y1 = np.zeros_like(data)
    w = np.zeros_like(z)
    mu = LRR_MU0
    prev_primal = np.inf
    growth_streak = 0
    history = []
    iterations = max_iter
    converged = False
    for it in range(max_iter):
        z_aux = _svt(z + w / mu, 1.0 / mu)
        z = inv_lhs @ (bt_data - b.T @ err + z_aux + (b.T @ y1 - w) / mu)
        resid = data - b @ z
        err = _column_shrink(resid + y1 / mu, lam / mu)
        gap_data = resid - err
        gap_aux = z - z_aux
        # both splitting constraints (D = DC + E and C = J) must be met
        primal = float(max(np.abs(gap_data).max(), np.abs(q @ gap_aux).max()))
        history.append(primal)
        if primal < LRR_TOL:
            iterations = it + 1
            converged = True
            break
        if primal > prev_primal:
            growth_streak += 1
            if growth_streak > 500:
                raise DivergenceError(
                    "constraint residual grew for over 500 consecutive iterations",
                    diagnostics={"residuals": history},
                )
        else:
            growth_streak = 0
        prev_primal = primal
        y1 = y1 + mu * gap_data
        w = w + mu * gap_aux
        mu = min(LRR_MU_MAX, mu * rho)
    return CoefficientMatrix(
        c=q @ z,
        iterations=iterations,
        primal_residual=primal,
        converged=converged,
        noise=err,
    )


# ---------------------------------------------------------------------------
# affinity and spectral clustering
# ---------------------------------------------------------------------------


def affinity(coeff) -> AffinityMatrix:
    """Symmetrise coefficients into |C| + |C|^T with a zero diagonal."""
    c = coeff.c if isinstance(coeff, CoefficientMatrix) else np.asarray(coeff, float)
    w = np.abs(c) + np.abs(c).T
    np.fill_diagonal(w, 0.0)
    return AffinityMatrix(w=w)


def spectral_cluster(aff, k, seed=0):
    """Normalised-Laplacian spectral clustering.

    Builds L = I - Deg^{-1/2} W Deg^{-1/2} (isolated rows get unit
    self-degree), embeds each point in the k eigenvectors of smallest
    eigenvalue, row-normalises, and clusters with ``kmeans``.
    """
    w = aff.w if isinstance(aff, AffinityMatrix) else AffinityMatrix(w=aff).w
    n = w.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must lie in [1, {n}], got {k}")
    deg = w.sum(axis=1)
    deg = np.where(deg > 0, deg, 1.0)
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    lap = (lap + lap.T) / 2.0
    _, vecs = nk.sym_eig(lap)
    embed = vecs[:, :k]
    norms = np.linalg.norm(embed, axis=1, keepdims=True)
    embed = embed / np.maximum(norms, 1e-300)
    return kmeans(embed, k, seed=seed)
