"""Loss functions over soft segmentations of flow fields and point tracks.

Two families live here.  The flow losses fit a six-parameter quadratic
motion model per segment and score the masked fitting residual, either of
a pixel flow field or, for the tracks-as-flow loss, of the tracks'
frame-to-frame displacements.  Both make one call to ``_fit_terms``, which
hands every segment's fit, for every frame pair, to the batched
``numkernel.lstsq`` as one stack.  The trajectory losses score how far each
soft group of tracks is from being low-rank: the tail loss sums trailing
singular values, the reconstruction loss takes the squared residual
against the best rank-r approximation, and the projective loss does the
same on homogeneous coordinates at rank 4.
Analytic gradients are provided with respect to pre-softmax logits.  The
tail loss's value and gradient come from one batched eigendecomposition of
the groups' Gram matrices, with a Rayleigh-Ritz refinement of the tail for
groups whose Gram spectrum reaches round-off (see ``_gram_tail``); the
value-only ``trajectory_tail_loss`` stays on the exact SVD.  The
reconstruction and projective losses share one batched-SVD residual kernel
(``_rank_residual_terms``).  ``hard_group_loss`` scores one hard group under
any of the losses that the optimizer runs, at one-hot weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import InvalidInputError, RangeError

__all__ = [
    "SoftAssignment",
    "softmax",
    "quad_embed",
    "embed_points",
    "flow_loss",
    "flow_loss_grad",
    "trajectory_tail_loss",
    "trajectory_tail_grad",
    "trajectory_reconstruction_loss",
    "trajectory_projective_loss",
    "check_rank",
    "hard_group_loss",
    "tracks_as_flow_loss",
]

DEFAULT_RANK = 5


def softmax(logits, axis=-1):
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _chain_softmax(weights, grad_weights):
    """Pull a gradient w.r.t. softmax outputs back to the logits."""
    inner = (weights * grad_weights).sum(axis=1, keepdims=True)
    return weights * (grad_weights - inner)


@dataclass(frozen=True)
class SoftAssignment:
    """Row-stochastic soft membership of points or pixels to K segments.

    weights : (N, K) for point mode or (H*W, K) for pixel mode; every row
        lies on the probability simplex (checked to 1e-9).
    mode : "point" or "pixel".
    grid : (H, W), required in pixel mode.
    """

    weights: np.ndarray
    mode: str
    grid: tuple | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2:
            raise InvalidInputError(f"weights must be 2-d, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("weights contain non-finite entries")
        if w.min() < -1e-12 or w.max() > 1.0 + 1e-12:
            raise InvalidInputError("weights must lie in [0, 1]")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvalidInputError("rows must sum to 1 within 1e-9")
        if self.mode not in ("point", "pixel"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.mode == "pixel":
            if self.grid is None:
                raise InvalidInputError("pixel mode requires a (H, W) grid")
            h, wd = self.grid
            if h * wd != w.shape[0]:
                raise InvalidInputError(
                    f"grid {self.grid} does not match {w.shape[0]} rows"
                )

    @classmethod
    def from_logits(cls, logits, mode="point", grid=None) -> "SoftAssignment":
        return cls(weights=softmax(logits), mode=mode, grid=grid)

    @classmethod
    def from_labels(cls, labels, num_classes=None, mode="point", grid=None):
        labels = np.asarray(labels, dtype=int).ravel()
        k = int(labels.max()) + 1 if num_classes is None else int(num_classes)
        w = np.zeros((labels.size, k))
        w[np.arange(labels.size), labels] = 1.0
        return cls(weights=w, mode=mode, grid=grid)


# ---------------------------------------------------------------------------
# quadratic embedding and flow losses
# ---------------------------------------------------------------------------


def quad_embed(h: int, w: int) -> np.ndarray:
    """Per-pixel quadratic basis [x, x^2, y, y^2, xy, 1] over the lattice.

    Coordinates are normalised so pixel (0, 0) maps to (0, 0) and pixel
    (W-1, H-1) maps to (1, 1).  Rows are in row-major pixel order.
    """
    if h < 1 or w < 1:
        raise InvalidInputError("grid dimensions must be positive")
    ys = np.arange(h) / (h - 1) if h > 1 else np.zeros(1)
    xs = np.arange(w) / (w - 1) if w > 1 else np.zeros(1)
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return embed_points(np.column_stack([gx.ravel(), gy.ravel()]))


def embed_points(points) -> np.ndarray:
    """Quadratic basis evaluated at (x, y) positions (..., N, 2), (..., N, 6)."""
    points = np.asarray(points, dtype=float)
    x = points[..., 0]
    y = points[..., 1]
    return np.stack([x, x * x, y, y * y, x * y, np.ones_like(x)], axis=-1)


def _fit_terms(weights, basis, targets):
    """Masked least-squares fit of every segment to every field.

    weights : (N, K) soft masks
    basis : (N, 6) or (P, N, 6), the quadratic basis of each field
    targets : (N, c) or (P, N, c), the field values

    Segment k of field p fits ``diag(w_k) basis_p`` to ``diag(w_k)
    targets_p``; all P*K fits go to ``nk.lstsq`` as one stack.  The
    regularised solve runs twice (initial fit plus one residual correction)
    so the stabilising ridge does not bias exactly representable targets.
    Returns the squared residuals, (K,) or (P, K), and their partial
    derivative with respect to the masks, summed over the fields, (N, K),
    holding the fitted coefficients fixed (the fit is the inner minimiser,
    so this partial is the total derivative).
    """
    w = weights.T[:, :, None]
    basis = basis[..., None, :, :]
    targets = targets[..., None, :, :]
    ek = w * basis
    fk = w * targets
    theta = nk.lstsq(ek, fk)
    theta = theta + nk.lstsq(ek, fk - ek @ theta)
    d = targets - basis @ theta
    values = ((w * d) ** 2).sum(axis=(-2, -1))
    grad = 2.0 * weights.T * (d * d).sum(axis=-1)
    return values, grad.sum(axis=tuple(range(grad.ndim - 2))).T


def flow_loss(masks: SoftAssignment, flow):
    """Quadratic-model fitting residual of a flow field under soft masks.

    For each segment the pixel embedding and the flow are both scaled by
    the mask column, a least-squares motion model is fitted, and the
    squared residual is accumulated.

    Returns (total, per-segment residual array).
    """
    if masks.mode != "pixel":
        raise InvalidInputError("flow_loss expects a pixel-mode assignment")
    flow = nk.as_matrix(flow, "flow")
    if flow.shape != (masks.weights.shape[0], 2):
        raise InvalidInputError(
            f"flow shape {flow.shape} does not match masks "
            f"({masks.weights.shape[0]} pixels)"
        )
    parts, _ = _fit_terms(masks.weights, quad_embed(*masks.grid), flow)
    return float(parts.sum()), parts


def flow_loss_grad(logits, flow, grid):
    """Gradient of :func:`flow_loss` with respect to pre-softmax logits."""
    logits = nk.as_matrix(logits, "logits")
    flow = nk.as_matrix(flow, "flow")
    h, w = grid
    if logits.shape[0] != h * w or flow.shape != (h * w, 2):
        raise InvalidInputError("logits, flow and grid sizes disagree")
    weights = softmax(logits)
    _, g = _fit_terms(weights, quad_embed(h, w), flow)
    return _chain_softmax(weights, g)


# ---------------------------------------------------------------------------
# trajectory losses
# ---------------------------------------------------------------------------


def _check_tracks(assignment_weights, tracks, frame_paired=False):
    tracks = nk.as_matrix(tracks, "tracks")
    if frame_paired and tracks.shape[0] % 2 != 0:
        raise InvalidInputError("tracks must stack (x, y) rows per frame")
    if assignment_weights.shape[0] != tracks.shape[1]:
        raise InvalidInputError(
            f"assignment covers {assignment_weights.shape[0]} tracks but the "
            f"matrix has {tracks.shape[1]} columns"
        )
    return tracks


def _masked_stack(weights, tracks):
    """All segment-masked track matrices as one (K, 2T, N) stack."""
    return tracks[None, :, :] * weights.T[:, None, :]


def trajectory_tail_loss(assignment: SoftAssignment, tracks, r=DEFAULT_RANK) -> float:
    """Sum over segments of the trailing singular values of masked tracks.

    Each segment scales the track matrix columns by its membership and the
    singular values from index r on (1-based) are summed.  Groups whose
    motion lies in an (r-1)-dimensional subspace contribute nothing, so
    minimising this groups tracks that move together.  Segments too small
    to have an r-th singular value contribute an empty sum.
    """
    if r < 1:
        raise RangeError(f"rank index must be >= 1, got {r}")
    tracks = _check_tracks(assignment.weights, tracks)
    q = min(tracks.shape)
    if r > q:
        return 0.0
    stack = _masked_stack(assignment.weights, tracks)
    sigma = np.linalg.svd(stack, compute_uv=False)
    return float(sigma[:, r - 1 :].sum())


def trajectory_tail_grad(logits, tracks, r=DEFAULT_RANK):
    """Gradient of :func:`trajectory_tail_loss` w.r.t. assignment logits."""
    _, g = trajectory_tail_value_and_grad(logits, tracks, r)
    return g


def trajectory_tail_value_and_grad(logits, tracks, r=DEFAULT_RANK):
    logits = nk.as_matrix(logits, "logits")
    weights = softmax(logits)
    tracks = _check_tracks(weights, tracks)
    q = min(tracks.shape)
    if r < 1:
        raise RangeError(f"rank index must be >= 1, got {r}")
    if r > q:
        return 0.0, np.zeros_like(logits)
    value, grad_weights = _gram_tail(weights, tracks, r)
    return value, _chain_softmax(weights, grad_weights)


def _gram_tail(weights, tracks, r):
    """Tail value and its gradient w.r.t. the weights, from Gram eigenpairs.

    G_k = P_k P_k^T with P_k = tracks * diag(w_k) is 2T x 2T; its trailing
    2T-r+1 eigenpairs give the tail singular values sigma_i = sqrt(lambda_i)
    and left vectors u_i, and the gradient is
    w_nk sum_i (u_i^T x_n)^2 / sigma_i, where terms with sigma_i = 0 drop
    out (a valid subgradient).

    Squaring keeps an eigenvalue only to about eps * lambda_1, so a group
    whose smallest sigma is below 1e-6 sigma_1 (every group of a noise-free
    scene, whose rank is below 2T) is refined by Rayleigh-Ritz on the span U
    of its trailing eigenvectors: the tail plus any head eigenvector below
    1e-8 lambda_1, which the Gram spectrum cannot separate from the tail.
    The eigenpairs of Y Y^T with Y = U^T P_k are accurate relative to Y's
    own scale and rotate U.  Eigenvalues within round-off of the largest one
    of their decomposition count as zero.  An overflowing Gram matrix gives
    an infinite value instead of reaching the eigensolver.
    """
    masked = _masked_stack(weights, tracks)
    gram = masked @ masked.transpose(0, 2, 1)
    if not np.all(np.isfinite(gram)):
        return np.inf, np.full_like(weights, np.nan)
    lam, vecs = np.linalg.eigh(gram)
    ntail = tracks.shape[0] - r + 1
    rough = lam[:, 0] <= 1e-12 * lam[:, -1]
    low = lam[rough] <= 1e-8 * lam[rough, -1:]
    dim = max(ntail, int(low.sum(axis=1).max(initial=0)))
    basis = vecs[:, :, :dim].transpose(0, 2, 1) @ tracks
    proj = basis[:, :ntail]
    sq = lam[:, :ntail].copy()
    top = lam[:, -1].copy()
    if np.any(rough):
        y = basis[rough] * weights.T[rough, None, :]
        mu, rot = np.linalg.eigh(y @ y.transpose(0, 2, 1))
        sq[rough] = mu[:, :ntail]
        top[rough] = mu[:, -1]
        proj[rough] = rot[:, :, :ntail].transpose(0, 2, 1) @ basis[rough]
    resolved = sq > tracks.shape[0] * np.finfo(float).eps * top[:, None]
    sigma = np.sqrt(np.where(resolved, sq, 0.0))
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=resolved)
    grad_weights = (inv[:, None, :] @ (proj * proj))[:, 0, :].T * weights
    return float(sigma.sum()), grad_weights


def _rank_residual_terms(weights, base, r):
    """Squared rank-r residual summed over the masked groups, and its
    gradient w.r.t. the weights.

    One batched SVD of the (K, m, N) stack P_k = base * diag(w_k) gives every
    group's best rank-r approximant (r capped at min(m, N)).  The approximant
    is the inner minimiser, so by the envelope theorem the gradient w.r.t.
    w_nk is 2 resid_k[:, n] . base[:, n].
    """
    if r < 1:
        raise RangeError(f"rank index must be >= 1, got {r}")
    stack = _masked_stack(weights, base)
    u, sigma, vt = np.linalg.svd(stack, full_matrices=False)
    r = min(r, sigma.shape[1])
    resid = stack - (u[:, :, :r] * sigma[:, None, :r]) @ vt[:, :r, :]
    return float((resid**2).sum()), 2.0 * np.einsum("kmn,mn->nk", resid, base)


def trajectory_reconstruction_loss(
    assignment: SoftAssignment, tracks, r=DEFAULT_RANK
) -> float:
    """Squared distance of each masked group to its best rank-r approximant."""
    tracks = _check_tracks(assignment.weights, tracks)
    return _rank_residual_terms(assignment.weights, tracks, r)[0]


def trajectory_reconstruction_value_and_grad(logits, tracks, r=DEFAULT_RANK):
    logits = nk.as_matrix(logits, "logits")
    weights = softmax(logits)
    tracks = _check_tracks(weights, tracks)
    value, grad_weights = _rank_residual_terms(weights, tracks, r)
    return value, _chain_softmax(weights, grad_weights)


def _lift_homogeneous(tracks):
    """Stack (x, y, 1) rows per frame, (3T, N)."""
    frames = tracks.shape[0] // 2
    lifted = np.empty((3 * frames, tracks.shape[1]))
    lifted[0::3] = tracks[0::2]
    lifted[1::3] = tracks[1::2]
    lifted[2::3] = 1.0
    return lifted


def trajectory_projective_loss(assignment: SoftAssignment, tracks) -> float:
    """Rank-4 residual of masked tracks lifted to homogeneous coordinates.

    Appends a masked all-ones row per frame (scaled like the coordinate
    rows) and measures the squared distance to the best rank-4 matrix,
    which factors into stacked camera matrices times depth-scaled points
    when every track keeps constant projective depth.
    """
    tracks = _check_tracks(assignment.weights, tracks, frame_paired=True)
    return _rank_residual_terms(assignment.weights, _lift_homogeneous(tracks), 4)[0]


def trajectory_projective_value_and_grad(logits, tracks):
    logits = nk.as_matrix(logits, "logits")
    weights = softmax(logits)
    tracks = _check_tracks(weights, tracks, frame_paired=True)
    value, grad_weights = _rank_residual_terms(weights, _lift_homogeneous(tracks), 4)
    return value, _chain_softmax(weights, grad_weights)


def check_rank(kind, r, shape):
    """Reject, with a ``RangeError``, a rank index at which loss ``kind``
    scores no singular value of any group of an (m, n) track matrix.

    The tail sums sigma_i from index r on, so it needs r <= min(m, n);
    reconstruction sums sigma_i^2 beyond r, so it needs r < min(m, n).  The
    projective and tracks-as-flow losses take no rank index.
    """
    q = min(shape)
    if (kind == "tail" and r > q) or (kind == "reconstruction" and r >= q):
        raise RangeError(
            f"rank index r={r} leaves the {kind} loss no singular value of the "
            f"{shape[0]}x{shape[1]} track matrix to score"
        )


def hard_group_loss(columns, kind="tail", r=DEFAULT_RANK) -> float:
    """Loss of one hard group of track columns: the soft loss at one-hot
    weights.

    The tail sums sigma_i from index r on (zero when the group has fewer
    than r singular values), reconstruction sums sigma_i^2 beyond r, and
    projective sums sigma_i^2 beyond 4 of the homogeneous lift, all from the
    group's exact spectrum.  ``tracks_as_flow`` fits the group's columns at
    unit weights.  An empty group scores 0.
    """
    if kind == "tracks_as_flow":
        if columns.shape[1] == 0:
            return 0.0
        return _tracks_as_flow(np.ones((columns.shape[1], 1)), columns)[0]
    if kind == "projective":
        sigma = np.linalg.svd(_lift_homogeneous(columns), compute_uv=False)
        return float((sigma[4:] ** 2).sum())
    sigma = np.linalg.svd(columns, compute_uv=False)
    if kind == "reconstruction":
        return float((sigma[r:] ** 2).sum())
    return float(sigma[r - 1 :].sum())


# ---------------------------------------------------------------------------
# tracks-as-flow
# ---------------------------------------------------------------------------


def tracks_as_flow_loss(assignment: SoftAssignment, tracks) -> float:
    """Treat adjacent-frame displacements as a flow field at the points.

    For every consecutive frame pair the per-point displacement is fitted
    by the masked quadratic model evaluated at the earlier positions, and
    the squared residuals are summed over pairs and segments.
    """
    value, _ = _tracks_as_flow(assignment.weights, tracks)
    return value


def tracks_as_flow_value_and_grad(logits, tracks):
    logits = nk.as_matrix(logits, "logits")
    weights = softmax(logits)
    value, grad_weights = _tracks_as_flow(weights, tracks)
    return value, _chain_softmax(weights, grad_weights)


def _tracks_as_flow(weights, tracks):
    tracks = _check_tracks(weights, tracks, frame_paired=True)
    frames = tracks.shape[0] // 2
    if frames < 2:
        raise InvalidInputError("need at least two frames of tracks")
    points = tracks.reshape(frames, 2, -1).transpose(0, 2, 1)
    values, grad = _fit_terms(weights, embed_points(points[:-1]), points[1:] - points[:-1])
    return float(values.sum()), grad
