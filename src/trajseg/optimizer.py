"""Per-sequence optimization of assignment logits under the track losses.

Each trajectory owns a K-way logit row; adaptive-moment gradient steps
drive the soft assignment toward groups whose masked track matrices are
low-rank.  This replaces a learned mask predictor for single-sequence
experiments while keeping the loss machinery identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses as L
from .errors import DivergenceError, InvalidInputError

__all__ = [
    "OptimConfig",
    "OptimTrace",
    "optimize_sequence",
    "hard_labels",
    "hard_loss",
    "greedy_reassign",
    "merge_segments",
    "segment_tracks",
]

LOSS_KINDS = ("tail", "reconstruction", "projective", "tracks_as_flow")

# adaptive-moment decays and denominator floor, and the spread of the
# initial logits
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
INIT_STD = 0.01


@dataclass(frozen=True)
class OptimConfig:
    """Settings for one optimization run.

    ``k`` is the number of soft components.  ``loss_kind`` picks the
    trajectory loss that the run minimises, in the soft phase and in the
    discrete refinement alike.  ``early_stop`` ends the run once the
    relative loss change over 100 steps falls below 1e-7 (the trace's
    convergence flag uses the same rule either way).  The moment decays
    (``BETA1``, ``BETA2``), the denominator floor ``EPS`` and the spread
    ``INIT_STD`` of the initial logits are module constants.
    """

    k: int = 25
    steps: int = 5000
    r: int = L.DEFAULT_RANK
    step_size: float = 0.05
    seed: int = 0
    loss_kind: str = "tail"
    early_stop: bool = True

    def __post_init__(self):
        if self.k < 2:
            raise InvalidInputError("need at least 2 segments")
        if self.steps < 1:
            raise InvalidInputError("need at least 1 step")
        if self.loss_kind not in LOSS_KINDS:
            raise InvalidInputError(f"loss_kind must be one of {LOSS_KINDS}")


@dataclass
class OptimTrace:
    """Per-step record of one run."""

    losses: np.ndarray
    final_logits: np.ndarray
    converged: bool
    steps_run: int

    def to_csv_text(self) -> str:
        lines = ["step,loss"]
        for i in range(self.steps_run):
            lines.append(f"{i},{self.losses[i]:.17g}")
        return "\n".join(lines) + "\n"


def _traj_term(cfg, logits, tracks):
    kind = cfg.loss_kind
    if kind == "tail":
        return L.trajectory_tail_value_and_grad(logits, tracks, cfg.r)
    if kind == "reconstruction":
        return L.trajectory_reconstruction_value_and_grad(logits, tracks, cfg.r)
    if kind == "projective":
        return L.trajectory_projective_value_and_grad(logits, tracks)
    return L.tracks_as_flow_value_and_grad(logits, tracks)


def optimize_sequence(tracks, cfg: OptimConfig | None = None):
    """Optimize per-track logits; returns (assignment, trace).

    ``tracks`` is a (2T, N) matrix of normalised positions; callers are
    expected to have dropped columns that are invisible at the window's
    reference frame.  Deterministic for a fixed config.  A non-finite loss
    aborts with the trace so far attached to the raised error.
    """
    cfg = cfg if cfg is not None else OptimConfig()
    positions = np.asarray(tracks, dtype=float)
    n = positions.shape[1]
    if n < cfg.k:
        raise InvalidInputError(f"need at least k={cfg.k} tracks, got {n}")
    rng = np.random.default_rng(cfg.seed)
    logits = rng.normal(0.0, INIT_STD, (n, cfg.k))
    m = np.zeros_like(logits)
    v = np.zeros_like(logits)

    losses = np.zeros(cfg.steps)
    converged = diverged = False
    for step in range(cfg.steps):
        total, grad = _traj_term(cfg, logits, positions)
        losses[step] = total
        if not np.isfinite(total) or not np.all(np.isfinite(grad)):
            diverged = True
            break
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        m_hat = m / (1.0 - BETA1 ** (step + 1))
        v_hat = v / (1.0 - BETA2 ** (step + 1))
        logits = logits - cfg.step_size * m_hat / (np.sqrt(v_hat) + EPS)
        if step >= 100:
            past = losses[step - 100]
            if abs(losses[step] - past) <= 1e-7 * max(abs(past), 1e-30):
                converged = True
                if cfg.early_stop:
                    break
    trace = OptimTrace(
        losses=losses[:step + 1],
        final_logits=logits,
        converged=converged and not diverged,
        steps_run=step + 1,
    )
    if diverged:
        raise DivergenceError(f"non-finite loss at step {step}", diagnostics={"trace": trace})
    assignment = L.SoftAssignment.from_logits(logits, mode="point")
    return assignment, trace


def hard_labels(assignment) -> np.ndarray:
    """Argmax segment per row; ties resolve to the lowest segment index."""
    weights = getattr(assignment, "weights", assignment)
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise InvalidInputError("assignment must be 2-d")
    return weights.argmax(axis=1)


# ---------------------------------------------------------------------------
# discrete refinement on top of the gradient phase
# ---------------------------------------------------------------------------
#
# The soft phase reliably produces pure-ish fragments but plateaus on the
# permutation-symmetric landscape; greedy hard moves and merges driven by
# the same loss finish the job.  Everything below touches only the loss,
# never ground truth.


def hard_loss(tracks, labels, kind="tail", r=L.DEFAULT_RANK) -> float:
    """Loss of a hard labeling, summed over its segments."""
    tracks = np.asarray(tracks, dtype=float)
    labels = np.asarray(labels)
    return sum(
        L.hard_group_loss(tracks[:, labels == i], kind, r) for i in np.unique(labels)
    )


def greedy_reassign(tracks, labels, kind="tail", r=L.DEFAULT_RANK, sweeps=6,
                    candidates=None):
    """Move single tracks between segments while the loss drops.

    ``candidates`` optionally maps each track to the segment ids worth
    trying (used to keep early sweeps with many segments affordable).
    """
    tracks = np.asarray(tracks, dtype=float)
    labels = np.asarray(labels).copy()
    for _ in range(sweeps):
        ids = list(np.unique(labels))
        score = {i: L.hard_group_loss(tracks[:, labels == i], kind, r) for i in ids}
        changed = 0
        for n in range(tracks.shape[1]):
            cur = labels[n]
            pool = [c for c in (candidates[n] if candidates is not None else ids)
                    if c != cur and c in score]
            if not pool:
                continue
            src = labels == cur
            src[n] = False
            src_score = L.hard_group_loss(tracks[:, src], kind, r)
            best_delta, best_seg = -1e-12, cur
            for cand in pool:
                dst = labels == cand
                dst[n] = True
                delta = (
                    src_score
                    + L.hard_group_loss(tracks[:, dst], kind, r)
                    - score[cur]
                    - score[cand]
                )
                if delta < best_delta:
                    best_delta, best_seg = delta, cand
            if best_seg != cur:
                labels[n] = best_seg
                changed += 1
                score[cur] = L.hard_group_loss(tracks[:, labels == cur], kind, r)
                score[best_seg] = L.hard_group_loss(tracks[:, labels == best_seg], kind, r)
        if changed == 0:
            break
    return labels


def merge_segments(tracks, labels, kind="tail", r=L.DEFAULT_RANK, target=None):
    """Greedy pairwise merges: always take the cheapest merge, and keep
    merging while it lowers the loss or the segment count exceeds
    ``target`` (None merges only while the loss improves)."""
    tracks = np.asarray(tracks, dtype=float)
    labels = np.asarray(labels).copy()
    while True:
        ids = np.unique(labels)
        floor = max(target or 1, 1)
        if ids.size <= floor:
            return labels
        score = {i: L.hard_group_loss(tracks[:, labels == i], kind, r) for i in ids}
        best = None
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                merged = L.hard_group_loss(tracks[:, (labels == a) | (labels == b)], kind, r)
                delta = merged - score[a] - score[b]
                if best is None or delta < best[0]:
                    best = (delta, a, b)
        if best[0] >= -1e-12 and (target is None or ids.size <= target):
            return labels
        labels[labels == best[2]] = best[1]


def segment_tracks(
    tracks,
    cfg: OptimConfig | None = None,
    *,
    restarts: int = 3,
    target_segments: int | None = None,
):
    """Full per-sequence grouping: gradient phase plus discrete refinement.

    Each restart runs the soft optimizer with ``cfg.k`` components (an
    over-segmentation: fragments of one motion merge cheaply later),
    polishes the hardened labels with single-track moves, agglomerates to
    ``target_segments`` (or until merging stops paying), and polishes
    again.  The restart with the lowest final loss wins; ties break toward
    the earlier restart.  ``restarts`` and ``target_segments`` must be at
    least 1.

    Returns (labels, info dict with per-restart losses and the winner).
    """
    cfg = cfg if cfg is not None else OptimConfig()
    if restarts < 1:
        raise InvalidInputError(f"restarts must be at least 1, got {restarts}")
    if target_segments is not None and target_segments < 1:
        raise InvalidInputError(f"target_segments must be at least 1, got {target_segments}")
    positions = np.asarray(tracks, dtype=float)
    kind = cfg.loss_kind
    runs = []
    for restart in range(restarts):
        sub = replace(
            cfg, seed=int(np.random.default_rng([cfg.seed, restart]).integers(2**31))
        )
        assignment, _ = optimize_sequence(positions, cfg=sub)
        labels = hard_labels(assignment)
        order = np.argsort(-assignment.weights, axis=1)
        candidates = [row[:3] for row in order]
        labels = greedy_reassign(positions, labels, kind, cfg.r, candidates=candidates)
        labels = merge_segments(positions, labels, kind, cfg.r, target=target_segments)
        labels = greedy_reassign(positions, labels, kind, cfg.r)
        loss = hard_loss(positions, labels, kind, cfg.r)
        runs.append((loss, restart, labels))
    best_loss, best_restart, best_labels = min(runs, key=lambda t: (t[0], t[1]))
    # compact ids deterministically by first appearance
    first_seen = {}
    remap = np.empty_like(best_labels)
    next_id = 0
    for i, lab in enumerate(best_labels):
        if lab not in first_seen:
            first_seen[lab] = next_id
            next_id += 1
        remap[i] = first_seen[lab]
    info = {
        "restart_losses": [r[0] for r in sorted(runs, key=lambda t: t[1])],
        "chosen_restart": best_restart,
        "final_loss": best_loss,
        "n_segments": int(next_id),
    }
    return remap, info
