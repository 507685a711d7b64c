"""Per-sequence optimization of assignment logits under the track losses.

Each trajectory owns a K-way logit row; adaptive-moment gradient steps
drive the soft assignment toward groups whose masked track matrices are
low-rank.  This replaces a learned mask predictor for single-sequence
experiments while keeping the loss machinery identical.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import losses as L
from . import numkernel as nk
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

# the soft phase checks its argmax labels every LABEL_CHECK_STEPS steps and
# ends once LABEL_CHECKS checks in a row found them unchanged
LABEL_CHECK_STEPS = 100
LABEL_CHECKS = 4

GREEDY_SWEEPS = 6  # cap on the single-track move sweeps of one greedy pass


@dataclass(frozen=True)
class OptimConfig:
    """Settings for one optimization run.

    ``k`` is the number of soft components and ``steps`` the cap on the
    soft phase.  Every ``LABEL_CHECK_STEPS`` (100) steps the phase takes
    the argmax label of each track; it ends early once ``LABEL_CHECKS``
    (4) checks in a row found the labels of the check before, so that they
    have held for 400 steps (the trace's convergence flag).  ``loss_kind``
    picks the trajectory loss that the run minimises, in the soft phase
    and in the discrete refinement alike.  The moment decays
    (``BETA1``, ``BETA2``), the denominator floor ``EPS`` and the spread
    ``INIT_STD`` of the initial logits are module constants.
    """

    k: int
    steps: int
    r: int = L.DEFAULT_RANK
    step_size: float = 0.05
    seed: int = 0
    loss_kind: str = "tail"

    def __post_init__(self):
        if self.k < 2:
            raise InvalidInputError("need at least 2 segments")
        if self.steps < 1:
            raise InvalidInputError("need at least 1 step")
        if not self.step_size > 0:
            raise InvalidInputError(f"step_size must be positive, got {self.step_size}")
        if self.loss_kind not in LOSS_KINDS:
            raise InvalidInputError(f"loss_kind must be one of {LOSS_KINDS}")


@dataclass
class OptimTrace:
    """Per-step record of one run; ``converged`` is true when the label
    rule, not the ``steps`` cap, ended it."""

    losses: np.ndarray
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


def optimize_sequence(tracks, cfg: OptimConfig):
    """Optimize per-track logits; returns (assignment, trace).

    ``tracks`` is a (2T, N) matrix of normalised positions; callers are
    expected to have dropped columns that are invisible at the window's
    reference frame.  Deterministic for a fixed config.  A non-finite loss
    aborts with the trace so far attached to the raised error.
    """
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
    checked, unchanged = None, 0
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
        if (step + 1) % LABEL_CHECK_STEPS == 0:
            current = logits.argmax(axis=1)
            unchanged = unchanged + 1 if np.array_equal(current, checked) else 0
            checked = current
            if unchanged == LABEL_CHECKS:
                converged = True
                break
    trace = OptimTrace(
        losses=losses[:step + 1],
        converged=converged,
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


def greedy_reassign(tracks, labels, kind="tail", r=L.DEFAULT_RANK, candidates=None):
    """Move single tracks between segments while the loss drops, for at
    most ``GREEDY_SWEEPS`` sweeps.

    ``candidates`` optionally maps each track to the segment ids worth
    trying (used to keep early sweeps with many segments affordable).
    Segment scores carry over from sweep to sweep, and a track that did
    not move is not scored again until a move changes its segment or one
    of its candidates, since its moves would score as before.
    """
    tracks = np.asarray(tracks, dtype=float)
    labels = np.asarray(labels).copy()
    score = {i: L.hard_group_loss(tracks[:, labels == i], kind, r) for i in np.unique(labels)}
    # moves so far; the move count when each segment last changed, and
    # when each track was last scored without moving (-1: never)
    moves = 0
    changed_at = dict.fromkeys(score, 0)
    kept_at = np.full(tracks.shape[1], -1)
    for _ in range(GREEDY_SWEEPS):
        ids = list(np.unique(labels))
        score = {i: score[i] for i in ids}  # a segment emptied is no candidate
        moves_before = moves
        for n in range(tracks.shape[1]):
            cur = labels[n]
            pool = [c for c in (candidates[n] if candidates is not None else ids)
                    if c != cur and c in score]
            if not pool or max(changed_at[c] for c in (cur, *pool)) <= kept_at[n]:
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
            if best_seg == cur:
                kept_at[n] = moves
                continue
            labels[n] = best_seg
            moves += 1
            changed_at[cur] = changed_at[best_seg] = moves
            score[cur] = L.hard_group_loss(tracks[:, labels == cur], kind, r)
            score[best_seg] = L.hard_group_loss(tracks[:, labels == best_seg], kind, r)
        if moves == moves_before:
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


def _restart_workers(restarts: int, cores: int, blas_pinned: bool) -> int:
    """Threads that run the restarts of ``segment_tracks``: one per restart,
    at most two per usable core, and one (the caller's own thread, restart
    after restart) unless OpenBLAS can be held to one thread meanwhile."""
    if not blas_pinned:
        return 1
    return max(1, min(restarts, 2 * cores))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def segment_tracks(
    tracks,
    cfg: OptimConfig,
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
    least 1, and ``cfg.r`` must leave the loss a singular value to score
    (``losses.check_rank``).

    The restarts are independent, so they run concurrently, one thread
    each and at most two per usable core, with numpy's OpenBLAS held to
    one thread meanwhile (``numkernel.one_blas_thread``); each thread runs
    in a copy of the caller's ``contextvars`` context, so numpy's
    ``errstate`` applies there too.  Where OpenBLAS's thread count is out
    of reach they run one after another in the caller's thread.  Either
    way every restart computes the same numbers, and the first restart
    that raises, in restart order, raises from here.

    Returns (labels, info dict with the winner and, per restart, the final
    loss, the soft steps run and what stopped the soft phase: ``"labels"``
    for the label rule, ``"cap"`` for ``cfg.steps``).
    """
    if restarts < 1:
        raise InvalidInputError(f"restarts must be at least 1, got {restarts}")
    if target_segments is not None and target_segments < 1:
        raise InvalidInputError(f"target_segments must be at least 1, got {target_segments}")
    positions = np.asarray(tracks, dtype=float)
    kind = cfg.loss_kind
    L.check_rank(kind, cfg.r, positions.shape)

    def one_restart(restart):
        sub = replace(
            cfg, seed=int(np.random.default_rng([cfg.seed, restart]).integers(2**31))
        )
        assignment, trace = optimize_sequence(positions, cfg=sub)
        labels = hard_labels(assignment)
        order = np.argsort(-assignment.weights, axis=1)
        candidates = [row[:3] for row in order]
        labels = greedy_reassign(positions, labels, kind, cfg.r, candidates=candidates)
        labels = merge_segments(positions, labels, kind, cfg.r, target=target_segments)
        labels = greedy_reassign(positions, labels, kind, cfg.r)
        loss = hard_loss(positions, labels, kind, cfg.r)
        return loss, restart, labels, trace

    workers = _restart_workers(restarts, _usable_cores(), nk.blas_threads() is not None)
    if workers == 1:
        runs = [one_restart(restart) for restart in range(restarts)]
    else:
        with nk.one_blas_thread(), ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run, one_restart, restart)
                       for restart in range(restarts)]
            try:
                runs = [future.result() for future in futures]
            finally:
                # after a failure, restarts not yet started stay unstarted,
                # as the failure would have ended the loop in restart order
                for future in futures:
                    future.cancel()
    best_loss, best_restart, best_labels, _ = min(runs, key=lambda t: (t[0], t[1]))
    # compact ids deterministically by first appearance
    _, first, inverse = np.unique(best_labels, return_index=True, return_inverse=True)
    info = {
        "restart_losses": [run[0] for run in runs],
        "soft_steps": [run[3].steps_run for run in runs],
        "soft_stop": ["labels" if run[3].converged else "cap" for run in runs],
        "chosen_restart": best_restart,
        "final_loss": best_loss,
        "n_segments": first.size,
    }
    return np.argsort(np.argsort(first))[inverse], info
