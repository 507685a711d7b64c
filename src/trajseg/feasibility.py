"""Loss-landscape study under parametric mask corruption.

Ground-truth masks are degraded along three axes: pixelwise label noise
(probability eta), structural change (s < 0 merges objects into the
background, s > 0 splits objects along an axis through their centroid),
and softmax temperature tau applied to logit-encoded masks.  A sweep
evaluates the chosen trajectory loss on point-sampled corrupted masks
over a grid of (eta, s, tau) cells, averaging seeded trials per cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import losses as L
from .errors import InvalidInputError
from .scene_synth import SceneTruth

__all__ = [
    "LOGIT_SCALE",
    "ASSERTIONS",
    "CorruptionSpec",
    "SweepResult",
    "corrupt_noise",
    "corrupt_structural",
    "corrupt_temperature",
    "apply_corruption",
    "point_assignment",
    "sweep",
    "check_assertions",
]

LOGIT_SCALE = 10.0  # one-hot labels become logits of this magnitude

ASSERTIONS = ("eta_monotone", "tau_monotone", "under_over_asymmetry", "min_at_truth")


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption cell: noise probability, structure shift, temperature."""

    eta: float
    s: int
    tau: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidInputError("eta must lie in [0, 1]")
        if self.tau <= 0.0:
            raise InvalidInputError("tau must be positive")


def _check_masks(masks):
    masks = np.asarray(masks)
    if masks.ndim != 3:
        raise InvalidInputError("masks must be (T, H, W) label grids")
    return masks.astype(np.int64, copy=True)


def corrupt_noise(masks, eta, seed=0, num_classes=None):
    """Resample each pixel uniformly from {0..K-1} with probability eta.

    The resample may redraw the original label, so the expected fraction
    of changed pixels is eta * (K - 1) / K.  eta = 0 is the identity.
    """
    masks = _check_masks(masks)
    if not 0.0 <= eta <= 1.0:
        raise InvalidInputError("eta must lie in [0, 1]")
    if eta == 0.0:
        return masks
    k = int(masks.max()) + 1 if num_classes is None else int(num_classes)
    rng = np.random.default_rng(seed)
    flip = rng.random(masks.shape) < eta
    draws = rng.integers(0, k, masks.shape)
    masks[flip] = draws[flip]
    return masks


def corrupt_structural(masks, s, seed=0):
    """Merge objects into the background (s < 0) or split them (s > 0).

    Splits cut along a random x- or y-parallel axis through the object's
    per-frame centroid, giving one side a fresh label; an axis that leaves
    one side empty is redrawn up to 8 times, after which the object is
    left unchanged.
    """
    masks = _check_masks(masks)
    objects = sorted(set(np.unique(masks)) - {0})
    if abs(int(s)) > len(objects):
        raise InvalidInputError(
            f"|s|={abs(int(s))} exceeds the {len(objects)} available objects"
        )
    if s == 0 or not objects:
        return masks
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(objects), size=abs(int(s)), replace=False)
    chosen = [objects[i] for i in chosen]
    if s < 0:
        for label in chosen:
            masks[masks == label] = 0
        return masks
    next_label = int(masks.max()) + 1
    for label in chosen:
        for _ in range(8):
            axis = int(rng.integers(2))  # 0: split on y, 1: split on x
            sel = masks == label
            if not sel.any():
                break
            ts, ys, xs = np.nonzero(sel)
            coord = xs if axis == 1 else ys
            split_side = np.zeros(coord.shape, dtype=bool)
            for t in np.unique(ts):
                on_t = ts == t
                center = coord[on_t].mean()
                split_side[on_t] = coord[on_t] >= center
            if split_side.all() or not split_side.any():
                continue  # degenerate axis, redraw
            masks[ts[split_side], ys[split_side], xs[split_side]] = next_label
            next_label += 1
            break
    return masks


def corrupt_temperature(mask, tau, num_classes=None) -> L.SoftAssignment:
    """Soften one label grid through logits and a softmax temperature.

    Labels become logits of magnitude ``LOGIT_SCALE`` on the true class;
    softmax(logits / tau) then yields a pixel-mode soft assignment.  Small
    tau recovers hard masks, large tau approaches uniform membership.
    Every pixel of one class has the same logit row, and the softmax works
    row by row, so each class is softened once (a k x k table) and its row
    gathered for every pixel of the class: the same weights, bit for bit,
    as softening each pixel.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise InvalidInputError("temperature corruption expects one (H, W) grid")
    if tau <= 0:
        raise InvalidInputError("tau must be positive")
    k = int(mask.max()) + 1 if num_classes is None else int(num_classes)
    rows = L.softmax(np.eye(k) * LOGIT_SCALE / tau)
    return L.SoftAssignment(weights=rows[mask.ravel()], mode="pixel", grid=mask.shape)


def apply_corruption(masks, spec: CorruptionSpec, num_classes=None) -> L.SoftAssignment:
    """Compose the three corruptions on a mask stack per one spec.

    Structure first, then pixel noise, then the temperature softening of
    the first frame; the same generator stream drives the random draws so
    a spec fully determines the outcome.
    """
    rng = np.random.default_rng(spec.seed)
    grids = corrupt_structural(masks, spec.s, seed=rng)
    grids = corrupt_noise(grids, spec.eta, seed=rng, num_classes=num_classes)
    return corrupt_temperature(grids[0], spec.tau, num_classes=num_classes)


def point_assignment(soft_masks: L.SoftAssignment, scene: SceneTruth):
    """Read a first-frame pixel-mode assignment at the trajectory positions
    of that frame.

    Positions snap to the nearest pixel; at the first frame, where tracks
    are sampled, every grid-sampled track sits exactly on a pixel center.
    """
    h, w = soft_masks.grid
    pos = scene.tracks.frame_positions(0)
    px = np.clip(np.rint(pos[:, 0] * w).astype(int), 0, w - 1)
    py = np.clip(np.rint(pos[:, 1] * h).astype(int), 0, h - 1)
    return L.SoftAssignment(
        weights=soft_masks.weights[py * w + px], mode="point"
    )


@dataclass
class SweepResult:
    """Aggregated sweep grid; one row per (eta, s, tau) cell."""

    etas: list
    ss: list
    taus: list
    trials: int
    loss: str
    rows: list = field(default_factory=list)

    def lookup(self, eta, s, tau):
        for row in self.rows:
            if row["eta"] == eta and row["s"] == s and row["tau"] == tau:
                return row
        raise KeyError((eta, s, tau))

    def to_csv_text(self) -> str:
        lines = ["eta,s,tau,trials,loss_mean,loss_std,loss_mean_per_traj"]
        for row in self.rows:
            lines.append(
                f"{row['eta']:g},{row['s']},{row['tau']:g},{row['trials']},"
                f"{row['loss_mean']:.12g},{row['loss_std']:.12g},"
                f"{row['loss_mean_per_traj']:.12g}"
            )
        return "\n".join(lines) + "\n"


_LOSS_FNS = {
    "tail": lambda a, p, r: L.trajectory_tail_loss(a, p, r),
    "reconstruction": lambda a, p, r: L.trajectory_reconstruction_loss(a, p, r),
    "projective": lambda a, p, r: L.trajectory_projective_loss(a, p),
}


def sweep(
    scene: SceneTruth,
    etas=(0.0, 0.25, 0.5, 0.75, 1.0),
    ss=(-4, -3, -2, -1, 0, 1, 2, 3, 4),
    taus=(1.0, 2.0, 4.0, 8.0),
    loss="tail",
    trials=25,
    seed=0,
    r=L.DEFAULT_RANK,
) -> SweepResult:
    """Evaluate the loss over the corruption grid, ``trials`` runs per cell.

    Structural corruption is applied first, then pixel noise, then the
    temperature softening; the corrupted first-frame mask is read at the
    trajectory positions and the selected loss evaluated on the full
    window.  Cells are deterministic given (seed, cell index, trial).
    Splits beyond the available object count are clipped out of the
    ``ss`` axis.  ``trials`` must be at least 1, and ``r`` must leave the
    loss a singular value to score (``losses.check_rank``).
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be at least 1, got {trials}")
    if loss not in _LOSS_FNS:
        raise InvalidInputError(f"loss must be one of {sorted(_LOSS_FNS)}")
    L.check_rank(loss, r, scene.tracks.positions.shape)
    loss_fn = _LOSS_FNS[loss]
    n_objects = int(scene.masks.max())
    ss = [s for s in ss if abs(int(s)) <= n_objects]
    base_classes = n_objects + 1
    num_classes = base_classes + max([s for s in ss if s > 0], default=0)
    tracks = scene.tracks.positions
    result = SweepResult(
        etas=list(etas), ss=list(ss), taus=list(taus), trials=trials, loss=loss
    )
    frame0 = scene.masks[0:1]
    for cell_index, (eta, s, tau) in enumerate(itertools.product(etas, ss, taus)):
        values = np.empty(trials)
        for trial in range(trials):
            cell_rng = np.random.default_rng([seed, cell_index, trial])
            spec = CorruptionSpec(
                eta=float(eta),
                s=int(s),
                tau=float(tau),
                seed=int(cell_rng.integers(2**62)),
            )
            soft = apply_corruption(frame0, spec, num_classes=num_classes)
            assignment = point_assignment(soft, scene)
            values[trial] = loss_fn(assignment, tracks, r)
        mean = float(values.mean())
        result.rows.append(
            {
                "eta": float(eta),
                "s": int(s),
                "tau": float(tau),
                "trials": trials,
                "loss_mean": mean,
                "loss_std": float(values.std()),
                "loss_mean_per_traj": mean / tracks.shape[1],
            }
        )
    return result


def check_assertions(result: SweepResult, names=ASSERTIONS):
    """Evaluate the configured landscape assertions on a sweep result.

    Returns a list of (name, passed, detail) triples.  Monotonicity runs
    along one axis with the other two at their least-corrupted values and
    requires a strict increase between the extreme cells.
    """
    eta0, tau0 = result.etas[0], result.taus[0]
    checks = []
    for name in names:
        if name in ("eta_monotone", "tau_monotone"):
            if name == "eta_monotone":
                axis, values = "eta", result.etas
                means = [result.lookup(e, 0, tau0)["loss_mean"] for e in values]
            else:
                axis, values = "tau", result.taus
                means = [result.lookup(eta0, 0, t)["loss_mean"] for t in values]
            violations = [
                f"{axis}={values[i]:g} ({means[i]:.4g}) > {axis}={values[i + 1]:g} "
                f"({means[i + 1]:.4g})"
                for i in range(len(means) - 1)
                if means[i + 1] < means[i] - 1e-12
            ]
            ok = not violations and (len(means) < 2 or means[-1] > means[0])
            if violations:
                detail = "violated cells: " + "; ".join(violations)
            else:
                detail = f"{axis} axis means {['%.4g' % m for m in means]}"
        elif name == "under_over_asymmetry":
            ok = True
            detail_parts = []
            for m in (1, 2):
                if -m in result.ss and m in result.ss:
                    under = result.lookup(eta0, -m, tau0)["loss_mean"]
                    over = result.lookup(eta0, m, tau0)["loss_mean"]
                    ok = ok and under > over
                    detail_parts.append(f"s=-{m}: {under:.4g} vs s=+{m}: {over:.4g}")
            detail = "; ".join(detail_parts) if detail_parts else "no +/- pairs in grid"
        elif name == "min_at_truth":
            base = result.lookup(eta0, 0, tau0)["loss_mean"]
            worst = min(row["loss_mean"] for row in result.rows)
            spread = max(row["loss_mean"] for row in result.rows) - worst
            ok = base <= worst + 1e-9 * max(spread, 1.0)
            detail = f"uncorrupted {base:.4g} vs grid min {worst:.4g}"
        else:
            raise InvalidInputError(f"unknown assertion {name!r}")
        checks.append((name, bool(ok), detail))
    return checks
