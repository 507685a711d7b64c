"""Loss-landscape study under parametric mask corruption.

Ground-truth masks are degraded along three axes: pixelwise label noise
(probability eta), structural change (s < 0 merges objects into the
background, s > 0 splits objects along an axis through their centroid),
and softmax temperature tau applied to logit-encoded masks.  A sweep
evaluates the chosen trajectory loss on point-sampled corrupted masks
over a grid of (eta, s, tau) cells, averaging seeded trials per cell.
The loss reads the corrupted first frame only at the tracks' pixels, so
a sweep corrupts and softens only those pixels, with the same draws and
the same weights, bit for bit, as corrupting the whole frame and reading
it there.
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
    "TrackFrame",
    "track_pixels",
    "track_frame",
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


@dataclass(frozen=True)
class TrackFrame:
    """One label grid as a sweep corrupts it, read at the flat pixel
    indices ``index`` of its tracks.

    ``size`` is the grid's pixel count, which the noise draws cover,
    ``labels`` the grid's label at each pixel read, and ``next_label`` the
    label that the first split gives.  ``splits`` maps each object, in
    ascending order, to the pixels read that a split along y (entry 0) or
    x (entry 1) relabels, or to None where that axis would leave one side
    of the object empty.  Merges and splits leave the pixels of every
    object not drawn alone, and a split's label is above every label of
    the grid, so these sides hold in every trial.
    """

    size: int
    index: np.ndarray
    labels: np.ndarray
    next_label: int
    splits: dict


def track_pixels(grid, positions):
    """Flat index of the pixel nearest each (x, y) position, in normalised
    coordinates, of an (H, W) grid.

    At the first frame, where tracks are sampled, every grid-sampled track
    sits exactly on a pixel center.
    """
    h, w = grid
    px = np.clip(np.rint(positions[:, 0] * w).astype(int), 0, w - 1)
    py = np.clip(np.rint(positions[:, 1] * h).astype(int), 0, h - 1)
    return py * w + px


def point_assignment(soft_masks: L.SoftAssignment, scene: SceneTruth):
    """Read a first-frame pixel-mode assignment at the trajectory positions
    of that frame, each snapped to its nearest pixel (``track_pixels``)."""
    index = track_pixels(soft_masks.grid, scene.tracks.frame_positions(0))
    return L.SoftAssignment(weights=soft_masks.weights[index], mode="point")


def track_frame(mask, scene: SceneTruth) -> TrackFrame:
    """Prepare one (H, W) label grid for corruption at the pixels of the
    scene's tracks at the first frame (``track_pixels``).

    The labels there are the grid's hard assignment read by
    ``point_assignment``.  A split cuts an object along an axis through its
    centroid: the pixels whose coordinate is at least the mean of all the
    object's pixel coordinates take the new label.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise InvalidInputError("corruption expects one (H, W) label grid")
    index = track_pixels(mask.shape, scene.tracks.frame_positions(0))
    hard = L.SoftAssignment.from_labels(mask, mode="pixel", grid=mask.shape)
    labels = point_assignment(hard, scene).weights.argmax(axis=1)
    rows, cols = np.divmod(index, mask.shape[1])
    splits = {}
    for label in (int(v) for v in np.unique(mask) if v != 0):
        on_object = labels == label
        sides = []
        for coord, at in zip(np.nonzero(mask == label), (rows, cols)):
            center = coord.mean()
            far = coord >= center
            degenerate = far.all() or not far.any()
            sides.append(None if degenerate else on_object & (at >= center))
        splits[label] = tuple(sides)
    return TrackFrame(mask.size, index, labels, int(mask.max()) + 1, splits)


def apply_corruption(frame: TrackFrame, spec: CorruptionSpec, num_classes) -> L.SoftAssignment:
    """Corrupt a prepared grid per one spec; the point-mode soft assignment
    of its ``index`` pixels.

    Structure first: s < 0 merges |s| objects into the background, s > 0
    splits |s| objects, each along a random axis, redrawn up to 8 times
    while the axis would leave one side empty, after which the object is
    left unchanged.  Then pixel noise: each pixel of the grid is resampled
    uniformly from {0..num_classes-1} with probability eta (the resample
    may redraw the original label).  Last, the labels become logits of
    magnitude ``LOGIT_SCALE`` on the true class, softened by
    softmax(logits / tau): small tau recovers hard labels, large tau
    approaches uniform membership.

    One generator seeded by ``spec.seed`` makes every draw, and the noise
    is drawn for the whole grid, so a pixel's outcome does not depend on
    which other pixels are read.  Each class is softened once (a k x k
    table) and its row gathered for every pixel of the class, the same
    weights, bit for bit, as softening each pixel.
    """
    rng = np.random.default_rng(spec.seed)
    objects = tuple(frame.splits)
    if abs(spec.s) > len(objects):
        raise InvalidInputError(
            f"|s|={abs(spec.s)} exceeds the {len(objects)} available objects"
        )
    labels = frame.labels.copy()
    if spec.s != 0:
        chosen = [objects[i] for i in rng.choice(len(objects), size=abs(spec.s), replace=False)]
        next_label = frame.next_label
        for label in chosen:
            if spec.s < 0:
                labels[labels == label] = 0
                continue
            for _ in range(8):
                side = frame.splits[label][int(rng.integers(2))]  # 0: y, 1: x
                if side is not None:
                    labels[side] = next_label
                    next_label += 1
                    break
    if spec.eta != 0.0:
        flip = rng.random(frame.size)[frame.index] < spec.eta
        draws = rng.integers(0, num_classes, frame.size)[frame.index]
        labels[flip] = draws[flip]
    rows = L.softmax(np.eye(num_classes) * LOGIT_SCALE / spec.tau)
    return L.SoftAssignment(weights=rows[labels], mode="point")


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
    temperature softening (``apply_corruption``), to the first-frame mask
    at the trajectory positions, and the selected loss is evaluated on the
    full window.  Cells are deterministic given (seed, cell index, trial).
    A cell with eta 0 and s 0 draws nothing, so every trial of it would
    score the same assignment: it is scored once and the value repeated.
    Splits beyond the available object count are clipped out of the
    ``ss`` axis.  Every axis must keep at least one value, ``trials`` must
    be at least 1, and ``r`` must leave the loss a singular value to score
    (``losses.check_rank``).
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be at least 1, got {trials}")
    if len(etas) == 0 or len(taus) == 0:
        raise InvalidInputError("etas and taus must each hold at least one value")
    if loss not in _LOSS_FNS:
        raise InvalidInputError(f"loss must be one of {sorted(_LOSS_FNS)}")
    L.check_rank(loss, r, scene.tracks.positions.shape)
    loss_fn = _LOSS_FNS[loss]
    n_objects = int(scene.masks.max())
    ss = [s for s in ss if abs(int(s)) <= n_objects]
    if not ss:
        raise InvalidInputError(f"no s in the ss axis fits the scene's {n_objects} objects")
    base_classes = n_objects + 1
    num_classes = base_classes + max([s for s in ss if s > 0], default=0)
    tracks = scene.tracks.positions
    result = SweepResult(
        etas=list(etas), ss=list(ss), taus=list(taus), trials=trials, loss=loss
    )
    frame = track_frame(scene.masks[0], scene)
    for cell_index, (eta, s, tau) in enumerate(itertools.product(etas, ss, taus)):
        draw_free = float(eta) == 0.0 and int(s) == 0
        values = np.empty(trials)
        for trial in range(1 if draw_free else trials):
            cell_rng = np.random.default_rng([seed, cell_index, trial])
            spec = CorruptionSpec(
                eta=float(eta),
                s=int(s),
                tau=float(tau),
                seed=int(cell_rng.integers(2**62)),
            )
            assignment = apply_corruption(frame, spec, num_classes)
            values[trial] = loss_fn(assignment, tracks, r)
        if draw_free:
            values[1:] = values[0]
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
