"""Output checks made apart from the program.

Every function here reads the files a CLI command wrote and compares them
with quantities the benchmark computes itself, with numpy alone: scene
files are parsed here, ARI is counted over pairs, tail losses come from
``np.linalg.svd`` on the hard-labelled columns.  Nothing here calls into
trajseg.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RANK = 5  # tail index r of the trajectory loss (1-based), the CLI default
LOGIT_SCALE = 10.0  # one-hot magnitude of the sweep's temperature corruption
# half a unit in the 9th significant digit of the CSV tables, plus the
# rounding of the parse itself
CSV_RTOL = 5e-9 * (1 + 1e-6)


@dataclass
class SceneFiles:
    """The observables of a scene directory, parsed without trajseg."""

    positions: np.ndarray  # (2T, N)
    visible: np.ndarray  # (T, N) bool
    labels: np.ndarray  # (N,) int


def read_tracks(scene_dir) -> SceneFiles:
    """Parse ``trajectories.csv`` (track_id,frame,x,y,visible,label)."""
    with open(Path(scene_dir) / "trajectories.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["track_id", "frame", "x", "y", "visible", "label"]:
            raise ValueError(f"unexpected trajectories header {header}")
        rows = [(int(n), int(t), float(x), float(y), v == "1", int(lab))
                for n, t, x, y, v, lab in reader]
    n_tracks = max(r[0] for r in rows) + 1
    frames = max(r[1] for r in rows) + 1
    if len(rows) != n_tracks * frames:
        raise ValueError(f"{len(rows)} rows for {n_tracks} tracks x {frames} frames")
    positions = np.zeros((2 * frames, n_tracks))
    visible = np.zeros((frames, n_tracks), dtype=bool)
    labels = np.full(n_tracks, -1)
    for n, t, x, y, vis, lab in rows:
        positions[2 * t, n] = x
        positions[2 * t + 1, n] = y
        visible[t, n] = vis
        labels[n] = lab
    return SceneFiles(positions=positions, visible=visible, labels=labels)


def read_mask(scene_dir, t, grid) -> np.ndarray:
    return np.loadtxt(Path(scene_dir) / f"mask_{t:04d}.csv", delimiter=",",
                      dtype=np.int64, ndmin=2).reshape(grid)


def read_flow(scene_dir, t) -> np.ndarray:
    """(H*W, 4) table of x, y, u, v between frames t and t+1."""
    return np.loadtxt(Path(scene_dir) / f"flow_{t:04d}.csv", delimiter=",", skiprows=1,
                      ndmin=2)


def read_labels(out_dir) -> np.ndarray:
    with open(Path(out_dir) / "labels.csv", newline="") as handle:
        reader = csv.reader(handle)
        if next(reader) != ["track_id", "label"]:
            raise ValueError("unexpected labels.csv header")
        rows = [(int(n), int(lab)) for n, lab in reader]
    ids = [n for n, _ in rows]
    if ids != list(range(len(rows))):
        raise ValueError("labels.csv track ids are not 0..N-1 in order")
    return np.array([lab for _, lab in rows], dtype=int)


def pair_counting_ari(pred, truth) -> float:
    """ARI from the 2x2 table of element pairs (Hubert and Arabie).

    A zero denominator (both sides one cluster, or all singletons) gives 0,
    the convention the program documents.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    upper = np.triu(np.ones((pred.size, pred.size), dtype=bool), k=1)
    same_pred = (pred[:, None] == pred[None, :])[upper]
    same_truth = (truth[:, None] == truth[None, :])[upper]
    a = int(np.sum(same_pred & same_truth))
    b = int(np.sum(same_pred & ~same_truth))
    c = int(np.sum(~same_pred & same_truth))
    d = int(np.sum(~same_pred & ~same_truth))
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 0.0
    return 2.0 * (a * d - b * c) / denom


def hard_tail_loss(tracks, labels, r=RANK) -> float:
    """Sum over hard segments of the singular values from index r on."""
    return sum(
        float(np.linalg.svd(tracks[:, labels == lab], compute_uv=False)[r - 1:].sum())
        for lab in np.unique(labels)
    )


def _rel_close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_segment(out_dir, scene: SceneFiles, method) -> tuple[list[str], float | None]:
    """Labels, ARI and (for lrtl) the final loss of one segment command.

    Returns (problems, the ARI the command reported).
    """
    problems = []
    try:
        labels = read_labels(out_dir)
        report = json.loads((Path(out_dir) / "metrics.json").read_text())
        run = json.loads((Path(out_dir) / "run.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    if labels.size != scene.labels.size:
        return [f"labels.csv has {labels.size} rows for {scene.labels.size} tracks"], None
    keep = scene.visible[scene.visible.shape[0] // 2]
    if not np.array_equal(labels == -1, ~keep):
        problems.append("label -1 is not exactly on the tracks invisible at the centre frame")
        return problems, None
    if np.any(labels[keep] < 0):
        problems.append("negative label on a visible track")
    ari = pair_counting_ari(labels[keep], scene.labels[keep])
    reported = report.get("ari")
    if not isinstance(reported, (int, float)) or abs(ari - reported) > 1e-12:
        problems.append(f"metrics.json ari {reported} != pair-counting ari {ari!r}")
    k_pred = np.unique(labels[keep]).size
    if report.get("k_pred") != k_pred:
        problems.append(f"k_pred {report.get('k_pred')} != {k_pred} distinct labels")
    if method == "lrtl":
        tracks = scene.positions[:, np.flatnonzero(keep)]
        expected = hard_tail_loss(tracks, labels[keep])
        final = run.get("final_loss")
        if not isinstance(final, (int, float)) or not _rel_close(final, expected, 1e-9):
            problems.append(f"run.json final_loss {final} != hard tail loss {expected!r}")
    return problems, reported if isinstance(reported, (int, float)) else None


def check_synth(out_dir, ref) -> tuple[list[str], SceneFiles | None]:
    """Compare a synth output directory with an in-memory reference scene.

    ``ref`` exposes ``config`` (frames, grid, num_objects), ``tracks``
    (positions, visible, labels), ``masks`` and ``flows`` as numpy arrays.
    Frames are read one at a time so that the check adds little to the
    process's peak memory.  Returns (problems, the parsed scene for the
    commands that read it).
    """
    frames = ref.config.frames
    h, w = ref.config.grid
    pixel = np.arange(h * w)
    problems = []
    try:
        manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
        scene = read_tracks(out_dir)
        for t in range(frames):
            if not np.array_equal(read_mask(out_dir, t, (h, w)), ref.masks[t]):
                problems.append(f"mask {t} differs")
        for t in range(frames - 1):
            flow = read_flow(out_dir, t)
            if not (np.array_equal(flow[:, 0], pixel % w)
                    and np.array_equal(flow[:, 1], pixel // w)):
                problems.append(f"flow {t} does not enumerate the pixel grid in order")
            err = np.abs(flow[:, 2:4] - ref.flows[t])
            if np.any(err > CSV_RTOL * np.abs(ref.flows[t])):
                problems.append(f"flow {t} differs beyond CSV precision (max {err.max():.3g})")
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable scene: {exc}"], None
    if manifest.get("n_tracks") != ref.tracks.positions.shape[1]:
        problems.append("manifest n_tracks differs from the reference scene")
    if scene.positions.shape != ref.tracks.positions.shape:
        return problems + [f"track matrix shape {scene.positions.shape}"], None
    err = np.abs(scene.positions - ref.tracks.positions)
    if np.any(err > CSV_RTOL * np.abs(ref.tracks.positions)):
        problems.append(f"positions differ beyond CSV precision (max {err.max():.3g})")
    if not np.array_equal(scene.visible, ref.tracks.visible):
        problems.append("visibility differs")
    if not np.array_equal(scene.labels, ref.tracks.labels):
        problems.append("track labels differ")
    for label in range(1, ref.config.num_objects + 1):
        cols = scene.labels == label
        if cols.sum() >= RANK:
            sigma = np.linalg.svd(scene.positions[:, cols], compute_uv=False)
            if not sigma[RANK - 1] / sigma[0] < 1e-8:
                problems.append(f"object {label}: s5/s1 = {sigma[RANK - 1] / sigma[0]:.3g}")
    return problems, scene


def truth_softmax_tail_loss(scene: SceneFiles, mask0, num_classes, tau) -> float:
    """Tail loss under softmax(LOGIT_SCALE * one-hot / tau) of frame-0 labels.

    Each track reads the label of the pixel nearest to its frame-0 position.
    """
    h, w = mask0.shape
    px = np.clip(np.rint(scene.positions[0] * w).astype(int), 0, w - 1)
    py = np.clip(np.rint(scene.positions[1] * h).astype(int), 0, h - 1)
    truth = mask0[py, px]
    peak = np.exp(LOGIT_SCALE / tau)
    weights = np.full((truth.size, num_classes), 1.0 / (peak + num_classes - 1))
    weights[np.arange(truth.size), truth] = peak / (peak + num_classes - 1)
    return sum(
        float(np.linalg.svd(scene.positions * weights[:, k], compute_uv=False)[RANK - 1:].sum())
        for k in range(num_classes)
    )


def read_sweep(out_dir) -> list[dict]:
    with open(Path(out_dir) / "sweep.csv", newline="") as handle:
        return [
            {"eta": float(r["eta"]), "s": int(r["s"]), "tau": float(r["tau"]),
             "trials": int(r["trials"]), "loss_mean": float(r["loss_mean"]),
             "loss_std": float(r["loss_std"]),
             "loss_mean_per_traj": float(r["loss_mean_per_traj"])}
            for r in csv.DictReader(handle)
        ]


def check_sweep(out_dir, scene: SceneFiles, mask0, grid_config) -> list[str]:
    """Row count, deterministic cells, minimum and value of the truth cell."""
    try:
        rows = read_sweep(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable sweep: {exc}"]
    n_objects = int(mask0.max())
    etas, taus = grid_config["etas"], grid_config["taus"]
    ss = [s for s in grid_config["ss"] if abs(s) <= n_objects]
    problems = []
    if len(rows) != len(etas) * len(ss) * len(taus):
        problems.append(f"{len(rows)} rows for {len(etas)}x{len(ss)}x{len(taus)} cells")
    if any(r["trials"] != grid_config["trials"] for r in rows):
        problems.append("a row reports another trial count")
    for r in rows:
        if r["eta"] == 0.0 and r["s"] == 0 and not r["loss_std"] <= 1e-12 * r["loss_mean"]:
            problems.append(f"deterministic cell tau={r['tau']:g} has std {r['loss_std']:.3g}")
    truth_rows = [r for r in rows if r["eta"] == 0.0 and r["s"] == 0 and r["tau"] == taus[0]]
    if len(truth_rows) != 1:
        return problems + ["no single uncorrupted cell"]
    truth = truth_rows[0]
    if truth["loss_mean_per_traj"] > min(r["loss_mean_per_traj"] for r in rows):
        problems.append("the uncorrupted cell is not the minimum per-trajectory loss")
    num_classes = n_objects + 1 + max([s for s in ss if s > 0], default=0)
    expected = truth_softmax_tail_loss(scene, mask0, num_classes, taus[0])
    if not _rel_close(truth["loss_mean"], expected, 1e-9):
        problems.append(f"uncorrupted loss_mean {truth['loss_mean']!r} != {expected!r}")
    return problems
