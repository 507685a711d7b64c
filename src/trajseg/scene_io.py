"""File interchange for scenes: JSON manifest plus CSV tables.

A scene directory holds ``manifest.json`` (config, seed, sizes,
metadata), ``trajectories.csv`` with one row per (track, frame),
``mask_####.csv`` integer label grids per frame, and ``flow_####.csv``
per frame pair.  Writes are atomic (temp file then rename) and all
formatting is fixed so identical scenes produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .scene_synth import SceneConfig, SceneTruth, TrajectoryMatrix

__all__ = ["atomic_write_text", "save_scene", "load_scene"]


def atomic_write_text(path, text):
    """Write text to ``path`` via a temp file in the same directory."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trajectories_csv(tracks: TrajectoryMatrix) -> str:
    lines = ["track_id,frame,x,y,visible,label"]
    labels = tracks.labels
    for n in range(tracks.n_tracks):
        label = int(labels[n]) if labels is not None else -1
        for t in range(tracks.frames):
            x = tracks.positions[2 * t, n]
            y = tracks.positions[2 * t + 1, n]
            visible = int(tracks.visible[t, n])
            lines.append(f"{n},{t},{x:.9g},{y:.9g},{visible},{label}")
    return "\n".join(lines) + "\n"


def _mask_csv(grid) -> str:
    return "\n".join(",".join(str(int(v)) for v in row) for row in grid) + "\n"


def _flow_csv(flow, h, w) -> str:
    lines = ["x,y,u,v"]
    for p in range(h * w):
        y, x = divmod(p, w)
        lines.append(f"{x},{y},{flow[p, 0]:.9g},{flow[p, 1]:.9g}")
    return "\n".join(lines) + "\n"


def save_scene(scene: SceneTruth, out_dir) -> None:
    """Write manifest, trajectory, mask and flow files into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h, w = scene.config.grid
    manifest = {
        "config": scene.config.to_json(),
        "seed": scene.config.motion_seed,
        "frames": scene.config.frames,
        "n_tracks": scene.tracks.n_tracks,
        "height": h,
        "width": w,
        "metadata": scene.metadata,
    }
    atomic_write_text(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    atomic_write_text(out / "trajectories.csv", _trajectories_csv(scene.tracks))
    for t in range(scene.config.frames):
        atomic_write_text(out / f"mask_{t:04d}.csv", _mask_csv(scene.masks[t]))
    for t in range(scene.config.frames - 1):
        atomic_write_text(out / f"flow_{t:04d}.csv", _flow_csv(scene.flows[t], h, w))


def _read_table(path, shape=None, **kwargs):
    """A numeric CSV table; malformed content or a wrong ``shape`` raises
    InvalidInputError."""
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2, **kwargs)
    except ValueError as exc:
        raise InvalidInputError(f"{path.name}: {exc}") from exc
    if shape is not None and table.shape != shape:
        raise InvalidInputError(f"{path.name} has shape {table.shape}, expected {shape}")
    return table


def load_scene(scene_dir) -> SceneTruth:
    """Rebuild a scene from its files.

    Only observables are serialized, so the generator's per-object
    geometry comes back empty.
    """
    root = Path(scene_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise InvalidInputError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
        cfg_data = dict(manifest["config"])
        cfg_data["grid"] = tuple(cfg_data["grid"])
        cfg = SceneConfig(**cfg_data)
        n_tracks = int(manifest["n_tracks"])
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed manifest.json: {exc}") from exc
    frames = cfg.frames
    h, w = cfg.grid

    table = _read_table(
        root / "trajectories.csv", shape=(n_tracks * frames, 6), skiprows=1
    )
    track = table[:, 0].astype(int)
    frame = table[:, 1].astype(int)
    inside = (track >= 0) & (track < n_tracks) & (frame >= 0) & (frame < frames)
    if not inside.all() or np.unique(track * frames + frame).size != track.size:
        raise InvalidInputError(
            "trajectories.csv does not hold one row per (track, frame) "
            f"of the manifest's {n_tracks} tracks x {frames} frames"
        )
    positions = np.zeros((2 * frames, n_tracks))
    positions[2 * frame, track] = table[:, 2]
    positions[2 * frame + 1, track] = table[:, 3]
    visible = np.zeros((frames, n_tracks), dtype=bool)
    visible[frame, track] = table[:, 4] == 1
    labels = np.zeros(n_tracks, dtype=int)
    first = frame == 0
    labels[track[first]] = table[first, 5].astype(int)
    tracks = TrajectoryMatrix(
        positions=positions,
        visible=visible,
        labels=None if np.all(labels < 0) else labels,
    )

    masks = np.zeros((frames, h, w), dtype=np.int16)
    for t in range(frames):
        masks[t] = _read_table(root / f"mask_{t:04d}.csv", shape=(h, w), dtype=np.int16)
    flows = np.zeros((frames - 1, h * w, 2))
    for t in range(frames - 1):
        table = _read_table(root / f"flow_{t:04d}.csv", shape=(h * w, 4), skiprows=1)
        flows[t] = table[:, 2:4]
    return SceneTruth(
        config=cfg,
        tracks=tracks,
        masks=masks,
        flows=flows,
        geometry=(),
        metadata=manifest.get("metadata", {}),
    )
