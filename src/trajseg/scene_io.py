"""File interchange for scenes: JSON manifest plus CSV tables.

A scene directory holds ``manifest.json`` (config, seed, sizes,
metadata), ``trajectories.csv`` with one row per (track, frame),
``mask_####.csv`` integer label grids per frame, and ``flow_####.csv``
per frame pair.  Writes are atomic (temp file then rename) and all
formatting is fixed so identical scenes produce identical bytes.

``synth`` writes every file.  ``segment`` reads only the manifest and
``trajectories.csv`` (``load_tracks``); ``sweep`` adds the mask tables
(``load_scene``), because it corrupts the masks.  No command reads the
flow tables back.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .scene_synth import SceneConfig, SceneTruth, TrajectoryMatrix

__all__ = ["atomic_write_text", "save_scene", "load_tracks", "load_scene"]


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
    return "\n".join(",".join(map(str, row)) for row in grid.tolist()) + "\n"


def _flow_csvs(flows, h, w):
    """The text of each flow table, one per frame pair.

    The ``x,y,`` prefix of every pixel is part of one format template,
    built once, so each table is a single ``%`` over its u, v values.
    """
    template = "x,y,u,v\n" + "".join(
        f"{x},{y},%.9g,%.9g\n" for y in range(h) for x in range(w)
    )
    for flow in flows:
        yield template % tuple(flow.ravel().tolist())


def save_scene(scene: SceneTruth, out_dir) -> None:
    """Write manifest, trajectory and mask files into ``out_dir``, and the
    flow tables of a scene that has flows (a loaded scene has none)."""
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
    if scene.flows is not None:
        for t, text in enumerate(_flow_csvs(scene.flows, h, w)):
            atomic_write_text(out / f"flow_{t:04d}.csv", text)


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


def _read_manifest(root):
    """The scene config, track count and metadata from ``manifest.json``."""
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
    return cfg, n_tracks, manifest.get("metadata", {})


def _read_tracks(root, frames, n_tracks) -> TrajectoryMatrix:
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
    return TrajectoryMatrix(
        positions=positions,
        visible=visible,
        labels=None if np.all(labels < 0) else labels,
    )


def load_tracks(scene_dir) -> TrajectoryMatrix:
    """The tracks of a scene, read from its manifest and ``trajectories.csv``
    alone; the mask tables are neither read nor checked."""
    root = Path(scene_dir)
    cfg, n_tracks, _ = _read_manifest(root)
    return _read_tracks(root, cfg.frames, n_tracks)


def load_scene(scene_dir) -> SceneTruth:
    """Rebuild a scene from its files: the tracks of ``load_tracks`` plus
    every mask table, each checked against the manifest's sizes.

    The flow tables are neither read nor checked, so ``flows`` comes back
    None; only observables are serialized, so the generator's per-object
    geometry comes back empty.
    """
    root = Path(scene_dir)
    cfg, n_tracks, metadata = _read_manifest(root)
    frames = cfg.frames
    h, w = cfg.grid
    tracks = _read_tracks(root, frames, n_tracks)
    masks = np.zeros((frames, h, w), dtype=np.int16)
    for t in range(frames):
        masks[t] = _read_table(root / f"mask_{t:04d}.csv", shape=(h, w), dtype=np.int16)
    return SceneTruth(
        config=cfg,
        tracks=tracks,
        masks=masks,
        flows=None,
        geometry=(),
        metadata=metadata,
    )
