"""The benchmark's workloads: the scenes each one makes and its rounds.

A workload makes its inputs once, in set-up, from the seed: scene
directories written with the program's own ``save_scene`` (the noisy
workloads) or the configs that the ``synth`` command reads (the clean
pipeline), plus whatever the output checks compare against.  A round is a
fixed list of CLI commands; each command comes with the check that decides
whether it counts as failed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import checks

# the acceptance suite's kind of scene: 3 objects, T=16, 1 px tracking
# noise on a 256x256 grid (the noisy workloads cut it to a fixed size)
NOISY_SCENE = {"mode": "rigid3d_affine", "num_objects": 3, "frames": 16,
               "grid": [256, 256], "points_per_object": 40, "noise_sigma": 1.0}
CLEAN_SCENE = dict(NOISY_SCENE, noise_sigma=0.0)
# the CLI's default corruption grid, spelled out so that the checks know it
SWEEP_GRID = {"etas": [0.0, 0.25, 0.5, 0.75, 1.0], "ss": [-4, -3, -2, -1, 0, 1, 2, 3, 4],
              "taus": [1.0, 2.0, 4.0, 8.0]}


@dataclass(frozen=True)
class Sizes:
    """Scene and solver sizes; ``FULL`` is the benchmark, ``TINY`` its smoke test."""

    per_label: int = 40  # tracks per component (3 objects + background), noisy scenes
    dense_points: int = 160  # points_per_object of the dense sampling they are cut from
    n_tracks: int = 224  # tracks of the clean scene, the median of the generator's counts
    scene: dict = field(default_factory=dict)  # overrides of the scene configs
    segment: dict = field(default_factory=dict)  # extra segment config keys
    sweep_trials: int = 3


FULL = Sizes()
TINY = Sizes(per_label=12, dense_points=60, n_tracks=64,
             scene={"grid": [64, 64], "frames": 8, "points_per_object": 20},
             segment={"steps": 30, "restarts": 1}, sweep_trials=2)


def _scene_config(seed, scene: dict, **changes):
    from trajseg.scene_synth import SceneConfig

    return SceneConfig(motion_seed=seed, **dict(scene, grid=tuple(scene["grid"]), **changes))


def noisy_scene(seed, sizes: Sizes):
    """A noisy scene with exactly ``per_label`` tracks per component.

    The generator's track count and its background share follow the
    objects' areas and vary a lot between seeds; the cost of every segment
    command grows with the count and the baselines' ARI moves with the
    share.  So the scene is sampled densely and cut, with a generator drawn
    from the seed, to ``per_label`` tracks of each component, all visible
    at the centre frame.  A component with fewer keeps them all.
    """
    from trajseg.scene_synth import TrajectoryMatrix, make_scene

    config = _scene_config(seed, dict(NOISY_SCENE, **sizes.scene),
                           points_per_object=sizes.dense_points, bg_balance=None)
    scene = make_scene(config)
    tracks = scene.tracks
    visible = tracks.visible[config.frames // 2]
    rng = np.random.default_rng(seed)
    keep = np.sort(np.concatenate([
        rng.permutation(np.flatnonzero(visible & (tracks.labels == label)))[:sizes.per_label]
        for label in range(config.num_objects + 1)
    ]))
    return dataclasses.replace(
        scene,
        tracks=TrajectoryMatrix(positions=tracks.positions[:, keep],
                                visible=tracks.visible[:, keep], labels=tracks.labels[keep]),
        metadata=dict(scene.metadata, n_tracks=int(keep.size)),
    )


def clean_config(seed, sizes: Sizes):
    """The clean scene's config, its background thinned to ``n_tracks`` tracks in all.

    ``synth`` writes this scene itself, so only its config can fix the
    track count: one generation gives the object tracks, and the
    background share is set to make up the rest.
    """
    from trajseg.scene_synth import make_scene

    config = _scene_config(seed, dict(CLEAN_SCENE, **sizes.scene))
    n_obj = int(np.sum(make_scene(config).labels != 0))
    return dataclasses.replace(config, bg_balance=(sizes.n_tracks - n_obj) / n_obj)


@dataclass
class Command:
    """One CLI call and the check of what it wrote.

    ``check()`` returns (problems, the ARI the command reported or None).
    """

    kind: str
    argv: list
    out: Path
    check: Callable[[], tuple]


def _write_json(path, data):
    Path(path).write_text(json.dumps(data, sort_keys=True) + "\n")


def _segment_argv(scene_dir, method, out, seed, config=None) -> list:
    argv = ["segment", "--scene", str(scene_dir), "--method", method,
            "--out", str(out), "--seed", str(seed)]
    if config is not None:
        argv += ["--config", str(config)]
    return argv


class NoisyWorkload:
    """Segment commands on noisy scenes made in set-up.

    Scene i of a run has motion seed 2 * seed + i.
    """

    methods: tuple = ()
    scenes: int = 1

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        from trajseg.scene_io import save_scene

        self.work, self.seed = work, seed
        self.scene_dirs, self.scene_files = [], []
        for i in range(self.scenes):
            scene_dir = work / f"scene_{i}"
            save_scene(noisy_scene(2 * seed + i, sizes), scene_dir)
            self.scene_dirs.append(scene_dir)
            self.scene_files.append(checks.read_tracks(scene_dir))
        # target_segments = the true count, background included
        self.segment_config = work / "segment.json"
        _write_json(self.segment_config,
                    dict(sizes.segment, target_segments=NOISY_SCENE["num_objects"] + 1))

    def round(self) -> Iterator[Command]:
        for scene_dir, scene in zip(self.scene_dirs, self.scene_files):
            for method in self.methods:
                config = self.segment_config if method == "lrtl" else None
                out = self.work / f"out_{scene_dir.name}_{method}"
                yield Command("segment", _segment_argv(scene_dir, method, out, self.seed, config),
                              out, lambda out=out, scene=scene, method=method:
                              checks.check_segment(out, scene, method))


class LrtlNoisy(NoisyWorkload):
    methods = ("lrtl",)
    scenes = 2  # LRTL's refinement time varies from scene to scene


class BaselinesNoisy(NoisyWorkload):
    methods = ("kmeans", "ssc", "lrr")


class CleanPipeline:
    """synth of a noise-free scene, then segment --method lrtl, then sweep."""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        from trajseg.scene_synth import make_scene

        config = clean_config(seed, sizes)
        self.work, self.seed = work, seed
        self.synth_config = work / "synth.json"
        synth = config.to_json()
        del synth["motion_seed"]  # synth takes it from --seed
        _write_json(self.synth_config, synth)
        self.segment_config = work / "segment.json"
        _write_json(self.segment_config,
                    dict(sizes.segment, target_segments=config.num_objects + 1))
        self.sweep_grid = dict(SWEEP_GRID, trials=sizes.sweep_trials)
        self.sweep_config = work / "sweep.json"
        _write_json(self.sweep_config, self.sweep_grid)
        self.reference = make_scene(config)
        self.scene_dir = work / "clean"
        self.scene = None  # parsed by the synth check, read by the later checks

    def _check_synth(self):
        problems, self.scene = checks.check_synth(self.scene_dir, self.reference)
        return problems, None

    def _check_segment(self, out):
        if self.scene is None:
            return ["no scene to check against"], None
        return checks.check_segment(out, self.scene, "lrtl")

    def _check_sweep(self):
        if self.scene is None:
            return ["no scene to check against"], None
        return checks.check_sweep(self.work / "sweep", self.scene, self.reference.masks[0],
                                  self.sweep_grid), None

    def round(self) -> Iterator[Command]:
        self.scene = None
        yield Command("synth", ["synth", "--config", str(self.synth_config),
                                "--out", str(self.scene_dir), "--seed", str(self.seed)],
                      self.scene_dir, self._check_synth)
        out = self.work / "out_lrtl"
        yield Command("segment", _segment_argv(self.scene_dir, "lrtl", out, self.seed,
                                               self.segment_config),
                      out, lambda: self._check_segment(out))
        yield Command("sweep", ["sweep", "--scene", str(self.scene_dir),
                                "--config", str(self.sweep_config),
                                "--out", str(self.work / "sweep"), "--seed", str(self.seed)],
                      self.work / "sweep", self._check_sweep)


WORKLOADS = {
    "lrtl-noisy": LrtlNoisy,
    "baselines-noisy": BaselinesNoisy,
    "clean-pipeline": CleanPipeline,
}
