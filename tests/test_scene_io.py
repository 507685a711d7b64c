import numpy as np
import pytest

import oracles
from trajseg.scene_io import (
    _flow_csvs,
    _mask_csv,
    _trajectories_csv,
    load_scene,
    load_tracks,
    save_scene,
)
from trajseg.scene_synth import SceneConfig, TrajectoryMatrix, make_scene


@pytest.fixture(scope="module")
def scene():
    return make_scene(
        SceneConfig(mode="planar2d", num_objects=2, frames=6, grid=(48, 48), motion_seed=4)
    )


def test_file_layout(tmp_path, scene):
    save_scene(scene, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "trajectories.csv").exists()
    assert len(list(tmp_path.glob("mask_*.csv"))) == 6
    assert len(list(tmp_path.glob("flow_*.csv"))) == 5
    header = (tmp_path / "trajectories.csv").read_text().splitlines()[0]
    assert header == "track_id,frame,x,y,visible,label"


def test_trajectory_row_count(tmp_path, scene):
    save_scene(scene, tmp_path)
    rows = (tmp_path / "trajectories.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == scene.tracks.n_tracks * scene.config.frames


def test_round_trip(tmp_path, scene):
    save_scene(scene, tmp_path)
    loaded = load_scene(tmp_path)
    assert loaded.config == scene.config
    assert np.abs(loaded.tracks.positions - scene.tracks.positions).max() < 1e-8
    assert np.array_equal(loaded.tracks.visible, scene.tracks.visible)
    assert np.array_equal(loaded.labels, scene.labels)
    assert np.array_equal(loaded.masks, scene.masks)
    assert loaded.flows is None  # the flow tables are written, never read back


def test_byte_identical_reexport(tmp_path, scene):
    first = tmp_path / "a"
    second = tmp_path / "b"
    save_scene(scene, first)
    save_scene(scene, second)
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_save_load_save_stable(tmp_path, scene):
    # 9-significant-digit coordinates survive a round trip unchanged
    first = tmp_path / "a"
    save_scene(scene, first)
    reloaded = load_scene(first)
    second = tmp_path / "b"
    save_scene(reloaded, second)
    assert (first / "trajectories.csv").read_bytes() == (
        second / "trajectories.csv"
    ).read_bytes()


def test_writers_match_per_value_formatting(scene):
    h, w = 7, 5
    rng = np.random.default_rng(0)
    flows = rng.standard_normal((3, h * w, 2)) * 10.0 ** rng.integers(-320, 17, (3, h * w, 2))
    # zeros of both signs, subnormals and near-underflow values
    flows[0, :5] = [[0.0, -0.0], [-1e-310, 5e-324], [-2.5, 0.0], [1e-5, -1e16], [-2e-308, 1.0]]
    masks = rng.integers(0, 14, (3, h, w)).astype(np.int16)  # labels >= 10 too
    assert list(_flow_csvs(flows, h, w)) == [oracles.flow_csv(f, h, w) for f in flows]
    for grid in masks:
        assert _mask_csv(grid) == oracles.mask_csv(grid)
    gh, gw = scene.config.grid
    assert list(_flow_csvs(scene.flows, gh, gw)) == [
        oracles.flow_csv(f, gh, gw) for f in scene.flows
    ]
    for grid in scene.masks:
        assert _mask_csv(grid) == oracles.mask_csv(grid)
    negative = TrajectoryMatrix(positions=-scene.tracks.positions * 1e-300,
                                visible=scene.tracks.visible)
    for tracks in (scene.tracks, negative):
        assert _trajectories_csv(tracks) == oracles.trajectories_csv(tracks)


def test_load_tracks_reads_only_manifest_and_tracks(tmp_path, scene):
    save_scene(scene, tmp_path)
    full = load_scene(tmp_path).tracks
    for path in list(tmp_path.glob("mask_*.csv")) + list(tmp_path.glob("flow_*.csv")):
        path.unlink()
    tracks = load_tracks(tmp_path)
    assert np.array_equal(tracks.positions, full.positions)
    assert np.array_equal(tracks.visible, full.visible)
    assert np.array_equal(tracks.labels, full.labels)
    with pytest.raises(OSError):
        load_scene(tmp_path)
