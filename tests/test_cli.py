import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajseg
from trajseg import baselines, losses
from trajseg.cli import main
from trajseg.errors import DivergenceError
from trajseg.optimizer import hard_loss
from trajseg.scene_io import load_scene
from trajseg.scene_synth import window


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "scene.json"
    cfg.write_text(
        json.dumps(
            {"mode": "rigid3d_affine", "num_objects": 2, "frames": 8, "grid": [64, 64],
             "points_per_object": 30}
        )
    )
    out = root / "scene"
    rc = main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "7"])
    assert rc == 0
    return out


class TestSynth:
    def test_minimal_planar_scene(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "planar2d", "num_objects": 2, "frames": 8,
                                   "grid": [32, 32]}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s"), "--seed", "0"])
        assert rc == 0
        rows = (tmp_path / "s" / "trajectories.csv").read_text().strip().splitlines()
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert len(rows) - 1 == manifest["n_tracks"] * 8

    def test_byte_identical_rerun(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "planar2d", "num_objects": 1, "frames": 5,
                                   "grid": [32, 32]}))
        for out in ("a", "b"):
            assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / out),
                         "--seed", "3"]) == 0
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_rank_check_in_summary(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "rigid3d_affine", "num_objects": 2,
                                   "frames": 8, "grid": [64, 64]}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--seed", "1"]) == 0
        assert "rank_ok=yes" in capsys.readouterr().out

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"moed": "planar2d"}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s"), "--seed", "0"])
        assert rc == 3
        assert "moed" in capsys.readouterr().err


class TestSegment:
    @pytest.mark.parametrize("method", ["kmeans", "ssc"])
    def test_baseline_runs(self, scene_dir, tmp_path, method):
        out = tmp_path / method
        rc = main(["segment", "--scene", str(scene_dir), "--method", method,
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        labels = (out / "labels.csv").read_text().strip().splitlines()
        manifest = json.loads((scene_dir / "manifest.json").read_text())
        assert len(labels) - 1 == manifest["n_tracks"]
        report = json.loads((out / "metrics.json").read_text())
        assert set(report) == {"ari", "fg_ari", "jaccard", "k_pred", "k_true"}

    def test_lrtl_runs_and_scores(self, scene_dir, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"steps": 400, "restarts": 2, "over_segments": 6,
                                   "target_segments": 3}))
        out = tmp_path / "lrtl"
        rc = main(["segment", "--scene", str(scene_dir), "--method", "lrtl",
                   "--config", str(cfg), "--out", str(out), "--seed", "2"])
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["ari"] > 0.8

    def test_tracks_as_flow_reports_its_own_loss(self, scene_dir, tmp_path):
        # the refinement and the choice of restart score the loss that the
        # soft phase optimised, so the reported loss is that of labels.csv
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"steps": 100, "restarts": 2, "over_segments": 4,
                                   "target_segments": 2, "loss": "tracks_as_flow"}))
        out = tmp_path / "taf"
        assert main(["segment", "--scene", str(scene_dir), "--method", "lrtl",
                     "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 0
        run = json.loads((out / "run.json").read_text())
        table = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1, dtype=int)
        used = table[table[:, 1] >= 0]
        tracks = load_scene(scene_dir).tracks.positions[:, used[:, 0]]
        one_hot = losses.SoftAssignment.from_labels(used[:, 1])
        expect = losses.tracks_as_flow_loss(one_hot, tracks)
        assert run["final_loss"] == pytest.approx(expect, rel=1e-12)
        assert hard_loss(tracks, used[:, 1], "tracks_as_flow") == pytest.approx(expect, rel=1e-12)

    def test_csv_format(self, scene_dir, tmp_path):
        out = tmp_path / "csv"
        rc = main(["segment", "--scene", str(scene_dir), "--method", "kmeans",
                   "--out", str(out), "--seed", "1", "--format", "csv"])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == sorted(["ari", "fg_ari", "jaccard", "k_pred", "k_true"])

    def test_deterministic_rerun(self, scene_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["segment", "--scene", str(scene_dir), "--method", "kmeans",
                         "--out", str(out), "--seed", "5"]) == 0
            outs.append(out)
        for fname in ("labels.csv", "metrics.json", "run.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("loss", ["reconstruction", "projective", "tracks_as_flow"])
    def test_deterministic_rerun_per_loss(self, scene_dir, tmp_path, loss):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"steps": 60, "restarts": 2, "over_segments": 4,
                                   "target_segments": 2, "loss": loss}))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["segment", "--scene", str(scene_dir), "--method", "lrtl",
                         "--config", str(cfg), "--out", str(out), "--seed", "4"]) == 0
            outs.append(out)
        for fname in ("labels.csv", "metrics.json", "run.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_coefficient_export(self, scene_dir, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"export_coefficients": True}))
        out = tmp_path / "ssc"
        assert main(["segment", "--scene", str(scene_dir), "--method", "ssc",
                     "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        rows = (out / "coefficients.csv").read_text().strip().splitlines()
        manifest = json.loads((scene_dir / "manifest.json").read_text())
        assert len(rows) <= manifest["n_tracks"]
        assert len(rows) == len(rows[0].split(","))

    def test_window_half_width_zero(self, scene_dir, tmp_path):
        # a half width of 0 is a one-frame window, not the default of 5
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"window_center": 2, "window_half_width": 0,
                                   "export_coefficients": True}))
        out = tmp_path / "win0"
        assert main(["segment", "--scene", str(scene_dir), "--method", "ssc",
                     "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        win = window(load_scene(scene_dir), 2, 0)
        coeff = baselines.ssc_admm(win.positions[:, win.visible[0]])
        text = "\n".join(",".join(f"{v:.9g}" for v in row) for row in coeff.c) + "\n"
        assert (out / "coefficients.csv").read_text() == text

    @pytest.mark.parametrize("key", ["restarts", "target_segments"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_lrtl_counts_below_one_exit_3(self, scene_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"steps": 5, key: value}))
        rc = main(["segment", "--scene", str(scene_dir), "--method", "lrtl",
                   "--config", str(cfg), "--out", str(tmp_path / "lrtl"), "--seed", "1"])
        assert rc == 3
        assert key in capsys.readouterr().err

    def test_window_mode(self, scene_dir, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"window_center": 0, "window_half_width": 3}))
        out = tmp_path / "win"
        assert main(["segment", "--scene", str(scene_dir), "--method", "kmeans",
                     "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["k_pred"] >= 1

    @pytest.mark.parametrize("method", ["ssc", "lrr"])
    def test_run_json_reports_solver(self, scene_dir, tmp_path, method):
        out = tmp_path / method
        assert main(["segment", "--scene", str(scene_dir), "--method", method,
                     "--out", str(out), "--seed", "1"]) == 0
        run = json.loads((out / "run.json").read_text())
        scene = load_scene(scene_dir)
        tracks = scene.tracks.positions[:, scene.tracks.visible_at(scene.config.frames // 2)]
        coeff = baselines.ssc_admm(tracks) if method == "ssc" else baselines.lrr(tracks)
        assert run["iterations"] == coeff.iterations
        assert run["primal_residual"] == coeff.primal_residual
        assert run["converged"] is coeff.converged

    def test_diverged_solver_exit_code(self, scene_dir, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("constraint residual grew",
                                  diagnostics={"residuals": [0.5, 2.25]})

        monkeypatch.setattr(baselines, "lrr", diverge)
        rc = main(["segment", "--scene", str(scene_dir), "--method", "lrr",
                   "--out", str(tmp_path / "lrr"), "--seed", "1"])
        assert rc == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert "constraint residual grew" in err and "2.25" in err


class TestSweep:
    def test_runs_with_assertions(self, scene_dir, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"trials": 5, "etas": [0.0, 0.5, 1.0],
                                   "ss": [-1, 0, 1], "taus": [1.0, 4.0]}))
        out = tmp_path / "sw"
        rc = main(["sweep", "--scene", str(scene_dir), "--config", str(cfg),
                   "--out", str(out), "--seed", "2"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 3 * 2
        meta = json.loads((out / "sweep_meta.json").read_text())
        assert meta["trials"] == 5

    def test_deterministic_rerun(self, scene_dir, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"trials": 3, "etas": [0.0, 1.0], "ss": [0],
                                   "taus": [1.0]}))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep", "--scene", str(scene_dir), "--config", str(cfg),
                         "--out", str(out), "--seed", "9"]) == 0
            blobs.append((out / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unwritable_output_is_io_error(self, scene_dir, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        rc = main(["sweep", "--scene", str(scene_dir), "--out", str(target), "--seed", "0"])
        assert rc == 2


class TestGradcheck:
    def test_passes_and_reports(self, tmp_path, capsys):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"instances": 3}))
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(cfg), "--out", str(out), "--seed", "4"])
        assert rc == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["tail"]["max_rel_err"] < 1e-4
        assert report["flow"]["max_rel_err"] < 1e-4

    def test_identical_report_bytes(self, tmp_path):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"instances": 2}))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["gradcheck", "--config", str(cfg), "--out", str(out),
                         "--seed", "8"]) == 0
            blobs.append((out / "gradcheck.json").read_bytes())
        assert blobs[0] == blobs[1]


def _drop_last_lines(count):
    def edit(path):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-count]))

    return edit


def _cut_mid_line(path):
    text = path.read_text()
    path.write_text(text[: text.rindex(",", 0, len(text) - 1)])


def _duplicate_first_row(path):
    # track 0 frame 0 twice, track 1 frame 0 missing
    path.write_text(path.read_text().replace("\n1,0,", "\n0,0,", 1))


def _replace_with(text):
    return lambda path: path.write_text(text)


# (command, scene file and how to corrupt it or a config JSON, exit code)
ERROR_CASES = [
    pytest.param("segment", ("trajectories.csv", _drop_last_lines(3)), 3, id="truncated-tracks"),
    pytest.param("segment", ("trajectories.csv", _cut_mid_line), 3, id="tracks-cut-mid-line"),
    pytest.param("segment", ("trajectories.csv", _duplicate_first_row), 3, id="duplicated-row"),
    pytest.param("segment", ("mask_0003.csv", _drop_last_lines(1)), 3, id="short-mask"),
    pytest.param("segment", ("flow_0000.csv", _replace_with("x,y,u,v\na,b,c,d\n")), 3,
                 id="non-numeric-flow"),
    pytest.param("segment", ("manifest.json", _replace_with("{")), 3, id="manifest-not-json"),
    pytest.param("segment", ("trajectories.csv", lambda p: p.unlink()), 2, id="missing-tracks"),
    pytest.param("segment", {"steps": "many"}, 3, id="steps-not-a-number"),
    pytest.param("segment", {"restarts": 2.5}, 3, id="fractional-restarts"),
    pytest.param("segment", {"k_range": [2]}, 3, id="k-range-too-short"),
    pytest.param("segment", {"target_segments": "some"}, 3, id="target-not-auto"),
    pytest.param("synth", {"frames": "eight"}, 3, id="synth-frames-string"),
    pytest.param("sweep", {"trials": None}, 3, id="sweep-trials-null"),
    pytest.param("sweep", {"trials": 0}, 3, id="sweep-trials-zero"),
    pytest.param("sweep", {"trials": -1}, 3, id="sweep-trials-negative"),
    pytest.param("sweep", {"taus": ["1"]}, 3, id="sweep-taus-strings"),
    pytest.param("gradcheck", {"step": True}, 3, id="gradcheck-step-bool"),
]


@pytest.mark.parametrize("command,fault,code", ERROR_CASES)
def test_bad_input_exit_code_without_traceback(scene_dir, tmp_path, command, fault, code):
    scene = tmp_path / "scene"
    shutil.copytree(scene_dir, scene)
    argv = [command, "--out", str(tmp_path / "out"), "--seed", "1"]
    if command in ("segment", "sweep"):
        argv += ["--scene", str(scene)]
    if command == "segment":
        argv += ["--method", "kmeans"]
    if isinstance(fault, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fault))
        argv += ["--config", str(cfg)]
    else:
        name, corrupt = fault
        corrupt(scene / name)
    env = dict(os.environ, PYTHONPATH=str(Path(trajseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "trajseg.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()
