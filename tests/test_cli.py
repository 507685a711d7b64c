import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajseg
from trajseg import baselines, losses, optimizer
from trajseg.cli import (GRADCHECK_DEFAULTS, SEGMENT_DEFAULTS, SWEEP_KEYS, SYNTH_KEYS,
                         VALUE_TYPES, main)
from trajseg.errors import DivergenceError
from trajseg.optimizer import hard_loss
from trajseg.scene_io import load_scene, load_tracks
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

    def test_object_too_close_to_pinhole_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "rigid3d_perspective", "depth_motion": 100}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s"), "--seed", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "too close to the camera plane" in err
        assert not (tmp_path / "s").exists()

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

    def test_integral_floats_run_as_integers(self, tmp_path):
        configs = {"int": {"num_objects": 2, "frames": 8, "grid": [32, 32]},
                   "float": {"num_objects": 2.0, "frames": 8.0, "grid": [32.0, 32]}}
        for name, config in configs.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / name),
                         "--seed", "2"]) == 0
        names = sorted(p.name for p in (tmp_path / "int").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "float").iterdir())
        for name in names:
            assert (tmp_path / "int" / name).read_bytes() == (
                tmp_path / "float" / name).read_bytes()


def test_every_command_key_has_a_value_type():
    keys = SYNTH_KEYS | SWEEP_KEYS | set(SEGMENT_DEFAULTS) | set(GRADCHECK_DEFAULTS)
    assert keys - set(VALUE_TYPES) == set()


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
        # the label rule cannot end a soft phase of 400 steps
        text = (out / "run.json").read_text()
        run = json.loads(text)
        assert run["soft_steps"] == [400, 400]
        assert run["soft_stop"] == ["cap", "cap"]
        # one line per key, lists included, between the braces
        assert len(text.splitlines()) == len(run) + 2

    def test_lrtl_run_records_each_soft_stop(self, scene_dir, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"restarts": 3, "over_segments": 4, "target_segments": 3}))
        out = tmp_path / "lrtl"
        assert main(["segment", "--scene", str(scene_dir), "--method", "lrtl",
                     "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 0
        run = json.loads((out / "run.json").read_text())
        assert len(run["soft_steps"]) == len(run["soft_stop"]) == 3
        assert "labels" in run["soft_stop"]
        for steps, stop in zip(run["soft_steps"], run["soft_stop"]):
            # the label rule may fire on the last step, too
            assert stop in ("labels", "cap") and steps % 100 == 0
            assert steps <= SEGMENT_DEFAULTS["steps"]
            if stop == "cap":
                assert steps == SEGMENT_DEFAULTS["steps"]

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
        win = window(load_tracks(scene_dir), 2, 0)
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

    @pytest.mark.parametrize("method,config", [
        pytest.param("ssc", {"alpha": 0}, id="ssc-alpha-zero"),
        pytest.param("ssc", {"alpha": -5}, id="ssc-alpha-negative"),
        pytest.param("lrtl", {"step_size": 0}, id="lrtl-step-size-zero"),
        pytest.param("lrtl", {"step_size": -0.05}, id="lrtl-step-size-negative"),
        pytest.param("lrr", {"rho": 0.5, "max_iter": 300}, id="lrr-rho-below-one"),
        # the ERROR_CASES harness runs segment with kmeans, which never calls lrr
        pytest.param("lrr", {"lam": 0}, id="lrr-lam-zero"),
        pytest.param("lrr", {"lam": -1}, id="lrr-lam-negative"),
        pytest.param("lrr", {"max_iter": 0}, id="lrr-max-iter-zero"),
        # the scene's track matrix has 2T = 16 rows
        pytest.param("lrtl", {"r": 17}, id="lrtl-tail-r-beyond-matrix"),
        pytest.param("lrtl", {"r": 16, "loss": "reconstruction"},
                     id="lrtl-reconstruction-r-at-matrix"),
    ])
    def test_out_of_range_value_exit_3(self, scene_dir, tmp_path, capsys, method, config):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(config))
        rc = main(["segment", "--scene", str(scene_dir), "--method", method,
                   "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert next(iter(config)) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method,config", [
        ("kmeans", {}),
        ("ssc", {"window_center": 2, "window_half_width": 1, "export_coefficients": True}),
    ])
    def test_needs_no_mask_or_flow_table(self, scene_dir, tmp_path, method, config):
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        for path in list(bare.glob("mask_*.csv")) + list(bare.glob("flow_*.csv")):
            path.unlink()
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(config))
        for scene, out in ((scene_dir, "full"), (bare, "bare")):
            assert main(["segment", "--scene", str(scene), "--method", method, "--config",
                         str(cfg), "--out", str(tmp_path / out), "--seed", "1"]) == 0
        for fname in ("labels.csv", "metrics.json", "run.json"):
            assert (tmp_path / "full" / fname).read_bytes() == (
                tmp_path / "bare" / fname).read_bytes()

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
        assert not (tmp_path / "lrr").exists()

    def test_diverged_restart_exit_code(self, scene_dir, tmp_path, capsys, monkeypatch):
        # the second of three restarts, which run concurrently, goes non-finite
        bad = int(np.random.default_rng([1, 1]).integers(2**31))
        traj_term = optimizer._traj_term

        def diverging(cfg, logits, tracks):
            total, grad = traj_term(cfg, logits, tracks)
            return (np.nan if cfg.seed == bad else total), grad

        monkeypatch.setattr(optimizer, "_traj_term", diverging)
        config = tmp_path / "segment.json"
        config.write_text(json.dumps({"steps": 30, "restarts": 3}))
        rc = main(["segment", "--scene", str(scene_dir), "--method", "lrtl", "--config",
                   str(config), "--out", str(tmp_path / "lrtl"), "--seed", "1"])
        assert rc == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "non-finite loss at step 0" in err and "Traceback" not in err
        assert not (tmp_path / "lrtl").exists()

    @pytest.mark.parametrize("method", ["kmeans", "ssc"])
    def test_baseline_without_truth_clusters_smallest_k(self, scene_dir, tmp_path, monkeypatch,
                                                        method):
        bare = tmp_path / "unlabeled"
        shutil.copytree(scene_dir, bare)
        table = bare / "trajectories.csv"
        lines = table.read_text().splitlines()
        table.write_text("\n".join(
            [lines[0]] + [line.rsplit(",", 1)[0] + ",-1" for line in lines[1:]]) + "\n")
        tracks = load_tracks(scene_dir)
        keep = np.flatnonzero(tracks.visible_at(tracks.frames // 2))
        used = tracks.positions[:, keep]
        if method == "kmeans":
            offsets = (used - np.tile(used[0:2], (tracks.frames, 1))).T
            expect = baselines.kmeans(offsets, 2, seed=1)
        else:
            aff = baselines.affinity(baselines.ssc_admm(used))
            expect = baselines.spectral_cluster(aff, 2, seed=1)
        clusterer = "kmeans" if method == "kmeans" else "spectral_cluster"
        calls = []
        original = getattr(baselines, clusterer)

        def counted(data, k, **kwargs):
            calls.append(k)
            return original(data, k, **kwargs)

        monkeypatch.setattr(baselines, clusterer, counted)
        out = tmp_path / "out"
        assert main(["segment", "--scene", str(bare), "--method", method,
                     "--out", str(out), "--seed", "1"]) == 0
        assert calls == [2]
        run = json.loads((out / "run.json").read_text())
        assert run["k_selected"] == 2 and run["oracle"] is False
        assert json.loads((out / "metrics.json").read_text())["ari"] is None
        labels = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1, dtype=int)[:, 1]
        assert np.array_equal(labels[keep], expect)


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

    @pytest.mark.parametrize("fault", ["malformed", "deleted"])
    def test_needs_no_flow_table(self, scene_dir, tmp_path, capsys, fault):
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        for path in bare.glob("flow_*.csv"):
            if fault == "deleted":
                path.unlink()
            else:
                path.write_text("x,y,u,v\na,b,c,d\n")
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"trials": 2, "etas": [0.0, 0.5], "ss": [-1, 0, 1],
                                   "taus": [1.0, 4.0]}))
        runs = []
        for scene, out in ((scene_dir, "full"), (bare, "bare")):
            rc = main(["sweep", "--scene", str(scene), "--config", str(cfg),
                       "--out", str(tmp_path / out), "--seed", "4"])
            printed = capsys.readouterr().out.replace(str(tmp_path / out), "OUT")
            runs.append((rc, printed) + tuple(
                (tmp_path / out / name).read_bytes() for name in ("sweep.csv", "sweep_meta.json")))
        assert runs[0] == runs[1]

    def test_unknown_assertion_rejected_before_the_sweep(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"assertions": ["eta_monotone", "min_at_trut"]}))
        out = tmp_path / "sw"
        rc = main(["sweep", "--scene", str(scene_dir), "--config", str(cfg),
                   "--out", str(out), "--seed", "0"])
        assert rc == 3
        assert "min_at_trut" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        pytest.param({"etas": []}, id="empty-etas"),
        pytest.param({"taus": []}, id="empty-taus"),
        # the scene has 2 objects, so clipping empties the ss axis
        pytest.param({"ss": [7]}, id="ss-clipped-empty"),
        pytest.param({"ss": [7, -3], "assertions": ["under_over_asymmetry"]},
                     id="ss-clipped-empty-no-truth-assertion"),
        pytest.param({"ss": [-1, 1]}, id="ss-without-zero"),
        pytest.param({"ss": [-1, 1], "assertions": ["min_at_truth"]},
                     id="ss-without-zero-min-at-truth"),
    ])
    def test_grid_it_cannot_score_rejected_before_the_sweep(self, scene_dir, tmp_path, capsys,
                                                            monkeypatch, config):
        calls = []
        monkeypatch.setattr("trajseg.feasibility.apply_corruption",
                            lambda *a: calls.append(a))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sw"
        rc = main(["sweep", "--scene", str(scene_dir), "--config", str(cfg),
                   "--out", str(out), "--seed", "3"])
        assert rc == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert calls == []
        assert not out.exists()

    def test_ss_without_zero_runs_when_no_assertion_reads_it(self, scene_dir, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"trials": 2, "etas": [0.0], "ss": [-1, 1], "taus": [1.0],
                                   "assertions": ["under_over_asymmetry"]}))
        out = tmp_path / "sw"
        assert main(["sweep", "--scene", str(scene_dir), "--config", str(cfg),
                     "--out", str(out), "--seed", "3"]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 2

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

    @pytest.mark.parametrize("config", [
        pytest.param({"step": 0}, id="step-zero"),
        pytest.param({"step": -1e-5}, id="step-negative"),
        pytest.param({"segments": 0}, id="segments-zero"),
        pytest.param({"frames": 0}, id="frames-zero"),
        pytest.param({"tracks": 0}, id="tracks-zero"),
        pytest.param({"grid": [0, 5]}, id="grid-zero"),
        # the tail loss and its gradient are identically zero below rank 5
        pytest.param({"frames": 2}, id="frames-below-tail-rank"),
        pytest.param({"tracks": 4}, id="tracks-below-tail-rank"),
        # 4 pixels, and the quadratic flow basis has rank 4 there
        pytest.param({"grid": [2, 2]}, id="grid-fit-exact"),
    ])
    def test_bad_size_rejected_before_any_instance(self, tmp_path, capsys, config):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(cfg), "--out", str(out), "--seed", "0"])
        assert rc == 3
        printed = capsys.readouterr()
        assert printed.out == ""
        assert len(printed.err.strip().splitlines()) == 1
        assert next(iter(config)) in printed.err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [[1, 6], [2, 3], [3, 3]])
    def test_small_grid_with_pixels_to_spare_passes(self, tmp_path, grid):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"grid": grid, "instances": 3}))
        out = tmp_path / "gc"
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["flow"]["checked"] == 3 and report["flow"]["max_rel_err"] < 1e-4

    def test_degeneracy_probe_sees_each_column_bits(self):
        # the probe takes one batched SVD of the masked stack; the loop over
        # columns that it replaced is the reference
        rng = np.random.default_rng(3)
        for frames, n, k in ((6, 25, 3), (1, 4, 1), (8, 40, 6)):
            tracks = rng.standard_normal((2 * frames, n))
            weights = losses.softmax(rng.standard_normal((n, k)) * 0.5)
            batch = np.linalg.svd(losses._masked_stack(weights, tracks), compute_uv=False)
            for col in range(k):
                assert np.array_equal(
                    batch[col], np.linalg.svd(tracks * weights[:, col], compute_uv=False))

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
    # segment reads only the manifest and the tracks; sweep adds the masks
    pytest.param("sweep", ("mask_0003.csv", _drop_last_lines(1)), 3, id="short-mask"),
    pytest.param("segment", ("manifest.json", _replace_with("{")), 3, id="manifest-not-json"),
    pytest.param("segment", ("trajectories.csv", lambda p: p.unlink()), 2, id="missing-tracks"),
    pytest.param("segment", {"steps": "many"}, 3, id="steps-not-a-number"),
    pytest.param("segment", {"restarts": 2.5}, 3, id="fractional-restarts"),
    pytest.param("segment", {"steps": 10**400}, 3, id="steps-beyond-float"),
    pytest.param("segment", {"k_range": [2]}, 3, id="k-range-too-short"),
    pytest.param("segment", {"target_segments": "some"}, 3, id="target-not-auto"),
    pytest.param("synth", {"frames": "eight"}, 3, id="synth-frames-string"),
    pytest.param("sweep", {"trials": None}, 3, id="sweep-trials-null"),
    pytest.param("sweep", {"trials": 0}, 3, id="sweep-trials-zero"),
    pytest.param("sweep", {"trials": -1}, 3, id="sweep-trials-negative"),
    pytest.param("sweep", {"taus": ["1"]}, 3, id="sweep-taus-strings"),
    pytest.param("sweep", {"r": 17}, 3, id="sweep-tail-r-beyond-matrix"),
    pytest.param("segment", {"export_coefficients": "false"}, 3, id="export-flag-string"),
    pytest.param("segment", {"loss": "bogus"}, 3, id="segment-loss-unknown"),
    pytest.param("synth", {"mode": "cube"}, 3, id="synth-mode-unknown"),
    pytest.param("gradcheck", {"step": True}, 3, id="gradcheck-step-bool"),
    pytest.param("sweep", {"etas": []}, 3, id="sweep-etas-empty"),
    pytest.param("sweep", {"taus": []}, 3, id="sweep-taus-empty"),
    pytest.param("sweep", {"ss": [7]}, 3, id="sweep-ss-clipped-empty"),
    pytest.param("sweep", {"ss": [-1, 1]}, 3, id="sweep-ss-without-zero"),
    pytest.param("gradcheck", {"step": 0}, 3, id="gradcheck-step-zero"),
    pytest.param("gradcheck", {"segments": 0}, 3, id="gradcheck-segments-zero"),
    pytest.param("gradcheck", {"frames": 0}, 3, id="gradcheck-frames-zero"),
    pytest.param("segment", {"window_half_width": 2}, 3, id="segment-half-width-without-center"),
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
