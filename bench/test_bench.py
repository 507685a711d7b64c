"""Tests of the benchmark itself: smoke runs on tiny scenes, and one test
per output check showing that it flags a doctored output.

    python3 -m pytest bench -q
"""

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 4  # a tiny clean scene whose sweep passes the landscape assertions
CLI = run.import_program()


def _run(name, trace):
    return run.run_benchmark(name, SEED, 0.1, trace, sizes=workloads.TINY,
                             setup_start=time.perf_counter())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_untraced(name):
    result = _run(name, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name):
    result = _run(name, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _, _ in tracer.PER_LAYER]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if name == "baselines-noisy":
        assert values["baselines.lrr.iterations"] > 0
        assert values["numkernel.svd.calls_in_lrr"] == values["baselines.lrr.iterations"]
        assert values["losses.tail_vg.calls"] == 0
    else:
        assert values["losses.tail_vg.calls"] == values["optimizer.steps_run"] > 0
    if name == "clean-pipeline":
        assert 0 < values["feasibility.rows_used_ratio"] < 1
        assert values["feasibility.cells"] > 0 and values["scene_io.save_scene.s"] > 0


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert spec["paths"] == ["bench"]


def test_needs_the_program(tmp_path):
    """Without the program's sources the benchmark exits nonzero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lrtl-noisy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pair_counting_ari_matches_contingency_form():
    from trajseg import metrics

    rng = np.random.default_rng(0)
    for _ in range(20):
        pred = rng.integers(0, rng.integers(1, 6), 50)
        truth = rng.integers(0, rng.integers(1, 6), 50)
        assert abs(checks.pair_counting_ari(pred, truth) - metrics.ari(pred, truth)) <= 1e-12


# ---------------------------------------------------------------------------
# doctored outputs
# ---------------------------------------------------------------------------


def _cli(*argv):
    assert CLI.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Tiny real outputs of synth, segment (lrtl, kmeans) and sweep."""
    root = tmp_path_factory.mktemp("outputs")
    clean = workloads.CleanPipeline(root, SEED, workloads.TINY)
    for command in clean.round():
        _cli(*command.argv)
        assert command.check()[0] == []
    _cli("segment", "--scene", clean.scene_dir, "--method", "kmeans",
         "--out", root / "out_kmeans", "--seed", SEED)
    return root, clean


def _doctor(tmp_path, outputs, name):
    root, clean = outputs
    shutil.copytree(root / name, tmp_path / name)
    return tmp_path / name, clean


def _rewrite_csv(path, edit):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows = edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_segment_check_passes_kmeans(outputs):
    root, clean = outputs
    assert checks.check_segment(root / "out_kmeans", clean.scene, "kmeans")[0] == []


def test_permuted_labels_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "out_lrtl")
    keep = np.flatnonzero(clean.scene.visible[clean.scene.visible.shape[0] // 2])
    labels = checks.read_labels(out)
    before = checks.pair_counting_ari(labels[keep], clean.scene.labels[keep])
    labels[keep] = labels[keep][np.random.default_rng(1).permutation(keep.size)]
    assert checks.pair_counting_ari(labels[keep], clean.scene.labels[keep]) != before
    _rewrite_csv(out / "labels.csv",
                 lambda rows: rows[:1] + [[str(n), str(v)] for n, v in enumerate(labels)])
    problems, _ = checks.check_segment(out, clean.scene, "lrtl")
    assert any("ari" in p for p in problems)


def test_label_on_invisible_track_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "out_kmeans")
    hidden = np.flatnonzero(~clean.scene.visible[clean.scene.visible.shape[0] // 2])
    if hidden.size == 0:
        pytest.skip("every track is visible at the centre frame")
    _rewrite_csv(out / "labels.csv",
                 lambda rows: [[r[0], "0"] if r[0] == str(hidden[0]) else r for r in rows])
    assert checks.check_segment(out, clean.scene, "kmeans")[0]


def test_wrong_k_pred_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "out_kmeans")
    report = json.loads((out / "metrics.json").read_text())
    report["k_pred"] += 1
    (out / "metrics.json").write_text(json.dumps(report))
    assert any("k_pred" in p for p in checks.check_segment(out, clean.scene, "kmeans")[0])


def test_perturbed_final_loss_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "out_lrtl")
    run_info = json.loads((out / "run.json").read_text())
    run_info["final_loss"] *= 1 + 1e-8
    (out / "run.json").write_text(json.dumps(run_info))
    problems, _ = checks.check_segment(out, clean.scene, "lrtl")
    assert any("final_loss" in p for p in problems)


def test_shifted_coordinate_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "clean")
    _rewrite_csv(out / "trajectories.csv", lambda rows: rows[:1] + [
        rows[1][:2] + [repr(float(rows[1][2]) + 1e-7)] + rows[1][3:]] + rows[2:])
    problems, _ = checks.check_synth(out, clean.reference)
    assert any("positions" in p for p in problems)


def test_changed_mask_pixel_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "clean")
    _rewrite_csv(out / "mask_0003.csv",
                 lambda rows: [[str(int(rows[0][0]) + 1)] + rows[0][1:]] + rows[1:])
    assert "mask 3 differs" in checks.check_synth(out, clean.reference)[0]


def test_scaled_flow_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "clean")
    _rewrite_csv(out / "flow_0002.csv", lambda rows: rows[:1] + [
        r[:2] + [repr(float(r[2]) * (1 + 1e-7)), r[3]] for r in rows[1:]])
    assert any("flow 2" in p for p in checks.check_synth(out, clean.reference)[0])


def test_object_off_rank_flagged(tmp_path, outputs):
    """Two tracks of an object moved along independent paths off its subspace."""
    out, clean = _doctor(tmp_path, outputs, "clean")
    first, second = (str(n) for n in np.flatnonzero(clean.scene.labels == 1)[:2])
    bends = {first: lambda t: 1e-3 * t**2, second: lambda t: 1e-3 * (-1) ** t}
    _rewrite_csv(out / "trajectories.csv", lambda rows: rows[:1] + [
        r[:2] + [repr(float(r[2]) + bends[r[0]](int(r[1])))] + r[3:]
        if r[0] in bends else r for r in rows[1:]])
    assert any("object 1" in p for p in checks.check_synth(out, clean.reference)[0])


def _sweep_problems(out, clean):
    return checks.check_sweep(out, clean.scene, clean.reference.masks[0], clean.sweep_grid)


def test_dropped_sweep_row_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "sweep")
    _rewrite_csv(out / "sweep.csv", lambda rows: rows[:-1])
    assert any("rows for" in p for p in _sweep_problems(out, clean))


def test_noisy_deterministic_cell_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "sweep")
    _rewrite_csv(out / "sweep.csv", lambda rows: rows[:1] + [
        r[:5] + ["1e-3"] + r[6:] if r[0] == "0" and r[1] == "0" else r for r in rows[1:]])
    assert any("deterministic cell" in p for p in _sweep_problems(out, clean))


def test_perturbed_truth_cell_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "sweep")
    _rewrite_csv(out / "sweep.csv", lambda rows: rows[:1] + [
        r[:4] + [repr(float(r[4]) * (1 + 1e-8))] + r[5:]
        if r[:3] == ["0", "0", "1"] else r for r in rows[1:]])
    assert any("uncorrupted loss_mean" in p for p in _sweep_problems(out, clean))


def test_truth_cell_not_minimum_flagged(tmp_path, outputs):
    out, clean = _doctor(tmp_path, outputs, "sweep")
    _rewrite_csv(out / "sweep.csv", lambda rows: rows[:1] + [
        r[:6] + ["0"] if r[:3] == ["0", "-1", "1"] else r for r in rows[1:]])
    assert any("not the minimum" in p for p in _sweep_problems(out, clean))
