"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
per-sequence optimizations are shared between the comparison and the
alternative-loss criteria through module-scoped fixtures, mirroring th
identical-seed/identical-budget requirement.
"""

import json
import time

import numpy as np
import pytest

from trajseg import baselines, feasibility, losses, metrics
from trajseg.cli import main as cli_main
from trajseg.optimizer import OptimConfig, segment_tracks
from trajseg.scene_synth import SceneConfig, make_scene

from oracles import brute_force_assignment, pair_counting_ari, random_orthonormal


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared noisy-scene suite (criteria 3 and 5)
# ---------------------------------------------------------------------------

NOISY_SEEDS = list(range(10))


def _noisy_scene(seed):
    return make_scene(
        SceneConfig(
            mode="rigid3d_affine",
            num_objects=3,
            frames=16,
            grid=(256, 256),
            motion_seed=seed,
            noise_sigma=1.0,
            points_per_object=40,
        )
    )


def _run_lrtl(scene, seed, loss_kind):
    cfg = OptimConfig(k=10, steps=1200, seed=seed, loss_kind=loss_kind)
    labels, _ = segment_tracks(
        scene.tracks.positions, cfg, restarts=3, target_segments=4
    )
    return metrics.ari(labels, scene.labels)


@pytest.fixture(scope="module")
def noisy_suite():
    return [_noisy_scene(seed) for seed in NOISY_SEEDS]


@pytest.fixture(scope="module")
def lrtl_tail_aris(noisy_suite):
    return [
        _run_lrtl(scene, seed, "tail") for seed, scene in zip(NOISY_SEEDS, noisy_suite)
    ]


def test_criterion_1_rank_ground_truth():
    """20 rigid3d_affine scenes: per-group rank deficiency and zero tail loss."""
    start = time.time()
    worst_ratio = 0.0
    worst_loss = 0.0
    for seed in range(20):
        scene = make_scene(
            SceneConfig(
                mode="rigid3d_affine",
                num_objects=2 + seed % 3,
                frames=16,
                grid=(96, 96),
                motion_seed=seed,
                points_per_object=60,
            )
        )
        p = scene.tracks.positions
        sigma_top = 0.0
        for label in np.unique(scene.labels):
            cols = scene.labels == label
            sigma = np.linalg.svd(p[:, cols], compute_uv=False)
            if sigma.size >= 5:
                worst_ratio = max(worst_ratio, sigma[4] / sigma[0])
            sigma_top += sigma[0]
        truth = losses.SoftAssignment.from_labels(
            scene.labels, num_classes=int(scene.labels.max()) + 1
        )
        value = losses.trajectory_tail_loss(truth, p, 5)
        worst_loss = max(worst_loss, value / sigma_top)
    elapsed = time.time() - start
    ok = worst_ratio < 1e-8 and worst_loss < 1e-8 and elapsed < 10
    report(
        "1 rank ground truth",
        ok,
        f"max s5/s1={worst_ratio:.2e}, max loss/sum_s1={worst_loss:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_suite():
    """50 gapped instances: analytic vs central differences, rel err < 1e-4."""
    start = time.time()
    step = 1e-5
    worst = 0.0
    checked = 0
    attempt = 0
    while checked < 25 and attempt < 200:
        rng = np.random.default_rng([11, attempt])
        attempt += 1
        tracks = rng.standard_normal((12, 20))
        logits = rng.standard_normal((20, 3)) * 0.5
        weights = losses.softmax(logits)
        gap_ok = True
        for k in range(3):
            sigma = np.linalg.svd(tracks * weights[:, k], compute_uv=False)
            if np.any(np.diff(sigma[:7]) > -1e-3 * sigma[0]):
                gap_ok = False
        if not gap_ok:
            continue
        checked += 1
        analytic = losses.trajectory_tail_grad(logits, tracks, 5)
        fd = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            up = logits.copy()
            dn = logits.copy()
            up[idx] += step
            dn[idx] -= step
            fd[idx] = (
                losses.trajectory_tail_loss(losses.SoftAssignment.from_logits(up), tracks, 5)
                - losses.trajectory_tail_loss(losses.SoftAssignment.from_logits(dn), tracks, 5)
            ) / (2 * step)
        worst = max(worst, np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
    flow_checked = 0
    for i in range(25):
        rng = np.random.default_rng([13, i])
        h = w = 10
        basis = losses.quad_embed(h, w)
        flow = basis @ (rng.standard_normal((6, 2)) * 0.05)
        flow += rng.standard_normal(flow.shape) * 0.01
        logits = rng.standard_normal((h * w, 2)) * 0.5
        analytic = losses.flow_loss_grad(logits, flow, (h, w))
        fd = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            up = logits.copy()
            dn = logits.copy()
            up[idx] += step
            dn[idx] -= step
            fd[idx] = (
                losses.flow_loss(losses.SoftAssignment.from_logits(up, "pixel", (h, w)), flow)[0]
                - losses.flow_loss(losses.SoftAssignment.from_logits(dn, "pixel", (h, w)), flow)[0]
            ) / (2 * step)
        worst = max(worst, np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
        flow_checked += 1
    elapsed = time.time() - start
    total = checked + flow_checked
    ok = worst < 1e-4 and total >= 50 and elapsed < 60
    report(
        "2 gradient suite",
        ok,
        f"max rel err={worst:.2e} over {total} instances, {elapsed:.1f}s",
    )


def test_criterion_3_comparison(noisy_suite, lrtl_tail_aris):
    """LRTL beats the best of kmeans/ssc/lrr by 0.05 and reaches 0.85."""
    start = time.time()
    baseline_aris = {"kmeans": [], "ssc": [], "lrr": []}
    for scene in noisy_suite:
        tracks = scene.tracks.positions
        truth = scene.labels
        ks = range(2, 9)
        offsets = (tracks - np.tile(tracks[0:2], (scene.config.frames, 1))).T
        baseline_aris["kmeans"].append(
            max(
                metrics.ari(baselines.kmeans(offsets, k, restarts=10, seed=0), truth)
                for k in ks
            )
        )
        aff = baselines.affinity(baselines.ssc_admm(tracks, alpha=100.0))
        baseline_aris["ssc"].append(
            max(metrics.ari(baselines.spectral_cluster(aff, k, seed=0), truth) for k in ks)
        )
        aff = baselines.affinity(baselines.lrr(tracks, lam=0.2))
        baseline_aris["lrr"].append(
            max(metrics.ari(baselines.spectral_cluster(aff, k, seed=0), truth) for k in ks)
        )
    lrtl_mean = float(np.mean(lrtl_tail_aris))
    means = {name: float(np.mean(v)) for name, v in baseline_aris.items()}
    best_name = max(means, key=means.get)
    elapsed = time.time() - start
    ok = (
        lrtl_mean >= 0.85
        and lrtl_mean - means[best_name] >= 0.05
        and elapsed < 15 * 60
    )
    report(
        "3 comparison",
        ok,
        f"LRTL={lrtl_mean:.3f} vs kmeans={means['kmeans']:.3f} "
        f"ssc={means['ssc']:.3f} lrr={means['lrr']:.3f} (best {best_name}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_4_landscape(tmp_path):
    """Feasibility sweep passes all four landscape assertions."""
    start = time.time()
    scene = make_scene(
        SceneConfig(
            mode="rigid3d_affine",
            num_objects=4,
            frames=12,
            grid=(96, 96),
            motion_seed=7,
            points_per_object=40,
        )
    )
    result = feasibility.sweep(scene, trials=25, seed=0)
    checks = feasibility.check_assertions(result)
    elapsed = time.time() - start
    detail = "; ".join(f"{name}={'ok' if ok else detail}" for name, ok, detail in checks)
    ok = all(passed for _, passed, _ in checks) and elapsed < 5 * 60
    report("4 landscape", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_5_alternative_losses(noisy_suite, lrtl_tail_aris):
    """Tail-loss optimization matches or beats rank-5 reconstruction."""
    start = time.time()
    rec_aris = [
        _run_lrtl(scene, seed, "reconstruction")
        for seed, scene in zip(NOISY_SEEDS, noisy_suite)
    ]
    tail_mean = float(np.mean(lrtl_tail_aris))
    rec_mean = float(np.mean(rec_aris))
    elapsed = time.time() - start
    ok = tail_mean >= rec_mean and elapsed < 30 * 60
    report(
        "5 alternative losses",
        ok,
        f"tail={tail_mean:.3f} vs reconstruction={rec_mean:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_subspace_recovery():
    """SSC and LRR reach ARI 1.0 on unions of two 3-dim subspaces."""
    start = time.time()
    worst = 1.0
    for seed in range(5):
        rng = np.random.default_rng([29, seed])
        blocks = []
        for _ in range(2):
            basis = random_orthonormal(rng, 20, 3)
            pts = basis @ rng.standard_normal((3, 15))
            blocks.append(pts / np.linalg.norm(pts, axis=0))
        data = np.column_stack(blocks)
        truth = np.array([0] * 15 + [1] * 15)
        for solver in ("ssc", "lrr"):
            coeff = (
                baselines.ssc_admm(data, alpha=100.0)
                if solver == "ssc"
                else baselines.lrr(data, lam=2.0)
            )
            labels = baselines.spectral_cluster(baselines.affinity(coeff), 2, seed=0)
            worst = min(worst, metrics.ari(labels, truth))
    elapsed = time.time() - start
    ok = worst == 1.0 and elapsed < 30
    report("6 subspace recovery", ok, f"min ARI={worst:.3f}, {elapsed:.1f}s")


def test_criterion_7_oracle_equivalences():
    """Hungarian vs brute force, ARI vs pair counting, Eckart-Young."""
    start = time.time()
    rng = np.random.default_rng(31)
    hung_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        cost = rng.integers(-9, 10, (n, m)).astype(float)
        _, ref = brute_force_assignment(cost)
        _, got = metrics.hungarian(cost)
        hung_ok = hung_ok and abs(got - ref) < 1e-9
    ari_ok = True
    for _ in range(20):
        n = int(rng.integers(3, 10))
        pred = rng.integers(0, 3, n)
        truth = rng.integers(0, 3, n)
        ari_ok = ari_ok and abs(metrics.ari(pred, truth) - pair_counting_ari(pred, truth)) < 1e-12
    ey_ok = True
    for i in range(20):
        local = np.random.default_rng([37, i])
        p = local.standard_normal((10, 14))
        logits = local.standard_normal((14, 2))
        a = losses.SoftAssignment.from_logits(logits)
        value = losses.trajectory_reconstruction_loss(a, p, 4)
        expect = 0.0
        for k in range(2):
            sigma = np.linalg.svd(p * a.weights[:, k], compute_uv=False)
            expect += float((sigma[4:] ** 2).sum())
        ey_ok = ey_ok and abs(value - expect) < 1e-8
    elapsed = time.time() - start
    ok = hung_ok and ari_ok and ey_ok and elapsed < 30
    report(
        "7 oracle equivalences",
        ok,
        f"hungarian={'ok' if hung_ok else 'FAIL'} ari={'ok' if ari_ok else 'FAIL'} "
        f"eckart-young={'ok' if ey_ok else 'FAIL'}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    """synth/segment/sweep reruns are byte identical."""
    scene_cfg = tmp_path / "scene.json"
    scene_cfg.write_text(
        json.dumps(
            {"mode": "rigid3d_affine", "num_objects": 2, "frames": 8,
             "grid": [64, 64], "points_per_object": 30}
        )
    )
    seg_cfg = tmp_path / "seg.json"
    seg_cfg.write_text(
        json.dumps({"steps": 200, "restarts": 2, "over_segments": 5, "target_segments": 3})
    )
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps({"trials": 5, "etas": [0.0, 1.0], "ss": [-1, 0, 1], "taus": [1.0, 4.0]})
    )
    outputs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        assert cli_main(["synth", "--config", str(scene_cfg),
                         "--out", str(base / "scene"), "--seed", "3"]) == 0
        assert cli_main(["segment", "--scene", str(base / "scene"), "--method", "lrtl",
                         "--config", str(seg_cfg), "--out", str(base / "lrtl"),
                         "--seed", "3"]) == 0
        assert cli_main(["segment", "--scene", str(base / "scene"), "--method", "kmeans",
                         "--out", str(base / "km"), "--seed", "3"]) == 0
        assert cli_main(["sweep", "--scene", str(base / "scene"), "--config", str(sweep_cfg),
                         "--out", str(base / "sweep"), "--seed", "3"]) == 0
        blobs = {}
        for sub in ("scene", "lrtl", "km", "sweep"):
            for path in sorted((base / sub).iterdir()):
                blobs[f"{sub}/{path.name}"] = path.read_bytes()
        outputs[run] = blobs
    same = outputs["a"].keys() == outputs["b"].keys() and all(
        outputs["a"][k] == outputs["b"][k] for k in outputs["a"]
    )
    report("8 determinism", same, f"{len(outputs['a'])} files compared")
