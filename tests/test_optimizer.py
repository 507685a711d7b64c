import numpy as np
import pytest

from trajseg import losses as L
from trajseg import metrics
from trajseg.errors import DivergenceError, InvalidInputError
from trajseg.optimizer import (
    OptimConfig,
    greedy_reassign,
    hard_labels,
    hard_loss,
    merge_segments,
    optimize_sequence,
    segment_tracks,
)
from trajseg.scene_synth import SceneConfig, make_scene


@pytest.fixture(scope="module")
def noisy_scene():
    return make_scene(
        SceneConfig(
            mode="rigid3d_affine",
            num_objects=2,
            frames=12,
            grid=(128, 128),
            motion_seed=3,
            noise_sigma=0.5,
            points_per_object=40,
        )
    )


class TestHardLabels:
    def test_one_hot(self):
        w = np.eye(3)[[2, 0, 1, 1]]
        assert list(hard_labels(w)) == [2, 0, 1, 1]

    def test_uniform_ties_to_zero(self):
        assert list(hard_labels(np.full((3, 4), 0.25))) == [0, 0, 0]

    def test_simple_argmax(self):
        assert list(hard_labels(np.array([[0.2, 0.5, 0.3]]))) == [1]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((20, 5))
        base = hard_labels(L.softmax(logits))
        transformed = hard_labels(L.softmax(3.0 * logits + 1.0))
        assert np.array_equal(base, transformed)


class TestOptimizeSequence:
    def test_deterministic_traces(self, noisy_scene):
        cfg = OptimConfig(k=4, steps=120, seed=9, early_stop=False)
        a1, t1 = optimize_sequence(noisy_scene.tracks.positions, cfg=cfg)
        a2, t2 = optimize_sequence(noisy_scene.tracks.positions, cfg=cfg)
        assert np.array_equal(t1.losses, t2.losses)
        assert np.array_equal(a1.weights, a2.weights)
        assert t1.to_csv_text() == t2.to_csv_text()

    def test_loss_decreases_from_start(self, noisy_scene):
        cfg = OptimConfig(k=4, steps=400, seed=1)
        _, trace = optimize_sequence(noisy_scene.tracks.positions, cfg=cfg)
        assert trace.losses[-1] < trace.losses[0]

    def test_single_rigid_motion_scene_reaches_zero(self):
        # one background-only "scene": a single rigid motion is rank
        # deficient, so any assignment is optimal and the loss starts at 0
        scene = make_scene(
            SceneConfig(mode="rigid3d_affine", num_objects=1, frames=8,
                        grid=(64, 64), motion_seed=2, points_per_object=60)
        )
        cols = scene.labels == 1
        cfg = OptimConfig(k=2, steps=50, seed=0)
        _, trace = optimize_sequence(scene.tracks.positions[:, cols], cfg=cfg)
        s1 = np.linalg.svd(scene.tracks.positions[:, cols], compute_uv=False)[0]
        assert trace.losses[-1] < 1e-8 * s1

    def test_needs_enough_tracks(self):
        with pytest.raises(InvalidInputError):
            optimize_sequence(np.zeros((8, 3)), cfg=OptimConfig(k=4, steps=1))

    def test_nonfinite_loss_aborts_with_trace(self):
        # track values near the float ceiling overflow the singular-value
        # sum, which must abort with the partial trace attached
        rng = np.random.default_rng(0)
        huge = rng.random((8, 12)) * 1.6e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                optimize_sequence(huge, cfg=OptimConfig(k=3, steps=10, seed=0))
        trace = err.value.diagnostics["trace"]
        assert trace.steps_run >= 1
        assert not np.isfinite(trace.losses[-1])

    def test_empty_segments_free(self):
        # zero-mass segments contribute nothing to the loss, and columns
        # whose mass underflows to zero get a vanishing gradient
        rng = np.random.default_rng(5)
        p = rng.random((8, 12))
        w = np.zeros((12, 3))
        w[:, 0] = 1.0
        padded = L.trajectory_tail_loss(L.SoftAssignment(weights=w, mode="point"), p, 3)
        single = L.trajectory_tail_loss(
            L.SoftAssignment(weights=np.ones((12, 1)), mode="point"), p, 3
        )
        assert padded == pytest.approx(single, abs=1e-12)
        logits = np.zeros((12, 3))
        logits[:, 0] = 800.0  # other columns underflow to exactly zero mass
        value, grad = L.trajectory_tail_value_and_grad(logits, p, 3)
        assert value == pytest.approx(single, abs=1e-12)
        assert np.abs(grad[:, 1:]).max() == 0.0

    def test_trace_columns(self, noisy_scene):
        cfg = OptimConfig(k=4, steps=5, seed=0, early_stop=False)
        _, trace = optimize_sequence(noisy_scene.tracks.positions, cfg=cfg)
        text = trace.to_csv_text()
        assert text.splitlines()[0] == "step,loss"
        assert len(text.splitlines()) == 6

    def test_moving_average_trend(self):
        # noise-free scene: late 100-step moving average never rises
        # beyond a vanishing tolerance
        scene = make_scene(
            SceneConfig(mode="rigid3d_affine", num_objects=2, frames=10,
                        grid=(96, 96), motion_seed=4, points_per_object=30)
        )
        cfg = OptimConfig(k=4, steps=1200, seed=2, early_stop=False)
        _, trace = optimize_sequence(scene.tracks.positions, cfg=cfg)
        losses = trace.losses
        window = np.convolve(losses, np.ones(100) / 100, mode="valid")
        tail = window[500:]
        rises = np.diff(tail) > 1e-6
        assert rises.mean() <= 0.01


class TestRefinement:
    def test_greedy_reassign_never_raises_loss(self, noisy_scene):
        p = noisy_scene.tracks.positions
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, p.shape[1])
        before = hard_loss(p, labels)
        after_labels = greedy_reassign(p, labels, sweeps=2)
        assert hard_loss(p, after_labels) <= before + 1e-9

    def test_merge_segments_target(self, noisy_scene):
        p = noisy_scene.tracks.positions
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 6, p.shape[1])
        merged = merge_segments(p, labels, target=3)
        assert np.unique(merged).size <= 3

    def test_merge_prefers_same_object_fragments(self, noisy_scene):
        p = noisy_scene.tracks.positions
        truth = noisy_scene.labels
        # split each true group in half by column order: merging should
        # reunite fragments of the same group, not mix different groups
        labels = np.zeros(p.shape[1], dtype=int)
        next_id = 0
        for lab in np.unique(truth):
            cols = np.flatnonzero(truth == lab)
            half = cols.size // 2
            labels[cols[:half]] = next_id
            labels[cols[half:]] = next_id + 1
            next_id += 2
        merged = merge_segments(p, labels, target=np.unique(truth).size)
        assert metrics.ari(merged, truth) == pytest.approx(1.0)

    def test_segment_tracks_recovers_objects(self, noisy_scene):
        cfg = OptimConfig(k=6, steps=600, seed=0)
        labels, info = segment_tracks(
            noisy_scene.tracks.positions,
            cfg,
            restarts=2,
            target_segments=3,
        )
        assert metrics.ari(labels, noisy_scene.labels) > 0.8
        assert info["n_segments"] <= 3

    def test_segment_tracks_deterministic(self, noisy_scene):
        cfg = OptimConfig(k=5, steps=200, seed=4)
        out1, _ = segment_tracks(noisy_scene.tracks.positions, cfg, restarts=2,
                                 target_segments=3)
        out2, _ = segment_tracks(noisy_scene.tracks.positions, cfg, restarts=2,
                                 target_segments=3)
        assert np.array_equal(out1, out2)

    def test_segment_tracks_over_segments_from_config(self, noisy_scene):
        # each restart's soft phase has cfg.k components, so without a
        # target the merges can only lower the count below k
        cfg = OptimConfig(k=2, steps=50, seed=1)
        labels, info = segment_tracks(noisy_scene.tracks.positions, cfg, restarts=1)
        assert np.unique(labels).size <= 2
        assert info["n_segments"] <= 2

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -1},
                                        {"target_segments": 0}, {"target_segments": -2}],
                             ids=["restarts-0", "restarts-neg", "target-0", "target-neg"])
    def test_segment_tracks_rejects_counts_below_one(self, noisy_scene, kwargs):
        with pytest.raises(InvalidInputError):
            segment_tracks(noisy_scene.tracks.positions, OptimConfig(k=3, steps=5), **kwargs)
