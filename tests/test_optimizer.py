import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from trajseg import losses as L
from trajseg import metrics
from trajseg import numkernel as nk
from trajseg import optimizer
from trajseg.errors import DivergenceError, InvalidInputError
from trajseg.optimizer import (
    GREEDY_SWEEPS,
    OptimConfig,
    greedy_reassign,
    hard_labels,
    hard_loss,
    merge_segments,
    optimize_sequence,
    segment_tracks,
)
from trajseg.scene_synth import SceneConfig, make_scene

from oracles import rescoring_greedy_reassign


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
        cfg = OptimConfig(k=4, steps=120, seed=9)
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

    @pytest.mark.parametrize("step_size", [0.0, -0.05])
    def test_step_size_not_positive_rejected(self, step_size):
        with pytest.raises(InvalidInputError, match="step_size"):
            OptimConfig(k=2, steps=1, step_size=step_size)

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
        cfg = OptimConfig(k=4, steps=5, seed=0)
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
        cfg = OptimConfig(k=4, steps=1200, seed=2)
        _, trace = optimize_sequence(scene.tracks.positions, cfg=cfg)
        losses = trace.losses
        window = np.convolve(losses, np.ones(100) / 100, mode="valid")
        tail = window[500:]
        rises = np.diff(tail) > 1e-6
        assert rises.mean() <= 0.01


class TestLabelRule:
    def test_stop_matches_a_run_capped_there(self, noisy_scene):
        p = noisy_scene.tracks.positions
        cfg = OptimConfig(k=4, steps=1200, seed=0)
        a1, t1 = optimize_sequence(p, cfg=cfg)
        stop = t1.steps_run
        assert t1.converged and stop < cfg.steps and stop % 100 == 0
        a2, t2 = optimize_sequence(p, cfg=replace(cfg, steps=stop))
        assert t2.converged and t2.steps_run == stop
        assert np.array_equal(a1.weights, a2.weights)
        assert np.array_equal(t1.losses, t2.losses)
        # the labels it stopped on had held for the last 400 steps
        a3, t3 = optimize_sequence(p, cfg=replace(cfg, steps=stop - 400))
        assert not t3.converged
        assert np.array_equal(hard_labels(a1), hard_labels(a3))
        assert np.array_equal(t1.losses[:stop - 400], t3.losses)

    def test_cap_without_stable_labels(self, noisy_scene):
        cfg = OptimConfig(k=4, steps=300, seed=0)
        _, trace = optimize_sequence(noisy_scene.tracks.positions, cfg=cfg)
        assert trace.steps_run == cfg.steps == trace.losses.size
        assert not trace.converged


def _acceptance_scene(seed, noise_sigma=1.0):
    return make_scene(
        SceneConfig(mode="rigid3d_affine", num_objects=3, frames=16, grid=(256, 256),
                    motion_seed=seed, noise_sigma=noise_sigma, points_per_object=40)
    )


class TestGreedyAgainstRescoringLoop:
    @staticmethod
    def _check(p, labels, candidates=None, kind="tail"):
        expect = rescoring_greedy_reassign(
            p, labels, lambda cols: L.hard_group_loss(cols, kind, L.DEFAULT_RANK), candidates,
            GREEDY_SWEEPS,
        )
        got = greedy_reassign(p, labels, kind, candidates=candidates)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_labels(self, noisy_scene, seed):
        p = noisy_scene.tracks.positions
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 6, p.shape[1])
        self._check(p, labels)
        # candidate lists may name segments that are empty or absent
        candidates = [rng.choice(8, size=3, replace=False) for _ in range(p.shape[1])]
        self._check(p, labels, candidates)

    @pytest.mark.parametrize("seed", range(3))
    def test_arbitrary_group_score(self, noisy_scene, monkeypatch, seed):
        # no trajectory loss falls when a track joins a group; an arbitrary
        # score also moves tracks out of singletons and back
        p = noisy_scene.tracks.positions
        monkeypatch.setattr(L, "hard_group_loss",
                            lambda cols, kind, r: float(np.sin(1e3 * cols.sum())))
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, p.shape[1])
        labels[:4] = [4, 5, 6, 7]
        candidates = [rng.choice(8, size=3, replace=False) for _ in range(p.shape[1])]
        self._check(p, labels, candidates)
        self._check(p, labels)

    def test_emptied_segment_is_no_later_candidate(self, monkeypatch):
        # track i's matrix column holds i; a group scores the sum of its
        # pairs' weights, so singletons and the empty group score 0.  In
        # sweep 1 track 0 stays, track 1 leaves singleton segment 1 for
        # segment 2, and tracks 2 and 3 stay; in sweep 2 segment 1 is
        # empty, so track 0, whose top-3 candidates still name it, must not
        # move there although that would lower the score by 1
        pair = np.zeros((4, 4))
        pair[0, 1] = pair[0, 3] = 2.0
        pair[0, 2] = pair[2, 3] = 1.0
        pair[1, 3] = -1.0
        pair += pair.T

        def group_score(cols, kind, r):
            ids = cols[0].astype(int)
            return float(pair[np.ix_(ids, ids)].sum() / 2)

        monkeypatch.setattr(L, "hard_group_loss", group_score)
        p = np.arange(4.0)[None, :]
        labels = np.array([0, 1, 0, 2])
        candidates = [np.array(c) for c in ([0, 1, 2], [1, 2, 0], [0, 2, 9], [2, 0, 9])]
        self._check(p, labels, candidates)
        assert list(greedy_reassign(p, labels, candidates=candidates)) == [0, 2, 0, 2]

    def test_reconstruction_loss(self, noisy_scene):
        p = noisy_scene.tracks.positions
        labels = np.random.default_rng(7).integers(0, 4, p.shape[1])
        self._check(p, labels, kind="reconstruction")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_acceptance_scene_after_soft_phase(self, seed):
        # as in the first pass of segment_tracks: soft labels with their
        # top-3 candidates; then the same labels with every segment
        p = _acceptance_scene(seed).tracks.positions
        assignment, _ = optimize_sequence(p, OptimConfig(k=10, steps=200, seed=seed))
        labels = hard_labels(assignment)
        candidates = [row[:3] for row in np.argsort(-assignment.weights, axis=1)]
        self._check(p, labels, candidates)
        self._check(p, labels)


class TestRefinement:
    def test_greedy_reassign_never_raises_loss(self, noisy_scene):
        p = noisy_scene.tracks.positions
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, p.shape[1])
        before = hard_loss(p, labels)
        after_labels = greedy_reassign(p, labels)
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


def _restart_seed(seed, restart):
    # the soft-phase seed that segment_tracks derives for a restart
    return int(np.random.default_rng([seed, restart]).integers(2**31))


@pytest.fixture(scope="module")
def acceptance_pair():
    return {"noisy": _acceptance_scene(0).tracks.positions,
            "clean": _acceptance_scene(0, noise_sigma=0.0).tracks.positions}


@pytest.fixture
def fake_openblas(monkeypatch):
    """Thread-count controls that hold a count of 2 in a dict, so that the
    restarts run concurrently on any BLAS."""
    state = {"threads": 2}
    monkeypatch.setattr(nk, "_openblas", lambda: (lambda: state["threads"],
                                                  lambda n: state.update(threads=n)))
    return state


def _diverge_in(monkeypatch, seed, fail_at):
    """Make the soft loss non-finite at step ``fail_at[restart]`` of the
    listed restarts of a run with config seed ``seed``."""
    fail_at = {_restart_seed(seed, restart): step for restart, step in fail_at.items()}
    steps = {}
    traj_term = optimizer._traj_term

    def diverging(cfg, logits, tracks):
        total, grad = traj_term(cfg, logits, tracks)
        step = steps[cfg.seed] = steps.get(cfg.seed, -1) + 1
        return (np.nan if fail_at.get(cfg.seed) == step else total), grad

    monkeypatch.setattr(optimizer, "_traj_term", diverging)


class TestRestartWorkers:
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4, 7, 10**6])
    @pytest.mark.parametrize("cores", [1, 2, 3, 64, 10**6])
    def test_one_per_restart_at_most_two_per_core(self, restarts, cores):
        workers = optimizer._restart_workers(restarts, cores, blas_pinned=True)
        assert workers == min(restarts, 2 * cores)
        assert 1 <= workers <= 2 * cores
        assert optimizer._restart_workers(restarts, cores, blas_pinned=False) == 1

    def test_extremes(self):
        assert optimizer._restart_workers(10**6, 1, True) == 2
        assert optimizer._restart_workers(1, 10**6, True) == 1
        assert optimizer._restart_workers(10**6, 10**6, False) == 1

    def test_pool_size_follows_usable_cores(self, noisy_scene, monkeypatch, fake_openblas):
        sizes = []

        class Recording(optimizer.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(optimizer, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(optimizer, "_usable_cores", lambda: 1)
        segment_tracks(noisy_scene.tracks.positions, OptimConfig(k=3, steps=20), restarts=5)
        assert sizes == [2]


class TestConcurrentRestarts:
    @pytest.fixture(autouse=True)
    def blas_count_kept(self):
        before = nk.blas_threads()
        yield
        assert nk.blas_threads() == before

    @pytest.mark.parametrize("restarts", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["tail", "reconstruction"])
    @pytest.mark.parametrize("scene", ["noisy", "clean"])
    def test_equals_serial(self, acceptance_pair, monkeypatch, scene, kind, restarts):
        p = acceptance_pair[scene]
        cfg = OptimConfig(k=5, steps=100, seed=3, loss_kind=kind)
        labels, info = segment_tracks(p, cfg, restarts=restarts, target_segments=4)
        monkeypatch.setattr(nk, "_openblas", lambda: None)
        serial_labels, serial_info = segment_tracks(p, cfg, restarts=restarts, target_segments=4)
        assert np.array_equal(labels, serial_labels)
        assert info == serial_info

    def test_equals_serial_under_fast_thread_switches(self, noisy_scene, monkeypatch):
        # more restarts than cores, switching threads every microsecond
        p = noisy_scene.tracks.positions
        cfg = OptimConfig(k=4, steps=40, seed=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            labels, info = segment_tracks(p, cfg, restarts=6, target_segments=3)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(nk, "_openblas", lambda: None)
        serial_labels, serial_info = segment_tracks(p, cfg, restarts=6, target_segments=3)
        assert np.array_equal(labels, serial_labels)
        assert info == serial_info

    def test_restarts_run_on_own_threads_with_blas_pinned(self, noisy_scene, monkeypatch,
                                                          fake_openblas):
        seen = []
        optimize = optimizer.optimize_sequence

        def recording(tracks, cfg):
            seen.append((threading.get_ident(), nk.blas_threads()))
            return optimize(tracks, cfg)

        monkeypatch.setattr(optimizer, "optimize_sequence", recording)
        segment_tracks(noisy_scene.tracks.positions, OptimConfig(k=3, steps=20), restarts=3)
        assert len(seen) == 3
        assert threading.get_ident() not in {ident for ident, _ in seen}
        assert {threads for _, threads in seen} == {1}
        assert fake_openblas["threads"] == 2

    @pytest.mark.parametrize("serial", [False, True], ids=["concurrent", "serial"])
    def test_first_diverged_restart_raises(self, noisy_scene, monkeypatch, serial):
        # restart 2 diverges sooner, but restart order reports restart 1
        if serial:
            monkeypatch.setattr(nk, "_openblas", lambda: None)
        _diverge_in(monkeypatch, 5, {1: 7, 2: 3})
        with pytest.raises(DivergenceError, match=r"^non-finite loss at step 7$") as err:
            segment_tracks(noisy_scene.tracks.positions, OptimConfig(k=3, steps=50, seed=5),
                           restarts=3)
        assert err.value.diagnostics["trace"].steps_run == 8

    @pytest.mark.skipif(nk.blas_threads() is None,
                        reason="numpy's OpenBLAS thread count is out of reach")
    def test_blas_thread_count_restored(self, noisy_scene, monkeypatch):
        before = nk.blas_threads()
        p = noisy_scene.tracks.positions
        segment_tracks(p, OptimConfig(k=3, steps=20), restarts=3)
        assert nk.blas_threads() == before
        _diverge_in(monkeypatch, 0, {1: 4})
        with pytest.raises(DivergenceError):
            segment_tracks(p, OptimConfig(k=3, steps=20), restarts=3)
        assert nk.blas_threads() == before

    @pytest.mark.parametrize("serial", [False, True], ids=["concurrent", "serial"])
    def test_caller_errstate_reaches_restarts(self, noisy_scene, monkeypatch, serial):
        if serial:
            monkeypatch.setattr(nk, "_openblas", lambda: None)
        traj_term = optimizer._traj_term
        bad = _restart_seed(0, 1)

        def dividing(cfg, logits, tracks):
            if cfg.seed == bad:
                np.ones(1) / np.zeros(1)
            return traj_term(cfg, logits, tracks)

        monkeypatch.setattr(optimizer, "_traj_term", dividing)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            segment_tracks(noisy_scene.tracks.positions, OptimConfig(k=3, steps=20), restarts=3)
