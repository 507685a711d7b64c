import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trajseg import feasibility as F
from trajseg import losses as L
from trajseg.errors import InvalidInputError
from trajseg.scene_synth import SceneConfig, TrajectoryMatrix, make_scene


@pytest.fixture(scope="module")
def scene():
    return make_scene(
        SceneConfig(
            mode="rigid3d_affine",
            num_objects=4,
            frames=12,
            grid=(96, 96),
            motion_seed=7,
            points_per_object=40,
        )
    )


def tracks_at(positions):
    """A stand-in scene whose tracks sit at the (N, 2) first-frame positions."""
    return SimpleNamespace(tracks=TrajectoryMatrix(positions=positions.T,
                                                   visible=np.ones((1, len(positions)))))


def every_pixel(mask):
    h, w = mask.shape
    ys, xs = np.divmod(np.arange(mask.size), w)
    return F.track_frame(mask, tracks_at(np.column_stack([xs / w, ys / h])))


def track_frame(scene):
    return F.track_frame(scene.masks[0], scene)


def soften(mask, tau, num_classes):
    """Temperature softening alone, read at every pixel of ``mask``."""
    spec = F.CorruptionSpec(eta=0.0, s=0, tau=tau)
    return F.apply_corruption(every_pixel(mask), spec, num_classes)


# TestNoise and TestStructural check the full-frame reference in oracles.py;
# test_trial_matches_full_frame_oracle ties the sweep's corruption of the
# tracks' pixels to it bit for bit.
class TestNoise:
    def test_eta_zero_identity(self, scene):
        out = oracles.corrupt_noise(scene.masks, 0.0, seed=1)
        assert np.array_equal(out, scene.masks)

    def test_eta_one_uniformish(self):
        masks = np.zeros((1, 64, 64), dtype=int)
        out = oracles.corrupt_noise(masks, 1.0, seed=3, num_classes=4)
        counts = np.bincount(out.ravel(), minlength=4)
        n = out.size
        expect = n / 4
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) < 3 * sigma)

    def test_eta_half_changed_fraction(self):
        masks = np.zeros((1, 64, 64), dtype=int)
        out = oracles.corrupt_noise(masks, 0.5, seed=5, num_classes=4)
        changed = (out != masks).mean()
        p = 0.5 * 3 / 4
        sigma = np.sqrt(p * (1 - p) / masks.size)
        assert abs(changed - p) < 3 * sigma

    def test_deterministic(self, scene):
        a = oracles.corrupt_noise(scene.masks, 0.3, seed=9)
        b = oracles.corrupt_noise(scene.masks, 0.3, seed=9)
        assert np.array_equal(a, b)


class TestStructural:
    def test_identity(self, scene):
        out = oracles.corrupt_structural(scene.masks, 0, seed=1)
        assert np.array_equal(out, scene.masks)

    def test_full_merge(self, scene):
        k = int(scene.masks.max())
        out = oracles.corrupt_structural(scene.masks, -k, seed=2)
        assert set(np.unique(out)) == {0}

    def test_split_square_balanced(self):
        # a square object split along a centroid axis must give two halves
        # whose pixel counts differ by at most one row/column of the square
        masks = np.zeros((1, 32, 32), dtype=int)
        masks[0, 8:24, 8:24] = 1
        out = oracles.corrupt_structural(masks, 1, seed=0)
        labels = sorted(set(np.unique(out)) - {0})
        assert len(labels) == 2
        counts = [int((out == lab).sum()) for lab in labels]
        assert sum(counts) == 16 * 16
        assert abs(counts[0] - counts[1]) <= 16

    def test_too_many_removals(self, scene):
        with pytest.raises(InvalidInputError):
            F.apply_corruption(track_frame(scene), F.CorruptionSpec(eta=0.0, s=-9, tau=1.0), 10)

    def test_thin_object_skipped_with_diagnostic(self):
        masks = np.zeros((1, 16, 16), dtype=int)
        masks[0, 4, 4] = 1  # single pixel cannot be split
        out = oracles.corrupt_structural(masks, 1, seed=0)
        assert np.array_equal(out, masks)


class TestTemperature:
    def test_hard_limit(self):
        mask = np.array([[0, 1], [2, 3]])
        soft = soften(mask, 1e-3, 4)
        onehot = np.eye(4)[mask.ravel()]
        assert np.abs(soft.weights - onehot).max() < 1e-3

    def test_uniform_limit(self):
        mask = np.array([[0, 1], [2, 3]])
        soft = soften(mask, 1e6, 4)
        assert np.abs(soft.weights - 0.25).max() < 1e-4

    def test_on_label_probability_at_tau_equals_scale(self):
        # tau equal to the logit scale gives e / (e + K - 1) on the label;
        # for K = 4 that is 0.4754 (frozen from softmax arithmetic)
        mask = np.array([[0, 1], [2, 3]])
        soft = soften(mask, F.LOGIT_SCALE, 4)
        expect = np.e / (np.e + 3.0)
        assert soft.weights[0, 0] == pytest.approx(expect, abs=1e-4)
        assert round(float(soft.weights[0, 0]), 4) == 0.4754

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("extra_classes", [None, 4])
    def test_bitwise_equal_to_per_pixel_softmax(self, tau, extra_classes):
        mask = np.random.default_rng(3).integers(0, 8, (30, 40))
        k = int(mask.max()) + 1 + (extra_classes or 0)
        soft = soften(mask, tau, k)
        expect = oracles.temperature_weights(mask, tau, k, F.LOGIT_SCALE)
        assert soft.mode == "point"
        assert soft.weights.shape == expect.shape
        assert np.array_equal(soft.weights, expect)


@st.composite
def corruption_cases(draw):
    """A label grid of up to four rectangles, painted in turn so that later
    ones may cut or hide earlier ones (one-pixel rows and columns give
    degenerate split axes), track pixels on it, and one corruption spec
    with |s| up to the objects left."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros((h, w), dtype=np.int16)
    for label in range(1, draw(st.integers(0, 4)) + 1):
        y0, x0 = rng.integers(h), rng.integers(w)
        mask[y0 : rng.integers(y0, h) + 1, x0 : rng.integers(x0, w) + 1] = label
    objects = np.unique(mask[mask > 0]).size
    s = draw(st.integers(-objects, objects))
    pixels = rng.integers(0, h * w, draw(st.integers(1, 20)))
    jitter = rng.uniform(-0.4, 0.4, (pixels.size, 2))
    positions = (np.column_stack([pixels % w, pixels // w]) + jitter) / [w, h]
    spec = F.CorruptionSpec(
        eta=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        s=s,
        tau=10.0 ** draw(st.floats(-3.0, 3.0)),
        seed=draw(st.integers(0, 2**62)),
    )
    num_classes = int(mask.max()) + 1 + max(s, 0) + draw(st.integers(0, 3))
    return mask, positions, spec, num_classes


@settings(max_examples=300, deadline=None)
@given(corruption_cases())
def test_trial_matches_full_frame_oracle(case):
    mask, positions, spec, num_classes = case
    scene = tracks_at(positions)
    soft = F.apply_corruption(F.track_frame(mask, scene), spec, num_classes)
    weights = oracles.apply_corruption(mask[None], spec, num_classes, F.LOGIT_SCALE)
    expect = F.point_assignment(L.SoftAssignment(weights, "pixel", mask.shape), scene)
    assert soft.mode == "point"
    assert np.array_equal(soft.weights, expect.weights)


@pytest.fixture(scope="module")
def result(scene):
    return F.sweep(
        scene,
        etas=(0.0, 0.5, 1.0),
        ss=(-2, -1, 0, 1, 2),
        taus=(1.0, 4.0),
        trials=8,
        seed=0,
    )


class TestCorruptionSpec:
    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidInputError):
            F.CorruptionSpec(eta=1.5, s=0, tau=1.0)
        with pytest.raises(InvalidInputError):
            F.CorruptionSpec(eta=0.0, s=0, tau=0.0)

    def test_apply_corruption_deterministic(self, scene):
        spec = F.CorruptionSpec(eta=0.3, s=1, tau=2.0, seed=17)
        a = F.apply_corruption(track_frame(scene), spec, 7)
        b = F.apply_corruption(track_frame(scene), spec, 7)
        assert np.array_equal(a.weights, b.weights)

    def test_identity_spec_is_near_hard(self, scene):
        spec = F.CorruptionSpec(eta=0.0, s=0, tau=1e-3, seed=0)
        k = int(scene.masks.max()) + 1
        soft = F.apply_corruption(every_pixel(scene.masks[0]), spec, k)
        onehot = np.eye(k)[scene.masks[0].ravel()]
        assert np.abs(soft.weights - onehot).max() < 1e-3


class TestSweep:
    def test_grid_cardinality(self, result):
        assert len(result.rows) == 3 * 5 * 2

    def test_uncorrupted_cell_deterministic(self, scene):
        res = F.sweep(scene, etas=(0.0,), ss=(0,), taus=(1e-3,), trials=5, seed=3)
        row = res.lookup(0.0, 0, 1e-3)
        assert row["loss_std"] == 0.0
        # hard masks at the sampling frame equal the ground-truth grouping
        from trajseg import losses as L

        truth = L.SoftAssignment.from_labels(
            scene.labels, num_classes=int(scene.masks.max()) + 1
        )
        expect = L.trajectory_tail_loss(truth, scene.tracks.positions, 5)
        assert row["loss_mean"] == pytest.approx(expect, rel=1e-9)

    def test_eta_monotone(self, result):
        means = [result.lookup(e, 0, 1.0)["loss_mean"] for e in result.etas]
        assert means[0] < means[1] < means[2]

    def test_under_over_asymmetry(self, result):
        for m in (1, 2):
            under = result.lookup(0.0, -m, 1.0)["loss_mean"]
            over = result.lookup(0.0, m, 1.0)["loss_mean"]
            assert under > over

    def test_min_at_uncorrupted(self, result):
        base = result.lookup(0.0, 0, 1.0)["loss_mean"]
        spread = max(r["loss_mean"] for r in result.rows) - min(
            r["loss_mean"] for r in result.rows
        )
        assert all(r["loss_mean"] >= base - 1e-9 * spread for r in result.rows)

    def test_assertions_pass(self, result):
        checks = F.check_assertions(result)
        assert all(ok for _, ok, _ in checks)

    def test_csv_shape(self, result):
        lines = result.to_csv_text().splitlines()
        assert lines[0] == "eta,s,tau,trials,loss_mean,loss_std,loss_mean_per_traj"
        assert len(lines) == 1 + len(result.rows)

    def test_draw_free_cells_scored_once(self, scene, monkeypatch):
        # test_sweep_matches_full_frame_oracle checks their values per trial
        calls = []
        score = F._LOSS_FNS["tail"]
        monkeypatch.setitem(F._LOSS_FNS, "tail",
                            lambda a, p, r: calls.append(a) or score(a, p, r))
        F.sweep(scene, etas=(0.0, 0.5), ss=(0, 1), taus=(1.0, 4.0), trials=3, seed=2)
        # the two (eta 0, s 0) cells once each, the other six cells per trial
        assert len(calls) == 2 + 6 * 3

    def test_deterministic(self, scene):
        a = F.sweep(scene, etas=(0.5,), ss=(1,), taus=(2.0,), trials=4, seed=11)
        b = F.sweep(scene, etas=(0.5,), ss=(1,), taus=(2.0,), trials=4, seed=11)
        assert a.rows == b.rows

    @pytest.mark.parametrize("grid,match", [
        ({"etas": ()}, "etas and taus"),
        ({"taus": []}, "etas and taus"),
        # the scene has 4 objects, so clipping leaves no s
        ({"ss": (5, -6)}, "no s in the ss axis"),
        ({"ss": ()}, "no s in the ss axis"),
    ])
    def test_grid_without_cells_rejected(self, scene, monkeypatch, grid, match):
        calls = []
        monkeypatch.setitem(F._LOSS_FNS, "tail", lambda a, p, r: calls.append(a) or 0.0)
        with pytest.raises(InvalidInputError, match=match):
            F.sweep(scene, trials=2, **grid)
        assert calls == []


def test_sweep_matches_full_frame_oracle(scene):
    grid = dict(etas=(0.0, 0.5, 1.0), ss=(-4, -1, 0, 2, 4, 5), taus=(1e-3, 2.0))
    got = F.sweep(scene, trials=2, seed=5, **grid)
    ss = (-4, -1, 0, 2, 4)  # the scene has 4 objects
    num_classes = int(scene.masks.max()) + 1 + max(ss)
    cells = itertools.product(grid["etas"], ss, grid["taus"])
    for cell_index, ((eta, s, tau), row) in enumerate(zip(cells, got.rows, strict=True)):
        values = []
        for trial in range(2):
            cell_rng = np.random.default_rng([5, cell_index, trial])
            spec = F.CorruptionSpec(eta=eta, s=s, tau=tau, seed=int(cell_rng.integers(2**62)))
            weights = oracles.apply_corruption(scene.masks[0:1], spec, num_classes,
                                               F.LOGIT_SCALE)
            pixels = L.SoftAssignment(weights=weights, mode="pixel", grid=scene.config.grid)
            values.append(L.trajectory_tail_loss(F.point_assignment(pixels, scene),
                                                 scene.tracks.positions, 5))
        assert (row["eta"], row["s"], row["tau"]) == (eta, s, tau)
        assert row["loss_mean"] == float(np.mean(values))
        assert row["loss_std"] == float(np.std(values))
