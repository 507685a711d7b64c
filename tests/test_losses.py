import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajseg import losses as L
from trajseg.errors import InvalidInputError, RangeError
from trajseg.optimizer import hard_loss
from trajseg.scene_synth import SceneConfig, make_scene

from oracles import (
    central_difference_grad,
    matrix_with_spectrum,
    per_group_residual_value_and_grad,
    per_pair_fit_value_and_grad,
    svd_tail_sum,
    svd_tail_value_and_grad,
)


def hard_assignment(labels, k, mode="point", grid=None):
    return L.SoftAssignment.from_labels(labels, num_classes=k, mode=mode, grid=grid)


@pytest.fixture(scope="module")
def planar_scene():
    return make_scene(
        SceneConfig(mode="planar2d", num_objects=2, frames=6, grid=(48, 48), motion_seed=5)
    )


@pytest.fixture(scope="module")
def affine_scene():
    return make_scene(
        SceneConfig(
            mode="rigid3d_affine", num_objects=3, frames=12, grid=(96, 96), motion_seed=11
        )
    )


class TestSoftAssignment:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(InvalidInputError):
            L.SoftAssignment(weights=np.array([[0.5, 0.4]]), mode="point")

    def test_pixel_mode_needs_grid(self):
        with pytest.raises(InvalidInputError):
            L.SoftAssignment(weights=np.ones((4, 1)), mode="pixel")

    def test_from_logits_is_softmax(self):
        logits = np.array([[0.0, 1.0, 2.0]])
        a = L.SoftAssignment.from_logits(logits)
        e = np.exp([0.0, 1.0, 2.0])
        assert np.allclose(a.weights, e / e.sum())


class TestQuadEmbed:
    def test_corner_values(self):
        emb = L.quad_embed(3, 3)
        assert np.allclose(emb[0], [0, 0, 0, 0, 0, 1])
        assert np.allclose(emb[-1], [1, 1, 1, 1, 1, 1])

    def test_hand_value(self):
        # normalized position (0.5, 0.25) -> [x, x2, y, y2, xy, 1]
        row = L.embed_points(np.array([[0.5, 0.25]]))[0]
        assert np.allclose(row, [0.5, 0.25, 0.25, 0.0625, 0.125, 1.0])

    def test_lattice_columns(self):
        emb = L.quad_embed(4, 5)
        gx = emb[:, 0].reshape(4, 5)
        gy = emb[:, 2].reshape(4, 5)
        assert np.allclose(gx[0], np.arange(5) / 4)
        assert np.allclose(gy[:, 0], np.arange(4) / 3)
        assert np.all(emb[:, 5] == 1.0)


class TestFlowLoss:
    def test_ground_truth_masks_fit_exactly(self, planar_scene):
        sc = planar_scene
        masks = hard_assignment(
            sc.masks[0].ravel(), 3, mode="pixel", grid=sc.config.grid
        )
        flow = sc.flows[0] / np.array(sc.config.grid[::-1], dtype=float)
        value, parts = L.flow_loss(masks, flow)
        assert value < 1e-10
        assert parts.shape == (3,)

    def test_uniform_masks_worse_than_truth(self, planar_scene):
        sc = planar_scene
        hw = sc.masks[0].size
        flow = sc.flows[0] / np.array(sc.config.grid[::-1], dtype=float)
        uniform = L.SoftAssignment(
            weights=np.full((hw, 3), 1 / 3), mode="pixel", grid=sc.config.grid
        )
        truth = hard_assignment(sc.masks[0].ravel(), 3, mode="pixel", grid=sc.config.grid)
        u_val = L.flow_loss(uniform, flow)[0]
        t_val = L.flow_loss(truth, flow)[0]
        assert u_val > t_val
        assert u_val > 0

    def test_single_segment_pure_translation(self):
        # constant flow lies in the quadratic span, residual is numerics only
        h = w = 12
        flow = np.full((h * w, 2), 0.013)
        masks = L.SoftAssignment(weights=np.ones((h * w, 1)), mode="pixel", grid=(h, w))
        assert L.flow_loss(masks, flow)[0] < 1e-10

    def test_shape_mismatch(self, planar_scene):
        masks = hard_assignment(
            planar_scene.masks[0].ravel(), 3, mode="pixel", grid=planar_scene.config.grid
        )
        with pytest.raises(InvalidInputError):
            L.flow_loss(masks, np.zeros((10, 2)))


class TestFlowLossGrad:
    def test_zero_flow_zero_gradient(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((64, 2))
        g = L.flow_loss_grad(logits, np.zeros((64, 2)), (8, 8))
        assert np.abs(g).max() < 1e-14

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = w = 12
        emb = L.quad_embed(h, w)
        flow = emb @ (rng.standard_normal((6, 2)) * 0.05)
        flow += rng.standard_normal(flow.shape) * 0.01
        logits = rng.standard_normal((h * w, 2)) * 0.5
        g = L.flow_loss_grad(logits, flow, (h, w))
        ref = central_difference_grad(
            lambda x: L.flow_loss(
                L.SoftAssignment.from_logits(x, "pixel", (h, w)), flow
            )[0],
            logits,
        )
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 1e-4

    def test_truth_is_stationary(self, planar_scene):
        sc = planar_scene
        flow = sc.flows[0] / np.array(sc.config.grid[::-1], dtype=float)
        logits = 10.0 * np.eye(3)[sc.masks[0].ravel()]
        g = L.flow_loss_grad(logits, flow, sc.config.grid)
        assert np.abs(g).max() < 1e-6


class TestTrajectoryTailLoss:
    def test_ground_truth_on_rigid_scene(self, affine_scene):
        sc = affine_scene
        a = hard_assignment(sc.labels, 4)
        p = sc.tracks.positions
        value = L.trajectory_tail_loss(a, p, 5)
        sigma_tops = sum(
            np.linalg.svd(p[:, sc.labels == k], compute_uv=False)[0] for k in range(4)
        )
        assert value < 1e-8 * sigma_tops

    def test_merged_assignment_pays(self, affine_scene):
        sc = affine_scene
        merged = L.SoftAssignment(
            weights=np.ones((sc.tracks.n_tracks, 1)), mode="point"
        )
        value = L.trajectory_tail_loss(merged, sc.tracks.positions, 5)
        s1 = np.linalg.svd(sc.tracks.positions, compute_uv=False)[0]
        assert value > 1e-3 * s1

    def test_low_rank_single_segment_is_free(self):
        rng = np.random.default_rng(1)
        p = matrix_with_spectrum(rng, 12, 30, np.array([5, 3, 1, 0.5] + [0] * 8))
        ones = L.SoftAssignment(weights=np.ones((30, 1)), mode="point")
        assert L.trajectory_tail_loss(ones, p, 5) == pytest.approx(
            svd_tail_sum(p, 5), abs=1e-10
        )
        assert L.trajectory_tail_loss(ones, p, 5) < 1e-10

    def test_rank_beyond_matrix_is_empty_sum(self):
        ones = L.SoftAssignment(weights=np.ones((3, 1)), mode="point")
        assert L.trajectory_tail_loss(ones, np.random.default_rng(0).random((4, 3)), 5) == 0.0

    def test_shape_mismatch(self):
        a = L.SoftAssignment(weights=np.ones((5, 1)), mode="point")
        with pytest.raises(InvalidInputError):
            L.trajectory_tail_loss(a, np.zeros((4, 6)), 2)

    def test_zero_tracks_zero_everything(self):
        logits = np.random.default_rng(2).standard_normal((6, 3))
        value, grad = L.trajectory_tail_value_and_grad(logits, np.zeros((8, 6)), 2)
        assert value == 0.0
        assert np.all(grad == 0.0)


class TestTrajectoryTailGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        p = rng.standard_normal((16, 40))
        logits = rng.standard_normal((40, 3)) * 0.5
        g = L.trajectory_tail_grad(logits, p, 5)
        ref = central_difference_grad(
            lambda x: L.trajectory_tail_loss(L.SoftAssignment.from_logits(x), p, 5),
            logits,
        )
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 1e-5

    def test_descent_direction_on_truth(self, affine_scene):
        sc = affine_scene
        logits = 8.0 * np.eye(4)[sc.labels]
        p = sc.tracks.positions
        value, g = L.trajectory_tail_value_and_grad(logits, p, 5)
        stepped = L.trajectory_tail_loss(
            L.SoftAssignment.from_logits(logits - 1e-3 * g), p, 5
        )
        assert stepped <= value + 1e-12


def _rigid_scene(noise_sigma):
    return make_scene(
        SceneConfig(
            mode="rigid3d_affine",
            num_objects=3,
            frames=16,
            grid=(96, 96),
            motion_seed=3,
            noise_sigma=noise_sigma,
            points_per_object=40,
        )
    )


class TestTailKernelAgainstSvd:
    """The Gram/eigh tail kernel against the full-SVD formula."""

    @staticmethod
    def assert_matches_svd(logits, tracks, r=5):
        value, grad = L.trajectory_tail_value_and_grad(logits, tracks, r)
        ref_value, ref_grad = svd_tail_value_and_grad(logits, tracks, r)
        assert abs(value - ref_value) <= 1e-8 * ref_value
        assert np.linalg.norm(grad - ref_grad) <= 1e-6 * np.linalg.norm(ref_grad)

    def test_noisy_scene(self):
        p = _rigid_scene(1.0).tracks.positions
        logits = np.random.default_rng(0).standard_normal((p.shape[1], 10)) * 0.5
        self.assert_matches_svd(logits, p)

    @pytest.mark.parametrize("margin", [8.0, 12.0])
    def test_noise_free_near_truth(self, margin):
        # 4 rigid components of rank <= 4 leave the 32-row track matrix
        # rank deficient, so every group's Gram spectrum reaches round-off;
        # at margin 12 the tail sits near 1e-5 sigma_1, where the Gram
        # eigenvalues alone are off by about 1e-3
        sc = _rigid_scene(0.0)
        p = sc.tracks.positions
        assert np.linalg.matrix_rank(p) < p.shape[0]
        rng = np.random.default_rng(1)
        logits = margin * np.eye(10)[sc.labels] + 0.1 * rng.standard_normal(
            (p.shape[1], 10)
        )
        self.assert_matches_svd(logits, p)

    def test_more_rows_than_tracks(self):
        # 54 exact null directions, which must add nothing to the value
        rng = np.random.default_rng(2)
        self.assert_matches_svd(rng.standard_normal((10, 3)), rng.standard_normal((64, 10)))

    def test_weights_underflowing_to_zero(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((60, 3))
        logits[:20, 0] = -1000.0
        assert np.any(L.softmax(logits) == 0.0)
        self.assert_matches_svd(logits, rng.standard_normal((16, 60)))

    def test_all_zero_tracks(self):
        logits = np.random.default_rng(4).standard_normal((40, 3))
        value, grad = L.trajectory_tail_value_and_grad(logits, np.zeros((16, 40)), 5)
        ref_value, ref_grad = svd_tail_value_and_grad(logits, np.zeros((16, 40)), 5)
        assert value == ref_value == 0.0
        assert np.all(grad == 0.0) and np.all(ref_grad == 0.0)

    def test_overflow_gives_nonfinite_value(self):
        rng = np.random.default_rng(5)
        huge = rng.random((8, 12)) * 1.6e308
        with np.errstate(over="ignore", invalid="ignore"):
            value, _ = L.trajectory_tail_value_and_grad(
                rng.standard_normal((12, 3)), huge, 5
            )
        assert not np.isfinite(value)


def _as_written(p):
    """The positions as ``synth`` writes them to trajectories.csv."""
    return np.char.mod("%.9g", p).astype(float)


class TestRowSpaceCoordinates:
    """The soft losses on Z = U_q^T X against the same kernels on X."""

    @pytest.mark.parametrize("written", [False, True])
    def test_noise_free_scene_reduces_to_its_rank(self, written):
        # rounding to 9 digits leaves singular values near 1e-10 sigma_1
        # where the exact matrix has round-off: sqrt(eps) sigma_1 still cuts
        # them, where matrix_rank's eps * max(m, n) sigma_1 would not
        sc = _rigid_scene(0.0)
        exact = sc.tracks.positions
        p = _as_written(exact) if written else exact
        z = L.row_space_coordinates(p)
        assert z.shape == (np.linalg.matrix_rank(exact), p.shape[1])
        assert z.shape[0] < p.shape[0]

    @pytest.mark.parametrize("written", [False, True])
    @pytest.mark.parametrize("margin", [None, 8.0, 12.0])
    def test_noise_free_losses_match(self, written, margin):
        # the kernels' own tolerances (TestTailKernelAgainstSvd), widened
        # by Mirsky's bound: each of K groups' singular values move by at
        # most ||E||_* = sum_{i>q} sigma_i, so the tail moves by K ||E||_*;
        # the root of a group's squared residual moves by at most ||E||_F
        sc = _rigid_scene(0.0)
        p = sc.tracks.positions
        if written:
            p = _as_written(p)
        rng = np.random.default_rng(1)
        if margin is None:
            logits = rng.standard_normal((p.shape[1], 10)) * 0.5
        else:
            logits = margin * np.eye(10)[sc.labels] + 0.1 * rng.standard_normal(
                (p.shape[1], 10)
            )
        k = logits.shape[1]
        z = L.row_space_coordinates(p)
        dropped = np.linalg.svd(p, compute_uv=False)[z.shape[0]:]
        nuclear, frobenius = dropped.sum(), np.sqrt((dropped**2).sum())
        for kind, value_and_grad in (
            ("tail", L.trajectory_tail_value_and_grad),
            ("reconstruction", L.trajectory_reconstruction_value_and_grad),
        ):
            value, grad = value_and_grad(logits, z, 5)
            ref_value, ref_grad = value_and_grad(logits, p, 5)
            if kind == "tail":
                bound = k * nuclear
            else:
                bound = frobenius * (2.0 * np.sqrt(k * max(value, ref_value)) + k * frobenius)
            assert abs(value - ref_value) <= bound + 1e-8 * ref_value, kind
            if not written:
                assert abs(value - ref_value) <= 1e-8 * ref_value, kind
            assert np.linalg.norm(grad - ref_grad) <= 1e-6 * np.linalg.norm(ref_grad), kind

    def test_noisy_tracks_pass_through(self):
        p = _rigid_scene(1.0).tracks.positions
        assert L.row_space_coordinates(p) is p

    def test_fewer_tracks_than_rows(self):
        p = np.random.default_rng(2).standard_normal((32, 20))
        z = L.row_space_coordinates(p)
        assert z.shape == (20, 20)
        assert np.allclose(np.linalg.svd(z, compute_uv=False),
                           np.linalg.svd(p, compute_uv=False), rtol=1e-12, atol=0)

    def test_zero_and_nonfinite_tracks_pass_through(self):
        zero = np.zeros((8, 12))
        assert L.row_space_coordinates(zero) is zero
        nan = np.ones((8, 12))
        nan[3, 4] = np.nan
        assert L.row_space_coordinates(nan) is nan
        # finite, but its spectrum overflows
        huge = np.random.default_rng(0).random((8, 12)) * 1.6e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert L.row_space_coordinates(huge) is huge


class TestReconstructionLoss:
    def test_rank_r_group_is_free(self):
        rng = np.random.default_rng(4)
        p = matrix_with_spectrum(rng, 10, 20, np.array([4, 3, 2, 0, 0, 0, 0, 0, 0, 0.0]))
        ones = L.SoftAssignment(weights=np.ones((20, 1)), mode="point")
        assert L.trajectory_reconstruction_loss(ones, p, 3) < 1e-20

    def test_diagonal_case(self):
        p = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        ones = L.SoftAssignment(weights=np.ones((5, 1)), mode="point")
        assert L.trajectory_reconstruction_loss(ones, p, 3) == pytest.approx(5.0)

    def test_eckart_young_identity(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal((12, 25))
        logits = rng.standard_normal((25, 3))
        a = L.SoftAssignment.from_logits(logits)
        value = L.trajectory_reconstruction_loss(a, p, 5)
        expect = 0.0
        for k in range(3):
            s = np.linalg.svd(p * a.weights[:, k], compute_uv=False)
            expect += float((s[5:] ** 2).sum())
        assert value == pytest.approx(expect, abs=1e-8)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((10, 18))
        logits = rng.standard_normal((18, 2)) * 0.4
        _, g = L.trajectory_reconstruction_value_and_grad(logits, p, 4)
        ref = central_difference_grad(
            lambda x: L.trajectory_reconstruction_loss(
                L.SoftAssignment.from_logits(x), p, 4
            ),
            logits,
        )
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 1e-4


class TestProjectiveLoss:
    def test_constant_depth_scene_is_free(self):
        sc = make_scene(
            SceneConfig(
                mode="rigid3d_perspective", num_objects=2, frames=8, grid=(64, 64),
                motion_seed=2, depth_motion=0.0,
            )
        )
        a = hard_assignment(sc.labels, 3)
        value = L.trajectory_projective_loss(a, sc.tracks.positions)
        assert value < 1e-8

    def test_varying_depth_pays_more(self):
        base = dict(
            mode="rigid3d_perspective", num_objects=2, frames=8, grid=(64, 64), motion_seed=2
        )
        flat = make_scene(SceneConfig(**base, depth_motion=0.0))
        wavy = make_scene(SceneConfig(**base, depth_motion=2.0))
        va = L.trajectory_projective_loss(
            hard_assignment(flat.labels, 3), flat.tracks.positions
        )
        vb = L.trajectory_projective_loss(
            hard_assignment(wavy.labels, 3), wavy.tracks.positions
        )
        assert vb > va

    def test_affine_scene_is_free_too(self, affine_scene):
        sc = affine_scene
        a = hard_assignment(sc.labels, 4)
        assert L.trajectory_projective_loss(a, sc.tracks.positions) < 1e-8

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        p = rng.random((12, 20))
        logits = rng.standard_normal((20, 2)) * 0.4
        _, g = L.trajectory_projective_value_and_grad(logits, p)
        ref = central_difference_grad(
            lambda x: L.trajectory_projective_loss(L.SoftAssignment.from_logits(x), p),
            logits,
        )
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 1e-4


class TestTracksAsFlow:
    def test_static_tracks_zero(self):
        p = np.tile(np.random.default_rng(0).random((2, 15)), (5, 1))
        a = L.SoftAssignment(weights=np.ones((15, 1)), mode="point")
        assert L.tracks_as_flow_loss(a, p) < 1e-20

    def test_ground_truth_on_affine_motion(self, planar_scene):
        sc = planar_scene
        a = hard_assignment(sc.labels, 3)
        value = L.tracks_as_flow_loss(a, sc.tracks.positions)
        assert value < 1e-8

    def test_equals_per_pair_fits(self):
        # oracle: independent per-pair least-squares via numpy's SVD solver
        rng = np.random.default_rng(5)
        p = rng.random((8, 22))
        logits = rng.standard_normal((22, 2))
        a = L.SoftAssignment.from_logits(logits)
        total = L.tracks_as_flow_loss(a, p)
        expect = 0.0
        for t in range(3):
            basis = L.embed_points(np.column_stack([p[2 * t], p[2 * t + 1]]))
            disp = np.column_stack([p[2 * t + 2] - p[2 * t], p[2 * t + 3] - p[2 * t + 1]])
            for k in range(2):
                ek = a.weights[:, k : k + 1] * basis
                fk = a.weights[:, k : k + 1] * disp
                theta = np.linalg.lstsq(ek, fk, rcond=None)[0]
                expect += float(((fk - ek @ theta) ** 2).sum())
        assert total == pytest.approx(expect, rel=1e-9)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        p = rng.random((10, 20))
        logits = rng.standard_normal((20, 3)) * 0.5
        _, g = L.tracks_as_flow_value_and_grad(logits, p)
        ref = central_difference_grad(
            lambda x: L.tracks_as_flow_loss(L.SoftAssignment.from_logits(x), p), logits
        )
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 1e-5


def _frame_pairs(tracks):
    """Positions at the earlier frame of each pair and the displacements."""
    points = np.stack([tracks[0::2], tracks[1::2]], axis=-1)
    return points[:-1], points[1:] - points[:-1]


class TestFlowFitAgainstPerPairLoop:
    """The batched flow-fit kernel against a loop over frame pairs and
    segments."""

    @staticmethod
    def assert_flow_matches(logits, flow, grid):
        h, w = grid
        gy, gx = np.meshgrid(np.arange(h) / (h - 1), np.arange(w) / (w - 1), indexing="ij")
        points = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        ref_parts, ref_grad = per_pair_fit_value_and_grad(logits, points[None], flow[None])
        ref = ref_parts.sum()
        total, parts = L.flow_loss(L.SoftAssignment.from_logits(logits, "pixel", grid), flow)
        grad = L.flow_loss_grad(logits, flow, grid)
        assert abs(total - ref) <= 1e-12 * ref
        assert np.abs(parts - ref_parts[0]).max() <= 1e-12 * ref
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    @staticmethod
    def assert_tracks_match(logits, tracks):
        ref_parts, ref_grad = per_pair_fit_value_and_grad(logits, *_frame_pairs(tracks))
        ref = ref_parts.sum()
        loss = L.tracks_as_flow_loss(L.SoftAssignment.from_logits(logits), tracks)
        value, grad = L.tracks_as_flow_value_and_grad(logits, tracks)
        assert loss == value
        assert abs(value - ref) <= 1e-12 * ref
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_planar_scene(self, planar_scene):
        sc = planar_scene
        rng = np.random.default_rng(0)
        flow = sc.flows[0] / np.array(sc.config.grid[::-1], dtype=float)
        self.assert_flow_matches(
            rng.standard_normal((sc.masks[0].size, 3)), flow, sc.config.grid
        )
        p = sc.tracks.positions
        self.assert_tracks_match(rng.standard_normal((p.shape[1], 4)), p)

    def test_random_logits(self):
        rng = np.random.default_rng(1)
        h, w = 9, 11
        self.assert_flow_matches(
            rng.standard_normal((h * w, 4)), rng.standard_normal((h * w, 2)), (h, w)
        )
        self.assert_tracks_match(rng.standard_normal((30, 5)), rng.random((14, 30)))

    def test_weight_column_underflowing_to_zero(self):
        # segment 0 has an exactly zero design in every field
        rng = np.random.default_rng(2)
        h = w = 8
        logits = rng.standard_normal((h * w, 3))
        logits[:, 0] = -1000.0
        assert np.all(L.softmax(logits)[:, 0] == 0.0)
        self.assert_flow_matches(logits, rng.standard_normal((h * w, 2)), (h, w))
        logits = rng.standard_normal((25, 3))
        logits[:, 0] = -1000.0
        self.assert_tracks_match(logits, rng.random((10, 25)))

    def test_single_frame_pair(self):
        rng = np.random.default_rng(3)
        self.assert_tracks_match(rng.standard_normal((20, 3)), rng.random((4, 20)))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((8, 15))
    logits = rng.standard_normal((15, 3))
    a = L.SoftAssignment.from_logits(logits)
    perm = rng.permutation(3)
    permuted = L.SoftAssignment(weights=a.weights[:, perm], mode="point")
    assert L.trajectory_tail_loss(a, p, 3) == pytest.approx(
        L.trajectory_tail_loss(permuted, p, 3), rel=1e-12
    )
    assert L.trajectory_reconstruction_loss(a, p, 3) == pytest.approx(
        L.trajectory_reconstruction_loss(permuted, p, 3), rel=1e-12
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_scale_behavior(seed, c):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((8, 12))
    logits = rng.standard_normal((12, 2))
    a = L.SoftAssignment.from_logits(logits)
    tail = L.trajectory_tail_loss(a, p, 3)
    rec = L.trajectory_reconstruction_loss(a, p, 3)
    assert L.trajectory_tail_loss(a, c * p, 3) == pytest.approx(c * tail, rel=1e-9)
    assert L.trajectory_reconstruction_loss(a, c * p, 3) == pytest.approx(
        c * c * rec, rel=1e-9
    )


def test_ground_truth_beats_random_assignments(affine_scene):
    sc = affine_scene
    p = sc.tracks.positions
    truth_val = L.trajectory_tail_loss(hard_assignment(sc.labels, 4), p, 5)
    s1 = np.linalg.svd(p, compute_uv=False)[0]
    rng = np.random.default_rng(123)
    worse = 0
    vals = []
    for _ in range(200):
        labels = rng.integers(0, 4, sc.tracks.n_tracks)
        val = L.trajectory_tail_loss(hard_assignment(labels, 4), p, 5)
        vals.append(val)
        worse += val >= truth_val
    assert worse == 200
    assert np.mean(vals) - truth_val > 1e-3 * s1


def _tail_case(seed):
    """Random tracks and logits; 2T > N in some draws."""
    rng = np.random.default_rng(seed)
    frames = int(rng.integers(3, 9))
    n = int(rng.integers(8, 30))
    k = int(rng.integers(2, 5))
    return rng, rng.standard_normal((2 * frames, n)), rng.standard_normal((n, k))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_tail_track_permutation_permutes_gradient_rows(seed):
    rng, p, logits = _tail_case(seed)
    perm = rng.permutation(p.shape[1])
    value, grad = L.trajectory_tail_value_and_grad(logits, p, 3)
    value_p, grad_p = L.trajectory_tail_value_and_grad(logits[perm], p[:, perm], 3)
    assert value_p == pytest.approx(value, rel=1e-9)
    assert np.allclose(grad_p, grad[perm], rtol=0, atol=1e-9 * np.abs(grad).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_tail_segment_permutation_permutes_gradient_columns(seed):
    rng, p, logits = _tail_case(seed)
    perm = rng.permutation(logits.shape[1])
    value, grad = L.trajectory_tail_value_and_grad(logits, p, 3)
    value_p, grad_p = L.trajectory_tail_value_and_grad(logits[:, perm], p, 3)
    assert value_p == pytest.approx(value, rel=1e-9)
    assert np.allclose(grad_p, grad[:, perm], rtol=0, atol=1e-9 * np.abs(grad).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 2 * np.pi))
def test_tail_value_invariant_under_image_rotation(seed, angle):
    _, p, logits = _tail_case(seed)
    c, s = np.cos(angle), np.sin(angle)
    rotated = np.empty_like(p)
    rotated[0::2] = c * p[0::2] - s * p[1::2]
    rotated[1::2] = s * p[0::2] + c * p[1::2]
    value, _ = L.trajectory_tail_value_and_grad(logits, p, 3)
    value_rot, _ = L.trajectory_tail_value_and_grad(logits, rotated, 3)
    assert value_rot == pytest.approx(value, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_tail_value_scales_with_coordinates(seed, c):
    _, p, logits = _tail_case(seed)
    value, _ = L.trajectory_tail_value_and_grad(logits, p, 3)
    value_scaled, _ = L.trajectory_tail_value_and_grad(logits, c * p, 3)
    assert value_scaled == pytest.approx(c * value, rel=1e-9)


# reconstruction and projective losses: one batched residual kernel

_RESIDUAL_LOSSES = {
    "reconstruction": lambda logits, p: L.trajectory_reconstruction_value_and_grad(
        logits, p, 3
    ),
    "projective": L.trajectory_projective_value_and_grad,
}


class TestResidualKernelAgainstPerGroupSvd:
    """The batched residual kernel against a loop of per-group SVDs."""

    @staticmethod
    def assert_matches(logits, p, r=5):
        a = L.SoftAssignment.from_logits(logits)
        cases = {
            "reconstruction": (
                L.trajectory_reconstruction_value_and_grad(logits, p, r),
                L.trajectory_reconstruction_loss(a, p, r),
                per_group_residual_value_and_grad(logits, p, r),
            ),
            "projective": (
                L.trajectory_projective_value_and_grad(logits, p),
                L.trajectory_projective_loss(a, p),
                per_group_residual_value_and_grad(logits, p, 4, lift=True),
            ),
        }
        for kind, ((value, grad), loss, (ref_value, ref_grad)) in cases.items():
            assert loss == value, kind
            assert abs(value - ref_value) <= 1e-12 * ref_value, kind
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max(), kind

    def test_noisy_scene(self):
        p = _rigid_scene(1.0).tracks.positions
        logits = np.random.default_rng(0).standard_normal((p.shape[1], 10)) * 0.5
        self.assert_matches(logits, p)

    def test_noise_free_near_truth(self):
        sc = _rigid_scene(0.0)
        p = sc.tracks.positions
        rng = np.random.default_rng(1)
        logits = 8.0 * np.eye(10)[sc.labels] + 0.1 * rng.standard_normal((p.shape[1], 10))
        self.assert_matches(logits, p)

    def test_more_rows_than_tracks(self):
        rng = np.random.default_rng(2)
        self.assert_matches(rng.standard_normal((10, 3)), rng.standard_normal((64, 10)))

    def test_rank_capped_at_track_count(self):
        # 3 tracks: each group has 3 singular values, fewer than r and 4, so
        # it is its own best approximant and only round-off remains
        rng = np.random.default_rng(3)
        p = rng.standard_normal((8, 3))
        logits = rng.standard_normal((3, 2))
        for value, grad in (
            L.trajectory_reconstruction_value_and_grad(logits, p, 5),
            L.trajectory_projective_value_and_grad(logits, p),
        ):
            assert value < 1e-25 and np.abs(grad).max() < 1e-12

    def test_rank_below_one_is_rejected(self):
        with pytest.raises(RangeError):
            L.trajectory_reconstruction_value_and_grad(np.zeros((4, 2)), np.ones((6, 4)), 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(_RESIDUAL_LOSSES)))
def test_residual_track_permutation_permutes_gradient_rows(seed, kind):
    rng, p, logits = _tail_case(seed)
    perm = rng.permutation(p.shape[1])
    value, grad = _RESIDUAL_LOSSES[kind](logits, p)
    value_p, grad_p = _RESIDUAL_LOSSES[kind](logits[perm], p[:, perm])
    assert value_p == pytest.approx(value, rel=1e-9)
    assert np.allclose(grad_p, grad[perm], rtol=0, atol=1e-9 * np.abs(grad).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(_RESIDUAL_LOSSES)))
def test_residual_segment_permutation_permutes_gradient_columns(seed, kind):
    rng, p, logits = _tail_case(seed)
    perm = rng.permutation(logits.shape[1])
    value, grad = _RESIDUAL_LOSSES[kind](logits, p)
    value_p, grad_p = _RESIDUAL_LOSSES[kind](logits[:, perm], p)
    assert value_p == pytest.approx(value, rel=1e-9)
    assert np.allclose(grad_p, grad[:, perm], rtol=0, atol=1e-9 * np.abs(grad).max())


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(sorted(_RESIDUAL_LOSSES)),
    st.floats(0.0, 2 * np.pi),
)
def test_residual_value_invariant_under_image_rotation(seed, kind, angle):
    _, p, logits = _tail_case(seed)
    c, s = np.cos(angle), np.sin(angle)
    rotated = np.empty_like(p)
    rotated[0::2] = c * p[0::2] - s * p[1::2]
    rotated[1::2] = s * p[0::2] + c * p[1::2]
    value, _ = _RESIDUAL_LOSSES[kind](logits, p)
    value_rot, _ = _RESIDUAL_LOSSES[kind](logits, rotated)
    assert value_rot == pytest.approx(value, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_reconstruction_value_scales_with_squared_coordinates(seed, c):
    _, p, logits = _tail_case(seed)
    value, _ = _RESIDUAL_LOSSES["reconstruction"](logits, p)
    value_scaled, _ = _RESIDUAL_LOSSES["reconstruction"](logits, c * p)
    assert value_scaled == pytest.approx(c * c * value, rel=1e-9)


# hard-group scores against the soft losses at one-hot weights


class TestHardAgreesWithSoft:
    @staticmethod
    def soft_losses(labels, k, p, r):
        a = hard_assignment(labels, k)
        return {
            "tail": L.trajectory_tail_loss(a, p, r),
            "reconstruction": L.trajectory_reconstruction_loss(a, p, r),
            "projective": L.trajectory_projective_loss(a, p),
            "tracks_as_flow": L.tracks_as_flow_loss(a, p),
        }

    def assert_agree(self, labels, k, p, r=5):
        for kind, soft in self.soft_losses(labels, k, p, r).items():
            hard = hard_loss(p, labels, kind, r)
            assert hard == pytest.approx(soft, rel=1e-12), kind

    def test_noisy_scene_truth_labels(self):
        sc = _rigid_scene(1.0)
        self.assert_agree(sc.labels, 4, sc.tracks.positions)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_labels(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal((12, 40))
        # label 3 of 5 stays empty; some groups have fewer tracks than r
        labels = rng.choice([0, 1, 2, 4], size=40, p=[0.5, 0.3, 0.15, 0.05])
        self.assert_agree(labels, 5, p, r=int(rng.integers(1, 6)))

    @pytest.mark.parametrize("kind", ["tail", "reconstruction", "projective", "tracks_as_flow"])
    def test_empty_group_scores_zero(self, kind):
        assert L.hard_group_loss(np.zeros((8, 0)), kind, 3) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_tracks_as_flow_track_permutation_permutes_gradient_rows(seed):
    rng, p, logits = _tail_case(seed)
    perm = rng.permutation(p.shape[1])
    value, grad = L.tracks_as_flow_value_and_grad(logits, p)
    value_p, grad_p = L.tracks_as_flow_value_and_grad(logits[perm], p[:, perm])
    assert value_p == pytest.approx(value, rel=1e-9)
    assert np.allclose(grad_p, grad[perm], rtol=0, atol=1e-9 * np.abs(grad).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_tracks_as_flow_segment_permutation_permutes_gradient_columns(seed):
    rng, p, logits = _tail_case(seed)
    perm = rng.permutation(logits.shape[1])
    value, grad = L.tracks_as_flow_value_and_grad(logits, p)
    value_p, grad_p = L.tracks_as_flow_value_and_grad(logits[:, perm], p)
    assert value_p == pytest.approx(value, rel=1e-9)
    assert np.allclose(grad_p, grad[:, perm], rtol=0, atol=1e-9 * np.abs(grad).max())
