import numpy as np
import pytest

from trajseg.errors import InvalidInputError, RangeError
from trajseg.scene_synth import (MODES, SceneConfig, _projected_polygon, _rasterize_convex,
                                  make_scene, window)

from oracles import rasterize_convex, svd_truncate


def nearest_pixel_labels(scene, t):
    h, w = scene.config.grid
    pos = scene.tracks.frame_positions(t)
    px = np.clip(np.rint(pos[:, 0] * w).astype(int), 0, w - 1)
    py = np.clip(np.rint(pos[:, 1] * h).astype(int), 0, h - 1)
    return scene.masks[t, py, px]


@pytest.fixture(scope="module")
def affine_scene():
    return make_scene(
        SceneConfig(
            mode="rigid3d_affine", num_objects=3, frames=16, grid=(96, 96), motion_seed=11
        )
    )


class TestConfig:
    def test_bad_mode(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(mode="cartoon")

    def test_bad_frames(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(frames=1)

    def test_bad_noise(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(noise_sigma=-1.0)


class TestDeterminism:
    def test_same_seed_same_scene(self):
        cfg = SceneConfig(mode="planar2d", num_objects=2, frames=6, motion_seed=4)
        a = make_scene(cfg)
        b = make_scene(cfg)
        assert np.array_equal(a.tracks.positions, b.tracks.positions)
        assert np.array_equal(a.masks, b.masks)
        assert np.array_equal(a.flows, b.flows)

    def test_different_seed_differs(self):
        a = make_scene(SceneConfig(motion_seed=1))
        b = make_scene(SceneConfig(motion_seed=2))
        assert a.tracks.positions.shape != b.tracks.positions.shape or not np.array_equal(
            a.tracks.positions, b.tracks.positions
        )


class TestStructure:
    @pytest.mark.parametrize("mode", MODES)
    def test_shapes_and_ranges(self, mode):
        cfg = SceneConfig(mode=mode, num_objects=2, frames=7, grid=(48, 48), motion_seed=3)
        sc = make_scene(cfg)
        n = sc.tracks.n_tracks
        assert sc.tracks.positions.shape == (14, n)
        assert sc.tracks.visible.shape == (7, n)
        assert sc.masks.shape == (7, 48, 48)
        assert sc.flows.shape == (6, 48 * 48, 2)
        vis = sc.tracks.visible
        pos = sc.tracks.positions
        for t in range(7):
            x, y = pos[2 * t], pos[2 * t + 1]
            inside = (x >= 0) & (x <= (47 / 48)) & (y >= 0) & (y <= (47 / 48))
            assert np.all(inside[vis[t]])

    @pytest.mark.parametrize("mode", MODES)
    def test_labels_consistent_with_masks(self, mode):
        sc = make_scene(
            SceneConfig(mode=mode, num_objects=3, frames=8, grid=(96, 96), motion_seed=5)
        )
        for t in range(8):
            vis = sc.tracks.visible[t]
            assert np.array_equal(
                nearest_pixel_labels(sc, t)[vis], sc.labels[vis]
            )

    def test_all_components_present(self, affine_scene):
        assert set(np.unique(affine_scene.labels)) == {0, 1, 2, 3}


class TestRankStructure:
    def test_per_object_rank_deficient(self, affine_scene):
        p = affine_scene.tracks.positions
        for k in range(1, 4):
            cols = affine_scene.labels == k
            s = np.linalg.svd(p[:, cols], compute_uv=False)
            assert s[4] / s[0] < 1e-8

    def test_full_matrix_mixes_subspaces(self, affine_scene):
        s = np.linalg.svd(affine_scene.tracks.positions, compute_uv=False)
        assert s[4] / s[0] > 1e-3

    def test_mixing_raises_tail(self, affine_scene):
        p = affine_scene.tracks.positions
        a = affine_scene.labels == 1
        b = affine_scene.labels == 2
        union = np.linalg.svd(p[:, a | b], compute_uv=False)
        tail_union = union[4:].sum()
        tail_a = np.linalg.svd(p[:, a], compute_uv=False)[4:].sum()
        tail_b = np.linalg.svd(p[:, b], compute_uv=False)[4:].sum()
        assert tail_union > tail_a + tail_b + 1e-3 * union[0]

    def test_interior_point_is_affine_combination(self):
        # a point inside a planar patch stays a fixed affine combination of
        # three others, so appending it cannot raise the matrix rank
        sc = make_scene(
            SceneConfig(mode="planar2d", num_objects=1, frames=5, grid=(64, 64), motion_seed=8)
        )
        p = sc.tracks.positions
        cols = np.flatnonzero(sc.labels == 1)
        assert cols.size >= 4
        block = p[:, cols]
        rank_all = np.linalg.matrix_rank(block, tol=1e-9)
        rank_wo = np.linalg.matrix_rank(block[:, :-1], tol=1e-9)
        assert rank_all == rank_wo

    def test_rotating_triangle_rank_deficient(self):
        # triangle under rigid rotation with a non-constant rate over three
        # frames: an interior point is the same affine combination of the
        # vertices at every time, so its column is linearly dependent
        verts = np.array([[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]])
        bary = np.array([0.5, 0.3, 0.2])
        interior = bary @ verts
        angles = [0.0, 0.4, 1.1]  # rate changes between frames
        rows = []
        for theta in angles:
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            pts = np.vstack([verts, interior]) @ rot.T
            rows.append(pts[:, 0])
            rows.append(pts[:, 1])
        block = np.stack(rows)  # (2T, 4)
        assert np.linalg.matrix_rank(block, tol=1e-9) == np.linalg.matrix_rank(
            block[:, :3], tol=1e-9
        )
        sigma = np.linalg.svd(block, compute_uv=False)
        assert sigma[3] < 1e-12 * sigma[0]

    def test_perspective_constant_depth_rank4_homogeneous(self):
        sc = make_scene(
            SceneConfig(
                mode="rigid3d_perspective",
                num_objects=2,
                frames=8,
                grid=(64, 64),
                motion_seed=2,
                depth_motion=0.0,
            )
        )
        p = sc.tracks.positions
        t = sc.config.frames
        for k in (1, 2):
            cols = sc.labels == k
            n = int(cols.sum())
            homog = np.empty((3 * t, n))
            homog[0::3] = p[0::2][:, cols]
            homog[1::3] = p[1::2][:, cols]
            homog[2::3] = 1.0
            resid = np.abs(homog - svd_truncate(homog, 4)).max()
            assert resid < 1e-8 * np.linalg.norm(homog, 2)

    def test_depth_motion_breaks_rank4(self):
        base = dict(
            mode="rigid3d_perspective", num_objects=2, frames=8, grid=(64, 64), motion_seed=2
        )
        flat = make_scene(SceneConfig(**base, depth_motion=0.0))
        wavy = make_scene(SceneConfig(**base, depth_motion=2.0))

        def homr(sc):
            p = sc.tracks.positions
            t = sc.config.frames
            total = 0.0
            for k in (1, 2):
                cols = sc.labels == k
                homog = np.empty((3 * t, int(cols.sum())))
                homog[0::3] = p[0::2][:, cols]
                homog[1::3] = p[1::2][:, cols]
                homog[2::3] = 1.0
                s = np.linalg.svd(homog, compute_uv=False)
                total += float((s[4:] ** 2).sum())
            return total

        assert homr(wavy) > 10 * homr(flat)


class TestFlow:
    def test_static_scene_zero_flow(self):
        sc = make_scene(
            SceneConfig(mode="planar2d", num_objects=1, frames=4, grid=(32, 32),
                        motion_seed=3, camera_motion=0.0)
        )
        # camera off; object still moves, so only background rows are zero
        bg = (sc.masks[0].ravel() == 0)
        assert np.abs(sc.flows[0][bg]).max() < 1e-12

    def test_flow_matches_generating_transform(self):
        sc = make_scene(
            SceneConfig(mode="planar2d", num_objects=2, frames=6, grid=(48, 48), motion_seed=9)
        )
        # flow at an object pixel must equal next-frame map of its patch point
        from trajseg.scene_synth import _apply_map, _invert_map

        rng = np.random.default_rng(0)
        for t in (0, 2, 4):
            owners = sc.masks[t].ravel()
            flow = sc.flows[t]
            for comp in sc.geometry:
                sel = np.flatnonzero(owners == comp.label)
                if sel.size == 0:
                    continue
                take = rng.choice(sel, size=min(25, sel.size), replace=False)
                ys, xs = np.divmod(take, 48)
                pix = np.column_stack([xs, ys]).astype(float)
                patch = _apply_map(_invert_map(comp.maps[t]), pix)
                expect = _apply_map(comp.maps[t + 1], patch) - pix
                assert np.abs(flow[take] - expect).max() < 1e-9



class TestRasterize:
    # a pentagon of radius 6 centred where it crosses each grid edge and
    # corner of a 20 x 30 grid, lies inside it, outside it, or covers it
    @pytest.mark.parametrize("center,radius", [
        ((0.3, 10.0), 6.0), ((29.6, 10.0), 6.0), ((15.0, 0.0), 6.0), ((15.0, 19.2), 6.0),
        ((0.0, 0.0), 6.0), ((29.0, 0.5), 6.0), ((0.5, 19.0), 6.0), ((30.0, 20.0), 6.0),
        ((15.0, 10.0), 6.0), ((-7.0, 10.0), 6.0), ((15.0, 27.0), 6.0), ((15.0, 10.0), 60.0),
        ((15.0, 10.0), 0.4), ((-5.999, -5.999), 6.0),
    ])
    def test_bounding_box_matches_full_grid(self, center, radius):
        angles = np.array([0.1, 1.4, 2.6, 3.9, 5.1])
        verts = np.asarray(center) + radius * np.column_stack([np.cos(angles), np.sin(angles)])
        assert np.array_equal(_rasterize_convex(verts, 20, 30), rasterize_convex(verts, 20, 30))

    @pytest.mark.parametrize("mode", MODES)
    def test_scene_polygons_match_full_grid(self, mode):
        sc = make_scene(SceneConfig(mode=mode, num_objects=3, frames=6, grid=(48, 64),
                                    motion_seed=5))
        for t in range(sc.config.frames):
            for comp in sc.geometry:
                poly = _projected_polygon(comp, t)
                assert np.array_equal(_rasterize_convex(poly, 48, 64),
                                      rasterize_convex(poly, 48, 64))


class TestNoiseAndVisibility:
    def test_noise_perturbs_positions_only(self):
        base = dict(mode="rigid3d_affine", num_objects=2, frames=6, grid=(64, 64), motion_seed=7)
        clean = make_scene(SceneConfig(**base, noise_sigma=0.0))
        noisy = make_scene(SceneConfig(**base, noise_sigma=1.0))
        assert np.array_equal(clean.tracks.visible, noisy.tracks.visible)
        assert np.array_equal(clean.labels, noisy.labels)
        delta = (noisy.tracks.positions - clean.tracks.positions) * 64
        assert 0.5 < delta.std() < 1.5  # pixel units


class TestWindow:
    def test_reflection_at_start(self):
        sc = make_scene(SceneConfig(frames=5, motion_seed=1))
        win = window(sc.tracks, 0, 2)
        p = sc.tracks.positions
        assert np.array_equal(win.positions[0:2], p[4:6])
        assert np.array_equal(win.positions[2:4], p[2:4])
        assert np.array_equal(win.positions[4:6], p[0:2])
        assert np.array_equal(win.positions[6:8], p[2:4])
        assert np.array_equal(win.positions[8:10], p[4:6])

    def test_zero_half_width(self):
        sc = make_scene(SceneConfig(frames=5, motion_seed=1))
        win = window(sc.tracks, 3, 0)
        assert win.positions.shape[0] == 2
        assert np.array_equal(win.positions, sc.tracks.positions[6:8])

    def test_reflection_at_end(self):
        sc = make_scene(SceneConfig(frames=5, motion_seed=1))
        win = window(sc.tracks, 4, 1)
        p = sc.tracks.positions
        assert np.array_equal(win.positions[0:2], p[6:8])
        assert np.array_equal(win.positions[2:4], p[8:10])
        assert np.array_equal(win.positions[4:6], p[6:8])

    def test_center_out_of_range(self):
        sc = make_scene(SceneConfig(frames=5, motion_seed=1))
        with pytest.raises(RangeError):
            window(sc.tracks, 5, 1)
