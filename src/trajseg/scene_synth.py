"""Synthetic rigid scenes with exact trajectories, masks and flow fields.

Every scene is built from convex planar patches: a large background patch
plus one patch per moving object.  A patch carries its own per-frame map
from patch coordinates to image pixels, and everything observable is
derived from those maps, so masks, flows and trajectories agree exactly.

Three regimes are supported:

* ``planar2d`` - patches move by time-varying 2-d affine maps over a
  background with its own global affine motion; per-object flow is exactly
  affine in pixel coordinates.
* ``rigid3d_affine`` - patches are planes in 3-d undergoing rigid motion,
  viewed orthographically; each object's stacked trajectory matrix factors
  through a four-column motion matrix and is rank deficient.
* ``rigid3d_perspective`` - the same rigid planes under a pinhole camera.
  With in-plane motion only, every track keeps a constant projective
  depth; ``depth_motion`` adds out-of-plane motion that breaks it.

Trajectories are sampled on a stride grid at the first frame, propagated
by the true motion, flagged invisible when out of frame or occluded, and
stored in coordinates normalised to [0, 1] by the frame size.  Optional
Gaussian pixel noise is added before normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, RangeError

__all__ = [
    "MODES",
    "SceneConfig",
    "TrajectoryMatrix",
    "ObjectGeometry",
    "SceneTruth",
    "make_scene",
    "window",
]

MODES = ("planar2d", "rigid3d_affine", "rigid3d_perspective")

_MAX_ATTEMPTS = 8
_EDGE_MARGIN = 0.75  # px clearance for occlusion and nearest-pixel label safety (> sqrt(2)/2)


@dataclass(frozen=True)
class SceneConfig:
    """Parameters of a synthetic scene.

    ``points_per_object`` is the target trajectory count per object; the
    grid sampling stride is derived from it unless ``stride`` is given.
    Background trajectories from the same grid are deterministically
    thinned to ``bg_balance`` times the object total (None keeps all).
    ``camera_motion`` scales the global motion of the background/camera
    and ``depth_motion`` (perspective only) the out-of-plane object
    motion; both are dimensionless amplitudes with 1.0 a moderate
    default.  ``noise_sigma`` is the tracking noise standard deviation in
    pixels.
    """

    mode: str = "planar2d"
    num_objects: int = 2
    frames: int = 8
    grid: tuple = (64, 64)
    points_per_object: int = 40
    motion_seed: int = 0
    noise_sigma: float = 0.0
    camera_motion: float = 1.0
    depth_motion: float = 0.0
    stride: int | None = None
    bg_balance: float | None = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.frames < 2:
            raise InvalidInputError("need at least 2 frames")
        if self.num_objects < 1:
            raise InvalidInputError("need at least 1 object")
        h, w = self.grid
        if h < 8 or w < 8:
            raise InvalidInputError("grid must be at least 8x8")
        if self.noise_sigma < 0:
            raise InvalidInputError("noise_sigma must be nonnegative")
        if self.points_per_object < 1:
            raise InvalidInputError("points_per_object must be positive")
        if self.stride is not None and self.stride < 1:
            raise InvalidInputError("stride must be positive")
        if self.bg_balance is not None and self.bg_balance <= 0:
            raise InvalidInputError("bg_balance must be positive or None")

    def to_json(self):
        return {
            "mode": self.mode,
            "num_objects": self.num_objects,
            "frames": self.frames,
            "grid": list(self.grid),
            "points_per_object": self.points_per_object,
            "motion_seed": self.motion_seed,
            "noise_sigma": self.noise_sigma,
            "camera_motion": self.camera_motion,
            "depth_motion": self.depth_motion,
            "stride": self.stride,
            "bg_balance": self.bg_balance,
        }


@dataclass(frozen=True)
class TrajectoryMatrix:
    """Stacked (x, y) positions of N tracks over T frames.

    positions : (2T, N) with row 2t the x and row 2t+1 the y coordinate at
        frame t, normalised to [0, 1] by frame width/height.
    visible : (T, N) boolean per-frame visibility.
    labels : (N,) ground-truth component ids (0 = background) or None.
    """

    positions: np.ndarray
    visible: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.visible, dtype=bool)
        if p.ndim != 2 or p.shape[0] % 2 != 0:
            raise InvalidInputError("positions must be (2T, N)")
        if v.shape != (p.shape[0] // 2, p.shape[1]):
            raise InvalidInputError("visible must be (T, N)")
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "visible", v)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (p.shape[1],):
                raise InvalidInputError("labels must be (N,)")
            object.__setattr__(self, "labels", lab)

    @property
    def frames(self) -> int:
        return self.positions.shape[0] // 2

    @property
    def n_tracks(self) -> int:
        return self.positions.shape[1]

    def frame_positions(self, t: int) -> np.ndarray:
        """(N, 2) array of (x, y) positions at frame t."""
        return self.positions[2 * t : 2 * t + 2].T.copy()

    def visible_at(self, t: int) -> np.ndarray:
        return self.visible[t].copy()


@dataclass(frozen=True)
class ObjectGeometry:
    """Generator internals for one scene component.

    ``maps`` sends patch coordinates to image pixels per frame: (T, 2, 3)
    affine rows for the affine regimes, (T, 3, 3) homographies for the
    perspective regime.  For the 3-d regimes ``world_maps`` holds the
    (T, 3, 4) maps from homogeneous reference points to camera
    coordinates, ``plane`` the (3, 3) patch-to-world frame [u v c], and
    ``point_patch`` / ``point_depths`` the patch coordinates and initial
    projective depths of this component's sampled tracks.
    """

    label: int
    polygon: np.ndarray
    maps: np.ndarray
    plane: np.ndarray | None = None
    world_maps: np.ndarray | None = None
    point_patch: np.ndarray | None = None
    point_depths: np.ndarray | None = None


@dataclass(frozen=True)
class SceneTruth:
    """A generated scene: observables plus the generating geometry."""

    config: SceneConfig
    tracks: TrajectoryMatrix
    masks: np.ndarray  # (T, H, W) integer component labels
    flows: np.ndarray  # (T-1, H*W, 2) pixels/frame
    geometry: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def labels(self):
        return self.tracks.labels


class _RetryScene(Exception):
    """Internal: the sampled layout failed validation, try a new seed."""


# ---------------------------------------------------------------------------
# convex polygon helpers
# ---------------------------------------------------------------------------


def _convex_hull(points):
    """Monotone-chain convex hull, counter-clockwise, no duplicate ends."""
    pts = sorted(map(tuple, np.asarray(points, float)))
    if len(pts) <= 2:
        return np.asarray(pts)

    def half(seq):
        out = []
        for p in seq:
            while (
                len(out) >= 2
                and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
                <= 0
            ):
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.asarray(lower[:-1] + upper[:-1])


def _polygon_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _convex_sdf(points, verts):
    """Signed distance to a convex CCW polygon, negative inside.

    Uses the maximum of signed distances to the edge half-planes, which is
    exact inside and a lower bound outside.
    """
    points = np.atleast_2d(points)
    nxt = np.roll(verts, -1, axis=0)
    edges = nxt - verts
    lengths = np.linalg.norm(edges, axis=1)
    # outward normals for CCW orientation
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
    d = np.einsum("pev,ev->pe", points[:, None, :] - verts[None, :, :], normals)
    return d.max(axis=1)


def _random_convex_polygon(rng, radius):
    """Convex polygon around the origin with vertices near ``radius``."""
    n = int(rng.integers(5, 9))
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    radii = rng.uniform(0.75, 1.0, n) * radius
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    hull = _convex_hull(pts)
    if hull.shape[0] < 3:
        raise _RetryScene("degenerate polygon (collinear vertices)")
    return hull


def _rasterize_convex(verts, h, w):
    """Boolean mask of pixel centers inside a convex CCW polygon."""
    ys, xs = np.mgrid[0:h, 0:w]
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    return (_convex_sdf(pts, verts) <= 0.0).reshape(h, w)


# ---------------------------------------------------------------------------
# map helpers (2x3 affine or 3x3 homography, patch -> image pixels)
# ---------------------------------------------------------------------------


def _apply_map(m, pts):
    pts = np.atleast_2d(pts)
    if m.shape == (2, 3):
        return pts @ m[:, :2].T + m[:, 2]
    out = np.column_stack([pts, np.ones(len(pts))]) @ m.T
    return out[:, :2] / out[:, 2:3]


def _invert_map(m):
    if m.shape == (2, 3):
        inv = np.linalg.inv(m[:, :2])
        return np.column_stack([inv, -inv @ m[:, 2]])
    return np.linalg.inv(m)


def _compose_affine(outer, inner):
    """outer(inner(x)) for 2x3 affine maps."""
    return np.column_stack(
        [outer[:, :2] @ inner[:, :2], outer[:, :2] @ inner[:, 2] + outer[:, 2]]
    )


def _rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rot3(axis, theta):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


def _motion_profile(rng, base_rate, frames):
    """Angle-per-frame series with a deliberately non-constant rate."""
    wobble = rng.uniform(0.25, 0.6) * base_rate
    nu = rng.uniform(0.4, 1.1)
    phase = rng.uniform(0, 2 * np.pi)
    t = np.arange(frames)
    return base_rate * t + wobble * np.sin(nu * t + phase)


def _spin_rates(rng, count):
    """Per-object rotation rates, stratified so no two objects draw
    near-identical motion.  Fast, well-separated spins decorrelate the
    per-object trajectory subspaces, which keeps grouping informative even
    under tracking noise."""
    lo, hi = 0.45, 1.15
    width = (hi - lo) / max(count, 1)
    slots = rng.permutation(count)
    rates = lo + width * (slots + rng.uniform(0.15, 0.85, count))
    signs = rng.choice([-1.0, 1.0], count)
    return signs * rates


# ---------------------------------------------------------------------------
# scene assembly
# ---------------------------------------------------------------------------


def _camera_params(rng, cfg):
    """Global-motion draw shared by the builders.

    The camera rolls about the frame center at an object-comparable rate
    (so the background is a moving component in its own right, not a
    near-static one) and translates slowly.  Rolling preserves distances
    from the frame center, which keeps it border-safe by construction.
    """
    amp = cfg.camera_motion
    rate = amp * rng.choice([-1.0, 1.0]) * rng.uniform(0.08, 0.14)
    angles = _motion_profile(rng, rate, cfg.frames)
    vel = rng.uniform(-0.1, 0.1, 2) * amp
    scale_amp = amp * rng.uniform(0.0, 0.002)
    return angles, vel, scale_amp


def _camera_2d(rng, cfg):
    """Per-frame global affine maps (background motion) for planar2d."""
    h, w = cfg.grid
    angles, vel, scale_amp = _camera_params(rng, cfg)
    pivot = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    maps = np.empty((cfg.frames, 2, 3))
    for t in range(cfg.frames):
        s = 1.0 + scale_amp * np.sin(0.7 * t)
        rot = _rot2(angles[t]) * s
        offset = pivot - rot @ pivot + vel * t
        maps[t] = np.column_stack([rot, offset])
    return maps, float(np.linalg.norm(vel) * (cfg.frames - 1))


def _place_objects(rng, cfg, reach_pair, trans_border):
    """Object centers and radius on a jittered grid.

    ``reach_pair`` is the worst-case relative travel between two objects
    (their own motion; the shared camera motion cancels pairwise) and
    ``trans_border`` the translational travel toward the frame border
    (own motion plus camera translation drift; camera roll is handled by
    keeping every center inside the inscribed circle, where rotation
    cannot push it out).  The radius is scanned downward until a gx-by-gy
    cell layout separates the swept bounding circles within both the
    rectangle margins and the roll-safe circle.
    """
    h, w = cfg.grid
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    k = cfg.num_objects
    gx = int(np.ceil(np.sqrt(k)))
    gy = int(np.ceil(k / gx))
    draw = min(h, w) * rng.uniform(0.12, 0.16)
    layout = None
    for factor in (1.0, 0.9, 0.8, 0.7, 0.62, 0.55, 0.48, 0.42, 0.36, 0.3, 0.25, 0.2):
        radius = draw * factor
        if radius < 2.0:
            break
        swept = radius + reach_pair
        spacing = 2.0 * swept + 1.0
        margin = radius + trans_border + 1.0
        cell_w = ((w - 1) - 2.0 * margin) / gx
        cell_h = ((h - 1) - 2.0 * margin) / gy
        if cell_w >= spacing and cell_h >= spacing:
            layout = (radius, spacing, margin, cell_w, cell_h)
            break
    if layout is None:
        raise _RetryScene("objects do not fit in the frame")
    radius, spacing, margin, cell_w, cell_h = layout
    jit_x = (cell_w - spacing) / 2.0
    jit_y = (cell_h - spacing) / 2.0
    cells = rng.permutation(gx * gy)[:k]
    centers = np.empty((k, 2))
    for i, cell in enumerate(cells):
        col, row = cell % gx, cell // gx
        centers[i, 0] = margin + (col + 0.5) * cell_w + rng.uniform(-jit_x, jit_x)
        centers[i, 1] = margin + (row + 0.5) * cell_h + rng.uniform(-jit_y, jit_y)
    # camera roll orbits centers around the frame center, so each must sit
    # inside the circle that keeps its swept disc in frame at any angle
    cap = min(cx, cy) - radius - trans_border - 2.0
    if cap <= 0 or np.any(np.hypot(centers[:, 0] - cx, centers[:, 1] - cy) > cap):
        raise _RetryScene("object orbit leaves the frame")
    return centers, radius


def _build_planar2d(rng, cfg):
    h, w = cfg.grid
    frames = cfg.frames
    size = min(h, w)
    cam, trans_drift = _camera_2d(rng, cfg)
    obj_reach = min(1.5, 0.03 * size)
    centers, radius = _place_objects(
        rng, cfg, obj_reach + 1.0, obj_reach + trans_drift + 1.0
    )

    # background square centered on the roll pivot: rotating it about its
    # own center keeps the frame covered for any roll angle
    half = 0.5 * np.hypot(w - 1, h - 1) + trans_drift + 8.0
    pivot = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    bg_poly = pivot + np.array(
        [[-half, -half], [half, -half], [half, half], [-half, half]]
    )
    components = [ObjectGeometry(label=0, polygon=bg_poly, maps=cam.copy())]

    spin_rates = _spin_rates(rng, cfg.num_objects)
    for k in range(cfg.num_objects):
        poly = _random_convex_polygon(rng, radius)
        if _polygon_area(poly) < 1.0:
            raise _RetryScene("degenerate polygon (area < 1 px^2)")
        spin = _motion_profile(rng, spin_rates[k], frames)
        direction = rng.uniform(0, 2 * np.pi)
        speed = min(rng.uniform(0.3, 0.9), 0.85 * obj_reach / max(frames - 1, 1))
        vel = speed * np.array([np.cos(direction), np.sin(direction)])
        scale_amp = rng.uniform(0.0, 0.02)
        maps = np.empty((frames, 2, 3))
        for t in range(frames):
            s = 1.0 + scale_amp * np.sin(0.8 * t + 1.0)
            rot = _rot2(spin[t]) * s
            obj = np.column_stack([rot, centers[k] + vel * t])
            maps[t] = _compose_affine(cam[t], obj)
        components.append(ObjectGeometry(label=k + 1, polygon=poly, maps=maps))
    return components


def _build_rigid3d(rng, cfg, perspective):
    h, w = cfg.grid
    frames = cfg.frames
    size = min(h, w)
    focal = 1.2 * max(h, w)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    kmat = np.array([[focal, 0, cx], [0, focal, cy], [0, 0, 1.0]])

    cam_angles, cam_vel, _ = _camera_params(rng, cfg)
    # the roll axis passes through the frame center: the principal point
    # for the pinhole, the pixel-aligned frame center for the orthographic
    # world
    cam_pivot = np.array([0.0, 0.0, 0.0]) if perspective else np.array([cx, cy, 0.0])

    obj_reach = min(1.5, 0.03 * size)
    trans_drift = float(
        np.linalg.norm(cam_vel) * (frames - 1) * (1.0 if not perspective else 1.0 / 1.6)
    )
    centers_px, radius_px = _place_objects(
        rng, cfg, obj_reach + 1.0, obj_reach + trans_drift + 1.0
    )

    def world_to_cam(t):
        rot = _rot3([0.0, 0.0, 1.0], cam_angles[t])
        trans = cam_pivot - rot @ cam_pivot
        trans = trans + np.array([cam_vel[0] * t, cam_vel[1] * t, 0.0])
        return rot, trans

    def project_map(ct):
        """Patch->image map from patch->camera coordinates ct (3x3).

        The orthographic world is laid out in pixel units, so projection
        just drops the depth row; the pinhole applies the intrinsics.
        """
        if perspective:
            return kmat @ ct
        return ct[:2, :].copy()

    components = []

    # background: fronto-parallel wall behind the objects, centered on the
    # roll axis so any roll angle keeps the frame covered.  Patch units
    # are pixel-equivalent (the plane basis absorbs the depth scaling).
    z_bg = 4.0 * focal if perspective else 400.0
    if perspective:
        bg_u = np.array([1.0, 0.0, 0.0]) * z_bg / focal
        bg_v = np.array([0.0, 1.0, 0.0]) * z_bg / focal
        bg_c = np.array([0.0, 0.0, z_bg])
    else:
        bg_u = np.array([1.0, 0.0, 0.0])
        bg_v = np.array([0.0, 1.0, 0.0])
        bg_c = np.array([cx, cy, z_bg])
    bg_half = 0.5 * np.hypot(w - 1, h - 1) + trans_drift + 8.0
    bg_poly = np.array(
        [
            [-bg_half, -bg_half],
            [bg_half, -bg_half],
            [bg_half, bg_half],
            [-bg_half, bg_half],
        ]
    )

    def patch_chain(plane, rot_series, disp_series):
        """Per-frame patch->camera (3x3) and homogeneous world maps (3x4)."""
        u, v, c = plane[:, 0], plane[:, 1], plane[:, 2]
        cams = np.empty((frames, 3, 3))
        worlds = np.empty((frames, 3, 4))
        for t in range(frames):
            rob = rot_series[t]
            gt = np.column_stack([rob @ u, rob @ v, c + disp_series[t]])
            rc, tc = world_to_cam(t)
            ct = rc @ gt
            ct[:, 2] += tc
            cams[t] = ct
            m3 = rc @ rob
            m_off = rc @ (c + disp_series[t] - rob @ c) + tc
            worlds[t] = np.column_stack([m3, m_off])
        return cams, worlds

    identity_rots = [np.eye(3)] * frames
    zero_disp = np.zeros((frames, 3))
    bg_plane = np.column_stack([bg_u, bg_v, bg_c])
    bg_cams, bg_worlds = patch_chain(bg_plane, identity_rots, zero_disp)
    components.append(
        ObjectGeometry(
            label=0,
            polygon=bg_poly,
            maps=np.stack([project_map(c) for c in bg_cams]),
            plane=bg_plane,
            world_maps=bg_worlds,
        )
    )

    spin_rates = _spin_rates(rng, cfg.num_objects)
    for k in range(cfg.num_objects):
        z = rng.uniform(1.6, 2.4) * focal if perspective else rng.uniform(120.0, 240.0)
        world_per_px = z / focal if perspective else 1.0
        if perspective:
            c3 = np.array(
                [
                    (centers_px[k, 0] - cx) * world_per_px,
                    (centers_px[k, 1] - cy) * world_per_px,
                    z,
                ]
            )
        else:
            c3 = np.array([centers_px[k, 0], centers_px[k, 1], z])
        tilt_dir = rng.uniform(0, 2 * np.pi)
        tilt_axis = np.array([np.cos(tilt_dir), np.sin(tilt_dir), 0.0])
        tilt = _rot3(tilt_axis, rng.uniform(0.15, 0.4))
        u = tilt @ np.array([1.0, 0.0, 0.0]) * world_per_px
        v = tilt @ np.array([0.0, 1.0, 0.0]) * world_per_px
        poly = _random_convex_polygon(rng, radius_px)
        if _polygon_area(poly) < 1.0:
            raise _RetryScene("degenerate polygon (area < 1 px^2)")

        spin = _motion_profile(rng, spin_rates[k], frames)
        axis = np.array([0.0, 0.0, 1.0])
        rots = []
        for t in range(frames):
            rot = _rot3(axis, spin[t])
            if cfg.depth_motion > 0:
                tilt_angle = cfg.depth_motion * 0.03 * np.sin(0.9 * t + k)
                rot = _rot3(tilt_axis, tilt_angle) @ rot
            rots.append(rot)
        direction = rng.uniform(0, 2 * np.pi)
        speed = min(rng.uniform(0.3, 0.9), 0.85 * obj_reach / max(frames - 1, 1))
        vel_px = speed * np.array([np.cos(direction), np.sin(direction)])
        disp = np.zeros((frames, 3))
        disp[:, 0] = vel_px[0] * np.arange(frames) * world_per_px
        disp[:, 1] = vel_px[1] * np.arange(frames) * world_per_px
        if cfg.depth_motion > 0 and perspective:
            disp[:, 2] = (
                cfg.depth_motion
                * 0.01
                * z
                * np.sin(0.6 * np.arange(frames) + rng.uniform(0, 2 * np.pi))
            )
        plane = np.column_stack([u, v, c3])
        cams, worlds = patch_chain(plane, rots, disp)
        if perspective:
            poly_h = np.column_stack([poly, np.ones(len(poly))])
            depths = np.einsum("vj,tj->tv", poly_h, cams[:, 2, :])
            if depths.min() <= 1.0:
                raise _RetryScene("object too close to the camera plane")
        components.append(
            ObjectGeometry(
                label=k + 1,
                polygon=poly,
                maps=np.stack([project_map(c) for c in cams]),
                plane=plane,
                world_maps=worlds,
            )
        )
    return components


def _projected_polygon(comp, t):
    verts = _apply_map(comp.maps[t], comp.polygon)
    return _convex_hull(verts)


def _validate_layout(components, cfg):
    h, w = cfg.grid
    frames = cfg.frames
    corners = np.array(
        [[0.0, 0.0], [w - 1.0, 0.0], [w - 1.0, h - 1.0], [0.0, h - 1.0]]
    )
    origin = np.zeros((1, 2))
    for t in range(frames):
        polys = [_projected_polygon(c, t) for c in components]
        # background must cover the frame everywhere
        if _convex_sdf(corners, polys[0]).max() > -2.0:
            raise _RetryScene("background does not cover the frame")
        info = []
        for comp, poly in zip(components[1:], polys[1:]):
            if _polygon_area(poly) < 1.0:
                raise _RetryScene("projected polygon degenerate")
            center = _apply_map(comp.maps[t], origin)[0]
            rad = np.linalg.norm(poly - center, axis=1).max()
            info.append((center, rad))
        for i in range(len(info)):
            ci, ri = info[i]
            if (
                ci[0] - ri < 1.0
                or ci[1] - ri < 1.0
                or ci[0] + ri > w - 2.0
                or ci[1] + ri > h - 2.0
            ):
                raise _RetryScene("object left the frame")
            for j in range(i + 1, len(info)):
                cj, rj = info[j]
                if np.linalg.norm(ci - cj) <= ri + rj + 1.0:
                    raise _RetryScene("objects overlap")


def _rasterize_masks(components, cfg):
    h, w = cfg.grid
    masks = np.zeros((cfg.frames, h, w), dtype=np.int16)
    for t in range(cfg.frames):
        for comp in components[1:]:
            poly = _projected_polygon(comp, t)
            masks[t][_rasterize_convex(poly, h, w)] = comp.label
    return masks


def _compute_flows(components, masks, cfg):
    h, w = cfg.grid
    ys, xs = np.mgrid[0:h, 0:w]
    pixels = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    flows = np.zeros((cfg.frames - 1, h * w, 2))
    flat = masks.reshape(cfg.frames, -1)
    for t in range(cfg.frames - 1):
        for comp in components:
            sel = flat[t] == comp.label
            if not np.any(sel):
                continue
            patch = _apply_map(_invert_map(comp.maps[t]), pixels[sel])
            flows[t, sel] = _apply_map(comp.maps[t + 1], patch) - pixels[sel]
    return flows


def _sample_tracks(components, masks, cfg, rng, allow_empty=False):
    h, w = cfg.grid
    frames = cfg.frames
    if cfg.stride is not None:
        stride = cfg.stride
    else:
        areas = [int((masks[0] == c.label).sum()) for c in components[1:]]
        stride = max(1, int(round(np.sqrt(np.median(areas) / cfg.points_per_object))))
    off = stride // 2
    ys, xs = np.mgrid[off:h:stride, off:w:stride]
    seeds = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    owner = masks[0][ys.ravel(), xs.ravel()]

    arrays = {"pos": [], "vis": [], "lab": [], "patch": {}, "depth": {}}
    object_polys = {
        comp.label: [_projected_polygon(comp, t) for t in range(frames)]
        for comp in components[1:]
    }

    for comp in components:
        sel = owner == comp.label
        if not np.any(sel):
            arrays["patch"][comp.label] = np.zeros((0, 2))
            continue
        pts0 = seeds[sel]
        patch = _apply_map(_invert_map(comp.maps[0]), pts0)
        traj = np.stack(
            [_apply_map(comp.maps[t], patch) for t in range(frames)]
        )  # (T, n, 2)
        if comp.label != 0:
            # keep only points that stay clear of their polygon's border so
            # nearest-pixel lookups always land on the object's own mask
            sdf = np.stack(
                [_convex_sdf(traj[t], object_polys[comp.label][t]) for t in range(frames)]
            )
            keep = (sdf <= -_EDGE_MARGIN).all(axis=0)
            pts0, patch, traj = pts0[keep], patch[keep], traj[:, keep]
            if patch.shape[0] == 0:
                arrays["patch"][comp.label] = patch
                continue
            visible = (
                (traj[:, :, 0] >= 0)
                & (traj[:, :, 0] <= w - 1)
                & (traj[:, :, 1] >= 0)
                & (traj[:, :, 1] <= h - 1)
            )
        else:
            in_frame = (
                (traj[:, :, 0] >= 0)
                & (traj[:, :, 0] <= w - 1)
                & (traj[:, :, 1] >= 0)
                & (traj[:, :, 1] <= h - 1)
            )
            clear = np.ones(in_frame.shape, dtype=bool)
            for polys in object_polys.values():
                for t in range(frames):
                    clear[t] &= _convex_sdf(traj[t], polys[t]) > _EDGE_MARGIN
            visible = in_frame & clear
        arrays["pos"].append(traj)
        arrays["vis"].append(visible)
        arrays["lab"].append(np.full(patch.shape[0], comp.label))
        arrays["patch"][comp.label] = patch
        if comp.world_maps is not None:
            world0 = comp.world_maps[0]
            plane = comp.plane
            ref = (plane @ np.column_stack([patch, np.ones(len(patch))]).T).T
            cam0 = ref @ world0[:, :3].T + world0[:, 3]
            arrays["depth"][comp.label] = cam0[:, 2].copy()

    if not arrays["pos"]:
        raise _RetryScene("no trajectories sampled")
    traj = np.concatenate(arrays["pos"], axis=1)  # (T, N, 2)
    visible = np.concatenate(arrays["vis"], axis=1)
    labels = np.concatenate(arrays["lab"])

    if not allow_empty:
        for comp in components:
            if int((labels == comp.label).sum()) < 1:
                raise _RetryScene(f"component {comp.label} received no trajectories")

    if cfg.bg_balance is not None:
        n_obj = int((labels != 0).sum())
        bg_idx = np.flatnonzero(labels == 0)
        target = max(int(round(cfg.bg_balance * n_obj)), 1)
        if n_obj > 0 and bg_idx.size > target:
            # evenly spaced thinning keeps spatial coverage and determinism
            keep_bg = bg_idx[np.linspace(0, bg_idx.size - 1, target).round().astype(int)]
            keep = np.zeros(labels.size, dtype=bool)
            keep[labels != 0] = True
            keep[keep_bg] = True
            traj = traj[:, keep]
            visible = visible[:, keep]
            labels = labels[keep]
            bg_patch = arrays["patch"].get(0)
            if bg_patch is not None and bg_patch.shape[0] == bg_idx.size:
                sel = np.isin(bg_idx, keep_bg)
                arrays["patch"][0] = bg_patch[sel]
                if 0 in arrays["depth"]:
                    arrays["depth"][0] = arrays["depth"][0][sel]

    if cfg.noise_sigma > 0:
        traj = traj + rng.normal(0.0, cfg.noise_sigma, traj.shape)

    positions = np.empty((2 * frames, traj.shape[1]))
    positions[0::2] = traj[:, :, 0] / w
    positions[1::2] = traj[:, :, 1] / h
    tracks = TrajectoryMatrix(positions=positions, visible=visible, labels=labels)
    return tracks, stride, arrays["patch"], arrays["depth"]


def make_scene(cfg: SceneConfig) -> SceneTruth:
    """Generate a scene; deterministic for a fixed config.

    Layouts that fail validation (overlapping or escaping objects,
    degenerate polygons, uncovered background) are regenerated with a
    perturbed seed up to 8 times; the retry count is reported in
    ``metadata['regenerated']``.
    """
    last = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([cfg.motion_seed, attempt])
        try:
            if cfg.mode == "planar2d":
                components = _build_planar2d(rng, cfg)
            else:
                components = _build_rigid3d(
                    rng, cfg, perspective=cfg.mode == "rigid3d_perspective"
                )
            _validate_layout(components, cfg)
            masks = _rasterize_masks(components, cfg)
            flows = _compute_flows(components, masks, cfg)
            # the last attempts tolerate starved components so that very
            # small frames still produce a usable scene
            tracks, stride, patches, depths = _sample_tracks(
                components, masks, cfg, rng, allow_empty=attempt >= _MAX_ATTEMPTS - 2
            )
            geometry = tuple(
                ObjectGeometry(
                    label=c.label,
                    polygon=c.polygon,
                    maps=c.maps,
                    plane=c.plane,
                    world_maps=c.world_maps,
                    point_patch=patches.get(c.label),
                    point_depths=depths.get(c.label),
                )
                for c in components
            )
            metadata = {
                "regenerated": attempt,
                "stride": stride,
                "n_tracks": tracks.n_tracks,
            }
            return SceneTruth(
                config=cfg,
                tracks=tracks,
                masks=masks,
                flows=flows,
                geometry=geometry,
                metadata=metadata,
            )
        except _RetryScene as exc:  # perturb the seed and try again
            last = exc
    raise DegenerateInputError(
        f"could not generate a valid scene after {_MAX_ATTEMPTS} attempts: {last}"
    )


def _reflect_index(i, frames):
    period = 2 * (frames - 1)
    if period == 0:
        return 0
    m = i % period
    return m if m < frames else period - m


def window(scene: SceneTruth, center: int, half_width: int) -> TrajectoryMatrix:
    """Track window of frames center-f ... center+f with reflection padding.

    Frame indices falling outside the video reflect around the boundaries
    (no repeated edge frame), so a window at center 0 with f=2 covers
    frames [2, 1, 0, 1, 2].
    """
    frames = scene.config.frames
    if not 0 <= center < frames:
        raise RangeError(f"center {center} outside [0, {frames - 1}]")
    if half_width < 0:
        raise RangeError("half width must be nonnegative")
    order = [
        _reflect_index(i, frames)
        for i in range(center - half_width, center + half_width + 1)
    ]
    tracks = scene.tracks
    rows = []
    for t in order:
        rows.append(tracks.positions[2 * t])
        rows.append(tracks.positions[2 * t + 1])
    return TrajectoryMatrix(
        positions=np.stack(rows),
        visible=tracks.visible[order],
        labels=tracks.labels,
    )
