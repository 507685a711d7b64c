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

from dataclasses import asdict, dataclass, field

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
        return dict(asdict(self), grid=list(self.grid))


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

    ``polygon`` is the component's outline in patch coordinates, and
    ``maps`` sends patch coordinates to image pixels per frame: (T, 2, 3)
    affine rows for the affine regimes, (T, 3, 3) homographies for the
    perspective regime.  Masks, flows and tracks are all drawn through
    these maps.
    """

    label: int
    polygon: np.ndarray
    maps: np.ndarray


@dataclass(frozen=True)
class SceneTruth:
    """A generated scene: observables plus the generating geometry."""

    config: SceneConfig
    tracks: TrajectoryMatrix
    masks: np.ndarray  # (T, H, W) integer component labels
    flows: np.ndarray | None  # (T-1, H*W, 2) pixels/frame; None once loaded
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
    """Convex polygon around the origin with vertices near ``radius`` and
    an area of at least 1 px^2."""
    n = int(rng.integers(5, 9))
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    radii = rng.uniform(0.75, 1.0, n) * radius
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    hull = _convex_hull(pts)
    if hull.shape[0] < 3:
        raise _RetryScene("degenerate polygon (collinear vertices)")
    if _polygon_area(hull) < 1.0:
        raise _RetryScene("degenerate polygon (area < 1 px^2)")
    return hull


def _rasterize_convex(verts, h, w):
    """Boolean mask of pixel centers inside a convex CCW polygon.

    Only the pixels of the polygon's integer bounding box, clipped to the
    grid, are tested; every pixel outside it is outside the polygon.
    """
    x0, y0 = np.maximum(np.floor(verts.min(axis=0)).astype(int), 0)
    x1, y1 = np.minimum(np.ceil(verts.max(axis=0)).astype(int), (w - 1, h - 1))
    inside = np.zeros((h, w), dtype=bool)
    if x0 > x1 or y0 > y1:
        return inside
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    inside[y0 : y1 + 1, x0 : x1 + 1] = (_convex_sdf(pts, verts) <= 0.0).reshape(xs.shape)
    return inside


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
    Returns the roll angles, the per-frame translation, the scale
    amplitude and the translation's drift over the sequence in pixels.
    """
    amp = cfg.camera_motion
    rate = amp * rng.choice([-1.0, 1.0]) * rng.uniform(0.08, 0.14)
    angles = _motion_profile(rng, rate, cfg.frames)
    vel = rng.uniform(-0.1, 0.1, 2) * amp
    scale_amp = amp * rng.uniform(0.0, 0.002)
    return angles, vel, scale_amp, float(np.linalg.norm(vel) * (cfg.frames - 1))


def _background_square(cfg, trans_drift):
    """Background outline centered on the origin: rotating it about its
    own center keeps the frame covered for any roll angle."""
    h, w = cfg.grid
    half = 0.5 * np.hypot(w - 1, h - 1) + trans_drift + 8.0
    return np.array([[-half, -half], [half, -half], [half, half], [-half, half]])


def _drift(rng, reach, frames):
    """An object's own per-frame translation: a random direction at a
    speed capped so that it travels at most 0.85 ``reach``."""
    direction = rng.uniform(0, 2 * np.pi)
    speed = min(rng.uniform(0.3, 0.9), 0.85 * reach / max(frames - 1, 1))
    return speed * np.array([np.cos(direction), np.sin(direction)])


def _place_objects(rng, cfg, trans_drift):
    """Object centers, radius and own-motion reach, on a jittered grid.

    Each object's own motion travels at most ``reach`` = min(1.5, 0.03 *
    size) pixels.  Two objects' relative travel is bounded by reach + 1
    (the shared camera motion cancels pairwise), and travel toward the
    frame border by reach + ``trans_drift`` + 1, the camera's translation
    drift included (camera roll is handled by keeping every center inside
    the inscribed circle, where rotation cannot push it out).  The radius
    is scanned downward until a gx-by-gy cell layout separates the swept
    bounding circles within both the rectangle margins and the roll-safe
    circle.
    """
    h, w = cfg.grid
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    reach = min(1.5, 0.03 * min(h, w))
    reach_pair = reach + 1.0
    trans_border = reach + trans_drift + 1.0
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
    return centers, radius, reach


def _build_planar2d(rng, cfg):
    """Objects under their own 2-d affine motion, composed with a global
    affine camera that rolls about the frame center (the background's
    maps)."""
    h, w = cfg.grid
    frames = cfg.frames
    angles, cam_vel, cam_scale, trans_drift = _camera_params(rng, cfg)
    pivot = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    cam = np.empty((frames, 2, 3))
    for t in range(frames):
        rot = _rot2(angles[t]) * (1.0 + cam_scale * np.sin(0.7 * t))
        cam[t] = np.column_stack([rot, pivot - rot @ pivot + cam_vel * t])
    centers, radius, reach = _place_objects(rng, cfg, trans_drift)
    bg_poly = pivot + _background_square(cfg, trans_drift)
    components = [ObjectGeometry(label=0, polygon=bg_poly, maps=cam)]

    spin_rates = _spin_rates(rng, cfg.num_objects)
    for k in range(cfg.num_objects):
        poly = _random_convex_polygon(rng, radius)
        spin = _motion_profile(rng, spin_rates[k], frames)
        vel = _drift(rng, reach, frames)
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
    """Rigid planes in 3-d under a camera that rolls about the frame center
    and drifts, viewed orthographically or through a pinhole.

    The camera model is decided once, in one block of per-camera constants:
    the roll pivot, the drift scale, the background's depth, the offset
    that object centers are measured from, and the pinhole matrix.  The
    orthographic world is laid out in pixel units, so it has no pinhole
    matrix and its projection drops the depth row.  Every component's
    per-frame maps come from one builder: a plane (u, v, centre) moved by
    the component's rotations and displacements, then by the camera roll
    and translation, then projected.  The background is a fronto-parallel
    wall behind the objects, centered on the roll axis so any roll angle
    keeps the frame covered: the same call with identity rotations and
    zero displacement.  Patch units are pixel-equivalent (a plane's basis
    absorbs its depth scaling).
    """
    h, w = cfg.grid
    frames = cfg.frames
    focal = 1.2 * max(h, w)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    cam_angles, cam_vel, _, trans_drift = _camera_params(rng, cfg)
    # the roll axis passes through the frame center: the principal point for
    # the pinhole, the pixel-aligned frame center for the orthographic world
    if perspective:
        pivot, offset = np.zeros(3), np.array([cx, cy])
        trans_drift *= 1.0 / 1.6
        z_bg, z_range, z_unit, z_motion = 4.0 * focal, (1.6, 2.4), focal, cfg.depth_motion
        kmat = np.array([[focal, 0, cx], [0, focal, cy], [0, 0, 1.0]])
    else:
        pivot, offset = np.array([cx, cy, 0.0]), np.zeros(2)
        z_bg, z_range, z_unit, z_motion = 400.0, (120.0, 240.0), 1.0, 0.0
        kmat = None
    centers_px, radius_px, reach = _place_objects(rng, cfg, trans_drift)
    cam = []
    for t in range(frames):
        rot = _rot3([0.0, 0.0, 1.0], cam_angles[t])
        cam.append((rot, pivot - rot @ pivot + np.array([cam_vel[0] * t, cam_vel[1] * t, 0.0])))

    def plane_at(center_px, z, tilt):
        """The plane (u, v, centre) seen at pixel ``center_px`` at depth
        ``z``, spanned by the first two axes of ``tilt``, and the world size
        of one pixel there."""
        world_per_px = z / focal if perspective else 1.0
        u, v = (tilt @ axis * world_per_px for axis in np.eye(3)[:2])
        c = np.array([*(center_px - offset) * world_per_px, z])
        return np.column_stack([u, v, c]), world_per_px

    def component(label, poly, plane, rots, disp):
        """The component whose patch ``poly`` lies on ``plane``, moved per
        frame by ``rots`` and ``disp``; the pinhole rejects it if a vertex
        comes within one unit of the camera plane."""
        maps = []
        for t, (rc, tc) in enumerate(cam):
            ct = rc @ np.column_stack([rots[t] @ plane[:, 0], rots[t] @ plane[:, 1],
                                       plane[:, 2] + disp[t]])
            ct[:, 2] += tc
            maps.append(ct[:2] if kmat is None else kmat @ ct)
        maps = np.stack(maps)
        if kmat is not None:
            poly_h = np.column_stack([poly, np.ones(len(poly))])
            if np.einsum("vj,tj->tv", poly_h, maps[:, 2, :]).min() <= 1.0:
                raise _RetryScene("object too close to the camera plane")
        return ObjectGeometry(label=label, polygon=poly, maps=maps)

    components = [
        component(0, _background_square(cfg, trans_drift),
                  plane_at(np.array([cx, cy]), z_bg, np.eye(3))[0],
                  [np.eye(3)] * frames, np.zeros((frames, 3)))
    ]
    spin_rates = _spin_rates(rng, cfg.num_objects)
    for k in range(cfg.num_objects):
        z = rng.uniform(*z_range) * z_unit
        tilt_dir = rng.uniform(0, 2 * np.pi)
        tilt_axis = np.array([np.cos(tilt_dir), np.sin(tilt_dir), 0.0])
        tilt = _rot3(tilt_axis, rng.uniform(0.15, 0.4))
        obj_plane, world_per_px = plane_at(centers_px[k], z, tilt)
        poly = _random_convex_polygon(rng, radius_px)
        spin = _motion_profile(rng, spin_rates[k], frames)
        rots = []
        for t in range(frames):
            rot = _rot3([0.0, 0.0, 1.0], spin[t])
            if cfg.depth_motion > 0:
                rot = _rot3(tilt_axis, cfg.depth_motion * 0.03 * np.sin(0.9 * t + k)) @ rot
            rots.append(rot)
        disp = np.zeros((frames, 3))
        disp[:, :2] = np.outer(np.arange(frames), _drift(rng, reach, frames)) * world_per_px
        if z_motion > 0:
            phase = rng.uniform(0, 2 * np.pi)
            disp[:, 2] = z_motion * 0.01 * z * np.sin(0.6 * np.arange(frames) + phase)
        components.append(component(k + 1, poly, obj_plane, rots, disp))
    return components


def _projected_polygon(comp, t):
    verts = _apply_map(comp.maps[t], comp.polygon)
    return _convex_hull(verts)


def _validate_layout(components, outlines, cfg):
    h, w = cfg.grid
    corners = np.array(
        [[0.0, 0.0], [w - 1.0, 0.0], [w - 1.0, h - 1.0], [0.0, h - 1.0]]
    )
    origin = np.zeros((1, 2))
    for t in range(cfg.frames):
        polys = [outline[t] for outline in outlines]
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


def _rasterize_masks(components, outlines, cfg):
    h, w = cfg.grid
    masks = np.zeros((cfg.frames, h, w), dtype=np.int16)
    for t in range(cfg.frames):
        for comp, outline in zip(components[1:], outlines[1:]):
            masks[t][_rasterize_convex(outline[t], h, w)] = comp.label
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


def _sample_tracks(components, outlines, masks, cfg, rng, allow_empty=False):
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

    arrays = {"pos": [], "vis": [], "lab": []}
    for comp, outline in zip(components, outlines):
        sel = owner == comp.label
        if not np.any(sel):
            continue
        patch = _apply_map(_invert_map(comp.maps[0]), seeds[sel])
        traj = np.stack(
            [_apply_map(comp.maps[t], patch) for t in range(frames)]
        )  # (T, n, 2)
        visible = (
            (traj[:, :, 0] >= 0)
            & (traj[:, :, 0] <= w - 1)
            & (traj[:, :, 1] >= 0)
            & (traj[:, :, 1] <= h - 1)
        )
        if comp.label != 0:
            # keep only points that stay clear of their polygon's border so
            # nearest-pixel lookups always land on the object's own mask
            sdf = np.stack([_convex_sdf(traj[t], outline[t]) for t in range(frames)])
            keep = (sdf <= -_EDGE_MARGIN).all(axis=0)
            traj, visible = traj[:, keep], visible[:, keep]
            if not keep.any():
                continue
        else:
            # a background point is hidden while it is near any object
            for other in outlines[1:]:
                for t in range(frames):
                    visible[t] &= _convex_sdf(traj[t], other[t]) > _EDGE_MARGIN
        arrays["pos"].append(traj)
        arrays["vis"].append(visible)
        arrays["lab"].append(np.full(traj.shape[1], comp.label))

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

    if cfg.noise_sigma > 0:
        traj = traj + rng.normal(0.0, cfg.noise_sigma, traj.shape)

    positions = np.empty((2 * frames, traj.shape[1]))
    positions[0::2] = traj[:, :, 0] / w
    positions[1::2] = traj[:, :, 1] / h
    tracks = TrajectoryMatrix(positions=positions, visible=visible, labels=labels)
    return tracks, stride


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
            # every component's image outline, per frame
            outlines = [
                [_projected_polygon(comp, t) for t in range(cfg.frames)] for comp in components
            ]
            _validate_layout(components, outlines, cfg)
            masks = _rasterize_masks(components, outlines, cfg)
            flows = _compute_flows(components, masks, cfg)
            # the last attempts tolerate starved components so that very
            # small frames still produce a usable scene
            tracks, stride = _sample_tracks(
                components, outlines, masks, cfg, rng,
                allow_empty=attempt >= _MAX_ATTEMPTS - 2,
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
                geometry=tuple(components),
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


def window(tracks: TrajectoryMatrix, center: int, half_width: int) -> TrajectoryMatrix:
    """Track window of frames center-f ... center+f with reflection padding.

    Frame indices falling outside the video reflect around the boundaries
    (no repeated edge frame), so a window at center 0 with f=2 covers
    frames [2, 1, 0, 1, 2].
    """
    frames = tracks.frames
    if not 0 <= center < frames:
        raise RangeError(f"center {center} outside [0, {frames - 1}]")
    if half_width < 0:
        raise RangeError("half width must be nonnegative")
    order = [
        _reflect_index(i, frames)
        for i in range(center - half_width, center + half_width + 1)
    ]
    rows = []
    for t in order:
        rows.append(tracks.positions[2 * t])
        rows.append(tracks.positions[2 * t + 1])
    return TrajectoryMatrix(
        positions=np.stack(rows),
        visible=tracks.visible[order],
        labels=tracks.labels,
    )
