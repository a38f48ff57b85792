"""Synthetic sequences with exactly known geometry.

The generator builds scenes whose rendered products are self-consistent to
float precision: every anchor pixel owns one content point lying exactly on
its camera-0 ray, reconstruction maps sample content exactly on each
frame's camera rays (so pose recovery is exact), depth maps and 2D tracks
come from ``geometry.project_points``, the kernel the losses and the camera
solver project with, and a set of beacon points is steered to land exactly
on pixel centers of every frame so the cross-branch alignment term has
exact pairs mid-sequence.

Corruption (noise and drift) is applied separately so the clean sequence
stays available as ground truth.
"""

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyRaster, UnknownPreset
from .geometry import (
    DEPTH_EPS,
    Intrinsics,
    PixelGrid,
    Pointmap,
    PoseSE3,
    TrackSet,
    _pixels,
    backproject,
    so3_exp,
)
from .losses import DepthSupervision, TrackSupervision

PRESETS = (
    "orbit-dynamic",
    "static-camera",
    "dynamic-camera-static-scene",
    "degenerate-planar",
)

STATIC_ID = -1
CLAIM_TOL = 1e-9
BEACON_CLEARANCE = 0.1
BEACON_DEPTH_RANGE = (0.55, 0.75)


@dataclass(frozen=True)
class SceneSpec:
    preset: str
    width: int = 64
    height: int = 48
    num_frames: int = 24
    focal: float = 80.0
    seed: int = 0
    num_beacons: int = 10

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise UnknownPreset(f"{self.preset!r}; choose from {PRESETS}")
        if self.width < 8 or self.height < 8:
            raise ValueError("grid must be at least 8x8")
        if self.num_frames < 1:
            raise ValueError("need at least one frame")
        if self.focal <= 0:
            raise ValueError("focal length must be positive")
        if self.num_beacons < 0:
            raise ValueError("beacon count must be non-negative")


@dataclass
class RigidBody:
    """Candidate points at t=0 plus the rigid motion carrying them to each frame."""

    points: np.ndarray
    motions: list


@dataclass
class Scene:
    spec: SceneSpec
    intrinsics: Intrinsics
    cameras: list
    backdrop_depth: np.ndarray
    bodies: list
    static_scatter: np.ndarray
    beacon_tracks: np.ndarray  # (num_beacons, T, 3) prescribed world positions


@dataclass
class RenderedSequence:
    spec: SceneSpec
    intrinsics: Intrinsics
    cameras: list
    tracking_pointmaps: list
    recon_pointmaps: list
    depth: np.ndarray
    tracks2d: TrackSet
    tracks3d: TrackSet
    dynamic_mask: np.ndarray
    meta: dict

    @property
    def num_frames(self) -> int:
        return len(self.cameras)


def _preset_rng(spec: SceneSpec) -> np.random.Generator:
    # crc32 keeps preset-dependent seeding stable across processes
    return np.random.default_rng(
        np.random.SeedSequence([spec.seed, zlib.crc32(spec.preset.encode())])
    )


def _camera_path(spec: SceneSpec, rot_scale: float, trans_scale: np.ndarray):
    """Smooth world-to-camera trajectory with an exact identity at frame 0."""
    T = spec.num_frames
    cams = []
    denom = max(T - 1, 1)
    omega_max = rot_scale * np.array([0.35, 1.0, 0.35])
    for j in range(T):
        u = j / denom
        omega = u * omega_max
        t = u * trans_scale + 0.03 * np.sin(2 * np.pi * u) * np.array([0.0, 1.0, 0.0])
        cams.append(PoseSE3(so3_exp(omega), t) if j else PoseSE3.identity())
    return cams


def _wavy_depth(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    H, W = spec.height, spec.width
    rr, cc = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    field = np.full((H, W), 2.4)
    for _ in range(3):
        fr, fc = rng.uniform(0.5, 2.0, 2)
        pr, pc = rng.uniform(0, 2 * np.pi, 2)
        amp = rng.uniform(0.1, 0.3)
        field = field + amp * np.sin(2 * np.pi * fr * rr / H + pr) * np.cos(
            2 * np.pi * fc * cc / W + pc
        )
    field = field + rng.uniform(-0.05, 0.05, (H, W))
    return np.clip(field, 1.6, 4.5)


def _planar_depth(spec: SceneSpec, grid: PixelGrid) -> np.ndarray:
    """Depths putting every backdrop pixel on one tilted 3D plane."""
    f = spec.focal
    n = np.array([0.25, -0.15, 1.0])
    n = n / np.linalg.norm(n)
    u = (grid.coords[..., 0] - spec.width / 2.0) / f
    v = (grid.coords[..., 1] - spec.height / 2.0) / f
    denom = n[0] * u + n[1] * v + n[2]
    d = 2.5 * n[2]  # depth 2.5 at the optical axis
    return d / denom


def _make_body(rng, K, spec, depth_range=(1.8, 2.6), num_points=None):
    H, W = spec.height, spec.width
    if num_points is None:
        num_points = max(24, (H * W) // 30)
    cx = rng.uniform(0.25 * W, 0.75 * W)
    cy = rng.uniform(0.25 * H, 0.75 * H)
    depth = rng.uniform(*depth_range)
    center = backproject(K, np.array([cx, cy]), np.array(depth))
    pts = center + rng.normal(0.0, 0.08, (num_points, 3))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rate = rng.uniform(0.01, 0.03)
    # total drift over the clip is bounded so bodies never dive into the
    # depth band reserved for beacons
    vel = rng.normal(size=3)
    vel[2] *= 0.3
    vel *= 0.12 / (np.linalg.norm(vel) * max(spec.num_frames - 1, 1))
    motions = []
    for j in range(spec.num_frames):
        if j == 0:
            motions.append(PoseSE3.identity())
            continue
        R = so3_exp(j * rate * axis)
        t = center - R @ center + j * vel
        motions.append(PoseSE3(R, t))
    return RigidBody(pts, motions)


def _make_beacons(rng, K, spec, cameras) -> np.ndarray:
    """Single-point movers landing exactly on one pixel center per frame.

    Beacons walk inside disjoint column strips so no two ever fight over a
    pixel, and sit well in front of all other content so they win every
    depth test.
    """
    H, W, T = spec.height, spec.width, spec.num_frames
    nb = spec.num_beacons
    if nb == 0:
        return np.zeros((0, T, 3))
    strip = W // nb
    if strip < 3:
        nb = W // 3
        strip = W // nb
    tracks = np.zeros((nb, T, 3))
    for k in range(nb):
        lo_c, hi_c = k * strip + 1, k * strip + strip - 2
        col = rng.integers(lo_c, hi_c + 1)
        row = rng.integers(1, H - 1)
        for j in range(T):
            if j:
                col = int(np.clip(col + rng.integers(-2, 3), lo_c, hi_c))
                row = int(np.clip(row + rng.integers(-2, 3), 1, H - 2))
            center = np.array([col + 0.5, row + 0.5])
            z = rng.uniform(*BEACON_DEPTH_RANGE)
            cam_pt = backproject(K, center, np.array(z))
            tracks[k, j] = cameras[j].inverse().apply(cam_pt)
    return tracks


def generate_scene(spec: SceneSpec) -> Scene:
    rng = _preset_rng(spec)
    K = Intrinsics(spec.focal, spec.width / 2.0, spec.height / 2.0)
    grid = PixelGrid.create(spec.width, spec.height)

    if spec.preset == "static-camera":
        cameras = [PoseSE3.identity() for _ in range(spec.num_frames)]
    elif spec.preset == "degenerate-planar":
        cameras = _camera_path(spec, 0.04, np.array([0.22, 0.08, 0.12]))
    else:
        cameras = _camera_path(spec, 0.1, np.array([0.2, -0.06, 0.1]))

    bodies = []
    scatter = np.zeros((0, 3))
    if spec.preset == "degenerate-planar":
        backdrop = _planar_depth(spec, grid)
        bodies.append(_make_body(rng, K, spec, num_points=24))
        # off-plane clutter in front of the plane keeps resectioning
        # solvable despite the dominant plane
        m = 250
        px = np.column_stack(
            [rng.uniform(1, spec.width - 1, m), rng.uniform(1, spec.height - 1, m)]
        )
        rows, cols = px[:, 1].astype(int), px[:, 0].astype(int)
        plane_z = backdrop[rows, cols]
        scatter = backproject(K, px, plane_z * rng.uniform(0.55, 0.8, m))
    elif spec.preset == "dynamic-camera-static-scene":
        backdrop = _wavy_depth(spec, rng)
    else:
        backdrop = _wavy_depth(spec, rng)
        for _ in range(3):
            bodies.append(_make_body(rng, K, spec))

    if spec.preset == "dynamic-camera-static-scene":
        beacons = np.zeros((0, spec.num_frames, 3))
    else:
        beacons = _make_beacons(rng, K, spec, cameras)

    return Scene(spec, K, cameras, backdrop, bodies, scatter, beacons)


def _zbuffer(pixels, depths, width, height):
    """Nearest-wins rasterization into integer pixel cells.

    Returns (winner, zbuf): per-cell candidate index (-1 where empty) and
    winning depth (0 where empty), both flat length width*height.
    """
    cols = np.floor(pixels[:, 0]).astype(np.int64)
    rows = np.floor(pixels[:, 1]).astype(np.int64)
    ok = (
        (depths > DEPTH_EPS)
        & (cols >= 0)
        & (cols < width)
        & (rows >= 0)
        & (rows < height)
    )
    winner = np.full(width * height, -1, dtype=np.int64)
    zbuf = np.zeros(width * height)
    if not ok.any():
        return winner, zbuf
    idx = np.nonzero(ok)[0]
    flat = rows[idx] * width + cols[idx]
    order = np.lexsort((depths[idx], flat))
    flat_sorted = flat[order]
    first = np.ones(flat_sorted.shape[0], dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    winner[flat_sorted[first]] = idx[order[first]]
    zbuf[flat_sorted[first]] = depths[idx[order[first]]]
    return winner, zbuf


def render(scene: Scene) -> RenderedSequence:
    spec = scene.spec
    H, W, T = spec.height, spec.width, spec.num_frames
    K = scene.intrinsics
    grid = PixelGrid.create(W, H)
    centers = grid.flat()
    nb = scene.beacon_tracks.shape[0]
    num_bodies = len(scene.bodies)

    # candidate content at t=0; motion id: -1 static, body index, or
    # num_bodies + beacon index
    cand = [backproject(K, centers, scene.backdrop_depth.ravel())]
    motion = [np.full(H * W, STATIC_ID, dtype=np.int64)]
    for b, body in enumerate(scene.bodies):
        cand.append(body.points)
        motion.append(np.full(body.points.shape[0], b, dtype=np.int64))
    if scene.static_scatter.size:
        cand.append(scene.static_scatter)
        motion.append(np.full(scene.static_scatter.shape[0], STATIC_ID, dtype=np.int64))
    if nb:
        cand.append(scene.beacon_tracks[:, 0])
        motion.append(num_bodies + np.arange(nb, dtype=np.int64))
    cand = np.concatenate(cand, axis=0)
    motion = np.concatenate(motion)

    pix0, z0, _ = _pixels(K, scene.cameras[0], cand)
    winner0, zbuf0 = _zbuffer(pix0, z0, W, H)
    if (winner0 < 0).any():
        holes = int((winner0 < 0).sum())
        raise EmptyRaster(f"{holes} anchor pixels have no content")

    # one owner per anchor pixel, snapped exactly onto its camera-0 ray
    owner_motion = motion[winner0]
    pts0 = backproject(K, centers, zbuf0)
    n_owners = pts0.shape[0]

    pos = np.empty((T, n_owners, 3))
    static = owner_motion == STATIC_ID
    for j in range(T):
        pos[j, static] = pts0[static]
        for b in range(num_bodies):
            sel = owner_motion == b
            if sel.any():
                pos[j, sel] = scene.bodies[b].motions[j].apply(pts0[sel])
        for k in range(nb):
            sel = owner_motion == num_bodies + k
            if sel.any():
                pos[j, sel] = scene.beacon_tracks[k, j]

    all_valid = np.ones((H, W), dtype=bool)
    tracking = [
        Pointmap(pos[j].reshape(H, W, 3), all_valid, 0, 0, j) for j in range(T)
    ]

    is_beacon = owner_motion >= num_bodies
    recon = []
    depth = np.zeros((T, H, W))
    tracks2d = np.zeros((n_owners, T, 2))
    visibility = np.zeros((n_owners, T), dtype=bool)
    for j in range(T):
        pixj, zj, _ = _pixels(K, scene.cameras[j], pos[j])
        if is_beacon.any() and zj[~is_beacon].size:
            margin = zj[~is_beacon].min() - zj[is_beacon].max()
            assert margin > BEACON_CLEARANCE, (
                f"frame {j}: content approaches beacon depth band ({margin:.3f})"
            )
        winner, zbuf = _zbuffer(pixj, zj, W, H)
        has = winner >= 0
        if not has.any():
            raise EmptyRaster("no content visible").with_frame(j)
        pts = np.zeros((H * W, 3))
        inv = scene.cameras[j].inverse()
        pts[has] = inv.apply(backproject(K, centers[has], zbuf[has]))
        recon.append(
            Pointmap(pts.reshape(H, W, 3), has.reshape(H, W), 0, j, j)
        )
        depth[j] = zbuf.reshape(H, W)

        tracks2d[:, j] = pixj
        cols = np.floor(pixj[:, 0]).astype(np.int64)
        rows = np.floor(pixj[:, 1]).astype(np.int64)
        inb = (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H) & (zj > DEPTH_EPS)
        cell = np.where(inb, rows * W + cols, 0)
        visibility[:, j] = inb & (zj <= zbuf[cell] + 1e-12)

    dynamic = owner_motion != STATIC_ID
    meta = {
        "preset": spec.preset,
        "seed": spec.seed,
        "num_bodies": num_bodies,
        "num_beacons": nb,
        "beacon_track_indices": np.nonzero(is_beacon)[0].tolist(),
        "corruption": None,
    }
    return RenderedSequence(
        spec=spec,
        intrinsics=K,
        cameras=list(scene.cameras),
        tracking_pointmaps=tracking,
        recon_pointmaps=recon,
        depth=depth,
        tracks2d=TrackSet(tracks2d, visibility, dynamic),
        tracks3d=TrackSet(np.swapaxes(pos, 0, 1), visibility, dynamic),
        dynamic_mask=dynamic.reshape(H, W),
        meta=meta,
    )


def generate_sequence(spec: SceneSpec) -> RenderedSequence:
    return render(generate_scene(spec))


def corrupt(
    seq: RenderedSequence,
    noise: float = 0.0,
    drift: float = 0.0,
    targets: tuple = ("tracking",),
    seed: int = 0,
) -> RenderedSequence:
    """Perturb pointmaps with iid noise and a linear per-frame drift.

    Only valid pixels move; ground-truth supervision and cameras are left
    alone. With zero noise and drift the input maps are passed through
    untouched, so the operation is bit-identical to a no-op.
    """
    bad = set(targets) - {"tracking", "recon"}
    if bad:
        raise ValueError(f"unknown corruption targets: {sorted(bad)}")
    if noise < 0 or drift < 0:
        raise ValueError("noise and drift must be non-negative")
    rng = np.random.default_rng(seed)
    out_tracking = seq.tracking_pointmaps
    out_recon = seq.recon_pointmaps
    if noise > 0 or drift > 0:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)

        def perturb(pms):
            out = []
            for j, pm in enumerate(pms):
                delta = np.zeros_like(pm.points)
                if noise > 0:
                    delta += rng.normal(0.0, noise, pm.points.shape)
                if drift > 0:
                    delta += drift * j * direction
                pts = np.array(pm.points)
                pts[pm.valid] += delta[pm.valid]
                out.append(pm.with_points(pts))
            return out

        if "tracking" in targets:
            out_tracking = perturb(seq.tracking_pointmaps)
        if "recon" in targets:
            out_recon = perturb(seq.recon_pointmaps)
    meta = dict(seq.meta)
    meta["corruption"] = {
        "noise": noise,
        "drift": drift,
        "targets": tuple(targets),
        "seed": seed,
    }
    return replace(
        seq, tracking_pointmaps=out_tracking, recon_pointmaps=out_recon, meta=meta
    )


def _landing_cells(seq: RenderedSequence) -> np.ndarray:
    """(N, T) flat index of the reconstruction cell each visible track lands
    in, -1 where the track is invisible, off the grid or on an invalid cell."""
    first = seq.tracking_pointmaps[0]
    H, W = first.height, first.width
    t2 = seq.tracks2d.positions
    cols = np.floor(t2[..., 0]).astype(np.int64)
    rows = np.floor(t2[..., 1]).astype(np.int64)
    ok = seq.tracks2d.visibility & (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)
    cell = np.where(ok, rows * W + cols, -1)
    valid = np.stack([pm.valid.reshape(-1) for pm in seq.recon_pointmaps])
    ok &= valid[np.arange(len(valid)), np.maximum(cell, 0)]
    return np.where(ok, cell, -1)


def make_track_supervision(seq: RenderedSequence) -> TrackSupervision:
    """Extract 2D tracks plus cross-branch pairs found by exact 3D match.

    A pair (query n, frame j) is claimed when the reconstruction map, at
    the cell the track lands in, stores the tracked point's 3D position to
    within 1e-9 m. Frame 0 always matches; mid-sequence matches come from
    beacons and, under a static camera, from unoccluded static content.
    """
    first = seq.tracking_pointmaps[0]
    T, P = len(seq.recon_pointmaps), first.height * first.width
    cell = _landing_cells(seq)
    pair = np.flatnonzero(cell >= 0)  # query * T + frame
    recon = np.concatenate([pm.points.reshape(-1, 3) for pm in seq.recon_pointmaps])
    stored = recon[pair % T * P + cell.flat[pair]]
    d = np.abs(stored - seq.tracks3d.positions.reshape(-1, 3)[pair])
    match = np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2]) <= CLAIM_TOL
    cell.flat[pair[~match]] = -1
    queries = PixelGrid.create(first.width, first.height).flat()
    return TrackSupervision(queries, seq.tracks2d.positions, seq.tracks2d.visibility, cell)


def projected_track_supervision(seq: RenderedSequence) -> TrackSupervision:
    """Pair every visible track with the reconstruction pixel it lands in.

    Unlike the exact-match claims of make_track_supervision, these pairs
    assert correspondence by projection alone. That is the right
    supervision for adapting data whose branches currently disagree; the
    alignment term then pulls them together instead of starting at zero.
    """
    t2 = seq.tracks2d.positions
    return TrackSupervision(t2[:, 0], t2, seq.tracks2d.visibility, _landing_cells(seq))


def make_depth_supervision(seq: RenderedSequence) -> DepthSupervision:
    return DepthSupervision(seq.depth, seq.depth > 0)
