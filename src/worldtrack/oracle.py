"""Synthetic sequences with exactly known geometry.

The generator builds scenes whose rendered products are self-consistent to
float precision: every anchor pixel owns one content point lying exactly on
its camera-0 ray, reconstruction maps sample content exactly on each
frame's camera rays (so pose recovery is exact), depth maps and 2D tracks
come from ``geometry.project_points``, the kernel the losses and the camera
solver project with, and a set of beacon points is steered to land exactly
on pixel centers of every frame so the cross-branch alignment term has
exact pairs mid-sequence.

Every frame is rasterized by a nearest-wins z-buffer over integer pixel
cells (``_zbuffer``, O(n) per frame): in each cell the least depth wins,
and on an exact depth tie the candidate with the lowest index. Candidates
are the backdrop pixels in raster order, then the bodies' points, the
static scatter and the beacons; in later frames they are the anchor
pixels' owners in raster order.

Corruption (noise and drift) is applied separately so the clean sequence
stays available as ground truth.

The types built here, ``SceneSpec``, ``RenderedSequence`` and the two
supervision containers, are defined in ``data``.
"""

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .data import DepthSupervision, RenderedSequence, SceneSpec, TrackSupervision
from .errors import EmptyRaster
from .geometry import (
    DEPTH_EPS,
    Intrinsics,
    PixelGrid,
    PointmapVideo,
    PoseSE3,
    TrackSet,
    _pixel_cells,
    _pixels,
    backproject,
    so3_exp,
    video_arrays,
)

STATIC_ID = -1
BEACON_CLEARANCE = 0.1
BEACON_DEPTH_RANGE = (0.55, 0.75)


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


def _make_body(rng, K, spec, num_points=None):
    H, W = spec.height, spec.width
    if num_points is None:
        num_points = max(24, (H * W) // 30)
    cx = rng.uniform(0.25 * W, 0.75 * W)
    cy = rng.uniform(0.25 * H, 0.75 * H)
    depth = rng.uniform(1.8, 2.6)
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
    to_world = [cam.inverse() for cam in cameras]
    tracks = np.zeros((nb, T, 3))
    centers, depths = np.zeros((T, 2)), np.zeros(T)
    for k in range(nb):
        lo_c, hi_c = k * strip + 1, k * strip + strip - 2
        col = int(rng.integers(lo_c, hi_c + 1))
        row = int(rng.integers(1, H - 1))
        for j in range(T):
            if j:
                col = min(max(col + int(rng.integers(-2, 3)), lo_c), hi_c)
                row = min(max(row + int(rng.integers(-2, 3)), 1), H - 2)
            centers[j] = col + 0.5, row + 0.5
            depths[j] = rng.uniform(*BEACON_DEPTH_RANGE)
        for j, cam_pt in enumerate(backproject(K, centers, depths)):
            tracks[k, j] = to_world[j].apply(cam_pt)
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
    """Nearest-wins rasterization into integer pixel cells, in O(n).

    A candidate lands in its ``_pixel_cells`` cell when that cell is on the
    grid and its depth exceeds ``DEPTH_EPS``. In each cell the least depth
    wins, and on an exact depth tie the lowest candidate index: one
    scatter-min of the depths, then one of the indices of the candidates at
    their cell's minimum.

    Returns (winner, zbuf, cell): per-cell candidate index (-1 where empty)
    and winning depth (0 where empty), both flat length width*height, and
    each candidate's flat cell (-1 where it does not land).
    """
    rows, cols, ok = _pixel_cells(pixels, width, height)
    ok &= depths > DEPTH_EPS
    cell = np.where(ok, rows * width + cols, -1)
    # cell -1 indexes a spare last entry, dropped at the end
    n, size = len(depths), width * height
    zbuf = np.full(size + 1, np.inf)
    np.minimum.at(zbuf, cell, depths)
    winner = np.full(size + 1, n, dtype=np.int64)
    np.minimum.at(winner, cell, np.where(depths == zbuf[cell], np.arange(n), n))
    winner, zbuf = winner[:size], zbuf[:size]
    empty = winner == n
    winner[empty] = -1
    zbuf[empty] = 0.0
    return winner, zbuf, cell


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
    winner0, zbuf0, _ = _zbuffer(pix0, z0, W, H)
    if (winner0 < 0).any():
        holes = int((winner0 < 0).sum())
        raise EmptyRaster(f"{holes} anchor pixels have no content")

    # one owner per anchor pixel, snapped exactly onto its camera-0 ray
    owner_motion = motion[winner0]
    pts0 = backproject(K, centers, zbuf0)
    n_owners = pts0.shape[0]

    is_beacon = owner_motion >= num_bodies
    beacons = np.flatnonzero(is_beacon)

    # each owner's world track, track-major for tracks3d and frame-major in
    # the tracking video's stack, through its (T, H*W, 3) view pos: every
    # owner at its frame-0 point, then each body's owners moved frame by
    # frame and the beacons' owners at their prescribed positions
    tracks3d = np.repeat(pts0[:, None], T, axis=1)
    tracking_points = np.empty((T, H, W, 3))
    pos = tracking_points.reshape(T, n_owners, 3)
    pos[:] = pts0
    for b, body in enumerate(scene.bodies):
        sel = np.flatnonzero(owner_motion == b)
        if sel.size:
            moving = pts0[sel]
            # one matmul per frame on these rows: a batched one may round
            # differently
            for j in range(T):
                pos[j, sel] = body.motions[j].apply(moving)
            tracks3d[sel] = pos[:, sel].swapaxes(0, 1)
    tracks3d[beacons] = scene.beacon_tracks[owner_motion[beacons] - num_bodies]
    pos[:, beacons] = tracks3d[beacons].swapaxes(0, 1)

    tracking = PointmapVideo("tracking", tracking_points, np.ones((T, H, W), dtype=bool))

    check_margin = 0 < beacons.size < n_owners
    recon_points = np.zeros((T, H, W, 3))
    recon_rows = recon_points.reshape(T, n_owners, 3)
    recon_valid = np.zeros((T, H, W), dtype=bool)
    depth = np.zeros((T, H, W))
    pixels = np.empty((T, n_owners, 2))
    visibility = np.zeros((n_owners, T), dtype=bool)
    for j, cam in enumerate(scene.cameras):
        pixels[j], zj, _ = _pixels(K, cam, pos[j])
        if check_margin:
            margin = zj.min(where=~is_beacon, initial=np.inf) - zj[beacons].max()
            assert margin > BEACON_CLEARANCE, (
                f"frame {j}: content approaches beacon depth band ({margin:.3f})"
            )
        # one landing-cell pass feeds the depth test and visibility
        winner, zbuf, cell = _zbuffer(pixels[j], zj, W, H)
        hit = winner >= 0
        has = np.flatnonzero(hit)
        if not has.size:
            raise EmptyRaster("no content visible").with_frame(j)
        cam_pts = backproject(K, np.take(centers, has, axis=0), zbuf[has])
        recon_rows[j, has] = cam.inverse().apply(cam_pts)
        recon_valid[j] = hit.reshape(H, W)
        depth[j] = zbuf.reshape(H, W)
        visibility[:, j] = (cell >= 0) & (zj <= zbuf[cell] + 1e-12)

    # the (T, N, 2) pixels transposed to C-ordered (N, T, 2) tracks, each
    # pixel pair moved as one complex128
    tracks2d = np.empty((n_owners, T, 2))
    tracks2d.view(np.complex128)[..., 0] = pixels.view(np.complex128)[..., 0].T

    dynamic = owner_motion != STATIC_ID
    meta = {
        "preset": spec.preset,
        "seed": spec.seed,
        "num_bodies": num_bodies,
        "num_beacons": nb,
        "beacon_track_indices": beacons.tolist(),
        "corruption": None,
    }
    return RenderedSequence(
        spec=spec,
        intrinsics=K,
        cameras=list(scene.cameras),
        tracking_pointmaps=tracking,
        recon_pointmaps=PointmapVideo("recon", recon_points, recon_valid),
        depth=depth,
        tracks2d=TrackSet(tracks2d, visibility, dynamic),
        tracks3d=TrackSet(tracks3d, visibility, dynamic),
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

        def perturb(video, branch):
            points, valid = video_arrays(video, branch)
            # one draw for the video: the per-frame draws, frame after frame
            delta = rng.normal(0.0, noise, points.shape) if noise > 0 else np.zeros(points.shape)
            if drift > 0:
                delta += (drift * np.arange(len(points)))[:, None, None, None] * direction
            # invalid pixels moved too; the video zeroes them again
            delta += points
            return PointmapVideo(branch, delta, valid)

        if "tracking" in targets:
            out_tracking = perturb(seq.tracking_pointmaps, "tracking")
        if "recon" in targets:
            out_recon = perturb(seq.recon_pointmaps, "recon")
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
    _, valid = video_arrays(seq.recon_pointmaps, "recon")
    T, H, W = valid.shape
    t2 = seq.tracks2d.positions
    rows, cols, ok = _pixel_cells(t2, W, H)
    ok &= seq.tracks2d.visibility
    cell = np.where(ok, rows * W + cols, -1)
    ok &= valid.reshape(T, -1)[np.arange(T), np.maximum(cell, 0)]
    return np.where(ok, cell, -1)


def projected_track_supervision(seq: RenderedSequence) -> TrackSupervision:
    """Pair every visible track with the reconstruction pixel it lands in.

    The pairs assert correspondence by projection alone, not by an exact 3D
    match. That is the right supervision for adapting data whose branches
    currently disagree; the alignment term then pulls them together instead
    of starting at zero. The queries are the tracks' frame-0 positions; a
    rendered sequence has one per anchor pixel, in raster order.
    """
    t2 = seq.tracks2d.positions
    return TrackSupervision(t2[:, 0], t2, seq.tracks2d.visibility, _landing_cells(seq))


def make_depth_supervision(seq: RenderedSequence) -> DepthSupervision:
    return DepthSupervision(seq.depth, seq.depth > 0)
