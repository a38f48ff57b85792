"""Synthetic sequence generator: structure, exactness, and corruption."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import objective

from worldtrack import oracle
from worldtrack.camera import RansacConfig, solve_cameras_for_video
from worldtrack.data import PRESETS, SceneSpec, TrackSupervision
from worldtrack.errors import EmptyRaster, UnknownPreset
from worldtrack.geometry import (
    DEPTH_EPS,
    PixelGrid,
    PoseSE3,
    TrackSet,
    _pixel_cells,
    _pixels,
    stack_pointmaps,
)
from worldtrack.oracle import (
    Scene,
    corrupt,
    generate_scene,
    generate_sequence,
    make_depth_supervision,
    projected_track_supervision,
    render,
)

SMALL = dict(width=32, height=24, num_frames=6, focal=40.0, seed=7)
# a cross-branch pair is exact when the stored and tracked points agree to this
EXACT_TOL = 1e-9


@pytest.fixture(scope="module")
def sequences():
    return {p: generate_sequence(SceneSpec(p, **SMALL)) for p in PRESETS}


def test_unknown_preset_rejected():
    with pytest.raises(UnknownPreset):
        SceneSpec("spiral")


def test_generation_is_deterministic():
    spec = SceneSpec("orbit-dynamic", **SMALL)
    a = generate_sequence(spec)
    b = generate_sequence(spec)
    for pa, pb in zip(a.tracking_pointmaps + a.recon_pointmaps,
                      b.tracking_pointmaps + b.recon_pointmaps):
        assert np.array_equal(pa.points, pb.points)
        assert np.array_equal(pa.valid, pb.valid)
    assert np.array_equal(a.tracks2d.positions, b.tracks2d.positions)
    assert np.array_equal(a.depth, b.depth)


def test_presets_seed_independently():
    a = generate_scene(SceneSpec("orbit-dynamic", **SMALL))
    b = generate_scene(SceneSpec("static-camera", **SMALL))
    assert not np.array_equal(a.backdrop_depth, b.backdrop_depth)


@pytest.mark.parametrize("preset", PRESETS)
def test_branch_structure(sequences, preset):
    seq = sequences[preset]
    T = seq.num_frames
    assert T == SMALL["num_frames"]
    for j in range(T):
        trk, rec = seq.tracking_pointmaps[j], seq.recon_pointmaps[j]
        assert (trk.coord_frame, trk.content_frame, trk.time) == (0, 0, j)
        assert (rec.coord_frame, rec.content_frame, rec.time) == (0, j, j)
        assert trk.valid.all()
        # depth zero exactly off the valid reconstruction pixels
        assert (seq.depth[j] > 0).sum() == rec.valid.sum()
        assert np.all(seq.depth[j][~rec.valid] == 0)
        # tracking values and 3D tracks are the same numbers
        assert np.array_equal(
            seq.tracks3d.positions[:, j], trk.points.reshape(-1, 3)
        )
    assert np.array_equal(
        seq.recon_pointmaps[0].points, seq.tracking_pointmaps[0].points
    )
    assert seq.recon_pointmaps[0].valid.all()
    assert seq.tracks2d.visibility[:, 0].all()
    assert seq.dynamic_mask.sum() == seq.tracks2d.dynamic.sum()


@pytest.mark.parametrize("preset", PRESETS)
def test_recon_points_sit_on_camera_rays(sequences, preset):
    seq = sequences[preset]
    grid = PixelGrid.create(SMALL["width"], SMALL["height"])
    for j in (1, seq.num_frames - 1):
        pm = seq.recon_pointmaps[j]
        pix, z, _ = _pixels(seq.intrinsics, seq.cameras[j], pm.points[pm.valid])
        np.testing.assert_allclose(pix, grid.coords[pm.valid], atol=1e-9)
        np.testing.assert_allclose(z, seq.depth[j][pm.valid], atol=1e-9)


@pytest.mark.parametrize("preset", PRESETS)
def test_objective_is_null_on_clean_data(sequences, preset):
    seq = sequences[preset]
    b = objective(
        seq.tracking_pointmaps, seq.recon_pointmaps, seq.cameras, seq.intrinsics,
        exact_supervision(seq), make_depth_supervision(seq),
    )[0]
    assert b.traj < 1e-18
    assert b.depth < 1e-18
    assert b.align < 1e-16
    assert b.total < 1e-16


@pytest.mark.parametrize("preset", PRESETS)
def test_cross_branch_claims(sequences, preset):
    seq = sequences[preset]
    corr = reference_correspondence(seq, exact=True)
    n = len(corr)
    assert np.array_equal(corr[:, 0], np.arange(n))
    beacon_idx = seq.meta["beacon_track_indices"]
    if preset == "dynamic-camera-static-scene":
        assert beacon_idx == []
    else:
        assert len(beacon_idx) == seq.meta["num_beacons"] > 0
        # beacons provide exact pairs and full visibility at every frame
        sub = corr[beacon_idx]
        assert (sub >= 0).all()
        assert seq.tracks2d.visibility[beacon_idx].all()
    # every claim is an exact 3D match between the branches
    for j in range(seq.num_frames):
        rowsel = corr[:, j] >= 0
        if not rowsel.any():
            continue
        flat = corr[rowsel, j]
        stored = seq.recon_pointmaps[j].points.reshape(-1, 3)[flat]
        tracked = seq.tracks3d.positions[rowsel, j]
        assert np.abs(stored - tracked).max() <= EXACT_TOL


def reference_correspondence(seq, exact: bool) -> np.ndarray:
    """The per-frame loop the supervision builder replaced: the landing
    cell of each visible in-grid track on a valid recon pixel, and with
    ``exact`` only where the stored point matches the tracked one."""
    first = seq.tracking_pointmaps[0]
    H, W = first.height, first.width
    t2 = np.array(seq.tracks2d.positions)
    vis = np.array(seq.tracks2d.visibility)
    n, T = vis.shape
    corr = np.full((n, T), -1, dtype=np.int64)
    for j in range(T):
        pm = seq.recon_pointmaps[j]
        cols = np.floor(t2[:, j, 0]).astype(np.int64)
        rows = np.floor(t2[:, j, 1]).astype(np.int64)
        ok = vis[:, j] & (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)
        ok[ok] &= pm.valid[rows[ok], cols[ok]]
        if exact and ok.any():
            stored = pm.points[rows[ok], cols[ok]]
            tracked = seq.tracks3d.positions[ok, j]
            ok[ok] = np.abs(stored - tracked).max(axis=1) <= EXACT_TOL
        corr[ok, j] = rows[ok] * W + cols[ok]
    return corr


def exact_supervision(seq) -> TrackSupervision:
    """Every anchor pixel as a query, with its exact cross-branch pairs."""
    queries = PixelGrid.create(seq.spec.width, seq.spec.height).flat()
    corr = reference_correspondence(seq, exact=True)
    return TrackSupervision(queries, seq.tracks2d.positions, seq.tracks2d.visibility, corr)


def stressed(seq):
    """Tracks pushed off each side of the grid or hidden after frame 0, and
    a fifth of the recon pixels invalidated."""
    t2 = np.array(seq.tracks2d.positions)
    vis = np.array(seq.tracks2d.visibility)
    t2[0::11, 1:, 0] = -0.25
    t2[1::11, 1:, 0] = seq.spec.width
    t2[2::11, 1:, 1] = -3.0
    t2[3::11, 1:, 1] = seq.spec.height + 0.5
    vis[4::11, 1:] = False
    rng = np.random.default_rng(0)
    recon = [pm.with_points(pm.points, pm.valid & (rng.random(pm.valid.shape) > 0.2))
             for pm in seq.recon_pointmaps]
    return replace(seq, tracks2d=TrackSet(t2, vis, seq.tracks2d.dynamic), recon_pointmaps=recon)


@pytest.mark.parametrize("variant", ["clean", "corrupted", "stressed"])
@pytest.mark.parametrize("preset", PRESETS)
def test_supervision_builders_match_per_frame_reference(sequences, preset, variant):
    seq = sequences[preset]
    if variant == "corrupted":
        seq = corrupt(seq, noise=1e-3, drift=1e-3, targets=("tracking", "recon"), seed=2)
    elif variant == "stressed":
        seq = stressed(seq)
    projected = projected_track_supervision(seq)
    want_exact = reference_correspondence(seq, exact=True)
    want_projected = reference_correspondence(seq, exact=False)
    assert projected.correspondence.dtype == np.int64
    assert np.array_equal(projected.correspondence, want_projected)
    assert np.array_equal(projected.tracks2d, seq.tracks2d.positions)
    assert np.array_equal(projected.visibility, seq.tracks2d.visibility)
    assert np.array_equal(projected.query_pixels, seq.tracks2d.positions[:, 0])
    # the exact pairs are a subset of the projected ones, and both drop
    # some pairs: the cases the reference distinguishes all occur
    claimed = want_exact >= 0
    assert np.array_equal(want_projected[claimed], want_exact[claimed])
    assert claimed[:, 1:].sum() < (want_projected[:, 1:] >= 0).sum()
    if variant == "stressed":
        assert (want_projected[0::11, 1:] == -1).all() and (want_projected[4::11, 1:] == -1).all()


def test_static_camera_keeps_static_claims(sequences):
    seq = sequences["static-camera"]
    static = ~seq.tracks2d.dynamic
    last = reference_correspondence(seq, exact=True)[static, seq.num_frames - 1]
    assert (last >= 0).mean() > 0.5


def test_occlusion_marks_tracks_invisible(sequences):
    seq = sequences["orbit-dynamic"]
    assert not seq.tracks2d.visibility.all()


@pytest.mark.parametrize("preset", PRESETS)
def test_cameras_recoverable_from_recon(sequences, preset):
    seq = sequences[preset]
    grid = PixelGrid.create(SMALL["width"], SMALL["height"])
    K, estimates = solve_cameras_for_video(seq.recon_pointmaps, grid, RansacConfig())
    assert abs(K.focal - SMALL["focal"]) / SMALL["focal"] < 1e-6
    for est, true in zip(estimates, seq.cameras):
        dR = est.pose.rotation @ true.rotation.T
        angle = np.arccos(np.clip((np.trace(dR) - 1) / 2, -1, 1))
        assert angle < 1e-6
        assert np.linalg.norm(est.pose.translation - true.translation) < 1e-7


def test_corrupt_zero_is_bit_identical(sequences):
    seq = sequences["orbit-dynamic"]
    out = corrupt(seq)
    assert out.tracking_pointmaps is seq.tracking_pointmaps
    assert out.recon_pointmaps is seq.recon_pointmaps
    assert out.meta["corruption"]["noise"] == 0.0


def test_corrupt_noise_and_drift(sequences):
    seq = sequences["degenerate-planar"]
    out = corrupt(seq, noise=0.05, drift=0.01, targets=("tracking", "recon"), seed=3)
    again = corrupt(seq, noise=0.05, drift=0.01, targets=("tracking", "recon"), seed=3)
    for j in range(seq.num_frames):
        a, b = seq.tracking_pointmaps[j], out.tracking_pointmaps[j]
        assert not np.array_equal(a.points, b.points)
        assert np.array_equal(
            out.tracking_pointmaps[j].points, again.tracking_pointmaps[j].points
        )
        # invalid reconstruction pixels stay exactly zero
        rec = out.recon_pointmaps[j]
        assert np.all(rec.points[~rec.valid] == 0)
    # drift grows linearly along one direction
    only_drift = corrupt(seq, drift=0.01, seed=3)
    d1 = only_drift.tracking_pointmaps[1].points - seq.tracking_pointmaps[1].points
    d3 = only_drift.tracking_pointmaps[3].points - seq.tracking_pointmaps[3].points
    np.testing.assert_allclose(3 * d1, d3, atol=1e-12)
    with pytest.raises(ValueError):
        corrupt(seq, targets=("poses",))


def test_render_reports_empty_frame():
    spec = SceneSpec("static-camera", **SMALL)
    scene = generate_scene(spec)
    # pull the camera forward past all content so frame 1 sees nothing
    cams = list(scene.cameras)
    cams[1] = PoseSE3(np.eye(3), np.array([0.0, 0.0, -10.0]))
    broken = Scene(
        scene.spec, scene.intrinsics, cams, scene.backdrop_depth,
        scene.bodies, scene.static_scatter, scene.beacon_tracks,
    )
    with pytest.raises(EmptyRaster) as info:
        render(broken)
    assert info.value.frame == 1


def brute_zbuffer(pixels, depths, width, height):
    """Per candidate, in index order: a landing candidate takes its cell
    when the cell is empty or holds a strictly greater depth."""
    winner = np.full(width * height, -1)
    zbuf = np.zeros(width * height)
    for i, ((x, y), d) in enumerate(zip(pixels.tolist(), depths.tolist())):
        col, row = math.floor(x), math.floor(y)
        if 0 <= col < width and 0 <= row < height and d > DEPTH_EPS:
            k = row * width + col
            if winner[k] < 0 or d < zbuf[k]:
                winner[k], zbuf[k] = i, d
    return winner, zbuf


def sorted_zbuffer(pixels, depths, width, height):
    """The z-buffer as a stable lexsort by cell, then depth: the first
    candidate of each cell wins."""
    rows, cols, ok = _pixel_cells(pixels, width, height)
    ok &= depths > DEPTH_EPS
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


def tied_candidates(rng, width=8, height=6):
    """Candidates crowded into few cells, some off the grid, with depths
    from a small set so exact ties are common; some depths are at or
    below DEPTH_EPS."""
    n = int(rng.integers(1, 60))
    cells = rng.integers([-2, -2], [width + 2, height + 2], size=(n, 2))
    pixels = cells + rng.choice([0.0, 0.25, 0.5, 0.999], size=(n, 2))
    depths = rng.choice([-1.0, 0.0, DEPTH_EPS, 2 * DEPTH_EPS, 0.5, 1.0, 1.5, 2.0], size=n)
    return pixels, depths


def test_zbuffer_nearest_wins_lowest_index_on_ties():
    # three candidates in cell 0: the two nearest tie, the first of them wins
    pixels = np.array([[0.5, 0.5], [0.2, 0.7], [0.9, 0.1]])
    winner, zbuf = oracle._zbuffer(pixels, np.array([1.0, 0.5, 0.5]), 8, 6)[:2]
    assert (winner[0], zbuf[0]) == (1, 0.5)
    assert (winner[1:] == -1).all() and (zbuf[1:] == 0).all()
    rng = np.random.default_rng(11)
    empty_seen = False
    for _ in range(200):
        pixels, depths = tied_candidates(rng)
        winner, zbuf = oracle._zbuffer(pixels, depths, 8, 6)[:2]
        ref_winner, ref_zbuf = brute_zbuffer(pixels, depths, 8, 6)
        np.testing.assert_array_equal(winner, ref_winner)
        np.testing.assert_array_equal(zbuf, ref_zbuf)
        assert winner.dtype == np.int64
        empty_seen |= bool((winner < 0).any())
    assert empty_seen


def test_zbuffer_landing_cells():
    rng = np.random.default_rng(12)
    for _ in range(50):
        pixels, depths = tied_candidates(rng)
        cell = oracle._zbuffer(pixels, depths, 8, 6)[2]
        for (x, y), d, k in zip(pixels.tolist(), depths.tolist(), cell.tolist()):
            col, row = math.floor(x), math.floor(y)
            lands = 0 <= col < 8 and 0 <= row < 6 and d > DEPTH_EPS
            assert k == (row * 8 + col if lands else -1)


@pytest.mark.parametrize("preset", PRESETS)
def test_render_matches_sort_based_zbuffer(preset, monkeypatch):
    scene = generate_scene(SceneSpec(preset, **SMALL))
    fast = render(scene)
    scatter_min = oracle._zbuffer

    def by_sort(pixels, depths, width, height):
        # the sort's winners and depths; any further outputs as rendered
        return sorted_zbuffer(pixels, depths, width, height) + tuple(
            scatter_min(pixels, depths, width, height)[2:]
        )

    monkeypatch.setattr(oracle, "_zbuffer", by_sort)
    slow = render(scene)
    for branch in ("tracking", "recon"):
        for a, b in zip(
            stack_pointmaps(getattr(fast, f"{branch}_pointmaps"), branch),
            stack_pointmaps(getattr(slow, f"{branch}_pointmaps"), branch),
        ):
            np.testing.assert_array_equal(a, b)
    for name in ("tracks2d", "tracks3d"):
        for field in ("positions", "visibility", "dynamic"):
            np.testing.assert_array_equal(
                getattr(getattr(fast, name), field), getattr(getattr(slow, name), field)
            )
    np.testing.assert_array_equal(fast.depth, slow.depth)
    np.testing.assert_array_equal(fast.dynamic_mask, slow.dynamic_mask)
    assert fast.meta == slow.meta


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("focal", float("nan"), "focal length must be finite and positive"),
        ("focal", float("inf"), "focal length must be finite and positive"),
        ("focal", 10**400, "focal length must be finite and positive"),
        ("focal", True, "focal length must be finite and positive"),
        ("focal", "80", "focal length must be finite and positive"),
        ("width", 64.0, "width must be an integer, not 64.0"),
        ("num_frames", True, "num_frames must be an integer, not True"),
        ("seed", "x", "seed must be an integer, not 'x'"),
        ("num_beacons", 2.5, "num_beacons must be an integer, not 2.5"),
    ],
    ids=["focal-nan", "focal-inf", "focal-huge-int", "focal-bool", "focal-string",
         "width-float", "frames-bool", "seed-string", "beacons-float"],
)
def test_scene_spec_refuses_non_finite_focal_and_non_integer_fields(field, value, message):
    with pytest.raises(ValueError, match=message):
        SceneSpec("orbit-dynamic", **{field: value})


def test_scene_spec_takes_numpy_scalars():
    spec = SceneSpec("orbit-dynamic", width=np.int64(16), seed=np.int32(3), focal=np.float32(20))
    assert spec.width == 16 and spec.seed == 3 and spec.focal == 20
