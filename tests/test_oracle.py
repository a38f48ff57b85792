"""Synthetic sequence generator: structure, exactness, and corruption."""

from dataclasses import replace

import numpy as np
import pytest

from worldtrack.camera import GNConfig, RansacConfig, solve_cameras_for_video
from worldtrack.errors import EmptyRaster, UnknownPreset
from worldtrack.geometry import PixelGrid, PoseSE3, TrackSet, _pixels
from worldtrack.losses import total_loss
from worldtrack.oracle import (
    CLAIM_TOL,
    PRESETS,
    Scene,
    SceneSpec,
    corrupt,
    generate_scene,
    generate_sequence,
    make_depth_supervision,
    make_track_supervision,
    projected_track_supervision,
    render,
)

SMALL = dict(width=32, height=24, num_frames=6, focal=40.0, seed=7)


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
    sup = make_track_supervision(seq)
    mono = make_depth_supervision(seq)
    b = total_loss(
        seq.tracking_pointmaps,
        seq.recon_pointmaps,
        seq.cameras,
        seq.intrinsics,
        sup,
        mono,
    )
    assert b.traj < 1e-18
    assert b.depth < 1e-18
    assert b.align < 1e-16
    assert b.total < 1e-16


@pytest.mark.parametrize("preset", PRESETS)
def test_cross_branch_claims(sequences, preset):
    seq = sequences[preset]
    sup = make_track_supervision(seq)
    n = sup.num_queries
    assert np.array_equal(sup.correspondence[:, 0], np.arange(n))
    beacon_idx = seq.meta["beacon_track_indices"]
    if preset == "dynamic-camera-static-scene":
        assert beacon_idx == []
    else:
        assert len(beacon_idx) == seq.meta["num_beacons"] > 0
        # beacons provide exact pairs and full visibility at every frame
        sub = sup.correspondence[beacon_idx]
        assert (sub >= 0).all()
        assert seq.tracks2d.visibility[beacon_idx].all()
    # every claim is an exact 3D match between the branches
    W = SMALL["width"]
    for j in range(seq.num_frames):
        rowsel = sup.correspondence[:, j] >= 0
        if not rowsel.any():
            continue
        flat = sup.correspondence[rowsel, j]
        stored = seq.recon_pointmaps[j].points.reshape(-1, 3)[flat]
        tracked = seq.tracks3d.positions[rowsel, j]
        assert np.abs(stored - tracked).max() <= 1e-9


def reference_correspondence(seq, exact: bool) -> np.ndarray:
    """The per-frame loops the supervision builders replaced: the landing
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
            ok[ok] = np.abs(stored - tracked).max(axis=1) <= CLAIM_TOL
        corr[ok, j] = rows[ok] * W + cols[ok]
    return corr


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
    exact, projected = make_track_supervision(seq), projected_track_supervision(seq)
    want_exact = reference_correspondence(seq, exact=True)
    want_projected = reference_correspondence(seq, exact=False)
    assert exact.correspondence.dtype == projected.correspondence.dtype == np.int64
    assert np.array_equal(exact.correspondence, want_exact)
    assert np.array_equal(projected.correspondence, want_projected)
    for sup in (exact, projected):
        assert np.array_equal(sup.tracks2d, seq.tracks2d.positions)
        assert np.array_equal(sup.visibility, seq.tracks2d.visibility)
    grid = PixelGrid.create(seq.spec.width, seq.spec.height)
    assert np.array_equal(exact.query_pixels, grid.flat())
    assert np.array_equal(projected.query_pixels, seq.tracks2d.positions[:, 0])
    # the exact claims are a subset of the projected pairs, and both drop
    # some pairs: the cases the reference distinguishes all occur
    claimed = want_exact >= 0
    assert np.array_equal(want_projected[claimed], want_exact[claimed])
    assert claimed[:, 1:].sum() < (want_projected[:, 1:] >= 0).sum()
    if variant == "stressed":
        assert (want_projected[0::11, 1:] == -1).all() and (want_projected[4::11, 1:] == -1).all()


def test_static_camera_keeps_static_claims(sequences):
    seq = sequences["static-camera"]
    sup = make_track_supervision(seq)
    static = ~seq.tracks2d.dynamic
    last = sup.correspondence[static, seq.num_frames - 1]
    assert (last >= 0).mean() > 0.5


def test_occlusion_marks_tracks_invisible(sequences):
    seq = sequences["orbit-dynamic"]
    assert not seq.tracks2d.visibility.all()


@pytest.mark.parametrize("preset", PRESETS)
def test_cameras_recoverable_from_recon(sequences, preset):
    seq = sequences[preset]
    grid = PixelGrid.create(SMALL["width"], SMALL["height"])
    K, estimates = solve_cameras_for_video(
        seq.recon_pointmaps, grid, RansacConfig(), GNConfig()
    )
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
