"""Loss stack: frozen-value checks, analytic vs numeric gradients, TTA behavior."""

import numpy as np
import pytest

from worldtrack.camera import (
    RansacConfig,
    correspondences_from_points,
    gauss_newton_refine,
    solve_cameras_for_video,
)
from worldtrack.errors import (
    AllOccluded,
    DegenerateRadius,
    DivergenceDetected,
    NonPositiveProjectedDepth,
    NoOverlap,
    ShapeMismatch,
)
from worldtrack.geometry import (
    Intrinsics,
    PixelGrid,
    Pointmap,
    PoseSE3,
    backproject,
    so3_exp,
)
from worldtrack.losses import (
    AdaptState,
    DepthSupervision,
    LossBreakdown,
    LossWeights,
    TrackSupervision,
    align_loss,
    depth_loss,
    reproject_tracks,
    total_loss,
    tta_optimize,
    traj_loss,
    _evaluate,
    _objective,
    _pose_stack,
    _recon_gradient,
    _total_with_grads,
)

FD_STEP = 1e-6
FD_TOL = 1e-4


def rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / denom


# ---------------------------------------------------------------------------
# fixed small scene shared by the multi-frame tests

W, H, F = 8, 6, 10.0


def make_mini_scene(num_frames=3, track_noise=0.0, recon_noise=0.0, seed=0):
    """Bumpy static surface seen by a slowly moving camera.

    Reconstruction maps are built exactly on each frame's camera rays at a
    spatially varying (never coplanar) depth field, so pose recovery is
    well conditioned; supervision (tracks, depth, correspondence) is
    generated from the same floating-point quantities, so the whole
    objective is zero at the true parameters.
    """
    rng = np.random.default_rng(seed)
    K = Intrinsics(F, W / 2.0, H / 2.0)
    grid = PixelGrid.create(W, H)
    rr, cc = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")

    def depth_field(j):
        wave = np.sin(2 * np.pi * rr / H + 0.7 * j) * np.cos(2 * np.pi * cc / W + 0.3 * j)
        return 2.0 + 0.4 * wave + 0.05 * ((rr + cc) % 3)

    poses = [PoseSE3.identity()]
    for j in range(1, num_frames):
        R = so3_exp(np.array([0.02 * j, -0.01 * j, 0.015 * j]))
        t = np.array([0.04 * j, -0.02 * j, 0.03 * j])
        poses.append(PoseSE3(R, t))  # world -> camera j

    anchor_pts = backproject(K, grid.flat(), depth_field(0).ravel()).reshape(H, W, 3)
    valid = np.ones((H, W), dtype=bool)
    tracking, recon = [], []
    for j, pose in enumerate(poses):
        tracking.append(Pointmap(anchor_pts, valid, 0, 0, j))
        # content sampled on camera-j rays, expressed in world coordinates
        cam_pts = backproject(K, grid.flat(), depth_field(j).ravel())
        world = (cam_pts - pose.translation) @ pose.rotation
        recon.append(Pointmap(world.reshape(H, W, 3), valid, 0, j, j))

    queries = grid.flat().copy()
    n = queries.shape[0]
    tracks2d = np.zeros((n, num_frames, 2))
    vis = np.ones((n, num_frames), dtype=bool)
    corr = np.full((n, num_frames), -1, dtype=np.int64)
    depth_maps = np.zeros((num_frames, H, W))
    for j, pose in enumerate(poses):
        cam = anchor_pts.reshape(-1, 3) @ pose.rotation.T + pose.translation
        tracks2d[:, j, 0] = F * cam[:, 0] / cam[:, 2] + K.cx
        tracks2d[:, j, 1] = F * cam[:, 1] / cam[:, 2] + K.cy
        depth_maps[j] = (
            recon[j].points.reshape(-1, 3) @ pose.rotation[2] + pose.translation[2]
        ).reshape(H, W)
    corr[:, 0] = np.arange(n)  # frame 0 recon equals frame 0 tracking rays
    sup = TrackSupervision(queries, tracks2d, vis, corr)
    mono = DepthSupervision(depth_maps, np.ones_like(depth_maps, dtype=bool))

    if track_noise:
        tracking = [
            pm.with_points(pm.points + rng.normal(0, track_noise, pm.points.shape))
            for pm in tracking
        ]
    if recon_noise:
        recon = [
            pm.with_points(pm.points + rng.normal(0, recon_noise, pm.points.shape))
            for pm in recon
        ]
    return K, grid, poses, tracking, recon, sup, mono


# ---------------------------------------------------------------------------
# frozen values


def test_traj_loss_frozen_example():
    loss, grad, dropped = traj_loss(
        np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.zeros(2)
    )
    assert loss == pytest.approx(2.0, abs=1e-15)
    assert dropped == 0
    # radial direction is scale-compensated exactly, tangential is not
    assert grad[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert grad[0, 1] == pytest.approx(-2.0, abs=1e-12)


def test_depth_loss_frozen_example():
    pts = np.array([[[0.0, 0.0, 1.0], [0.1, 0.0, 2.0]]])
    pm = Pointmap(pts, np.ones((1, 2), bool), 0, 0, 0)
    mono = np.array([[3.0, 3.0]])
    loss, grad = depth_loss(pm, PoseSE3.identity(), mono)
    # alpha* = (1*3 + 2*3) / (1 + 4) = 1.8, residuals (-1.2, 0.6)
    assert loss == pytest.approx(0.9, abs=1e-12)
    assert grad.shape == (1, 2, 3)
    assert np.all(grad[..., :2] == 0)


def test_align_loss_frozen_example():
    pts_t = np.zeros((1, 2, 3))
    pts_t[0, 0] = [0.0, 0.0, 0.1]
    pts_r = np.zeros((1, 2, 3))
    pts_r[0, 1] = [1.0, 1.0, 1.0]  # unpaired pixel, must not matter
    valid = np.ones((1, 2), bool)
    trk = Pointmap(pts_t, valid, 0, 0, 1)
    rec = Pointmap(pts_r, valid, 0, 1, 1)
    # pair: query at pixel (0, 0) of the anchor, partner pixel 0 of frame 1
    sup = TrackSupervision(
        np.array([[0.5, 0.5]]),
        np.zeros((1, 2, 2)) + 0.5,
        np.ones((1, 2), bool),
        np.array([[-1, 0]], dtype=np.int64),
    )
    loss, g_trk, g_rec, pairs = align_loss(trk, rec, sup)
    assert pairs == 1
    assert loss == pytest.approx(0.01, abs=1e-15)
    np.testing.assert_allclose(g_trk[0, 0], [0, 0, 0.2], atol=1e-15)
    np.testing.assert_allclose(g_rec[0, 0], [0, 0, -0.2], atol=1e-15)
    assert np.all(g_rec[0, 1] == 0)


# ---------------------------------------------------------------------------
# gradient checks against central differences


def test_traj_loss_gradient_fd():
    rng = np.random.default_rng(11)
    for _ in range(5):
        pred = rng.normal(0, 3, (12, 2))
        gt = pred + rng.normal(0, 0.5, (12, 2))
        c = rng.normal(0, 1, 2)
        vis = rng.uniform(size=12) > 0.2
        vis[0] = True
        _, grad, _ = traj_loss(pred, gt, c, vis)
        for n in np.nonzero(vis)[0][:4]:
            for d in range(2):
                p1, p2 = pred.copy(), pred.copy()
                p1[n, d] += FD_STEP
                p2[n, d] -= FD_STEP
                fd = (traj_loss(p1, gt, c, vis)[0] - traj_loss(p2, gt, c, vis)[0]) / (
                    2 * FD_STEP
                )
                assert rel_err(fd, grad[n, d]) < FD_TOL


def test_depth_loss_gradient_fd():
    rng = np.random.default_rng(12)
    pts = rng.normal(0, 0.5, (3, 4, 3)) + np.array([0, 0, 3.0])
    valid = rng.uniform(size=(3, 4)) > 0.2
    valid[0, 0] = True
    pm = Pointmap(pts, valid, 0, 2, 2)
    pose = PoseSE3(np.eye(3), np.array([0.1, -0.2, 0.3]))
    mono = rng.uniform(2.0, 4.0, (3, 4))
    _, grad = depth_loss(pm, pose, mono)
    for r, c in zip(*np.nonzero(valid)):
        for d in range(3):
            delta = np.zeros_like(pts)
            delta[r, c, d] = FD_STEP
            lo = depth_loss(pm.with_points(pts - delta), pose, mono)[0]
            hi = depth_loss(pm.with_points(pts + delta), pose, mono)[0]
            assert rel_err((hi - lo) / (2 * FD_STEP), grad[r, c, d]) < FD_TOL
    assert np.all(grad[~valid] == 0)


def test_align_loss_gradient_fd():
    rng = np.random.default_rng(13)
    pts_t = rng.normal(0, 1, (3, 4, 3))
    pts_r = rng.normal(0, 1, (3, 4, 3))
    valid = np.ones((3, 4), bool)
    n = 5
    queries = np.column_stack(
        [rng.integers(0, 4, n) + 0.5, rng.integers(0, 3, n) + 0.5]
    ).astype(float)
    corr = np.full((n, 2), -1, dtype=np.int64)
    corr[:, 1] = rng.integers(0, 12, n)
    sup = TrackSupervision(
        queries, np.zeros((n, 2, 2)) + 0.5, np.ones((n, 2), bool), corr
    )
    trk = Pointmap(pts_t, valid, 0, 0, 1)
    rec = Pointmap(pts_r, valid, 0, 1, 1)
    _, g_trk, g_rec, pairs = align_loss(trk, rec, sup)
    assert pairs == n
    for pts, grad, rebuild in (
        (pts_t, g_trk, lambda p: align_loss(trk.with_points(p), rec, sup)[0]),
        (pts_r, g_rec, lambda p: align_loss(trk, rec.with_points(p), sup)[0]),
    ):
        for r, c in [(0, 0), (1, 2), (2, 3)]:
            for d in range(3):
                delta = np.zeros_like(pts)
                delta[r, c, d] = FD_STEP
                fd = (rebuild(pts + delta) - rebuild(pts - delta)) / (2 * FD_STEP)
                assert abs(fd - grad[r, c, d]) < FD_TOL * max(1.0, abs(grad[r, c, d]))


def test_total_loss_gradient_fd_frozen_poses():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=2, track_noise=0.05, recon_noise=0.02, seed=21
    )
    weights = LossWeights()
    T = len(tracking)
    breakdown, grads = _total_with_grads(
        tracking, recon, poses, K, sup, mono, weights
    )
    rng = np.random.default_rng(0)

    def fd_check(pms, idx, grad_field):
        pts = np.array(pms[idx].points)
        for _ in range(6):
            r, c = rng.integers(0, H), rng.integers(0, W)
            d = rng.integers(0, 3)
            delta = np.zeros_like(pts)
            delta[r, c, d] = FD_STEP
            alt = list(pms)
            alt[idx] = pms[idx].with_points(pts + delta)
            hi = _total_with_grads(
                alt if pms is tracking else tracking,
                alt if pms is recon else recon,
                poses, K, sup, mono, weights,
            )[0].total
            alt[idx] = pms[idx].with_points(pts - delta)
            lo = _total_with_grads(
                alt if pms is tracking else tracking,
                alt if pms is recon else recon,
                poses, K, sup, mono, weights,
            )[0].total
            fd = (hi - lo) / (2 * FD_STEP)
            analytic = grad_field[idx][r, c, d] / T
            assert rel_err(fd, analytic) < FD_TOL

    g_trk, g_rec, _, _ = grads
    fd_check(tracking, 0, g_trk)
    fd_check(tracking, 1, g_trk)
    fd_check(recon, 0, g_rec)
    fd_check(recon, 1, g_rec)


def test_total_loss_gradient_fd_through_pose():
    """Recon gradient of live adaptation, pose path included, against
    finite differences.

    The pose of frame 1 is re-refined from a fixed detached base each
    evaluation, on the pairs built from the raw point stacks, exactly the
    coupling and the code used by unfrozen adaptation; recon holes check
    that the pose gradient lands on the pixels it came from.
    """
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=2, track_noise=0.03, recon_noise=0.02, seed=22
    )
    valid = np.ones((H, W), dtype=bool)
    valid[2, 1:4] = False
    valid[5, 7] = False
    recon[1] = Pointmap(recon[1].points, valid, 0, 1, 1)
    weights = LossWeights()
    # the refine reads only the pose and inliers of the solved estimate
    _, estimates = solve_cameras_for_video(recon, grid, RansacConfig(seed=5))
    trk, rec, rec_valid, layout = _objective(tracking, recon, K, sup, mono, weights)

    def evaluate(rec):
        pairs = [correspondences_from_points(rec[1].T, rec_valid[1], grid)]
        ests = [estimates[0], gauss_newton_refine(estimates[1], pairs[0][0], K)]
        per_term, grads = _evaluate(layout, trk, rec, *_pose_stack(ests))
        return LossBreakdown.combine(per_term, weights).total, grads, ests, pairs

    _, (_, g_rec, g_R, g_T), ests, pairs = evaluate(rec)
    full_grad = _recon_gradient(g_rec, g_R, g_T, ests, pairs, K)
    assert np.all(full_grad[1][:, ~valid.reshape(-1)] == 0.0)

    rng = np.random.default_rng(1)
    pixels = np.flatnonzero(valid)
    for j in (0, 1, 1, 1, 1, 1, 1, 1):
        p, d = rng.choice(pixels), rng.integers(0, 3)
        delta = np.zeros_like(rec)
        delta[j, d, p] = FD_STEP
        fd = (evaluate(rec + delta)[0] - evaluate(rec - delta)[0]) / (2 * FD_STEP)
        assert rel_err(fd, full_grad[j, d, p]) < FD_TOL


# ---------------------------------------------------------------------------
# the frame-batched objective against a per-frame reference


def reference_objective(tracking, recon, poses, K, sup, mono, weights):
    """Frame-by-frame form of the objective, the loop the batched kernels
    replace: (T, 3) terms, point gradients (T, H, W, 3) of both branches and
    pose gradients (T, 3, 3), (T, 3) of the frames' summed objective."""
    T = len(tracking)
    Hh, Ww = tracking[0].height, tracking[0].width
    center = np.array([Ww / 2.0, Hh / 2.0])
    qc = np.floor(sup.query_pixels[:, 0]).astype(int)
    qr = np.floor(sup.query_pixels[:, 1]).astype(int)
    per_term = np.zeros((T, 3))
    g_trk = np.zeros((T, Hh, Ww, 3))
    g_rec = np.zeros((T, Hh, Ww, 3))
    g_R = np.zeros((T, 3, 3))
    g_T = np.zeros((T, 3))
    for j in range(T):
        R, t = poses[j].rotation, poses[j].translation
        # trajectory term through the projection of the query points
        pts = tracking[j].points[qr, qc]
        Y = pts @ R.T + t
        z = Y[:, 2]
        ok = z > 1e-12
        zs = np.where(ok, z, 1.0)
        pix = np.stack([K.focal * Y[:, 0] / zs + K.cx, K.focal * Y[:, 1] / zs + K.cy], 1)
        vis = sup.visibility[:, j] & tracking[j].valid[qr, qc] & ok
        dp = pix - center
        radius = np.linalg.norm(dp, axis=1)
        used = vis & (radius >= 1e-8)
        n = int(used.sum())
        gt = sup.tracks2d[used, j]
        gu = np.linalg.norm(gt - center, axis=1)
        s = (gu / radius[used]).mean()
        e = dp[used] * s + center - gt
        per_term[j, 0] = np.mean(np.sum(e * e, axis=1))
        beta = 2.0 / n * np.sum(e * dp[used])
        grad_pix = np.zeros_like(pix)
        ds_dp = -(gu / (n * radius[used] ** 3))[:, None] * dp[used]
        grad_pix[used] = (2.0 * s / n) * e + beta * ds_dp
        gp = grad_pix * weights.traj
        grad_Y = np.stack([
            gp[:, 0] * K.focal / zs,
            gp[:, 1] * K.focal / zs,
            -(gp[:, 0] * Y[:, 0] + gp[:, 1] * Y[:, 1]) * K.focal / zs**2,
        ], axis=1)
        np.add.at(g_trk[j], (qr, qc), grad_Y @ R)
        g_R[j] = grad_Y.T @ pts
        g_T[j] = grad_Y.sum(axis=0)
        # depth term with its closed-form scale
        mask = recon[j].valid & mono.valid[j]
        X = recon[j].points[mask]
        zp_all = X @ R[2] + t[2]
        pos = zp_all > 1e-12
        zp, zm = zp_all[pos], mono.depth[j][mask][pos]
        d1, d2 = zp @ zm, zp @ zp
        alpha = d1 / d2
        resid = alpha * zp - zm
        m = zp.shape[0]
        per_term[j, 1] = np.mean(resid * resid)
        full = np.zeros(X.shape[0])
        dalpha = (zm * d2 - 2.0 * zp * d1) / d2**2
        full[pos] = (2.0 * alpha / m) * resid + 2.0 / m * (resid @ zp) * dalpha
        g_rec[j][mask] = weights.depth * full[:, None] * R[2]
        g_R[j, 2] += weights.depth * (full @ X)
        g_T[j, 2] += weights.depth * full.sum()
        # alignment term over the frame's correspondence pairs
        has = sup.correspondence[:, j] >= 0
        rows, cols = qr[has], qc[has]
        r2, c2 = np.divmod(sup.correspondence[has, j], Ww)
        ok2 = tracking[j].valid[rows, cols] & recon[j].valid[r2, c2]
        rows, cols, r2, c2 = rows[ok2], cols[ok2], r2[ok2], c2[ok2]
        diff = tracking[j].points[rows, cols] - recon[j].points[r2, c2]
        per_term[j, 2] = np.sum(diff * diff)
        a_trk = np.zeros((Hh, Ww, 3))
        a_rec = np.zeros((Hh, Ww, 3))
        np.add.at(a_trk, (rows, cols), 2.0 * diff)
        np.add.at(a_rec, (r2, c2), -2.0 * diff)
        g_trk[j] += weights.align * a_trk
        g_rec[j] += weights.align * a_rec
    return per_term, g_trk, g_rec, g_R, g_T


def assert_close(got, want, tol=1e-12):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= tol * scale, np.abs(got - want).max()


def scene_with_repeats(seed, repeats=True):
    """The mini scene with repeated query pixels (or, without ``repeats``,
    a shuffled subset of distinct ones), many queries paired with one recon
    pixel, invalid pixels on both branches, occluded pairs and noisy
    points; a fixed mini-scene pose per frame."""
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=3, track_noise=0.04, recon_noise=0.02, seed=seed
    )
    rng = np.random.default_rng(seed)
    n = sup.num_queries
    if repeats:
        pick = np.concatenate([np.arange(n), rng.choice(n, 12, replace=False)])
    else:
        pick = rng.permutation(n)[: n - 7]
    queries = sup.query_pixels[pick] + 0.25 * (np.arange(len(pick)) >= n)[:, None]
    tracks2d = sup.tracks2d[pick]
    vis = np.array(sup.visibility[pick])
    vis[rng.choice(len(vis), 10, replace=False), 1:] = False
    corr = np.array(sup.correspondence[pick])
    paired = rng.uniform(size=len(corr)) < 0.6
    corr[:, 1] = np.where(paired, rng.integers(0, 5, len(corr)), -1)
    corr[:, 2] = rng.integers(-1, H * W, len(corr))
    sup = TrackSupervision(queries, tracks2d, vis, corr)
    drop = rng.uniform(size=(3, H, W)) < 0.1
    drop[:, 0, 0] = False
    tracking = [pm.with_points(pm.points, pm.valid & ~d) for pm, d in zip(tracking, drop)]
    recon = [pm.with_points(pm.points, pm.valid & ~d) for pm, d in zip(recon, drop[::-1])]
    return K, poses, tracking, recon, sup, mono


@pytest.mark.parametrize("seed, repeats", [(51, True), (52, True), (53, False)])
def test_batched_objective_matches_per_frame_reference(seed, repeats):
    K, poses, tracking, recon, sup, mono = scene_with_repeats(seed, repeats)
    cols, rows = np.floor(sup.query_pixels).astype(int).T
    assert (np.unique(rows * W + cols).size < sup.num_queries) == repeats
    weights = LossWeights(1.3, 7.0, 2.5)
    breakdown, (g_trk, g_rec, g_R, g_T) = _total_with_grads(
        tracking, recon, poses, K, sup, mono, weights
    )
    per_term, r_trk, r_rec, r_R, r_T = reference_objective(
        tracking, recon, poses, K, sup, mono, weights
    )
    assert (per_term[:, 2] > 0).all()
    assert_close(breakdown.per_frame[:, :3], per_term)
    assert_close(g_trk, r_trk)
    assert_close(g_rec, r_rec)
    assert_close(g_R, r_R)
    assert_close(g_T, r_T)


def test_total_loss_raises_for_earliest_failing_frame():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(num_frames=3)
    vis = np.array(sup.visibility)
    vis[:, 2] = False  # frame 2: trajectory term has no pairs
    occluded = TrackSupervision(sup.query_pixels, sup.tracks2d, vis, sup.correspondence)
    valid = np.array(mono.valid)
    valid[1] = False  # frame 1: depth term has no pixels
    no_depth = DepthSupervision(mono.depth, valid)
    with pytest.raises(AllOccluded) as info:
        total_loss(tracking, recon, poses, K, occluded, mono)
    assert info.value.frame == 2
    with pytest.raises(NoOverlap) as info:
        total_loss(tracking, recon, poses, K, occluded, no_depth)
    assert info.value.frame == 1
    # within one frame the trajectory term is checked first
    vis[:, 1] = False
    both = TrackSupervision(sup.query_pixels, sup.tracks2d, vis, sup.correspondence)
    with pytest.raises(AllOccluded) as info:
        total_loss(tracking, recon, poses, K, both, no_depth)
    assert info.value.frame == 1


# ---------------------------------------------------------------------------
# error paths, validation, bookkeeping


def test_traj_loss_error_paths():
    pred = np.array([[1.0, 0.0], [0.0, 0.0]])
    gt = np.ones((2, 2))
    with pytest.raises(AllOccluded):
        traj_loss(pred, gt, np.zeros(2), np.zeros(2, bool))
    # both visible points sit on the center: no usable radius
    with pytest.raises(DegenerateRadius):
        traj_loss(np.zeros((2, 2)), gt, np.zeros(2))
    # one droppable pair, one good pair
    loss, grad, dropped = traj_loss(pred, gt, np.zeros(2))
    assert dropped == 1
    assert np.all(grad[1] == 0)
    with pytest.raises(ShapeMismatch):
        traj_loss(pred, gt[:1], np.zeros(2))


def test_depth_loss_error_paths():
    pts = np.zeros((1, 2, 3))
    pts[0, :, 2] = [1.0, 2.0]
    pm = Pointmap(pts, np.ones((1, 2), bool), 0, 0, 0)
    with pytest.raises(NoOverlap):
        depth_loss(pm, PoseSE3.identity(), np.ones((1, 2)), np.zeros((1, 2), bool))
    behind = PoseSE3(np.eye(3), np.array([0.0, 0.0, -10.0]))
    with pytest.raises(NonPositiveProjectedDepth):
        depth_loss(pm, behind, np.ones((1, 2)))


def test_align_loss_no_pairs_is_zero_with_flag():
    pts = np.random.default_rng(0).normal(0, 1, (2, 2, 3))
    valid = np.ones((2, 2), bool)
    trk = Pointmap(pts, valid, 0, 0, 1)
    rec = Pointmap(pts, valid, 0, 1, 1)
    sup = TrackSupervision(
        np.array([[0.5, 0.5]]),
        np.zeros((1, 2, 2)) + 0.5,
        np.ones((1, 2), bool),
        np.full((1, 2), -1, dtype=np.int64),
    )
    loss, g1, g2, pairs = align_loss(trk, rec, sup)
    assert loss == 0.0 and pairs == 0
    assert not g1.any() and not g2.any()
    with pytest.raises(ValueError):
        align_loss(trk, Pointmap(pts, valid, 0, 0, 0), sup)


def test_track_supervision_validation():
    q = np.array([[0.5, 0.5]])
    t2 = np.zeros((1, 3, 2))
    vis = np.ones((1, 3), bool)
    corr = np.zeros((1, 3), dtype=np.int64)
    TrackSupervision(q, t2, vis, corr)
    bad_vis = vis.copy()
    bad_vis[0, 0] = False
    with pytest.raises(ValueError):
        TrackSupervision(q, t2, bad_vis, corr)
    with pytest.raises(ValueError):
        TrackSupervision(q, t2, vis, corr - 5)
    with pytest.raises(ShapeMismatch):
        TrackSupervision(q, t2[:, :, :1], vis, corr)


def test_breakdown_weighting_invariant():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=3, track_noise=0.04, seed=31
    )
    weights = LossWeights(1.0, 10.0, 5.0)
    b = total_loss(tracking, recon, poses, K, sup, mono, weights)
    assert abs(b.total - (b.traj + 10.0 * b.depth + 5.0 * b.align)) < 1e-12
    assert b.per_frame.shape == (3, 4)
    recombined = (
        weights.traj * b.per_frame[:, 0]
        + weights.depth * b.per_frame[:, 1]
        + weights.align * b.per_frame[:, 2]
    )
    np.testing.assert_allclose(b.per_frame[:, 3], recombined, atol=1e-15)
    assert abs(b.total - b.per_frame[:, 3].mean()) < 1e-12


def test_total_loss_zero_at_truth():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(num_frames=3)
    b = total_loss(tracking, recon, poses, K, sup, mono)
    assert b.total < 1e-20


def test_total_loss_attaches_frame_index():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(num_frames=3)
    vis = np.array(sup.visibility)
    vis[:, 1] = False
    vis[:, 0] = True
    bad = TrackSupervision(sup.query_pixels, sup.tracks2d, vis, sup.correspondence)
    with pytest.raises(AllOccluded) as info:
        total_loss(tracking, recon, poses, K, bad, mono)
    assert info.value.frame == 1
    # a depth map off the grid fails at the first frame, as per-frame
    # evaluation found it
    small = DepthSupervision(mono.depth[:, :-1], mono.valid[:, :-1])
    with pytest.raises(ShapeMismatch) as info:
        total_loss(tracking, recon, poses, K, sup, small)
    assert info.value.frame == 0


def test_reproject_tracks_matches_supervision():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(num_frames=3)
    for j, pose in enumerate(poses):
        pix, vis = reproject_tracks(tracking[j], pose, K, sup.query_pixels)
        assert vis.all()
        np.testing.assert_allclose(pix, sup.tracks2d[:, j], atol=1e-12)


# ---------------------------------------------------------------------------
# test-time adaptation


def test_tta_zero_steps_is_identity():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(num_frames=2)
    state = AdaptState(tracking, recon, steps=0)
    out, trace = tta_optimize(state, sup, mono)
    assert trace == []
    assert out.tracking_params is tracking
    assert out.recon_pointmaps is recon


def test_tta_rejects_negative_steps():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(num_frames=2)
    with pytest.raises(ValueError, match="steps"):
        tta_optimize(AdaptState(tracking, recon, steps=-1), sup, mono)


def test_tta_frozen_reduces_loss_and_preserves_recon():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=3, track_noise=0.05, seed=41
    )
    state = AdaptState(tracking, recon, freeze_recon=True, step_size=1e-2, steps=120)
    out, trace = tta_optimize(state, sup, mono)
    assert len(trace) == 121
    assert trace[-1].total < 0.5 * trace[0].total
    # frozen side returns the very same objects
    for before, after in zip(recon, out.recon_pointmaps):
        assert after is before
    # adapted maps moved toward the clean content
    clean = make_mini_scene(num_frames=3)[3]
    before_err = sum(
        np.abs(a.points - b.points).mean() for a, b in zip(tracking, clean)
    )
    after_err = sum(
        np.abs(a.points - b.points).mean()
        for a, b in zip(out.tracking_params, clean)
    )
    assert after_err < before_err


def test_tta_is_deterministic():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=2, track_noise=0.05, seed=42
    )
    state = AdaptState(tracking, recon, steps=10)
    out1, trace1 = tta_optimize(state, sup, mono)
    out2, trace2 = tta_optimize(state, sup, mono)
    for a, b in zip(out1.tracking_params, out2.tracking_params):
        assert np.array_equal(a.points, b.points)
    assert [t.total for t in trace1] == [t.total for t in trace2]


def test_tta_divergence_guard():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=2, track_noise=0.05, seed=43
    )
    state = AdaptState(tracking, recon, step_size=50.0, steps=200)
    with pytest.raises(DivergenceDetected):
        tta_optimize(state, sup, mono)


@pytest.mark.parametrize("freeze", [True, False])
@pytest.mark.parametrize("step_size", [np.nan, np.inf])
def test_tta_non_finite_step_is_divergence(freeze, step_size):
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=2, track_noise=0.05, recon_noise=0.02, seed=45
    )
    state = AdaptState(tracking, recon, freeze_recon=freeze, step_size=step_size, steps=5)
    with pytest.raises(DivergenceDetected, match="step 1"):
        tta_optimize(state, sup, mono)


def test_tta_unfrozen_updates_recon_and_decreases():
    K, grid, poses, tracking, recon, sup, mono = make_mini_scene(
        num_frames=3, track_noise=0.04, recon_noise=0.02, seed=44
    )
    state = AdaptState(
        tracking, recon, freeze_recon=False, step_size=5e-3, steps=25
    )
    out, trace = tta_optimize(state, sup, mono)
    assert len(trace) == 26
    assert trace[-1].total < trace[0].total
    moved = any(
        not np.array_equal(a.points, b.points)
        for a, b in zip(recon, out.recon_pointmaps)
    )
    assert moved


def test_loss_weight_validation():
    with pytest.raises(ValueError):
        LossWeights(-1.0, 10.0, 5.0)
