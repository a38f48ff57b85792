import numpy as np
import pytest
from conftest import make_pnp_instance, random_pose, so3_exp_jac

from worldtrack import camera
from worldtrack.camera import (
    GN_DAMPING,
    PREEMPTIVE_SUBSET,
    RANSAC_MAX_ITERATIONS,
    Correspondences2D3D,
    PoseEstimate,
    RansacConfig,
    _apply_increment,
    _dlt_poses,
    _gn_terms,
    _iterations_needed,
    _minimal_poses,
    _projection_terms,
    _reproj_errors_many,
    _so3_exp_vjp,
    correspondences_from_pointmap,
    correspondences_from_points,
    estimate_focal_weiszfeld,
    gauss_newton_refine,
    pose_gradient_wrt_points,
    solve_cameras_for_video,
    solve_pnp_ransac,
)
from worldtrack.errors import (
    DegenerateGeometry,
    InsufficientValidPoints,
    NoConsensus,
    TooFewCorrespondences,
)
from worldtrack.geometry import (
    Intrinsics,
    PixelGrid,
    Pointmap,
    PoseSE3,
    backproject,
    so3_exp,
)
from worldtrack.oracle import SceneSpec, corrupt, generate_sequence


def plane_pointmap(focal, width=32, height=24, z=2.0, tilt=(0.0, 0.0)):
    """Anchor self-view pointmap of a (possibly tilted) plane."""
    grid = PixelGrid.create(width, height)
    K = Intrinsics(focal, width / 2.0, height / 2.0)
    u = grid.coords[..., 0] - K.cx
    v = grid.coords[..., 1] - K.cy
    depth = z + tilt[0] * u + tilt[1] * v
    pts = backproject(K, grid.coords, depth)
    pm = Pointmap(pts, np.ones((height, width), dtype=bool), 0, 0, 0)
    return pm, grid


# ---- focal estimation ----

def test_weiszfeld_exact_on_plane():
    for f in (500.0, 80.0, 1.0):
        pm, grid = plane_pointmap(f)
        K = estimate_focal_weiszfeld(pm, grid)
        assert abs(K.focal - f) / f < 1e-9
        assert K.cx == grid.width / 2.0 and K.cy == grid.height / 2.0


def test_weiszfeld_exact_on_tilted_plane():
    pm, grid = plane_pointmap(60.0, z=3.0, tilt=(0.004, -0.006))
    K = estimate_focal_weiszfeld(pm, grid)
    assert abs(K.focal - 60.0) / 60.0 < 1e-9


def test_weiszfeld_robust_to_outlier_depths():
    rng = np.random.default_rng(0)
    pm, grid = plane_pointmap(500.0, width=64, height=48)
    pts = np.array(pm.points)
    n_out = int(0.10 * pts.shape[0] * pts.shape[1])
    rows = rng.integers(0, pts.shape[0], n_out)
    cols = rng.integers(0, pts.shape[1], n_out)
    pts[rows, cols, 2] *= rng.uniform(0.2, 4.0, n_out)
    noisy = pm.with_points(pts)
    K = estimate_focal_weiszfeld(noisy, grid)
    assert abs(K.focal - 500.0) / 500.0 < 0.01


def test_weiszfeld_degenerate_and_sparse_inputs():
    grid = PixelGrid.create(8, 6)
    axial = np.zeros((6, 8, 3))
    axial[..., 2] = 2.0  # every ray through the optical axis
    pm = Pointmap(axial, np.ones((6, 8), dtype=bool), 0, 0, 0)
    with pytest.raises(DegenerateGeometry):
        estimate_focal_weiszfeld(pm, grid)
    sparse_valid = np.zeros((6, 8), dtype=bool)
    sparse_valid[0, :4] = True
    pm2 = Pointmap(np.ones((6, 8, 3)), sparse_valid, 0, 0, 0)
    with pytest.raises(InsufficientValidPoints):
        estimate_focal_weiszfeld(pm2, grid)


def test_weiszfeld_rejects_later_frame_content():
    pm, grid = plane_pointmap(100.0)
    later = Pointmap(pm.points, pm.valid, coord_frame=0, content_frame=0, time=3)
    with pytest.raises(DegenerateGeometry):
        estimate_focal_weiszfeld(later, grid)


# ---- RANSAC PnP ----

def pose_errors(a: PoseSE3, b: PoseSE3):
    from scipy.spatial.transform import Rotation

    angle = Rotation.from_matrix(a.rotation @ b.rotation.T).magnitude()
    return angle, np.linalg.norm(a.translation - b.translation)


def test_pnp_exact_on_clean_data():
    rng = np.random.default_rng(4)
    for _ in range(10):
        K, pose, corr = make_pnp_instance(rng, n=60)
        est = solve_pnp_ransac(corr, K, RansacConfig(seed=1))
        ang, dt = pose_errors(est.pose, pose)
        assert ang < 1e-8 and dt < 1e-8
        assert est.inliers.all()
        assert est.rms_reprojection_error < 1e-9


def with_outliers(rng, corr, fraction):
    """Shift a fraction of the pixels by 5-25 px; returns pairs and outlier ids."""
    n = len(corr)
    pix = np.array(corr.pixels)
    out_idx = rng.choice(n, int(fraction * n), replace=False)
    shift = rng.uniform(5.0, 25.0, size=(out_idx.size, 2))
    pix[out_idx] += shift * rng.choice([-1, 1], (out_idx.size, 2))
    return Correspondences2D3D(pix, corr.points), out_idx


def test_pnp_with_outliers():
    rng = np.random.default_rng(8)
    for trial in range(5):
        K, pose, corr = make_pnp_instance(rng, n=80)
        bad, out_idx = with_outliers(rng, corr, 0.3)
        est = solve_pnp_ransac(bad, K, RansacConfig(seed=trial))
        ang, dt = pose_errors(est.pose, pose)
        assert ang < 1e-6 and dt < 1e-6, f"trial {trial}: {ang}, {dt}"
        inlier_set = set(np.nonzero(est.inliers)[0])
        assert inlier_set == set(range(80)) - set(out_idx)


def test_pnp_deterministic_for_fixed_seed():
    rng = np.random.default_rng(10)
    K, _, corr = make_pnp_instance(rng, n=50)
    a = solve_pnp_ransac(corr, K, RansacConfig(seed=7))
    b = solve_pnp_ransac(corr, K, RansacConfig(seed=7))
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.pose.translation, b.pose.translation)
    assert np.array_equal(a.inliers, b.inliers)


def test_pnp_error_cases():
    rng = np.random.default_rng(2)
    K, _, corr = make_pnp_instance(rng, n=5)
    with pytest.raises(TooFewCorrespondences):
        solve_pnp_ransac(corr, K)
    # all points behind every hypothesis: no consensus possible
    K2, pose2, corr2 = make_pnp_instance(rng, n=12)
    behind = Correspondences2D3D(corr2.pixels, pose2.inverse().apply(
        backproject(K2, corr2.pixels, -np.abs(np.random.default_rng(0).uniform(1, 3, 12)))
    ))
    with pytest.raises(NoConsensus):
        solve_pnp_ransac(behind, K2)


def test_ransac_bound_survives_tiny_inlier_ratio():
    # ratio**6 = 1e-18 rounds 1 - hit to 1, which once gave log(1) = 0
    assert _iterations_needed(1e-3) == RANSAC_MAX_ITERATIONS == 256
    assert _iterations_needed(0.0) == RANSAC_MAX_ITERATIONS
    assert _iterations_needed(1.0) == 0
    assert _iterations_needed(0.9) == int(np.ceil(np.log(1e-3) / np.log(1 - 0.9**6)))


def test_pnp_preemptive_scoring_on_large_instance():
    rng = np.random.default_rng(21)
    K, pose, corr = make_pnp_instance(rng, n=5000)
    assert len(corr) > PREEMPTIVE_SUBSET
    bad, out_idx = with_outliers(rng, corr, 0.3)
    est = solve_pnp_ransac(bad, K, RansacConfig(seed=3))
    ang, dt = pose_errors(est.pose, pose)
    assert ang < 1e-6 and dt < 1e-6
    expected = np.ones(len(corr), dtype=bool)
    expected[out_idx] = False
    assert np.array_equal(est.inliers, expected)
    again = solve_pnp_ransac(bad, K, RansacConfig(seed=3))
    assert np.array_equal(again.pose.rotation, est.pose.rotation)
    assert np.array_equal(again.pose.translation, est.pose.translation)
    assert np.array_equal(again.inliers, est.inliers)


def dlt_pose_reference(points, norm_pix):
    """Per-sample DLT, the scalar form the stacked solver must reproduce."""
    centroid = points.mean(axis=0)
    spread = np.linalg.norm(points - centroid, axis=1).mean()
    if spread < 1e-9:
        return None
    s = np.sqrt(3.0) / spread
    Xn = (points - centroid) * s
    n = points.shape[0]
    A = np.zeros((2 * n, 12))
    A[0::2, 0:3] = Xn
    A[0::2, 3] = 1.0
    A[0::2, 8:11] = -norm_pix[:, 0:1] * Xn
    A[0::2, 11] = -norm_pix[:, 0]
    A[1::2, 4:7] = Xn
    A[1::2, 7] = 1.0
    A[1::2, 8:11] = -norm_pix[:, 1:2] * Xn
    A[1::2, 11] = -norm_pix[:, 1]
    _, sv, Vt = np.linalg.svd(A, full_matrices=False)
    if sv[-2] < 1e-9 * max(sv[0], 1.0):
        return None
    T = np.eye(4)
    T[:3, :3] *= s
    T[:3, 3] = -s * centroid
    M = Vt[-1].reshape(3, 4) @ T
    det = np.linalg.det(M[:, :3])
    if abs(det) < 1e-12:
        return None
    if det < 0:
        M = -M
    U, sing, Vt3 = np.linalg.svd(M[:, :3])
    lam = sing.mean()
    if lam < 1e-12:
        return None
    R = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt3)]) @ Vt3
    t = M[:, 3] / lam
    if not (np.isfinite(R).all() and np.isfinite(t).all()):
        return None
    return R, t


def test_batched_dlt_matches_scalar_solver():
    rng = np.random.default_rng(30)
    K, pose, corr = make_pnp_instance(rng, n=60)
    norm_pix = (corr.pixels - np.array([K.cx, K.cy])) / K.focal
    samples = [rng.choice(60, 6, replace=False) for _ in range(40)]
    pts = [corr.points[i] for i in samples]
    pix = [norm_pix[i] for i in samples]
    # coplanar samples: six world points on one plane, seen exactly
    for _ in range(8):
        plane = rng.uniform(-1, 1, (6, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)
        cam = pose.apply(plane)
        pts.append(plane)
        pix.append(cam[:, :2] / cam[:, 2:3])
    pts.append(np.repeat(corr.points[:1], 6, axis=0))  # no spread at all
    pix.append(norm_pix[:6])
    R, t, ok = _dlt_poses(np.stack(pts), np.stack(pix))
    accepted = 0
    for j in range(len(pts)):
        ref = dlt_pose_reference(pts[j], pix[j])
        assert ok[j] == (ref is not None), f"sample {j}"
        if ref is not None:
            accepted += 1
            assert np.abs(R[j] - ref[0]).max() < 1e-12
            assert np.abs(t[j] - ref[1]).max() < 1e-12
    assert accepted == 40 and not ok[40:].any()


def test_minimal_poses_solve_planar_samples_by_homography():
    rng = np.random.default_rng(31)
    K, pose, corr = make_pnp_instance(rng, n=60)
    norm_pix = (corr.pixels - np.array([K.cx, K.cy])) / K.focal
    pts = [corr.points[rng.choice(60, 6, replace=False)] for _ in range(6)]
    for off_plane in (0.0, 1e-5, 1e-4):
        for _ in range(4):
            # six pixels on a tilted plane 2-4 m ahead, pushed off it a little
            normal = np.array([*rng.normal(0.0, 0.3, 2), 1.0])
            normal /= np.linalg.norm(normal)
            rays = backproject(K, rng.uniform((2.0, 2.0), (62.0, 46.0), (6, 2)), np.ones(6))
            cam = rays * (rng.uniform(2.0, 4.0) / (rays @ normal))[:, None]
            cam += off_plane * rng.normal(size=(6, 1)) * normal
            pts.append(pose.inverse().apply(cam))
    line = rng.uniform(-1, 1, (6, 1)) * np.array([0.3, 0.2, 0.1]) + np.array([0, 0, 3.0])
    pts.append(pose.inverse().apply(line))  # collinear: no homography either
    pts = np.stack(pts)
    cam = pts @ pose.rotation.T + pose.translation
    pix = cam[:, :, :2] / cam[:, :, 2:3]
    R, t, ok = _minimal_poses(pts, pix)
    # non-planar samples go through the DLT unchanged
    R_dlt, t_dlt, ok_dlt = _dlt_poses(pts[:6], pix[:6])
    assert ok_dlt.all() and np.array_equal(R[:6], R_dlt) and np.array_equal(t[:6], t_dlt)
    # exactly and nearly coplanar samples are solved, not rejected
    assert ok[6:-1].all() and not ok[-1]
    for j in range(6, len(pts) - 1):
        ang, dt = pose_errors(PoseSE3(R[j], t[j]), pose)
        tol = 1e-9 if j < 10 else 1e-2
        assert ang < tol and dt < tol, f"sample {j}: {ang:.2e} rad, {dt:.2e} m"


def test_pnp_on_noisy_plane():
    rng = np.random.default_rng(32)
    K = Intrinsics(80.0, 32.0, 24.0)
    pose = random_pose(rng, max_angle=0.3)
    normal = np.array([0.1, -0.2, 1.0]) / np.linalg.norm([0.1, -0.2, 1.0])
    n = 400
    pix = np.column_stack([rng.uniform(2.0, 62.0, n), rng.uniform(2.0, 46.0, n)])
    rays = backproject(K, pix, np.ones(n))
    # a tilted plane 3 m ahead, points pushed 2 mm off it at random
    depth = 3.0 / (rays @ normal)
    cam = rays * depth[:, None] + rng.normal(0.0, 2e-3, (n, 1)) * normal
    corr = Correspondences2D3D(pix, pose.inverse().apply(cam))
    est = solve_pnp_ransac(corr, K, RansacConfig(seed=4))
    ang, dt = pose_errors(est.pose, pose)
    assert ang < 1e-2 and dt < 1e-2, f"{ang:.2e} rad, {dt:.2e} m"
    assert est.inliers.mean() > 0.9


# ---- Gauss-Newton refinement ----

def perturbed_estimate(pose: PoseSE3, corr, rng, scale=0.03) -> PoseEstimate:
    twist = rng.normal(size=6) * scale
    rough = PoseSE3(*_apply_increment(twist, pose.rotation, pose.translation))
    return PoseEstimate(rough, np.ones(len(corr), dtype=bool), np.nan, rough)


def reproj_errors(pose: PoseSE3, K, corr) -> np.ndarray:
    return _reproj_errors_many(pose.rotation[None], pose.translation[None], K, corr)[0]


def refine_steps(est: PoseEstimate, corr, K, steps: int) -> PoseEstimate:
    """Chain single Gauss-Newton steps, each from the previous pose."""
    for _ in range(steps):
        est = gauss_newton_refine(est, corr, K)
    return est


def test_gn_converges_on_clean_data():
    rng = np.random.default_rng(3)
    K, pose, corr = make_pnp_instance(rng, n=40)
    detached = perturbed_estimate(pose, corr, rng)
    est = refine_steps(detached, corr, K, 6)
    ang, dt = pose_errors(est.pose, pose)
    assert ang < 1e-9 and dt < 1e-9
    assert est.rms_reprojection_error < 1e-10
    # the step from the stored base reproduces the pose
    base = est.base_pose
    delta = _gn_terms(base.rotation, base.translation, corr, K, est.inliers)[0]
    R, t = _apply_increment(delta, base.rotation, base.translation)
    assert np.allclose(R, est.pose.rotation, atol=1e-15)
    assert np.allclose(t, est.pose.translation, atol=1e-15)


def test_gn_steps_do_not_increase_residuals():
    rng = np.random.default_rng(5)
    for _ in range(10):
        K, pose, corr = make_pnp_instance(rng, n=30)
        est = perturbed_estimate(pose, corr, rng, scale=0.05)
        prev = np.sum(reproj_errors(est.pose, K, corr) ** 2)
        for _ in range(4):
            est = gauss_newton_refine(est, corr, K)
            cost = np.sum(reproj_errors(est.pose, K, corr) ** 2)
            assert cost <= prev * (1 + 1e-12)
            prev = cost


def test_gn_first_order_optimality():
    rng = np.random.default_rng(6)
    K, pose, corr = make_pnp_instance(rng, n=35)
    detached = perturbed_estimate(pose, corr, rng)
    est = refine_steps(detached, corr, K, 8)
    _, _, (_, _, w, _, _, J, r) = _gn_terms(est.pose.rotation, est.pose.translation, corr, K, True)
    grad = np.einsum("n,nij,ni->j", w, J, r)
    assert np.abs(grad).max() < 1e-6


def test_projection_jacobian_matches_central_differences():
    rng = np.random.default_rng(9)
    K, pose, corr = make_pnp_instance(rng, n=30)
    pts = np.array(corr.points)
    # rows 0-2 behind the camera, row 3 on its plane
    cam = pose.apply(pts)
    cam[:3, 2] *= -1.0
    cam[3, 2] = 0.0
    corr = Correspondences2D3D(corr.pixels, pose.inverse().apply(cam))
    R, t = pose.rotation, pose.translation
    _, _, wt, _, _, J, r = _projection_terms(R, t, corr, K, True)
    h = 1e-6
    fd = np.zeros_like(J)
    for k in range(6):
        step = np.zeros(6)
        step[k] = h
        hi = _projection_terms(*_apply_increment(step, R, t), corr, K, True)[6]
        lo = _projection_terms(*_apply_increment(-step, R, t), corr, K, True)[6]
        fd[:, :, k] = (hi - lo) / (2 * h)
    front = np.arange(4, 30)
    scale = np.abs(J[front]).max()
    assert np.abs(J[front] - fd[front]).max() < 1e-6 * scale
    assert np.all(J[:4] == 0.0) and not wt[:4].any() and wt[4:].all()
    assert r.shape == (30, 2) and np.isfinite(r).all()


# ---- differentiable increment ----

def linear_pose_loss(gR, gT):
    def value(p: PoseSE3) -> float:
        return float(np.sum(gR * p.rotation) + gT @ p.translation)
    return value


def fd_point_gradient(detached, corr, K, loss, idx, h=1e-5):
    """Central differences through the full refine call, base pose fixed."""
    grads = np.zeros((len(idx), 3))
    for row, n in enumerate(idx):
        for k in range(3):
            shifted = np.array(corr.points)
            shifted[n, k] += h
            hi = loss(gauss_newton_refine(
                detached, Correspondences2D3D(corr.pixels, shifted), K
            ).pose)
            shifted[n, k] -= 2 * h
            lo = loss(gauss_newton_refine(
                detached, Correspondences2D3D(corr.pixels, shifted), K
            ).pose)
            grads[row, k] = (hi - lo) / (2 * h)
    return grads


def test_pose_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    worst = 0.0
    for trial in range(12):
        K, pose, corr = make_pnp_instance(rng, n=24)
        detached = perturbed_estimate(pose, corr, rng, scale=0.04)
        est = gauss_newton_refine(detached, corr, K)
        gR, gT = rng.normal(size=(3, 3)), rng.normal(size=3)
        analytic = pose_gradient_wrt_points(est, corr, K, (gR, gT))
        pick = rng.choice(len(corr), 5, replace=False)
        fd = fd_point_gradient(detached, corr, K, linear_pose_loss(gR, gT), pick)
        for row, n in enumerate(pick):
            denom = max(np.linalg.norm(fd[row]), 1e-8)
            rel = np.linalg.norm(analytic[n] - fd[row]) / denom
            worst = max(worst, rel)
    assert worst < 1e-4, f"max relative error {worst:.3e}"


def behind_camera(pose: PoseSE3, corr, rows) -> Correspondences2D3D:
    """The pairs with the given rows mirrored to negative depth under pose."""
    cam = pose.apply(np.array(corr.points))
    cam[rows, 2] *= -1.0
    return Correspondences2D3D(corr.pixels, pose.inverse().apply(cam))


def test_pose_gradient_behind_camera_and_non_inlier_rows():
    rng = np.random.default_rng(13)
    K, pose, corr = make_pnp_instance(rng, n=20)
    corr = behind_camera(pose, corr, [3])
    detached = perturbed_estimate(pose, corr, rng)
    mask = np.ones(20, dtype=bool)
    mask[7] = False
    detached = PoseEstimate(detached.pose, mask, np.nan, detached.pose)
    est = gauss_newton_refine(detached, corr, K)
    grads = pose_gradient_wrt_points(est, corr, K, (rng.normal(size=(3, 3)), rng.normal(size=3)))
    assert np.all(grads[3] == 0.0), "a row behind the camera must carry no gradient"
    assert np.all(grads[7] == 0.0), "non-inlier row must carry no gradient"
    assert np.any(grads[0] != 0.0)


def pose_gradient_reference(est, corr, K, gR, gT):
    """The adjoint through the factored Jacobian J = -A B (A: d pixel / d Y,
    B: d Y / d twist), the form the closed-form adjoint must reproduce."""
    pixels, points = corr.pixels[est.inliers], corr.points[est.inliers]
    base, damping = est.base_pose, GN_DAMPING
    Y = points @ base.rotation.T + base.translation
    x, y, z = Y.T
    w = (z > 0).astype(float)
    f = K.focal
    zero = np.zeros_like(z)
    A = np.stack([np.stack([f / z, zero, -f * x / z**2], 1),
                  np.stack([zero, f / z, -f * y / z**2], 1)], 1)
    B = np.zeros((len(points), 3, 6))
    B[:, :, :3] = -np.stack([np.stack([zero, -z, y], 1), np.stack([z, zero, -x], 1),
                             np.stack([-y, x, zero], 1)], 1)
    B[:, :, 3:] = np.eye(3)
    J = -np.einsum("nij,njk->nik", A, B)
    r = pixels - np.stack([f * x / z + K.cx, f * y / z + K.cy], 1)
    H = np.einsum("n,nij,nik->jk", w, J, J)
    H += damping * np.trace(H) / 6.0 * np.eye(6)
    delta = -np.linalg.solve(H, np.einsum("n,nij,ni->j", w, J, r))
    G_E = gR @ base.rotation.T + np.outer(gT, base.translation)
    grad_delta = np.concatenate([np.einsum("ijk,jk->i", so3_exp_jac(delta[:3]), G_E), gT])
    q = -np.linalg.solve(H, grad_delta)
    grad_H = np.outer(q, delta)
    S = grad_H + damping / 6.0 * np.trace(grad_H) * np.eye(6)
    S = S + S.T
    grad_J = np.einsum("n,ni,j->nij", w, r, q) + np.einsum("n,nij,jk->nik", w, J, S)
    grad_A = -np.einsum("nij,nkj->nik", grad_J, B)
    C = -np.einsum("nji,njk->nik", A, grad_J)
    grad_Y = np.stack([C[:, 1, 2] - C[:, 2, 1], C[:, 2, 0] - C[:, 0, 2],
                       C[:, 0, 1] - C[:, 1, 0]], 1)
    grad_Y[:, 0] -= grad_A[:, 0, 2] * f / z**2
    grad_Y[:, 1] -= grad_A[:, 1, 2] * f / z**2
    grad_Y[:, 2] += (2 * f / z**3) * (grad_A[:, 0, 2] * x + grad_A[:, 1, 2] * y)
    grad_Y[:, 2] -= (grad_A[:, 0, 0] + grad_A[:, 1, 1]) * f / z**2
    grad_Y -= np.einsum("nij,ni->nj", A, w[:, None] * np.einsum("nij,j->ni", J, q))
    out = np.zeros((len(corr), 3))
    out[est.inliers] = grad_Y @ base.rotation
    return out


def test_masked_refine_equals_the_step_on_the_subset():
    rng = np.random.default_rng(15)
    K, pose, corr = make_pnp_instance(rng, n=40)
    corr = behind_camera(pose, corr, [4])
    pixels = np.array(corr.pixels)
    pixels[9, 0] += 1e3
    corr = Correspondences2D3D(pixels, corr.points)
    rough = perturbed_estimate(pose, corr, rng).pose
    mask = rng.random(40) > 0.25
    mask[[4, 9]] = False
    masked = gauss_newton_refine(PoseEstimate(rough, mask, np.nan, rough), corr, K)
    sub = Correspondences2D3D(corr.pixels[mask], corr.points[mask])
    every = np.ones(len(sub), dtype=bool)
    explicit = gauss_newton_refine(PoseEstimate(rough, every, np.nan, rough), sub, K)
    assert np.abs(masked.pose.rotation - explicit.pose.rotation).max() < 1e-12
    assert np.abs(masked.pose.translation - explicit.pose.translation).max() < 1e-12
    assert abs(masked.rms_reprojection_error - explicit.rms_reprojection_error) < 1e-12
    upstream = (rng.normal(size=(3, 3)), rng.normal(size=3))
    got = pose_gradient_wrt_points(masked, corr, K, upstream)
    ref = pose_gradient_wrt_points(explicit, sub, K, upstream)
    assert np.abs(got[mask] - ref).max() < 1e-12 * np.abs(ref).max()
    assert np.all(got[~mask] == 0.0)


@pytest.mark.parametrize("size", [0.0, 1e-8, 2e-7, 1.0])
def test_closed_form_rotation_pullback(size):
    # 1e-8 uses the series limits, 2e-7 the closed form just past them
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(5):
        direction = rng.normal(size=3)
        omega = direction * (size * rng.uniform(0.5, 1.5) / np.linalg.norm(direction))
        G = rng.normal(size=(3, 3))
        got = _so3_exp_vjp(omega, G)
        fd = np.array([
            np.sum(G * (so3_exp(omega + h * e) - so3_exp(omega - h * e))) / (2 * h)
            for e in np.eye(3)
        ])
        assert np.abs(got - fd).max() < 1e-8, f"{got} vs {fd}"
        # near the origin the per-axis reference keeps only its first-order
        # term (1e-8) or loses digits to cancellation (2e-7)
        ref = np.einsum("ijk,jk->i", so3_exp_jac(omega), G)
        assert np.abs(got - ref).max() < (1e-7 if 0.0 < size < 1e-6 else 1e-12)


def test_pose_gradient_matches_factored_reference():
    rng = np.random.default_rng(14)
    for _ in range(4):
        K, pose, corr = make_pnp_instance(rng, n=40)
        corr = behind_camera(pose, corr, [5])
        detached = perturbed_estimate(pose, corr, rng, scale=0.05)
        mask = rng.random(40) > 0.2
        detached = PoseEstimate(detached.pose, mask, np.nan, detached.pose)
        est = gauss_newton_refine(detached, corr, K)
        gR, gT = rng.normal(size=(3, 3)), rng.normal(size=3)
        got = pose_gradient_wrt_points(est, corr, K, (gR, gT))
        ref = pose_gradient_reference(est, corr, K, gR, gT)
        assert np.abs(got - ref).max() < 1e-9 * np.abs(ref).max()


# ---- whole-video solving ----

def build_recon_video(rng, T=5, width=24, height=18, focal=30.0, static=False):
    """On-ray reconstruction pointmaps for a smooth camera path."""
    grid = PixelGrid.create(width, height)
    K = Intrinsics(focal, width / 2.0, height / 2.0)
    u = grid.coords[..., 0] / width
    v = grid.coords[..., 1] / height
    cams, pms = [], []
    for t in range(T):
        if static or t == 0:
            cam = PoseSE3.identity()
        else:
            cam = PoseSE3(
                so3_exp(np.array([0.002, 0.004, 0.001]) * t),
                np.array([0.02, -0.01, 0.015]) * t,
            )
        depth = 2.0 + 0.8 * np.sin(3.0 * u + 0.2 * t) + 0.5 * np.cos(4.0 * v - 0.1 * t)
        world = cam.inverse().apply(backproject(K, grid.coords, depth))
        pms.append(Pointmap(world, np.ones((height, width), dtype=bool), 0, t, t))
        cams.append(cam)
    return K, cams, pms, grid


def test_solve_cameras_recovers_moving_path():
    rng = np.random.default_rng(1)
    K, cams, pms, grid = build_recon_video(rng)
    K_est, ests = solve_cameras_for_video(pms, grid)
    assert abs(K_est.focal - K.focal) / K.focal < 1e-3
    for t, (cam, est) in enumerate(zip(cams, ests)):
        ang, dt = pose_errors(est.pose, cam)
        assert ang < 1e-4 and dt < 1e-4, f"frame {t}: {ang:.2e} rad, {dt:.2e} m"
    assert np.array_equal(ests[0].pose.rotation, np.eye(3))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("preset", ["orbit-dynamic", "degenerate-planar"])
def test_solve_cameras_on_noisy_recon_maps(preset, seed):
    # 3 mm recon noise at 256x192: every frame has far more pairs than the
    # preemptive subset, so RANSAC polishes on the subset alone
    spec = SceneSpec(preset, width=256, height=192, num_frames=6, focal=320.0, seed=seed)
    seq = generate_sequence(spec)
    noisy = corrupt(seq, noise=0.003, targets=("recon",), seed=seed + 1)
    _, ests = solve_cameras_for_video(noisy.recon_pointmaps, PixelGrid.create(256, 192))
    for t, (cam, est) in enumerate(zip(seq.cameras, ests)):
        assert est.inliers.size > PREEMPTIVE_SUBSET
        assert est.inliers.mean() >= 0.99, f"frame {t}: inlier ratio {est.inliers.mean():.4f}"
        ang, dt = pose_errors(est.pose, cam)
        assert ang < 1e-3 and dt < 3e-3, f"frame {t}: {ang:.2e} rad, {dt:.2e} m"


def test_full_set_is_linearised_once_per_frame(monkeypatch):
    rng = np.random.default_rng(4)
    K, cams, pms, grid = build_recon_video(rng, width=48, height=32, focal=60.0)
    assert grid.width * grid.height > PREEMPTIVE_SUBSET
    sizes = []
    gn_terms, ransac = camera._gn_terms, camera.solve_pnp_ransac

    def counted_gn_terms(R, t, corr, K, mask):
        sizes[-1].append(len(corr))
        return gn_terms(R, t, corr, K, mask)

    def frame_ransac(*args):
        sizes.append([])
        return ransac(*args)

    monkeypatch.setattr(camera, "_gn_terms", counted_gn_terms)
    monkeypatch.setattr(camera, "solve_pnp_ransac", frame_ransac)
    _, ests = solve_cameras_for_video(pms, grid)
    assert len(sizes) == len(pms) - 1
    for t, frame in enumerate(sizes, start=1):
        assert sum(m > PREEMPTIVE_SUBSET for m in frame) == 1, f"frame {t}: {frame}"
    for cam, est in zip(cams, ests):
        ang, dt = pose_errors(est.pose, cam)
        assert ang < 1e-6 and dt < 1e-6


def test_solve_builds_a_validated_pose_per_returned_estimate(monkeypatch):
    rng = np.random.default_rng(4)
    _, _, pms, grid = build_recon_video(rng, width=48, height=32, focal=60.0)
    built = []
    validate = PoseSE3.__post_init__

    def counted(pose):
        built.append(1)
        validate(pose)

    monkeypatch.setattr(PoseSE3, "__post_init__", counted)
    solve_cameras_for_video(pms, grid)
    # the RANSAC winner and the refined pose, plus frame 0's identity
    assert len(built) <= 3 * (len(pms) - 1), len(built)


def test_solve_cameras_static_video_is_identity():
    rng = np.random.default_rng(2)
    K, cams, pms, grid = build_recon_video(rng, static=True)
    _, ests = solve_cameras_for_video(pms, grid)
    for est in ests:
        ang, dt = pose_errors(est.pose, PoseSE3.identity())
        assert ang < 1e-6 and dt < 1e-6


def test_solve_cameras_attaches_frame_index():
    rng = np.random.default_rng(3)
    K, cams, pms, grid = build_recon_video(rng)
    starved = np.zeros((grid.height, grid.width), dtype=bool)
    starved[0, :4] = True
    pms[2] = Pointmap(pms[2].points, starved, 0, 2, 2)
    with pytest.raises(TooFewCorrespondences) as info:
        solve_cameras_for_video(pms, grid)
    assert info.value.frame == 2


def test_internal_subsets_are_frozen_and_public_pairs_are_copied():
    rng = np.random.default_rng(33)
    pix, pts = rng.uniform(0, 10, (8, 2)), rng.normal(size=(8, 3))
    corr = Correspondences2D3D(pix, pts)
    pix[0], pts[0] = -1.0, -1.0
    assert (corr.pixels[0] != -1.0).all() and (corr.points[0] != -1.0).all()
    # a frame's valid pixels become pairs that are frozen, not copied again
    keep = np.array([True, False] * 4)
    sub, _ = correspondences_from_points(pts, keep, PixelGrid.create(4, 2))
    assert np.array_equal(sub.points, pts[keep])
    assert not any(a.flags.writeable for a in (sub.pixels, sub.points))
    with pytest.raises(ValueError):
        Correspondences2D3D(pix, pts[:5])
    # pairs outside an inlier mask are weighted out, which needs finite values
    for bad in (np.nan, np.inf):
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Correspondences2D3D(pix, pts)


def test_correspondences_from_pointmap_indexing():
    grid = PixelGrid.create(4, 3)
    pts = np.arange(36, dtype=np.float64).reshape(3, 4, 3) + 1.0
    valid = np.zeros((3, 4), dtype=bool)
    valid[1, 2] = True
    valid[2, 0] = True
    pm = Pointmap(pts, valid, 0, 0, 0)
    corr, idx = correspondences_from_pointmap(pm, grid)
    assert idx.tolist() == [6, 8]
    assert np.allclose(corr.pixels[0], [2.5, 1.5])
    assert np.allclose(corr.points[1], pts[2, 0])
    # the same pairs from a coordinates-first (3, H*W) stack, as adaptation
    # keeps its points
    stacked = np.ascontiguousarray(pts.reshape(-1, 3).T)
    raw, raw_idx = correspondences_from_points(stacked.T, valid.reshape(-1), grid)
    assert np.array_equal(raw_idx, idx)
    assert np.array_equal(raw.pixels, corr.pixels) and np.array_equal(raw.points, corr.points)
    assert not raw.points.flags.writeable and not np.shares_memory(raw.points, stacked)
