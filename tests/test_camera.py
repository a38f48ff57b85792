import numpy as np
import pytest
from conftest import make_pnp_instance, random_pose, so3_exp_jac

from worldtrack import camera
from worldtrack.camera import (
    GN_DAMPING,
    PREEMPTIVE_SUBSET,
    RANSAC_MAX_ITERATIONS,
    RansacConfig,
    _apply_increment,
    _dlt_poses,
    _gn_terms,
    _iterations_needed,
    _minimal_poses,
    _pose_adjoint,
    _reproj_errors_many,
    _residuals,
    _so3_exp_vjp,
    correspondences_from_pointmap,
    estimate_focal_weiszfeld,
    gauss_newton_refine,
    solve_cameras_for_video,
    solve_pnp_ransac,
)
from worldtrack.data import PRESETS, SceneSpec
from worldtrack.errors import (
    BranchContractViolation,
    DegenerateGeometry,
    InsufficientValidPoints,
    NoConsensus,
    TooFewCorrespondences,
)
from worldtrack.geometry import (
    DEPTH_EPS,
    Intrinsics,
    PixelGrid,
    PointmapVideo,
    PoseSE3,
    backproject,
    so3_exp,
)
from worldtrack.oracle import corrupt, generate_sequence


def plane_video(focal, width=32, height=24, z=2.0, tilt=(0.0, 0.0)):
    """A one-frame video whose anchor self-view is a (possibly tilted) plane."""
    grid = PixelGrid.create(width, height)
    K = Intrinsics(focal, width / 2.0, height / 2.0)
    u = grid.coords[..., 0] - K.cx
    v = grid.coords[..., 1] - K.cy
    depth = z + tilt[0] * u + tilt[1] * v
    pts = backproject(K, grid.coords, depth)
    video = PointmapVideo("tracking", pts[None], np.ones((1, height, width), dtype=bool))
    return video, grid


# ---- focal estimation ----

def test_weiszfeld_exact_on_plane():
    for f in (500.0, 80.0, 1.0):
        video, grid = plane_video(f)
        K = estimate_focal_weiszfeld(video, grid)
        assert abs(K.focal - f) / f < 1e-9
        assert K.cx == grid.width / 2.0 and K.cy == grid.height / 2.0


def test_weiszfeld_exact_on_tilted_plane():
    video, grid = plane_video(60.0, z=3.0, tilt=(0.004, -0.006))
    K = estimate_focal_weiszfeld(video, grid)
    assert abs(K.focal - 60.0) / 60.0 < 1e-9


def test_weiszfeld_robust_to_outlier_depths():
    rng = np.random.default_rng(0)
    video, grid = plane_video(500.0, width=64, height=48)
    pts = np.array(video.points[0])
    n_out = int(0.10 * pts.shape[0] * pts.shape[1])
    rows = rng.integers(0, pts.shape[0], n_out)
    cols = rng.integers(0, pts.shape[1], n_out)
    pts[rows, cols, 2] *= rng.uniform(0.2, 4.0, n_out)
    noisy = PointmapVideo("tracking", pts[None], video.valid)
    K = estimate_focal_weiszfeld(noisy, grid)
    assert abs(K.focal - 500.0) / 500.0 < 0.01


def test_weiszfeld_degenerate_and_sparse_inputs():
    grid = PixelGrid.create(8, 6)
    axial = np.zeros((6, 8, 3))
    axial[..., 2] = 2.0  # every ray through the optical axis
    video = PointmapVideo("tracking", axial[None], np.ones((1, 6, 8), dtype=bool))
    with pytest.raises(DegenerateGeometry):
        estimate_focal_weiszfeld(video, grid)
    sparse_valid = np.zeros((1, 6, 8), dtype=bool)
    sparse_valid[0, 0, :4] = True
    sparse = PointmapVideo("tracking", np.ones((1, 6, 8, 3)), sparse_valid)
    with pytest.raises(InsufficientValidPoints):
        estimate_focal_weiszfeld(sparse, grid)


def test_weiszfeld_reads_frame_zero_of_either_branch():
    video, grid = plane_video(100.0)
    other, _ = plane_video(40.0)
    # later frames, whatever they hold, do not enter the estimate
    points = np.concatenate([video.points, other.points, 5.0 * video.points])
    valid = np.ones(points.shape[:-1], dtype=bool)
    for branch in ("tracking", "recon"):
        K = estimate_focal_weiszfeld(PointmapVideo(branch, points, valid), grid)
        assert K == estimate_focal_weiszfeld(video, grid)
    # anything but a video is refused, a single frame's arrays included
    with pytest.raises(BranchContractViolation):
        estimate_focal_weiszfeld([video.points[0]], grid)



def row_weiszfeld(video, grid):
    """The focal IRLS on (N, 2) rows of frame 0: einsum moments and row norms."""
    points, valid = video.points[0], video.valid[0]
    mask = valid & (points[..., 2] > DEPTH_EPS)
    u = grid.coords[mask] - np.array([grid.width / 2.0, grid.height / 2.0])
    pts = points[mask]
    q = pts[:, :2] / pts[:, 2:3]
    qq = np.einsum("ni,ni->n", q, q)
    uq = np.einsum("ni,ni->n", u, q)
    f = uq.sum() / qq.sum()
    for _ in range(camera.WEISZFELD_ITERATIONS):
        res = np.linalg.norm(u - f * q, axis=1)
        w = 1.0 / np.maximum(res, camera.WEISZFELD_FLOOR)
        f = (w * uq).sum() / (w * qq).sum()
    return f


@pytest.mark.parametrize("preset", PRESETS)
def test_weiszfeld_matches_row_formulation(preset):
    grid = PixelGrid.create(64, 48)
    seq = generate_sequence(SceneSpec(preset, seed=3))
    noisy = corrupt(seq, noise=0.003, targets=("tracking", "recon"), seed=4)
    for video in (seq.recon_pointmaps, noisy.recon_pointmaps, noisy.tracking_pointmaps):
        ref = row_weiszfeld(video, grid)
        assert abs(estimate_focal_weiszfeld(video, grid).focal - ref) <= 2 * np.spacing(ref)


# ---- RANSAC PnP ----

def pose_errors(a: PoseSE3, b: PoseSE3):
    from scipy.spatial.transform import Rotation

    angle = Rotation.from_matrix(a.rotation @ b.rotation.T).magnitude()
    return angle, np.linalg.norm(a.translation - b.translation)


def test_pnp_exact_on_clean_data():
    rng = np.random.default_rng(4)
    for _ in range(10):
        K, pose, pix, pts = make_pnp_instance(rng, n=60)
        est = solve_pnp_ransac(pix, pts, K, RansacConfig(seed=1))
        ang, dt = pose_errors(est.pose, pose)
        assert ang < 1e-8 and dt < 1e-8
        assert est.inliers.all()
        assert est.rms_reprojection_error < 1e-9


def with_outliers(rng, pixels, fraction):
    """Shift a fraction of the pixels by 5-25 px; returns new pixels and outlier ids."""
    n = len(pixels)
    pix = np.array(pixels)
    out_idx = rng.choice(n, int(fraction * n), replace=False)
    shift = rng.uniform(5.0, 25.0, size=(out_idx.size, 2))
    pix[out_idx] += shift * rng.choice([-1, 1], (out_idx.size, 2))
    return pix, out_idx


def test_pnp_with_outliers():
    rng = np.random.default_rng(8)
    for trial in range(5):
        K, pose, pix, pts = make_pnp_instance(rng, n=80)
        bad, out_idx = with_outliers(rng, pix, 0.3)
        est = solve_pnp_ransac(bad, pts, K, RansacConfig(seed=trial))
        ang, dt = pose_errors(est.pose, pose)
        assert ang < 1e-6 and dt < 1e-6, f"trial {trial}: {ang}, {dt}"
        inlier_set = set(np.nonzero(est.inliers)[0])
        assert inlier_set == set(range(80)) - set(out_idx)


def test_pnp_deterministic_for_fixed_seed():
    rng = np.random.default_rng(10)
    K, _, pix, pts = make_pnp_instance(rng, n=50)
    a = solve_pnp_ransac(pix, pts, K, RansacConfig(seed=7))
    b = solve_pnp_ransac(pix, pts, K, RansacConfig(seed=7))
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.pose.translation, b.pose.translation)
    assert np.array_equal(a.inliers, b.inliers)


def test_pnp_error_cases():
    rng = np.random.default_rng(2)
    K, _, pix, pts = make_pnp_instance(rng, n=5)
    with pytest.raises(TooFewCorrespondences):
        solve_pnp_ransac(pix, pts, K)
    # all points behind every hypothesis: no consensus possible
    K2, pose2, pix2, _ = make_pnp_instance(rng, n=12)
    behind = pose2.inverse().apply(
        backproject(K2, pix2, -np.abs(np.random.default_rng(0).uniform(1, 3, 12)))
    )
    with pytest.raises(NoConsensus):
        solve_pnp_ransac(pix2, behind.T, K2)


def test_ransac_bound_survives_tiny_inlier_ratio():
    # ratio**6 = 1e-18 rounds 1 - hit to 1, which once gave log(1) = 0
    assert _iterations_needed(1e-3) == RANSAC_MAX_ITERATIONS == 256
    assert _iterations_needed(0.0) == RANSAC_MAX_ITERATIONS
    assert _iterations_needed(1.0) == 0
    assert _iterations_needed(0.9) == int(np.ceil(np.log(1e-3) / np.log(1 - 0.9**6)))


def test_pnp_preemptive_scoring_on_large_instance():
    rng = np.random.default_rng(21)
    K, pose, pix, pts = make_pnp_instance(rng, n=5000)
    assert len(pix) > PREEMPTIVE_SUBSET
    bad, out_idx = with_outliers(rng, pix, 0.3)
    est = solve_pnp_ransac(bad, pts, K, RansacConfig(seed=3))
    ang, dt = pose_errors(est.pose, pose)
    assert ang < 1e-6 and dt < 1e-6
    expected = np.ones(len(pix), dtype=bool)
    expected[out_idx] = False
    assert np.array_equal(est.inliers, expected)
    again = solve_pnp_ransac(bad, pts, K, RansacConfig(seed=3))
    assert np.array_equal(again.pose.rotation, est.pose.rotation)
    assert np.array_equal(again.pose.translation, est.pose.translation)
    assert np.array_equal(again.inliers, est.inliers)


def test_ransac_seed_must_be_a_non_negative_integer():
    rng = np.random.default_rng(10)
    K, _, pix, pts = make_pnp_instance(rng, n=50)
    # a numpy integer is a seed, and draws as the int does
    a = solve_pnp_ransac(pix, pts, K, RansacConfig(seed=np.int64(3)))
    b = solve_pnp_ransac(pix, pts, K, RansacConfig(seed=3))
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.inliers, b.inliers)
    for seed in (2.5, True, -1, np.float64(1.0), "3", None):
        with pytest.raises(ValueError, match="seed must be an integer at least 0"):
            RansacConfig(seed=seed)


def test_draws_stop_once_the_best_holds_every_scored_pair(monkeypatch):
    rng = np.random.default_rng(8)
    K, pose, pix, pts = make_pnp_instance(rng, n=80)
    solved = []
    minimal = camera._minimal_poses

    def counted(points, norm_pix):
        solved.append(len(points))
        return minimal(points, norm_pix)

    monkeypatch.setattr(camera, "_minimal_poses", counted)
    est = solve_pnp_ransac(pix, pts, K, RansacConfig(seed=1))
    # the first draw, polished, holds all 80 pairs: no later draw can win
    assert solved == [1] and est.inliers.all()
    # 30 % outliers, none in the first draw: that draw, polished, already
    # holds every inlier, yet below a full count the floor of draws stands
    first = np.random.default_rng(1).choice(80, 6, replace=False)
    out = rng.choice(np.setdiff1d(np.arange(80), first), 24, replace=False)
    bad = pix.copy()
    bad[out] += rng.uniform(5.0, 25.0, (24, 2)) * rng.choice([-1, 1], (24, 2))
    solved.clear()
    est = solve_pnp_ransac(bad, pts, K, RansacConfig(seed=1))
    assert solved[0] == 1 and sum(solved) >= 32
    assert np.array_equal(np.flatnonzero(~est.inliers), np.sort(out))


def test_a_sample_lapack_refuses_voids_only_itself(monkeypatch):
    rng = np.random.default_rng(33)
    K, pose, pixels, points = make_pnp_instance(rng, n=60)
    norm_pix = (pixels - np.array([K.cx, K.cy])) / K.focal
    idx = np.stack([rng.choice(60, 6, replace=False) for _ in range(12)])
    pts, pix = points.T[idx], norm_pix[idx]
    # two near-planar samples, solved by the homography
    pts[10:, :, 2] = pts[10:, :1, 2]
    cam = pts[10:] @ pose.rotation.T + pose.translation
    pix[10:] = cam[:, :, :2] / cam[:, :, 2:3]
    # a pixel no other sample holds; the DLT's system holds its -u as it is
    sentinel = pix[4, 0, 0] = 0.123456789
    R, t, ok = _minimal_poses(pts, pix)
    assert ok.all()
    svd = np.linalg.svd

    def refusing_svd(a, *args, **kwargs):
        if np.any(a == -sentinel):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refusing_svd)
    R2, t2, ok2 = _minimal_poses(pts, pix)
    assert not ok2[4] and np.array_equal(R2[4], np.eye(3)) and not t2[4].any()
    keep = np.arange(12) != 4
    assert ok2[keep].all()
    assert np.array_equal(R2[keep], R[keep]) and np.array_equal(t2[keep], t[keep])


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
    K, pose, pixels, points = make_pnp_instance(rng, n=60)
    norm_pix = (pixels - np.array([K.cx, K.cy])) / K.focal
    samples = [rng.choice(60, 6, replace=False) for _ in range(40)]
    pts = [points.T[i] for i in samples]
    pix = [norm_pix[i] for i in samples]
    # coplanar samples: six world points on one plane, seen exactly
    for _ in range(8):
        plane = rng.uniform(-1, 1, (6, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)
        cam = pose.apply(plane)
        pts.append(plane)
        pix.append(cam[:, :2] / cam[:, 2:3])
    pts.append(np.repeat(points.T[:1], 6, axis=0))  # no spread at all
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
    K, pose, _, points = make_pnp_instance(rng, n=60)
    pts = [points.T[rng.choice(60, 6, replace=False)] for _ in range(6)]
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
    est = solve_pnp_ransac(pix, pose.inverse().apply(cam).T, K, RansacConfig(seed=4))
    ang, dt = pose_errors(est.pose, pose)
    assert ang < 1e-2 and dt < 1e-2, f"{ang:.2e} rad, {dt:.2e} m"
    assert est.inliers.mean() > 0.9


# ---- Gauss-Newton refinement ----

def perturbed_pose(pose: PoseSE3, rng, scale=0.03):
    """(R, t) of ``pose`` moved by a random twist."""
    return _apply_increment(rng.normal(size=6) * scale, pose.rotation, pose.translation)


def reproj_errors(R, t, K, pixels, points) -> np.ndarray:
    return _reproj_errors_many(R[None], t[None], K, pixels, points)[0]


def refine_steps(R, t, pixels, points, K, steps: int):
    """Chain single Gauss-Newton steps on every pair, each from the previous pose."""
    every = np.ones(len(pixels), dtype=bool)
    for _ in range(steps):
        R, t = gauss_newton_refine(R, t, points, pixels, K, every)[:2]
    return R, t


def test_gn_converges_on_clean_data():
    rng = np.random.default_rng(3)
    K, pose, pix, pts = make_pnp_instance(rng, n=40)
    R, t = refine_steps(*perturbed_pose(pose, rng), pix, pts, K, 5)
    every = np.ones(40, dtype=bool)
    R_1, t_1, delta, H = gauss_newton_refine(R, t, pts, pix, K, every)
    ang, dt = pose_errors(PoseSE3(R_1, t_1), pose)
    assert ang < 1e-9 and dt < 1e-9
    assert np.sqrt(np.mean(reproj_errors(R_1, t_1, K, pix, pts) ** 2)) < 1e-10
    # the returned increment and normal matrix are those of the step taken
    ref_delta, ref_H = _gn_terms(R, t, pts, pix, K, every)[:2]
    assert np.array_equal(delta, ref_delta) and np.array_equal(H, ref_H)
    R_ref, t_ref = _apply_increment(delta, R, t)
    assert np.array_equal(R_1, R_ref) and np.array_equal(t_1, t_ref)


def factored_jacobian(Y, f):
    """The residual's Jacobian J = -A B (m, 2, 6) at camera points Y (m, 3),
    with A = d pixel / d Y and B = d Y / d twist (rotation part first): an
    independent form of the rows the eight-factor assembly maps encode.
    Returns (J, A, B)."""
    x, y, z = Y.T
    zero = np.zeros_like(z)
    A = np.stack([np.stack([f / z, zero, -f * x / z**2], 1),
                  np.stack([zero, f / z, -f * y / z**2], 1)], 1)
    B = np.zeros((len(Y), 3, 6))
    B[:, :, :3] = -np.stack([np.stack([zero, -z, y], 1), np.stack([z, zero, -x], 1),
                             np.stack([-y, x, zero], 1)], 1)
    B[:, :, 3:] = np.eye(3)
    return -np.einsum("nij,njk->nik", A, B), A, B


def residual_jacobian(R, t, X, pixels, K, mask):
    """(w, J, r): the weight mask and (m, 2) residual of ``_residuals`` at
    (R, t), and the (m, 2, 6) ``factored_jacobian``, zero outside the weight."""
    _, w, _, r = _residuals(R, t, X, pixels, K, mask)
    Y = X.T @ R.T + t
    Y[~w] = (0.0, 0.0, 1.0)  # any point in front: its rows are zeroed
    return w, factored_jacobian(Y, K.focal)[0] * w[:, None, None], r.T


def test_gn_steps_do_not_increase_residuals():
    rng = np.random.default_rng(5)
    for _ in range(10):
        K, pose, pix, pts = make_pnp_instance(rng, n=30)
        R, t = perturbed_pose(pose, rng, scale=0.05)
        prev = np.sum(reproj_errors(R, t, K, pix, pts) ** 2)
        for _ in range(4):
            R, t = refine_steps(R, t, pix, pts, K, 1)
            cost = np.sum(reproj_errors(R, t, K, pix, pts) ** 2)
            assert cost <= prev * (1 + 1e-12)
            prev = cost


def test_gn_first_order_optimality():
    rng = np.random.default_rng(6)
    K, pose, pix, pts = make_pnp_instance(rng, n=35)
    R, t = refine_steps(*perturbed_pose(pose, rng), pix, pts, K, 8)
    w, J, r = residual_jacobian(R, t, pts, pix, K, True)
    grad = np.einsum("n,nij,ni->j", w, J, r)
    assert np.abs(grad).max() < 1e-6


def test_gn_terms_match_the_jacobian_normal_equations():
    rng = np.random.default_rng(9)
    K, pose, pix, pts = make_pnp_instance(rng, n=30)
    pix = pix + rng.normal(scale=0.5, size=pix.shape)
    # rows 0-2 behind the camera, row 3 on its plane, a random mask
    cam = pose.apply(pts.T)
    cam[:3, 2] *= -1.0
    cam[3, 2] = 0.0
    X = pose.inverse().apply(cam).T
    mask = rng.random(30) < 0.7
    mask[:4] = True
    R, t = perturbed_pose(pose, rng)
    delta, H, g = _gn_terms(R, t, X, pix, K, mask)
    w, J, r = residual_jacobian(R, t, X, pix, K, mask)
    H0 = np.einsum("n,nia,nib->ab", w, J, J)
    ref_H = H0 + GN_DAMPING * np.trace(H0) / 6.0 * np.eye(6)
    ref_g = np.einsum("n,nia,ni->a", w, J, r)
    assert np.abs(H - ref_H).max() < 1e-12 * np.abs(ref_H).max()
    assert np.abs(g - ref_g).max() < 1e-12 * np.abs(ref_g).max()
    assert np.array_equal(delta, -np.linalg.solve(H, g))


def test_polish_stops_at_convergence(monkeypatch):
    rng = np.random.default_rng(12)
    K, pose, pix, pts = make_pnp_instance(rng, n=200)
    pix = pix + rng.normal(scale=0.5, size=pix.shape)
    R0, t0 = perturbed_pose(pose, rng)
    every = np.ones(200, dtype=bool)
    R_cap, t_cap = R0, t0
    for _ in range(10):
        delta = _gn_terms(R_cap, t_cap, pts, pix, K, every)[0]
        R_cap, t_cap = _apply_increment(delta, R_cap, t_cap)
    steps = []
    gn_terms = camera._gn_terms

    def counted_gn_terms(*args):
        out = gn_terms(*args)
        steps.append(np.linalg.norm(out[0]))
        return out

    monkeypatch.setattr(camera, "_gn_terms", counted_gn_terms)
    R, t = camera._polish(R0, t0, pix, pts, K, every)
    # it stops at the first increment below 1e-10, before the cap
    assert len(steps) < 10 and steps[-1] < 1e-10 and min(steps[:-1]) >= 1e-10
    assert np.abs(R - R_cap).max() < 1e-12 and np.abs(t - t_cap).max() < 1e-12


def test_projection_jacobian_matches_central_differences():
    rng = np.random.default_rng(9)
    K, pose, pix, pts = make_pnp_instance(rng, n=30)
    # rows 0-2 behind the camera, row 3 on its plane
    cam = pose.apply(pts.T)
    cam[:3, 2] *= -1.0
    cam[3, 2] = 0.0
    X = pose.inverse().apply(cam).T
    R, t = pose.rotation, pose.translation
    wt, J, r = residual_jacobian(R, t, X, pix, K, True)
    h = 1e-6
    fd = np.zeros_like(J)
    for k in range(6):
        step = np.zeros(6)
        step[k] = h
        hi = residual_jacobian(*_apply_increment(step, R, t), X, pix, K, True)[2]
        lo = residual_jacobian(*_apply_increment(-step, R, t), X, pix, K, True)[2]
        fd[:, :, k] = (hi - lo) / (2 * h)
    front = np.arange(4, 30)
    scale = np.abs(J[front]).max()
    assert np.abs(J[front] - fd[front]).max() < 1e-6 * scale
    assert np.all(J[:4] == 0.0) and not wt[:4].any() and wt[4:].all()
    assert r.shape == (30, 2) and np.isfinite(r).all()


# ---- differentiable increment ----

def linear_pose_loss(gR, gT):
    def value(R, t) -> float:
        return float(np.sum(gR * R) + gT @ t)
    return value


def pose_adjoint(R, t, pixels, points, K, mask, gR, gT) -> np.ndarray:
    """(N, 3) pull-back onto the points of a gradient (gR, gT) on the pose
    one Gauss-Newton step from (R, t) on the masked pairs reaches: the
    step and adjoint live adaptation runs."""
    delta, H = gauss_newton_refine(R, t, points, pixels, K, mask)[2:]
    return _pose_adjoint(R, t, delta, H, points, pixels, K, mask, gR, gT).T


def fd_point_gradient(R, t, pixels, points, K, loss, idx, h=1e-5):
    """Central differences through the step, base pose fixed."""
    every = np.ones(len(pixels), dtype=bool)
    grads = np.zeros((len(idx), 3))
    for row, n in enumerate(idx):
        for k in range(3):
            shifted = np.array(points)
            shifted[k, n] += h
            hi = loss(*gauss_newton_refine(R, t, shifted, pixels, K, every)[:2])
            shifted[k, n] -= 2 * h
            lo = loss(*gauss_newton_refine(R, t, shifted, pixels, K, every)[:2])
            grads[row, k] = (hi - lo) / (2 * h)
    return grads


def test_pose_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    worst = 0.0
    for trial in range(12):
        K, pose, pix, pts = make_pnp_instance(rng, n=24)
        R, t = perturbed_pose(pose, rng, scale=0.04)
        gR, gT = rng.normal(size=(3, 3)), rng.normal(size=3)
        analytic = pose_adjoint(R, t, pix, pts, K, np.ones(24, dtype=bool), gR, gT)
        pick = rng.choice(24, 5, replace=False)
        fd = fd_point_gradient(R, t, pix, pts, K, linear_pose_loss(gR, gT), pick)
        for row, n in enumerate(pick):
            denom = max(np.linalg.norm(fd[row]), 1e-8)
            rel = np.linalg.norm(analytic[n] - fd[row]) / denom
            worst = max(worst, rel)
    assert worst < 1e-4, f"max relative error {worst:.3e}"


def behind_camera(pose: PoseSE3, points, rows) -> np.ndarray:
    """The points (3, N) with the given rows mirrored to negative depth under pose."""
    cam = pose.apply(points.T)
    cam[rows, 2] *= -1.0
    return pose.inverse().apply(cam).T


def test_pose_gradient_behind_camera_and_non_inlier_rows():
    rng = np.random.default_rng(13)
    K, pose, pix, pts = make_pnp_instance(rng, n=20)
    pts = behind_camera(pose, pts, [3])
    R, t = perturbed_pose(pose, rng)
    mask = np.ones(20, dtype=bool)
    mask[7] = False
    grads = pose_adjoint(R, t, pix, pts, K, mask, rng.normal(size=(3, 3)), rng.normal(size=3))
    assert np.all(grads[3] == 0.0), "a row behind the camera must carry no gradient"
    assert np.all(grads[7] == 0.0), "non-inlier row must carry no gradient"
    assert np.any(grads[0] != 0.0)


def pose_gradient_reference(R0, t0, pixels, points, K, mask, gR, gT):
    """``pose_adjoint`` through the factored Jacobian J = -A B (A: d pixel /
    d Y, B: d Y / d twist), the form the closed-form adjoint must reproduce."""
    pix_m, pts_m = pixels[mask], points.T[mask]
    damping = GN_DAMPING
    Y = pts_m @ R0.T + t0
    x, y, z = Y.T
    w = (z > 0).astype(float)
    f = K.focal
    J, A, B = factored_jacobian(Y, f)
    r = pix_m - np.stack([f * x / z + K.cx, f * y / z + K.cy], 1)
    H = np.einsum("n,nij,nik->jk", w, J, J)
    H += damping * np.trace(H) / 6.0 * np.eye(6)
    delta = -np.linalg.solve(H, np.einsum("n,nij,ni->j", w, J, r))
    G_E = gR @ R0.T + np.outer(gT, t0)
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
    out = np.zeros((len(pixels), 3))
    out[mask] = grad_Y @ R0
    return out


def test_masked_refine_equals_the_step_on_the_subset():
    rng = np.random.default_rng(15)
    K, pose, pix, pts = make_pnp_instance(rng, n=40)
    pts = behind_camera(pose, pts, [4])
    pix = np.array(pix)
    pix[9, 0] += 1e3
    R, t = perturbed_pose(pose, rng)
    mask = rng.random(40) > 0.25
    mask[[4, 9]] = False
    every = np.ones(int(mask.sum()), dtype=bool)
    masked = gauss_newton_refine(R, t, pts, pix, K, mask)
    explicit = gauss_newton_refine(R, t, pts[:, mask], pix[mask], K, every)
    # the stepped pose, the increment and the normal matrix
    for got, want in zip(masked, explicit):
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
    upstream = (rng.normal(size=(3, 3)), rng.normal(size=3))
    got = pose_adjoint(R, t, pix, pts, K, mask, *upstream)
    ref = pose_adjoint(R, t, pix[mask], pts[:, mask], K, every, *upstream)
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
        K, pose, pix, pts = make_pnp_instance(rng, n=40)
        pts = behind_camera(pose, pts, [5])
        R, t = perturbed_pose(pose, rng, scale=0.05)
        mask = rng.random(40) > 0.2
        gR, gT = rng.normal(size=(3, 3)), rng.normal(size=3)
        got = pose_adjoint(R, t, pix, pts, K, mask, gR, gT)
        ref = pose_gradient_reference(R, t, pix, pts, K, mask, gR, gT)
        assert np.abs(got - ref).max() < 1e-9 * np.abs(ref).max()


# ---- whole-video solving ----

def build_recon_video(rng, T=5, width=24, height=18, focal=30.0, static=False):
    """An on-ray reconstruction video for a smooth camera path."""
    grid = PixelGrid.create(width, height)
    K = Intrinsics(focal, width / 2.0, height / 2.0)
    u = grid.coords[..., 0] / width
    v = grid.coords[..., 1] / height
    cams, points = [], []
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
        points.append(world)
        cams.append(cam)
    video = PointmapVideo("recon", np.stack(points), np.ones((T, height, width), dtype=bool))
    return K, cams, video, grid


def test_solve_cameras_recovers_moving_path():
    rng = np.random.default_rng(1)
    K, cams, video, grid = build_recon_video(rng)
    K_est, ests = solve_cameras_for_video(video, grid)
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
        valid = noisy.recon_pointmaps.valid[t].reshape(-1)
        assert valid.sum() > PREEMPTIVE_SUBSET and not est.inliers[~valid].any()
        ratio = est.inliers[valid].mean()
        assert ratio >= 0.99, f"frame {t}: inlier ratio {ratio:.4f}"
        ang, dt = pose_errors(est.pose, cam)
        assert ang < 1e-3 and dt < 3e-3, f"frame {t}: {ang:.2e} rad, {dt:.2e} m"


def test_full_set_is_linearised_once_per_frame(monkeypatch):
    rng = np.random.default_rng(4)
    K, cams, video, grid = build_recon_video(rng, width=48, height=32, focal=60.0)
    assert grid.width * grid.height > PREEMPTIVE_SUBSET
    sizes = []
    gn_terms, ransac = camera._gn_terms, camera.solve_pnp_ransac

    def counted_gn_terms(R, t, X, pixels, K, mask):
        sizes[-1].append(len(pixels))
        return gn_terms(R, t, X, pixels, K, mask)

    def frame_ransac(*args):
        sizes.append([])
        return ransac(*args)

    monkeypatch.setattr(camera, "_gn_terms", counted_gn_terms)
    monkeypatch.setattr(camera, "solve_pnp_ransac", frame_ransac)
    _, ests = solve_cameras_for_video(video, grid)
    assert len(sizes) == video.num_frames - 1
    for t, frame in enumerate(sizes, start=1):
        assert sum(m > PREEMPTIVE_SUBSET for m in frame) == 1, f"frame {t}: {frame}"
    for cam, est in zip(cams, ests):
        ang, dt = pose_errors(est.pose, cam)
        assert ang < 1e-6 and dt < 1e-6


def test_solve_builds_a_validated_pose_per_returned_estimate(monkeypatch):
    rng = np.random.default_rng(4)
    _, _, video, grid = build_recon_video(rng, width=48, height=32, focal=60.0)
    built = []
    validate = PoseSE3.__post_init__

    def counted(pose):
        built.append(1)
        validate(pose)

    monkeypatch.setattr(PoseSE3, "__post_init__", counted)
    solve_cameras_for_video(video, grid)
    # the RANSAC winner and the refined pose, plus frame 0's identity
    assert len(built) <= 3 * (video.num_frames - 1), len(built)


def test_solve_cameras_static_video_is_identity():
    rng = np.random.default_rng(2)
    K, cams, video, grid = build_recon_video(rng, static=True)
    _, ests = solve_cameras_for_video(video, grid)
    for est in ests:
        ang, dt = pose_errors(est.pose, PoseSE3.identity())
        assert ang < 1e-6 and dt < 1e-6


def test_solve_cameras_attaches_frame_index():
    rng = np.random.default_rng(3)
    K, cams, video, grid = build_recon_video(rng)
    starved = np.array(video.valid)
    starved[2] = False
    starved[2, 0, :4] = True
    video = PointmapVideo("recon", video.points, starved)
    with pytest.raises(TooFewCorrespondences) as info:
        solve_cameras_for_video(video, grid)
    assert info.value.frame == 2


def test_frame_zero_point_behind_the_camera_is_no_inlier():
    # one valid frame-0 recon point at z = -1 once made the frame's RMS inf
    rng = np.random.default_rng(5)
    _, _, video, grid = build_recon_video(rng, T=3)
    points = np.array(video.points)
    points[0, 4, 7] = [0.1, -0.2, -1.0]
    video = PointmapVideo("recon", points, video.valid)
    _, ests = solve_cameras_for_video(video, grid)
    inliers = ests[0].inliers.reshape(grid.height, grid.width)
    assert not inliers[4, 7] and inliers.sum() == grid.height * grid.width - 1
    assert np.isfinite(ests[0].rms_reprojection_error)
    assert ests[0].rms_reprojection_error < 1e-9


def test_correspondences_from_pointmap_indexing():
    grid = PixelGrid.create(4, 3)
    pts = np.arange(72, dtype=np.float64).reshape(2, 3, 4, 3) + 1.0
    valid = np.zeros((2, 3, 4), dtype=bool)
    valid[1, 1, 2] = True
    valid[1, 2, 0] = True
    video = PointmapVideo("recon", pts.copy(), valid)
    assert correspondences_from_pointmap(video, 0, grid)[0].shape == (0, 2)
    pixels, points, idx = correspondences_from_pointmap(video, 1, grid)
    assert idx.tolist() == [6, 8]
    assert pixels.shape == (2, 2) and points.shape == (3, 2)
    assert points.flags.c_contiguous
    assert np.allclose(pixels[0], [2.5, 1.5])
    assert np.allclose(points[:, 1], pts[1, 2, 0])
