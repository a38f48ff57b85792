"""Finite-difference spot checks for every analytic gradient.

Each check builds small random instances, compares the implemented
gradient against central differences and reports the worst relative
error. The functions under test are resolved through their modules at
call time, so swapping one out (say, to flip a sign) is caught.
"""

from dataclasses import dataclass

import numpy as np

from . import camera, losses
from .geometry import Intrinsics, PixelGrid, Pointmap, PoseSE3, backproject, so3_exp

DEFAULT_STEP = 1e-6
DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def check_traj_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        pred = rng.normal(0, 3, (10, 2))
        gt = pred + rng.normal(0, 0.5, (10, 2))
        c = rng.normal(0, 1, 2)
        _, grad, _ = losses.traj_loss(pred, gt, c)
        for n in range(3):
            for d in range(2):
                hi, lo = pred.copy(), pred.copy()
                hi[n, d] += step
                lo[n, d] -= step
                fd = (
                    losses.traj_loss(hi, gt, c)[0] - losses.traj_loss(lo, gt, c)[0]
                ) / (2 * step)
                worst = max(worst, _rel(fd, grad[n, d]))
    return CheckResult("traj_loss", worst, tol)


def check_depth_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        pts = rng.normal(0, 0.5, (3, 4, 3)) + np.array([0, 0, 3.0])
        pm = Pointmap(pts, np.ones((3, 4), bool), 0, 1, 1)
        pose = PoseSE3(so3_exp(rng.normal(0, 0.1, 3)), rng.normal(0, 0.2, 3))
        mono = rng.uniform(2.0, 4.0, (3, 4))
        _, grad = losses.depth_loss(pm, pose, mono)
        for r, c in [(0, 0), (1, 2), (2, 3)]:
            for d in range(3):
                delta = np.zeros_like(pts)
                delta[r, c, d] = step
                hi = losses.depth_loss(pm.with_points(pts + delta), pose, mono)[0]
                lo = losses.depth_loss(pm.with_points(pts - delta), pose, mono)[0]
                worst = max(worst, _rel((hi - lo) / (2 * step), grad[r, c, d]))
    return CheckResult("depth_loss", worst, tol)


def check_align_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        pts_t = rng.normal(0, 1, (3, 4, 3))
        pts_r = rng.normal(0, 1, (3, 4, 3))
        valid = np.ones((3, 4), bool)
        trk = Pointmap(pts_t, valid, 0, 0, 1)
        rec = Pointmap(pts_r, valid, 0, 1, 1)
        n = 4
        queries = np.column_stack(
            [rng.integers(0, 4, n) + 0.5, rng.integers(0, 3, n) + 0.5]
        ).astype(float)
        corr = np.full((n, 2), -1, dtype=np.int64)
        corr[:, 1] = rng.integers(0, 12, n)
        sup = losses.TrackSupervision(
            queries, np.zeros((n, 2, 2)) + 0.5, np.ones((n, 2), bool), corr
        )
        _, g_trk, g_rec, _ = losses.align_loss(trk, rec, sup)
        for pts, grad, run in (
            (pts_t, g_trk, lambda p: losses.align_loss(trk.with_points(p), rec, sup)[0]),
            (pts_r, g_rec, lambda p: losses.align_loss(trk, rec.with_points(p), sup)[0]),
        ):
            for r, c in [(0, 0), (2, 3)]:
                for d in range(3):
                    delta = np.zeros_like(pts)
                    delta[r, c, d] = step
                    fd = (run(pts + delta) - run(pts - delta)) / (2 * step)
                    if abs(fd) > 1e-10 or abs(grad[r, c, d]) > 1e-10:
                        worst = max(worst, _rel(fd, grad[r, c, d]))
    return CheckResult("align_loss", worst, tol)


def check_supervised_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        pts = rng.normal(0, 1, (3, 4, 3)) + np.array([0, 0, 4.0])
        gt_pts = pts + rng.normal(0, 0.2, pts.shape)
        valid = np.ones((3, 4), bool)
        pred = Pointmap(pts, valid, 0, 0, 0)
        gt = Pointmap(gt_pts, valid, 0, 0, 0)
        _, grad = losses.supervised_pointmap_loss(pred, gt, valid)
        for r, c in [(0, 1), (2, 2)]:
            for d in range(3):
                delta = np.zeros_like(pts)
                delta[r, c, d] = step
                hi = losses.supervised_pointmap_loss(
                    pred.with_points(pts + delta), gt, valid
                )[0]
                lo = losses.supervised_pointmap_loss(
                    pred.with_points(pts - delta), gt, valid
                )[0]
                worst = max(worst, _rel((hi - lo) / (2 * step), grad[r, c, d]))
    return CheckResult("supervised_pointmap_loss", worst, tol)


def make_pnp_instance(rng, n=40, width=64, height=48, focal=80.0, max_angle=0.4):
    """Exact 2D-3D correspondences for a random camera looking at a cloud.

    The camera turns by up to ``max_angle`` about a random axis. The cloud
    is built by backprojecting random in-image pixels at random depths in
    that camera, then mapping to world coordinates, so the ground-truth
    reprojection error is zero. Returns (intrinsics, pose, correspondences).
    """
    K = Intrinsics(focal, width / 2.0, height / 2.0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    pose = PoseSE3(so3_exp(axis * rng.uniform(0, max_angle)), rng.normal(size=3) * 0.5)
    pix = np.column_stack(
        [rng.uniform(2.0, width - 2.0, n), rng.uniform(2.0, height - 2.0, n)]
    )
    depth = rng.uniform(1.5, 6.0, n)
    world = pose.inverse().apply(backproject(K, pix, depth))
    return K, pose, camera.Correspondences2D3D(pix, world)


def check_pose_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    """Adjoint of the final Gauss-Newton pose step versus differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        K, true_pose, corr = make_pnp_instance(rng)
        base = PoseSE3(
            so3_exp(rng.normal(0, 0.01, 3)) @ true_pose.rotation,
            true_pose.translation + rng.normal(0, 0.01, 3),
        )
        detached = camera.PoseEstimate(base, np.ones(corr.pixels.shape[0], bool), 0.0, base)
        upstream = (rng.normal(0, 1, (3, 3)), rng.normal(0, 1, 3))

        def scalar(points):
            est = camera.gauss_newton_refine(
                detached, camera.Correspondences2D3D(corr.pixels, points), K
            )
            return float(
                np.sum(upstream[0] * est.pose.rotation)
                + upstream[1] @ est.pose.translation
            )

        est = camera.gauss_newton_refine(detached, corr, K)
        grad = camera.pose_gradient_wrt_points(est, corr, K, upstream)
        for n in rng.choice(corr.pixels.shape[0], 3, replace=False):
            for d in range(3):
                hi, lo = corr.points.copy(), corr.points.copy()
                hi[n, d] += step
                lo[n, d] -= step
                fd = (scalar(hi) - scalar(lo)) / (2 * step)
                worst = max(worst, _rel(fd, grad[n, d]))
    return CheckResult("pose_gradient_wrt_points", worst, tol)


ALL_CHECKS = (
    check_traj_gradient,
    check_depth_gradient,
    check_align_gradient,
    check_supervised_gradient,
    check_pose_gradient,
)


def run_all(seed: int = 0, trials: int = 4) -> list:
    return [fn(seed=seed, trials=trials) for fn in ALL_CHECKS]
