"""Finite-difference spot checks of the analytic gradients adaptation uses.

The three loss checks audit ``losses._evaluate``, the objective every
adaptation step runs, on tiny corrupted oracle videos: for one term at a
time (a one-hot ``LossWeights``), all four gradients it returns, on both
point stacks and on the raw pose arrays, against central differences of
the weighted per-frame sum. The pose check audits the adjoint of the
final Gauss-Newton step under a random inlier mask, the weight live
adaptation passes. Each check reports the worst relative error. The
functions under test are resolved through their modules at call time, so
swapping one out (say, to flip a sign) is caught.
"""

from dataclasses import dataclass

import numpy as np

from . import camera, losses, oracle
from .geometry import Intrinsics, PoseSE3, backproject, so3_exp

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


def _worst_fd_error(value, args, grads, picks, step):
    """Worst relative error between the gradients ``grads`` of the scalar
    ``value(*args)`` and its central differences at the flat entries
    ``picks[i]`` of ``args[i]``. An entry far below its array's largest is
    measured against 1e-4 of that largest: the differences' rounding error
    scales with the values, not with the entry (an exact zero included)."""
    worst = 0.0
    for i, (grad, pick) in enumerate(zip(grads, picks)):
        floor = max(1e-4 * np.abs(grad).max(), 1e-12)
        for k in pick:
            ends = []
            for sign in (1.0, -1.0):
                moved = args[i].copy()
                moved.flat[k] += sign * step
                ends.append(value(*args[:i], moved, *args[i + 1:]))
            fd, exact = (ends[0] - ends[1]) / (2 * step), grad.flat[k]
            worst = max(worst, abs(fd - exact) / max(abs(fd), abs(exact), floor))
    return worst


def _check_term(column, seed, trials, step, tol):
    """``_evaluate``'s gradients for the term in ``column`` of its (T, 3)
    per-frame terms (traj, depth, align) alone."""
    rng = np.random.default_rng(seed)
    weights = losses.LossWeights(*(float(c == column) for c in range(3)))
    worst = 0.0
    for _ in range(trials):
        # orbit-dynamic at 8x8x3, focal 10, both branches corrupted: every
        # term has residuals at the true poses
        spec = oracle.SceneSpec("orbit-dynamic", width=8, height=8, num_frames=3,
                                focal=10.0, seed=int(rng.integers(1 << 30)))
        seq = oracle.corrupt(oracle.generate_sequence(spec), noise=0.05, drift=0.01,
                             targets=("tracking", "recon"), seed=int(rng.integers(1 << 30)))
        trk, rec, _, _, layout = losses._objective(
            losses._stacks(seq.tracking_pointmaps, seq.recon_pointmaps), seq.intrinsics,
            oracle.projected_track_supervision(seq), oracle.make_depth_supervision(seq), weights,
        )
        args = (trk, rec, *losses._pose_stack(seq.cameras))

        def value(*arrays):
            return float(np.sum(losses._evaluate(layout, *arrays)[0][:, column]))

        grads = losses._evaluate(layout, *args)[1]
        picks = [rng.choice(a.size, 3, replace=False) for a in args]
        worst = max(worst, _worst_fd_error(value, args, grads, picks, step))
    return CheckResult(("traj_loss", "depth_loss", "align_loss")[column], worst, tol)


def check_traj_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    return _check_term(0, seed, trials, step, tol)


def check_depth_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    return _check_term(1, seed, trials, step, tol)


def check_align_gradient(seed=0, trials=4, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    return _check_term(2, seed, trials, step, tol)


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
    """Adjoint of the final Gauss-Newton pose step, under a random inlier
    mask, versus differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        K, true_pose, corr = make_pnp_instance(rng)
        base = PoseSE3(
            so3_exp(rng.normal(0, 0.01, 3)) @ true_pose.rotation,
            true_pose.translation + rng.normal(0, 0.01, 3),
        )
        inliers = rng.random(len(corr)) < 0.8
        detached = camera.PoseEstimate(base, inliers, 0.0, base)
        upstream = (rng.normal(0, 1, (3, 3)), rng.normal(0, 1, 3))

        def value(points):
            est = camera.gauss_newton_refine(
                detached, camera.Correspondences2D3D(corr.pixels, points), K
            )
            return float(
                np.sum(upstream[0] * est.pose.rotation)
                + upstream[1] @ est.pose.translation
            )

        est = camera.gauss_newton_refine(detached, corr, K)
        grad = camera.pose_gradient_wrt_points(est, corr, K, upstream)
        rows = rng.choice(np.flatnonzero(inliers), 3, replace=False)
        picks = [(3 * rows[:, None] + np.arange(3)).ravel()]
        worst = max(worst, _worst_fd_error(value, (corr.points,), (grad,), picks, step))
    return CheckResult("pose_gradient_wrt_points", worst, tol)


ALL_CHECKS = (
    check_traj_gradient,
    check_depth_gradient,
    check_align_gradient,
    check_pose_gradient,
)


def run_all(seed: int = 0, trials: int = 4) -> list:
    return [fn(seed=seed, trials=trials) for fn in ALL_CHECKS]
