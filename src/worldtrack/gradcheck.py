"""Finite-difference spot checks of the analytic gradients adaptation uses.

The three loss checks audit ``losses._evaluate``, the objective every
adaptation step runs, on tiny corrupted oracle videos: for one term at a
time (a one-hot ``LossWeights``), all four gradients it returns, on both
point stacks and on the raw pose arrays, against central differences of
the weighted per-frame sum. The pose check audits
``losses._recon_gradient``, the function every live step routes its pose
gradients through: the adjoint of one Gauss-Newton camera step under a
random inlier mask, the weight live adaptation passes, including its 1/T
scaling. Each check reports the worst relative error. The
functions under test are resolved through their modules at call time, so
swapping one out (say, to flip a sign) is caught.
"""

from dataclasses import dataclass

import numpy as np

from . import losses, oracle
from .data import SceneSpec
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


def _worst_fd_error(value, args, grads, picks):
    """Worst relative error between the gradients ``grads`` of the scalar
    ``value(*args)`` and its central differences, of step ``DEFAULT_STEP``,
    at the flat entries ``picks[i]`` of ``args[i]``. An entry far below its
    array's largest is measured against 1e-4 of that largest: the
    differences' rounding error scales with the values, not with the entry
    (an exact zero included)."""
    worst = 0.0
    for i, (grad, pick) in enumerate(zip(grads, picks)):
        floor = max(1e-4 * np.abs(grad).max(), 1e-12)
        for k in pick:
            ends = []
            for sign in (1.0, -1.0):
                moved = args[i].copy()
                moved.flat[k] += sign * DEFAULT_STEP
                ends.append(value(*args[:i], moved, *args[i + 1:]))
            fd, exact = (ends[0] - ends[1]) / (2 * DEFAULT_STEP), grad.flat[k]
            worst = max(worst, abs(fd - exact) / max(abs(fd), abs(exact), floor))
    return worst


def _check_term(column, seed, trials):
    """``_evaluate``'s gradients for the term in ``column`` of its (T, 3)
    per-frame terms (traj, depth, align) alone."""
    rng = np.random.default_rng(seed)
    weights = losses.LossWeights(*(float(c == column) for c in range(3)))
    worst = 0.0
    for _ in range(trials):
        # orbit-dynamic at 8x8x3, focal 10, both branches corrupted: every
        # term has residuals at the true poses
        spec = SceneSpec("orbit-dynamic", width=8, height=8, num_frames=3,
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
        worst = max(worst, _worst_fd_error(value, args, grads, picks))
    return CheckResult(("traj_loss", "depth_loss", "align_loss")[column], worst, DEFAULT_TOL)


def check_traj_gradient(seed=0, trials=4):
    return _check_term(0, seed, trials)


def check_depth_gradient(seed=0, trials=4):
    return _check_term(1, seed, trials)


def check_align_gradient(seed=0, trials=4):
    return _check_term(2, seed, trials)


def make_pnp_instance(rng, n=40, width=64, height=48, focal=80.0, max_angle=0.4):
    """Exact 2D-3D correspondences for a random camera looking at a cloud.

    The camera turns by up to ``max_angle`` about a random axis. The cloud
    is built by backprojecting random in-image pixels at random depths in
    that camera, then mapping to world coordinates, so the ground-truth
    reprojection error is zero. Returns (intrinsics, pose, pixels (n, 2),
    world points (3, n)).
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
    return K, pose, pix, world.T


def check_pose_gradient(seed=0, trials=4):
    """``losses._recon_gradient``, the pull-back of live adaptation's camera
    step onto the recon stack, versus differences.

    Each instance is a 2-frame video: frame 0 at the identity, frame 1 at a
    perturbed base pose with the cloud as its recon points (3, N) and a
    random inlier mask. Frame 1's camera takes one Gauss-Newton step from
    its base, as each live evaluation does, and the scalar is that pose's
    share of the mean objective under a random upstream gradient:
    (<g_R, R_1> + <g_T, t_1>) / T.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        K, true_pose, pixels, points = make_pnp_instance(rng)
        n = len(pixels)
        R = np.stack([np.eye(3), so3_exp(rng.normal(0, 0.01, 3)) @ true_pose.rotation])
        t = np.stack([np.zeros(3), true_pose.translation + rng.normal(0, 0.01, 3)])
        rec = np.zeros((2, 3, n))
        rec[1] = points
        inliers = rng.random((2, n)) < 0.8
        g_R, g_T = rng.normal(0, 1, (2, 3, 3)), rng.normal(0, 1, (2, 3))

        def value(stack):
            R_1, t_1 = losses.gauss_newton_refine(R[1], t[1], stack[1], pixels, K, inliers[1])[:2]
            return float(np.sum(g_R[1] * R_1) + g_T[1] @ t_1) / len(rec)

        gn = losses.gauss_newton_refine(R[1], t[1], rec[1], pixels, K, inliers[1])[2:]
        grad = losses._recon_gradient(
            np.zeros_like(rec), g_R, g_T, R, t, [gn], rec, inliers, pixels, K
        )
        rows = rng.choice(np.flatnonzero(inliers[1]), 3, replace=False)
        picks = [(rec[0].size + np.arange(3)[:, None] * n + rows).ravel()]
        worst = max(worst, _worst_fd_error(value, (rec,), (grad,), picks))
    return CheckResult("live_pose_step", worst, DEFAULT_TOL)


ALL_CHECKS = (
    check_traj_gradient,
    check_depth_gradient,
    check_align_gradient,
    check_pose_gradient,
)


def run_all(seed: int = 0, trials: int = 4) -> list:
    return [fn(seed=seed, trials=trials) for fn in ALL_CHECKS]
