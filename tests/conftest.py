"""Shared builders for synthetic test instances."""

import numpy as np
from scipy.spatial.transform import Rotation

from worldtrack.geometry import PoseSE3, skew, so3_exp
from worldtrack.gradcheck import make_pnp_instance  # noqa: F401  (shared with the tests)
from worldtrack.losses import (
    LossBreakdown, LossWeights, _evaluate, _objective, _pose_stack, _stacks,
)


def objective(tracking, recon, poses, K, sup, mono, weights=LossWeights()):
    """The objective adaptation evaluates, at fixed poses, as gradcheck lays
    it out: the breakdown, the gradients (g_trk, g_rec, g_R, g_T) of the
    frames' summed objective, point gradients as (T, 3, P) stacks, and the
    layout."""
    trk, rec, _, _, layout = _objective(_stacks(tracking, recon), K, sup, mono, weights)
    per_term, grads = _evaluate(layout, trk, rec, *_pose_stack(poses))
    return LossBreakdown.combine(per_term, weights), grads, layout


def random_pose(rng, max_angle=None) -> PoseSE3:
    if max_angle is None:
        R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
    else:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = Rotation.from_rotvec(axis * rng.uniform(0, max_angle)).as_matrix()
    return PoseSE3(R, rng.normal(size=3) * 0.5)


def so3_exp_jac(omega: np.ndarray) -> np.ndarray:
    """Per-axis derivative of the Rodrigues map, the reference for the
    closed-form contraction in the pose adjoint.

    Returns a (3, 3, 3) tensor J with J[i] = d exp([omega]x) / d omega_i,
    using the closed form of Gallego & Yezzi for theta > 0 and the
    first-order limit at the origin.
    """
    omega = np.asarray(omega, dtype=np.float64)
    R = so3_exp(omega)
    theta2 = float(omega @ omega)
    out = np.empty((3, 3, 3))
    for i, e in enumerate(np.eye(3)):
        if theta2 < 1e-14:
            out[i] = skew(e)
        else:
            w = np.cross(omega, (np.eye(3) - R) @ e)
            out[i] = (omega[i] * skew(omega) + skew(w)) @ R / theta2
    return out
