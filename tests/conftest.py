"""Shared builders for synthetic test instances."""

import numpy as np
from scipy.spatial.transform import Rotation

from worldtrack.geometry import PoseSE3
from worldtrack.gradcheck import make_pnp_instance  # noqa: F401  (shared with the tests)


def random_pose(rng, max_angle=None) -> PoseSE3:
    if max_angle is None:
        R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
    else:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = Rotation.from_rotvec(axis * rng.uniform(0, max_angle)).as_matrix()
    return PoseSE3(R, rng.normal(size=3) * 0.5)
