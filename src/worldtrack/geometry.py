"""Core geometric types and operations.

Conventions used throughout the package:

* Pixel (row r, col c) has image coordinate (c + 0.5, r + 0.5): coordinates
  address pixel centers, the upper-left corner of the image is (0, 0).
* Frame indices are zero-based; frame 0 is the anchor and the world frame
  coincides with the anchor camera frame.
* Points are metric (meters), stored float64, row-major H x W grids.
* Invalid pointmap pixels carry the zero triple (0, 0, 0) with valid=False;
  arrays never hold NaNs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchContractViolation,
    EmptyVideo,
    QueryOutOfBounds,
    ShapeMismatch,
)

DEPTH_EPS = 1e-12
ROT_TOL = 1e-9


# ---------------------------------------------------------------------------
# rotation helpers


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x such that skew(v) @ u == cross(v, u)."""
    v = np.asarray(v, dtype=np.float64)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues formula: exponential of an axis-angle 3-vector."""
    omega = np.asarray(omega, dtype=np.float64)
    theta2 = float(omega @ omega)
    theta = np.sqrt(theta2)
    K = skew(omega)
    if theta < 1e-8:
        # second-order Taylor coefficients, exact at this scale
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return np.eye(3) + a * K + b * (K @ K)


def so3_exp_jac(omega: np.ndarray) -> np.ndarray:
    """Derivative of the Rodrigues map.

    Returns a (3, 3, 3) tensor J with J[i] = d exp([omega]x) / d omega_i,
    using the closed form of Gallego & Yezzi for theta > 0 and the
    first-order limit at the origin.
    """
    omega = np.asarray(omega, dtype=np.float64)
    R = so3_exp(omega)
    theta2 = float(omega @ omega)
    out = np.empty((3, 3, 3))
    if theta2 < 1e-14:
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            out[i] = skew(e)
        return out
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        w = np.cross(omega, (np.eye(3) - R) @ e)
        out[i] = (omega[i] * skew(omega) + skew(w)) @ R / theta2
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics with square pixels and a single focal length."""

    focal: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.focal > 0.0 and np.isfinite((self.focal, self.cx, self.cy)).all()):
            raise ValueError(f"intrinsics must be finite with a positive focal, got {self}")

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.focal, 0.0, self.cx],
                [0.0, self.focal, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform X -> rotation @ X + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64)
        if R.shape != (3, 3) or t.shape != (3,):
            raise ShapeMismatch(f"pose shapes {R.shape}, {t.shape}")
        err = np.abs(R.T @ R - np.eye(3)).max()
        det = np.linalg.det(R)
        # phrased so that a NaN fails it: NaN compares false
        if not (err <= ROT_TOL and abs(det - 1.0) <= ROT_TOL and np.isfinite(t).all()):
            raise ValueError(
                f"pose is not a finite rotation and translation: "
                f"|R^T R - I|={err:.3e}, det={det:.12f}, translation={t}"
            )
        object.__setattr__(self, "rotation", _freeze(R))
        object.__setattr__(self, "translation", _freeze(t))

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self after other: (self.compose(other))(X) == self(other(X))."""
        return PoseSE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "PoseSE3":
        return PoseSE3(self.rotation.T, -self.rotation.T @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (..., 3) array of points."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Pointmap:
    """Per-pixel 3D points with frame tags.

    Attributes:
        points: (H, W, 3) float64 grid of 3D coordinates in meters.
        valid: (H, W) boolean mask; invalid pixels are zeroed.
        coord_frame: index of the camera frame the coordinates live in.
        content_frame: index of the frame whose content is depicted.
        time: index of the time step the content is observed at.
    """

    points: np.ndarray
    valid: np.ndarray
    coord_frame: int
    content_frame: int
    time: int

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 3 or pts.shape[2] != 3:
            raise ShapeMismatch(f"points must be (H, W, 3), got {pts.shape}")
        val = np.array(self.valid, dtype=bool)
        if val.shape != pts.shape[:2]:
            raise ShapeMismatch(
                f"valid mask {val.shape} does not match grid {pts.shape[:2]}"
            )
        if not np.isfinite(pts[val]).all():
            raise ValueError("valid pointmap entries must be finite")
        pts[~val] = 0.0
        for tag in (self.coord_frame, self.content_frame, self.time):
            if tag < 0:
                raise ValueError(f"frame tags must be non-negative, got {tag}")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "valid", _freeze(val))

    @property
    def height(self) -> int:
        return self.points.shape[0]

    @property
    def width(self) -> int:
        return self.points.shape[1]

    def is_tracking_branch(self) -> bool:
        """Anchor content carried through time in anchor coordinates."""
        return self.content_frame == self.coord_frame

    def is_recon_branch(self) -> bool:
        """Per-frame content expressed in the shared coordinate frame."""
        return self.content_frame == self.time

    def require_tracking_branch(self):
        if not self.is_tracking_branch():
            raise BranchContractViolation(
                f"expected tracking-branch pointmap, got coord={self.coord_frame} "
                f"content={self.content_frame} time={self.time}"
            )

    def require_recon_branch(self):
        if not self.is_recon_branch():
            raise BranchContractViolation(
                f"expected recon-branch pointmap, got coord={self.coord_frame} "
                f"content={self.content_frame} time={self.time}"
            )

    def with_points(self, points: np.ndarray, valid: np.ndarray | None = None) -> "Pointmap":
        """Copy with replaced coordinates (tags preserved)."""
        return Pointmap(
            points,
            self.valid if valid is None else valid,
            self.coord_frame,
            self.content_frame,
            self.time,
        )


@dataclass(frozen=True)
class PixelGrid:
    """Pixel-center coordinates for a W x H image."""

    width: int
    height: int
    coords: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, width: int, height: int) -> "PixelGrid":
        if width <= 0 or height <= 0:
            raise ValueError(f"grid must be positive, got {width}x{height}")
        cols, rows = np.meshgrid(np.arange(width), np.arange(height))
        coords = np.stack([cols + 0.5, rows + 0.5], axis=-1).astype(np.float64)
        return cls(width, height, _freeze(coords))

    def flat(self) -> np.ndarray:
        """(H*W, 2) coordinates in row-major pixel order."""
        return self.coords.reshape(-1, 2)


@dataclass(frozen=True)
class TrackSet:
    """N query points over T frames, 2D or 3D.

    positions: (N, T, D) with D in {2, 3}; visibility: (N, T) bool;
    dynamic: optional (N,) bool marking moving points.
    """

    positions: np.ndarray
    visibility: np.ndarray
    dynamic: np.ndarray | None = None

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        vis = np.array(self.visibility, dtype=bool)
        if pos.ndim != 3 or pos.shape[2] not in (2, 3):
            raise ShapeMismatch(f"positions must be (N, T, 2|3), got {pos.shape}")
        if vis.shape != pos.shape[:2]:
            raise ShapeMismatch(f"visibility {vis.shape} vs positions {pos.shape}")
        object.__setattr__(self, "positions", _freeze(pos))
        object.__setattr__(self, "visibility", _freeze(vis))
        if self.dynamic is not None:
            dyn = np.array(self.dynamic, dtype=bool)
            if dyn.shape != (pos.shape[0],):
                raise ShapeMismatch(f"dynamic mask {dyn.shape} for N={pos.shape[0]}")
            object.__setattr__(self, "dynamic", _freeze(dyn))

    @property
    def num_points(self) -> int:
        return self.positions.shape[0]

    @property
    def num_frames(self) -> int:
        return self.positions.shape[1]


# ---------------------------------------------------------------------------
# operations


def project_points(R: np.ndarray, t: np.ndarray, X: np.ndarray, valid=True):
    """Pinhole projection of points under k world-to-camera poses.

    ``R`` (k, 3, 3) and ``t`` (k, 3) hold the poses; ``X`` is (k, 3, N), one
    point set per pose, or (3, N), shared by all of them. Returns the
    normalized coordinates (x/z, y/z) as (k, 2, N) and the depth z, the
    inverse depth and the ``visible`` mask, ``valid & (z > DEPTH_EPS)``, as
    (k, N) each. Normalized coordinates and inverse depth are zero where not
    visible; pixels are focal * xy + (cx, cy).
    """
    if X.ndim == 2:
        # shared points: all k poses act on them in one matrix product
        Y = (R.reshape(-1, 3) @ X).reshape(len(R), 3, -1)
    else:
        Y = R @ X
    Y += t[:, :, None]
    z = Y[:, 2]
    visible = z > DEPTH_EPS
    if valid is not True:
        visible &= valid
    # 1 / inf = +0: cheaper than a divide masked by ``where``, and the same bits
    inv_z = np.where(visible, z, np.inf)
    np.divide(1.0, inv_z, out=inv_z)
    xy = Y[:, :2]
    xy *= inv_z[:, None]
    return xy, z, inv_z, visible


def _pixels(K: Intrinsics, pose: PoseSE3, points: np.ndarray, valid=True):
    """Pixels (N, 2), depths (N,) and visible mask (N,) of world points
    (N, 3) in one camera; pixels are zero where not visible."""
    R, t = pose.rotation[None], pose.translation[None]
    xy, z, _, visible = project_points(R, t, points.T, valid)
    pix = K.focal * xy[0].T + [K.cx, K.cy]
    pix[~visible[0]] = 0.0
    return pix, z[0], visible[0]


def backproject(intrinsics: Intrinsics, pixels: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Lift pixel coordinates and depths to camera-frame points.

    Exact inverse of projection under an identity pose: (..., 2) pixels and
    (...,) depths produce (..., 3) points.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    f = intrinsics.focal
    x = (pixels[..., 0] - intrinsics.cx) / f * depth
    y = (pixels[..., 1] - intrinsics.cy) / f * depth
    return np.stack([x, y, depth], axis=-1)


def queries_to_indices(queries: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Map (N, 2) query pixel coordinates to integer (rows, cols).

    A query belongs to the pixel whose cell [c, c+1) x [r, r+1) contains it.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ShapeMismatch(f"queries must be (N, 2), got {q.shape}")
    cols = np.floor(q[:, 0]).astype(np.int64)
    rows = np.floor(q[:, 1]).astype(np.int64)
    bad = (cols < 0) | (cols >= width) | (rows < 0) | (rows >= height)
    if bad.any():
        i = int(np.argmax(bad))
        raise QueryOutOfBounds(
            f"query {i} at {tuple(q[i])} outside {width}x{height} grid"
        )
    return rows, cols


def assemble_trajectories(tracking_pointmaps: list[Pointmap], queries: np.ndarray) -> TrackSet:
    """Gather 3D world trajectories for anchor-frame query pixels.

    Args:
        tracking_pointmaps: one tracking-branch pointmap per frame, in time
            order, sharing the anchor coordinate frame.
        queries: (N, 2) pixel coordinates inside the anchor grid.

    Returns:
        TrackSet with (N, T, 3) positions; visibility is the pointmap valid
        bit at the query pixel.
    """
    if not tracking_pointmaps:
        raise EmptyVideo("no tracking pointmaps")
    first = tracking_pointmaps[0]
    for t, pm in enumerate(tracking_pointmaps):
        pm.require_tracking_branch()
        if pm.coord_frame != first.coord_frame:
            raise BranchContractViolation(
                f"pointmap {t} in frame {pm.coord_frame}, expected {first.coord_frame}"
            )
        if pm.points.shape != first.points.shape:
            raise ShapeMismatch("tracking pointmaps must share one grid")
        if pm.time != t:
            raise ValueError(f"pointmaps must be in time order, got time {pm.time} at {t}")
    rows, cols = queries_to_indices(queries, first.width, first.height)
    T = len(tracking_pointmaps)
    N = rows.shape[0]
    positions = np.zeros((N, T, 3))
    visibility = np.zeros((N, T), dtype=bool)
    for t, pm in enumerate(tracking_pointmaps):
        positions[:, t] = pm.points[rows, cols]
        visibility[:, t] = pm.valid[rows, cols]
    return TrackSet(positions, visibility)
