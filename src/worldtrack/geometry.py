"""Core geometric types and operations.

Conventions used throughout the package:

* Pixel (row r, col c) has image coordinate (c + 0.5, r + 0.5): coordinates
  address pixel centers, the upper-left corner of the image is (0, 0). An
  image coordinate falls in the cell [c, c+1) x [r, r+1) (``_pixel_cells``).
* Frame indices are zero-based; frame 0 is the anchor and the world frame
  coincides with the anchor camera frame.
* Points are metric (meters), stored float64, row-major H x W grids.
* Invalid pointmap pixels carry the zero triple (0, 0, 0) with valid=False;
  arrays never hold NaNs.

A branch's video is one ``PointmapVideo``, checked once when built; the
definition of both branches is written once, on that type. Consumers read
its arrays through ``video_arrays``, the only branch check, and address one
frame as (video, j).
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


BRANCHES = ("tracking", "recon")


@dataclass(frozen=True)
class PointmapVideo:
    """One branch's pointmap video: T per-pixel 3D point grids on one H x W
    grid.

    Frame j of the two branches is the paper's prediction for the frame
    pair (0, j): both pointmaps "at the same moment, in the same world",
    time j in world frame 0, the anchor camera's frame. A ``"tracking"``
    video depicts the anchor frame's content: pixel (r, c) of every frame
    is the point seen at (r, c) in frame 0, moved to time j, so it follows
    one physical point through the video. A ``"recon"`` video depicts frame
    j's own content. Frame 0 of both branches is the anchor's self-view.

    Attributes:
        branch: ``"tracking"`` or ``"recon"``.
        points: (T, H, W, 3) float64 coordinates in meters.
        valid: (T, H, W) bool mask; invalid points are zero.

    The arrays are checked once, when built: they are taken over (copied
    only if read-only, views, not C-ordered or of another dtype), invalid
    points are zeroed, a non-finite valid point raises ``ValueError``
    naming its first frame, and both are frozen. No frames raise
    ``EmptyVideo``, and arrays of other shapes ``ShapeMismatch``.
    """

    branch: str
    points: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, not {self.branch!r}")
        pts = np.require(self.points, np.float64, "CWO")
        val = np.require(self.valid, bool, "CWO")
        if pts.ndim != 4 or pts.shape[-1] != 3:
            raise ShapeMismatch(f"points must be (T, H, W, 3), got {pts.shape}")
        if val.shape != pts.shape[:-1]:
            raise ShapeMismatch(f"valid mask {val.shape} does not match grid {pts.shape[:-1]}")
        if not len(pts):
            raise EmptyVideo(f"no {self.branch} frames")
        pts[~val] = 0.0
        finite = np.isfinite(pts)
        if not finite.all():
            j = int(np.argmin(finite.reshape(len(pts), -1).all(axis=1)))
            raise ValueError(f"frame {j}: valid pointmap entries must be finite")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "valid", _freeze(val))

    @property
    def num_frames(self) -> int:
        return self.points.shape[0]

    @property
    def height(self) -> int:
        return self.points.shape[1]

    @property
    def width(self) -> int:
        return self.points.shape[2]


def video_arrays(video, branch: str | None = None, frame: int | None = None):
    """The read-only (T, H, W, 3) points and (T, H, W) mask of a
    ``PointmapVideo`` of ``branch`` (either branch for None), or those of
    its one ``frame``. Anything but such a video raises
    ``BranchContractViolation``: this is the only branch check."""
    is_video = isinstance(video, PointmapVideo)
    if not is_video or branch not in (None, video.branch):
        got = f"a {video.branch} video" if is_video else type(video).__name__
        raise BranchContractViolation(f"expected a {branch or 'pointmap'} video, got {got}")
    if frame is None:
        return video.points, video.valid
    if not 0 <= frame < video.num_frames:
        raise IndexError(f"frame {frame} of a {video.num_frames}-frame video")
    return video.points[frame], video.valid[frame]


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

    positions: (N, T, D) with D in {2, 3}, taken over as a
    ``PointmapVideo`` takes its points (copied only if read-only, a view,
    not C-ordered or not float64) and frozen; visibility: (N, T) bool;
    dynamic: optional (N,) bool marking moving points.
    """

    positions: np.ndarray
    visibility: np.ndarray
    dynamic: np.ndarray | None = None

    def __post_init__(self):
        pos = np.require(self.positions, np.float64, "CWO")
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


def _pixels(K: Intrinsics, pose: PoseSE3, points: np.ndarray):
    """Pixels (N, 2), depths (N,) and visible mask (N,) of world points
    (N, 3) in one camera; pixels are zero where not visible."""
    R, t = pose.rotation[None], pose.translation[None]
    xy, z, _, visible = project_points(R, t, points.T)
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


def _pixel_cells(pixels: np.ndarray, width: int, height: int):
    """The pixel cell [c, c+1) x [r, r+1) of each (..., 2) image coordinate:
    its int64 rows and cols, and whether it lies on the width x height grid."""
    cols = np.floor(pixels[..., 0]).astype(np.int64)
    rows = np.floor(pixels[..., 1]).astype(np.int64)
    return rows, cols, (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)


def queries_to_indices(queries: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Map (N, 2) query pixel coordinates to the integer (rows, cols) of
    their cells; a query off the grid raises ``QueryOutOfBounds``."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ShapeMismatch(f"queries must be (N, 2), got {q.shape}")
    rows, cols, inside = _pixel_cells(q, width, height)
    if not inside.all():
        i = int(np.argmin(inside))
        raise QueryOutOfBounds(
            f"query {i} at {tuple(q[i].tolist())} outside {width}x{height} grid"
        )
    return rows, cols


def assemble_trajectories(tracking: PointmapVideo, queries: np.ndarray) -> TrackSet:
    """Gather 3D world trajectories for anchor-frame query pixels.

    Args:
        tracking: a tracking-branch video.
        queries: (N, 2) pixel coordinates inside the anchor grid.

    Returns:
        TrackSet with (N, T, 3) positions; visibility is the pointmap valid
        bit at the query pixel.
    """
    points, valid = video_arrays(tracking, "tracking")
    rows, cols = queries_to_indices(queries, points.shape[2], points.shape[1])
    # gathered straight into a C-ordered (N, T, 3) array, which TrackSet takes over
    return TrackSet(points.transpose(1, 2, 0, 3)[rows, cols], valid[:, rows, cols].T)
