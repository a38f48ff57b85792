"""The containers a sequence and its supervision are made of.

``SceneSpec`` names a synthetic scene, ``RenderedSequence`` holds one
sequence (both branches' pointmap videos, cameras, depth and ground-truth
tracks), and ``TrackSupervision`` and ``DepthSupervision`` hold the 2D-track
and monocular-depth signals adaptation runs on. The generator (``oracle``)
builds them, the file format (``seqio``) stores them and the optimizer
(``losses``) reads them; this module depends on ``errors`` and ``geometry``
alone, so none of those layers has to load another to share them.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, UnknownPreset
from .geometry import Intrinsics, TrackSet, _freeze

PRESETS = (
    "orbit-dynamic",
    "static-camera",
    "dynamic-camera-static-scene",
    "degenerate-planar",
)

# the smallest image side a scene can be rendered at, in pixels
MIN_GRID = 8


@dataclass(frozen=True)
class SceneSpec:
    preset: str
    width: int = 64
    height: int = 48
    num_frames: int = 24
    focal: float = 80.0
    seed: int = 0
    num_beacons: int = 10

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise UnknownPreset(f"{self.preset!r}; choose from {PRESETS}")
        for name in ("width", "height", "num_frames", "seed", "num_beacons"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.width < MIN_GRID or self.height < MIN_GRID:
            raise ValueError(f"grid must be at least {MIN_GRID}x{MIN_GRID}")
        if self.num_frames < 1:
            raise ValueError("need at least one frame")
        try:
            # NaN fails the comparison; an integer past the float range overflows
            focal_ok = isinstance(self.focal, numbers.Real) and 0 < float(self.focal) < math.inf
        except OverflowError:
            focal_ok = False
        if isinstance(self.focal, bool) or not focal_ok:
            raise ValueError(f"focal length must be finite and positive, not {self.focal!r}")
        if self.num_beacons < 0:
            raise ValueError("beacon count must be non-negative")


@dataclass
class RenderedSequence:
    spec: SceneSpec
    intrinsics: Intrinsics
    cameras: list
    tracking_pointmaps: list
    recon_pointmaps: list
    depth: np.ndarray
    tracks2d: TrackSet
    tracks3d: TrackSet
    dynamic_mask: np.ndarray
    meta: dict

    @property
    def num_frames(self) -> int:
        return len(self.cameras)


@dataclass(frozen=True)
class TrackSupervision:
    """Pseudo ground-truth 2D tracks for a set of anchor-frame queries.

    query_pixels: (N, 2) finite anchor pixel coordinates.
    tracks2d: (N, T, 2) tracked pixel positions, finite where visible.
    visibility: (N, T) bool; every query is visible at t=0.
    correspondence: (N, T) int64 flat pixel index into frame t's grid for
        pairs usable by the 3D alignment term, -1 where no pair exists.
    """

    query_pixels: np.ndarray
    tracks2d: np.ndarray
    visibility: np.ndarray
    correspondence: np.ndarray

    def __post_init__(self):
        q = np.array(self.query_pixels, dtype=np.float64)
        t2 = np.array(self.tracks2d, dtype=np.float64)
        vis = np.array(self.visibility, dtype=bool)
        corr = np.array(self.correspondence, dtype=np.int64)
        n = q.shape[0]
        if q.ndim != 2 or q.shape[1] != 2:
            raise ShapeMismatch(f"query_pixels must be (N, 2), got {q.shape}")
        if t2.ndim != 3 or t2.shape[0] != n or t2.shape[2] != 2:
            raise ShapeMismatch(f"tracks2d must be (N, T, 2), got {t2.shape}")
        if vis.shape != t2.shape[:2] or corr.shape != t2.shape[:2]:
            raise ShapeMismatch("visibility/correspondence must be (N, T)")
        if n and not vis[:, 0].all():
            raise ValueError("every query must be visible at t=0")
        if not np.isfinite(q).all():
            raise ValueError("query pixels must be finite")
        if not np.isfinite(t2[vis]).all():
            raise ValueError("visible track entries must be finite")
        if (corr < -1).any():
            raise ValueError("correspondence entries must be >= -1")
        object.__setattr__(self, "query_pixels", _freeze(q))
        object.__setattr__(self, "tracks2d", _freeze(t2))
        object.__setattr__(self, "visibility", _freeze(vis))
        object.__setattr__(self, "correspondence", _freeze(corr))

    @property
    def num_queries(self) -> int:
        return self.query_pixels.shape[0]

    @property
    def num_frames(self) -> int:
        return self.tracks2d.shape[1]


@dataclass(frozen=True)
class DepthSupervision:
    """Per-frame monocular depth maps with a validity mask."""

    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        d = np.array(self.depth, dtype=np.float64)
        v = np.array(self.valid, dtype=bool)
        if d.ndim != 3 or v.shape != d.shape:
            raise ShapeMismatch(f"depth must be (T, H, W) with matching mask, got {d.shape}")
        if not np.isfinite(d[v]).all():
            raise ValueError("valid depth entries must be finite")
        object.__setattr__(self, "depth", _freeze(d))
        object.__setattr__(self, "valid", _freeze(v))
