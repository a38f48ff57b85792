"""Exception types shared across the package.

Every error carries an optional ``frame`` attribute so per-frame pipelines
can attach the frame index before re-raising.
"""


class WorldTrackError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str = "", frame: int | None = None):
        self.frame = frame
        super().__init__(message)

    def with_frame(self, frame: int) -> "WorldTrackError":
        self.frame = frame
        args = self.args[0] if self.args else ""
        self.args = (f"frame {frame}: {args}",)
        return self


# ---- geometry ----

class EmptyVideo(WorldTrackError):
    """A video with zero frames was supplied."""


class QueryOutOfBounds(WorldTrackError):
    """A query pixel falls outside the pointmap grid."""


class BranchContractViolation(WorldTrackError):
    """A pointmap's frame tags do not match the expected branch."""


# ---- camera solving ----

class InsufficientValidPoints(WorldTrackError):
    """Too few valid pixels to run an estimator."""


class DegenerateGeometry(WorldTrackError):
    """Point configuration carries no usable signal (e.g. all rays axial)."""


class TooFewCorrespondences(WorldTrackError):
    """Fewer correspondences than the minimal sample size."""


class NoConsensus(WorldTrackError):
    """RANSAC found no sample with a usable inlier set."""


class SingularNormalEquations(WorldTrackError):
    """Gauss-Newton normal equations could not be factorized."""


# ---- losses / adaptation ----

class AllOccluded(WorldTrackError):
    """No visible pairs left for a loss term that requires at least one."""


class DegenerateRadius(WorldTrackError):
    """Every usable pair sits on top of the scale center."""


class NoOverlap(WorldTrackError):
    """Validity masks share no pixels."""


class NonPositiveProjectedDepth(WorldTrackError):
    """All projected depths were non-positive in a depth comparison."""


class DivergenceDetected(WorldTrackError):
    """Adaptation loss exceeded the divergence guard."""


# ---- oracle ----

class UnknownPreset(WorldTrackError):
    """Preset name not in the registry."""


class EmptyRaster(WorldTrackError):
    """Rasterization produced no valid pixels."""


# ---- metrics ----

class ZeroMedian(WorldTrackError):
    """Median prediction norm too small to define a scale."""


class DegenerateCovariance(WorldTrackError):
    """Point sets are collinear or coincident; similarity fit undefined."""


class ShapeMismatch(WorldTrackError):
    """Arrays that must correspond elementwise have different shapes."""


class EmptyDynamicSubset(WorldTrackError):
    """Dynamic-subset metrics requested but no point is dynamic."""
