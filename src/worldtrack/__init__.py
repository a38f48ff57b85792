"""World-frame point tracking and reconstruction toolkit.

Geometric core for estimating cameras from pointmap videos, adapting
tracking predictions against 2D track and monocular depth supervision, and
scoring world-frame trajectories and reconstructions.
"""

__version__ = "0.1.0"

from .bench import (
    MetricReport,
    Sim3,
    apd_3d,
    epe,
    eval_recon,
    eval_tracking,
    median_scale_align,
    subsample_queries,
    umeyama_sim3_align,
)
from .camera import (
    PoseEstimate,
    RansacConfig,
    estimate_focal_weiszfeld,
    solve_cameras_for_video,
)
from .data import (
    PRESETS,
    DepthSupervision,
    RenderedSequence,
    SceneSpec,
    TrackSupervision,
)
from .errors import WorldTrackError
from .geometry import (
    Intrinsics,
    PixelGrid,
    PointmapVideo,
    PoseSE3,
    TrackSet,
    assemble_trajectories,
    backproject,
    project_points,
)
from .losses import (
    AdaptState,
    LossBreakdown,
    LossWeights,
    depth_loss,
    traj_loss,
    tta_optimize,
)
from .oracle import (
    corrupt,
    generate_sequence,
    make_depth_supervision,
    projected_track_supervision,
)
from .seqio import load_sequence, save_sequence

__all__ = [
    "AdaptState",
    "DepthSupervision",
    "Intrinsics",
    "LossBreakdown",
    "LossWeights",
    "MetricReport",
    "PRESETS",
    "PixelGrid",
    "PointmapVideo",
    "PoseEstimate",
    "PoseSE3",
    "RansacConfig",
    "RenderedSequence",
    "SceneSpec",
    "Sim3",
    "TrackSet",
    "TrackSupervision",
    "WorldTrackError",
    "apd_3d",
    "assemble_trajectories",
    "backproject",
    "corrupt",
    "depth_loss",
    "epe",
    "estimate_focal_weiszfeld",
    "eval_recon",
    "eval_tracking",
    "generate_sequence",
    "load_sequence",
    "make_depth_supervision",
    "median_scale_align",
    "project_points",
    "projected_track_supervision",
    "save_sequence",
    "solve_cameras_for_video",
    "subsample_queries",
    "traj_loss",
    "tta_optimize",
    "umeyama_sim3_align",
    "__version__",
]
