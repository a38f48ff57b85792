"""World-frame point tracking and reconstruction toolkit.

Geometric core for estimating cameras from per-frame pointmaps, adapting
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
    Correspondences2D3D,
    PoseEstimate,
    RansacConfig,
    correspondences_from_pointmap,
    estimate_focal_weiszfeld,
    gauss_newton_refine,
    pose_gradient_wrt_points,
    solve_cameras_for_video,
    solve_pnp_ransac,
)
from .errors import WorldTrackError
from .geometry import (
    Intrinsics,
    PixelGrid,
    Pointmap,
    PoseSE3,
    TrackSet,
    assemble_trajectories,
    backproject,
    project_points,
)
from .losses import (
    AdaptState,
    DepthSupervision,
    LossBreakdown,
    LossWeights,
    TrackSupervision,
    depth_loss,
    total_loss,
    traj_loss,
    tta_optimize,
)
from .oracle import (
    PRESETS,
    RenderedSequence,
    SceneSpec,
    corrupt,
    generate_sequence,
    make_depth_supervision,
    make_track_supervision,
    projected_track_supervision,
)
from .seqio import load_sequence, save_sequence

__all__ = [
    "AdaptState",
    "Correspondences2D3D",
    "DepthSupervision",
    "Intrinsics",
    "LossBreakdown",
    "LossWeights",
    "MetricReport",
    "PRESETS",
    "PixelGrid",
    "Pointmap",
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
    "correspondences_from_pointmap",
    "corrupt",
    "depth_loss",
    "epe",
    "estimate_focal_weiszfeld",
    "eval_recon",
    "eval_tracking",
    "gauss_newton_refine",
    "generate_sequence",
    "load_sequence",
    "make_depth_supervision",
    "make_track_supervision",
    "median_scale_align",
    "pose_gradient_wrt_points",
    "project_points",
    "projected_track_supervision",
    "save_sequence",
    "solve_cameras_for_video",
    "solve_pnp_ransac",
    "subsample_queries",
    "total_loss",
    "traj_loss",
    "tta_optimize",
    "umeyama_sim3_align",
    "__version__",
]
