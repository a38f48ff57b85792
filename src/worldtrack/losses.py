"""Self-supervised adaptation losses and the test-time optimizer.

Three signals drive adaptation of tracking pointmaps: reprojection of the
tracked 3D points against 2D track supervision (scale-invariant in the
image plane), projected depth against monocular depth supervision (with a
closed-form scale), and 3D agreement between the tracking and
reconstruction branches at corresponding pixels. All losses return their
analytic gradients; nothing here relies on autodiff.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .camera import (
    GNConfig,
    PoseEstimate,
    RansacConfig,
    correspondences_from_pointmap,
    gauss_newton_refine,
    pose_gradient_wrt_points,
    solve_cameras_for_video,
)
from .errors import (
    AllOccluded,
    DegenerateGeometry,
    DegenerateRadius,
    DivergenceDetected,
    EmptyMask,
    NonPositiveProjectedDepth,
    NoOverlap,
    ShapeMismatch,
    WorldTrackError,
)
from .geometry import (
    DEPTH_EPS,
    Intrinsics,
    PixelGrid,
    Pointmap,
    PoseSE3,
    _freeze,
    queries_to_indices,
)

log = logging.getLogger(__name__)

RADIUS_FLOOR = 1e-8


def _as_pose(pose_like) -> PoseSE3:
    if isinstance(pose_like, PoseEstimate):
        return pose_like.pose
    return pose_like


# ---------------------------------------------------------------------------
# supervision containers


@dataclass(frozen=True)
class TrackSupervision:
    """Pseudo ground-truth 2D tracks for a set of anchor-frame queries.

    query_pixels: (N, 2) anchor pixel coordinates.
    tracks2d: (N, T, 2) tracked pixel positions.
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


@dataclass(frozen=True)
class LossWeights:
    traj: float = 1.0
    depth: float = 10.0
    align: float = 5.0

    def __post_init__(self):
        if min(self.traj, self.depth, self.align) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted term values plus the weighted total.

    per_frame holds one (traj, depth, align, total) row per frame; the
    top-level terms are their means.
    """

    traj: float
    depth: float
    align: float
    total: float
    per_frame: np.ndarray
    weights: LossWeights

    @classmethod
    def combine(cls, per_term: np.ndarray, weights: LossWeights) -> "LossBreakdown":
        traj = float(np.mean(per_term[:, 0]))
        depth = float(np.mean(per_term[:, 1]))
        align = float(np.mean(per_term[:, 2]))
        total = weights.traj * traj + weights.depth * depth + weights.align * align
        rows = np.column_stack(
            [
                per_term,
                weights.traj * per_term[:, 0]
                + weights.depth * per_term[:, 1]
                + weights.align * per_term[:, 2],
            ]
        )
        return cls(traj, depth, align, total, _freeze(rows), weights)


# ---------------------------------------------------------------------------
# individual losses


def reproject_tracks(
    tracking_pm: Pointmap, pose_est, K: Intrinsics, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project tracked anchor content into a frame's image plane.

    Returns (pixels (N, 2), visible (N,)); a query is not visible when its
    pixel is invalid in the pointmap or its transformed depth is
    non-positive. Pixels of invisible entries are zeroed.
    """
    tracking_pm.require_tracking_branch()
    pose = _as_pose(pose_est)
    rows, cols = queries_to_indices(queries, tracking_pm.width, tracking_pm.height)
    pts = tracking_pm.points[rows, cols]
    valid = tracking_pm.valid[rows, cols]
    cam = pts @ pose.rotation.T + pose.translation
    z = cam[:, 2]
    visible = valid & (z > DEPTH_EPS)
    zs = np.where(visible, z, 1.0)
    pix = np.stack(
        [K.focal * cam[:, 0] / zs + K.cx, K.focal * cam[:, 1] / zs + K.cy], axis=1
    )
    pix[~visible] = 0.0
    return pix, visible


def traj_loss(
    pred: np.ndarray,
    gt: np.ndarray,
    center: np.ndarray,
    visible: np.ndarray | None = None,
) -> tuple[float, np.ndarray, int]:
    """Scale-invariant 2D trajectory loss.

    Predictions are rescaled about ``center`` by the mean ratio of
    ground-truth to predicted radii before the squared error is averaged;
    the returned gradient includes the dependence of that scale on the
    predictions. Pairs closer than 1e-8 to the center cannot contribute to
    the ratio and are dropped (the drop count is returned).
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise ShapeMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    c = np.asarray(center, dtype=np.float64)
    if visible is None:
        visible = np.ones(pred.shape[0], dtype=bool)
    if not visible.any():
        raise AllOccluded("no visible pairs for the trajectory loss")
    dp = pred - c
    radius = np.linalg.norm(dp, axis=1)
    used = visible & (radius >= RADIUS_FLOOR)
    dropped = int(visible.sum() - used.sum())
    if not used.any():
        raise DegenerateRadius("every visible pair sits on the scale center")
    if dropped:
        log.debug("traj_loss dropped %d near-center pairs", dropped)
    n = int(used.sum())
    dpu = dp[used]
    ru = radius[used]
    gu = np.linalg.norm(gt[used] - c, axis=1)
    ratios = gu / ru
    s = ratios.mean()
    e = dpu * s + c - gt[used]
    loss = float(np.mean(np.sum(e * e, axis=1)))
    # d loss / d pred through both the error and the shared scale
    beta = 2.0 / n * np.sum(e * dpu)
    ds_dp = -(gu / (n * ru**3))[:, None] * dpu
    grad_used = (2.0 * s / n) * e + beta * ds_dp
    grad = np.zeros_like(pred)
    grad[used] = grad_used
    return loss, grad, dropped


def _depth_core(recon_pm: Pointmap, pose: PoseSE3, mono_depth, mono_valid):
    mono_depth = np.asarray(mono_depth, dtype=np.float64)
    if mono_depth.shape != (recon_pm.height, recon_pm.width):
        raise ShapeMismatch(f"depth map {mono_depth.shape} vs grid")
    mask = recon_pm.valid.copy()
    if mono_valid is not None:
        mask &= np.asarray(mono_valid, dtype=bool)
    if not mask.any():
        raise NoOverlap("no pixels shared by pointmap and depth supervision")
    pts = recon_pm.points[mask]
    r3 = pose.rotation[2]
    z_proj = pts @ r3 + pose.translation[2]
    pos = z_proj > DEPTH_EPS
    if not pos.any():
        raise NonPositiveProjectedDepth("all projected depths non-positive")
    zp = z_proj[pos]
    zm = mono_depth[mask][pos]
    d1 = float(zp @ zm)
    d2 = float(zp @ zp)
    alpha = d1 / d2
    resid = alpha * zp - zm
    n = zp.shape[0]
    loss = float(np.mean(resid * resid))
    dalpha = (zm * d2 - 2.0 * zp * d1) / d2**2
    common = 2.0 / n * float(resid @ zp)
    grad_zp = (2.0 * alpha / n) * resid + common * dalpha
    return loss, grad_zp, (mask, pos, pts, r3, alpha)


def depth_loss(
    recon_pm: Pointmap,
    pose_est,
    mono_depth: np.ndarray,
    mono_valid: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Scale-aligned squared depth error against monocular supervision.

    The per-frame scale alpha* = sum(z_proj * z_mono) / sum(z_proj^2) is the
    closed-form minimizer; its dependence on the projected depths is part
    of the returned gradient. Gradients are with respect to the pointmap
    coordinates, shape (H, W, 3), zero outside the compared pixels.
    """
    recon_pm.require_recon_branch()
    pose = _as_pose(pose_est)
    loss, grad_zp, (mask, pos, pts, r3, _) = _depth_core(
        recon_pm, pose, mono_depth, mono_valid
    )
    grad_pts = np.zeros((recon_pm.height, recon_pm.width, 3))
    full = np.zeros(pts.shape[0])
    full[pos] = grad_zp
    grad_pts[mask] = full[:, None] * r3
    return loss, grad_pts


def align_loss(
    tracking_pm: Pointmap, recon_pm: Pointmap, sup: TrackSupervision
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """3D agreement between branches at corresponding pixels.

    Sums squared distances over the frame's correspondence pairs; the
    gradient is +/- twice the difference on either side. Returns
    (loss, grad_tracking, grad_recon, num_pairs); no pairs is not an
    error, just a zero loss with num_pairs == 0.
    """
    tracking_pm.require_tracking_branch()
    recon_pm.require_recon_branch()
    if tracking_pm.time != recon_pm.time:
        raise ValueError(
            f"branch times differ: {tracking_pm.time} vs {recon_pm.time}"
        )
    j = tracking_pm.time
    grad_trk = np.zeros((tracking_pm.height, tracking_pm.width, 3))
    grad_rec = np.zeros((recon_pm.height, recon_pm.width, 3))
    pair_idx = sup.correspondence[:, j]
    has = pair_idx >= 0
    if not has.any():
        return 0.0, grad_trk, grad_rec, 0
    rows, cols = queries_to_indices(
        sup.query_pixels[has], tracking_pm.width, tracking_pm.height
    )
    flat = pair_idx[has]
    r2 = flat // recon_pm.width
    c2 = flat % recon_pm.width
    ok = tracking_pm.valid[rows, cols] & recon_pm.valid[r2, c2]
    if not ok.any():
        return 0.0, grad_trk, grad_rec, 0
    rows, cols, r2, c2 = rows[ok], cols[ok], r2[ok], c2[ok]
    diff = tracking_pm.points[rows, cols] - recon_pm.points[r2, c2]
    loss = float(np.sum(diff * diff))
    np.add.at(grad_trk, (rows, cols), 2.0 * diff)
    np.add.at(grad_rec, (r2, c2), -2.0 * diff)
    return loss, grad_trk, grad_rec, int(ok.sum())


def supervised_pointmap_loss(
    pred: Pointmap, gt: Pointmap, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Scale-normalized squared distance between two pointmaps.

    Each cloud is divided by its own mean point norm over the compared
    pixels before the mean squared distance is taken, so the loss is
    invariant to a global rescaling of either input. The gradient (wrt the
    prediction) includes the normalizer's dependence on the predicted
    points.
    """
    if pred.points.shape != gt.points.shape:
        raise ShapeMismatch("pointmaps must share a grid")
    eff = np.asarray(mask, dtype=bool) & pred.valid & gt.valid
    if not eff.any():
        raise EmptyMask("no pixels selected for comparison")
    p = pred.points[eff]
    g = gt.points[eff]
    n = p.shape[0]
    p_norms = np.linalg.norm(p, axis=1)
    np_mean = float(p_norms.mean())
    ng_mean = float(np.linalg.norm(g, axis=1).mean())
    if np_mean < 1e-12 or ng_mean < 1e-12:
        raise DegenerateGeometry("zero-norm cloud cannot be scale-normalized")
    a = 1.0 / np_mean
    e = a * p - g / ng_mean
    loss = float(np.mean(np.sum(e * e, axis=1)))
    # d a / d p_k = -(1/np_mean^2) * (1/n) * p_k / |p_k|
    coef = 2.0 / n * float(np.sum(e * p))
    unit = p / np.maximum(p_norms, 1e-12)[:, None]
    grad_eff = (2.0 * a / n) * e + coef * (-(1.0 / np_mean**2) / n) * unit
    grad = np.zeros_like(pred.points)
    grad[eff] = grad_eff
    return loss, grad


# ---------------------------------------------------------------------------
# full objective


def _project_chain(pts: np.ndarray, pose: PoseSE3, K: Intrinsics):
    """Projection of (N, 3) points with a closure for backprop.

    The closure maps an upstream (N, 2) pixel gradient to gradients with
    respect to the points, the rotation and the translation.
    """
    Y = pts @ pose.rotation.T + pose.translation
    z = Y[:, 2]
    ok = z > DEPTH_EPS
    zs = np.where(ok, z, 1.0)
    f = K.focal
    pix = np.stack([f * Y[:, 0] / zs + K.cx, f * Y[:, 1] / zs + K.cy], axis=1)
    pix[~ok] = 0.0

    def backward(grad_pix: np.ndarray):
        gp = grad_pix * ok[:, None]
        grad_Y = np.zeros_like(Y)
        grad_Y[:, 0] = gp[:, 0] * f / zs
        grad_Y[:, 1] = gp[:, 1] * f / zs
        grad_Y[:, 2] = -(gp[:, 0] * Y[:, 0] + gp[:, 1] * Y[:, 1]) * f / zs**2
        grad_pts = grad_Y @ pose.rotation
        grad_R = np.einsum("ni,nj->ij", grad_Y, pts)
        grad_T = grad_Y.sum(axis=0)
        return grad_pts, grad_R, grad_T

    return pix, ok, backward


@dataclass
class _FrameGrads:
    """Per-frame gradient bundle produced by the full objective."""

    tracking: np.ndarray
    recon: np.ndarray
    pose_rotation: np.ndarray
    pose_translation: np.ndarray


def _frame_objective(
    tracking_pm: Pointmap,
    recon_pm: Pointmap,
    pose: PoseSE3,
    K: Intrinsics,
    sup: TrackSupervision,
    mono: DepthSupervision,
    weights: LossWeights,
    query_rows: np.ndarray,
    query_cols: np.ndarray,
):
    """Losses and gradients for one frame; terms are unweighted values."""
    j = tracking_pm.time
    H, W = tracking_pm.height, tracking_pm.width
    center = np.array([W / 2.0, H / 2.0])
    g_track = np.zeros((H, W, 3))

    pts_q = tracking_pm.points[query_rows, query_cols]
    valid_q = tracking_pm.valid[query_rows, query_cols]
    pix, depth_ok, backward = _project_chain(pts_q, pose, K)
    vis = sup.visibility[:, j] & valid_q & depth_ok
    l_traj, grad_pix, _ = traj_loss(pix, sup.tracks2d[:, j], center, vis)
    w_traj = weights.traj
    grad_q, gR, gT = backward(grad_pix * w_traj)
    np.add.at(g_track, (query_rows, query_cols), grad_q)

    l_depth, grad_zp, (mask, pos, pts_d, r3, _) = _depth_core(
        recon_pm, pose, mono.depth[j], mono.valid[j]
    )
    full = np.zeros(pts_d.shape[0])
    full[pos] = grad_zp
    g_recon = np.zeros((H, W, 3))
    g_recon[mask] = weights.depth * full[:, None] * r3
    # the depth term also pulls on the pose: z_proj = r3 . X + t_z
    gR_depth = np.zeros((3, 3))
    gR_depth[2] = full @ pts_d
    gR = gR + weights.depth * gR_depth
    gT = gT + weights.depth * np.array([0.0, 0.0, full.sum()])

    l_align, g_align_trk, g_align_rec, _ = align_loss(tracking_pm, recon_pm, sup)
    g_track += weights.align * g_align_trk
    g_recon += weights.align * g_align_rec

    grads = _FrameGrads(g_track, g_recon, gR, gT)
    return np.array([l_traj, l_depth, l_align]), grads


def total_loss(
    tracking_pms: list[Pointmap],
    recon_pms: list[Pointmap],
    poses: list,
    K: Intrinsics,
    sup: TrackSupervision,
    mono: DepthSupervision,
    weights: LossWeights = LossWeights(),
) -> LossBreakdown:
    """Weighted multi-frame objective, averaged over frames."""
    breakdown, _ = _total_with_grads(
        tracking_pms, recon_pms, poses, K, sup, mono, weights
    )
    return breakdown


def _total_with_grads(tracking_pms, recon_pms, poses, K, sup, mono, weights):
    T = len(tracking_pms)
    if not (T == len(recon_pms) == len(poses) == sup.num_frames == mono.depth.shape[0]):
        raise ShapeMismatch("frame counts disagree across inputs")
    first = tracking_pms[0]
    qr, qc = queries_to_indices(sup.query_pixels, first.width, first.height)
    per_term = np.zeros((T, 3))
    grads = []
    for j in range(T):
        if tracking_pms[j].time != j or recon_pms[j].time != j:
            raise ValueError(f"pointmap at index {j} carries the wrong frame time")
        if tracking_pms[j].points.shape != first.points.shape:
            raise ShapeMismatch("all frames must share one pixel grid")
        try:
            per_term[j], g = _frame_objective(
                tracking_pms[j], recon_pms[j], _as_pose(poses[j]), K,
                sup, mono, weights, qr, qc,
            )
        except WorldTrackError as exc:
            raise exc.with_frame(j)
        grads.append(g)
    return LossBreakdown.combine(per_term, weights), grads


# ---------------------------------------------------------------------------
# test-time adaptation


@dataclass
class AdaptState:
    """Optimizable tracking pointmaps plus the frozen-or-live recon side."""

    tracking_params: list[Pointmap]
    recon_pointmaps: list[Pointmap]
    freeze_recon: bool = True
    step_size: float = 1e-2
    steps: int = 500
    seed: int = 0


def tta_optimize(
    state: AdaptState,
    sup: TrackSupervision,
    mono: DepthSupervision,
    weights: LossWeights = LossWeights(),
    ransac: RansacConfig | None = None,
    gn: GNConfig = GNConfig(),
    grid: PixelGrid | None = None,
    cosine_decay: bool = False,
    divergence_factor: float = 10.0,
) -> tuple[AdaptState, list[LossBreakdown]]:
    """Plain gradient descent on the tracking pointmaps.

    With freeze_recon the cameras are solved once from the reconstruction
    pointmaps and held fixed, and the reconstruction side is returned
    untouched. Otherwise the reconstruction pointmaps are optimized too:
    poses are re-solved every step (full RANSAC once, then a warm-started
    Gauss-Newton re-refinement) and the loss gradient flows into the
    reconstruction points through the final GN increment.

    The trace holds one entry per evaluated step plus a final evaluation
    after the last update; zero steps returns the state unchanged with an
    empty trace.
    """
    T = len(state.tracking_params)
    if grid is None:
        first = state.tracking_params[0]
        grid = PixelGrid.create(first.width, first.height)
    if ransac is None:
        ransac = RansacConfig(seed=state.seed)
    if state.steps == 0:
        return state, []

    K, estimates = solve_cameras_for_video(state.recon_pointmaps, grid, ransac, gn)
    track_pts = [np.array(pm.points) for pm in state.tracking_params]
    recon_pts = [np.array(pm.points) for pm in state.recon_pointmaps]

    def materialize():
        tracking = [
            pm.with_points(track_pts[j]) for j, pm in enumerate(state.tracking_params)
        ]
        if state.freeze_recon:
            recon = state.recon_pointmaps
        else:
            recon = [
                pm.with_points(recon_pts[j]) for j, pm in enumerate(state.recon_pointmaps)
            ]
        return tracking, recon

    trace: list[LossBreakdown] = []
    initial_total = None
    lr0 = state.step_size
    for step in range(state.steps):
        tracking, recon = materialize()
        if not state.freeze_recon and step > 0:
            estimates = _resolve_poses(recon, grid, K, estimates, gn)
        breakdown, grads = _total_with_grads(
            tracking, recon, estimates, K, sup, mono, weights
        )
        trace.append(breakdown)
        if initial_total is None:
            initial_total = breakdown.total
        elif breakdown.total > divergence_factor * max(initial_total, 1e-30):
            raise DivergenceDetected(
                f"step {step}: total {breakdown.total:.3e} exceeds "
                f"{divergence_factor}x initial {initial_total:.3e}"
            )
        lr = lr0
        if cosine_decay:
            lr = lr0 * 0.5 * (1.0 + np.cos(np.pi * step / state.steps))
        for j in range(T):
            g = grads[j].tracking / T
            g[~tracking[j].valid] = 0.0
            track_pts[j] -= lr * g
            if not state.freeze_recon:
                gr = grads[j].recon / T
                if j > 0:
                    gr += pose_gradient_on_pointmap(
                        estimates[j], recon[j], grid, K,
                        (grads[j].pose_rotation / T, grads[j].pose_translation / T),
                    )
                gr[~recon[j].valid] = 0.0
                recon_pts[j] -= lr * gr

    tracking, recon = materialize()
    if not state.freeze_recon:
        estimates = _resolve_poses(recon, grid, K, estimates, gn)
    final_breakdown = total_loss(tracking, recon, estimates, K, sup, mono, weights)
    trace.append(final_breakdown)
    new_state = replace(state, tracking_params=tracking, recon_pointmaps=recon)
    return new_state, trace


def _resolve_poses(recon, grid, K, previous, gn):
    """Warm-started per-frame pose refresh for live reconstruction maps."""
    out = [previous[0]]
    for j in range(1, len(recon)):
        corr, _ = correspondences_from_pointmap(recon[j], grid)
        prev = previous[j]
        detached = PoseEstimate(
            pose=prev.pose,
            inliers=prev.inliers,
            rms_reprojection_error=prev.rms_reprojection_error,
            increment=np.zeros(6),
            base_pose=prev.pose,
            gn_damping=gn.damping,
        )
        out.append(gauss_newton_refine(detached, corr, K, gn))
    return out


def pose_gradient_on_pointmap(
    estimate: PoseEstimate,
    recon_pm: Pointmap,
    grid: PixelGrid,
    K: Intrinsics,
    upstream: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Route a pose gradient back onto the pointmap pixels that solved it.

    upstream is (dL/dR, dL/dT) at the estimate's final pose; the result is
    an (H, W, 3) gradient through the solver's last Gauss-Newton increment.
    """
    corr, flat_idx = correspondences_from_pointmap(recon_pm, grid)
    per_corr = pose_gradient_wrt_points(estimate, corr, K, upstream)
    out = np.zeros((recon_pm.height, recon_pm.width, 3))
    # one correspondence per valid pixel: flat_idx has no repeats to sum
    out.reshape(-1, 3)[flat_idx] = per_corr
    return out
