"""Self-supervised adaptation losses and the test-time optimizer.

Three signals drive adaptation of tracking pointmaps: reprojection of the
tracked 3D points against 2D track supervision (scale-invariant in the
image plane), projected depth against monocular depth supervision (with a
closed-form scale), and 3D agreement between the tracking and
reconstruction branches at corresponding pixels. All losses return their
analytic gradients; nothing here relies on autodiff. The multi-frame
objective evaluates every frame in one pass over stacked point arrays, and
the single-frame losses call the same kernels with one frame.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .camera import (
    PoseEstimate,
    RansacConfig,
    correspondences_from_pointmap,  # noqa: F401  (perfbench traces this binding)
    correspondences_from_points,
    gauss_newton_refine,
    pose_gradient_wrt_points,
    solve_cameras_for_video,
)
from .errors import (
    AllOccluded,
    DegenerateRadius,
    DivergenceDetected,
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
    _pixels,
    project_points,
    queries_to_indices,
)

log = logging.getLogger(__name__)

RADIUS_FLOOR = 1e-8
# adaptation stops once a step's total exceeds this multiple of the first
DIVERGENCE_FACTOR = 10.0


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
# frame-batched kernels: T frames at once, coordinates first; the public
# losses call them with T = 1. Kernels return per-frame checks, (bad (T,),
# error type, message) in evaluation order, and keep failing frames finite:
# callers raise the earliest failing frame before using any value.


def _raise_first(checks, attach_frame: bool = True):
    """Raise the first failing check of the earliest failing frame."""
    bad = np.stack([c[0] for c in checks])
    failing = bad.any(axis=0)
    if failing.any():
        j = int(np.argmax(failing))
        _, kind, message = checks[int(np.argmax(bad[:, j]))]
        exc = kind(message)
        raise exc.with_frame(j) if attach_frame else exc


def _frame_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-frame sums of a * b over every axis but the first, as one
    batched matrix product (no temporary the size of the inputs)."""
    T = len(a)
    return (a.reshape(T, 1, -1) @ b.reshape(T, -1, 1))[:, 0, 0]


def _scatter(index: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape`` plus values summed at their flat indices."""
    out = np.bincount(index.reshape(-1), weights=values.reshape(-1), minlength=np.prod(shape))
    return out.reshape(shape)


def _traj_terms(dp, gt_c, gt_r, visible):
    """Scale-invariant trajectory terms of T frames: losses (T,), gradient
    with respect to the predictions (T, 2, N), pairs dropped for sitting on
    the center (T,) and checks. dp and gt_c are the (finite) predictions and
    ground truth minus the center, (T, 2, N), and gt_r the ground-truth
    radii. dp is used as scratch space."""
    radius = dp[:, 0] * dp[:, 0]
    radius += dp[:, 1] * dp[:, 1]
    np.sqrt(radius, out=radius)
    used = visible & (radius >= RADIUS_FLOOR)
    n = used.sum(axis=1)
    checks = [
        (~visible.any(axis=1), AllOccluded, "no visible pairs for the trajectory loss"),
        (n == 0, DegenerateRadius, "every visible pair sits on the scale center"),
    ]
    n = np.maximum(n, 1)
    radius[~used] = 1.0
    ratio = gt_r * used
    ratio /= radius
    s = np.sum(ratio, axis=1) / n
    e = dp * s[:, None, None]
    e -= gt_c
    e *= used[:, None]
    loss = _frame_dot(e, e) / n
    # d loss / d pred through both the error and the shared scale s
    beta = 2.0 / n * _frame_dot(e, dp)
    ratio /= radius
    ratio /= radius
    ratio *= (-beta / n)[:, None]
    e *= (2.0 * s / n)[:, None, None]
    dp *= ratio[:, None]
    e += dp
    return loss, e, visible.sum(axis=1) - used.sum(axis=1), checks


def _depth_terms(z: np.ndarray, mono: np.ndarray, mask: np.ndarray):
    """Scale-aligned depth terms of T frames: losses (T,), gradient with
    respect to the projected depths z (T, P) and checks. Depths compare
    where ``mask`` holds and z > 0, against the (finite) ``mono``; each
    frame's closed-form scale sum(z z_mono) / sum(z^2) is differentiated."""
    pair = mask & (z > DEPTH_EPS)
    checks = [
        (~mask.any(axis=1), NoOverlap, "no pixels shared by pointmap and depth supervision"),
        (~pair.any(axis=1), NonPositiveProjectedDepth, "all projected depths non-positive"),
    ]
    n = np.maximum(pair.sum(axis=1), 1)
    zp = z * pair
    zm = mono * pair
    d1 = _frame_dot(zp, zm)
    d2 = _frame_dot(zp, zp)
    d2[d2 == 0.0] = 1.0
    alpha = d1 / d2
    grad = zp * alpha[:, None]
    grad -= zm
    loss = _frame_dot(grad, grad) / n
    # grad holds the residuals; add the scale's own dependence on z,
    # common * d alpha / dz with d alpha / dz = (zm d2 - 2 zp d1) / d2^2
    common = 2.0 / n * _frame_dot(grad, zp)
    grad *= (2.0 * alpha / n)[:, None]
    grad += zm * (common / d2)[:, None]
    grad -= zp * (2.0 * common * d1 / (d2 * d2))[:, None]
    return loss, grad, checks


def _align_pairs(corr, qflat, trk_valid, rec_valid):
    """Usable (query, frame) pairs of the alignment term, by frame, then
    query: each pair's frame and the (3, m) flat indices of its tracking and
    recon points in (T, 3, P) stacks. corr (N, T) holds partner pixels."""
    t, q = np.nonzero(corr.T >= 0)
    trk_pix, rec_pix = qflat[q], corr[q, t]
    ok = trk_valid[t, trk_pix] & rec_valid[t, rec_pix]
    t, P = t[ok], trk_valid.shape[1]
    base = t * 3 * P + np.arange(3)[:, None] * P
    return t, base + trk_pix[ok], base + rec_pix[ok]


def _coordinates_first(points: np.ndarray) -> np.ndarray:
    """(T, H, W, 3) points as a (T, 3, H*W) array."""
    return np.ascontiguousarray(points.reshape(len(points), -1, 3).transpose(0, 2, 1))


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
    valid = tracking_pm.valid[rows, cols]
    pix, _, visible = _pixels(K, pose, tracking_pm.points[rows, cols], valid)
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
    visible = np.asarray(visible, dtype=bool)[None]
    # entries that are not visible drop out; zero them so they stay finite
    dp = np.where(visible, (pred - c).T, 0.0)[None]
    gt_c = np.where(visible, (gt - c).T, 0.0)[None]
    loss, grad, dropped, checks = _traj_terms(dp, gt_c, np.hypot(*gt_c[0])[None], visible)
    _raise_first(checks, attach_frame=False)
    if dropped[0]:
        log.debug("traj_loss dropped %d near-center pairs", dropped[0])
    return float(loss[0]), grad[0].T, int(dropped[0])


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
    mono_depth = np.asarray(mono_depth, dtype=np.float64)
    if mono_depth.shape != (recon_pm.height, recon_pm.width):
        raise ShapeMismatch(f"depth map {mono_depth.shape} vs grid")
    mask = recon_pm.valid.copy()
    if mono_valid is not None:
        mask &= np.asarray(mono_valid, dtype=bool)
    r3 = pose.rotation[2]
    z = recon_pm.points @ r3 + pose.translation[2]
    loss, grad_z, checks = _depth_terms(
        z.reshape(1, -1), np.where(mask, mono_depth, 0.0).reshape(1, -1), mask.reshape(1, -1)
    )
    _raise_first(checks, attach_frame=False)
    return float(loss[0]), grad_z.reshape(z.shape)[..., None] * r3


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
    H, W = tracking_pm.height, tracking_pm.width
    rows, cols = queries_to_indices(sup.query_pixels, W, H)
    j = tracking_pm.time
    _, trk_idx, rec_idx = _align_pairs(
        sup.correspondence[:, j : j + 1], rows * W + cols,
        tracking_pm.valid.reshape(1, -1), recon_pm.valid.reshape(1, -1),
    )
    trk = _coordinates_first(tracking_pm.points[None]).reshape(-1)
    diff = trk[trk_idx] - _coordinates_first(recon_pm.points[None]).reshape(-1)[rec_idx]
    g_trk, g_rec = (_scatter(i, g, (3, H, W)).transpose(1, 2, 0)
                    for i, g in ((trk_idx, 2.0 * diff), (rec_idx, -2.0 * diff)))
    return float(np.sum(diff * diff)), g_trk, g_rec, diff.shape[1]


# ---------------------------------------------------------------------------
# full objective


@dataclass(frozen=True)
class _Layout:
    """The fixed inputs of T frames' objective, laid out once: the
    supervision and masks as (T, ...) arrays, and the query and alignment
    indices into (T, 3, P) point stacks."""

    weights: LossWeights
    focal: float
    offset: np.ndarray  # (2, 1): the principal point minus the scale center
    query_ok: np.ndarray  # (T, N): visible queries on valid tracking pixels
    query_sel: slice | np.ndarray  # the query pixels, a slice for all in order
    repeats: np.ndarray | None  # flat (T, 3, N) stack indices if pixels repeat
    gt_c: np.ndarray  # (T, 2, N): tracks minus the center, zero if unused
    gt_r: np.ndarray  # (T, N): their radii
    depth_mask: np.ndarray  # (T, P)
    mono_z: np.ndarray  # (T, P): monocular depth, zero outside depth_mask
    align_frame: np.ndarray  # (m,): the frame of each alignment pair
    align_trk: np.ndarray  # (3, m): flat indices into the tracking stack
    align_rec: np.ndarray  # (3, m): flat indices into the recon stack


def _objective(tracking_pms, recon_pms, K, sup, mono, weights):
    """Validate T frames of P pixels and lay their objective out once.

    Returns both branches' (T, 3, P) point stacks, the (T, P) recon mask
    and the ``_Layout`` that ``_evaluate`` takes.
    """
    T = len(tracking_pms)
    if not (T == len(recon_pms) == sup.num_frames == mono.depth.shape[0]):
        raise ShapeMismatch("frame counts disagree across inputs")
    H, W, _ = shape = tracking_pms[0].points.shape
    for j, (trk_pm, rec_pm) in enumerate(zip(tracking_pms, recon_pms)):
        if trk_pm.time != j or rec_pm.time != j:
            raise ValueError(f"pointmap at index {j} carries the wrong frame time")
        if trk_pm.points.shape != shape or rec_pm.points.shape != shape:
            raise ShapeMismatch("all frames must share one pixel grid")
        try:
            trk_pm.require_tracking_branch()
            rec_pm.require_recon_branch()
        except WorldTrackError as exc:
            raise exc.with_frame(j)
    if mono.depth.shape[1:] != (H, W):
        raise ShapeMismatch(f"depth maps {mono.depth.shape[1:]} vs grid {(H, W)}").with_frame(0)
    branches = (tracking_pms, recon_pms)
    trk, rec = (_coordinates_first(np.stack([pm.points for pm in pms])) for pms in branches)
    trk_valid, rec_valid = (np.stack([pm.valid for pm in pms]).reshape(T, -1)
                            for pms in branches)

    rows, cols = queries_to_indices(sup.query_pixels, W, H)
    qflat = rows * W + cols
    query_ok = sup.visibility.T & trk_valid[:, qflat]
    center = np.array([[W / 2.0], [H / 2.0]])
    gt_c = np.where(query_ok[:, None], sup.tracks2d.transpose(1, 2, 0) - center, 0.0)
    depth_mask = rec_valid & mono.valid.reshape(T, -1)
    repeats = None
    if np.unique(qflat).size < qflat.size:
        repeats = (np.arange(T)[:, None, None] * 3 + np.arange(3)[:, None]) * H * W + qflat
    align_frame, align_trk, align_rec = _align_pairs(
        sup.correspondence, qflat, trk_valid, rec_valid
    )
    layout = _Layout(
        weights=weights, focal=K.focal, offset=np.array([[K.cx], [K.cy]]) - center,
        query_ok=query_ok,
        # queries on every pixel in raster order select by a slice (a view)
        query_sel=slice(None) if np.array_equal(qflat, np.arange(H * W)) else qflat,
        repeats=repeats, gt_c=gt_c, gt_r=np.hypot(gt_c[:, 0], gt_c[:, 1]),
        depth_mask=depth_mask, mono_z=np.where(depth_mask, mono.depth.reshape(T, -1), 0.0),
        align_frame=align_frame, align_trk=align_trk, align_rec=align_rec,
    )
    return trk, rec, rec_valid, layout


def _trajectory(lay: _Layout, Xq, R, t, depth_checks):
    """The traj terms (T,) and their gradient with respect to the queries'
    camera points (T, 3, N); raises the earliest failing frame's error."""
    xy, _, inv_z, visible = project_points(R, t, Xq, lay.query_ok)
    loss, g, dropped, checks = _traj_terms(
        lay.focal * xy + lay.offset, lay.gt_c, lay.gt_r, visible
    )
    _raise_first(checks + depth_checks)
    if dropped.any():
        log.debug("traj term dropped near-center pairs per frame: %s", dropped.tolist())
    # back through pix = f (x, y) / z + (cx, cy) of camera points Y
    g *= (lay.weights.traj * lay.focal * inv_z)[:, None]
    g_Y = np.empty((len(g), 3, g.shape[2]))
    g_Y[:, :2] = g
    g *= xy
    g_Y[:, 2] = -(g[:, 0] + g[:, 1])
    return loss, g_Y


def _evaluate(lay: _Layout, trk, rec, R, t, recon_grad=True):
    """All frames' objective in one pass.

    Returns the unweighted (T, 3) terms and the gradients (g_trk, g_rec,
    g_R, g_T) of the summed weighted objective with respect to both (T, 3,
    P) stacks and the poses; only g_trk without ``recon_grad``. Temporaries
    are dropped as soon as they are used: they set the peak memory.
    """
    w = lay.weights
    z = (R[:, 2:3] @ rec)[:, 0] + t[:, 2:3]
    l_depth, g_z, depth_checks = _depth_terms(z, lay.mono_z, lay.depth_mask)
    del z
    Xq = trk[:, :, lay.query_sel]
    l_traj, g_Y = _trajectory(lay, Xq, R, t, depth_checks)
    g_R = g_T = g_rec = None
    if recon_grad:
        # the depth term pulls on the pose and the recon points through
        # z = r3 . X + t_z
        g_R = g_Y @ Xq.transpose(0, 2, 1)
        g_R[:, 2] += w.depth * (rec @ g_z[:, :, None])[:, :, 0]
        g_T = g_Y.sum(axis=2)
        g_T[:, 2] += w.depth * g_z.sum(axis=1)
    g_q = R.transpose(0, 2, 1) @ g_Y
    del Xq, g_Y
    # the pair differences, scaled in place into their gradient
    g_align = trk.reshape(-1)[lay.align_trk] - rec.reshape(-1)[lay.align_rec]
    l_align = np.bincount(lay.align_frame, weights=np.sum(g_align * g_align, axis=0),
                          minlength=len(trk))
    g_align *= 2.0 * w.align
    g_trk = _scatter(lay.align_trk, g_align, trk.shape)
    if lay.repeats is None:
        g_trk[:, :, lay.query_sel] += g_q
    else:
        g_trk += _scatter(lay.repeats, g_q, trk.shape)
    del g_q
    if recon_grad:
        g_align *= -1.0
        g_rec = _scatter(lay.align_rec, g_align, rec.shape)
        del g_align
        g_rec += (w.depth * g_z)[:, None] * R[:, 2, :, None]
    return np.column_stack([l_traj, l_depth, l_align]), (g_trk, g_rec, g_R, g_T)


def _pose_stack(poses):
    poses = [_as_pose(p) for p in poses]
    return np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses])


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
    return _total_with_grads(tracking_pms, recon_pms, poses, K, sup, mono, weights)[0]


def _total_with_grads(tracking_pms, recon_pms, poses, K, sup, mono, weights):
    """The breakdown plus the gradients ``(g_trk, g_rec, g_R, g_T)`` of
    the frames' summed objective: (T, H, W, 3) for both branches, (T, 3, 3)
    and (T, 3) for the poses."""
    if len(poses) != len(tracking_pms):
        raise ShapeMismatch("frame counts disagree across inputs")
    trk, rec, _, layout = _objective(tracking_pms, recon_pms, K, sup, mono, weights)
    per_term, (g_trk, g_rec, g_R, g_T) = _evaluate(layout, trk, rec, *_pose_stack(poses))
    shape = (len(poses),) + tracking_pms[0].points.shape
    g_trk, g_rec = (g.transpose(0, 2, 1).reshape(shape) for g in (g_trk, g_rec))
    return LossBreakdown.combine(per_term, weights), (g_trk, g_rec, g_R, g_T)


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
) -> tuple[AdaptState, list[LossBreakdown]]:
    """Plain gradient descent on the tracking pointmaps.

    With freeze_recon the cameras are solved once from the reconstruction
    pointmaps and held fixed, and the reconstruction side is returned
    untouched. Otherwise the reconstruction pointmaps are optimized too:
    poses are re-solved every step (full RANSAC once, seeded by
    ``state.seed``, then one warm-started Gauss-Newton step) and the loss
    gradient flows into the reconstruction points through that GN increment.

    The points live in two (T, 3, H*W) arrays for the whole run (the valid
    masks are fixed); pointmaps are built once, from the final arrays.
    Non-finite points or loss totals, or a total above
    ``DIVERGENCE_FACTOR`` times the first, raise ``DivergenceDetected``.

    The trace holds one entry per evaluated step plus a final evaluation
    after the last update; zero steps returns the state unchanged with an
    empty trace.
    """
    T = len(state.tracking_params)
    if state.steps < 0:
        raise ValueError(f"steps must be non-negative, got {state.steps}")
    if state.steps == 0:
        return state, []

    first = state.tracking_params[0]
    grid = PixelGrid.create(first.width, first.height)
    K, estimates = solve_cameras_for_video(
        state.recon_pointmaps, grid, RansacConfig(seed=state.seed)
    )
    trk, rec, rec_valid, layout = _objective(
        state.tracking_params, state.recon_pointmaps, K, sup, mono, weights
    )
    live = not state.freeze_recon

    def correspondences():
        # live poses of frames 1..T-1 are refined on one pair per valid
        # recon pixel; the pose gradient flows back through the same pairs
        return [correspondences_from_points(rec[j].T, rec_valid[j], grid) for j in range(1, T)]

    def refresh_poses(step):
        # guard the updated points first: an overflowed step would otherwise
        # surface as a misleading solver or occlusion error
        if not (np.isfinite(trk).all() and (not live or np.isfinite(rec).all())):
            raise DivergenceDetected(f"step {step}: adapted points are not finite")
        if not live:
            return estimates, None
        pairs = correspondences()
        refined = [gauss_newton_refine(e, corr, K) for e, (corr, _) in zip(estimates[1:], pairs)]
        return estimates[:1] + refined, pairs

    def evaluate(step, recon_grad):
        per_term, grads = _evaluate(layout, trk, rec, *_pose_stack(estimates), recon_grad)
        breakdown = LossBreakdown.combine(per_term, weights)
        if not np.isfinite(breakdown.total):
            raise DivergenceDetected(f"step {step}: total {breakdown.total} is not finite")
        return breakdown, grads

    pairs = correspondences() if live else None
    trace: list[LossBreakdown] = []
    for step in range(state.steps):
        if step > 0:
            estimates, pairs = refresh_poses(step)
        breakdown, (g_trk, g_rec, g_R, g_T) = evaluate(step, live)
        trace.append(breakdown)
        initial_total = trace[0].total
        if breakdown.total > DIVERGENCE_FACTOR * max(initial_total, 1e-30):
            raise DivergenceDetected(
                f"step {step}: total {breakdown.total:.3e} exceeds "
                f"{DIVERGENCE_FACTOR}x initial {initial_total:.3e}"
            )
        g_trk *= state.step_size / T
        trk -= g_trk
        if live:
            g_rec = _recon_gradient(g_rec, g_R, g_T, estimates, pairs, K)
            g_rec *= state.step_size
            rec -= g_rec
        # the next evaluation sets the peak memory: free the gradients first
        del g_trk, g_rec
    estimates, _ = refresh_poses(state.steps)
    trace.append(evaluate(state.steps, False)[0])

    shape = state.tracking_params[0].points.shape
    tracking = [
        pm.with_points(trk[j].T.reshape(shape)) for j, pm in enumerate(state.tracking_params)
    ]
    recon = state.recon_pointmaps
    if live:
        recon = [pm.with_points(rec[j].T.reshape(shape)) for j, pm in enumerate(recon)]
    return replace(state, tracking_params=tracking, recon_pointmaps=recon), trace


def _recon_gradient(g_rec, g_R, g_T, estimates, pairs, K):
    """The mean objective's gradient on the recon stack, in place of the
    summed objective's direct part g_rec (T, 3, P), with the pose gradients
    of frames 1..T-1 routed through the (corr, flat_idx) pairs they were
    refined on."""
    T = len(g_rec)
    g_rec /= T
    for j, (corr, flat_idx) in enumerate(pairs, start=1):
        # one correspondence per valid pixel: flat_idx has no repeats to sum
        upstream = (g_R[j] / T, g_T[j] / T)
        g_rec[j].T[flat_idx] += pose_gradient_wrt_points(estimates[j], corr, K, upstream)
    return g_rec
