"""Self-supervised adaptation losses and the test-time optimizer.

Three signals drive adaptation of tracking pointmaps: reprojection of the
tracked 3D points against 2D track supervision (scale-invariant in the
image plane), projected depth against monocular depth supervision (with a
closed-form scale), and 3D agreement between the tracking and
reconstruction branches at corresponding pixels. All losses return their
analytic gradients; nothing here relies on autodiff. The multi-frame
objective evaluates every frame in one pass over stacked point arrays, and
the single-frame losses call the same kernels with one frame. The
supervision it reads, ``TrackSupervision`` and ``DepthSupervision``, is
defined in ``data``.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .camera import (
    RansacConfig,
    _pose_adjoint,
    gauss_newton_refine,
    solve_cameras_for_video,
)
from .data import DepthSupervision, TrackSupervision
from .errors import (
    AllOccluded,
    DegenerateRadius,
    DivergenceDetected,
    NonPositiveProjectedDepth,
    NoOverlap,
    QueryOutOfBounds,
    ShapeMismatch,
)
from .geometry import (
    DEPTH_EPS,
    PixelGrid,
    PointmapVideo,
    PoseSE3,
    _freeze,
    project_points,
    queries_to_indices,
    video_arrays,
)

log = logging.getLogger(__name__)

RADIUS_FLOOR = 1e-8
# adaptation stops once a step's total exceeds this multiple of the first
DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class LossWeights:
    traj: float = 1.0
    depth: float = 10.0
    align: float = 5.0

    def __post_init__(self):
        weights = (self.traj, self.depth, self.align)
        if not all(np.isfinite(w) and w >= 0 for w in weights):
            raise ValueError(f"loss weights must be finite and non-negative, got {weights}")


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
        return cls(traj, depth, align, total, _freeze(rows))


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
    """Per-frame sums of a * b over every axis but the first, in numpy's
    own fixed order (a BLAS product would split long sums over its threads,
    so the bits would depend on the thread count), with no temporary the
    size of the inputs."""
    T = len(a)
    return np.einsum("ij,ij->i", a.reshape(T, -1), b.reshape(T, -1))


def _scatter(index: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape`` plus values summed at their flat indices."""
    out = np.bincount(index.reshape(-1), weights=values.reshape(-1), minlength=np.prod(shape))
    # with no indices at all, bincount returns integers despite the weights
    return out.reshape(shape).astype(np.float64, copy=False)


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
    """(T, H, W, 3) points as a new (T, 3, H*W) array."""
    return points.reshape(len(points), -1, 3).transpose(0, 2, 1).copy()


# ---------------------------------------------------------------------------
# individual losses


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
    return float(loss[0]), grad[0].T, int(dropped[0])


def depth_loss(
    recon: PointmapVideo,
    j: int,
    pose: PoseSE3,
    mono_depth: np.ndarray,
    mono_valid: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Scale-aligned squared depth error of frame j of a recon video
    against monocular supervision.

    The per-frame scale alpha* = sum(z_proj * z_mono) / sum(z_proj^2) is the
    closed-form minimizer; its dependence on the projected depths is part
    of the returned gradient. Gradients are with respect to frame j's
    coordinates, shape (H, W, 3), zero outside the compared pixels. A depth
    map or mask off the grid raises ``ShapeMismatch``, and a non-finite
    depth at a compared pixel ``ValueError``.
    """
    points, mask = video_arrays(recon, "recon", j)
    mono_depth = np.asarray(mono_depth, dtype=np.float64)
    if mono_depth.shape != mask.shape:
        raise ShapeMismatch(f"depth map {mono_depth.shape} vs grid")
    if mono_valid is not None:
        mono_valid = np.asarray(mono_valid, dtype=bool)
        if mono_valid.shape != mask.shape:
            raise ShapeMismatch(f"depth mask {mono_valid.shape} vs grid")
        mask = mask & mono_valid
    # the supervision's own check refuses a non-finite compared depth
    DepthSupervision(mono_depth[None], mask[None])
    r3 = pose.rotation[2]
    z = points @ r3 + pose.translation[2]
    loss, grad_z, checks = _depth_terms(
        z.reshape(1, -1), np.where(mask, mono_depth, 0.0).reshape(1, -1), mask.reshape(1, -1)
    )
    _raise_first(checks, attach_frame=False)
    return float(loss[0]), grad_z.reshape(z.shape)[..., None] * r3


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
    query_flat: np.ndarray | None  # flat (T, 3, N) stack indices, None for the slice
    gt_c: np.ndarray  # (T, 2, N): tracks minus the center, zero if unused
    gt_r: np.ndarray  # (T, N): their radii
    depth_mask: np.ndarray  # (T, P)
    mono_z: np.ndarray  # (T, P): monocular depth, zero outside depth_mask
    align_frame: np.ndarray  # (m,): the frame of each alignment pair
    align_trk: np.ndarray  # (3, m): flat indices into the tracking stack
    align_rec: np.ndarray  # (3, m): flat indices into the recon stack


def _objective(tracking, recon, K, sup, mono, weights):
    """Validate a tracking and a recon video of T frames of P pixels and
    lay their objective out once.

    Returns both branches' (T, 3, P) point stacks, new arrays of their own,
    their (T, P) masks and the ``_Layout`` that ``_evaluate`` takes.
    """
    trk, trk_valid = video_arrays(tracking, "tracking")
    rec, rec_valid = video_arrays(recon, "recon")
    T, H, W, _ = trk.shape
    if not (T == len(rec) == sup.num_frames == mono.depth.shape[0]):
        raise ShapeMismatch("frame counts disagree across inputs")
    if rec.shape != trk.shape:
        raise ShapeMismatch(f"recon grid {rec.shape[1:3]} vs tracking grid {(H, W)}")
    if mono.depth.shape[1:] != (H, W):
        raise ShapeMismatch(f"depth maps {mono.depth.shape[1:]} vs grid {(H, W)}").with_frame(0)
    trk, rec = _coordinates_first(trk), _coordinates_first(rec)
    trk_valid, rec_valid = trk_valid.reshape(T, -1), rec_valid.reshape(T, -1)

    rows, cols = queries_to_indices(sup.query_pixels, W, H)
    qflat = rows * W + cols
    off_grid = sup.correspondence >= H * W
    if off_grid.any():
        j = int(np.argmax(off_grid.any(axis=0)))
        i = int(np.argmax(off_grid[:, j]))
        raise QueryOutOfBounds(
            f"query {i}: correspondence {sup.correspondence[i, j]} outside {W}x{H} grid"
        ).with_frame(j)
    query_ok = sup.visibility.T & trk_valid[:, qflat]
    center = np.array([[W / 2.0], [H / 2.0]])
    gt_c = np.where(query_ok[:, None], sup.tracks2d.transpose(1, 2, 0) - center, 0.0)
    depth_mask = rec_valid & mono.valid.reshape(T, -1)
    # queries on every pixel in raster order select by a slice (a view);
    # any other set, repeats included, scatters through its stack indices
    raster = np.array_equal(qflat, np.arange(H * W))
    query_flat = None
    if not raster:
        query_flat = (np.arange(T)[:, None, None] * 3 + np.arange(3)[:, None]) * H * W + qflat
    align_frame, align_trk, align_rec = _align_pairs(
        sup.correspondence, qflat, trk_valid, rec_valid
    )
    layout = _Layout(
        weights=weights, focal=K.focal, offset=np.array([[K.cx], [K.cy]]) - center,
        query_ok=query_ok, query_sel=slice(None) if raster else qflat,
        query_flat=query_flat, gt_c=gt_c, gt_r=np.hypot(gt_c[:, 0], gt_c[:, 1]),
        depth_mask=depth_mask, mono_z=np.where(depth_mask, mono.depth.reshape(T, -1), 0.0),
        align_frame=align_frame, align_trk=align_trk, align_rec=align_rec,
    )
    return trk, rec, trk_valid, rec_valid, layout


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
    if lay.query_flat is None:
        g_trk[:, :, lay.query_sel] += g_q
    else:
        g_trk += _scatter(lay.query_flat, g_q, trk.shape)
    del g_q
    if recon_grad:
        g_align *= -1.0
        g_rec = _scatter(lay.align_rec, g_align, rec.shape)
        del g_align
        g_rec += (w.depth * g_z)[:, None] * R[:, 2, :, None]
    return np.column_stack([l_traj, l_depth, l_align]), (g_trk, g_rec, g_R, g_T)


def _pose_stack(poses: list[PoseSE3]):
    return np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses])


# ---------------------------------------------------------------------------
# test-time adaptation


@dataclass
class AdaptState:
    """Optimizable tracking video plus the frozen-or-live recon video."""

    tracking_params: PointmapVideo
    recon_pointmaps: PointmapVideo
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
    """Plain gradient descent on the tracking video.

    With freeze_recon the cameras are solved once from the recon video and
    held fixed, and the recon video is returned untouched. Otherwise the
    recon points are optimized too: each evaluation steps the cameras
    (solved once, seeded by ``state.seed``) by one Gauss-Newton step on the
    recon stack, the solve's inliers as a weight, and the loss gradient flows
    back through that step's increment and normal matrix.

    The points live in two (T, 3, H*W) copies of the run's own for the whole
    run (the valid masks are fixed); the input videos are never written to,
    and the output videos are built once, from the final arrays.
    Non-finite points, poses or loss totals, or a total above
    ``DIVERGENCE_FACTOR`` times the first, raise ``DivergenceDetected``.

    The trace holds one entry per evaluated step plus a final evaluation
    after the last update; zero steps returns the state unchanged with an
    empty trace. A step count or seed that is not an integer at least 0, or
    a step size that is not finite and positive, raises ``ValueError``
    before the solve.
    """
    steps = state.steps
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be an integer at least 0, got {steps!r}")
    if not (np.isfinite(state.step_size) and state.step_size > 0):
        raise ValueError(f"step_size must be finite and positive, got {state.step_size!r}")
    ransac = RansacConfig(seed=state.seed)
    if steps == 0:
        return state, []

    T, H, W = video_arrays(state.tracking_params, "tracking")[1].shape
    grid = PixelGrid.create(W, H)
    K, estimates = solve_cameras_for_video(state.recon_pointmaps, grid, ransac)
    trk, rec, trk_valid, rec_valid, layout = _objective(
        state.tracking_params, state.recon_pointmaps, K, sup, mono, weights
    )
    live = not state.freeze_recon
    # live cameras step on from the solve's base poses; frozen ones are its poses
    R, t = _pose_stack([e.base_pose if live else e.pose for e in estimates])
    # the solve's per-pixel inliers, a weight on the recon stack
    inliers = np.stack([e.inliers for e in estimates])
    pixels = grid.flat()

    trace: list[LossBreakdown] = []
    for step in range(steps + 1):
        # guard the updated points and poses first: an overflowed step would
        # otherwise surface as a misleading solver or occlusion error
        if not (np.isfinite(trk).all() and (not live or np.isfinite(rec).all())):
            raise DivergenceDetected(f"step {step}: adapted points are not finite")
        if live:
            # one Gauss-Newton step per camera from its last pose; the adjoint
            # keeps only the base pose, the increment and the normal matrix
            R_base, t_base, gn = R, t, []
            R, t = R.copy(), t.copy()
            for j in range(1, T):
                R[j], t[j], delta, normal = gauss_newton_refine(
                    R_base[j], t_base[j], rec[j], pixels, K, inliers[j]
                )
                gn.append((delta, normal))
            if not (np.isfinite(R).all() and np.isfinite(t).all()):
                raise DivergenceDetected(f"step {step}: stepped poses are not finite")
        last = step == steps
        per_term, (g_trk, g_rec, g_R, g_T) = _evaluate(layout, trk, rec, R, t, live and not last)
        breakdown = LossBreakdown.combine(per_term, weights)
        if not np.isfinite(breakdown.total):
            raise DivergenceDetected(f"step {step}: total {breakdown.total} is not finite")
        trace.append(breakdown)
        if last:
            break
        initial_total = trace[0].total
        if breakdown.total > DIVERGENCE_FACTOR * max(initial_total, 1e-30):
            raise DivergenceDetected(
                f"step {step}: total {breakdown.total:.3e} exceeds "
                f"{DIVERGENCE_FACTOR}x initial {initial_total:.3e}"
            )
        g_trk *= state.step_size / T
        trk -= g_trk
        if live:
            g_rec = _recon_gradient(g_rec, g_R, g_T, R_base, t_base, gn, rec, inliers, pixels, K)
            g_rec *= state.step_size
            rec -= g_rec
        # the next evaluation sets the peak memory: free the gradients first
        del g_trk, g_rec

    # points last again, each in a new array of its own for its video to take over
    shape = (T, 3, H, W)
    tracking = PointmapVideo(
        "tracking", np.moveaxis(trk.reshape(shape), 1, -1).copy(), trk_valid.reshape(T, H, W)
    )
    recon = state.recon_pointmaps
    if live:
        rec_valid = rec_valid.reshape(T, H, W)
        recon = PointmapVideo("recon", np.moveaxis(rec.reshape(shape), 1, -1).copy(), rec_valid)
    return replace(state, tracking_params=tracking, recon_pointmaps=recon), trace


def _recon_gradient(g_rec, g_R, g_T, R, t, gn, rec, inliers, pixels, K):
    """The mean objective's gradient on the recon stack, in place of the
    summed objective's direct part g_rec (T, 3, P), with the pose gradients
    of frames 1..T-1 routed through the Gauss-Newton steps, (increment,
    normal matrix) in ``gn``, they took from the poses (R, t) on the
    stack rec weighted by ``inliers``."""
    T = len(g_rec)
    g_rec /= T
    for j, (delta, H) in enumerate(gn, start=1):
        g_rec[j] += _pose_adjoint(
            R[j], t[j], delta, H, rec[j], pixels, K, inliers[j], g_R[j] / T, g_T[j] / T
        )
    return g_rec
