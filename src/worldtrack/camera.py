"""Camera recovery from a reconstruction pointmap video.

The pipeline per frame is: robust focal estimation from the anchor
pointmap (shared across the video), locally optimised RANSAC PnP with a
6-point minimal solver and a non-differentiable Gauss-Newton polish, and
one final damped Gauss-Newton step on the winner's inliers whose increment
stays differentiable with respect to the 3D points. That step,
``gauss_newton_refine``, is the one camera step: the solve takes it on a
frame's valid pairs, and live adaptation on its recon stack at every
evaluation. The adjoint, ``_pose_adjoint``, takes the step's base pose,
increment and normal matrix instead of solving again, and pulls a pose
gradient back through the same factor products the step formed; live
adaptation (``losses._recon_gradient``) runs it. The solver has one
configuration: its thresholds, iteration caps and damping are the module
constants below, and only the RANSAC seed is chosen by the caller.

RANSAC draws its minimal samples one at a time from a seeded generator and
solves each batch of draws together, as stacked SVDs. A sample whose centred
3D points are near-planar (smallest-to-middle eigenvalue ratio of their
scatter below ``PLANAR_RATIO``) defeats the DLT, so it is solved instead by
decomposing the homography between its plane and the image (Zhang, "A
flexible new technique for camera calibration", TPAMI 2000). Hypotheses are
scored preemptively (Nister, "Preemptive RANSAC", ICCV 2003): they are
ranked by their inlier count on a fixed, evenly spaced subset of at most
``PREEMPTIVE_SUBSET`` correspondences. Each hypothesis that beats the best
count is optimised locally (Chum, Matas & Kittler, "Locally optimized
RANSAC", DAGM 2003; with the capped least-squares sample of Lebeda, Matas &
Chum, "Fixing the locally optimized RANSAC", BMVC 2012): Gauss-Newton
polishes it on its consensus within that subset, and the polish and the
re-count repeat while the count rises. The polished count is the best
count, and its ratio sets the confidence bound on the number of draws.
A floor of 32 draws holds only while a later draw could still win: a draw
replaces the best only with a strictly higher count, so once the best holds
every scored pair the draws stop. The first draw is solved alone so that
this stop can come before the first batch.
Only the winner is scored on every correspondence, once, and the final
Gauss-Newton step is the only linearisation of the full set. A polish
stops once its increment falls below 1e-10, or after 10 steps. Each
closed-form 2x6 Jacobian row of the pinhole projection is a signed pick of
eight per-pair factors, so Gauss-Newton accumulates the 8x8 products of
those factors in one matrix product and assembles its normal equations from
them with constant maps, without forming the Jacobian. The pose adjoint
runs those maps and products in reverse (Amos & Kolter, "OptNet", arXiv
1703.00443), so the signs of the rows are written once, in
``_assembly_maps``; its rotation term uses the closed-form SO(3) left
Jacobian. An inlier mask is a weight, not a copy: pairs outside it get zero
weight and zero factors. Every function here takes raw pixels (N, 2),
points (3, N) and (R, t), as live adaptation holds them; only a returned
estimate holds a validated ``PoseSE3``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    InsufficientValidPoints,
    NoConsensus,
    SingularNormalEquations,
    TooFewCorrespondences,
    WorldTrackError,
)
from .geometry import (
    DEPTH_EPS,
    Intrinsics,
    PixelGrid,
    PointmapVideo,
    PoseSE3,
    _freeze,
    project_points,
    skew,
    so3_exp,
    video_arrays,
)

WEISZFELD_FLOOR = 1e-8
WEISZFELD_ITERATIONS = 10
MIN_FOCAL_PIXELS = 10
# RANSAC: draws at most, reprojection inlier threshold (pixels), points per
# minimal sample (the DLT needs 6) and the confidence of the draw bound
RANSAC_MAX_ITERATIONS = 256
INLIER_THRESHOLD = 2.0
MIN_SAMPLE = 6
RANSAC_CONFIDENCE = 0.999
# Levenberg-style damping of every Gauss-Newton step, relative to the mean
# diagonal of the normal equations
GN_DAMPING = 1e-9


@dataclass(frozen=True)
class RansacConfig:
    """The seed of RANSAC's sample draws (frame j of a video draws with
    ``seed + j``); one that is not an integer at least 0 (a bool or 2.5
    included) raises ``ValueError``."""

    seed: int = 0

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be an integer at least 0, got {seed!r}")


@dataclass(frozen=True)
class PoseEstimate:
    """Solver output for one frame.

    ``pose`` is one Gauss-Newton step on the ``inliers`` taken from
    ``base_pose`` (the two are equal for an estimate that took no step).
    ``inliers`` masks what the estimate was solved from: the pairs given to
    ``solve_pnp_ransac``, or, from ``solve_cameras_for_video``, the frame's
    (H*W,) pixels in raster order, False where the recon map is invalid.
    """

    pose: PoseSE3
    inliers: np.ndarray
    rms_reprojection_error: float
    base_pose: PoseSE3

    def __post_init__(self):
        object.__setattr__(self, "inliers", _freeze(np.array(self.inliers, dtype=bool)))


# ---------------------------------------------------------------------------
# focal estimation


def estimate_focal_weiszfeld(video: PointmapVideo, grid: PixelGrid) -> Intrinsics:
    """Recover a shared focal length from frame 0 of a video, the anchor
    self-view on either branch.

    Minimizes the robust objective sum_n ||u_n - f * q_n|| over f, where
    u_n is the pixel offset from the image center and q_n = (x/z, y/z) of
    the stored camera-frame point, via iteratively reweighted least squares
    started from the closed-form L2 solution. The principal point is fixed
    at the image center.
    """
    points, valid = video_arrays(video, frame=0)
    if valid.shape != (grid.height, grid.width):
        raise ValueError("pointmap and grid sizes differ")
    mask = valid & (points[..., 2] > DEPTH_EPS)
    if mask.sum() < MIN_FOCAL_PIXELS:
        raise InsufficientValidPoints(f"{int(mask.sum())} usable pixels")
    cx, cy = grid.width / 2.0, grid.height / 2.0
    # one flat gather per array, then contiguous x and y vectors
    flat = mask.ravel()
    coords = grid.flat().compress(flat, axis=0)
    pts = points.reshape(-1, 3).compress(flat, axis=0)
    ux, uy = coords[:, 0] - cx, coords[:, 1] - cy
    qx, qy = pts[:, 0] / pts[:, 2], pts[:, 1] / pts[:, 2]
    qq = qx * qx + qy * qy
    uq = ux * qx + uy * qy
    denom = qq.sum()
    if denom < 1e-12:
        raise DegenerateGeometry("all rays are axial; focal unobservable")
    f = uq.sum() / denom
    for _ in range(WEISZFELD_ITERATIONS):
        dx, dy = ux - f * qx, uy - f * qy
        w = 1.0 / np.maximum(np.sqrt(dx * dx + dy * dy), WEISZFELD_FLOOR)
        f = (w * uq).sum() / (w * qq).sum()
    if not np.isfinite(f) or f <= 0:
        raise DegenerateGeometry(f"focal estimate unusable: {f}")
    return Intrinsics(float(f), cx, cy)


# ---------------------------------------------------------------------------
# PnP

PREEMPTIVE_SUBSET = 1024
# samples whose scatter has a smallest-to-middle eigenvalue ratio below this
# are solved as planar (the threshold of OpenCV's planarity test)
PLANAR_RATIO = 1e-3


def _reproj_errors_many(
    rotations: np.ndarray, translations: np.ndarray, K: Intrinsics, pixels: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """(k, N) reprojection distances of N pairs, pixels (N, 2) and points
    (3, N), under k poses; +inf where the depth is non-positive."""
    xy, _, _, visible = project_points(rotations, translations, points)
    du = K.focal * xy[:, 0] + K.cx - pixels[:, 0]
    dv = K.focal * xy[:, 1] + K.cy - pixels[:, 1]
    err = np.sqrt(du * du + dv * dv)
    err[~visible] = np.inf
    return err


def _nearest_rotations(M: np.ndarray):
    """The rotations nearest to a stack of 3x3 matrices (their SVDs with
    the determinant fixed to +1), and the matrices' singular values."""
    U, sing, Vt = np.linalg.svd(M)
    U[:, :, 2] *= np.linalg.det(U @ Vt)[:, None]
    return U @ Vt, sing


def _null_vectors(P: np.ndarray, norm_pix: np.ndarray, ok: np.ndarray):
    """Unit solutions m (k, 3 q) of the stacked systems A m = 0 in which
    each pair gives the rows [P, 0, -u P] and [0, P, -v P], for rows P
    (k, n, q) and normalized pixels (u, v) (k, n, 2). A sample not in
    ``ok`` or with a non-finite entry is solved as all zeros; the returned
    mask also drops near-rank-deficient systems, which have no unique
    solution worth decoding."""
    k, n, q = P.shape
    A = np.zeros((k, 2 * n, 3 * q))
    A[:, :n, :q] = P
    A[:, n:, q:2 * q] = P
    A[:, :n, 2 * q:] = -norm_pix[:, :, :1] * P
    A[:, n:, 2 * q:] = -norm_pix[:, :, 1:] * P
    ok = ok & np.isfinite(A).all(axis=(1, 2))
    A[~ok] = 0.0
    _, sv, Vt = np.linalg.svd(A, full_matrices=False)
    ok &= sv[:, -2] >= 1e-9 * np.maximum(sv[:, 0], 1.0)
    return Vt[:, -1], ok


def _dlt_poses(points: np.ndarray, norm_pix: np.ndarray):
    """DLT solver over a stack of samples on intrinsics-normalized pixels.

    ``points`` (k, n, 3) and ``norm_pix`` (k, n, 2) hold k samples of n >= 6
    pairs each. Returns rotations (k, 3, 3), translations (k, 3) and a (k,)
    mask of the samples that gave a pose; the others are numerically
    degenerate (e.g. coplanar) and hold finite placeholders.
    """
    k, n, _ = points.shape
    X = points.transpose(0, 2, 1)
    centroid = X.mean(axis=2)
    D = X - centroid[:, :, None]
    spread = np.sqrt((D * D).sum(axis=1)).mean(axis=1)
    ok = spread >= 1e-9
    s = np.sqrt(3.0) / np.where(ok, spread, 1.0)
    # rows P = (s (X - centroid), 1)
    P = np.ones((k, n, 4))
    P[:, :, :3] = (D * s[:, None, None]).transpose(0, 2, 1)
    m, ok = _null_vectors(P, norm_pix, ok)
    M = m.reshape(k, 3, 4)
    # undo the 3D normalization: M acts on s*(X - centroid)
    M3 = M[:, :, :3] * s[:, None, None]
    m4 = M[:, :, 3] - (M3 @ centroid[:, :, None])[:, :, 0]
    det = np.linalg.det(M3)
    ok &= np.abs(det) >= 1e-12
    sign = np.where(det < 0, -1.0, 1.0)
    M3 *= sign[:, None, None]
    m4 *= sign[:, None]
    M3[~ok] = np.eye(3)
    R, sing = _nearest_rotations(M3)
    lam = sing.mean(axis=1)
    ok &= lam >= 1e-12
    t = m4 / np.where(ok, lam, 1.0)[:, None]
    ok &= np.isfinite(R).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)
    return R, t, ok


def _plane_poses(points: np.ndarray, norm_pix: np.ndarray):
    """Homography solver over a stack of near-planar samples.

    Same arguments and returns as ``_dlt_poses``. Each sample's points are
    expressed in the frame of their principal axes, the homography from the
    two in-plane coordinates to the normalized pixels is fit by DLT (both
    sides Hartley-normalized), and its columns [h1 h2 h3] ~ [r1 r2 t] give
    the pose (Zhang, TPAMI 2000), with the rotation projected onto SO(3).
    """
    k, n, _ = points.shape
    centroid = points.mean(axis=1)
    D = points - centroid[:, None]
    _, axes = np.linalg.eigh(D.transpose(0, 2, 1) @ D)
    # columns: the two in-plane axes, then the normal, as a right-handed frame
    B = axes[:, :, ::-1].copy()
    B[:, :, 2] *= np.sign(np.linalg.det(B))[:, None]
    plane = (D @ B)[:, :, :2]
    s_p = np.sqrt(2.0) / np.sqrt((plane * plane).sum(axis=2)).mean(axis=1)
    mean_x = norm_pix.mean(axis=1)
    dx = norm_pix - mean_x[:, None]
    s_x = np.sqrt(2.0) / np.sqrt((dx * dx).sum(axis=2)).mean(axis=1)
    ok = np.isfinite(s_p) & np.isfinite(s_x)
    P = np.ones((k, n, 3))
    P[:, :, :2] = plane * np.where(ok, s_p, 1.0)[:, None, None]
    x = dx * np.where(ok, s_x, 1.0)[:, None, None]
    h, ok = _null_vectors(P, x, ok)
    Hn = h.reshape(k, 3, 3)
    # undo both normalizations: H = T_x^-1 Hn T_p
    Hm = Hn * np.where(ok, s_p, 1.0)[:, None, None]
    Hm[:, :, 2] = Hn[:, :, 2]
    inv_s_x = 1.0 / np.where(ok, s_x, 1.0)
    H = Hm.copy()
    H[:, :2] = Hm[:, :2] * inv_s_x[:, None, None] + mean_x[:, :, None] * Hm[:, 2:3]
    # scale and sign: unit rotation columns, centroid in front
    norms = np.linalg.norm(H[:, :, 0], axis=1) + np.linalg.norm(H[:, :, 1], axis=1)
    ok &= norms > 1e-12
    lam = np.where(H[:, 2, 2] < 0, -2.0, 2.0) / np.where(ok, norms, 1.0)
    H *= lam[:, None, None]
    M = np.empty((k, 3, 3))
    M[:, :, :2] = H[:, :, :2]
    M[:, :, 2] = np.cross(H[:, :, 0], H[:, :, 1])
    M[~ok] = np.eye(3)
    # the pose acts on B^T (X - centroid); fold that frame back in
    R = _nearest_rotations(M)[0] @ B.transpose(0, 2, 1)
    t = H[:, :, 2] - (R @ centroid[:, :, None])[:, :, 0]
    ok &= np.isfinite(R).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)
    return R, t, ok


def _minimal_poses(points: np.ndarray, norm_pix: np.ndarray):
    """Poses from a stack of minimal samples: near-planar samples by their
    plane homography, the others by DLT. Returns as ``_dlt_poses``. A stack
    LAPACK gives up on is solved again one sample at a time, and only the
    samples it refuses alone give no pose, so a sample's pose never depends
    on the draws that share its stack."""
    D = points - points.mean(axis=1, keepdims=True)
    ev = np.linalg.eigvalsh(D.transpose(0, 2, 1) @ D)
    planar = ev[:, 0] < PLANAR_RATIO * ev[:, 1]
    R = np.empty((points.shape[0], 3, 3))
    t = np.empty((points.shape[0], 3))
    ok = np.empty(points.shape[0], dtype=bool)
    for solver, pick in ((_dlt_poses, ~planar), (_plane_poses, planar)):
        stacks = [np.flatnonzero(pick)] if pick.any() else []
        while stacks:
            s = stacks.pop()
            try:
                R[s], t[s], ok[s] = solver(points[s], norm_pix[s])
            except np.linalg.LinAlgError:
                if len(s) > 1:
                    stacks += np.split(s, len(s))
                else:
                    R[s], t[s], ok[s] = np.eye(3), 0.0, False
    return R, t, ok


def _iterations_needed(ratio: float) -> int:
    """Draws that contain an all-inlier sample with probability
    ``RANSAC_CONFIDENCE`` at inlier ratio ``ratio``, capped at
    ``RANSAC_MAX_ITERATIONS``."""
    hit = ratio**MIN_SAMPLE
    if hit >= 1.0:
        return 0
    if hit <= 0.0:
        return RANSAC_MAX_ITERATIONS
    # log1p keeps a tiny hit rate from rounding 1 - hit to 1, a zero divisor
    bound = np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / np.log1p(-hit))
    return int(min(bound, RANSAC_MAX_ITERATIONS))


def solve_pnp_ransac(
    pixels: np.ndarray, points: np.ndarray, K: Intrinsics, cfg: RansacConfig = RansacConfig()
) -> PoseEstimate:
    """Robust world-to-camera pose from finite pixels (N, 2) paired with
    world points (3, N).

    Seeded 6-point hypotheses (DLT, or a plane homography for near-planar
    samples) are ranked by their inlier count on a fixed, evenly spaced
    subset of at most ``PREEMPTIVE_SUBSET`` pairs (all pairs when there are
    no more). Each new best is polished by (non-differentiable)
    Gauss-Newton on its consensus within that subset, and re-counted, for
    as long as its count rises. Iterations stop early once the usual
    confidence bound on the polished inlier ratio is met, but not before a
    floor of 32 draws, so that near-degenerate scenes still get a fair
    number of draws, unless the best already holds every scored pair: a
    later draw wins only with a strictly higher count, so none can replace
    it, and the draws stop there with the estimate the floor would give.
    The winner's inliers and RMS come from one pass over all pairs.
    """
    n = len(pixels)
    if n < MIN_SAMPLE:
        raise TooFewCorrespondences(f"{n} < minimal sample {MIN_SAMPLE}")
    rng = np.random.default_rng(cfg.seed)
    scored = pixels, points
    if n > PREEMPTIVE_SUBSET:
        pick = np.arange(PREEMPTIVE_SUBSET) * n // PREEMPTIVE_SUBSET
        scored = pixels[pick], points[:, pick]
    best_R = best_t = None
    best_count = 0
    min_iters = 32
    needed = RANSAC_MAX_ITERATIONS
    it = 0
    # draws stay one seeded sample at a time. The first is solved alone, so
    # a best that holds every scored pair stops the draws at once (no later
    # count can exceed it); later batches hold at most min_iters of the
    # draws the bound still allows, cut short when a new winner lowers it.
    while it < max(min_iters, needed) and best_count < len(scored[0]):
        batch = min(min_iters if it else 1, max(min_iters, needed) - it)
        idx = np.stack(
            [rng.choice(n, size=MIN_SAMPLE, replace=False) for _ in range(batch)]
        )
        norm_pix = (pixels[idx] - np.array([K.cx, K.cy])) / K.focal
        R, t, ok = _minimal_poses(points.T[idx], norm_pix)
        inl = np.zeros((batch, len(scored[0])), dtype=bool)
        if ok.any():
            inl[ok] = _reproj_errors_many(R[ok], t[ok], K, *scored) < INLIER_THRESHOLD
        counts = inl.sum(axis=1)
        for j in range(batch):
            if it >= max(min_iters, needed):
                break
            it += 1
            if counts[j] > best_count:
                best_R, best_t, best_count = _local_optimisation(R[j], t[j], scored, K, inl[j])
                needed = _iterations_needed(best_count / len(scored[0]))
    if best_R is None:
        raise NoConsensus(f"best consensus 0 of {n}")
    err = _reproj_errors_many(best_R[None], best_t[None], K, pixels, points)[0]
    inliers = err < INLIER_THRESHOLD
    if int(inliers.sum()) < MIN_SAMPLE:
        raise NoConsensus(f"best consensus {int(inliers.sum())} of {n}")
    rms = float(np.sqrt(np.mean(err[inliers] ** 2)))
    pose = PoseSE3(best_R, best_t)
    return PoseEstimate(pose=pose, inliers=inliers, rms_reprojection_error=rms, base_pose=pose)


def _local_optimisation(
    R: np.ndarray, t: np.ndarray, scored: tuple, K: Intrinsics, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """A new best hypothesis (R, t) polished on its consensus within the
    scored pairs, (pixels, points), and its inlier count there.

    The polish and the re-count repeat while the count strictly rises; a
    polished pose is kept when its count is at least the previous one. One
    round is not enough: on noisy pairs the first polish, fit to the
    minimal sample's narrow consensus, still leaves many inliers out. The
    count is bounded by the number of scored pairs, so the loop ends. A
    solver error in the polish keeps the raw hypothesis.
    """
    count = int(mask.sum())
    raw = R, t, count
    try:
        while True:
            R_p, t_p = _polish(R, t, *scored, K, mask)
            err = _reproj_errors_many(R_p[None], t_p[None], K, *scored)[0]
            polished_mask = err < INLIER_THRESHOLD
            polished_count = int(polished_mask.sum())
            if polished_count < count:
                break
            rose = polished_count > count
            R, t, mask, count = R_p, t_p, polished_mask, polished_count
            if not rose:
                break
    except WorldTrackError:
        return raw
    return R, t, count


def _polish(
    R: np.ndarray, t: np.ndarray, pixels: np.ndarray, points: np.ndarray, K: Intrinsics,
    mask: np.ndarray,
):
    """Gauss-Newton to convergence on the masked pairs, from a hypothesis
    (R, t): until an increment's norm falls below 1e-10, at most 10 steps."""
    for _ in range(10):
        delta = _gn_terms(R, t, points, pixels, K, mask)[0]
        R, t = _apply_increment(delta, R, t)
        if np.linalg.norm(delta) < 1e-10:
            break
    return R, t


# ---------------------------------------------------------------------------
# Gauss-Newton refinement and its point gradient


def _apply_increment(delta: np.ndarray, R: np.ndarray, t: np.ndarray):
    """Left-multiplicative update of a pose (R, t) by a 6-twist; ``so3_exp``
    products keep the rotation orthonormal."""
    E = so3_exp(delta[:3])
    return E @ R, E @ t + delta[3:]


def _residuals(
    R: np.ndarray, t: np.ndarray, X: np.ndarray, pixels: np.ndarray, K: Intrinsics, mask
):
    """Pinhole terms of points X (3, m) and pixels (m, 2) at (R, t).

    Returns ``(xy, w, inv_z, r)``: the normalized coordinates (x/z, y/z) of
    the camera points (2, m), the weight mask w (``mask`` and positive
    depth), 1/z and the (2, m) residual pixel - projection. Pairs outside
    the mask or of non-positive depth get zero weight, coordinates and
    inverse depth, so they drop out without a copy of the pairs.
    """
    xy, _, inv_z, w = (a[0] for a in project_points(R[None], t[None], X, mask))
    if not w.any():
        raise DegenerateGeometry("all correspondences behind the camera")
    proj = K.focal * xy
    proj[0] += K.cx
    proj[1] += K.cy
    return xy, w, inv_z, pixels.T - proj


def _assembly_maps():
    """The constant maps from the factor products to the normal equations.

    With a = x/z, b = y/z and c = 1/z, the Jacobian of the residual
    pixel - projection with respect to a left twist (rotation part first)
    has the rows f [ab, -(1+a^2), b, -c, 0, ac] (u) and
    f [1+b^2, -ab, -a, 0, -c, bc] (v): each entry is a sign times one of the
    eight factors V = (ab, 1+a^2, 1+b^2, a, b, c, ac, bc). So for
    G = sum w V V^T (8, 8) and q = sum w V r^T (8, 2), H0 = f^2 L_H G and
    g = f L_G q, with L_H (36, 64) and L_G (6, 16) acting on the raveled
    arrays. This table is the only place those signs are written.
    """
    # (factor, sign) of each twist entry in the u and the v row; sign 0 is a zero entry
    rows = (
        ((0, 1), (1, -1), (4, 1), (5, -1), (0, 0), (6, 1)),
        ((2, 1), (0, -1), (3, -1), (0, 0), (5, -1), (7, 1)),
    )
    L_H = np.zeros((6, 6, 8, 8))
    L_G = np.zeros((6, 8, 2))
    for c, row in enumerate(rows):
        for i, (k, s) in enumerate(row):
            L_G[i, k, c] += s
            for j, (l, u) in enumerate(row):
                L_H[i, j, k, l] += s * u
    return L_H.reshape(36, 64), L_G.reshape(6, 16)


_L_H, _L_G = _assembly_maps()


def _factors(xy: np.ndarray, w: np.ndarray, inv_z: np.ndarray):
    """The eight factors V = (ab, 1+a^2, 1+b^2, a, b, c, ac, bc) (8, m) of
    the ``_residuals`` terms xy = (a, b), w and c = inv_z, and V w."""
    V = np.empty((8, len(inv_z)))
    np.multiply(xy[0], xy[1], out=V[0])
    np.multiply(xy, xy, out=V[1:3])
    V[1:3] += 1.0
    V[3:5] = xy
    V[5] = inv_z
    np.multiply(inv_z, xy, out=V[6:])
    # a float weight multiplies faster than the bool mask
    return V, V * w.astype(np.float64)


def _gn_terms(
    R: np.ndarray, t: np.ndarray, X: np.ndarray, pixels: np.ndarray, K: Intrinsics, mask
):
    """One damped Gauss-Newton increment on the masked pairs and its
    normal-equation pieces ``(delta, H, g)``: H is the damped sum w J^T J
    and g = sum w J^T r of the residual's Jacobian J, both assembled from
    the products of the eight factors (``_assembly_maps``) without forming J
    (Triggs et al., "Bundle Adjustment - A Modern Synthesis", 2000).
    """
    xy, w, inv_z, r = _residuals(R, t, X, pixels, K, mask)
    V, Vw = _factors(xy, w, inv_z)
    # a product of two distinct arrays stays a GEMM (V @ V.T would be a
    # slower syrk that rounds differently)
    f = K.focal
    H0 = (f * f * (_L_H @ (Vw @ V.T).ravel())).reshape(6, 6)
    g = f * (_L_G @ (Vw @ r.T).ravel())
    eps = GN_DAMPING * np.trace(H0) / 6.0
    H = H0 + eps * np.eye(6)
    try:
        np.linalg.cholesky(H)
        delta = -np.linalg.solve(H, g)
    except np.linalg.LinAlgError as exc:
        raise SingularNormalEquations(str(exc)) from exc
    return delta, H, g


def _so3_exp_vjp(omega: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient with respect to omega of a scalar whose gradient with respect
    to exp([omega]x) is ``grad``: J^T vee(A - A^T) with A = grad exp([omega]x)^T
    and J = I + c1 [omega]x + c2 [omega]x^2 the SO(3) left Jacobian (Sola,
    Deray & Atchuthan, "A micro Lie theory for state estimation in robotics",
    arXiv 1812.01537)."""
    theta2 = float(omega @ omega)
    if theta2 < 1e-14:
        c1, c2 = 0.5, 1.0 / 6.0
    else:
        theta = np.sqrt(theta2)
        c1 = 2.0 * np.sin(0.5 * theta) ** 2 / theta2
        c2 = (theta - np.sin(theta)) / (theta2 * theta)
    A = grad @ so3_exp(omega).T
    v = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
    W = skew(omega)
    Wv = W @ v
    # J^T = I - c1 [omega]x + c2 [omega]x^2
    return v - c1 * Wv + c2 * (W @ Wv)


def gauss_newton_refine(
    R: np.ndarray, t: np.ndarray, X: np.ndarray, pixels: np.ndarray, K: Intrinsics, inliers
):
    """One damped Gauss-Newton step of the pose (R, t) on points X (3, m)
    and pixels (m, 2), with the inlier mask (m,) as a weight.

    Returns the stepped pose (R', t'), the increment and the damped normal
    matrix: the step is the differentiable part of the solve, and
    ``_pose_adjoint`` takes the increment and normal matrix to pull a
    gradient on (R', t') back onto X through the step's own factor
    products.
    """
    delta, H, _ = _gn_terms(R, t, X, pixels, K, inliers)
    return (*_apply_increment(delta, R, t), delta, H)


def _pose_adjoint(R, t, delta, H, X, pixels, K, mask, grad_R, grad_T) -> np.ndarray:
    """(3, m) pull-back onto the points X (3, m) of a gradient (grad_R,
    grad_T) on the pose exp(delta) o (R, t), where delta and H are the
    increment and damped normal matrix of the step from (R, t) on the pairs
    (X, pixels) weighted by ``mask``.

    Reverse mode through that step's normal equations (Amos & Kolter,
    "OptNet", arXiv 1703.00443): from delta = -H^{-1} g back through
    H0 = f^2 L_H G and g = f L_G q to G = (V w) V^T and q = (V w) r^T, then
    to the factors V, the residual r and the camera points. Every term
    carries the weight w, so pairs outside it get exactly zero gradient.
    """
    xy, w, inv_z, r = _residuals(R, t, X, pixels, K, mask)
    Vw = _factors(xy, w, inv_z)[1]

    # pose = exp(delta) o base: pull the pose gradient back to the twist
    grad_delta = np.empty(6)
    grad_delta[:3] = _so3_exp_vjp(delta[:3], grad_R @ R.T + np.outer(grad_T, t))
    grad_delta[3:] = grad_T

    # delta = -H^{-1} g, and H = H0 + GN_DAMPING trace(H0) / 6 I
    grad_g = -np.linalg.solve(H, grad_delta)
    grad_H = np.outer(grad_g, delta)
    grad_H0 = grad_H + (GN_DAMPING / 6.0) * np.trace(grad_H) * np.eye(6)

    # back through the assembly maps and the factor products
    f = K.focal
    dG = f * f * (grad_H0.ravel() @ _L_H).reshape(8, 8)
    dq = f * (grad_g @ _L_G).reshape(8, 2)
    dV = (dG + dG.T) @ Vw
    dV += (dq @ r) * w
    dr = dq.T @ Vw

    # V of (a, b, c), and r = pixels - f (a, b) - (cx, cy)
    a, b = xy
    c = inv_z
    da = b * dV[0] + 2.0 * a * dV[1] + dV[3] + c * dV[6] - f * dr[0]
    db = a * dV[0] + 2.0 * b * dV[2] + dV[4] + c * dV[7] - f * dr[1]
    dc = dV[5] + a * dV[6] + b * dV[7]

    # a = x c, b = y c and c = 1/z of the camera point Y = R X + t
    grad_Y = np.stack([c * da, c * db, -c * (a * da + b * db + c * dc)])
    return R.T @ grad_Y


# ---------------------------------------------------------------------------
# whole-video solving


def correspondences_from_pointmap(video: PointmapVideo, j: int, grid: PixelGrid):
    """The valid pixels (N, 2) of a video's frame j, their points as a
    C-ordered (3, N) array and their flat indices (N,)."""
    points, valid = video_arrays(video, frame=j)
    if valid.shape != (grid.height, grid.width):
        raise ValueError("pointmap and grid sizes differ")
    valid = valid.reshape(-1)
    flat = np.flatnonzero(valid)
    pixels = grid.flat().compress(valid, axis=0)
    # one row per coordinate, so each projection reads contiguous rows
    points = points.reshape(-1, 3).T.take(flat, axis=1)
    return pixels, points, flat


def solve_cameras_for_video(
    recon: PointmapVideo,
    grid: PixelGrid,
    ransac: RansacConfig = RansacConfig(),
) -> tuple[Intrinsics, list[PoseEstimate]]:
    """Shared intrinsics and per-frame world-to-camera poses for a video.

    Frame 0 defines the world frame, so its pose is the identity by
    construction and its inliers are its valid pixels in front of the
    camera; every other frame is solved independently from its
    reconstruction pointmap (RANSAC PnP then one Gauss-Newton step). Solver
    errors are re-raised with the frame index attached.
    """
    video_arrays(recon, "recon")  # the branch check alone
    K = estimate_focal_weiszfeld(recon, grid)

    def solve_frame(j: int) -> PoseEstimate:
        try:
            pixels, points, flat = correspondences_from_pointmap(recon, j, grid)
            if j == 0:
                pose = base = PoseSE3.identity()
            else:
                coarse = solve_pnp_ransac(pixels, points, K, RansacConfig(ransac.seed + j))
                base, mask = coarse.pose, coarse.inliers
                R, t = gauss_newton_refine(
                    base.rotation, base.translation, points, pixels, K, mask
                )[:2]
                pose = PoseSE3(R, t)
        except WorldTrackError as exc:
            raise exc.with_frame(j)
        err = _reproj_errors_many(pose.rotation[None], pose.translation[None], K, pixels, points)[0]
        if j == 0:
            # RANSAC's rule: a pair behind the camera is no inlier. The focal
            # estimate has required points in front, so some remain.
            mask = np.isfinite(err)
        inliers = np.zeros(grid.height * grid.width, dtype=bool)
        inliers[flat] = mask
        rms = float(np.sqrt(np.mean(err[mask] ** 2)))
        return PoseEstimate(pose, inliers, rms, base)

    return K, [solve_frame(j) for j in range(recon.num_frames)]
