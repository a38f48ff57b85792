"""Camera recovery from per-frame pointmaps.

The pipeline per frame is: robust focal estimation from the anchor
pointmap (shared across the video), locally optimised RANSAC PnP with a
6-point minimal solver and a non-differentiable Gauss-Newton polish, and
one final damped Gauss-Newton step on the winner's inliers whose increment
stays differentiable with respect to the 3D points.
``pose_gradient_wrt_points`` backpropagates an upstream pose gradient
through that last increment. The solver has one configuration: its
thresholds, iteration caps and damping are the module constants below, and
only the RANSAC seed is chosen by the caller.

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
Only the winner is scored on every correspondence, once, and the final
Gauss-Newton step is the only linearisation of the full set. Gauss-Newton
builds the closed-form 2x6 Jacobian rows of the pinhole projection and
forms its normal equations as matrix products; the pose adjoint
differentiates those closed-form rows directly, and its rotation term uses
the closed-form SO(3) left Jacobian. An inlier mask is a weight, not a copy:
pairs outside it get zero weight and zero Jacobian rows. The inner loops
carry raw (R, t) arrays; only a returned estimate holds a validated
``PoseSE3``.
"""

import logging
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
    Pointmap,
    PoseSE3,
    _freeze,
    project_points,
    skew,
    so3_exp,
)

log = logging.getLogger(__name__)

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
class Correspondences2D3D:
    """Paired pixels (N, 2) and world points (N, 3)."""

    pixels: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        pix = np.array(self.pixels, dtype=np.float64)
        pts = np.array(self.points, dtype=np.float64)
        if pix.ndim != 2 or pix.shape[1] != 2 or pts.shape != (pix.shape[0], 3):
            raise ValueError(f"bad correspondence shapes {pix.shape}, {pts.shape}")
        # pairs outside an inlier mask get weight zero, which needs finite values
        if not (np.isfinite(pix).all() and np.isfinite(pts).all()):
            raise ValueError("correspondences must be finite")
        object.__setattr__(self, "pixels", _freeze(pix))
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def _adopt(cls, pixels, points) -> "Correspondences2D3D":
        """Wrap float64 arrays of valid shapes that the caller has just built
        and holds no other reference to: they are frozen, not copied."""
        corr = object.__new__(cls)
        object.__setattr__(corr, "pixels", _freeze(pixels))
        object.__setattr__(corr, "points", _freeze(points))
        return corr


@dataclass(frozen=True)
class RansacConfig:
    """The seed of RANSAC's sample draws (frame j of a video draws with
    ``seed + j``)."""

    seed: int = 0


@dataclass(frozen=True)
class PoseEstimate:
    """Solver output for one frame.

    ``pose`` is one Gauss-Newton step on the ``inliers`` taken from
    ``base_pose`` (the two are equal for an estimate that took no step);
    ``inliers`` indexes the correspondences the estimate was solved from.
    """

    pose: PoseSE3
    inliers: np.ndarray
    rms_reprojection_error: float
    base_pose: PoseSE3

    def __post_init__(self):
        object.__setattr__(self, "inliers", _freeze(np.array(self.inliers, dtype=bool)))


# ---------------------------------------------------------------------------
# focal estimation


def estimate_focal_weiszfeld(pm: Pointmap, grid: PixelGrid) -> Intrinsics:
    """Recover a shared focal length from an anchor self-view pointmap.

    Minimizes the robust objective sum_n ||u_n - f * q_n|| over f, where
    u_n is the pixel offset from the image center and q_n = (x/z, y/z) of
    the stored camera-frame point, via iteratively reweighted least squares
    started from the closed-form L2 solution. The principal point is fixed
    at the image center.
    """
    pm.require_tracking_branch()
    if pm.time != pm.content_frame:
        raise DegenerateGeometry(
            "focal estimation needs the first-frame self-view pointmap"
        )
    if (pm.height, pm.width) != (grid.height, grid.width):
        raise ValueError("pointmap and grid sizes differ")
    mask = pm.valid & (pm.points[..., 2] > DEPTH_EPS)
    if mask.sum() < MIN_FOCAL_PIXELS:
        raise InsufficientValidPoints(f"{int(mask.sum())} usable pixels")
    cx, cy = grid.width / 2.0, grid.height / 2.0
    u = grid.coords[mask] - np.array([cx, cy])
    pts = pm.points[mask]
    q = pts[:, :2] / pts[:, 2:3]
    qq = np.einsum("ni,ni->n", q, q)
    uq = np.einsum("ni,ni->n", u, q)
    denom = qq.sum()
    if denom < 1e-12:
        raise DegenerateGeometry("all rays are axial; focal unobservable")
    f = uq.sum() / denom
    for _ in range(WEISZFELD_ITERATIONS):
        res = np.linalg.norm(u - f * q, axis=1)
        w = 1.0 / np.maximum(res, WEISZFELD_FLOOR)
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
    rotations: np.ndarray, translations: np.ndarray, K: Intrinsics, corr: Correspondences2D3D
) -> np.ndarray:
    """(k, N) reprojection distances of N pairs under k poses; +inf where
    the depth is non-positive."""
    xy, _, _, visible = project_points(rotations, translations, corr.points.T)
    du = K.focal * xy[:, 0] + K.cx - corr.pixels[:, 0]
    dv = K.focal * xy[:, 1] + K.cy - corr.pixels[:, 1]
    err = np.sqrt(du * du + dv * dv)
    err[~visible] = np.inf
    return err


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
    # with P = (s (X - centroid), 1), each pair gives the rows [P, 0, -u P]
    # and [0, P, -v P] of the system A m = 0. The two halves of A are built
    # without their zero columns, transposed so that each column is one
    # contiguous row.
    half = np.empty((k, 2, 8, n))
    half[:, :, :3] = (D * s[:, None, None])[:, None]
    half[:, :, 3] = 1.0
    half[:, :, 4:] = -norm_pix.transpose(0, 2, 1)[:, :, None] * half[:, :, :4]
    ok &= np.isfinite(half).all(axis=(1, 2, 3))
    half[~ok] = 0.0
    half = half.transpose(0, 1, 3, 2)
    try:
        A = np.zeros((k, 2 * n, 12))
        A[:, :n, 0:4] = half[:, 0, :, :4]
        A[:, n:, 4:8] = half[:, 1, :, :4]
        A[:, :n, 8:] = half[:, 0, :, 4:]
        A[:, n:, 8:] = half[:, 1, :, 4:]
        _, sv, Vt = np.linalg.svd(A, full_matrices=False)
        # near-rank-deficient systems have no unique solution worth decoding
        ok &= sv[:, -2] >= 1e-9 * np.maximum(sv[:, 0], 1.0)
        M = Vt[:, -1].reshape(k, 3, 4)
        # undo the 3D normalization: M acts on s*(X - centroid)
        M3 = M[:, :, :3] * s[:, None, None]
        m4 = M[:, :, 3] - (M3 @ centroid[:, :, None])[:, :, 0]
        det = np.linalg.det(M3)
        ok &= np.abs(det) >= 1e-12
        sign = np.where(det < 0, -1.0, 1.0)
        M3 *= sign[:, None, None]
        m4 *= sign[:, None]
        M3[~ok] = np.eye(3)
        U, sing, Vt3 = np.linalg.svd(M3)
    except np.linalg.LinAlgError:
        # LAPACK gave up on a matrix of the stack; no sample of it is used
        return np.broadcast_to(np.eye(3), (k, 3, 3)), np.zeros((k, 3)), np.zeros(k, bool)
    lam = sing.mean(axis=1)
    ok &= lam >= 1e-12
    U[:, :, 2] *= np.linalg.det(U @ Vt3)[:, None]
    R = U @ Vt3
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
    try:
        _, axes = np.linalg.eigh(D.transpose(0, 2, 1) @ D)
    except np.linalg.LinAlgError:
        return np.broadcast_to(np.eye(3), (k, 3, 3)), np.zeros((k, 3)), np.zeros(k, bool)
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
    # each pair gives the rows [P, 0, -u P] and [0, P, -v P] of A h = 0
    A = np.zeros((k, 2 * n, 9))
    A[:, :n, 0:3] = P
    A[:, n:, 3:6] = P
    A[:, :n, 6:] = -x[:, :, :1] * P
    A[:, n:, 6:] = -x[:, :, 1:] * P
    ok &= np.isfinite(A).all(axis=(1, 2))
    A[~ok] = 0.0
    try:
        _, sv, Vt = np.linalg.svd(A, full_matrices=False)
        ok &= sv[:, -2] >= 1e-9 * np.maximum(sv[:, 0], 1.0)
        Hn = Vt[:, -1].reshape(k, 3, 3)
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
        U, _, Vt3 = np.linalg.svd(M)
    except np.linalg.LinAlgError:
        return np.broadcast_to(np.eye(3), (k, 3, 3)), np.zeros((k, 3)), np.zeros(k, bool)
    U[:, :, 2] *= np.linalg.det(U @ Vt3)[:, None]
    # the pose acts on B^T (X - centroid); fold that frame back in
    R = U @ Vt3 @ B.transpose(0, 2, 1)
    t = H[:, :, 2] - (R @ centroid[:, :, None])[:, :, 0]
    ok &= np.isfinite(R).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)
    return R, t, ok


def _minimal_poses(points: np.ndarray, norm_pix: np.ndarray):
    """Poses from a stack of minimal samples: near-planar samples by their
    plane homography, the others by DLT. Returns as ``_dlt_poses``."""
    D = points - points.mean(axis=1, keepdims=True)
    ev = np.linalg.eigvalsh(D.transpose(0, 2, 1) @ D)
    planar = ev[:, 0] < PLANAR_RATIO * ev[:, 1]
    R = np.empty((points.shape[0], 3, 3))
    t = np.empty((points.shape[0], 3))
    ok = np.empty(points.shape[0], dtype=bool)
    for solver, pick in ((_dlt_poses, ~planar), (_plane_poses, planar)):
        if pick.any():
            R[pick], t[pick], ok[pick] = solver(points[pick], norm_pix[pick])
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
    corr: Correspondences2D3D, K: Intrinsics, cfg: RansacConfig = RansacConfig()
) -> PoseEstimate:
    """Robust world-to-camera pose from 2D-3D correspondences.

    Seeded 6-point hypotheses (DLT, or a plane homography for near-planar
    samples) are ranked by their inlier count on a fixed, evenly spaced
    subset of at most ``PREEMPTIVE_SUBSET`` pairs (all pairs when there are
    no more). Each new best is polished by (non-differentiable)
    Gauss-Newton on its consensus within that subset, and re-counted, for
    as long as its count rises. Iterations stop early once the usual
    confidence bound on the polished inlier ratio is met, but never before
    a fixed floor so that near-degenerate scenes still get a fair number of
    draws. The winner's inliers and RMS come from one pass over all pairs.
    """
    n = len(corr)
    if n < MIN_SAMPLE:
        raise TooFewCorrespondences(f"{n} < minimal sample {MIN_SAMPLE}")
    rng = np.random.default_rng(cfg.seed)
    norm_pix = (corr.pixels - np.array([K.cx, K.cy])) / K.focal
    scored = corr
    if n > PREEMPTIVE_SUBSET:
        pick = np.arange(PREEMPTIVE_SUBSET) * n // PREEMPTIVE_SUBSET
        scored = Correspondences2D3D._adopt(corr.pixels[pick], corr.points[pick])
    best_R = best_t = None
    best_count = 0
    min_iters = 32
    needed = RANSAC_MAX_ITERATIONS
    it = 0
    # draws stay one seeded sample at a time; a batch holds at most
    # min_iters of the draws the bound still allows, and is cut short when
    # a new winner lowers the bound
    while it < max(min_iters, needed):
        batch = min(min_iters, max(min_iters, needed) - it)
        idx = np.stack(
            [rng.choice(n, size=MIN_SAMPLE, replace=False) for _ in range(batch)]
        )
        R, t, ok = _minimal_poses(corr.points[idx], norm_pix[idx])
        inl = np.zeros((batch, len(scored)), dtype=bool)
        if ok.any():
            inl[ok] = _reproj_errors_many(R[ok], t[ok], K, scored) < INLIER_THRESHOLD
        counts = inl.sum(axis=1)
        for j in range(batch):
            if it >= max(min_iters, needed):
                break
            it += 1
            if counts[j] > best_count:
                best_R, best_t, best_count = _local_optimisation(R[j], t[j], scored, K, inl[j])
                needed = _iterations_needed(best_count / len(scored))
    if best_R is None:
        raise NoConsensus(f"best consensus 0 of {n}")
    err = _reproj_errors_many(best_R[None], best_t[None], K, corr)[0]
    inliers = err < INLIER_THRESHOLD
    if int(inliers.sum()) < MIN_SAMPLE:
        raise NoConsensus(f"best consensus {int(inliers.sum())} of {n}")
    rms = float(np.sqrt(np.mean(err[inliers] ** 2)))
    pose = PoseSE3(best_R, best_t)
    return PoseEstimate(pose=pose, inliers=inliers, rms_reprojection_error=rms, base_pose=pose)


def _local_optimisation(
    R: np.ndarray, t: np.ndarray, scored: Correspondences2D3D, K: Intrinsics, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """A new best hypothesis (R, t) polished on its consensus within the
    scored pairs, and its inlier count there.

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
            R_p, t_p = _polish(R, t, scored, K, mask)
            err = _reproj_errors_many(R_p[None], t_p[None], K, scored)[0]
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
    R: np.ndarray, t: np.ndarray, corr: Correspondences2D3D, K: Intrinsics, mask: np.ndarray
):
    """Gauss-Newton to convergence on the masked pairs, from a hypothesis (R, t)."""
    for _ in range(10):
        delta = _gn_terms(R, t, corr, K, mask)[0]
        R, t = _apply_increment(delta, R, t)
        if np.linalg.norm(delta) < 1e-14:
            break
    return R, t


# ---------------------------------------------------------------------------
# Gauss-Newton refinement and its point gradient


def _apply_increment(delta: np.ndarray, R: np.ndarray, t: np.ndarray):
    """Left-multiplicative update of a pose (R, t) by a 6-twist; ``so3_exp``
    products keep the rotation orthonormal."""
    E = so3_exp(delta[:3])
    return E @ R, E @ t + delta[3:]


def _projection_terms(
    R: np.ndarray, t: np.ndarray, corr: Correspondences2D3D, K: Intrinsics, mask: np.ndarray
):
    """Pinhole terms of every pair at a pose (R, t), Jacobian in closed form.

    Returns ``(xn, yn, w, inv_z, f_z, J, r)``: the normalized coordinates
    x/z and y/z of the camera points, the weight mask w (``mask`` and
    positive depth), 1/z, focal/z, the (m, 2, 6) Jacobian of the residual
    with respect to a left twist (rotation part first) and the (m, 2)
    residual pixel - projection. ``J`` and ``r`` are views of (6, 2, m) and
    (2, m) arrays, so each Jacobian entry is one contiguous row. Pairs
    outside the mask or of non-positive depth get zero weight, inverse depth
    and Jacobian rows, so they drop out without a copy of the pairs.
    """
    (xn, yn), _, inv_z, w = (a[0] for a in project_points(R[None], t[None], corr.points.T, mask))
    if not w.any():
        raise DegenerateGeometry("all correspondences behind the camera")
    f = K.focal
    f_z = f * inv_z
    r = np.stack([corr.pixels[:, 0] - (f * xn + K.cx), corr.pixels[:, 1] - (f * yn + K.cy)])
    # d(f*x/z, f*y/z) / d(omega, v) for Y -> Y + omega x Y + v, negated
    fu = f * w
    fxy = fu * xn * yn
    Jt = np.empty((6, 2, len(corr)))
    Jt[0, 0] = fxy
    Jt[1, 0] = -fu * (1.0 + xn * xn)
    Jt[2, 0] = fu * yn
    Jt[3, 0] = -f_z
    Jt[4, 0] = 0.0
    Jt[5, 0] = f_z * xn
    Jt[0, 1] = fu * (1.0 + yn * yn)
    Jt[1, 1] = -fxy
    Jt[2, 1] = -fu * xn
    Jt[3, 1] = 0.0
    Jt[4, 1] = -f_z
    Jt[5, 1] = f_z * yn
    return xn, yn, w, inv_z, f_z, Jt.transpose(2, 1, 0), r.T


def _gn_terms(
    R: np.ndarray, t: np.ndarray, corr: Correspondences2D3D, K: Intrinsics, mask: np.ndarray
):
    """One damped Gauss-Newton increment on the masked pairs and its normal-equation pieces."""
    terms = _projection_terms(R, t, corr, K, mask)
    w, J, r = terms[2], terms[5], terms[6]
    # J^T with one row per twist entry and one column per residual row
    Jk = J.transpose(2, 1, 0).reshape(6, -1)
    wJ = Jk * np.tile(w, 2)
    H0 = wJ @ Jk.T
    eps = GN_DAMPING * np.trace(H0) / 6.0
    H = H0 + eps * np.eye(6)
    g = wJ @ r.T.reshape(-1)
    try:
        np.linalg.cholesky(H)
        delta = -np.linalg.solve(H, g)
    except np.linalg.LinAlgError as exc:
        raise SingularNormalEquations(str(exc)) from exc
    return delta, H, terms


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
    detached: PoseEstimate, corr: Correspondences2D3D, K: Intrinsics
) -> PoseEstimate:
    """Refine a detached pose by one damped Gauss-Newton step on its inliers.

    Only ``detached.pose`` and ``detached.inliers`` are read. The returned
    estimate records the step's base pose; the step is the differentiable
    part of the solve.
    """
    mask = detached.inliers
    if mask.shape[0] != len(corr):
        raise ValueError("inlier mask does not cover the correspondences")
    if int(mask.sum()) < 3:
        raise TooFewCorrespondences(f"{int(mask.sum())} inliers")
    base = detached.pose
    delta = _gn_terms(base.rotation, base.translation, corr, K, mask)[0]
    R, t = _apply_increment(delta, base.rotation, base.translation)
    err = _reproj_errors_many(R[None], t[None], K, corr)[0]
    rms = float(np.sqrt(np.mean(err[mask] ** 2)))
    return PoseEstimate(PoseSE3(R, t), mask, rms, base)


def pose_gradient_wrt_points(
    detached: PoseEstimate,
    corr: Correspondences2D3D,
    K: Intrinsics,
    upstream: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Backpropagate a pose gradient onto the 3D correspondence points.

    Args:
        detached: estimate from ``gauss_newton_refine``; its base pose is
            treated as a constant, only the Gauss-Newton increment is live.
        corr: the same correspondences the estimate was refined on.
        K: intrinsics.
        upstream: (dL/dR, dL/dT) of a scalar loss with respect to the
            refined pose entries, shapes (3, 3) and (3,).

    Returns:
        (N, 3) array dL/dX; rows outside the inlier set (or with
        non-positive depth at the base pose) are zero.
    """
    grad_R = np.asarray(upstream[0], dtype=np.float64)
    grad_T = np.asarray(upstream[1], dtype=np.float64)
    if grad_R.shape != (3, 3) or grad_T.shape != (3,):
        raise ValueError("upstream must be (3,3) rotation and (3,) translation grads")
    R, t = detached.base_pose.rotation, detached.base_pose.translation
    delta, H, (xn, yn, w, inv_z, f_z, J, r) = _gn_terms(R, t, corr, K, detached.inliers)

    # pose = exp(delta) o base: pull the pose gradient back to the twist
    grad_delta = np.empty(6)
    grad_delta[:3] = _so3_exp_vjp(delta[:3], grad_R @ R.T + np.outer(grad_T, t))
    grad_delta[3:] = grad_T

    # delta = -H^{-1} g
    grad_g = -np.linalg.solve(H, grad_delta)
    grad_H = np.outer(grad_g, delta)
    grad_H0 = grad_H + (GN_DAMPING / 6.0) * np.trace(grad_H) * np.eye(6)
    S = grad_H0 + grad_H0.T

    # g = sum w J^T r and H0 = sum w J^T J; every term carries the weight
    # mask w, so rows outside it get exactly zero gradient.
    # G[k, i] is dL/dJ[:, i, k] and grad_r[i] is dL/dr[:, i]
    m = w.shape[0]
    Jk = J.transpose(2, 1, 0).reshape(6, -1)
    G = (grad_g[:, None, None] * r.T + (S @ Jk).reshape(6, 2, m)) * w
    grad_r = (grad_g @ Jk).reshape(2, m) * w

    # J and r = pix - (f xn + cx, f yn + cy) as functions of xn, yn and f/z
    f = K.focal
    cross = G[0, 0] - G[1, 1]
    g_xn = f * (yn * cross - 2.0 * xn * G[1, 0] - G[2, 1] - grad_r[0]) + f_z * G[5, 0]
    g_yn = f * (xn * cross + 2.0 * yn * G[0, 1] + G[2, 0] - grad_r[1]) + f_z * G[5, 1]
    g_fz = xn * G[5, 0] + yn * G[5, 1] - G[3, 0] - G[4, 1]

    # xn = x/z, yn = y/z and f_z = f/z of the camera point Y = R X + t
    grad_Y = np.stack(
        [g_xn * inv_z, g_yn * inv_z, -(g_xn * xn + g_yn * yn + g_fz * f_z) * inv_z], axis=1
    )
    return grad_Y @ R


# ---------------------------------------------------------------------------
# whole-video solving


def correspondences_from_pointmap(
    pm: Pointmap, grid: PixelGrid
) -> tuple[Correspondences2D3D, np.ndarray]:
    """Valid pixels of a pointmap as correspondences, plus flat indices."""
    if (pm.height, pm.width) != (grid.height, grid.width):
        raise ValueError("pointmap and grid sizes differ")
    return correspondences_from_points(pm.points.reshape(-1, 3), pm.valid.reshape(-1), grid)


def correspondences_from_points(
    points: np.ndarray, valid: np.ndarray, grid: PixelGrid
) -> tuple[Correspondences2D3D, np.ndarray]:
    """Valid pixels of one frame's raw points as correspondences, plus flat
    indices; points (H*W, 3) and valid (H*W,) are in raster order."""
    corr = Correspondences2D3D._adopt(
        grid.flat().compress(valid, axis=0), points.compress(valid, axis=0)
    )
    return corr, np.flatnonzero(valid)


def solve_cameras_for_video(
    recon_pointmaps: list[Pointmap],
    grid: PixelGrid,
    ransac: RansacConfig = RansacConfig(),
) -> tuple[Intrinsics, list[PoseEstimate]]:
    """Shared intrinsics and per-frame world-to-camera poses for a video.

    Frame 0 defines the world frame, so its pose is the identity by
    construction; every other frame is solved independently from its
    reconstruction pointmap (RANSAC PnP then Gauss-Newton). Solver errors
    are re-raised with the frame index attached.
    """
    if not recon_pointmaps:
        raise InsufficientValidPoints("no pointmaps")
    for t, pm in enumerate(recon_pointmaps):
        pm.require_recon_branch()
        if pm.time != t:
            raise ValueError(f"pointmaps must be in time order, got time {pm.time} at {t}")
        if pm.coord_frame != recon_pointmaps[0].coord_frame:
            raise ValueError("pointmaps must share one coordinate frame")
    K = estimate_focal_weiszfeld(recon_pointmaps[0], grid)

    def solve_frame(j: int) -> PoseEstimate:
        pm = recon_pointmaps[j]
        try:
            corr, _ = correspondences_from_pointmap(pm, grid)
            if j == 0:
                pose = PoseSE3.identity()
                err = _reproj_errors_many(pose.rotation[None], pose.translation[None], K, corr)
                rms = float(np.sqrt(np.mean(err**2)))
                return PoseEstimate(pose, np.ones(len(corr), dtype=bool), rms, pose)
            coarse = solve_pnp_ransac(corr, K, RansacConfig(ransac.seed + j))
            return gauss_newton_refine(coarse, corr, K)
        except WorldTrackError as exc:
            raise exc.with_frame(j)

    return K, [solve_frame(j) for j in range(len(recon_pointmaps))]
