"""Evaluation metrics for world-frame tracks and reconstructions.

Deterministic by construction: reductions use compensated summation
(math.fsum), the median is the lower-middle element of the norms (a
partition, the same element as sorting), and similarity transforms are
applied with explicit elementwise arithmetic, so an independent scalar
reimplementation reproduces every reported number bit for bit. A report
forms the differences and their norms once and takes the APD counts, the
EPE and the fingerprint from them.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovariance, NoOverlap, ShapeMismatch, ZeroMedian
from .geometry import PointmapVideo, TrackSet, _freeze, video_arrays

THRESHOLDS = (0.1, 0.3, 0.5, 1.0)
# ground-truth depths (m) a reconstruction pixel must lie within to be scored
DEPTH_RANGE = (0.1, 5.0)
ALIGNMENT_MODES = ("none", "median", "sim3")
DEFAULT_WINDOW = 64


def _sq_norms(p: np.ndarray) -> np.ndarray:
    """(x x + y y) + z z per row of an (N, 3) array."""
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    sq, tmp = x * x, y * y
    sq += tmp
    sq += np.multiply(z, z, out=tmp)
    return sq


def _point_norms(p: np.ndarray) -> np.ndarray:
    sq = _sq_norms(p)
    return np.sqrt(sq, out=sq)


def _errors(pred: np.ndarray, gt: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The differences pred - gt as one C-ordered (N, 3) array, and their
    norms. ``out`` may be ``pred`` itself when the caller owns it."""
    d = np.subtract(pred, gt, out=out, order="C")
    if d.shape[0] == 0:
        raise NoOverlap("no pairs to score")
    return d, _point_norms(d)


def _apd(errs: np.ndarray) -> tuple[float, tuple]:
    n = errs.shape[0]
    fracs = tuple(int(np.count_nonzero(errs < t)) / n for t in THRESHOLDS)
    return 100.0 * math.fsum(fracs) / len(THRESHOLDS), fracs


def _epe(errs: np.ndarray) -> float:
    # the memoryview yields plain floats: no numpy scalar per element
    return math.fsum(memoryview(errs)) / errs.shape[0]


@dataclass(frozen=True)
class Sim3:
    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, pts: np.ndarray) -> np.ndarray:
        R, s, t = self.rotation, self.scale, self.translation
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        out = np.empty((len(pts), 3))
        acc, tmp = np.empty(len(pts)), np.empty(len(pts))
        for i in range(3):
            # s * ((R[i, 0] x + R[i, 1] y) + R[i, 2] z) + t[i], in that order
            np.multiply(x, R[i, 0], out=acc)
            acc += np.multiply(y, R[i, 1], out=tmp)
            acc += np.multiply(z, R[i, 2], out=tmp)
            acc *= s
            acc += t[i]
            out[:, i] = acc
        return out


@dataclass(frozen=True)
class MetricReport:
    subset: str
    alignment: str
    window: tuple
    num_pairs: int
    apd: float
    per_threshold: tuple
    epe: float
    scale: float | None
    fingerprint: str


def _pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """``pred`` and ``gt`` as float64 arrays of one (N, 3) shape."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise ShapeMismatch(f"point arrays must match as (N, 3), got {pred.shape}")
    return pred, gt


def median_scale_align(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, float]:
    """Rescale predictions by the ratio of median point norms.

    The median of n values is the lower-middle element, at index (n-1)//2
    of a partition (the same element as sorting), so no averaging enters
    the arithmetic.
    """
    pred, gt = _pair(pred, gt)
    n = pred.shape[0]
    if n == 0:
        raise NoOverlap("no points to align")
    k = (n - 1) // 2
    pm = float(np.partition(_point_norms(pred), k)[k])
    gm = float(np.partition(_point_norms(gt), k)[k])
    if pm < 1e-12:
        raise ZeroMedian("prediction median norm is zero")
    if gm < 1e-12:
        raise ZeroMedian("ground-truth median norm is zero")
    scale = gm / pm
    return pred * scale, scale


def umeyama_sim3_align(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, Sim3]:
    """Least-squares similarity transform from predictions onto ground truth."""
    pred, gt = _pair(pred, gt)
    n = pred.shape[0]
    if n < 3:
        raise DegenerateCovariance(f"need at least 3 points, got {n}")
    mu_p = pred.mean(axis=0)
    mu_g = gt.mean(axis=0)
    X = pred - mu_p
    var_p = float(np.mean(_sq_norms(X)))
    if var_p < 1e-12:
        raise DegenerateCovariance("prediction cloud has no spread")
    cov = ((gt - mu_g).T @ X) / n
    del X  # no centred copy stays alive beside the aligned output
    U, D, Vt = np.linalg.svd(cov)
    s = np.ones(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        s[2] = -1.0
    R = U @ np.diag(s) @ Vt
    scale = float((D * s).sum() / var_p)
    t = mu_g - scale * (R @ mu_p)
    sim = Sim3(scale, _freeze(R), _freeze(t))
    return sim.apply(pred), sim


def apd_3d(pred: np.ndarray, gt: np.ndarray) -> tuple[float, tuple]:
    """Average percentage of points within the distance ``THRESHOLDS``.

    Each threshold contributes the fraction of pairs with error strictly
    below it; the score is 100 times the mean fraction.
    """
    return _apd(_errors(*_pair(pred, gt))[1])


def epe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean euclidean error over pairs."""
    return _epe(_errors(*_pair(pred, gt))[1])


def _align(pred: np.ndarray, gt: np.ndarray, mode: str):
    if mode == "none":
        return pred, None
    if mode == "median":
        aligned, scale = median_scale_align(pred, gt)
        return aligned, scale
    if mode == "sim3":
        aligned, sim = umeyama_sim3_align(pred, gt)
        return aligned, sim.scale
    raise ValueError(f"alignment must be one of {ALIGNMENT_MODES}, got {mode!r}")


def _report(subset, alignment, window, d, errs, scale):
    """Score the differences ``d`` and their norms ``errs`` from ``_errors``;
    the fingerprint is the CRC of d's (N, 3) float64 bytes."""
    apd, fracs = _apd(errs)
    return MetricReport(
        subset=subset,
        alignment=alignment,
        window=window,
        num_pairs=errs.shape[0],
        apd=apd,
        per_threshold=fracs,
        epe=_epe(errs),
        scale=scale,
        fingerprint=f"{zlib.crc32(d):08x}",
    )


def _window_end(window, num_frames: int) -> int:
    """The end of the evaluation window, the first ``window`` frames; a
    window that is not an integer at least 1 raises ``ValueError``."""
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 1:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    return min(num_frames, int(window))


def eval_tracking(
    pred: TrackSet,
    gt: TrackSet,
    alignment: str = "median",
    window: int = DEFAULT_WINDOW,
) -> dict:
    """Score predicted 3D tracks against ground truth.

    Pairs are the ground-truth-visible entries within the first ``window``
    frames. One alignment is fitted on all pairs and applied everywhere.
    The result maps "all" to the report on every pair, and "dynamic" to
    the report on the pairs of tracks the truth marks dynamic, exactly
    when the window holds such pairs.
    """
    if pred.positions.shape != gt.positions.shape:
        raise ShapeMismatch(
            f"track shapes differ: {pred.positions.shape} vs {gt.positions.shape}"
        )
    if pred.positions.shape[2] != 3:
        raise ShapeMismatch("tracking metrics need 3D tracks")
    end = _window_end(window, gt.num_frames)
    vis = gt.visibility & (np.arange(gt.num_frames) < end)
    if not vis.any():
        raise NoOverlap("no visible pairs in the evaluation window")
    # one flat gather per side: compress beats an (N, T) boolean index
    p, g = (x.positions.reshape(-1, 3).compress(vis.reshape(-1), axis=0) for x in (pred, gt))
    aligned, scale = _align(p, g, alignment)
    # aligned is a new array in every mode: the differences overwrite it
    d, errs = _errors(aligned, g, out=aligned)
    win = (0, end)
    out = {"all": _report("all", alignment, win, d, errs, scale)}
    if gt.dynamic is not None:
        # each query's flag, once per visible pair of it
        sel = np.repeat(gt.dynamic, vis.sum(axis=1))
        if sel.any():
            # a subset's differences are the rows of the all-pairs ones
            out["dynamic"] = _report(
                "dynamic", alignment, win, d.compress(sel, axis=0), errs.compress(sel), scale
            )
    return out


def eval_recon(
    pred_video: PointmapVideo,
    gt_video: PointmapVideo,
    alignment: str = "median",
    window: int = DEFAULT_WINDOW,
    *,
    depth_maps: np.ndarray,
) -> MetricReport:
    """Score a recon video against the ground truth's, pooled over the
    evaluation window.

    Both are recon-branch videos on one grid. A pixel is scored when it is
    valid on both sides and its ground-truth depth, from the (T, H, W)
    ``depth_maps``, lies within ``DEPTH_RANGE``.
    """
    pred, pred_valid = video_arrays(pred_video, "recon")
    gt, gt_valid = video_arrays(gt_video, "recon")
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"predicted video {pred.shape[:3]} vs ground truth {gt.shape[:3]}")
    end = _window_end(window, len(gt))
    depth = np.asarray(depth_maps)
    if depth.shape != gt_valid.shape:
        raise ShapeMismatch(f"depth maps {depth.shape} vs video {gt_valid.shape}")
    depth = depth[:end]
    m = pred_valid[:end] & gt_valid[:end] & (depth >= DEPTH_RANGE[0]) & (depth <= DEPTH_RANGE[1])
    if not m.any():
        raise NoOverlap("no comparable pixels in the evaluation window")
    # one flat gather per side: compress beats a (T, H, W) boolean index
    p, g = (x[:end].reshape(-1, 3).compress(m.reshape(-1), axis=0) for x in (pred, gt))
    aligned, scale = _align(p, g, alignment)
    return _report("all", alignment, (0, end), *_errors(aligned, g, out=aligned), scale)


def subsample_queries(num_queries: int, max_queries: int, seed: int = 0) -> np.ndarray:
    """Deterministic sorted subsample of query indices."""
    if max_queries < 1:
        raise ValueError("max_queries must be positive")
    if max_queries >= num_queries:
        return np.arange(num_queries)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(num_queries, size=max_queries, replace=False))
