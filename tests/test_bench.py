"""Metrics: brute-force bitwise equivalence, alignment math, filters."""

import math
import re
import zlib

import numpy as np
import pytest

from worldtrack.bench import (
    THRESHOLDS,
    MetricReport,
    apd_3d,
    epe,
    eval_recon,
    eval_tracking,
    median_scale_align,
    subsample_queries,
    umeyama_sim3_align,
)
from worldtrack.errors import (
    DegenerateCovariance,
    NoOverlap,
    ShapeMismatch,
    ZeroMedian,
)
from worldtrack.geometry import PointmapVideo, TrackSet, so3_exp


# ---------------------------------------------------------------------------
# scalar reimplementation used to cross-check every reported number


def brute_score(pred_pairs, gt_pairs, alignment, thresholds=THRESHOLDS):
    """Loop-based rescoring; must agree with the library bit for bit.

    The sim3 fit is taken from the library (one fit, shared); median and
    none modes are refit here from scratch.
    """
    n = len(pred_pairs)
    pp = [(float(a), float(b), float(c)) for a, b, c in pred_pairs]
    gg = [(float(a), float(b), float(c)) for a, b, c in gt_pairs]
    if alignment == "none":
        aligned = pp
    elif alignment == "median":
        k = (n - 1) // 2
        pn = sorted(math.sqrt((x * x + y * y) + z * z) for x, y, z in pp)[k]
        gn = sorted(math.sqrt((x * x + y * y) + z * z) for x, y, z in gg)[k]
        scale = gn / pn
        aligned = [(x * scale, y * scale, z * scale) for x, y, z in pp]
    elif alignment == "sim3":
        _, sim = umeyama_sim3_align(np.array(pp), np.array(gg))
        s, R, t = sim.scale, sim.rotation, sim.translation
        aligned = [
            (
                s * ((R[0, 0] * x + R[0, 1] * y) + R[0, 2] * z) + t[0],
                s * ((R[1, 0] * x + R[1, 1] * y) + R[1, 2] * z) + t[1],
                s * ((R[2, 0] * x + R[2, 1] * y) + R[2, 2] * z) + t[2],
            )
            for x, y, z in pp
        ]
    else:
        raise AssertionError(alignment)
    errs = []
    for (ax, ay, az), (gx, gy, gz) in zip(aligned, gg):
        dx, dy, dz = ax - gx, ay - gy, az - gz
        errs.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
    fracs = tuple(sum(1 for e in errs if e < t) / n for t in thresholds)
    apd = 100.0 * math.fsum(fracs) / len(thresholds)
    mean_err = math.fsum(errs) / n
    return apd, fracs, mean_err


def random_tracks(rng, n=40, T=6):
    gt_pos = rng.normal(0, 1, (n, T, 3)) + np.array([0, 0, 3.0])
    pred_pos = gt_pos * rng.uniform(0.5, 2.0) + rng.normal(0, 0.2, (n, T, 3))
    vis = rng.uniform(size=(n, T)) > 0.25
    vis[:, 0] = True
    dyn = rng.uniform(size=n) > 0.6
    return TrackSet(pred_pos, vis, dyn), TrackSet(gt_pos, vis, dyn)


def visible_pairs(pred, gt, window, subset=None):
    end = min(gt.num_frames, window)
    pp, gg = [], []
    for i in range(gt.num_points):
        if subset == "dynamic" and not gt.dynamic[i]:
            continue
        for t in range(end):
            if gt.visibility[i, t]:
                pp.append(pred.positions[i, t])
                gg.append(gt.positions[i, t])
    return pp, gg


@pytest.mark.parametrize("alignment", ["none", "median", "sim3"])
def test_tracking_metrics_match_brute_force(alignment):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pred, gt = random_tracks(rng)
        reports = eval_tracking(pred, gt, alignment=alignment, window=6)
        for subset in reports:
            pp, gg = visible_pairs(pred, gt, 6, None if subset == "all" else subset)
            if alignment == "median":
                # subset scoring reuses the all-pairs fit
                all_p, all_g = visible_pairs(pred, gt, 6)
                _, scale = median_scale_align(np.array(all_p), np.array(all_g))
                scaled = [(x * scale, y * scale, z * scale) for x, y, z in pp]
                apd, fracs, mean_err = brute_score(scaled, gg, "none")
            elif alignment == "sim3":
                all_p, all_g = visible_pairs(pred, gt, 6)
                _, sim = umeyama_sim3_align(np.array(all_p), np.array(all_g))
                moved = [tuple(q) for q in sim.apply(np.array(pp))]
                apd, fracs, mean_err = brute_score(moved, gg, "none")
            else:
                apd, fracs, mean_err = brute_score(pp, gg, "none")
            rep = reports[subset]
            assert rep.apd == apd
            assert rep.per_threshold == fracs
            assert rep.epe == mean_err
            assert rep.num_pairs == len(pp)


def test_all_subset_median_matches_brute_refit():
    # for the full subset the brute scorer can refit the median scale
    # itself and still has to agree exactly
    rng = np.random.default_rng(99)
    pred, gt = random_tracks(rng)
    rep = eval_tracking(pred, gt, alignment="median", window=6)["all"]
    pp, gg = visible_pairs(pred, gt, 6)
    apd, fracs, mean_err = brute_score(pp, gg, "median")
    assert (rep.apd, rep.per_threshold, rep.epe) == (apd, fracs, mean_err)


def test_perfect_prediction_scores_clean():
    rng = np.random.default_rng(0)
    gt_pos = rng.normal(0, 1, (30, 4, 3)) + np.array([0, 0, 3.0])
    vis = np.ones((30, 4), bool)
    ts = TrackSet(gt_pos, vis)
    for alignment in ("none", "median"):
        rep = eval_tracking(ts, ts, alignment=alignment, window=4)["all"]
        assert rep.apd == 100.0
        assert rep.epe == 0.0
        assert rep.per_threshold == (1.0, 1.0, 1.0, 1.0)


def test_apd_thresholds_step_at_point_two():
    rng = np.random.default_rng(1)
    gt = rng.normal(0, 1, (50, 3))
    pred = gt + np.array([0.2, 0.0, 0.0])
    apd, fracs = apd_3d(pred, gt)
    assert fracs == (0.0, 1.0, 1.0, 1.0)
    assert apd == 75.0
    assert abs(epe(pred, gt) - 0.2) < 1e-12


def test_median_is_lower_middle():
    pred = np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0], [100.0, 0, 0]])
    aligned, scale = median_scale_align(pred, 2.0 * pred)
    assert scale == 2.0
    np.testing.assert_array_equal(aligned, 2.0 * pred)
    with pytest.raises(ZeroMedian):
        median_scale_align(np.zeros((4, 3)), pred)
    with pytest.raises(ZeroMedian):
        median_scale_align(pred, np.zeros((4, 3)))

    def lower_middle(points):
        norms = sorted(math.sqrt((x * x + y * y) + z * z) for x, y, z in points.tolist())
        return norms[(len(norms) - 1) // 2]

    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4, 7, 10, 51, 64):
        for trial in range(4):
            if trial % 2:
                # small integer coordinates: many tied norms, in any direction
                pred = rng.integers(-2, 3, (n, 3)).astype(float)
                pred[np.abs(pred).sum(axis=1) == 0] = 1.0
                gt = rng.permuted(pred, axis=1) * 1.5
            else:
                pred = rng.normal(0, 1, (n, 3))
                gt = rng.normal(0, 2, (n, 3))
            aligned, scale = median_scale_align(pred, gt)
            assert scale == lower_middle(gt) / lower_middle(pred)
            np.testing.assert_array_equal(aligned, pred * scale)


def test_median_alignment_scale_invariant():
    rng = np.random.default_rng(2)
    gt = rng.normal(0, 1, (200, 3)) + np.array([0, 0, 4.0])
    pred = gt + rng.normal(0, 0.3, gt.shape)
    base, _ = apd_3d(*(median_scale_align(pred, gt)[0], gt))
    for k in (0.1, 3.0, 10.0):
        scaled, _ = median_scale_align(k * pred, gt)
        val, _ = apd_3d(scaled, gt)
        assert abs(val - base) < 1e-9


def test_umeyama_recovers_similarity():
    rng = np.random.default_rng(3)
    for trial in range(50):
        src = rng.normal(0, 1, (60, 3))
        s = rng.uniform(0.2, 5.0)
        R = so3_exp(rng.normal(0, 1, 3))
        t = rng.normal(0, 2, 3)
        dst = s * (src @ R.T) + t
        aligned, sim = umeyama_sim3_align(src, dst)
        assert np.abs(aligned - dst).max() < 1e-9
        assert abs(sim.scale - s) / s < 1e-9
    with pytest.raises(DegenerateCovariance):
        umeyama_sim3_align(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DegenerateCovariance):
        umeyama_sim3_align(np.ones((10, 3)), rng.normal(0, 1, (10, 3)))


def test_sim3_metrics_invariant_under_gt_similarity():
    rng = np.random.default_rng(4)
    gt = rng.normal(0, 1, (120, 3)) + np.array([0, 0, 3.0])
    pred = gt + rng.normal(0, 0.25, gt.shape)
    a0, _ = umeyama_sim3_align(pred, gt)
    base, _ = apd_3d(a0, gt)
    for trial in range(5):
        s = rng.uniform(0.3, 3.0)
        R = so3_exp(rng.normal(0, 0.8, 3))
        t = rng.normal(0, 1, 3)
        moved = s * (pred @ R.T) + t
        a1, _ = umeyama_sim3_align(moved, gt)
        val, _ = apd_3d(a1, gt)
        assert abs(val - base) < 1e-9


def test_window_clips_frames():
    rng = np.random.default_rng(5)
    pred, gt = random_tracks(rng, n=10, T=9)
    rep = eval_tracking(pred, gt, alignment="none", window=4)["all"]
    assert rep.window == (0, 4)
    pp, gg = visible_pairs(pred, gt, 4)
    assert rep.num_pairs == len(pp)


def test_invisible_pairs_are_ignored():
    rng = np.random.default_rng(6)
    pred, gt = random_tracks(rng, n=12, T=5)
    poisoned = np.array(pred.positions)
    poisoned[~gt.visibility] = 1e6
    rep_a = eval_tracking(pred, gt, alignment="none", window=5)["all"]
    rep_b = eval_tracking(
        TrackSet(poisoned, pred.visibility, pred.dynamic), gt,
        alignment="none", window=5,
    )["all"]
    assert rep_a.apd == rep_b.apd and rep_a.epe == rep_b.epe


def test_dynamic_subset_errors():
    rng = np.random.default_rng(7)
    gt_pos = rng.normal(0, 1, (8, 3, 3)) + np.array([0, 0, 3.0])
    vis = np.ones((8, 3), bool)
    nodyn = TrackSet(gt_pos, vis)
    # without dynamic tracks, flagged or not, the dynamic report is omitted
    assert set(eval_tracking(nodyn, nodyn, alignment="none")) == {"all"}
    static = TrackSet(gt_pos, vis, np.zeros(8, bool))
    assert set(eval_tracking(static, static, alignment="none")) == {"all"}
    # a dynamic track first visible in frame 1 has no pair in a 1-frame window
    vis[0, 0] = False
    dyn = np.zeros(8, bool)
    dyn[0] = True
    late = TrackSet(gt_pos, vis, dyn)
    assert set(eval_tracking(late, late, alignment="none", window=1)) == {"all"}
    reports = eval_tracking(late, late, alignment="none", window=2)
    assert set(reports) == {"all", "dynamic"} and reports["dynamic"].num_pairs == 1
    with pytest.raises(ValueError):
        eval_tracking(nodyn, nodyn, alignment="parade")


def test_window_must_be_a_positive_integer():
    pred, gt = random_tracks(np.random.default_rng(15), n=10, T=4)
    video = PointmapVideo("recon", np.ones((4, 6, 8, 3)), np.ones((4, 6, 8), bool))
    depth = np.ones((4, 6, 8))
    for window in (0, -1, 2.5, np.nan, True, "3"):
        with pytest.raises(ValueError, match="window must be a positive integer"):
            eval_tracking(pred, gt, window=window)
        with pytest.raises(ValueError, match="window must be a positive integer"):
            eval_recon(video, video, window=window, depth_maps=depth)
    # a numpy integer is a window, reported as a plain int
    assert eval_tracking(pred, gt, window=np.int64(2))["all"].window == (0, 2)
    assert type(eval_recon(video, video, window=np.int64(9), depth_maps=depth).window[1]) is int


def test_eval_recon_filters_and_matches_brute():
    rng = np.random.default_rng(8)
    H, W, T = 6, 8, 3
    gt_pts = rng.normal(0, 1, (T, H, W, 3)) + np.array([0, 0, 2.0])
    pred_pts = gt_pts + rng.normal(0, 0.15, gt_pts.shape)
    valid = rng.uniform(size=(T, H, W)) > 0.2
    depth = rng.uniform(0.5, 3.0, (T, H, W))
    depth[0, 0, 0] = 9.0  # outside the range filter
    gt_video = PointmapVideo("recon", gt_pts.copy(), valid.copy())
    pred_video = PointmapVideo("recon", pred_pts.copy(), valid.copy())
    rep = eval_recon(pred_video, gt_video, alignment="median", depth_maps=depth)
    pp, gg = [], []
    for j in range(T):
        for r in range(H):
            for c in range(W):
                if valid[j, r, c] and 0.1 <= depth[j, r, c] <= 5.0:
                    pp.append(pred_pts[j, r, c])
                    gg.append(gt_pts[j, r, c])
    apd, fracs, mean_err = brute_score(pp, gg, "median")
    assert rep.apd == apd and rep.per_threshold == fracs and rep.epe == mean_err
    assert rep.num_pairs == len(pp)
    # invalid pixels are excluded no matter their content
    poisoned = PointmapVideo("recon", np.where(valid[..., None], pred_pts, 1e6), valid)
    rep2 = eval_recon(poisoned, gt_video, alignment="median", depth_maps=depth)
    assert rep2.apd == rep.apd
    with pytest.raises(NoOverlap):
        eval_recon(pred_video, gt_video, depth_maps=np.full((T, H, W), 99.0))


@pytest.mark.parametrize("shape", [(2, 6, 8), (4, 5, 8), (4, 6, 8, 1)])
def test_eval_recon_checks_the_depth_map_shape(shape):
    video = PointmapVideo("recon", np.ones((4, 6, 8, 3)), np.ones((4, 6, 8), bool))
    message = rf"^depth maps {re.escape(str(shape))} vs video \(4, 6, 8\)$"
    with pytest.raises(ShapeMismatch, match=message):
        eval_recon(video, video, depth_maps=np.ones(shape))


def aligned_pairs(pp, gg, alignment):
    """The all-pairs fit of ``alignment``, from the public align functions."""
    if alignment == "median":
        return median_scale_align(pp, gg)[0]
    if alignment == "sim3":
        return umeyama_sim3_align(pp, gg)[0]
    return pp


def assert_report_definitions(rep, aligned, gt):
    """The fingerprint is the CRC of the (N, 3) float64 differences, and
    apd and epe are those of the public functions on the same pairs."""
    fingerprint = zlib.crc32(np.ascontiguousarray(aligned - gt).tobytes())
    assert rep.fingerprint == f"{fingerprint:08x}"
    assert (rep.apd, rep.per_threshold) == apd_3d(aligned, gt)
    assert rep.epe == epe(aligned, gt)
    assert rep.num_pairs == len(gt)


@pytest.mark.parametrize("alignment", ["none", "median", "sim3"])
def test_tracking_report_keeps_its_definitions(alignment):
    pred, gt = random_tracks(np.random.default_rng(12), n=60, T=7)
    reports = eval_tracking(pred, gt, alignment=alignment, window=6)
    pp, gg = (np.array(x) for x in visible_pairs(pred, gt, 6))
    dynamic = np.array(
        [gt.dynamic[i] for i in range(gt.num_points) for t in range(6) if gt.visibility[i, t]]
    )
    aligned = aligned_pairs(pp, gg, alignment)
    assert_report_definitions(reports["all"], aligned, gg)
    assert_report_definitions(reports["dynamic"], aligned[dynamic], gg[dynamic])


@pytest.mark.parametrize("alignment", ["none", "median", "sim3"])
def test_recon_report_keeps_its_definitions(alignment):
    pred_video, gt_video, depth = recon_video(np.random.default_rng(14))
    rep = eval_recon(pred_video, gt_video, alignment=alignment, depth_maps=depth, window=2)
    p, g = pred_video, gt_video
    keep = [
        (p.points[j, r, c], g.points[j, r, c])
        for j in range(2)
        for r in range(p.height)
        for c in range(p.width)
        if p.valid[j, r, c] and g.valid[j, r, c] and 0.1 <= depth[j, r, c] <= 5.0
    ]
    pp, gg = (np.array(x) for x in zip(*keep))
    assert_report_definitions(rep, aligned_pairs(pp, gg, alignment), gg)


def recon_video(rng, T=3, H=6, W=8):
    gt_pts = rng.normal(0, 1, (T, H, W, 3)) + np.array([0, 0, 2.0])
    pred_pts = gt_pts * 1.3 + rng.normal(0, 0.15, gt_pts.shape)
    valid = rng.uniform(size=(T, H, W)) > 0.2
    depth = rng.uniform(0.05, 5.5, (T, H, W))
    gt_video = PointmapVideo("recon", gt_pts, valid)
    pred_valid = valid | (rng.uniform(size=(T, H, W)) > 0.8)
    return PointmapVideo("recon", pred_pts, pred_valid), gt_video, depth


def frozen(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("alignment", ["none", "median", "sim3"])
def test_evaluation_leaves_frozen_inputs_untouched(alignment):
    rng = np.random.default_rng(15)
    pred, gt = random_tracks(rng)
    pred_video, gt_video, depth = recon_video(rng)
    depth = frozen(depth)
    pp, gg = (frozen(x) for x in visible_pairs(pred, gt, 6))
    arrays = [pred.positions, gt.positions, gt.visibility, gt.dynamic, depth, pp, gg]
    arrays += [a for v in (pred_video, gt_video) for a in (v.points, v.valid)]
    assert not any(a.flags.writeable for a in arrays)
    before = [a.tobytes() for a in arrays]
    tracks = [eval_tracking(pred, gt, alignment=alignment, window=6) for _ in range(2)]
    recon = [
        eval_recon(pred_video, gt_video, alignment=alignment, depth_maps=depth) for _ in range(2)
    ]
    assert tracks[0] == tracks[1] and set(tracks[0]) == {"all", "dynamic"}
    assert recon[0] == recon[1]
    # the public metric functions on frozen pairs
    scores = [
        (aligned_pairs(pp, gg, alignment).tobytes(), apd_3d(pp, gg), epe(pp, gg))
        for _ in range(2)
    ]
    assert scores[0] == scores[1]
    assert [a.tobytes() for a in arrays] == before


def test_track_positions_are_stored_c_contiguous():
    rng = np.random.default_rng(16)
    stacked = rng.normal(size=(5, 7, 3))  # (T, N, 3), as frames are stacked
    ts = TrackSet(stacked.swapaxes(0, 1), np.ones((7, 5), bool))
    assert ts.positions.flags.c_contiguous
    np.testing.assert_array_equal(ts.positions, stacked.swapaxes(0, 1))
    assert ts.positions.reshape(-1, 3).base is ts.positions


def test_fingerprint_distinguishes_runs():
    rng = np.random.default_rng(9)
    pred, gt = random_tracks(rng)
    a = eval_tracking(pred, gt, window=6)["all"]
    b = eval_tracking(pred, gt, window=6)["all"]
    assert a.fingerprint == b.fingerprint
    pred2, _ = random_tracks(np.random.default_rng(10))
    c = eval_tracking(pred2, gt, window=6)["all"]
    assert c.fingerprint != a.fingerprint


def test_subsample_queries_deterministic():
    a = subsample_queries(100, 10, seed=1)
    b = subsample_queries(100, 10, seed=1)
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 10
    assert np.all(np.diff(a) > 0)
    full = subsample_queries(5, 10)
    assert np.array_equal(full, np.arange(5))
    with pytest.raises(ValueError):
        subsample_queries(5, 0)


def test_shape_checks():
    with pytest.raises(ShapeMismatch):
        median_scale_align(np.ones((4, 3)), np.ones((5, 3)))
    with pytest.raises(ShapeMismatch):
        umeyama_sim3_align(np.ones((4, 2)), np.ones((4, 2)))
    rng = np.random.default_rng(11)
    p2d = TrackSet(rng.normal(size=(4, 3, 2)), np.ones((4, 3), bool))
    with pytest.raises(ShapeMismatch):
        eval_tracking(p2d, p2d)


@pytest.mark.parametrize("fn", [apd_3d, epe, median_scale_align, umeyama_sim3_align])
@pytest.mark.parametrize(
    "pred, gt",
    [(np.zeros((5, 3)), np.zeros((1, 3))), (np.ones((4, 2)), np.ones((4, 2)))],
    ids=["broadcastable", "2d"],
)
def test_every_pair_function_checks_its_pair(fn, pred, gt):
    with pytest.raises(ShapeMismatch, match=re.escape("point arrays must match as (N, 3)")):
        fn(pred, gt)
