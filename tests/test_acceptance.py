"""End-to-end acceptance checks.

One test per contract item, ordered; each prints a single [PASS]/[FAIL]
line so a verbose run doubles as a release checklist. Tolerances sit on
the assertions they govern. The headline quality of a trained model is
out of reach for a desk-scale suite, so every check here is either a
property of the math or an equivalence against an independent oracle.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from worldtrack.bench import (
    THRESHOLDS,
    Sim3,
    eval_recon,
    eval_tracking,
    umeyama_sim3_align,
)
from worldtrack.camera import RansacConfig, solve_cameras_for_video
from worldtrack.cli import main as cli_main
from worldtrack.geometry import (
    PixelGrid,
    Pointmap,
    PoseSE3,
    TrackSet,
    assemble_trajectories,
)
from worldtrack.gradcheck import (
    check_align_gradient,
    check_depth_gradient,
    check_pose_gradient,
    check_traj_gradient,
)
from worldtrack.losses import AdaptState, depth_loss, traj_loss, tta_optimize
from worldtrack.oracle import (
    PRESETS,
    SceneSpec,
    corrupt,
    generate_sequence,
    make_depth_supervision,
    projected_track_supervision,
)


@contextlib.contextmanager
def reported(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


# ---------------------------------------------------------------------------
# gradient checks


def test_01_pose_gradient_matches_finite_differences():
    with reported("pnp-gradient-vs-central-differences"):
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(50):
            res = check_pose_gradient(np.random.default_rng(1000 + i))
            worst = max(worst, res.max_rel_err)
            assert res.max_rel_err < 1e-4, f"instance {i}: {res.max_rel_err}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        print(f"  50 instances, worst rel err {worst:.2e}, {elapsed:.1f}s", end=" ")


def test_02_loss_stack_gradients_match_finite_differences():
    checks = {
        "traj": check_traj_gradient,
        "depth": check_depth_gradient,
        "align": check_align_gradient,
    }
    with reported("loss-stack-gradients-vs-central-differences"):
        for name, fn in checks.items():
            worst = max(fn(np.random.default_rng(2000 + i)).max_rel_err for i in range(12))
            assert worst < 1e-4, f"{name}: {worst}"


# ---------------------------------------------------------------------------
# analytic properties of the losses


def test_03_trajectory_loss_scale_invariance():
    rng = np.random.default_rng(3)
    with reported("trajectory-loss-radial-scale-invariance"):
        for _ in range(100):
            n = int(rng.integers(4, 200))
            center = rng.uniform(10, 50, size=2)
            gt = center + rng.normal(size=(n, 2)) * 12.0
            pred = center + rng.normal(size=(n, 2)) * 12.0
            k = rng.uniform(0.1, 10.0)
            base, _, _ = traj_loss(pred, gt, center)
            scaled, _, _ = traj_loss(center + k * (pred - center), gt, center)
            rel = abs(scaled - base) / max(abs(base), 1e-300)
            assert rel < 1e-9, rel


def test_04_depth_scale_closed_form_is_optimal():
    rng = np.random.default_rng(4)
    H, W = 8, 10
    pose = PoseSE3.identity()
    with reported("depth-alignment-closed-form-minimizes-objective"):
        for _ in range(100):
            pts = rng.normal(size=(H, W, 3))
            pts[:, :, 2] = rng.uniform(0.2, 5.0, size=(H, W))
            valid = rng.random((H, W)) < 0.8
            valid[0, 0] = True
            pm = Pointmap(pts, valid, 0, 3, 3)
            mono = rng.uniform(0.2, 5.0, size=(H, W))
            loss, _ = depth_loss(pm, pose, mono)

            zp = pts[:, :, 2][valid]
            zm = mono[valid]
            objective = lambda a: float(np.mean((a * zp - zm) ** 2))
            a_star = float(zp @ zm / (zp @ zp))
            assert abs(loss - objective(a_star)) <= 1e-12 * max(1.0, loss)
            for a in np.linspace(0.05, 8.0, 320):
                assert loss <= objective(a) + 1e-12


# ---------------------------------------------------------------------------
# camera recovery


def test_05_camera_round_trip_on_all_presets():
    grid = PixelGrid.create(64, 48)
    with reported("camera-recovery-round-trip-all-presets"):
        for preset in PRESETS:
            t0 = time.perf_counter()
            seq = generate_sequence(
                SceneSpec(preset, width=64, height=48, num_frames=64, focal=80.0, seed=2)
            )
            K, ests = solve_cameras_for_video(seq.recon_pointmaps, grid, RansacConfig(seed=0))
            elapsed = time.perf_counter() - t0
            assert abs(K.focal - 80.0) / 80.0 < 1e-3, f"{preset}: focal {K.focal}"
            for est, cam in zip(ests, seq.cameras):
                ang = Rotation.from_matrix(est.pose.rotation @ cam.rotation.T).magnitude()
                shift = np.linalg.norm(est.pose.translation - cam.translation)
                assert ang < 1e-4, f"{preset}: rotation off by {ang}"
                assert shift < 1e-4, f"{preset}: translation off by {shift}"
            assert elapsed < 60.0, f"{preset}: took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# metric equivalence against an independent scalar scorer


def _scalar_norm(x, y, z):
    return math.sqrt((x * x + y * y) + z * z)


def _brute_score(pairs_p, pairs_g, alignment):
    """Pure-Python rescore: must agree with the library bit for bit."""
    if alignment == "median":
        k = (len(pairs_p) - 1) // 2
        mp = sorted(_scalar_norm(*q) for q in pairs_p)[k]
        mg = sorted(_scalar_norm(*q) for q in pairs_g)[k]
        scale = mg / mp
        pairs_p = [(x * scale, y * scale, z * scale) for x, y, z in pairs_p]
    elif alignment == "sim3":
        _, fit = umeyama_sim3_align(np.array(pairs_p), np.array(pairs_g))
        R, t, s = fit.rotation, fit.translation, fit.scale
        pairs_p = [
            (
                s * ((R[0, 0] * x + R[0, 1] * y) + R[0, 2] * z) + t[0],
                s * ((R[1, 0] * x + R[1, 1] * y) + R[1, 2] * z) + t[1],
                s * ((R[2, 0] * x + R[2, 1] * y) + R[2, 2] * z) + t[2],
            )
            for x, y, z in pairs_p
        ]
    errs = [
        _scalar_norm(px - gx, py - gy, pz - gz)
        for (px, py, pz), (gx, gy, gz) in zip(pairs_p, pairs_g)
    ]
    fracs = tuple(sum(1 for e in errs if e < th) / len(errs) for th in THRESHOLDS)
    apd = 100.0 * math.fsum(fracs) / len(fracs)
    return apd, math.fsum(errs) / len(errs), fracs


def test_06_metrics_match_brute_force_scorer():
    rng = np.random.default_rng(6)
    with reported("tracking-and-recon-metrics-bit-equal-to-brute-force"):
        for i in range(20):
            n = int(rng.integers(5, 40))
            t = int(rng.integers(3, 8))
            gt_pos = rng.normal(size=(n, t, 3)) * 2.0
            pred_pos = gt_pos * rng.uniform(0.5, 2.0) + rng.normal(size=(n, t, 3)) * 0.3
            vis = rng.random((n, t)) < 0.7
            vis[0, 0] = True
            pred = TrackSet(pred_pos, vis)
            gt = TrackSet(gt_pos, vis)
            pairs_p = [tuple(pred_pos[a, b]) for a in range(n) for b in range(t) if vis[a, b]]
            pairs_g = [tuple(gt_pos[a, b]) for a in range(n) for b in range(t) if vis[a, b]]
            for mode in ("none", "median", "sim3"):
                rep = eval_tracking(pred, gt, alignment=mode, subsets=("all",))["all"]
                apd, err, fracs = _brute_score(pairs_p, pairs_g, mode)
                assert (rep.apd, rep.epe, rep.per_threshold) == (apd, err, fracs), (i, mode)

        for i in range(20):
            H, W, t = 5, 7, 3
            gt_pts = rng.normal(size=(t, H, W, 3))
            gt_pts[..., 2] = rng.uniform(0.05, 6.0, size=(t, H, W))
            pred_pts = gt_pts + rng.normal(size=(t, H, W, 3)) * 0.2
            valid_p = rng.random((t, H, W)) < 0.85
            valid_g = rng.random((t, H, W)) < 0.85
            depth = rng.uniform(0.05, 6.0, size=(t, H, W))
            depth[0, 0, 0] = 1.0
            valid_p[0, 0, 0] = valid_g[0, 0, 0] = True
            pred_pms = [Pointmap(pred_pts[j], valid_p[j], 0, j, j) for j in range(t)]
            gt_pms = [Pointmap(gt_pts[j], valid_g[j], 0, j, j) for j in range(t)]
            pairs_p, pairs_g = [], []
            for j in range(t):
                for r in range(H):
                    for c in range(W):
                        keep = (
                            valid_p[j, r, c]
                            and valid_g[j, r, c]
                            and 0.1 <= depth[j, r, c] <= 5.0
                        )
                        if keep:
                            pairs_p.append(tuple(pred_pts[j, r, c]))
                            pairs_g.append(tuple(gt_pts[j, r, c]))
            for mode in ("none", "median", "sim3"):
                rep = eval_recon(pred_pms, gt_pms, alignment=mode, depth_maps=depth)
                apd, err, fracs = _brute_score(pairs_p, pairs_g, mode)
                assert (rep.apd, rep.epe, rep.per_threshold) == (apd, err, fracs), (i, mode)

        # fixed-value anchors
        pos = np.array([[[1.0, 2.0, 3.0]], [[0.5, -1.0, 2.0]]])
        vis = np.ones((2, 1), dtype=bool)
        perfect = eval_tracking(TrackSet(pos, vis), TrackSet(pos, vis), alignment="none")
        assert perfect["all"].apd == 100.0 and perfect["all"].epe == 0.0
        one = np.zeros((1, 1, 3))
        off = one + np.array([0.2, 0.0, 0.0])
        vis1 = np.ones((1, 1), dtype=bool)
        rep = eval_tracking(
            TrackSet(off, vis1), TrackSet(one, vis1), alignment="none"
        )["all"]
        assert rep.per_threshold == (0.0, 1.0, 1.0, 1.0)
        assert rep.apd == 75.0


def test_07_similarity_alignment_recovery():
    rng = np.random.default_rng(7)
    with reported("similarity-transform-recovery-and-invariance"):
        for i in range(1000):
            n = int(rng.integers(4, 50))
            src = rng.normal(size=(n, 3))
            R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
            s = 10.0 ** rng.uniform(-1, 1)
            t = rng.normal(size=3) * 5.0
            dst = s * (src @ R.T) + t
            aligned, fit = umeyama_sim3_align(src, dst)
            resid = np.linalg.norm(aligned - dst, axis=1).max()
            assert resid < 1e-9, (i, resid)

        for i in range(5):
            n, t_frames = 30, 4
            gt_pos = rng.normal(size=(n, t_frames, 3)) * 2.0
            pred_pos = gt_pos + rng.normal(size=(n, t_frames, 3)) * 0.05
            vis = np.ones((n, t_frames), dtype=bool)
            base = eval_tracking(
                TrackSet(pred_pos, vis), TrackSet(gt_pos, vis), alignment="sim3"
            )["all"]
            q = Sim3(
                1.7,
                Rotation.random(random_state=100 + i).as_matrix(),
                np.array([0.4, -2.0, 1.1]),
            )
            moved = q.apply(pred_pos.reshape(-1, 3)).reshape(n, t_frames, 3)
            moved_rep = eval_tracking(
                TrackSet(moved, vis), TrackSet(gt_pos, vis), alignment="sim3"
            )["all"]
            assert abs(moved_rep.epe - base.epe) < 1e-9
            assert abs(moved_rep.apd - base.apd) < 1e-9


# ---------------------------------------------------------------------------
# adaptation end to end


def test_08_adaptation_converges_on_corrupted_tracks():
    with reported("test-time-adaptation-recovers-corrupted-tracking"):
        for preset in PRESETS:
            t0 = time.perf_counter()
            seq = generate_sequence(
                SceneSpec(preset, width=64, height=48, num_frames=24, focal=80.0, seed=2)
            )
            bad = corrupt(seq, noise=0.05, drift=0.01, targets=("tracking",), seed=1)
            state = AdaptState(
                bad.tracking_pointmaps, bad.recon_pointmaps, steps=500
            )
            out, trace = tta_optimize(
                state, projected_track_supervision(bad), make_depth_supervision(bad)
            )
            elapsed = time.perf_counter() - t0
            ratio = trace[-1].total / trace[0].total
            assert ratio < 0.1, f"{preset}: loss ratio {ratio:.3f}"

            queries = np.array(seq.tracks2d.positions[:, 0])

            def apd_of(pms):
                pred = assemble_trajectories(pms, queries)
                return eval_tracking(pred, seq.tracks3d, alignment="median")["all"].apd

            before, after = apd_of(bad.tracking_pointmaps), apd_of(out.tracking_params)
            assert after > before, f"{preset}: apd {before:.2f} -> {after:.2f}"
            for frozen, orig in zip(out.recon_pointmaps, bad.recon_pointmaps):
                assert frozen is orig
                assert np.array_equal(frozen.points, orig.points)
            assert elapsed < 300.0, f"{preset}: took {elapsed:.1f}s"
            print(f"  {preset}: ratio {ratio:.4f} apd {before:.2f}->{after:.2f}", end=" ")


# ---------------------------------------------------------------------------
# CLI determinism


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_09_cli_reruns_are_byte_identical(tmp_path, capsys):
    synth = [
        "synth", "--preset", "orbit-dynamic", "--width", "32", "--height", "24",
        "--frames", "5", "--focal", "40", "--seed", "9",
    ]
    with reported("cli-reruns-byte-identical"):
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            assert cli_main(synth + ["--out", str(d / "clean.seq")]) == 0
            assert cli_main(
                synth + ["--noise", "0.04", "--drift", "0.01", "--out", str(d / "noisy.seq")]
            ) == 0
            assert cli_main(
                ["solve-camera", "--seq", str(d / "clean.seq"),
                 "--out", str(d / "cameras.json")]
            ) == 0
            assert cli_main(
                ["adapt", "--seq", str(d / "noisy.seq"), "--out", str(d / "adapted.seq"),
                 "--steps", "8"]
            ) == 0
            assert cli_main(
                ["eval", "--pred", str(d / "adapted.seq"), "--gt", str(d / "clean.seq"),
                 "--out", str(d / "eval.json")]
            ) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        for seqdir in ("clean.seq", "noisy.seq", "adapted.seq"):
            assert _dir_bytes(a / seqdir) == _dir_bytes(b / seqdir), seqdir
        for report in ("cameras.json", "eval.json"):
            assert (a / report).read_bytes() == (b / report).read_bytes(), report
        json.loads((a / "eval.json").read_text())  # sanity: valid json

        capsys.readouterr()
        assert cli_main(["check-grads", "--trials", "1"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["check-grads", "--trials", "1"]) == 0
        assert capsys.readouterr().out == first
