"""Command-line entry points.

Subcommands cover the full loop: synthesize a sequence, solve its cameras,
adapt the tracking branch against its own supervision, score predictions
against ground truth, and spot-check the analytic gradients. All outputs
are deterministic for fixed arguments; repeated runs produce byte
identical files.

Exit codes: 0 success, 1 operation failure, 2 bad usage.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, camera
from .bench import DEFAULT_WINDOW, eval_recon, eval_tracking, subsample_queries
from .camera import RansacConfig, solve_cameras_for_video
from .errors import WorldTrackError
from .geometry import PixelGrid, TrackSet, assemble_trajectories
from .gradcheck import run_all
from .losses import AdaptState, LossWeights, tta_optimize
from .oracle import (
    MIN_GRID,
    PRESETS,
    SceneSpec,
    corrupt,
    generate_sequence,
    make_depth_supervision,
    projected_track_supervision,
)
from .seqio import load_sequence, save_sequence


def _write_json(path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_synth(args) -> int:
    spec = SceneSpec(
        preset=args.preset,
        width=args.width,
        height=args.height,
        num_frames=args.frames,
        focal=args.focal,
        seed=args.seed,
    )
    seq = generate_sequence(spec)
    if args.noise > 0 or args.drift > 0:
        seq = corrupt(
            seq,
            noise=args.noise,
            drift=args.drift,
            targets=tuple(args.corrupt_targets),
            seed=args.corrupt_seed,
        )
    save_sequence(args.out, seq)
    print(f"wrote {args.out}: {spec.preset}, {spec.num_frames} frames")
    return 0


def cmd_solve_camera(args) -> int:
    seq = load_sequence(args.seq)
    first = seq.recon_pointmaps[0]
    grid = PixelGrid.create(first.width, first.height)
    K, estimates = solve_cameras_for_video(seq.recon_pointmaps, grid, RansacConfig(args.seed))
    frames = []
    for j, est in enumerate(estimates):
        frames.append(
            {
                "frame": j,
                "rotation": est.pose.rotation.tolist(),
                "translation": est.pose.translation.tolist(),
                "rms_px": est.rms_reprojection_error,
                "num_inliers": int(est.inliers.sum()),
            }
        )
    out = args.out or str(Path(args.seq)) + ".cameras.json"
    # solver settings ride along so reports from different runs stay comparable
    payload = {
        "focal": K.focal,
        "cx": K.cx,
        "cy": K.cy,
        "solver": {
            "max_iterations": camera.RANSAC_MAX_ITERATIONS,
            "inlier_threshold": camera.INLIER_THRESHOLD,
            "min_sample": camera.MIN_SAMPLE,
            "confidence": camera.RANSAC_CONFIDENCE,
            "seed": args.seed,
            "gn_damping": camera.GN_DAMPING,
            "gn_steps": 1,
        },
        "frames": frames,
    }
    _write_json(out, payload)
    if out != "-":
        print(f"wrote {out}")
    return 0


def cmd_adapt(args) -> int:
    seq = load_sequence(args.seq)
    sup = projected_track_supervision(seq)
    mono = make_depth_supervision(seq)
    state = AdaptState(
        tracking_params=seq.tracking_pointmaps,
        recon_pointmaps=seq.recon_pointmaps,
        freeze_recon=not args.unfreeze_recon,
        step_size=args.lr,
        steps=args.steps,
        seed=args.seed,
    )
    new_state, trace = tta_optimize(
        state,
        sup,
        mono,
        weights=LossWeights(args.w_traj, args.w_depth, args.w_align),
    )
    meta = dict(seq.meta)
    meta["adaptation"] = {
        "steps": args.steps,
        "step_size": args.lr,
        "freeze_recon": not args.unfreeze_recon,
        "initial_total": trace[0].total if trace else None,
        "final_total": trace[-1].total if trace else None,
    }
    adapted = replace(
        seq,
        tracking_pointmaps=new_state.tracking_params,
        recon_pointmaps=new_state.recon_pointmaps,
        meta=meta,
    )
    save_sequence(args.out, adapted)
    lines = ["step,traj,depth,align,total"]
    for i, b in enumerate(trace):
        lines.append(f"{i},{b.traj!r},{b.depth!r},{b.align!r},{b.total!r}")
    (Path(args.out) / "trace.csv").write_text("\n".join(lines) + "\n")
    if trace:
        print(
            f"adapted {args.steps} steps: total {trace[0].total:.6g} "
            f"-> {trace[-1].total:.6g}"
        )
    return 0


def cmd_eval(args) -> int:
    pred = load_sequence(args.pred)
    gt = load_sequence(args.gt)
    shapes = [
        f"{seq.tracking_pointmaps[0].width}x{seq.tracking_pointmaps[0].height}"
        f"x{seq.num_frames}"
        for seq in (pred, gt)
    ]
    if shapes[0] != shapes[1]:
        raise ValueError(
            f"--pred is {shapes[0]} but --gt is {shapes[1]} (width x height x frames)"
        )
    payload: dict = {"window": args.window, "alignment": args.alignment}
    if args.mode in ("tracks", "both"):
        queries = np.array(gt.tracks2d.positions[:, 0])
        pred_tracks = assemble_trajectories(pred.tracking_pointmaps, queries)
        gt_tracks = gt.tracks3d
        if args.max_queries and args.max_queries < gt_tracks.num_points:
            keep = subsample_queries(gt_tracks.num_points, args.max_queries, args.seed)
            pred_tracks = TrackSet(
                pred_tracks.positions[keep], pred_tracks.visibility[keep]
            )
            gt_tracks = TrackSet(
                gt_tracks.positions[keep],
                gt_tracks.visibility[keep],
                None if gt_tracks.dynamic is None else gt_tracks.dynamic[keep],
            )
        reports = eval_tracking(
            pred_tracks, gt_tracks, alignment=args.alignment, window=args.window
        )
        payload["tracks"] = {k: v.to_dict() for k, v in reports.items()}
    if args.mode in ("recon", "both"):
        report = eval_recon(
            pred.recon_pointmaps,
            gt.recon_pointmaps,
            alignment=args.alignment,
            window=args.window,
            depth_maps=gt.depth,
        )
        payload["recon"] = report.to_dict()
    _write_json(args.out, payload)
    if args.out != "-":
        print(f"wrote {args.out}")
    return 0


def cmd_check_grads(args) -> int:
    results = run_all(seed=args.seed, trials=args.trials)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: max rel err {res.max_rel_err:.3e} "
              f"(tol {res.tolerance:.1e})")
        failed += not res.passed
    return 1 if failed else 0


def _bounded(convert, minimum=0, strict: bool = False):
    """An argparse type for a finite number at least ``minimum``, or above
    it when ``strict``."""
    kind = f"{'above' if strict else 'at least'} {minimum}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a valid number: {text!r}") from None
        if not np.isfinite(value) or value < minimum or (strict and value == minimum):
            raise argparse.ArgumentTypeError(f"must be a finite number {kind}, got {text!r}")
        return value

    return parse


_positive, _non_negative = _bounded(float, strict=True), _bounded(float)
_positive_int, _count, _grid_size = _bounded(int, 1), _bounded(int), _bounded(int, MIN_GRID)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="worldtrack",
        description="World-frame tracking and reconstruction toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic sequence")
    s.add_argument("--preset", choices=PRESETS, required=True)
    s.add_argument("--width", type=_grid_size, default=64)
    s.add_argument("--height", type=_grid_size, default=48)
    s.add_argument("--frames", type=_positive_int, default=24)
    s.add_argument("--focal", type=_positive, default=80.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--noise", type=_non_negative, default=0.0)
    s.add_argument("--drift", type=_non_negative, default=0.0)
    s.add_argument(
        "--corrupt-targets", nargs="+", default=["tracking"],
        choices=["tracking", "recon"],
    )
    s.add_argument("--corrupt-seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("solve-camera", help="recover intrinsics and poses")
    s.add_argument("--seq", required=True)
    s.add_argument("--out", default=None, help="report path, '-' for stdout")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_solve_camera)

    s = sub.add_parser("adapt", help="test-time optimization of the tracking branch")
    s.add_argument("--seq", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--steps", type=_count, default=500)
    s.add_argument("--lr", type=_positive, default=1e-2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--unfreeze-recon", action="store_true")
    s.add_argument("--w-traj", type=_non_negative, default=1.0)
    s.add_argument("--w-depth", type=_non_negative, default=10.0)
    s.add_argument("--w-align", type=_non_negative, default=5.0)
    s.set_defaults(func=cmd_adapt)

    s = sub.add_parser("eval", help="score predictions against ground truth")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--mode", choices=["tracks", "recon", "both"], default="both")
    s.add_argument("--alignment", choices=["none", "median", "sim3"], default="median")
    s.add_argument("--window", type=_positive_int, default=DEFAULT_WINDOW)
    s.add_argument("--max-queries", type=_count, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("check-grads", help="finite-difference gradient audit")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=_positive_int, default=4)
    s.set_defaults(func=cmd_check_grads)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WorldTrackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
