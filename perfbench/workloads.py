"""The benchmark's workloads: inputs from the oracle, operations, checks.

A workload builds its inputs from the seed, then offers a cycle of
operations. Each operation makes the public calls a CLI subcommand makes,
timing each call as a stage. An exception of any type in a stage counts
as one failed operation and is recorded by type; stages that need its
result are skipped and the run goes on.
"""

import dataclasses
import functools
import math
import time
import zlib
from pathlib import Path

import numpy as np

POSE_TOL = 1e-4  # rotation angle (rad) and translation (m), as in the round-trip gate
FOCAL_TOL = 1e-3  # relative
FAILED = object()


@dataclasses.dataclass
class Op:
    """Timings, counts and outputs of one operation.

    ``item`` names what the operation worked on; operations on the same
    item must repeat each other's outputs exactly. ``flow`` operations
    make up the workload's flow (``frames_per_s``); a camera solve timed
    beside the flow is not one.
    """

    item: str
    flow: bool = True
    seconds: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    errors: list = dataclasses.field(default_factory=list)
    # exact counts the benchmark itself can see (no tracing needed)
    counts: dict = dataclasses.field(default_factory=dict)
    # deterministic outputs that must repeat exactly for the same item
    outputs: dict = dataclasses.field(default_factory=dict)
    quality: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)

    def call(self, stage, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure type counts; the run goes on
            self.errors.append(f"{stage}:{type(exc).__name__}")
            return FAILED
        finally:
            self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - t0

    @property
    def flow_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def eval_s(self) -> float:
        return self.seconds.get("eval_tracking", 0.0) + self.seconds.get("eval_recon", 0.0)


@dataclasses.dataclass
class Truth:
    """Oracle ground truth an operation is checked and scored against."""

    cameras: list
    focal: float
    recon_pointmaps: list
    depth: np.ndarray
    tracks3d: object
    queries: np.ndarray

    @classmethod
    def of(cls, seq):
        return cls(
            cameras=list(seq.cameras),
            focal=seq.intrinsics.focal,
            recon_pointmaps=seq.recon_pointmaps,
            depth=seq.depth,
            tracks3d=seq.tracks3d,
            queries=np.array(seq.tracks2d.positions[:, 0]),
        )


def pose_matches(pose, cam) -> bool:
    # 2 asin(|dR|_F / sqrt 8) is the rotation angle, stable near zero
    chord = np.linalg.norm(pose.rotation - cam.rotation) / math.sqrt(8.0)
    angle = 2.0 * math.asin(min(1.0, chord))
    shift = np.linalg.norm(pose.translation - cam.translation)
    return bool(angle < POSE_TOL and shift < POSE_TOL)


def dir_digest(path: Path) -> tuple[str, int]:
    """CRC over a directory's file names and bytes, and its total size."""
    crc, size = 0, 0
    for p in sorted(Path(path).iterdir()):
        data = p.read_bytes()
        crc = zlib.crc32(data, zlib.crc32(p.name.encode(), crc))
        size += len(data)
    return f"{crc:08x}", size


def _poses_digest(estimates) -> str:
    crc = 0
    for est in estimates:
        crc = zlib.crc32(np.ascontiguousarray(est.pose.rotation).tobytes(), crc)
        crc = zlib.crc32(np.ascontiguousarray(est.pose.translation).tobytes(), crc)
    return f"{crc:08x}"


def _timer(parts):
    """Call a set-up function and add its time to ``parts[key]``."""

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        parts[key] = parts.get(key, 0.0) + time.perf_counter() - t0
        return out

    return timed


def _solve_stage(op, wt, recon_pointmaps, width, height, truth, check):
    """``solve-camera``: focal, RANSAC PnP and Gauss-Newton per frame."""
    grid = wt.geometry.PixelGrid.create(width, height)
    res = op.call(
        "solve", wt.camera.solve_cameras_for_video,
        recon_pointmaps, grid, wt.camera.RansacConfig(seed=0),
    )
    if res is FAILED:
        return
    K, estimates = res
    frames = len(estimates)
    op.counts["solved_frames"] = frames
    op.outputs["poses"] = _poses_digest(estimates)
    if not check:
        return
    ok = sum(pose_matches(e.pose, c) for e, c in zip(estimates, truth.cameras))
    op.quality["cam_ok"] = ok
    op.quality["cam_frames"] = frames
    if abs(K.focal - truth.focal) > FOCAL_TOL * truth.focal:
        op.problems.append(f"{op.item}: focal {K.focal} vs oracle {truth.focal}")
    if ok != frames:
        op.problems.append(f"{op.item}: {frames - ok} of {frames} poses off the oracle")


def _eval_stages(op, wt, pred_tracking, pred_recon, truth):
    """``eval``: recon pointmaps (sim3) and assembled tracks (median)."""
    rec = op.call(
        "eval_recon", wt.bench.eval_recon, pred_recon, truth.recon_pointmaps,
        alignment="sim3", depth_maps=truth.depth,
    )
    pred = op.call("assemble", wt.geometry.assemble_trajectories, pred_tracking, truth.queries)
    trk = FAILED
    if pred is not FAILED:
        trk = op.call("eval_tracking", wt.bench.eval_tracking, pred, truth.tracks3d,
                      alignment="median")
    pairs = 0
    if rec is not FAILED:
        op.outputs["recon"] = (rec.num_pairs, rec.fingerprint)
        op.quality["recon_apd"] = rec.apd
        pairs += rec.num_pairs
    if trk is not FAILED:
        op.outputs["tracks"] = {k: (r.num_pairs, r.fingerprint) for k, r in trk.items()}
        op.quality["track_apd"] = trk["all"].apd
        op.quality["track_epe"] = trk["all"].epe
        pairs += sum(r.num_pairs for r in trk.values())
    op.counts["bench.pairs"] = op.counts.get("bench.pairs", 0) + pairs


class ReconM:
    """Camera recovery from stored recon pointmaps at 256x192x24.

    The inputs are four stored videos: presets ``orbit-dynamic`` and
    ``degenerate-planar``, each with clean recon pointmaps and with 3 mm
    recon noise. The focal length keeps the field of view of the 64x48
    scenes. One operation loads a video (``seqio``), solves its cameras
    and scores its tracks and recon pointmaps against the oracle. The
    first input is a clean video: its operation calls every function the
    others call (the noisy ones stop inside RANSAC), so the warm-up needs
    only that one.
    """

    name = "recon-M"
    width, height, frames, focal = 256, 192, 24, 320.0
    presets = ("orbit-dynamic", "degenerate-planar")
    recon_noise = 0.003
    steps_per_op = 0
    setup_repeats = 3

    def setup(self, wt, seed, workdir: Path):
        items, parts = [], {}
        timed = _timer(parts)
        for preset in self.presets:
            spec = wt.oracle.SceneSpec(
                preset, width=self.width, height=self.height,
                num_frames=self.frames, focal=self.focal, seed=seed,
            )
            seq = timed("oracle.generate_s", wt.oracle.generate_sequence, spec)
            noisy = timed(
                "oracle.corrupt_s", wt.oracle.corrupt, seq,
                noise=self.recon_noise, targets=("recon",), seed=seed + 1,
            )
            truth = Truth.of(seq)
            for kind, video in (("clean", seq), ("noisy", noisy)):
                path = workdir / f"{preset}-{kind}.seq"
                timed("seqio.save_s", wt.seqio.save_sequence, path, video)
                items.append({"name": f"{preset}-{kind}", "path": path, "truth": truth})
        return items, parts

    def prepare(self, wt, items) -> dict:
        """Digest the stored inputs; repeated set-ups must write the same bytes."""
        for item in items:
            item["digest"], item["bytes"] = dir_digest(item["path"])
        return {
            "fingerprint": [item["digest"] for item in items],
            "seqio.bytes_written": sum(item["bytes"] for item in items),
        }

    def operations(self, wt, items, index) -> list:
        return [functools.partial(self._video, wt, items[index])]

    def _video(self, wt, item) -> Op:
        truth = item["truth"]
        op = Op(item["name"])
        op.counts["seqio.bytes_read"] = item["bytes"]
        seq = op.call("load", wt.seqio.load_sequence, item["path"])
        if seq is FAILED:
            return op
        _solve_stage(op, wt, seq.recon_pointmaps, self.width, self.height, truth,
                     check=item["name"].endswith("clean"))
        _eval_stages(op, wt, seq.tracking_pointmaps, seq.recon_pointmaps, truth)
        if not op.errors:
            op.counts["frames_done"] = self.frames
        return op

    def working_set(self) -> dict:
        n = self.width * self.height
        return {
            # pixels (2) + points (3) per correspondence, plus the ~9 float
            # temporaries one RANSAC hypothesis is scored with
            "ransac_frame_bytes": 14 * 8 * n,
            # both pointmap branches of one video, float64
            "video_pointmaps_bytes": 2 * self.frames * n * 3 * 8,
        }


class AdaptLiveS:
    """Test-time adaptation of corrupted tracking at 64x48x24, live recon.

    The input is an orbit-dynamic scene with tracking noise 0.05 and
    drift 0.01 and projected track supervision, as in the adaptation
    acceptance test. Each cycle solves the input's cameras
    (``solve-camera``, timed beside the flow), then adapts both pointmap
    branches for a fixed step budget (``adapt``), scores the adapted
    tracks and recon maps (``eval``) and saves the adapted sequence.
    """

    name = "adapt-live-S"
    width, height, frames, focal = 64, 48, 24, 80.0
    preset = "orbit-dynamic"
    noise, drift = 0.05, 0.01
    setup_repeats = 7
    # a solve (~0.4 s) and an eval (~45 ms) are short and noisy at this
    # size: repeating them gives a run more samples of each
    solve_repeats = 3
    eval_repeats = 3
    # one adaptation takes about 3 s, so a run holds several samples
    steps_per_op = 10

    def setup(self, wt, seed, workdir: Path):
        parts = {}
        timed = _timer(parts)
        spec = wt.oracle.SceneSpec(
            self.preset, width=self.width, height=self.height,
            num_frames=self.frames, focal=self.focal, seed=seed,
        )
        seq = timed("oracle.generate_s", wt.oracle.generate_sequence, spec)
        bad = timed(
            "oracle.corrupt_s", wt.oracle.corrupt, seq, noise=self.noise,
            drift=self.drift, targets=("tracking",), seed=seed + 1,
        )
        sup = timed("oracle.supervision_s", wt.oracle.projected_track_supervision, bad)
        mono = timed("oracle.supervision_s", wt.oracle.make_depth_supervision, bad)
        item = {"truth": Truth.of(seq), "input": bad, "sup": sup, "mono": mono,
                "path": workdir / "adapted.seq"}
        return [item], parts

    def prepare(self, wt, items) -> dict:
        """Score the corrupted input once: the level adaptation must beat."""
        (item,) = items
        truth = item["truth"]
        pred = wt.geometry.assemble_trajectories(item["input"].tracking_pointmaps, truth.queries)
        item["apd_before"] = wt.bench.eval_tracking(pred, truth.tracks3d)["all"].apd
        return {"fingerprint": item["apd_before"]}

    def operations(self, wt, items, index) -> list:
        item = items[index]
        solve = functools.partial(self._solve, wt, item)
        return [solve] * self.solve_repeats + [functools.partial(self._adapt, wt, item)]

    def _solve(self, wt, item) -> Op:
        op = Op("solve-camera", flow=False)
        _solve_stage(op, wt, item["input"].recon_pointmaps, self.width, self.height,
                     item["truth"], check=True)
        return op

    def _adapt(self, wt, item) -> Op:
        truth, bad = item["truth"], item["input"]
        op = Op("adapt")
        state = wt.losses.AdaptState(
            bad.tracking_pointmaps, bad.recon_pointmaps,
            freeze_recon=False, steps=self.steps_per_op,
        )
        res = op.call("tta", wt.losses.tta_optimize, state, item["sup"], item["mono"])
        if res is FAILED:
            return op
        adapted, trace = res
        op.counts["steps"] = self.steps_per_op
        op.outputs["loss_totals"] = tuple(b.total for b in trace)
        op.quality["loss_ratio"] = trace[-1].total / trace[0].total
        if not trace[-1].total < trace[0].total:
            op.problems.append(f"adapt: loss rose {trace[0].total} -> {trace[-1].total}")
        for _ in range(self.eval_repeats):
            _eval_stages(op, wt, adapted.tracking_params, adapted.recon_pointmaps, truth)
        apd = op.quality.get("track_apd")
        if apd is not None and not apd > item["apd_before"]:
            op.problems.append(f"adapt: track apd {item['apd_before']} -> {apd} did not rise")
        out = dataclasses.replace(
            bad, tracking_pointmaps=adapted.tracking_params,
            recon_pointmaps=adapted.recon_pointmaps,
        )
        if op.call("save", wt.seqio.save_sequence, item["path"], out) is not FAILED:
            op.outputs["saved"], op.counts["seqio.bytes_written"] = dir_digest(item["path"])
        if not op.errors:
            op.counts["frames_done"] = self.frames
        return op

    def working_set(self) -> dict:
        n = self.width * self.height
        # tracking and recon pointmaps plus one gradient array per branch
        return {"adapt_state_bytes": 4 * self.frames * n * 3 * 8}


WORKLOADS = {w.name: w for w in (ReconM(), AdaptLiveS())}
