#!/usr/bin/env python3
"""Benchmark of the worldtrack package, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload recon-M --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy. A run sets its inputs up several times (the median is
``setup_s``), warms up with each distinct operation on the first input
once, then runs cycles until ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``) have passed and every operation ran at least twice.
With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it runs each operation once plainly and once traced and
prints the per-layer metrics, the tracing overhead among them. Outputs are
checked in both modes; the last line of standard output is a JSON result.
The exit code is 1 when a check failed or the package source is missing,
2 on bad usage.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter, defaultdict
from pathlib import Path

# One BLAS thread, set before numpy loads: on a host of a few shared cores a
# second, spinning BLAS thread measures the neighbours more than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import machine
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "worldtrack" / "__init__.py"

DEFAULT_SEED = 1
HELD_OUT_SEED = 101  # reserved for confirming a claimed gain, never for tuning
IMPORT_PROBES = 5
MIN_STEP_SAMPLES = 100  # p90 needs ten samples beyond it
MIN_PASSES = 2  # timed operations per item, at least
MAX_LOOP_SECONDS = 120  # keeps a run on a slow host within the 180 s limit

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import worldtrack; print(time.perf_counter() - t); print(worldtrack.__file__)"
)


def import_package():
    if not PACKAGE_INIT.is_file():
        sys.exit(f"error: no package source at {PACKAGE_INIT}")
    sys.path.insert(0, str(SRC))
    import worldtrack

    if Path(worldtrack.__file__).resolve() != PACKAGE_INIT.resolve():
        sys.exit(f"error: imported worldtrack from {worldtrack.__file__}")
    return worldtrack


def import_seconds() -> float:
    """Median time of ``import worldtrack`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, path = out.stdout.split()
        if Path(path).resolve() != PACKAGE_INIT.resolve():
            sys.exit(f"error: import probe loaded {path}")
        times.append(float(seconds))
    return statistics.median(times)


class Ledger:
    """Outputs per item: every operation on an item must repeat the first."""

    def __init__(self):
        self.first = {}
        self.traced_counts = {}
        self.problems = []

    def record(self, op, traced_counts=None):
        self.problems.extend(op.problems)
        seen = {"outputs": op.outputs, "counts": op.counts, "quality": op.quality,
                "attempted": op.attempted, "errors": op.errors}
        if self.first.setdefault(op.item, seen) != seen:
            self.problems.append(f"{op.item}: outputs differ between operations")
        if traced_counts is not None:
            if self.traced_counts.setdefault(op.item, traced_counts) != traced_counts:
                self.problems.append(f"{op.item}: traced counts differ between operations")

    def total(self, part, key) -> float:
        """Sum over items of a value that repeats exactly."""
        return sum(seen[part].get(key, 0) for seen in self.first.values())

    def error_rate(self) -> float:
        """Failed over attempted calls in one operation per item."""
        seen = self.first.values()
        return rate(sum(len(s["errors"]) for s in seen), sum(s["attempted"] for s in seen))

    def mean(self, key) -> float:
        values = [seen["quality"][key] for seen in self.first.values() if key in seen["quality"]]
        return sum(values) / len(values) if values else 0.0


def digest(part: dict) -> str:
    text = json.dumps(part, sort_keys=True, default=str)
    return f"{zlib.crc32(text.encode()):08x}"


def per_pass(samples) -> float:
    """Sum over items of the median of that item's (item, value) samples."""
    by_item = defaultdict(list)
    for item, value in samples:
        by_item[item].append(value)
    return sum(statistics.median(v) for v in by_item.values())


def rate(num, den) -> float:
    return num / den if den > 0 else 0.0


def end_to_end(ledger, ops, setup_s):
    """End-to-end metrics of the untraced operations, plus info lines."""
    attempted = sum(op.attempted for op in ops)
    failed = sum(len(op.errors) for op in ops)
    # Rates count successful work only: how long a failing solve runs before
    # it raises depends on the seed (0.05 s to 12 s on recon-M), which would
    # swamp the rates. Failures show in ok_rate and failed_solve_s instead.
    flow = [op for op in ops if op.flow and not op.errors]
    solves = [op for op in ops if "solved_frames" in op.counts]
    failed_solves = [op for op in ops if "solve" in op.seconds and "solved_frames" not in op.counts]
    values = {
        "setup_s": setup_s,
        "frames_per_s": rate(ledger.total("counts", "frames_done"),
                             per_pass((o.item, o.flow_s) for o in flow)),
        "solve_frames_per_s": rate(ledger.total("counts", "solved_frames"),
                                   per_pass((o.item, o.seconds["solve"]) for o in solves)),
        "eval_pairs_per_s": rate(ledger.total("counts", "bench.pairs"),
                                 per_pass((o.item, o.eval_s) for o in ops if o.eval_s)),
        "cam_ok_rate": rate(ledger.total("quality", "cam_ok"),
                            ledger.total("quality", "cam_frames")),
        "track_apd": ledger.mean("track_apd"),
        "recon_apd": ledger.mean("recon_apd"),
        "ok_rate": 1.0 - ledger.error_rate(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "adapt_steps_per_s": rate(
            ledger.total("counts", "steps"),
            per_pass((o.item, o.seconds["tta"]) for o in ops if "tta" in o.seconds),
        ),
        "track_epe": ledger.mean("track_epe"),
        "loss_ratio": ledger.mean("loss_ratio"),
        "error_rate": ledger.error_rate(),
        "failed_solve_s": per_pass((o.item, o.seconds["solve"]) for o in failed_solves),
        "errors": dict(sorted(Counter(e for op in ops for e in op.errors).items())),
    }
    return values, info, attempted, failed


# spans whose total time is a per-layer metric named "<span>_s"
TIMED_SPANS = (
    "seqio.load", "seqio.save",
    "geometry.pointmap_build", "geometry.assemble",
    "camera.focal", "camera.corr_build", "camera.ransac", "camera.solve_video",
    "camera.gn", "camera.pose_grad",
    "losses.tta", "losses.traj", "losses.align", "losses.pose_grad_map",
    "bench.eval_tracking", "bench.eval_recon",
)
SPAN_CALLS = {
    "geometry.pointmap_builds": "geometry.pointmap_build",
    "camera.ransac_calls": "camera.ransac",
    "camera.gn_calls": "camera.gn",
    "camera.pose_grad_calls": "camera.pose_grad",
    "losses.traj_calls": "losses.traj",
    "losses.align_calls": "losses.align",
}


def traced_counts(tracer, op) -> dict:
    counts = {name: tracer.calls[span] for name, span in SPAN_CALLS.items()}
    counts["losses.steps"] = tracer.calls["losses.combine"] - tracer.calls["losses.tta"]
    counts.update(tracer.stats)
    counts.update({k: v for k, v in op.counts.items() if k.startswith(("seqio.", "bench."))})
    counts["calls"] = dict(sorted(tracer.calls.items()))
    return counts


def traced_times(tracer) -> dict:
    times = {f"{span}_s": tracer.totals_ns[span] / 1e9 for span in TIMED_SPANS}
    # the adaptation loop without its camera and geometry children
    times["losses.tta_self_s"] = (
        tracer.totals_ns["losses.tta"] - tracer.foreign_ns["losses.tta"]
    ) / 1e9
    return times


def per_layer(ledger, traced, setup_parts, step_ms, overhead, cpu_per_wall, blas):
    """Layer metrics per pass over the items, from the traced operations.

    Times are medians over each item's traced operations; counts repeat
    exactly. Set-up work (oracle calls, and saving the inputs of recon-M)
    is the median over the set-ups of the run.
    """

    def setup(key):
        return statistics.median(p.get(key, 0) for p in setup_parts)

    counts = Counter()
    for item_counts in ledger.traced_counts.values():
        counts.update({k: v for k, v in item_counts.items() if k != "calls"})
    values = {
        f"{span}_s": per_pass((item, t[f"{span}_s"]) for item, t in traced) for span in TIMED_SPANS
    }
    tta_self_s = per_pass((item, t["losses.tta_self_s"]) for item, t in traced)
    for key in ("oracle.generate_s", "oracle.corrupt_s", "oracle.supervision_s"):
        values[key] = float(setup(key))
    values["seqio.save_s"] += setup("seqio.save_s")
    for name in list(SPAN_CALLS) + ["losses.steps", "camera.ransac_points",
                                     "seqio.bytes_read", "bench.pairs"]:
        values[name] = counts[name]
    values["seqio.bytes_written"] = counts["seqio.bytes_written"] + setup("seqio.bytes_written")
    values["camera.inlier_ratio"] = rate(counts["camera.ransac_inliers"],
                                         counts["camera.ransac_points"])
    values["losses.self_ms_per_step"] = rate(tta_self_s * 1e3, counts["losses.steps"])
    p50 = p90 = 0.0
    if len(step_ms) >= MIN_STEP_SAMPLES:
        deciles = statistics.quantiles(step_ms, n=10)
        p50, p90 = deciles[4], deciles[8]
    elif step_ms:
        p50 = statistics.median(step_ms)
    values.update({
        "losses.step_ms_p50": p50,
        "losses.step_ms_p90": p90,
        "losses.step_samples": len(step_ms),
        "process.cpu_per_wall": cpu_per_wall,
        "process.blas_threads": blas,
        "trace.overhead": overhead,
    })
    return values


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed; {HELD_OUT_SEED} is held out for confirming claims")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    wt = import_package()
    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    try:
        return run(args, wt, workload, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def traced_call(tracer, make):
    """Run one operation under the tracer; returns it with its counts and times."""
    tracer.reset()
    with tracer:
        op = make()
    return op, traced_counts(tracer, op), traced_times(tracer)


def run(args, wt, workload, spec, workdir) -> int:
    import_s = import_seconds()
    setup_times, setup_parts, fingerprints = [], [], []
    for _ in range(workload.setup_repeats):
        items = None  # drop the previous inputs before building new ones
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        items, parts = workload.setup(wt, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        prepared = workload.prepare(wt, items)
        fingerprints.append(prepared.pop("fingerprint"))
        setup_parts.append({**parts, **prepared})
    setup_s = import_s + statistics.median(setup_times)

    ledger = Ledger()
    if any(f != fingerprints[0] for f in fingerprints):
        ledger.problems.append("repeated set-ups built different inputs")
    n = len(items)
    tracer = spans.Tracer(wt) if args.trace else None

    # warm-up: each distinct operation on the first item once, which calls
    # every function the timed cycles call; its outputs join the repeat check
    for make in dict.fromkeys(workload.operations(wt, items, 0)):
        if tracer:
            op, counts, _ = traced_call(tracer, make)
            ledger.record(op, counts)
        else:
            ledger.record(make())

    ops, traced, ratios, step_ms = [], [], [], []
    t_start, cpu_start = time.perf_counter(), time.process_time()
    i = 0
    while True:
        # a traced run keeps plain twins for the first passes only; after
        # them it runs traced operations until it has enough step samples
        plain = not tracer or i < MIN_PASSES * n
        plain_s = traced_s = 0.0
        for make in workload.operations(wt, items, i % n):
            if plain:
                op = make()
                ledger.record(op)
                ops.append(op)
                plain_s += op.flow_s
            if tracer:
                top, counts, times = traced_call(tracer, make)
                ledger.record(top, counts)
                traced.append((top.item, times))
                step_ms.extend(tracer.step_ms)
                traced_s += top.flow_s
        if tracer and plain:
            ratios.append(rate(traced_s, plain_s))
        i += 1
        elapsed = time.perf_counter() - t_start
        enough_steps = not tracer or not workload.steps_per_op or len(step_ms) >= MIN_STEP_SAMPLES
        done = i >= MIN_PASSES * n and enough_steps and elapsed >= args.seconds
        if done or elapsed >= MAX_LOOP_SECONDS:
            break
    cpu_per_wall = (time.process_time() - cpu_start) / (time.perf_counter() - t_start)

    meta = machine.describe(np, ROOT)
    cache = meta["cache_bytes"]
    meta.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sizes={"width": workload.width, "height": workload.height, "frames": workload.frames,
               "inputs": n, "steps_per_op": workload.steps_per_op},
        working_set_computed={
            k: {"bytes": v, "x_L2": rate(v, cache.get("L2", 0)), "x_L3": rate(v, cache.get("L3", 0))}
            for k, v in workload.working_set().items()
        },
        operations=len(ops) + len(traced),
    )
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"info trace_skipped {json.dumps(spans.missing_targets(wt))}")

    values, info, attempted, failed = end_to_end(ledger, ops, setup_s)
    if tracer:
        values = per_layer(ledger, traced, setup_parts, step_ms, statistics.median(ratios) - 1.0,
                           cpu_per_wall, meta["blas_threads"])
        wanted = spec["per_layer"]
        print(f"digest counts {digest(ledger.traced_counts)}")
    else:
        wanted = spec["end_to_end"]
        for key in ("adapt_steps_per_s", "track_epe", "loss_ratio", "error_rate", "failed_solve_s"):
            print(f"info {key} {info[key]!r}")
        print(f"info errors {json.dumps(info['errors'])}")
    cycle_counts = Counter()
    for seen in ledger.first.values():
        cycle_counts.update(seen["counts"])
    print(f"info counts_per_cycle {json.dumps(dict(sorted(cycle_counts.items())))}")
    print(f"digest outputs {digest(ledger.first)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for problem in ledger.problems:
        print(f"check failed: {problem}")
    correct = not ledger.problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
