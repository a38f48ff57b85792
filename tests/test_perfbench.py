"""The benchmark's workloads, shrunk, must run on the package without error.

``perfbench/workloads.py`` drives the public API from outside the package.
Running its two workloads at a small size here makes an API change that
would break a benchmark run fail the test suite instead.
"""

import sys
from pathlib import Path

import pytest

import worldtrack

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
from workloads import AdaptLiveS, ReconM  # noqa: E402


class SmallReconM(ReconM):
    # 1,536 pairs a frame: more than the preemptive subset, as at full size
    width, height, frames, focal = 48, 32, 4, 60.0
    setup_repeats = 1


class SmallAdaptLiveS(AdaptLiveS):
    # checked for errors only: at 32x24x6 the first adaptation step
    # overshoots and the loss-rise check fires (see the FOUND line on the
    # first-step overshoot in CHANGES.md)
    width, height, frames, focal = 32, 24, 6, 40.0
    setup_repeats = 1
    solve_repeats = eval_repeats = 1
    steps_per_op = 2


@pytest.mark.parametrize("workload", [SmallReconM(), SmallAdaptLiveS()], ids=lambda w: w.name)
def test_every_benchmark_operation_runs_without_error(tmp_path, workload):
    items, _ = workload.setup(worldtrack, 1, tmp_path)
    workload.prepare(worldtrack, items)
    ops = [make() for i in range(len(items)) for make in workload.operations(worldtrack, items, i)]
    assert ops and all(op.attempted for op in ops)
    assert [(op.item, op.errors) for op in ops if op.errors] == []
    if isinstance(workload, ReconM):
        # clean poses and focal against the oracle
        assert [(op.item, op.problems) for op in ops if op.problems] == []


# spans whose calls the recon-M per-layer metrics are made of
RECON_SPANS = (
    "seqio.load", "camera.solve_video", "camera.focal", "camera.corr_build", "camera.ransac",
    "camera.gn", "geometry.assemble", "bench.eval_tracking", "bench.eval_recon",
)


def test_traced_recon_operation_records_every_layer(tmp_path):
    # a refactor that routes around a traced public name would zero its
    # per-layer metric without an error; this makes it fail here instead
    workload = SmallReconM()
    items, _ = workload.setup(worldtrack, 1, tmp_path)
    workload.prepare(worldtrack, items)
    (make,) = workload.operations(worldtrack, items, 0)
    with spans.Tracer(worldtrack) as tracer:
        op = make()
    assert op.errors == []
    assert {name: tracer.calls[name] for name in RECON_SPANS if not tracer.calls[name]} == {}


# spans whose calls the adapt-live-S per-layer metrics are made of
ADAPT_SPANS = (
    "losses.tta", "camera.solve_video", "camera.ransac", "camera.gn", "geometry.assemble",
    "bench.eval_tracking", "bench.eval_recon", "seqio.save",
)


def test_traced_adapt_operation_records_every_layer(tmp_path):
    # the adapt-live-S counterpart of the recon guard above
    workload = SmallAdaptLiveS()
    items, _ = workload.setup(worldtrack, 1, tmp_path)
    workload.prepare(worldtrack, items)
    *_, make = workload.operations(worldtrack, items, 0)
    with spans.Tracer(worldtrack) as tracer:
        op = make()
    assert op.item == "adapt" and op.errors == []
    assert {name: tracer.calls[name] for name in ADAPT_SPANS if not tracer.calls[name]} == {}
    # one traced camera step per frame but the first: the solve's, then
    # the live step of each of the steps + 1 evaluations
    assert tracer.calls["camera.gn"] == (workload.frames - 1) * (workload.steps_per_op + 2)
    assert tracer.step_ms


def test_the_dead_trace_targets_are_pinned():
    # a traced name that goes missing zeroes its per-layer metric and only
    # lengthens the run's ``info trace_skipped`` line; pinning the list
    # makes a rename fail here instead (retiring a target updates the pin)
    assert spans.missing_targets(worldtrack) == [
        "losses.correspondences_from_pointmap",
        "camera.pose_gradient_wrt_points",
        "losses.pose_gradient_wrt_points",
        "losses.align_loss",
        "losses.pose_gradient_on_pointmap",
        "geometry.Pointmap.with_points",
    ]
