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
from workloads import AdaptLiveS, ReconM  # noqa: E402


class SmallReconM(ReconM):
    width, height, frames, focal = 32, 24, 4, 40.0
    setup_repeats = 1


class SmallAdaptLiveS(AdaptLiveS):
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
