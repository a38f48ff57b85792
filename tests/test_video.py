"""The pointmap-video contract: one type, checked once when built, and one
refusal for every caller given anything but a video of its branch."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import objective

from worldtrack.bench import eval_recon
from worldtrack.camera import solve_cameras_for_video
from worldtrack.data import SceneSpec
from worldtrack.errors import BranchContractViolation, EmptyVideo, ShapeMismatch
from worldtrack.geometry import PixelGrid, PointmapVideo, assemble_trajectories, video_arrays
from worldtrack.losses import AdaptState, tta_optimize
from worldtrack.oracle import (
    corrupt,
    generate_sequence,
    make_depth_supervision,
    projected_track_supervision,
)
from worldtrack.seqio import load_sequence, save_sequence

SPEC = SceneSpec("orbit-dynamic", width=32, height=24, num_frames=6, focal=40.0, seed=5)


@pytest.fixture(scope="module")
def seq():
    return generate_sequence(SPEC)


# ---------------------------------------------------------------------------
# one contract, the same error from every caller


def _other_branch(video, branch):
    other = "recon" if branch == "tracking" else "tracking"
    return PointmapVideo(other, video.points, video.valid)


def _frame_list(video, branch):
    # the per-frame form a video once took
    return list(zip(video.points, video.valid))


# (breach, what the refusal says it got instead of the branch's video)
BREACHES = {
    "empty": (lambda video, branch: [], "list"),
    "wrong-branch": (_other_branch, "a {other} video"),
    "frame-list": (_frame_list, "list"),
}


def _save(tmp_path, seq, **videos):
    save_sequence(tmp_path / "s", replace(seq, **videos))


def _loss(seq, tracking, recon):
    sup, mono = projected_track_supervision(seq), make_depth_supervision(seq)
    return objective(tracking, recon, seq.cameras, seq.intrinsics, sup, mono)


def _adapt(seq, tracking, recon):
    state = AdaptState(tracking, recon, freeze_recon=False, steps=1)
    return tta_optimize(state, projected_track_supervision(seq), make_depth_supervision(seq))


# (caller, branch, call with the branch's video in place of the sequence's)
CALLERS = {
    "assemble_trajectories": (
        "tracking", lambda seq, video, tmp: assemble_trajectories(video, np.array([[0.5, 0.5]]))
    ),
    "solve_cameras_for_video": (
        "recon", lambda seq, video, tmp: solve_cameras_for_video(video, PixelGrid.create(32, 24))
    ),
    "total_loss-tracking": (
        "tracking", lambda seq, video, tmp: _loss(seq, video, seq.recon_pointmaps)
    ),
    "total_loss-recon": (
        "recon", lambda seq, video, tmp: _loss(seq, seq.tracking_pointmaps, video)
    ),
    "tta_optimize-tracking": (
        "tracking", lambda seq, video, tmp: _adapt(seq, video, seq.recon_pointmaps)
    ),
    "tta_optimize-recon": (
        "recon", lambda seq, video, tmp: _adapt(seq, seq.tracking_pointmaps, video)
    ),
    "eval_recon": (
        "recon",
        lambda seq, video, tmp: eval_recon(video, seq.recon_pointmaps, depth_maps=seq.depth),
    ),
    "save_sequence-tracking": (
        "tracking", lambda seq, video, tmp: _save(tmp, seq, tracking_pointmaps=video)
    ),
    "save_sequence-recon": (
        "recon", lambda seq, video, tmp: _save(tmp, seq, recon_pointmaps=video)
    ),
}


@pytest.mark.parametrize("breach", BREACHES)
@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_raises_the_same_error_for_a_breach(tmp_path, seq, caller, breach):
    branch, call = CALLERS[caller]
    make, got = BREACHES[breach]
    other = "recon" if branch == "tracking" else "tracking"
    with pytest.raises(BranchContractViolation) as info:
        call(seq, make(getattr(seq, f"{branch}_pointmaps"), branch), tmp_path)
    assert type(info.value) is BranchContractViolation and info.value.frame is None
    assert str(info.value) == f"expected a {branch} video, got {got.format(other=other)}"
    assert list(tmp_path.iterdir()) == []


def test_the_contract_holds_on_the_sequence(tmp_path, seq):
    for caller, (branch, call) in CALLERS.items():
        call(seq, getattr(seq, f"{branch}_pointmaps"), tmp_path / caller)


# ---------------------------------------------------------------------------
# checked once, when built


def test_video_frames_are_views_of_the_stacks_they_took_over():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(3, 4, 5, 3))
    valid = rng.uniform(size=(3, 4, 5)) > 0.3
    expect = np.where(valid[..., None], points, 0.0)
    video = PointmapVideo("recon", points, valid)
    assert video.points is points and video.valid is valid
    assert np.array_equal(points, expect)  # zeroed in place, not copied
    assert not points.flags.writeable and not valid.flags.writeable
    assert (video.num_frames, video.height, video.width) == (3, 4, 5)
    # a frame, addressed as (video, j), is a view of the stacks
    for j in range(3):
        frame_points, frame_valid = video_arrays(video, "recon", j)
        assert frame_points.base is points and frame_valid.base is valid
        assert np.array_equal(frame_points, expect[j])
    # read-only arrays, views and other dtypes are copied and left as they were
    again = PointmapVideo("tracking", video.points, video.valid)
    assert again.points is not points and np.array_equal(again.points, points)
    assert again.valid is not valid and np.array_equal(again.valid, valid)
    view = np.ones((4, 5, 3, 3)).transpose(3, 0, 1, 2)
    assert PointmapVideo("tracking", view, valid).points.flags.c_contiguous
    assert view.flags.writeable
    single = np.ones((3, 4, 5, 3), dtype=np.float32)
    assert PointmapVideo("tracking", single, valid).points.dtype == np.float64
    assert single.flags.writeable


def test_video_pointmaps_names_the_first_non_finite_frame():
    points = np.ones((4, 2, 3, 3))
    valid = np.ones((4, 2, 3), dtype=bool)
    points[3, 0, 0, 2] = np.inf
    points[2, 1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="^frame 2: valid pointmap entries must be finite$"):
        PointmapVideo("tracking", points.copy(), valid)
    # a non-finite invalid point is zeroed
    valid[2:] = False
    video = PointmapVideo("tracking", points, valid)
    assert np.all(video.points[2:] == 0.0)


@pytest.mark.parametrize(
    "branch, points, valid, kind",
    [
        ("recon", np.ones((0, 3, 4, 3)), np.ones((0, 3, 4), bool), EmptyVideo),
        ("recon", np.ones((2, 3, 3)), np.ones((2, 3), bool), ShapeMismatch),
        ("recon", np.ones((2, 3, 4, 2)), np.ones((2, 3, 4), bool), ShapeMismatch),
        ("tracking", np.ones((2, 3, 4, 3)), np.ones((2, 3, 5), bool), ShapeMismatch),
        ("depth", np.ones((2, 3, 4, 3)), np.ones((2, 3, 4), bool), ValueError),
    ],
)
def test_video_refuses_no_frames_bad_shapes_and_unknown_branches(branch, points, valid, kind):
    with pytest.raises(kind) as info:
        PointmapVideo(branch, points, valid)
    assert type(info.value) is kind


@pytest.fixture
def video_checks(monkeypatch):
    calls = []
    original = PointmapVideo.__post_init__

    def counted(self):
        calls.append(self.branch)
        original(self)

    monkeypatch.setattr(PointmapVideo, "__post_init__", counted)
    return calls


def _read_only(*videos):
    return all(not (v.points.flags.writeable or v.valid.flags.writeable) for v in videos)


def test_videos_are_checked_once_per_stack(tmp_path, video_checks):
    # each flow checks the videos it builds, once each, and no others
    flows = {}

    def run(name, fn, *args, **kwargs):
        del video_checks[:]
        out = fn(*args, **kwargs)
        flows[name] = list(video_checks)
        return out

    seq = run("generate", generate_sequence, SPEC)
    run("save", save_sequence, tmp_path / "s", seq)
    back = run("load", load_sequence, tmp_path / "s")
    bad = run("corrupt", corrupt, seq, noise=0.05, drift=0.01, targets=("tracking", "recon"),
              seed=2)
    sup, mono = projected_track_supervision(bad), make_depth_supervision(bad)
    state = AdaptState(bad.tracking_pointmaps, bad.recon_pointmaps, freeze_recon=False, steps=2)
    out, trace = run("adapt-live", tta_optimize, state, sup, mono)
    frozen, _ = run("adapt-frozen", tta_optimize, replace(state, freeze_recon=True), sup, mono)
    run("eval", eval_recon, out.recon_pointmaps, seq.recon_pointmaps, depth_maps=seq.depth)
    assert len(trace) == 3
    assert flows == {
        "generate": ["tracking", "recon"], "save": [], "load": ["tracking", "recon"],
        "corrupt": ["tracking", "recon"], "adapt-live": ["tracking", "recon"],
        "adapt-frozen": ["tracking"], "eval": [],
    }
    assert frozen.recon_pointmaps is bad.recon_pointmaps
    assert _read_only(
        seq.tracking_pointmaps, seq.recon_pointmaps, back.tracking_pointmaps,
        back.recon_pointmaps, bad.tracking_pointmaps, bad.recon_pointmaps,
        out.tracking_params, out.recon_pointmaps,
    )


def test_adaptation_leaves_its_input_videos_as_they_were(seq):
    # tta_optimize works on copies of its own: the same input adapts alike twice
    bad = corrupt(seq, noise=0.05, drift=0.01, targets=("tracking", "recon"), seed=2)
    before = [v.points.tobytes() for v in (bad.tracking_pointmaps, bad.recon_pointmaps)]
    state = AdaptState(bad.tracking_pointmaps, bad.recon_pointmaps, freeze_recon=False, steps=2)
    sup, mono = projected_track_supervision(bad), make_depth_supervision(bad)
    first, second = (tta_optimize(state, sup, mono)[0] for _ in range(2))
    assert [v.points.tobytes() for v in (bad.tracking_pointmaps, bad.recon_pointmaps)] == before
    for name in ("tracking_params", "recon_pointmaps"):
        a, b = getattr(first, name), getattr(second, name)
        assert a is not b and a.points.tobytes() == b.points.tobytes()
        assert a.points is not getattr(state, name).points


def _per_frame_corrupt(seq, noise, drift, targets, seed):
    """Noise and drift drawn frame by frame, branch after branch."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    out = {}
    for branch in ("tracking", "recon"):
        if branch not in targets:
            continue
        out[branch] = []
        video = getattr(seq, f"{branch}_pointmaps")
        for j, (points, valid) in enumerate(zip(video.points, video.valid)):
            delta = np.zeros_like(points)
            if noise > 0:
                delta += rng.normal(0.0, noise, points.shape)
            if drift > 0:
                delta += drift * j * direction
            pts = np.array(points)
            pts[valid] += delta[valid]
            out[branch].append(pts)
    return out


@pytest.mark.parametrize("targets", [("tracking",), ("recon",), ("tracking", "recon")])
@pytest.mark.parametrize("noise, drift", [(0.05, 0.0), (0.0, 0.01), (0.05, 0.01)])
def test_corrupt_matches_the_per_frame_draws_bit_for_bit(seq, noise, drift, targets):
    out = corrupt(seq, noise=noise, drift=drift, targets=targets, seed=4)
    expect = _per_frame_corrupt(seq, noise, drift, targets, seed=4)
    for branch in ("tracking", "recon"):
        got = getattr(out, f"{branch}_pointmaps")
        if branch not in targets:
            assert got is getattr(seq, f"{branch}_pointmaps")
            continue
        assert [p.tobytes() for p in got.points] == [p.tobytes() for p in expect[branch]]
