"""The pointmap-video contract: one check for every caller, and videos
whose arrays are checked once, as stacks, not frame by frame."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import objective

from worldtrack.bench import eval_recon
from worldtrack.camera import solve_cameras_for_video
from worldtrack.data import SceneSpec
from worldtrack.errors import BranchContractViolation, EmptyVideo, ShapeMismatch
from worldtrack.geometry import (
    PixelGrid,
    Pointmap,
    assemble_trajectories,
    stack_pointmaps,
    video_pointmaps,
)
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


def _retagged(pm, coord, content, time):
    return Pointmap(pm.points, pm.valid, coord, content, time)


def _wrong_branch(pms, branch):
    pms = list(pms)
    pms[2] = _retagged(pms[2], 0, 2 if branch == "tracking" else 0, 2)
    return pms


def _out_of_order(pms, branch):
    pms = list(pms)
    pms[1], pms[2] = pms[2], pms[1]
    return pms


def _second_grid(pms, branch):
    pms = list(pms)
    pm = pms[2]
    pms[2] = Pointmap(pm.points[:-1], pm.valid[:-1], pm.coord_frame, pm.content_frame, 2)
    return pms


def _second_coordinate_frame(pms, branch):
    pms = list(pms)
    pms[2] = _retagged(pms[2], 1, 1 if branch == "tracking" else 2, 2)
    return pms


# (breach, error type, frame the error carries; None where it has none)
BREACHES = {
    "empty": (lambda pms, branch: [], EmptyVideo, None),
    "wrong-branch": (_wrong_branch, BranchContractViolation, 2),
    "time-order": (_out_of_order, ValueError, None),
    "second-grid": (_second_grid, ShapeMismatch, 2),
    "second-coordinate-frame": (_second_coordinate_frame, BranchContractViolation, 2),
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
        "tracking", lambda seq, pms, tmp: assemble_trajectories(pms, np.array([[0.5, 0.5]]))
    ),
    "solve_cameras_for_video": (
        "recon", lambda seq, pms, tmp: solve_cameras_for_video(pms, PixelGrid.create(32, 24))
    ),
    "total_loss-tracking": (
        "tracking", lambda seq, pms, tmp: _loss(seq, pms, seq.recon_pointmaps)
    ),
    "total_loss-recon": (
        "recon", lambda seq, pms, tmp: _loss(seq, seq.tracking_pointmaps, pms)
    ),
    "tta_optimize-tracking": (
        "tracking", lambda seq, pms, tmp: _adapt(seq, pms, seq.recon_pointmaps)
    ),
    "tta_optimize-recon": (
        "recon", lambda seq, pms, tmp: _adapt(seq, seq.tracking_pointmaps, pms)
    ),
    "eval_recon": (
        "recon", lambda seq, pms, tmp: eval_recon(pms, seq.recon_pointmaps, depth_maps=seq.depth)
    ),
    "save_sequence-tracking": (
        "tracking", lambda seq, pms, tmp: _save(tmp, seq, tracking_pointmaps=pms)
    ),
    "save_sequence-recon": (
        "recon", lambda seq, pms, tmp: _save(tmp, seq, recon_pointmaps=pms)
    ),
}


@pytest.mark.parametrize("breach", BREACHES)
@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_raises_the_same_error_for_a_breach(tmp_path, seq, caller, breach):
    branch, call = CALLERS[caller]
    make, kind, frame = BREACHES[breach]
    pms = make(getattr(seq, f"{branch}_pointmaps"), branch)
    with pytest.raises(kind) as info:
        call(seq, pms, tmp_path)
    assert type(info.value) is kind
    if frame is not None:
        assert info.value.frame == frame
        assert str(info.value).startswith(f"frame {frame}: ")
    if breach == "time-order":
        assert str(info.value) == "pointmaps must be in time order, got time 2 at 1"
    assert list(tmp_path.iterdir()) == []


def test_the_contract_holds_on_the_sequence(tmp_path, seq):
    for caller, (branch, call) in CALLERS.items():
        call(seq, getattr(seq, f"{branch}_pointmaps"), tmp_path / caller)


# ---------------------------------------------------------------------------
# stacks in, frames out, stacks back


def test_video_frames_are_views_of_the_stacks_they_took_over():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(3, 4, 5, 3))
    valid = rng.uniform(size=(3, 4, 5)) > 0.3
    expect = np.where(valid[..., None], points, 0.0)
    frames = video_pointmaps(points, valid, "recon")
    assert [(pm.coord_frame, pm.content_frame, pm.time) for pm in frames] == [
        (0, 0, 0), (0, 1, 1), (0, 2, 2)
    ]
    assert np.array_equal(points, expect)  # zeroed in place, not copied
    stacked, stacked_valid = stack_pointmaps(frames, "recon")
    assert stacked is points and stacked_valid is valid
    assert not points.flags.writeable and not valid.flags.writeable
    # frames built one by one, or a part of a video, are stacked into copies
    copies = [Pointmap(pm.points, pm.valid, 0, 0, pm.time) for pm in frames]
    again, again_valid = stack_pointmaps(copies, "tracking")
    assert again is not points and np.array_equal(again, points)
    assert np.array_equal(again_valid, valid)
    assert stack_pointmaps(frames[:2], "recon")[0] is not points
    tracking = video_pointmaps(np.zeros((2, 4, 5, 3)), np.ones((2, 4, 5), bool), "tracking")
    assert [(pm.coord_frame, pm.content_frame, pm.time) for pm in tracking] == [
        (0, 0, 0), (0, 0, 1)
    ]


def test_video_pointmaps_names_the_first_non_finite_frame():
    points = np.ones((4, 2, 3, 3))
    valid = np.ones((4, 2, 3), dtype=bool)
    points[3, 0, 0, 2] = np.inf
    points[2, 1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="^frame 2: valid pointmap entries must be finite$"):
        video_pointmaps(points, valid, "tracking")
    # a non-finite invalid point is zeroed, as Pointmap zeroes it
    valid[2:] = False
    frames = video_pointmaps(points, valid, "tracking")
    assert np.all(frames[2].points == 0.0) and np.all(frames[3].points == 0.0)
    with pytest.raises(ShapeMismatch, match=r"points must be \(T, H, W, 3\)"):
        video_pointmaps(np.ones((2, 3, 3)), np.ones((2, 3), bool), "tracking")


# ---------------------------------------------------------------------------
# checked once: no flow builds or checks a pointmap per frame


@pytest.fixture
def frame_checks(monkeypatch):
    calls = []
    original = Pointmap.__post_init__

    def counted(self):
        calls.append(self.time)
        original(self)

    monkeypatch.setattr(Pointmap, "__post_init__", counted)
    return calls


def _read_only(*videos):
    return all(
        not (pm.points.flags.writeable or pm.valid.flags.writeable)
        for video in videos for pm in video
    )


def test_videos_are_checked_once_per_stack(tmp_path, frame_checks):
    seq = generate_sequence(SPEC)
    save_sequence(tmp_path / "s", seq)
    back = load_sequence(tmp_path / "s")
    bad = corrupt(seq, noise=0.05, drift=0.01, targets=("tracking", "recon"), seed=2)
    state = AdaptState(bad.tracking_pointmaps, bad.recon_pointmaps, freeze_recon=False, steps=2)
    out, trace = tta_optimize(
        state, projected_track_supervision(bad), make_depth_supervision(bad)
    )
    assert len(trace) == 3
    assert frame_checks == []
    assert _read_only(
        seq.tracking_pointmaps, seq.recon_pointmaps, back.tracking_pointmaps,
        back.recon_pointmaps, bad.tracking_pointmaps, bad.recon_pointmaps,
        out.tracking_params, out.recon_pointmaps,
    )


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
        for j, pm in enumerate(getattr(seq, f"{branch}_pointmaps")):
            delta = np.zeros_like(pm.points)
            if noise > 0:
                delta += rng.normal(0.0, noise, pm.points.shape)
            if drift > 0:
                delta += drift * j * direction
            pts = np.array(pm.points)
            pts[pm.valid] += delta[pm.valid]
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
        assert [pm.points.tobytes() for pm in got] == [p.tobytes() for p in expect[branch]]
