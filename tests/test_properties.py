"""Hypothesis properties: seqio round trips, fuzzed manifests and mask
bytes, the similarity invariance of the sim3-aligned tracking metrics,
the power-of-two scale invariance of the median-aligned recon metrics,
focal recovery from an exact self-view, the equivariance of pose
recovery under a change of world frame, and RANSAC's early stop, which
returns exactly what the full floor of draws would.

Every property runs derandomized and without an example database, and
``conftest.py`` points Hypothesis' caches at a temporary directory, so a
run is reproducible and leaves no ``.hypothesis/`` directory behind.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worldtrack.bench import eval_recon, eval_tracking
from worldtrack.camera import (
    INLIER_THRESHOLD,
    MIN_SAMPLE,
    PREEMPTIVE_SUBSET,
    RANSAC_MAX_ITERATIONS,
    RansacConfig,
    _iterations_needed,
    _local_optimisation,
    _minimal_poses,
    _reproj_errors_many,
    estimate_focal_weiszfeld,
    solve_pnp_ransac,
)
from worldtrack.data import PRESETS, SceneSpec
from worldtrack.errors import NoConsensus, WorldTrackError
from worldtrack.geometry import (
    Intrinsics,
    PixelGrid,
    PointmapVideo,
    PoseSE3,
    TrackSet,
    backproject,
    so3_exp,
)
from worldtrack.gradcheck import make_pnp_instance
from worldtrack.oracle import corrupt, generate_sequence
from worldtrack.seqio import MANIFEST_NAME, load_sequence, save_sequence


def _examples(n):
    return settings(derandomize=True, database=None, deadline=None, max_examples=n)


def _as_float32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


@_examples(25)
@given(
    preset=st.sampled_from(PRESETS),
    width=st.integers(8, 20),
    height=st.integers(8, 16),
    frames=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    noise=st.sampled_from([0.0, 0.02]),
    drift=st.sampled_from([0.0, 0.01]),
)
def test_seqio_round_trip_stores_float32_and_saves_identical_bytes(
    preset, width, height, frames, seed, noise, drift
):
    # focal 1.25 px per pixel of width: the default 80 at 64 px, so every
    # preset's camera path keeps content in view at these small sizes
    spec = SceneSpec(preset, width=width, height=height, num_frames=frames,
                     focal=1.25 * width, seed=seed)
    seq = corrupt(generate_sequence(spec), noise=noise, drift=drift,
                  targets=("tracking", "recon"), seed=seed + 1)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        save_sequence(first, seq)
        back = load_sequence(first)
        for name in ("tracking_pointmaps", "recon_pointmaps"):
            a, b = getattr(seq, name), getattr(back, name)
            np.testing.assert_array_equal(b.valid, a.valid)
            np.testing.assert_array_equal(b.points, _as_float32(a.points))
        np.testing.assert_array_equal(back.depth, _as_float32(seq.depth))
        for name in ("tracks2d", "tracks3d"):
            a, b = getattr(seq, name), getattr(back, name)
            np.testing.assert_array_equal(b.positions, _as_float32(a.positions))
            np.testing.assert_array_equal(b.visibility, a.visibility)
        np.testing.assert_array_equal(back.dynamic_mask, seq.dynamic_mask)
        for a, b in zip(seq.cameras, back.cameras, strict=True):
            np.testing.assert_array_equal(b.rotation, a.rotation)
            np.testing.assert_array_equal(b.translation, a.translation)
        assert back.intrinsics == seq.intrinsics and back.spec == seq.spec
        save_sequence(second, back)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved sequence and its manifest; a load never writes, so each
    example rewrites only the manifest."""
    path = tmp_path_factory.mktemp("fuzz") / "s"
    spec = SceneSpec("orbit-dynamic", width=10, height=8, num_frames=2, focal=12.5, seed=4)
    save_sequence(path, generate_sequence(spec))
    return path, (path / MANIFEST_NAME).read_text()


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 1, 2, 10**30, 10**400, -(10**400)])
    | st.floats()
    # short strings over a few characters (one non-ASCII, one control; a
    # full alphabet costs Hypothesis a second to index), and strings of the
    # kind a manifest holds
    | st.text("ab0./é\x00", max_size=8)
    | st.sampled_from(["<f4", "|u1", "float32", "tracking_pointmaps.raw", "../depth.raw",
                       "static-camera", "5"])
)
# any JSON value, NaN and the infinities included, mostly scalars
_JSON = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(
    st.text("ab0./é", max_size=6), _SCALARS, max_size=3
)


@_examples(300)
@given(data=st.data())
def test_one_field_manifest_mutation_loads_cleanly_or_is_refused(saved, data):
    """One manifest field set to any JSON value: the load either succeeds,
    with an object ``meta`` and a finite positive focal, or raises one of
    the errors the CLI reports as a single ``error:`` line."""
    seq_dir, text = saved
    manifest = json.loads(text)
    # a walk down from the top: each level's keys are equally likely
    parent, path = manifest, ()
    while True:
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        path += (data.draw(st.sampled_from(keys)),)
        child = parent[path[-1]]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            break
        parent = child
    parent[path[-1]] = data.draw(_JSON, label=f"value at {path}")
    (seq_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
    try:
        seq = load_sequence(seq_dir)
    except (ValueError, WorldTrackError):
        return
    except OSError:
        # an entry naming a file that is not there
        assert path[-1] == "file"
        return
    assert isinstance(seq.meta, dict)
    assert math.isfinite(seq.spec.focal) and seq.spec.focal > 0


# each mask file and the shape it holds in a loaded 8x8x2 sequence
_MASKS = {"visibility": (64, 2), "dynamic_mask": (8, 8)}


@pytest.fixture(scope="module")
def saved_masks(tmp_path_factory):
    """A saved 8x8x2 sequence and the bytes of its two mask files."""
    path = tmp_path_factory.mktemp("masks") / "s"
    spec = SceneSpec("orbit-dynamic", width=8, height=8, num_frames=2, focal=10.0, seed=5)
    save_sequence(path, generate_sequence(spec))
    return path, {name: (path / f"{name}.raw").read_bytes() for name in _MASKS}


@_examples(50)
@given(data=st.data())
def test_fuzzed_mask_bytes_load_exactly_or_are_refused(saved_masks, data):
    """A mask file overwritten with any bytes of its length: bytes that are
    all 0 or 1 load as that mask and save back to identical files; any
    other byte is refused with the file's name."""
    seq_dir, originals = saved_masks
    name = data.draw(st.sampled_from(sorted(_MASKS)), label="file")
    n = len(originals[name])
    raw = data.draw(
        st.binary(min_size=n, max_size=n)
        | st.lists(st.integers(0, 1), min_size=n, max_size=n).map(bytes),
        label="bytes",
    )
    path = seq_dir / f"{name}.raw"
    path.write_bytes(raw)
    try:
        if max(raw, default=0) > 1:
            message = f"{path}: bytes must be 0 or 1"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_sequence(seq_dir)
            return
        back = load_sequence(seq_dir)
        mask = back.tracks2d.visibility if name == "visibility" else back.dynamic_mask
        expect = np.frombuffer(raw, dtype=np.uint8).reshape(_MASKS[name]).astype(bool)
        np.testing.assert_array_equal(mask, expect)
        with tempfile.TemporaryDirectory() as tmp:
            save_sequence(tmp, back)
            for written in seq_dir.iterdir():
                assert Path(tmp, written.name).read_bytes() == written.read_bytes(), written.name
    finally:
        path.write_bytes(originals[name])


@_examples(30)
@given(
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.2, 5.0),
    transform_seed=st.integers(0, 2**31 - 1),
)
def test_sim3_tracking_scores_ignore_a_similarity_of_the_prediction(seed, scale, transform_seed):
    rng = np.random.default_rng(seed)
    gt_pos = rng.normal(0, 1, (30, 5, 3)) + [0, 0, 3.0]
    pred_pos = gt_pos * rng.uniform(0.5, 2.0) + rng.normal(0, 0.2, gt_pos.shape)
    vis = rng.uniform(size=(30, 5)) > 0.25
    vis[:, 0] = True
    dyn = rng.uniform(size=30) > 0.6
    gt = TrackSet(gt_pos, vis, dyn)
    move = np.random.default_rng(transform_seed)
    R, t = so3_exp(move.normal(0, 1.5, 3)), move.normal(0, 3.0, 3)
    base = eval_tracking(TrackSet(pred_pos, vis, dyn), gt, alignment="sim3")
    moved = eval_tracking(TrackSet(scale * pred_pos @ R.T + t, vis, dyn), gt, alignment="sim3")
    assert base.keys() == moved.keys()
    for name, rep in base.items():
        assert moved[name].apd == rep.apd
        assert moved[name].per_threshold == rep.per_threshold
        assert abs(moved[name].epe - rep.epe) <= 1e-9 * rep.epe


@pytest.fixture(scope="module")
def noisy_recon():
    """A clean 32x24x5 orbit and its recon video under 5 cm noise."""
    spec = SceneSpec("orbit-dynamic", width=32, height=24, num_frames=5, focal=40.0, seed=3)
    seq = generate_sequence(spec)
    return seq, corrupt(seq, noise=0.05, targets=("recon",), seed=4).recon_pointmaps


@_examples(17)
@given(k=st.integers(-8, 8))
def test_median_aligned_recon_scores_ignore_a_power_of_two_scale(noisy_recon, k):
    """Scaling a prediction by 2^k is exact in floating point, and so is
    every step of median alignment after it: the scores match bit for bit,
    and the fitted scale is the unscaled one times exactly 2^-k."""
    seq, pred = noisy_recon
    scaled = PointmapVideo("recon", pred.points * 2.0**k, pred.valid)
    base, moved = (
        eval_recon(video, seq.recon_pointmaps, alignment="median", depth_maps=seq.depth)
        for video in (pred, scaled)
    )
    assert (moved.fingerprint, moved.apd, moved.epe, moved.num_pairs) == (
        base.fingerprint, base.apd, base.epe, base.num_pairs
    )
    assert moved.per_threshold == base.per_threshold
    assert moved.scale == base.scale * 2.0**-k


@_examples(60)
@given(
    width=st.integers(8, 64),
    height=st.integers(8, 64),
    focal_per_width=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.1, 10.0),
)
def test_focal_is_recovered_from_an_exact_self_view(width, height, focal_per_width, seed, scale):
    """Frame 0 backprojected at random depths through a pinhole of focal f,
    its principal point at the image center, gives back f to 1e-12
    relative, and so does the same frame with every point scaled."""
    f = focal_per_width * width
    grid = PixelGrid.create(width, height)
    depth = np.random.default_rng(seed).uniform(0.5, 5.0, (height, width))
    points = backproject(Intrinsics(f, width / 2.0, height / 2.0), grid.coords, depth)
    valid = np.ones((1, height, width), dtype=bool)
    for s in (1.0, scale):
        K = estimate_focal_weiszfeld(PointmapVideo("tracking", s * points[None], valid), grid)
        assert abs(K.focal - f) <= 1e-12 * f, (s, K.focal, f)
        assert (K.cx, K.cy) == (width / 2.0, height / 2.0)


@_examples(50)
@given(seed=st.integers(0, 2**31 - 1), transform_seed=st.integers(0, 2**31 - 1))
def test_pose_recovery_is_equivariant_under_a_change_of_world_frame(seed, transform_seed):
    """Solving against the cloud moved by a rigid G gives the pose solved
    against the cloud, after G, and the same inliers: the sample draws are
    the same and every score is a reprojection, which G does not change."""
    rng = np.random.default_rng(seed)
    K, _, pix, X = make_pnp_instance(rng, n=60)
    # about 10 % gross outliers, each pixel moved 10-30 px along both axes
    out = rng.uniform(size=len(pix)) < 0.1
    pix[out] += rng.uniform(10, 30, (out.sum(), 2)) * rng.choice([-1, 1], (out.sum(), 2))
    move = np.random.default_rng(transform_seed)
    G = PoseSE3(so3_exp(move.normal(0, 1.5, 3)), move.normal(0, 2.0, 3))
    cfg = RansacConfig(seed=7)
    base = solve_pnp_ransac(pix, X, K, cfg)
    moved = solve_pnp_ransac(pix, G.apply(X.T).T, K, cfg)
    back = moved.pose.compose(G)
    np.testing.assert_allclose(back.rotation, base.pose.rotation, rtol=0, atol=1e-9)
    np.testing.assert_allclose(back.translation, base.pose.translation, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(base.inliers, ~out)
    np.testing.assert_array_equal(moved.inliers, base.inliers)


def _full_floor_ransac(pixels, points, K, seed):
    """``solve_pnp_ransac`` without its stop on a full count: every call
    makes at least the floor of 32 draws, in batches of 32, as the solver
    did before the stop. Returns (R, t, inliers, rms) of the winner."""
    n = len(pixels)
    rng = np.random.default_rng(seed)
    norm_pix = (pixels - np.array([K.cx, K.cy])) / K.focal
    scored = pixels, points
    if n > PREEMPTIVE_SUBSET:
        pick = np.arange(PREEMPTIVE_SUBSET) * n // PREEMPTIVE_SUBSET
        scored = pixels[pick], points[:, pick]
    best_R = best_t = None
    best_count, needed, it = 0, RANSAC_MAX_ITERATIONS, 0
    while it < max(32, needed):
        batch = min(32, max(32, needed) - it)
        idx = np.stack([rng.choice(n, size=MIN_SAMPLE, replace=False) for _ in range(batch)])
        R, t, ok = _minimal_poses(points.T[idx], norm_pix[idx])
        inl = np.zeros((batch, len(scored[0])), dtype=bool)
        if ok.any():
            inl[ok] = _reproj_errors_many(R[ok], t[ok], K, *scored) < INLIER_THRESHOLD
        counts = inl.sum(axis=1)
        for j in range(batch):
            if it >= max(32, needed):
                break
            it += 1
            if counts[j] > best_count:
                best_R, best_t, best_count = _local_optimisation(R[j], t[j], scored, K, inl[j])
                needed = _iterations_needed(best_count / len(scored[0]))
    if best_R is None:
        raise NoConsensus(f"best consensus 0 of {n}")
    err = _reproj_errors_many(best_R[None], best_t[None], K, pixels, points)[0]
    inliers = err < INLIER_THRESHOLD
    if int(inliers.sum()) < MIN_SAMPLE:
        raise NoConsensus(f"best consensus {int(inliers.sum())} of {n}")
    return best_R, best_t, inliers, float(np.sqrt(np.mean(err[inliers] ** 2)))


@_examples(60)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.one_of(st.integers(MIN_SAMPLE, 200), st.integers(PREEMPTIVE_SUBSET + 1, 2000)),
    pixels=st.sampled_from(["clean", "noisy", "outliers"]),
    outlier_fraction=st.floats(0.1, 0.3),
    planar=st.booleans(),
)
def test_ransac_stop_returns_what_the_full_floor_returns(
    seed, n, pixels, outlier_fraction, planar
):
    """Once the best holds every scored pair no later draw can replace it
    (a draw wins only with a strictly higher count), so stopping there
    gives the estimate of the full floor of draws, byte for byte."""
    rng = np.random.default_rng(seed)
    K, pose, pix, X = make_pnp_instance(rng, n=n)
    if planar:
        # the cloud on a tilted plane 2-4 m ahead, 10 um off it at most
        normal = np.array([*rng.normal(0.0, 0.3, 2), 1.0])
        normal /= np.linalg.norm(normal)
        rays = backproject(K, pix, np.ones(n))
        cam = rays * (rng.uniform(2.0, 4.0) / (rays @ normal))[:, None]
        cam += rng.uniform(-1e-5, 1e-5, (n, 1)) * normal
        X = np.ascontiguousarray(pose.inverse().apply(cam).T)
    if pixels == "noisy":
        pix += rng.normal(0.0, 0.3, pix.shape)
    elif pixels == "outliers":
        out = rng.uniform(size=n) < outlier_fraction
        pix[out] += rng.uniform(10, 30, (out.sum(), 2)) * rng.choice([-1, 1], (out.sum(), 2))
    cfg = RansacConfig(seed=seed % 1000)
    try:
        reference = _full_floor_ransac(pix, X, K, cfg.seed)
    except NoConsensus as exc:
        with pytest.raises(NoConsensus, match=f"^{exc}$"):
            solve_pnp_ransac(pix, X, K, cfg)
        return
    est = solve_pnp_ransac(pix, X, K, cfg)
    R, t, inliers, rms = reference
    got = (est.pose.rotation, est.pose.translation, est.base_pose.rotation,
           est.base_pose.translation, est.inliers, est.rms_reprojection_error)
    for a, b in zip(got, (R, t, R, t, inliers, rms)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
