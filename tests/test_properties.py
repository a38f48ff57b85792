"""Hypothesis properties: seqio round trips, fuzzed manifests, the
similarity invariance of the sim3-aligned tracking metrics, and the
equivariance of pose recovery under a change of world frame.

Every property runs derandomized and without an example database, and
``conftest.py`` points Hypothesis' caches at a temporary directory, so a
run is reproducible and leaves no ``.hypothesis/`` directory behind.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worldtrack.bench import eval_tracking
from worldtrack.camera import RansacConfig, solve_pnp_ransac
from worldtrack.data import PRESETS, SceneSpec
from worldtrack.errors import WorldTrackError
from worldtrack.geometry import PoseSE3, TrackSet, so3_exp
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
            for a, b in zip(getattr(seq, name), getattr(back, name), strict=True):
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
