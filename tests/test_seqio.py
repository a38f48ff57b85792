import json
import re
from dataclasses import replace

import numpy as np
import pytest

from worldtrack.data import SceneSpec
from worldtrack.errors import BranchContractViolation, QueryOutOfBounds, ShapeMismatch
from worldtrack.geometry import PointmapVideo, TrackSet
from worldtrack.oracle import generate_sequence
from worldtrack.seqio import FORMAT_TAG, load_sequence, save_sequence


@pytest.fixture(scope="module")
def seq():
    return generate_sequence(
        SceneSpec("orbit-dynamic", width=24, height=18, num_frames=5, focal=30.0, seed=11)
    )


def test_round_trip_arrays(tmp_path, seq):
    save_sequence(tmp_path / "s", seq)
    back = load_sequence(tmp_path / "s")

    assert back.spec == seq.spec
    assert back.num_frames == seq.num_frames
    for branch in ("tracking", "recon"):
        a, b = getattr(seq, f"{branch}_pointmaps"), getattr(back, f"{branch}_pointmaps")
        assert b.branch == branch
        assert np.allclose(a.points, b.points, atol=1e-5)
        assert np.array_equal(a.valid, b.valid)
    assert np.allclose(back.depth, seq.depth, atol=1e-5)
    assert np.allclose(back.tracks2d.positions, seq.tracks2d.positions, atol=1e-4)
    assert np.allclose(back.tracks3d.positions, seq.tracks3d.positions, atol=1e-5)
    assert np.array_equal(back.tracks2d.visibility, seq.tracks2d.visibility)
    assert np.array_equal(back.dynamic_mask, seq.dynamic_mask)
    assert np.array_equal(back.tracks3d.dynamic, seq.tracks3d.dynamic)
    assert back.meta["preset"] == seq.meta["preset"]


def test_cameras_and_intrinsics_exact(tmp_path, seq):
    """Poses travel at full precision so orthonormality survives the trip."""
    save_sequence(tmp_path / "s", seq)
    back = load_sequence(tmp_path / "s")
    assert back.intrinsics.focal == seq.intrinsics.focal
    assert back.intrinsics.cx == seq.intrinsics.cx
    for a, b in zip(seq.cameras, back.cameras):
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


def test_invalid_pixels_stay_zero(tmp_path, seq):
    save_sequence(tmp_path / "s", seq)
    back = load_sequence(tmp_path / "s")
    video = back.recon_pointmaps
    gaps = ~video.valid
    assert gaps.any() and np.all(video.points[gaps] == 0.0)


def test_saves_are_byte_identical(tmp_path, seq):
    save_sequence(tmp_path / "a", seq)
    save_sequence(tmp_path / "b", seq)
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_missing_manifest_raises(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        load_sequence(tmp_path / "empty")


def test_unknown_format_tag_rejected(tmp_path, seq):
    save_sequence(tmp_path / "s", seq)
    mpath = tmp_path / "s" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format"] = "worldtrack-seq/99"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format"):
        load_sequence(tmp_path / "s")
    manifest["format"] = FORMAT_TAG
    mpath.write_text(json.dumps(manifest))
    load_sequence(tmp_path / "s")
    mpath.write_text(json.dumps([manifest]))
    with pytest.raises(ValueError, match="manifest.json: not a JSON object"):
        load_sequence(tmp_path / "s")


def test_no_stray_tmp_files(tmp_path, seq):
    save_sequence(tmp_path / "s", seq)
    leftovers = [p for p in (tmp_path / "s").iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def _edit_manifest(path, edit):
    mpath = path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest["arrays"])
    mpath.write_text(json.dumps(manifest))


def test_missing_array_entry_is_named(tmp_path, seq):
    save_sequence(tmp_path / "s", seq)
    _edit_manifest(tmp_path / "s", lambda arrays: arrays.pop("depth"))
    with pytest.raises(ValueError, match="'depth'"):
        load_sequence(tmp_path / "s")


@pytest.mark.parametrize("fname", ["../a.seq/depth.raw", "{root}/a.seq/depth.raw", "sub/x", ".."])
def test_array_file_outside_directory_is_refused(tmp_path, seq, fname):
    # a.seq/depth.raw exists and fits: only the check stops the read
    save_sequence(tmp_path / "a.seq", seq)
    save_sequence(tmp_path / "b.seq", seq)
    fname = fname.format(root=tmp_path)
    _edit_manifest(tmp_path / "b.seq", lambda arrays: arrays["depth"].update(file=fname))
    with pytest.raises(ValueError, match="'depth'.*not a file in the directory"):
        load_sequence(tmp_path / "b.seq")


def test_array_byte_length_mismatch_names_file(tmp_path, seq):
    save_sequence(tmp_path / "s", seq)
    path = tmp_path / "s" / "depth.raw"
    path.write_bytes(path.read_bytes()[:25])
    with pytest.raises(ValueError, match="depth.raw: 25 bytes") as exc:
        load_sequence(tmp_path / "s")
    assert "\n" not in str(exc.value)


def test_array_shape_must_match_manifest_grid(tmp_path, seq):
    # (T, W, H) holds as many bytes as (T, H, W): only the shape check stops it
    save_sequence(tmp_path / "s", seq)
    _edit_manifest(tmp_path / "s", lambda arrays: arrays["depth"].update(shape=[5, 24, 18]))
    with pytest.raises(ValueError, match=r"'depth' has shape \[5, 24, 18\], not \[5, 18, 24\]"):
        load_sequence(tmp_path / "s")


@pytest.mark.parametrize("name, index", [("cameras", 1 * 12 + 3), ("intrinsics", 1)])
def test_non_finite_camera_or_intrinsics_refused(tmp_path, seq, capsys, name, index):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    path = tmp_path / "s" / f"{name}.raw"
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[index] = np.nan
    path.write_bytes(values.tobytes())
    with pytest.raises(ValueError, match="finite"):
        load_sequence(tmp_path / "s")
    assert main(["solve-camera", "--seq", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and err.count("\n") == 1


def test_bad_manifest_exits_one_without_traceback(tmp_path, seq, capsys):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    _edit_manifest(tmp_path / "s", lambda arrays: arrays.pop("cameras"))
    assert main(["solve-camera", "--seq", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'cameras'" in err and err.count("\n") == 1


def _edit_top(path, key, value):
    mpath = path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest[key] = value
    mpath.write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["width", "height", "num_frames"])
@pytest.mark.parametrize("value", [5.0, True, 0, -5, "5", None])
def test_manifest_sizes_must_be_positive_integers(tmp_path, seq, capsys, key, value):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    _edit_top(tmp_path / "s", key, value)
    message = f"manifest.json: {key} must be a positive integer"
    with pytest.raises(ValueError, match=message) as exc:
        load_sequence(tmp_path / "s")
    assert "\n" not in str(exc.value)
    assert main(["solve-camera", "--seq", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"not {value!r}" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"preset": "orbit-dynamic", "colour": 1}, "bad spec: .*'colour'"),
        (["orbit-dynamic"], "spec must be an object"),
        ({"width": 24}, "bad spec: .*preset"),
        ({"preset": "orbit-dynamic", "width": "24"}, "bad spec"),
        ({"preset": "no-such-preset"}, "bad spec: 'no-such-preset'"),
    ],
    ids=["unknown-key", "not-object", "no-preset", "string-width", "unknown-preset"],
)
def test_manifest_spec_must_fit_scene_spec(tmp_path, seq, capsys, spec, message):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    _edit_top(tmp_path / "s", "spec", spec)
    with pytest.raises(ValueError, match=f"manifest.json: {message}") as exc:
        load_sequence(tmp_path / "s")
    assert "\n" not in str(exc.value)
    assert main(["solve-camera", "--seq", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1



@pytest.mark.parametrize(
    "name, dtype",
    [("recon_pointmaps", "<i4"), ("depth", ">f4"), ("visibility", "|b1"), ("cameras", "<i8")],
)
def test_array_dtype_must_be_the_written_one(tmp_path, seq, capsys, name, dtype):
    from worldtrack.cli import main

    # the byte count still fits: only the dtype check stops the read
    save_sequence(tmp_path / "s", seq)
    _edit_manifest(tmp_path / "s", lambda arrays: arrays[name].update(dtype=dtype))
    with pytest.raises(ValueError, match=f"'{name}' has dtype \\{dtype}, not ") as exc:
        load_sequence(tmp_path / "s")
    assert "\n" not in str(exc.value)
    assert main(["solve-camera", "--seq", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{name}' has dtype" in err and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("width", 99), ("height", 17), ("num_frames", 4)])
def test_manifest_spec_sizes_must_match_the_manifest(tmp_path, seq, capsys, key, value):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    mpath = tmp_path / "s" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["spec"][key] = value
    mpath.write_text(json.dumps(manifest))
    message = f"manifest.json: spec {key} {value} is not the manifest's {manifest[key]}"
    with pytest.raises(ValueError, match=message) as exc:
        load_sequence(tmp_path / "s")
    assert "\n" not in str(exc.value)
    assert main(["solve-camera", "--seq", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("name", ["tracking_pointmaps", "recon_pointmaps"])
def test_non_finite_valid_point_names_file_and_frame(tmp_path, seq, capsys, name):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    path = tmp_path / "s" / f"{name}.raw"
    values = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(5, 18, 24, 3).copy()
    r, c = np.argwhere(np.any(values[2] != 0.0, axis=-1))[0]
    values[2, r, c, 1] = np.nan
    path.write_bytes(values.tobytes())
    message = f"{name}.raw: frame 2: valid pointmap entries must be finite"
    with pytest.raises(ValueError, match=message):
        load_sequence(tmp_path / "s")
    assert main(["solve-camera", "--seq", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, shape",
    [("depth", (5, 18, 24)), ("tracks2d", (432, 5, 2)), ("tracks3d", (432, 5, 3))],
    ids=["depth", "tracks2d", "tracks3d"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_depth_or_track_entry_names_file(tmp_path, seq, capsys, name, shape, bad):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    path = tmp_path / "s" / f"{name}.raw"
    values = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(shape).copy()
    values[0, 0, 0] = bad  # track 0 at its anchor frame, where it is visible
    path.write_bytes(values.tobytes())
    message = f"{path}: entries must be finite"
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_sequence(tmp_path / "s")
    report = tmp_path / "eval.json"
    args = ["eval", "--pred", str(tmp_path / "s"), "--gt", str(tmp_path / "s")]
    assert main(args + ["--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not report.exists()


def _with_entry(tracks: TrackSet, value) -> TrackSet:
    positions = np.array(tracks.positions)
    positions[0, 0, 0] = value
    return TrackSet(positions, tracks.visibility, tracks.dynamic)


@pytest.mark.parametrize(
    "change, kind, message",
    [
        (lambda s: replace(s, depth=np.where(s.depth > 0, np.nan, 0.0)), ValueError,
         r"^depth entries must be finite$"),
        (lambda s: replace(s, tracks2d=_with_entry(s.tracks2d, np.inf)), ValueError,
         r"^tracks2d entries must be finite$"),
        (lambda s: replace(s, tracks3d=_with_entry(s.tracks3d, -np.inf)), ValueError,
         r"^tracks3d entries must be finite$"),
        (
            lambda s: replace(s, recon_pointmaps=PointmapVideo(
                "recon", s.recon_pointmaps.points[:4], s.recon_pointmaps.valid[:4]
            )),
            ShapeMismatch,
            r"^recon_pointmaps has shape \[4, 18, 24, 3\], not \[5, 18, 24, 3\]$",
        ),
        (
            lambda s: replace(s, tracking_pointmaps=s.recon_pointmaps),
            BranchContractViolation,
            "^expected a tracking video, got a recon video$",
        ),
        (
            lambda s: replace(s, depth=s.depth[:, 1:]),
            ShapeMismatch,
            r"^depth has shape \[5, 17, 24\], not \[5, 18, 24\]$",
        ),
        (
            lambda s: replace(s, cameras=s.cameras[:4]),
            ShapeMismatch,
            r"^cameras has shape \[4\], not \[5\]$",
        ),
        (
            lambda s: replace(
                s, tracks3d=TrackSet(s.tracks3d.positions[:, 1:], s.tracks3d.visibility[:, 1:])
            ),
            ShapeMismatch,
            r"^tracks3d has shape \[432, 4, 3\], not \[432, 5, 3\]$",
        ),
        (
            lambda s: replace(s, dynamic_mask=s.dynamic_mask.T),
            ShapeMismatch,
            r"^dynamic_mask has shape \[24, 18\], not \[18, 24\]$",
        ),
        (
            lambda s: replace(s, spec=replace(s.spec, num_frames=6)),
            ShapeMismatch,
            r"^spec has shape \[6, 18, 24\], not \[5, 18, 24\]$",
        ),
    ],
)
def test_save_refuses_what_load_would_refuse_before_writing(tmp_path, seq, change, kind, message):
    with pytest.raises(kind, match=message):
        save_sequence(tmp_path / "s", change(seq))
    assert list(tmp_path.iterdir()) == []


def _with_point(video, value):
    """The video with the first valid point of frame 1 moved to x = value."""
    points = np.array(video.points)
    r, c = np.argwhere(video.valid[1])[0]
    points[1, r, c, 0] = value
    return PointmapVideo(video.branch, points, video.valid)


@pytest.mark.parametrize(
    "name", ["tracking_pointmaps", "recon_pointmaps", "depth", "tracks2d", "tracks3d"]
)
def test_save_refuses_a_finite_entry_float32_cannot_hold(tmp_path, seq, name):
    # 1e39 is finite in float64 but would be written as inf, which a load
    # refuses; no overflow warning may escape either
    if name == "depth":
        depth = np.array(seq.depth)
        depth[0, 0, 0] = 1e39
        bad = replace(seq, depth=depth)
    elif name.endswith("pointmaps"):
        bad = replace(seq, **{name: _with_point(getattr(seq, name), 1e39)})
    else:
        bad = replace(seq, **{name: _with_entry(getattr(seq, name), 1e39)})
    with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
        save_sequence(tmp_path / "s", bad)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["tracking_pointmaps", "recon_pointmaps"])
@pytest.mark.parametrize("point", [(1e-46, 0.0, 0.0), (1e-46, -1e-46, 0.0)])
def test_save_refuses_a_valid_point_float32_stores_as_zero(tmp_path, seq, name, point):
    # the zero triple marks an invalid pixel, so this point would load as
    # invalid; -1e-46 casts to -0.0, which a load reads as zero too
    video = getattr(seq, name)
    points = np.array(video.points)
    points[1, 0, 0] = point
    valid = np.array(video.valid)
    valid[1, 0, 0] = True
    message = f"^{name} has a valid point that float32 stores as \\(0, 0, 0\\)$"
    bad = replace(seq, **{name: PointmapVideo(video.branch, points, valid)})
    with pytest.raises(ValueError, match=message):
        save_sequence(tmp_path / "s", bad)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, shape", [("visibility", (432, 5)), ("dynamic_mask", (18, 24))],
    ids=["visibility", "dynamic_mask"],
)
def test_mask_byte_other_than_0_or_1_names_file(tmp_path, seq, capsys, name, shape):
    from worldtrack.cli import main

    save_sequence(tmp_path / "s", seq)
    path = tmp_path / "s" / f"{name}.raw"
    values = np.frombuffer(path.read_bytes(), dtype="|u1").reshape(shape).copy()
    values[0, 0] = 7
    path.write_bytes(values.tobytes())
    message = f"{path}: bytes must be 0 or 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_sequence(tmp_path / "s")
    report = tmp_path / "eval.json"
    args = ["eval", "--pred", str(tmp_path / "s"), "--gt", str(tmp_path / "s")]
    assert main(args + ["--out", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def _cli_refuses(tmp_path, capsys, seq_dir, message):
    """``adapt``, ``eval`` and ``solve-camera`` on ``seq_dir`` each exit 1
    with one ``error:`` line holding ``message`` and write nothing."""
    from worldtrack.cli import main

    for argv in (
        ["adapt", "--seq", str(seq_dir), "--out", str(tmp_path / "adapted"), "--steps", "1"],
        ["eval", "--pred", str(seq_dir), "--gt", str(seq_dir), "--out", str(tmp_path / "e")],
        ["solve-camera", "--seq", str(seq_dir), "--out", str(tmp_path / "c")],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv
        assert message in captured.err and captured.err.count("\n") == 1, argv
    assert not any((tmp_path / name).exists() for name in ("adapted", "e", "c"))


@pytest.mark.parametrize("x", [-5.0, 24.0], ids=["left", "right"])
def test_off_grid_frame0_track_is_refused(tmp_path, seq, capsys, x):
    """A track's dynamic flag is read at its frame-0 cell: a position off
    the 24x18 grid is refused as an off-grid query, not clipped to an
    edge pixel's flag."""
    save_sequence(tmp_path / "s", seq)
    path = tmp_path / "s" / "tracks2d.raw"
    values = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(-1, 5, 2).copy()
    values[0, 0, 0] = x
    path.write_bytes(values.tobytes())
    message = f"{path}: query 0 at {(x, float(values[0, 0, 1]))} outside 24x18 grid"
    with pytest.raises(QueryOutOfBounds, match=f"^{re.escape(message)}$"):
        load_sequence(tmp_path / "s")
    _cli_refuses(tmp_path, capsys, tmp_path / "s", message)
    # a save refuses the same track before it writes anything
    moved = TrackSet(values.astype(np.float64), seq.tracks2d.visibility, seq.tracks2d.dynamic)
    with pytest.raises(QueryOutOfBounds, match="query 0 at"):
        save_sequence(tmp_path / "t", replace(seq, tracks2d=moved))
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("meta", [5, [1, 2], None], ids=["number", "list", "null"])
def test_meta_must_be_an_object(tmp_path, seq, capsys, meta):
    save_sequence(tmp_path / "s", seq)
    _edit_top(tmp_path / "s", "meta", meta)
    message = f"manifest.json: meta must be an object, not {meta!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_sequence(tmp_path / "s")
    _cli_refuses(tmp_path, capsys, tmp_path / "s", message)


@pytest.mark.parametrize(
    "literal", ["1e400", "5.0", '"5"', "true", "-5"],
    ids=["json-inf", "float", "string", "bool", "negative"],
)
def test_array_shape_entries_must_be_json_integers(tmp_path, seq, capsys, literal):
    save_sequence(tmp_path / "s", seq)
    mpath = tmp_path / "s" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["arrays"]["depth"]["shape"][0] = "@"
    # the literal as written: JSON reads 1e400 as inf
    mpath.write_text(json.dumps(manifest).replace('"@"', literal))
    message = "manifest entry 'depth' is missing or malformed"
    with pytest.raises(ValueError, match=message):
        load_sequence(tmp_path / "s")
    _cli_refuses(tmp_path, capsys, tmp_path / "s", message)


@pytest.mark.parametrize(
    "key, literal, message",
    [
        ("focal", "NaN", "focal length must be finite and positive, not nan"),
        ("focal", "Infinity", "focal length must be finite and positive, not inf"),
        ("seed", '"x"', "seed must be an integer, not 'x'"),
        ("num_beacons", "2.5", "num_beacons must be an integer, not 2.5"),
    ],
    ids=["focal-nan", "focal-inf", "seed-string", "beacons-float"],
)
def test_manifest_spec_fields_must_be_finite_and_integral(
    tmp_path, seq, capsys, key, literal, message
):
    save_sequence(tmp_path / "s", seq)
    mpath = tmp_path / "s" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["spec"][key] = "@"
    mpath.write_text(json.dumps(manifest).replace('"@"', literal))
    with pytest.raises(ValueError, match=re.escape(f"manifest.json: bad spec: {message}")):
        load_sequence(tmp_path / "s")
    _cli_refuses(tmp_path, capsys, tmp_path / "s", f"bad spec: {message}")


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_save_refuses_a_manifest_json_cannot_hold_before_writing(tmp_path, seq, value):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        save_sequence(tmp_path / "s", replace(seq, meta={**seq.meta, "x": value}))
    assert list(tmp_path.iterdir()) == []
