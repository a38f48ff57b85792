import json

import numpy as np
import pytest

from worldtrack.oracle import SceneSpec, generate_sequence
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
    for a, b in zip(seq.tracking_pointmaps, back.tracking_pointmaps):
        assert np.allclose(a.points, b.points, atol=1e-5)
        assert np.array_equal(a.valid, b.valid)
        assert (b.coord_frame, b.content_frame, b.time) == (0, 0, a.time)
    for j, (a, b) in enumerate(zip(seq.recon_pointmaps, back.recon_pointmaps)):
        assert np.allclose(a.points, b.points, atol=1e-5)
        assert np.array_equal(a.valid, b.valid)
        assert (b.coord_frame, b.content_frame, b.time) == (0, j, j)
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
    for pm in back.recon_pointmaps:
        gaps = ~pm.valid
        if gaps.any():
            assert np.all(pm.points[gaps] == 0.0)


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
