"""Directory-based sequence files: a JSON manifest plus raw arrays.

Layout: one directory per ``data.RenderedSequence`` holding
``manifest.json`` and one ``.raw`` file per array. Bulk arrays (pointmaps,
depth, tracks) are little-endian float32, row major; masks are single
bytes; cameras and intrinsics are float64 so poses survive a round trip
without losing the rotation orthonormality contract. Invalid pointmap pixels are stored as
the exact zero triple. Rendered points never collide with it, because
they come from rays through half-integer pixel centers; a save refuses
any valid point that would. Each pointmap file loads as one video
(``geometry.video_pointmaps``): one float64 stack, checked once, whose
frames are views of it.

A save checks both branches as videos, every array's shape against theirs
and the float32 values it will write of the pointmaps, depth and tracks
for finiteness, and valid points against the zero triple, and forms a
manifest with no NaN or infinity, before it writes anything. A load checks
the same, and refuses a mask byte other than 0 or 1, a ``meta`` that is
not a JSON object, an array shape entry that is not a non-negative JSON
integer, and a spec that ``data.SceneSpec`` refuses (such as a focal that is
not finite and positive, or sizes, seed or beacon count that are not
integers). Every file is written to a temporary name, synced and renamed
into place, with the manifest last, so a crashed writer never leaves a
directory that parses as complete. Each array file is written
from the buffer of its cast array, the one the checks read, without a
bytes copy. Writes are deterministic: the same sequence produces
byte-identical files.
"""

import json
import math
import os
from pathlib import Path

import numpy as np

from .data import RenderedSequence, SceneSpec
from .errors import ShapeMismatch, UnknownPreset
from .geometry import (
    Intrinsics, PoseSE3, TrackSet, _pixel_cells, stack_pointmaps, video_pointmaps,
)

FORMAT_TAG = "worldtrack-seq/1"
MANIFEST_NAME = "manifest.json"


def _write_atomic(path: Path, data):
    """Write the bytes-like ``data`` to ``path`` through a synced temporary
    file renamed into place."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_sequence(path, seq: RenderedSequence) -> None:
    """Write ``seq`` to the directory ``path``. Both branches are checked as
    videos, every array's shape against theirs and the float32 values of
    the bulk arrays for finiteness and valid points against the zero
    triple, and the manifest is formed, with no NaN or infinity in it,
    before any file is written: a sequence ``load_sequence`` would refuse
    or read back with fewer valid pixels leaves no file."""
    tracking, tracking_valid = stack_pointmaps(seq.tracking_pointmaps, "tracking")
    recon, recon_valid = stack_pointmaps(seq.recon_pointmaps, "recon")
    T, H, W, _ = tracking.shape
    N = len(seq.tracks2d.positions)
    for name, shape, expect in (
        ("recon_pointmaps", recon.shape, tracking.shape),
        ("depth", np.shape(seq.depth), (T, H, W)),
        ("cameras", (len(seq.cameras),), (T,)),
        ("tracks2d", seq.tracks2d.positions.shape, (N, T, 2)),
        ("tracks3d", seq.tracks3d.positions.shape, (N, T, 3)),
        ("dynamic_mask", np.shape(seq.dynamic_mask), (H, W)),
        ("spec", (seq.spec.num_frames, seq.spec.height, seq.spec.width), (T, H, W)),
    ):
        if shape != expect:
            raise ShapeMismatch(f"{name} has shape {list(shape)}, not {list(expect)}")
    # the float32 values that will be written are checked, not the float64
    # ones: a finite entry beyond float32's range would be stored as inf
    with np.errstate(over="ignore"):
        bulk = {
            name: np.ascontiguousarray(data, dtype="<f4")
            for name, data in (
                ("tracking_pointmaps", tracking), ("recon_pointmaps", recon),
                ("depth", seq.depth), ("tracks2d", seq.tracks2d.positions),
                ("tracks3d", seq.tracks3d.positions),
            )
        }
    for name, cast in bulk.items():
        if not np.isfinite(cast).all():
            raise ValueError(f"{name} entries must be finite")
    # a load reads the zero triple as an invalid pixel
    for name, valid in (("tracking_pointmaps", tracking_valid), ("recon_pointmaps", recon_valid)):
        cast = bulk[name]
        zero = valid & (cast[..., 0] == 0)
        if zero.any() and (zero & (cast[..., 1] == 0) & (cast[..., 2] == 0)).any():
            raise ValueError(f"{name} has a valid point that float32 stores as (0, 0, 0)")
    K = seq.intrinsics
    cams = np.stack(
        [np.concatenate([c.rotation, c.translation[:, None]], axis=1) for c in seq.cameras]
    )
    casts = {
        **bulk,
        "visibility": np.ascontiguousarray(seq.tracks2d.visibility, dtype="|u1"),
        "dynamic_mask": np.ascontiguousarray(seq.dynamic_mask, dtype="|u1"),
        "intrinsics": np.array([K.focal, K.cx, K.cy], dtype="<f8"),
        "cameras": np.ascontiguousarray(cams, dtype="<f8"),
    }
    arrays = {
        name: {"file": f"{name}.raw", "shape": list(cast.shape), "dtype": cast.dtype.str}
        for name, cast in casts.items()
    }
    manifest = {
        "format": FORMAT_TAG,
        "width": W,
        "height": H,
        "num_frames": T,
        "spec": {
            "preset": seq.spec.preset,
            "width": seq.spec.width,
            "height": seq.spec.height,
            "num_frames": seq.spec.num_frames,
            "focal": seq.spec.focal,
            "seed": seq.spec.seed,
            "num_beacons": seq.spec.num_beacons,
        },
        "meta": seq.meta,
        "arrays": arrays,
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, cast in casts.items():
        # the cast array's own buffer, written without a bytes copy
        _write_atomic(outdir / arrays[name]["file"], cast)
    _write_atomic(outdir / MANIFEST_NAME, payload.encode())


def _get(indir: Path, arrays: dict, name: str, expect: tuple, stored: str) -> np.ndarray:
    """The manifest's array ``name``, of shape ``expect`` (None matches any
    length) and dtype ``stored``, the one ``save_sequence`` writes; its
    entry is checked before the read. Entries are taken as written, not
    converted: the dtype is the string ``stored`` and the shape a list of
    non-negative JSON integers (no bool, float or string)."""
    try:
        entry = arrays[name]
        fname, dtype, shape = entry["file"], entry["dtype"], entry["shape"]
    except (KeyError, TypeError):
        shape = None
    if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"{indir}: manifest entry {name!r} is missing or malformed")
    shape = tuple(shape)
    if dtype != stored:
        raise ValueError(f"{indir}: entry {name!r} has dtype {dtype}, not {stored}")
    dtype = np.dtype(stored)
    if len(shape) != len(expect) or any(e not in (None, n) for e, n in zip(expect, shape)):
        want = ", ".join("N" if e is None else str(e) for e in expect)
        raise ValueError(f"{indir}: entry {name!r} has shape {list(shape)}, not [{want}]")
    if not isinstance(fname, str) or fname in ("", ".", "..") or Path(fname).name != fname:
        raise ValueError(f"{indir}: entry {name!r} names {fname!r}, not a file in the directory")
    raw = (indir / fname).read_bytes()
    size = dtype.itemsize * math.prod(shape)
    if len(raw) != size:
        raise ValueError(
            f"{indir / fname}: {len(raw)} bytes, {dtype.str} {list(shape)} needs {size}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _scene_spec(mpath: Path, spec) -> SceneSpec:
    """The manifest's ``spec`` object as a ``SceneSpec``."""
    if not isinstance(spec, dict):
        raise ValueError(f"{mpath}: spec must be an object, not {spec!r}")
    try:
        return SceneSpec(**spec)
    except (TypeError, ValueError, UnknownPreset) as exc:
        raise ValueError(f"{mpath}: bad spec: {exc}") from None


def load_sequence(path) -> RenderedSequence:
    indir = Path(path)
    mpath = indir / MANIFEST_NAME
    if not mpath.is_file():
        raise FileNotFoundError(f"{indir} has no {MANIFEST_NAME}")
    manifest = json.loads(mpath.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{mpath}: not a JSON object")
    tag = manifest.get("format")
    if tag != FORMAT_TAG:
        raise ValueError(f"unsupported sequence format {tag!r}")
    missing = {"arrays", "width", "height", "num_frames", "spec"} - manifest.keys()
    if missing:
        raise ValueError(f"{mpath}: no {', '.join(sorted(missing))}")
    for key in ("width", "height", "num_frames"):
        value = manifest[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{mpath}: {key} must be a positive integer, not {value!r}")
    spec = _scene_spec(mpath, manifest["spec"])
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{mpath}: meta must be an object, not {meta!r}")
    for key in ("width", "height", "num_frames"):
        value = getattr(spec, key)
        if value != manifest[key]:
            raise ValueError(
                f"{mpath}: spec {key} {value!r} is not the manifest's {manifest[key]}"
            )
    arrays = manifest["arrays"]
    W, H, T = manifest["width"], manifest["height"], manifest["num_frames"]

    def video(name, branch):
        points = _get(indir, arrays, name, (T, H, W, 3), "<f4").astype(np.float64)
        # a pixel is valid unless it stores the exact zero triple
        valid = (points[..., 0] != 0.0) | (points[..., 1] != 0.0) | (points[..., 2] != 0.0)
        try:
            return video_pointmaps(points, valid, branch)
        except ValueError as exc:
            raise ValueError(f"{indir / arrays[name]['file']}: {exc}") from None

    def finite(name, expect):
        data = _get(indir, arrays, name, expect, "<f4")
        if not np.isfinite(data).all():
            raise ValueError(f"{indir / arrays[name]['file']}: entries must be finite")
        return data.astype(np.float64)

    def mask(name, expect):
        data = _get(indir, arrays, name, expect, "|u1")
        if (data > 1).any():
            raise ValueError(f"{indir / arrays[name]['file']}: bytes must be 0 or 1")
        return data.astype(bool)

    tracking = video("tracking_pointmaps", "tracking")
    recon = video("recon_pointmaps", "recon")
    depth = finite("depth", (T, H, W))
    tracks2d = finite("tracks2d", (None, T, 2))
    N = len(tracks2d)
    tracks3d = finite("tracks3d", (N, T, 3))
    visibility = mask("visibility", (N, T))
    dynamic_mask = mask("dynamic_mask", (H, W))
    f, cx, cy = _get(indir, arrays, "intrinsics", (3,), "<f8")
    cam_raw = _get(indir, arrays, "cameras", (T, 3, 4), "<f8")
    try:
        intrinsics = Intrinsics(float(f), float(cx), float(cy))
        cameras = [PoseSE3(cam_raw[j, :, :3], cam_raw[j, :, 3]) for j in range(T)]
    except ValueError as exc:
        raise ValueError(f"{indir}: {exc}") from None

    # per-track dynamic flags come from the anchor-grid mask at each query
    rows, cols, _ = _pixel_cells(tracks2d[:, 0], W, H)
    dynamic = dynamic_mask[np.clip(rows, 0, H - 1), np.clip(cols, 0, W - 1)]

    return RenderedSequence(
        spec=spec,
        intrinsics=intrinsics,
        cameras=cameras,
        tracking_pointmaps=tracking,
        recon_pointmaps=recon,
        depth=depth,
        tracks2d=TrackSet(tracks2d, visibility, dynamic),
        tracks3d=TrackSet(tracks3d, visibility, dynamic),
        dynamic_mask=dynamic_mask,
        meta=meta,
    )
