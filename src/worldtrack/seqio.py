"""Directory-based sequence files: a JSON manifest plus raw arrays.

Layout: one directory per sequence holding ``manifest.json`` and one
``.raw`` file per array. Bulk arrays (pointmaps, depth, tracks) are
little-endian float32, row major; masks are single bytes; cameras and
intrinsics are float64 so poses survive a round trip without losing the
rotation orthonormality contract. Invalid pointmap pixels are stored as
the exact zero triple, which never collides with valid content because
valid points come from rays through half-integer pixel centers.

Every file is written to a temporary name and renamed into place, with
the manifest last, so a crashed writer never leaves a directory that
parses as complete. Writes are deterministic: the same sequence produces
byte-identical files.
"""

import json
import os
from pathlib import Path

import numpy as np

from .errors import UnknownPreset
from .geometry import Intrinsics, Pointmap, PoseSE3, TrackSet
from .oracle import RenderedSequence, SceneSpec

FORMAT_TAG = "worldtrack-seq/1"
MANIFEST_NAME = "manifest.json"


def _write_atomic(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _put(arrays: dict, outdir: Path, name: str, data: np.ndarray, dtype: str):
    cast = np.ascontiguousarray(data.astype(dtype))
    fname = f"{name}.raw"
    _write_atomic(outdir / fname, cast.tobytes())
    arrays[name] = {
        "file": fname,
        "shape": list(cast.shape),
        "dtype": dtype,
    }


def save_sequence(path, seq: RenderedSequence) -> None:
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    T = seq.num_frames
    H = seq.tracking_pointmaps[0].height
    W = seq.tracking_pointmaps[0].width

    arrays: dict = {}
    tracking = np.stack([pm.points for pm in seq.tracking_pointmaps])
    recon = np.stack([pm.points for pm in seq.recon_pointmaps])
    _put(arrays, outdir, "tracking_pointmaps", tracking, "<f4")
    _put(arrays, outdir, "recon_pointmaps", recon, "<f4")
    _put(arrays, outdir, "depth", seq.depth, "<f4")
    _put(arrays, outdir, "tracks2d", seq.tracks2d.positions, "<f4")
    _put(arrays, outdir, "tracks3d", seq.tracks3d.positions, "<f4")
    _put(arrays, outdir, "visibility", seq.tracks2d.visibility, "|u1")
    _put(arrays, outdir, "dynamic_mask", seq.dynamic_mask, "|u1")
    K = seq.intrinsics
    _put(arrays, outdir, "intrinsics", np.array([K.focal, K.cx, K.cy]), "<f8")
    cams = np.stack(
        [np.concatenate([c.rotation, c.translation[:, None]], axis=1) for c in seq.cameras]
    )
    _put(arrays, outdir, "cameras", cams, "<f8")

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
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_atomic(outdir / MANIFEST_NAME, payload.encode())


def _get(indir: Path, arrays: dict, name: str, expect: tuple, stored: str) -> np.ndarray:
    """The manifest's array ``name``, of shape ``expect`` (None matches any
    length) and dtype ``stored``, the one ``save_sequence`` writes; its
    entry is checked before the read."""
    try:
        entry = arrays[name]
        fname, dtype = entry["file"], np.dtype(entry["dtype"])
        shape = tuple(int(n) for n in entry["shape"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{indir}: manifest entry {name!r} is missing or malformed") from None
    if dtype.str != stored:
        raise ValueError(f"{indir}: entry {name!r} has dtype {dtype.str}, not {stored}")
    if len(shape) != len(expect) or any(e not in (None, n) for e, n in zip(expect, shape)):
        want = ", ".join("N" if e is None else str(e) for e in expect)
        raise ValueError(f"{indir}: entry {name!r} has shape {list(shape)}, not [{want}]")
    if not isinstance(fname, str) or fname in ("", ".", "..") or Path(fname).name != fname:
        raise ValueError(f"{indir}: entry {name!r} names {fname!r}, not a file in the directory")
    raw = (indir / fname).read_bytes()
    size = dtype.itemsize * int(np.prod(shape))
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
    for key in ("width", "height", "num_frames"):
        value = getattr(spec, key)
        if value != manifest[key]:
            raise ValueError(
                f"{mpath}: spec {key} {value!r} is not the manifest's {manifest[key]}"
            )
    arrays = manifest["arrays"]
    W, H, T = manifest["width"], manifest["height"], manifest["num_frames"]

    shape = (T, H, W, 3)
    tracking_raw = _get(indir, arrays, "tracking_pointmaps", shape, "<f4").astype(np.float64)
    recon_raw = _get(indir, arrays, "recon_pointmaps", shape, "<f4").astype(np.float64)
    depth = _get(indir, arrays, "depth", (T, H, W), "<f4").astype(np.float64)
    tracks2d = _get(indir, arrays, "tracks2d", (None, T, 2), "<f4").astype(np.float64)
    N = len(tracks2d)
    tracks3d = _get(indir, arrays, "tracks3d", (N, T, 3), "<f4").astype(np.float64)
    visibility = _get(indir, arrays, "visibility", (N, T), "|u1").astype(bool)
    dynamic_mask = _get(indir, arrays, "dynamic_mask", (H, W), "|u1").astype(bool)
    f, cx, cy = _get(indir, arrays, "intrinsics", (3,), "<f8")
    cam_raw = _get(indir, arrays, "cameras", (T, 3, 4), "<f8")

    def from_stack(name, stack, content_of):
        out = []
        for j, pts in enumerate(stack):
            valid = np.any(pts != 0.0, axis=-1)
            try:
                out.append(Pointmap(pts, valid, 0, content_of(j), j))
            except ValueError as exc:
                raise ValueError(f"{indir / arrays[name]['file']}: frame {j}: {exc}") from None
        return out

    tracking = from_stack("tracking_pointmaps", tracking_raw, lambda j: 0)
    recon = from_stack("recon_pointmaps", recon_raw, lambda j: j)
    try:
        intrinsics = Intrinsics(float(f), float(cx), float(cy))
        cameras = [PoseSE3(cam_raw[j, :, :3], cam_raw[j, :, 3]) for j in range(T)]
    except ValueError as exc:
        raise ValueError(f"{indir}: {exc}") from None

    # per-track dynamic flags come from the anchor-grid mask at each query
    q = tracks2d[:, 0]
    cols = np.clip(np.floor(q[:, 0]).astype(np.int64), 0, W - 1)
    rows = np.clip(np.floor(q[:, 1]).astype(np.int64), 0, H - 1)
    dynamic = dynamic_mask[rows, cols]

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
        meta=manifest.get("meta", {}),
    )
