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


def _get(indir: Path, arrays: dict, name: str, expect: tuple) -> np.ndarray:
    """The manifest's array ``name``, of shape ``expect`` (None matches any
    length); its entry is checked before the read."""
    try:
        entry = arrays[name]
        fname, dtype = entry["file"], np.dtype(entry["dtype"])
        shape = tuple(int(n) for n in entry["shape"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{indir}: manifest entry {name!r} is missing or malformed") from None
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


def load_sequence(path) -> RenderedSequence:
    indir = Path(path)
    mpath = indir / MANIFEST_NAME
    if not mpath.is_file():
        raise FileNotFoundError(f"{indir} has no {MANIFEST_NAME}")
    manifest = json.loads(mpath.read_text())
    tag = manifest.get("format")
    if tag != FORMAT_TAG:
        raise ValueError(f"unsupported sequence format {tag!r}")
    missing = {"arrays", "width", "height", "num_frames", "spec"} - manifest.keys()
    if missing:
        raise ValueError(f"{mpath}: no {', '.join(sorted(missing))}")
    arrays = manifest["arrays"]
    W, H, T = manifest["width"], manifest["height"], manifest["num_frames"]

    tracking_raw = _get(indir, arrays, "tracking_pointmaps", (T, H, W, 3)).astype(np.float64)
    recon_raw = _get(indir, arrays, "recon_pointmaps", (T, H, W, 3)).astype(np.float64)
    depth = _get(indir, arrays, "depth", (T, H, W)).astype(np.float64)
    tracks2d = _get(indir, arrays, "tracks2d", (None, T, 2)).astype(np.float64)
    N = len(tracks2d)
    tracks3d = _get(indir, arrays, "tracks3d", (N, T, 3)).astype(np.float64)
    visibility = _get(indir, arrays, "visibility", (N, T)).astype(bool)
    dynamic_mask = _get(indir, arrays, "dynamic_mask", (H, W)).astype(bool)
    f, cx, cy = _get(indir, arrays, "intrinsics", (3,)).astype(np.float64)
    cam_raw = _get(indir, arrays, "cameras", (T, 3, 4)).astype(np.float64)

    def from_stack(stack, content_of, time_of):
        out = []
        for j in range(T):
            pts = stack[j]
            valid = np.any(pts != 0.0, axis=-1)
            out.append(Pointmap(pts, valid, 0, content_of(j), time_of(j)))
        return out

    tracking = from_stack(tracking_raw, lambda j: 0, lambda j: j)
    recon = from_stack(recon_raw, lambda j: j, lambda j: j)
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
        spec=SceneSpec(**manifest["spec"]),
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
