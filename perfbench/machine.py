"""Facts about the machine and build a benchmark result was measured on."""

import ctypes
import os
import platform
import sys
from pathlib import Path

_CPU = Path("/sys/devices/system/cpu/cpu0")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    """Parse a sysfs cache size such as ``2048K``."""
    if not text:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
    digits = text.rstrip("KMG")
    return int(digits) * scale if digits.isdigit() else None


def cache_sizes() -> dict:
    """Unified or data cache size in bytes per level, read from sysfs."""
    sizes = {}
    for index in sorted(_CPU.glob("cache/index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if level is None or kind == "Instruction":
            continue
        size = _size_bytes(_read(index / "size"))
        if size is not None:
            sizes[f"L{level}"] = size
    return sizes


def cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _loaded_libraries() -> list[str]:
    text = _read(Path("/proc/self/maps")) or ""
    libs = []
    for line in text.splitlines():
        path = line.split()[-1] if line.split() else ""
        if path.startswith("/") and ".so" in path and path not in libs:
            libs.append(path)
    return libs


def blas_threads() -> int:
    """Thread count the loaded OpenBLAS will use, or -1 when unknown."""
    for lib in _loaded_libraries():
        if "blas" not in Path(lib).name.lower():
            continue
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def blas_name(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit(root: Path) -> str:
    """Commit of a git checkout at ``root``, read without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unavailable"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def describe(np, root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cache_bytes": cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name(np),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
    }
