"""The environment block recorded with every result: what the numbers ran on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> dict[str, int]:
    """Threads in effect for each OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def _blas(module) -> dict:
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version")}


def _l3_bytes() -> int | None:
    size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = size.read_text().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024**2}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "l3_bytes": _l3_bytes(),
        "git_commit": _git_commit(root),
    }
