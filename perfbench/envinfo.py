"""BLAS thread pinning and the environment record printed with every result.

Nothing here imports numpy at module level: the thread count must be in the
environment before numpy (and the BLAS it loads) is first imported.
"""

from __future__ import annotations

import importlib.util
import os
import platform
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def default_blas_threads() -> int:
    """Threads an unconfigured OpenBLAS uses: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def pin_blas_threads(threads: int) -> dict[str, str | None]:
    """Set every BLAS thread variable to ``threads``; return the previous values."""
    before = {name: os.environ.get(name) for name in THREAD_VARS}
    for name in THREAD_VARS:
        os.environ[name] = str(threads)
    return before


def _blas_of(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown"}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration") if blas.get(key)}


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def record(root: Path, threads: int, env_before: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": default_blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "numpy_blas": _blas_of(numpy),
        "scipy_blas": _blas_of(scipy),
        "blas_threads": threads,
        "thread_env_before": env_before,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
    }
