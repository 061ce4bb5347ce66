"""The environment a benchmark run measured in, recorded with its result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

# Busy cores seen while the benchmark itself sleeps, above which a run is
# flagged as having started on a loaded machine.
LOADED_CORES = 0.5


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version() -> str | None:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which names the code also outside git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "purepole").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }


def _cpu_jiffies() -> tuple[int, int, int]:
    """(busy, total, cpus) from the aggregate line of /proc/stat."""
    with open("/proc/stat") as fh:
        lines = fh.read().splitlines()
    fields = [int(v) for v in lines[0].split()[1:8]]
    cpus = sum(1 for line in lines[1:] if line.startswith("cpu"))
    idle = fields[3] + fields[4]
    return sum(fields) - idle, sum(fields), cpus


def busy_cores(interval_s: float) -> float | None:
    """Cores kept busy by other processes while this one sleeps, or None
    where /proc/stat is not available."""
    try:
        busy0, total0, cpus = _cpu_jiffies()
        time.sleep(interval_s)
        busy1, total1, _ = _cpu_jiffies()
    except (OSError, ValueError, IndexError):
        return None
    if total1 == total0:
        return 0.0
    return cpus * (busy1 - busy0) / (total1 - total0)
