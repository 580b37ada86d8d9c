"""Run record: what built the numbers and what the host was doing.

Host readings (load average, steal ticks, a reference loop) are diagnostics
for judging a run afterwards; no metric is ever scaled by them.
"""
from __future__ import annotations

import os
import platform
import subprocess
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REFERENCE_LOOP_N = 1_000_000


def _git(root: str, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_identity(root: str) -> dict:
    """Git commit and dirty flag; both null when root is not a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):  # never consult a parent repo
        return {"git_sha": None, "git_dirty": None}
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


def static_environment(root: str) -> dict:
    import numpy  # not at module level: run.py pins thread variables first
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        **source_identity(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: a host-speed diagnostic."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc += i * i & 0xFF
    return time.perf_counter() - start


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields and fields[0] == "cpu" and len(fields) > 8 else None


def host_snapshot() -> dict:
    """Load average, steal ticks and the reference loop, read at one moment."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"time": time.time(), "loadavg": load, "steal_ticks": _steal_ticks(),
            "reference_loop_s": reference_loop_s()}
