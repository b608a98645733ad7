"""The environment a result was measured in, stamped into every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: BLAS/OpenMP threads every server (and the in-process checker) runs with.
#: Fixed so results do not depend on the host's core count by accident.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _git_sha(root: Path) -> str | None:
    """HEAD of the repository at ``root``; None for a plain checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    # A checkout nested in another repository must not report that one's HEAD.
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root.resolve():
        return None
    return lines[1]


def _source_digest(root: Path) -> str:
    """sha256 over ``src/`` paths and bytes: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cgroup_cpus() -> str | None:
    """The cgroup v2 CPU quota as ``quota/period`` (``max`` when unlimited)."""
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip().replace(" ", "/")
    except OSError:
        return None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine since boot.

    Steal is time the hypervisor ran something else while this machine's
    CPUs wanted to run: the share of it over a run says how much the
    host, not the program, moved that run's timings.
    """
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already inside user, so later columns are left out of the total.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _blas() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return {"library": "unknown"}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "library": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def stamp(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cgroup_cpus(),
        "blas": _blas(),
        "server_threads": THREAD_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
