"""Environment fingerprint, the box-drift reference loop and the speed probe.

Recorded with every run so a reviewer can tell a code change from a
different box: core count, the BLAS pools actually loaded and their
thread counts, library versions, the contract-checking flag and the
source revision.  BLAS threads are read, never set: oversubscription is
a property of the program under test, and pinning it here would hide it.

:class:`SpeedProbe` times a short fixed loop between units of the
program's work, so every timing metric can be stated at a reference box
speed (see ``DESIGN.md``, *Box speed*).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _first_symbol(lib: ctypes.CDLL, names: tuple[str, ...], restype):
    for name in names:
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue
        fn.argtypes = []
        fn.restype = restype
        return fn()
    return None


def blas_pools() -> list[dict]:
    """Every OpenBLAS library mapped into this process, with its threads."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted(
        {line.split()[-1] for line in maps.splitlines()
         if "openblas" in line.rsplit("/", 1)[-1].lower() and line.endswith(".so")}
    )
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _first_symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        pools.append(
            {
                "library": Path(path).name,
                "threads": _first_symbol(lib, _THREAD_SYMBOLS, ctypes.c_int),
                "config": config.decode() if config else None,
            }
        )
    return pools


def numpy_blas_threads() -> int:
    """Thread count of numpy's own BLAS pool (0 when unknown)."""
    version = np.__config__.CONFIG["Build Dependencies"]["blas"].get("version", "")
    for pool in blas_pools():
        if version and version in (pool["config"] or "") and pool["threads"]:
            return int(pool["threads"])
    return 0


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (the checkout may lack git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_steal_ticks() -> int | None:
    """Cumulative steal ticks of the whole box (Linux), or None."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def fingerprint(root: Path) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pools": blas_pools(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "repro_check_contracts": os.environ.get("REPRO_CHECK_CONTRACTS", ""),
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
        "loadavg": os.getloadavg(),
    }


def ref_loop_s() -> float:
    """Time a fixed pure-Python plus GEMM loop (~0.2 s on a 2-vCPU box).

    The work never changes, so its duration tracks only the box: read
    before and after a run, it separates drift from a code change.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += (i * i) % 7
    b = a
    for _ in range(200):
        b = np.tanh(a @ b)
    if acc < 0 or not np.isfinite(b).all():
        raise RuntimeError("reference loop produced an impossible value")
    return time.perf_counter() - start


REFERENCE_PROBE_S = 0.011
"""Median :class:`SpeedProbe` time that defines the reference box speed.

It is the median probe on the 2-vCPU Xeon virtual machine the bounds
were set on; any fixed value works, since parent and change are
compared on the same box.
"""

PROBE_ITERATIONS = 150_000


class SpeedProbe:
    """The box's speed, sampled between units of the program's work.

    Each :meth:`sample` times a fixed pure-Python loop (about 11 ms).
    The program's own code never runs in it, and callers sample only
    while the program has no work in flight, so its time tracks the box
    alone.  On a shared virtual machine the box's speed drifts by a
    fifth or more over tens of seconds, and the program's time moves
    with it; :meth:`factor` turns a time measured during the samples
    into a time at the reference speed.
    """

    def __init__(self) -> None:
        self.wall_s: list[float] = []
        self.cpu_s = 0.0
        """This thread's CPU time spent in samples, to take out of totals."""

    def sample(self) -> None:
        cpu0 = time.thread_time()
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += (i * i) % 7
        self.wall_s.append(time.perf_counter() - start)
        self.cpu_s += time.thread_time() - cpu0
        if acc < 0:
            raise RuntimeError("speed probe produced an impossible value")

    def median_s(self) -> float:
        return statistics.median(self.wall_s)

    def recent_factor(self, n: int) -> float:
        """:meth:`factor` over the last ``n`` samples only."""
        return REFERENCE_PROBE_S / statistics.median(self.wall_s[-n:])

    def factor(self) -> float:
        """Multiply a measured time by this to state it at the reference speed.

        The median sample, not the mean: one sample preempted for a few
        milliseconds would move a mean of short samples far more than it
        moves the long stretch of work they bracket.
        """
        return REFERENCE_PROBE_S / self.median_s()
