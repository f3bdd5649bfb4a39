"""Environment record, host-speed calibration, and single-GEMV reference timings.

Run as a script (``python3 envinfo.py M N``) it times one GEMV and one GEMV^T
at M x N with whatever BLAS thread count its environment sets, and prints
them as JSON; the benchmark starts it with ``nproc`` threads as a reference
that is kept apart from the single-threaded measurements.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

GEMV_SECONDS = 0.5  # per product and thread setting


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class Calibration:
    """A fixed solver-like loop, timed between the operations a run measures.

    Each pass runs ten aggregate-row-projection iterations from zero (losses,
    a relaxed threshold set, a gathered GEMV^T, a GEMV), written here in the
    benchmark on a benchmark-owned matrix of the operands' shape. No library
    change can move it; the host's speed, cache and memory-bandwidth pressure
    move it as they move the solves.
    """

    SMOOTH = 15  # a block is scaled by the median of this many latest measurements
    WORK = 4e6  # iterations * m * n per measurement, capped at 16 passes: 2-8 ms at every shape

    def __init__(self, m: int, n: int, ref_s: float):
        rng = np.random.default_rng(20220330)
        self.a = rng.standard_normal((m, n))
        self.b = self.a @ np.ones(n)
        self.sq = np.einsum("ij,ij->i", self.a, self.a)
        self.weights = self.sq / self.sq.sum()
        self.passes = min(16, max(1, round(self.WORK / (10 * m * n))))
        self.ref_s = ref_s
        self.samples: list[float] = []

    def measure(self) -> float:
        """Time one measurement; return the median of the latest ``SMOOTH`` ones."""
        a, sq = self.a, self.sq
        t0 = perf_counter()
        for _ in range(self.passes):
            x = np.zeros(a.shape[1])
            for _ in range(10):
                r = self.b - a @ x
                losses = r * r / sq
                top = float(losses.max())
                chosen = np.flatnonzero(losses >= min(0.5 * top + 0.5 * float(self.weights @ losses), top))
                r_sel = r[chosen]
                d = a[chosen].T @ r_sel
                x += (float(r_sel @ r_sel) / float(d @ d)) * d
        self.samples.append(perf_counter() - t0)
        return statistics.median(self.samples[-self.SMOOTH:])

    def scale(self, k_before: float, k_after: float) -> float:
        """Factor that turns a wall time measured between two ``measure`` calls into reference seconds."""
        return 2.0 * self.ref_s / (k_before + k_after)


def git_commit(root: Path) -> str | None:
    """The checked-out commit read from ``.git`` without running git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "loadavg_start": list(os.getloadavg()),
    }


def gemv_us(m: int, n: int, seed: int = 0) -> dict:
    """Median microseconds of ``A @ x`` and ``A.T @ r`` on contiguous copies, as the library stores them."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    a_t = np.ascontiguousarray(a.T)
    x, r = rng.standard_normal(n), rng.standard_normal(m)
    out = {}
    for key, mat, vec in (("gemv_us", a, x), ("gemvt_us", a_t, r)):
        times = []
        end = perf_counter() + GEMV_SECONDS
        while perf_counter() < end:
            t0 = perf_counter()
            mat @ vec
            times.append(perf_counter() - t0)
        out[key] = 1e6 * statistics.median(times)
    return out


def gemv_us_threaded(m: int, n: int, threads: int) -> dict:
    """``gemv_us`` measured in a separate process with ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), str(m), str(n)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    print(json.dumps(gemv_us(int(sys.argv[1]), int(sys.argv[2]))))
