"""Synthetic test problems: Gaussian matrices, controlled-spectrum matrices,
consistent right-hand sides, and null-space noise for inconsistent systems.

All generators are deterministic under a fixed seed (numpy's PCG64 generator).
Instances serialize to a directory holding A.mtx, b.mtx, xstar.mtx, and
meta.json, and deserialize back bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cgls import CglsConfig, cgls
from .errors import GenerationError, SubsolverError, UsageError
from .linalg import ZERO_SIGMA_REL, DenseMatrix, orthonormalize_columns
from .mmio import read_json, read_matrix, read_vector, write_json, write_matrix, write_vector

# Reference solutions are pinned down by the CGLS oracle at this tolerance.
_ORACLE_TOL = 1e-12


@dataclass
class ProblemInstance:
    """A coefficient matrix with its right-hand side and reference solution.

    ``x_star`` is the least-norm solution for consistent instances and the
    least-squares solution otherwise; both are what the solvers' relative
    solution error is measured against.
    """

    A: DenseMatrix
    b: np.ndarray
    x_star: np.ndarray
    consistent: bool
    seed: int
    meta: dict = field(default_factory=dict)


def gen_randn(m: int, n: int, seed: int) -> DenseMatrix:
    """Dense m x n matrix with i.i.d. standard-normal entries."""
    if m < 1 or n < 1:
        raise UsageError("matrix dimensions must be positive")
    rng = np.random.default_rng(seed)
    return DenseMatrix(rng.standard_normal((m, n)))


def gen_smatrix(m: int, n: int, r: int, sigma1: float, sigma2: float, seed: int) -> DenseMatrix:
    """Rank-r matrix with prescribed extreme singular values.

    Built as U diag(s) V.T with orthonormalized Gaussian factors; the first
    r - 2 spectrum entries are drawn uniformly from (sigma2, sigma1) and the
    last two are sigma2 and sigma1 themselves, so the largest and smallest
    nonzero singular values are exactly the requested ones.
    """
    if r < 2:
        raise UsageError(f"rank must be at least 2, got {r}")
    if r > min(m, n):
        raise UsageError(f"rank {r} exceeds min(m, n) = {min(m, n)}")
    if not sigma1 > sigma2 > 0.0:
        raise UsageError(f"need sigma1 > sigma2 > 0, got {sigma1}, {sigma2}")
    rng = np.random.default_rng(seed)
    left = _orthonormal_draw(rng, m, r)
    right = _orthonormal_draw(rng, n, r)
    spectrum = np.concatenate([rng.uniform(sigma2, sigma1, size=r - 2), [sigma2, sigma1]])
    return DenseMatrix((left * spectrum) @ right.T)


def _orthonormal_draw(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    for _ in range(3):
        try:
            return orthonormalize_columns(rng.standard_normal((rows, cols)))
        except GenerationError:
            continue
    raise GenerationError(f"could not draw {rows}x{cols} factor with full column rank")


def _reference_solution(a: DenseMatrix, b: np.ndarray, x_gen: np.ndarray) -> np.ndarray:
    """The generating vector when CGLS confirms it as the reference, else the SVD reference.

    For full-column-rank matrices the minimum-norm solve reproduces the
    generating vector, which is then exact and preferred. Otherwise (wide or
    rank-deficient matrices, or CGLS out of budget on an ill-conditioned one)
    the least-norm / least-squares point the solvers converge to comes from
    LAPACK's SVD solve, since CGLS may stop far from it there.
    """
    try:
        x_ref = cgls(a, b, CglsConfig(rel_tol=_ORACLE_TOL))
    except SubsolverError:
        x_ref = None
    scale = max(float(np.linalg.norm(x_gen)), 1.0)
    if x_ref is not None and float(np.linalg.norm(x_ref - x_gen)) <= 1e-8 * scale:
        return x_gen
    return np.linalg.lstsq(a.entries, b, rcond=ZERO_SIGMA_REL)[0]


def make_consistent(a: DenseMatrix, seed: int, meta: dict | None = None) -> ProblemInstance:
    """Draw x* from the standard normal and set b = A x*.

    For rank-deficient matrices the stored reference solution is replaced by
    the least-norm solution so the error measure targets the point the row
    methods actually converge to.
    """
    rng = np.random.default_rng(seed)
    x_gen = rng.standard_normal(a.n)
    b = a.matvec(x_gen)
    x_star = _reference_solution(a, b, x_gen)
    info = {"case": "consistent"}
    info.update(meta or {})
    return ProblemInstance(A=a, b=b, x_star=x_star, consistent=True, seed=seed, meta=info)


def make_inconsistent(
    a: DenseMatrix,
    seed: int,
    noise_scale: float = 0.1,
    meta: dict | None = None,
) -> ProblemInstance:
    """Perturb a consistent right-hand side with noise from the null space of A.T.

    The noise is a random draw with the range of A projected out (twice, for
    numerical orthogonality), scaled to ``noise_scale`` times ||A x*||. It
    moves the residual but not the least-squares solution. Requires the
    orthogonal complement of range(A) to be nontrivial.
    """
    if not noise_scale > 0.0:  # also NaN
        raise UsageError(f"noise_scale must be positive, got {noise_scale}")
    rng = np.random.default_rng(seed)
    x_gen = rng.standard_normal(a.n)
    b_range = a.matvec(x_gen)
    range_norm = float(np.linalg.norm(b_range))
    if range_norm == 0.0:
        raise GenerationError("A x* vanished; cannot scale null-space noise")
    basis = np.linalg.qr(a.entries)[0]  # orthonormal, spans range(A)
    noise = None
    for _ in range(3):
        draw = rng.standard_normal(a.m)
        candidate = draw - basis @ (basis.T @ draw)
        candidate -= basis @ (basis.T @ candidate)
        if float(np.linalg.norm(candidate)) > 1e-6 * float(np.linalg.norm(draw)):
            noise = candidate
            break
    if noise is None:
        raise GenerationError(
            "null-space projection produced a near-zero vector; "
            "the matrix has (numerically) full row rank"
        )
    noise *= noise_scale * range_norm / float(np.linalg.norm(noise))
    b = b_range + noise
    x_star = _reference_solution(a, b, x_gen)
    info = {"case": "inconsistent", "noise_scale": noise_scale}
    info.update(meta or {})
    return ProblemInstance(A=a, b=b, x_star=x_star, consistent=False, seed=seed, meta=info)


def save_instance(instance: ProblemInstance, directory) -> Path:
    """Write A.mtx, b.mtx, xstar.mtx, and meta.json into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(directory / "A.mtx", instance.A)
    write_vector(directory / "b.mtx", instance.b)
    write_vector(directory / "xstar.mtx", instance.x_star)
    write_json(directory / "meta.json", {
        "consistent": instance.consistent,
        "seed": instance.seed,
        "meta": instance.meta,
    })
    return directory


def load_instance(directory) -> ProblemInstance:
    directory = Path(directory)
    payload = read_json(directory / "meta.json")
    if not isinstance(payload, dict) or not {"consistent", "seed"} <= payload.keys():
        raise UsageError(f"{directory / 'meta.json'} must be an object with 'consistent' and "
                         "'seed' keys")
    return ProblemInstance(
        A=read_matrix(directory / "A.mtx"),
        b=read_vector(directory / "b.mtx"),
        x_star=read_vector(directory / "xstar.mtx"),
        consistent=bool(payload["consistent"]),
        seed=payload["seed"],
        meta=payload.get("meta", {}),
    )
