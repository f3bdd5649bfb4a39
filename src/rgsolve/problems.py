"""Synthetic test problems: Gaussian matrices, controlled-spectrum matrices,
consistent right-hand sides, and null-space noise for inconsistent systems.

All generators are deterministic under a fixed seed (numpy's PCG64 generator),
and none runs an iterative solve. Instances serialize to a directory holding
A.mtx, b.mtx, xstar.mtx, and meta.json, and deserialize back bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cgls import cgls  # noqa: F401  (set-up calls no CGLS; perfbench's tracer patches it)
from .errors import GenerationError, UsageError
from .linalg import ZERO_SIGMA_REL, DenseMatrix, _full_rank, orthonormalize_columns
from .mmio import read_json, read_matrix, read_vector, write_json, write_matrix, write_vector

_GRAM_FLOOR = np.finfo(float).tiny / ZERO_SIGMA_REL


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
    return DenseMatrix._of(rng.standard_normal((m, n)))


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
    return DenseMatrix._of((left * spectrum) @ right.T)


def _orthonormal_draw(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    for _ in range(3):
        try:
            return orthonormalize_columns(rng.standard_normal((rows, cols)))
        except GenerationError:
            continue
    raise GenerationError(f"could not draw {rows}x{cols} factor with full column rank")


def _reference_solution(a: DenseMatrix, b: np.ndarray, x_gen: np.ndarray) -> np.ndarray:
    """The generating vector when A is proven of full column rank, else the SVD reference.

    ``b`` is ``A x_gen`` plus noise orthogonal to range(A), so with full column
    rank ``x_gen`` is the least-squares point, exactly. The proof is a Cholesky
    of the kept Gram (``_full_rank``), taken when ``frob_sq`` is finite, so no
    partial sum of the Gram overflows, and at least ``_GRAM_FLOOR``, so lost
    subnormal products cannot fake it. Every other matrix takes the SVD solve.
    """
    if a.n <= a.m and _GRAM_FLOOR <= a.frob_sq < np.inf and _full_rank(a.gram):
        return x_gen
    return np.linalg.lstsq(a.entries, b, rcond=ZERO_SIGMA_REL)[0]


def make_consistent(a: DenseMatrix, seed: int, meta: dict | None = None) -> ProblemInstance:
    """Draw x* from the standard normal and set b = A x*.

    Unless A is proven of full column rank, the stored reference is the
    least-norm solution, the point the row methods converge to.
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
    with np.errstate(over="ignore"):  # overflowing squares are left to LAPACK below
        range_norm = float(np.linalg.norm(b_range))
    if range_norm == np.inf:  # the SVD, as norm(ord=2) takes it, rescales its input
        range_norm = float(np.linalg.norm(b_range[:, None], 2))
    if range_norm == 0.0:
        raise GenerationError("A x* vanished; cannot scale null-space noise")
    basis = np.linalg.qr(a.entries)[0]  # orthonormal, spans range(A)
    for _ in range(3):
        draw = rng.standard_normal(a.m)
        noise = draw - basis @ (basis.T @ draw)
        noise -= basis @ (basis.T @ noise)
        if float(np.linalg.norm(noise)) > 1e-6 * float(np.linalg.norm(draw)):
            break
    else:
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
