"""Dense matrix/vector primitives: cached norms, block solves, orthonormalization, small-scale SVD."""

from __future__ import annotations

import numpy as np

from .errors import GenerationError, RgsolveError, SizeGuardError, UsageError

# Spectral routines are meant for bound verification on small instances only.
SVD_MIN_DIM_LIMIT = 512

# Singular values below this fraction of the largest one are treated as zero.
ZERO_SIGMA_REL = 1e-10


def as_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite 1-D float64 array, checking its length if given."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise UsageError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise UsageError(f"{name} has length {arr.shape[0]}, expected {length}")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{name} contains non-finite entries")
    return arr


def _first_zero(sqnorms: np.ndarray) -> int | None:
    """Index of the first zero entry of ``sqnorms``, or None when all are positive."""
    i = int(np.argmin(sqnorms))
    return i if sqnorms[i] <= 0.0 else None


class DenseMatrix:
    """Immutable dense coefficient matrix with cached row/column squared norms.

    The entry array and a contiguous transposed copy are both kept so row and
    column sweeps are O(m*n) without repeated transposition; matrices in scope
    fit desk memory. The energy weights (squared norms over ``frob_sq``) and
    the first zero row and column (``zero_row``, ``zero_col``; None when there
    is none) are computed once here, so selection reads them at no cost. The
    Gram matrix ``A.T @ A`` (n*n floats) is built on the first ``gram``
    access and kept, but only when n <= m, where it is no larger than either
    copy of A. Instances are safe to share across concurrent solves: the Gram
    is published only once complete, and a race at worst builds it twice.
    """

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2:
            raise UsageError(f"matrix entries must be two-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise UsageError("matrix must have at least one row and one column")
        if not np.all(np.isfinite(arr)):
            raise UsageError("matrix contains non-finite entries")
        self.entries = arr
        self.entries_t = np.ascontiguousarray(arr.T)
        self.row_sqnorms = np.einsum("ij,ij->i", arr, arr)
        self.col_sqnorms = np.einsum("ij,ij->j", arr, arr)
        self.frob_sq = float(self.row_sqnorms.sum())
        # Energy weights ||a_i||^2 / ||A||_F^2 and ||A_j||^2 / ||A||_F^2 for the greedy
        # thresholds; an all-zero matrix has none, and selection rejects its zero rows first.
        with np.errstate(divide="ignore", invalid="ignore"):
            self.row_weights = self.row_sqnorms / self.frob_sq
            self.col_weights = self.col_sqnorms / self.frob_sq
        self.zero_row = _first_zero(self.row_sqnorms)
        self.zero_col = _first_zero(self.col_sqnorms)
        for a in (self.entries, self.entries_t, self.row_sqnorms, self.col_sqnorms,
                  self.row_weights, self.col_weights):
            a.setflags(write=False)
        self._gram = None

    @property
    def gram(self) -> np.ndarray | None:
        """Read-only ``A.T @ A``, built once on first use; None when n > m."""
        if self._gram is None and self.n <= self.m:
            g = self.entries.T @ self.entries
            g.setflags(write=False)
            self._gram = g
        return self._gram

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x`` for a length-n vector ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise UsageError(f"matvec expects a length-{self.n} vector, got shape {x.shape}")
        return self.entries @ x

    def matvec_transpose(self, r) -> np.ndarray:
        """Return ``A.T @ r`` for a length-m vector ``r``."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.m,):
            raise UsageError(
                f"matvec_transpose expects a length-{self.m} vector, got shape {r.shape}"
            )
        return self.entries_t @ r

    def __repr__(self) -> str:
        return f"DenseMatrix({self.m}x{self.n})"


def _min_norm_solve(sub: np.ndarray, rhs: np.ndarray, gram: np.ndarray,
                    normal_rhs: np.ndarray | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution ``w`` of ``sub @ w = rhs`` through an s x s Gram.

    Row blocks (``normal_rhs`` None): ``gram`` is ``sub @ sub.T`` and
    ``w = sub.T @ gram^-1 rhs``, refined once against ``rhs - sub @ w`` (the
    corrected seminormal equations), which takes the error from about
    cond(sub)^2 * eps to cond(sub) * eps. Column blocks: ``gram`` is
    ``sub.T @ sub``, ``normal_rhs`` stands for ``sub.T @ rhs``, and
    ``w = gram^-1 normal_rhs``. Cholesky vets the Gram. When it fails, or the
    smallest squared pivot is below ``ZERO_SIGMA_REL`` times the largest
    diagonal entry, the block is rank deficient in float64, and
    ``numpy.linalg.lstsq`` on ``sub`` gives the minimum-norm answer instead.
    """
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        pivots = None
    if pivots is None or pivots.min() ** 2 < ZERO_SIGMA_REL * np.diagonal(gram).max():
        return np.linalg.lstsq(sub, rhs, rcond=None)[0]
    if normal_rhs is None:
        w = np.linalg.solve(gram, rhs) @ sub
        return w + np.linalg.solve(gram, rhs - sub @ w) @ sub
    return np.linalg.solve(gram, normal_rhs)


def _block_index(indices: np.ndarray):
    """Index that gathers ``indices`` (nonempty): ``slice(lo, hi)``, which gives a view, when
    they are the run lo, ..., hi - 1 (a ``make_partition`` block), else the array itself."""
    if (np.diff(indices) == 1).all():
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


def orthonormalize_columns(raw) -> np.ndarray:
    """Orthonormalize the columns of ``raw`` (m x r), preserving their span.

    Raises GenerationError when the input is numerically rank deficient
    (smallest R-diagonal magnitude <= 1e-10 times the largest); the caller is
    expected to retry with a fresh random draw.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2:
        raise UsageError(f"expected a 2-D value grid, got shape {arr.shape}")
    if arr.shape[0] < arr.shape[1]:
        raise UsageError("cannot orthonormalize more columns than rows")
    q, r = np.linalg.qr(arr)
    diag = np.diag(r)
    mags = np.abs(diag)
    if mags.max() == 0.0 or mags.min() <= 1e-10 * mags.max():
        raise GenerationError("columns are numerically rank deficient; retry with a new draw")
    # Fix the QR sign ambiguity so diagonal scalings map to the identity.
    signs = np.where(diag >= 0.0, 1.0, -1.0)
    return q * signs


def singular_values(a) -> np.ndarray:
    """Nonincreasing nonzero singular values of ``a`` via LAPACK (``numpy.linalg.svd``).

    ``a`` may be a DenseMatrix or a raw 2-D array. Values below
    ``ZERO_SIGMA_REL`` times the largest singular value are treated as zero
    and dropped. Guarded to min(m, n) <= 512; larger instances must skip
    bound verification.
    """
    arr = a.entries if isinstance(a, DenseMatrix) else np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise UsageError(f"expected a matrix, got shape {arr.shape}")
    m, n = arr.shape
    if min(m, n) > SVD_MIN_DIM_LIMIT:
        raise SizeGuardError(
            f"min(m, n) = {min(m, n)} exceeds the {SVD_MIN_DIM_LIMIT} guard; "
            "skip bound verification for this instance"
        )
    try:
        sig = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RgsolveError(f"singular value decomposition failed: {exc}") from exc
    if sig.size == 0 or sig[0] == 0.0:
        return np.empty(0)
    return sig[sig >= ZERO_SIGMA_REL * sig[0]]


def sigma_extremes(a) -> tuple[float, float]:
    """Largest and smallest nonzero singular values of ``a``."""
    sig = singular_values(a)
    if sig.size == 0:
        raise UsageError("zero matrix has no nonzero singular values")
    return float(sig[0]), float(sig[-1])
