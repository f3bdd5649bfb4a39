"""Dense matrix/vector primitives: cached norms, Gram, block inverses, sweep triangles and
``A.T b``, orthonormalization, small-scale SVD."""

from __future__ import annotations

import numpy as np

from .errors import GenerationError, RgsolveError, SizeGuardError, UsageError

# Spectral routines are meant for bound verification on small instances only.
SVD_MIN_DIM_LIMIT = 512

# Singular values below this fraction of the largest one are treated as zero.
ZERO_SIGMA_REL = 1e-10

# What a rank-deficient block keeps in place of its Gram inverse: it is solved by least
# squares at every step.
NO_FACTOR = object()

# Iterations that a cyclic method (kaczmarz, cd) advances per sweep block. Larger blocks
# spread the fixed cost of their numpy calls over more iterations but cost O(s^2 n + s^3);
# at n = 100 and 300 (one BLAS thread) solve times were flat from 32 to 64. 50 divides
# col_methods.REFRESH_EVERY, so cd blocks stay full between refreshes.
SWEEP_BLOCK = 50
# The lower triangle of every sweep block, made once: np.tril makes its mask on every call.
_SWEEP_LOWER = np.tri(SWEEP_BLOCK)
_SWEEP_LOWER.setflags(write=False)


def as_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite 1-D float64 array, checking its length if given."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise UsageError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise UsageError(f"{name} has length {arr.shape[0]}, expected {length}")
    if not np.isfinite(arr).all():
        raise UsageError(f"{name} contains non-finite entries")
    return arr


def _first_zero(sqnorms: np.ndarray) -> int | None:
    """Index of the first zero entry of ``sqnorms``, or None when all are positive."""
    i = int(np.argmin(sqnorms))
    return i if sqnorms[i] <= 0.0 else None


class DenseMatrix:
    """Immutable dense coefficient matrix with cached row/column squared norms.

    ``entries`` is the only m x n array, and building makes no other: ``A.T @ r``
    is a transposed GEMV on it. The squared norms, ``frob_sq`` and the first
    zero row and column (``zero_row``, ``zero_col``; None when there is none)
    are computed once here, so selection reads them at no cost. The Gram
    matrix ``A.T @ A`` (n*n floats) is built on the first ``gram`` access and
    kept, but only when n <= m, where it is no larger than A. The generators'
    rank proof builds it, so their tall instances carry it from set-up.

    For ``rbk`` and ``rbcd``, ``partition_factor`` keeps the ``block_factor``
    (the inverse of the block's Gram) of each block of one ``make_partition``
    per axis, built on the block's first use; only the last block size asked
    for is kept. With block size s the row inverses hold at most ``m * s``
    floats and the column ones ``n * s``, and a block larger than the other
    dimension is rank deficient and keeps only ``NO_FACTOR``, so they are
    never larger than A or ``n * n``. For ``kaczmarz`` and ``cd``,
    ``_sweep_solve`` keeps a table of its own, which no block size displaces,
    with a slot per block of the ``SWEEP_BLOCK`` partition of each axis: the
    lower triangle of the block's Gram from the first solve on any part of
    it, and its inverse once a solve comes back to it on a later pass. Row slots
    hold at most ``2 * SWEEP_BLOCK * m`` floats and column slots
    ``2 * SWEEP_BLOCK * n``; an axis keeps none when the other dimension is
    below ``SWEEP_BLOCK``, where a block's triangle outweighs its rows or
    columns of A (at 1e6 x 10, row slots would hold ten times A). For the
    column methods, ``_normal_rhs`` keeps one entry: a read-only copy of the
    last right-hand side b that a solve asked about, ``A.T b`` and its norm,
    m + n floats and one scalar. A solve whose b matches the copy byte for
    byte reuses them after an O(m) comparison; any other b replaces them.
    Instances are safe to share across concurrent solves and certifications:
    the Gram, each inverse, each sweep slot, the ``A.T b`` entry and the
    read-only ``singular_values`` that ``sigma_extremes`` keeps from its first
    call are published only once complete, and a race at worst builds one
    twice (solves at two block sizes, or on two right-hand sides, at once
    displace each other's partition or entry, which costs rebuilds, never a
    wrong factor or ``A.T b``).
    """

    def __init__(self, entries):
        self._adopt(np.array(entries, dtype=float))

    @classmethod
    def _of(cls, arr: np.ndarray) -> DenseMatrix:
        """``DenseMatrix(arr)`` without the copy, for a new float64 array no one else holds."""
        return cls.__new__(cls)._adopt(arr)

    def _adopt(self, arr: np.ndarray) -> DenseMatrix:
        if arr.ndim != 2:
            raise UsageError(f"matrix entries must be two-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise UsageError("matrix must have at least one row and one column")
        self.entries = arr
        self.m, self.n = arr.shape
        self.row_sqnorms = np.einsum("ij,ij->i", arr, arr)
        self.col_sqnorms = np.einsum("ij,ij->j", arr, arr)
        self.frob_sq = float(self.row_sqnorms.sum())
        # frob_sq is non-finite for NaN/inf entries and for overflowing squares; only then scan.
        if not np.isfinite(self.frob_sq) and not np.all(np.isfinite(arr)):
            raise UsageError("matrix contains non-finite entries")
        self.zero_row = _first_zero(self.row_sqnorms)
        self.zero_col = _first_zero(self.col_sqnorms)
        for a in (self.entries, self.row_sqnorms, self.col_sqnorms):
            a.setflags(write=False)
        self._gram = self._sigma = self._rhs = None
        # Per axis: (block size, a slot per partition block, None until built), for
        # partition_factor and for _sweep_solve.
        self._factors = [(0, []), (0, [])]
        self._sweeps = [(0, []), (0, [])]
        return self

    @property
    def gram(self) -> np.ndarray | None:
        """Read-only ``A.T @ A``, built once on first use; None when n > m."""
        gram = self._gram
        if gram is None and self.n <= self.m:
            gram = self._gram = _read_only(self.entries.T @ self.entries)
        return gram

    def _normal_rhs(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """Read-only ``A.T b`` and its norm (inf or NaN when they overflow) for a length-m
        float64 ``b``, kept with a copy of ``b``: a later call whose ``b`` matches that copy
        byte for byte (so ``-0.0`` is not ``0.0``) reuses them after an O(m) comparison.
        Any other ``b`` replaces the entry."""
        kept = self._rhs
        if kept is not None and kept[0].tobytes() == b.tobytes():
            return kept[1], kept[2]
        with np.errstate(over="ignore", invalid="ignore"):
            atb = _read_only(self.matvec_transpose(b))
            norm = float(np.linalg.norm(atb))
        self._rhs = (_read_only(b.copy()), atb, norm)
        return atb, norm

    def _block_gram(self, axis: int, block) -> np.ndarray:
        """Gram of the rows (axis 0) or columns (axis 1) that ``block`` (a slice or index
        array) picks: ``A_S @ A_S.T`` for rows, ``G[S, S]`` for columns (``A_S.T @ A_S``
        when no Gram is kept)."""
        if axis == 0:
            sub = self.entries[block]
            return sub @ sub.T
        gram = self.gram
        if gram is not None:
            return gram[block][:, block]
        cols = self.entries[:, block]
        return cols.T @ cols

    def block_factor(self, axis: int, block):
        """Read-only inverse of ``_block_gram(axis, block)``; NO_FACTOR when that is rank
        deficient (see ``_gram_inverse``). Built afresh on every call."""
        return _gram_inverse(self._block_gram(axis, block))

    def _slots(self, table: list, axis: int, block_size: int) -> list:
        """The slots of ``table`` (``_factors`` or ``_sweeps``) for the blocks of
        ``block_size`` along ``axis``, emptied when the table held another size."""
        size, slots = table[axis]
        if size != block_size:
            slots = [None] * -(-self.entries.shape[axis] // block_size)
            table[axis] = (block_size, slots)
        return slots

    def _partition_count(self, axis: int, block_size: int) -> int:
        """How many blocks ``make_partition(count, block_size)`` makes over the rows (axis 0)
        or columns (axis 1): the slots of the ``partition_factor`` table, set to that size."""
        return len(self._slots(self._factors, axis, int(block_size)))

    def _partition_block(self, axis: int, block_size: int, index: int) -> tuple[range, object]:
        """Block ``index`` of ``make_partition(count, block_size)`` as a range, without
        building the partition, and its ``partition_factor``."""
        block_size = int(block_size)
        lo = index * block_size
        return (range(lo, min(lo + block_size, self.entries.shape[axis])),
                self.partition_factor(axis, block_size, index))

    def partition_factor(self, axis: int, block_size: int, index: int):
        """``block_factor`` of block ``index`` of ``make_partition(count, block_size)``
        over the rows (axis 0) or columns (axis 1), built on first use and kept until
        a solve asks for another block size on that axis."""
        block_size = int(block_size)
        slots = self._slots(self._factors, axis, block_size)
        factor = slots[index]
        if factor is None:
            lo = index * block_size
            factor = slots[index] = self.block_factor(axis, slice(lo, lo + block_size))
        return factor

    def _sweep_solve(self, axis: int, block: slice, rhs: np.ndarray,
                     revisit: bool) -> tuple[np.ndarray, np.ndarray]:
        """z with ``tril(K) z = rhs`` for ``K = _block_gram(axis, block)`` (a Gauss-Seidel
        sweep from zero on the block's equations), and that triangle, ``L[p, p]`` for the
        kept triangle L of the ``SWEEP_BLOCK`` partition block that holds ``block`` at p. A
        first pass (``revisit`` false) solves with it; a later pass applies ``inv(L)[p, p]``,
        its inverse as L is triangular, and refines z once against ``rhs - L[p, p] z``."""
        lo, hi = block.start, block.stop
        if self.entries.shape[1 - axis] < SWEEP_BLOCK:
            lower = self._block_gram(axis, block) * _SWEEP_LOWER[:hi - lo, :hi - lo]
            return np.linalg.solve(lower, rhs), lower
        slots, (index, at) = self._slots(self._sweeps, axis, SWEEP_BLOCK), divmod(lo, SWEEP_BLOCK)
        if slots[index] is None:
            gram = self._block_gram(axis, slice(lo - at, lo - at + SWEEP_BLOCK))
            slots[index] = (_read_only(gram * _SWEEP_LOWER[:len(gram), :len(gram)]), None)
        lower, inverse = slots[index]
        if revisit and inverse is None:
            inverse = _read_only(np.linalg.inv(lower))
            slots[index] = (lower, inverse)
        if hi - lo < len(lower):  # L[p, p] is L itself for a whole block, which takes no view
            p = slice(at, at + hi - lo)
            lower, inverse = lower[p, p], inverse[p, p] if revisit else None
        if not revisit:
            return np.linalg.solve(lower, rhs), lower
        z = inverse.dot(rhs)
        z += inverse.dot(rhs - lower.dot(z))
        return z, lower

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x`` for a length-n vector ``x``. Like the single steps' vector
        products, it calls ``ndarray.dot``: the BLAS call of ``@`` without its dispatch cost."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise UsageError(f"matvec expects a length-{self.n} vector, got shape {x.shape}")
        return self.entries.dot(x)

    def matvec_transpose(self, r) -> np.ndarray:
        """Return ``A.T @ r`` for a length-m vector ``r``."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.m,):
            raise UsageError(
                f"matvec_transpose expects a length-{self.m} vector, got shape {r.shape}"
            )
        return self.entries.T.dot(r)

    def __repr__(self) -> str:
        return f"DenseMatrix({self.m}x{self.n})"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _full_rank(gram: np.ndarray) -> bool:
    """Whether the s x s Gram of a block has full rank in float64.

    Cholesky vets the Gram. When it fails, or the smallest squared pivot is
    below ``ZERO_SIGMA_REL`` times the largest diagonal entry, the block is
    rank deficient, and the block steps take the minimum-norm least-squares
    correction from ``numpy.linalg.lstsq`` instead.
    """
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return False
    return not pivots.min() ** 2 < ZERO_SIGMA_REL * np.diagonal(gram).max()


def _gram_inverse(gram: np.ndarray):
    """Read-only inverse of the s x s Gram of a block, or NO_FACTOR when it is rank
    deficient (see ``_full_rank``)."""
    if not _full_rank(gram):
        return NO_FACTOR
    return _read_only(np.linalg.inv(gram))


def _block_index(indices: np.ndarray):
    """Index that gathers ``indices`` (nonempty, sorted and distinct, as ``nonzero()`` sets
    and the rbk/rbcd blocks, ranges, are): ``slice(lo, hi)``, which gives a view, when they
    are the run lo, ..., hi - 1, else the array itself. For sorted distinct integers that is
    exactly when ``hi - lo`` equals their number, an O(1) test."""
    lo, hi = int(indices[0]), int(indices[-1]) + 1
    return slice(lo, hi) if hi - lo == len(indices) else indices


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
    """Largest and smallest nonzero singular values of ``a``, kept by a DenseMatrix."""
    sig = getattr(a, "_sigma", None)
    if sig is None:
        sig = singular_values(a)
        if isinstance(a, DenseMatrix):
            a._sigma = _read_only(sig)
    if sig.size == 0:
        raise UsageError("zero matrix has no nonzero singular values")
    return float(sig[0]), float(sig[-1])
