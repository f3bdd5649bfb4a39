"""Column-action methods: CD, RGRCD, RGDC, AMDCD, and RBCD.

Column methods update coordinates of x using columns of A and converge to the
least-squares solution whether or not the system is consistent. The working
vector is ``y = A.T r``; it drives all selection rules, so adding any
perturbation from the null space of A.T to b leaves the iterates unchanged.
A step on the column set S with weights w moves y by ``w @ G[S]``, rows of the
Gram matrix ``G = A.T @ A`` that the matrix caches on first use: O(s*n) per
step, independent of m. On wide matrices (n > m), where no Gram is kept, the
move is ``A.T @ (A[:, S] @ w)`` instead. RBCD applies the inverse of
``G[S, S]`` (on wide matrices of ``A_S.T @ A_S``) to ``y[S]``; the matrix
keeps each partition block's inverse from its first use. Cyclic CD
advances in sweep blocks of up to ``SWEEP_BLOCK`` consecutive columns
(``cd_sweep``): their successive coordinate steps are one Gauss-Seidel
solve on ``tril(G[S, S])``, read from the triangle that the matrix keeps for
each ``SWEEP_BLOCK`` partition block (and, from a run's second pass over the
columns on, its inverse, applied in O(s^2)), and one move of y. A block ends at
the next partition block or refresh of y, before the first zero column, which
raises when a block starts on it, and at its first iteration on the floor.
No column method carries the residual r itself; y is recomputed from x every
100 iterations, on tall matrices as ``A.T b - G x`` (O(n^2), with ``A.T b``
kept from the start) and on wide ones as ``A.T (b - A x)``. The matrix keeps
``A.T b`` and its norm for the last b a solve asked about (``_normal_rhs``),
so a solve that repeats that b, byte for byte, starts from them after an O(m)
comparison instead of a transposed GEMV. RGDC's step
length divides by ``||A_S y_S||^2``, read on tall matrices as the quadratic
form ``y_S.T G[S, S] y_S``, O(s) once y's move ``y_S.T G[S]`` is formed;
when that form falls below ``GRAM_WEIGHT_REL`` of ``sum_j y_j^2 ||A_j||^2``
over S, the columns nearly cancel and the weight is formed from ``A_S y_S``
(O(m*s)) instead. So between start and stop a tall run touches length-m
data only for RGDC's step records, which read the energy error
``||A (x - x*)||^2`` from the solve loop's ``x - x*`` (one GEMV per recorded
step; a recorded RGRCD run reads it only at its start and end), and in
RBCD's least-squares fallback. A tall run from x = 0 whose b repeats the kept
one thus touches no m x n data from start to stop outside those cases and
RGDC's cancelling-columns weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgls import CglsConfig, cgls
from .errors import DegenerateStepError, RgsolveError, UsageError
from .linalg import NO_FACTOR, SWEEP_BLOCK, DenseMatrix, _block_index
from .selection import (
    SelectionConfig,
    _draw_by_square,
    column_losses_from_y,
    make_partition,  # noqa: F401  (no solve calls it; perfbench's tracer patches it)
    max_distance_set,
    relaxed_greedy_set,
)
from .state import (
    _block_errors,
    MethodFamily,
    SolveReport,
    SolveState,
    StopRule,
    solve_loop,
)

COL_METHODS = ("cd", "rgrcd", "rgdc", "amdcd", "rbcd")

# A run is stationary once ||y|| = ||A.T r|| falls to this fraction of ||A.T b||.
STATIONARITY_REL = 1e-14

# Only a cd sweep block that would end with ||y|| within this multiple of the stationarity
# floor forms y after each of its iterations, to end at the first on the floor: near it, y's
# rounding noise can dip below it inside a block and rise above it by the block's end. Formed
# in every block, they made a 5000x300 cd solve about twice as slow.
SWEEP_FLOOR_MARGIN = 1e3

# y is recomputed from x this often, and the run fails if its recursion drifted by
# more than _DRIFT_REL of its scale.
REFRESH_EVERY = 100
_DRIFT_REL = 1e-8

# RGDC's Gram-form weight ``y_S.T G[S, S] y_S`` is trusted only down to this fraction of
# ``sum_j y_j^2 G_jj``; below it the selected columns nearly cancel, the form's rounding
# (about s * (m + s) * eps of that sum) is no longer small against it, and the weight
# is formed from ``A_S y_S`` instead.
GRAM_WEIGHT_REL = 1e-4


def _normal_product(a: DenseMatrix, indices, w, applied: np.ndarray | None = None) -> np.ndarray:
    """``A.T @ (A[:, indices] @ w)``, the move of y for the step ``x[indices] += w``.

    Through rows of the Gram when A has one, in O(s*n); otherwise through
    ``applied = a.entries[:, indices] @ w``, formed here (O(m*s)) if not given.
    """
    gram = a.gram
    if gram is not None:
        return np.dot(w, gram[indices])
    if applied is None:
        applied = a.entries[:, indices] @ w
    return a.matvec_transpose(applied)


def cd_step(state: SolveState, a: DenseMatrix, j: int) -> None:
    """Exactly minimize the residual along coordinate ``j``, a nonzero column."""
    y_j = float(state.y[j])
    if y_j != 0.0:
        delta = y_j / float(a.col_sqnorms[j])
        state.x[j] += delta
        gram = a.gram
        state.y -= delta * (a.matvec_transpose(a.entries[:, j]) if gram is None else gram[j])


def cd_sweep(state: SolveState, a: DenseMatrix, cols: slice, dx: np.ndarray,
             revisit: bool) -> tuple[np.ndarray, np.ndarray]:
    """``cd_step`` on each of ``cols`` (nonzero, in order) as one Gauss-Seidel solve.

    The successive coordinate steps add delta to ``x[cols]``, where delta
    solves ``tril(G[S, S]) delta = y[S]`` (``A_S.T A_S`` on wide matrices):
    each column's y counts the moves of the columns before it. Returns delta,
    which the caller applies, and how much each step changes
    ``||x - x*||^2``, given ``dx = x - x*`` before the first:
    ``delta_t (2 dx_t + delta_t)``, since each column of the block moves once.
    The triangle and, for a ``revisit`` on a later pass, its inverse come from
    ``DenseMatrix._sweep_solve``.
    """
    delta = a._sweep_solve(1, cols, state.y[cols], revisit)[0]
    return delta, delta * (2.0 * dx[cols] + delta)


def rgdc_step(state: SolveState, a: DenseMatrix, indices: np.ndarray) -> None:
    """Aggregate the selected coordinates, weighted by y, into one correction.

    With xi supported on ``indices`` carrying the values of y there, the update
    is ``x += (xi.T y / ||A xi||^2) xi``; afterwards xi is orthogonal to the
    new y. With a Gram, ``||A xi||^2`` is read off the move of y as
    ``y_S.T G[S, S] y_S`` unless that falls below ``GRAM_WEIGHT_REL`` of
    ``sum_j y_j^2 ||A_j||^2``, where ``A xi`` is formed instead. Raises
    DegenerateStepError if ``A xi`` vanishes, which requires the selected
    columns to cancel exactly.
    """
    y_sel = state.y[indices]
    h1 = float(y_sel.dot(y_sel))
    if h1 <= 0.0:
        return
    move = None if a.gram is None else _normal_product(a, indices, y_sel)  # A.T A_S y_S
    h2 = None if move is None else float(move[indices].dot(y_sel))  # y_S.T G[S, S] y_S
    if h2 is None or h2 <= GRAM_WEIGHT_REL * float((y_sel * y_sel).dot(a.col_sqnorms[indices])):
        combined = a.entries[:, indices].dot(y_sel)
        h2 = float(combined.dot(combined))
        if h2 <= 0.0:
            raise DegenerateStepError(
                "selected columns cancel exactly; aggregate step is degenerate")
        if move is None:
            move = _normal_product(a, indices, y_sel, combined)
    weight = h1 / h2
    state.x[indices] += weight * y_sel
    state.y -= weight * move


def rgrcd_step(state: SolveState, a: DenseMatrix, indices: np.ndarray, rng: np.random.Generator,
               squares: np.ndarray) -> None:
    """Sample one coordinate from the selected set with probability proportional
    to its squared y value, then apply the coordinate step. ``squares`` is ``y * y``,
    as ``LossProfile.squares`` keeps it."""
    cd_step(state, a, _draw_by_square(squares, indices, rng))


def amdcd_step(state: SolveState, a: DenseMatrix, indices: np.ndarray) -> None:
    """Update every selected coordinate simultaneously with its own weight y_j / ||col_j||^2.

    Pseudoinverse-free: correlated columns in the set are not reconciled, so
    the combined move can overshoot; the rule is applied exactly as stated.
    """
    weights = state.y[indices] / a.col_sqnorms[indices]
    state.x[indices] += weights
    state.y -= _normal_product(a, indices, weights)


def rbcd_block_step(state: SolveState, a: DenseMatrix, b: np.ndarray, indices: np.ndarray,
                    inverse) -> None:
    """Least-squares-solve the residual against the selected columns and apply it.

    The correction w solves ``G[S, S] w = y[S]``, the normal equations of
    ``A_S w = r`` (on wide matrices ``G[S, S]`` is ``A_S.T @ A_S``), as
    ``G[S, S]^-1 y[S]`` refined once against ``y[S] - G[S, S] w``, which keeps
    the error of applying an inverse to that of a backward-stable solve.
    ``inverse`` is ``G[S, S]^-1`` as ``a.block_factor(1, indices)`` or
    ``a.partition_factor`` gives it; applying it costs O(s^2) (O(m*s) on wide
    matrices). When the block is numerically singular (``NO_FACTOR``) the
    correction is least squares on ``A_S`` against ``r = b - A x``, formed
    only then.
    """
    block = _block_index(indices)
    cols = a.entries[:, block]
    if inverse is NO_FACTOR:
        w = np.linalg.lstsq(cols, b - a.matvec(state.x), rcond=None)[0]
    else:
        y_sel = state.y[block]
        w = inverse.dot(y_sel)
        gram = a.gram
        # cols and G[S, S] of a slice block are strided views, which .dot would copy first.
        w += inverse.dot(y_sel - (cols.T @ (cols @ w) if gram is None
                                  else gram[block][:, block] @ w))
    state.x[block] += w
    state.y -= _normal_product(a, block, w)


@dataclass
class _ColFamily(MethodFamily):
    """Column hooks: y = A.T r, errors in energy ``||A (x - x*)||``, and the stationarity
    floor on ||y||. Before any step, a solve refuses an ``A.T b`` whose norm is not finite,
    against which that floor would hold at once, and a greedy one a zero column."""

    kind = "column"
    methods = COL_METHODS
    params = {"rgdc": "theta", "rgrcd": "theta", "amdcd": "eta2", "rbcd": "block_size"}

    def __post_init__(self):
        a, state = self.a, self.state
        if self.method in ("rgrcd", "rgdc", "amdcd") and a.zero_col is not None:
            raise UsageError(f"zero column {a.zero_col} unsupported by greedy selection")
        self.atb, self.atb_norm = a._normal_rhs(self.b)
        if not math.isfinite(self.atb_norm):
            raise UsageError(f"A.T b overflows (its norm is {self.atb_norm}); scale A and b down")
        # At x = 0, r is b bit for bit, so y is A.T b; a copy, since steps update y in place.
        state.y = (a.matvec_transpose(self.b - a.matvec(state.x)) if state.x.any()
                   else self.atb.copy())
        self.sqnorms = a.col_sqnorms
        self.stall_window = None
        self.blocks = (a._partition_count(1, self.config.block_size)
                       if self.method == "rbcd" else None)

    def refresh(self) -> None:
        """Recompute y from x, raising when the recursion has drifted from it."""
        a, x = self.a, self.state.x
        gram = a.gram
        fresh = (a.matvec_transpose(self.b - a.matvec(x)) if gram is None
                 else self.atb - gram @ x)
        scale = max(1.0, self.atb_norm + float(np.linalg.norm(fresh)))
        drift = float(np.linalg.norm(fresh - self.state.y))
        if drift > _DRIFT_REL * scale:
            raise RgsolveError(
                f"y recursion drifted beyond tolerance ({drift:.3e} vs scale {scale:.3e})"
            )
        self.state.y = fresh

    def err_sq(self, dx: np.ndarray, dd: float) -> float:
        # As ||A dx||^2, never as dx.T G dx, whose rounding can turn negative.
        ae = self.a.matvec(dx)
        return float(ae.dot(ae))

    def stationary(self) -> bool:
        y = self.state.y
        return math.sqrt(y.dot(y)) <= STATIONARITY_REL * self.atb_norm

    def step(self, dx: np.ndarray, dd: float, budget: int):
        k = self.state.k
        if k and k % REFRESH_EVERY == 0:
            self.refresh()
        if self.method == "cd":
            return self._sweep(dx, dd, budget)
        state, a, config, method = self.state, self.a, self.config, self.method
        if method == "rbcd":
            selected, factor = a._partition_block(1, config.block_size,
                                                  int(self.rng.integers(self.blocks)))
            rbcd_block_step(state, a, self.b, selected, factor)
            return selected, None, (), None
        profile = None
        if method == "amdcd":
            selected = max_distance_set(a, state.y, config.eta2)
        else:
            profile = column_losses_from_y(a, state.y)
            selected = relaxed_greedy_set(profile, config.theta)
        if not selected.size:
            # Nothing to select: y is zero, which after the loop's stationarity check only the
            # refresh above can make it, or it is not finite.
            return "stationary"
        if method == "rgdc":
            rgdc_step(state, a, selected)
        elif method == "rgrcd":
            rgrcd_step(state, a, selected, self.rng, profile.squares)
        else:
            amdcd_step(state, a, selected)
        return selected, profile, (), None

    def _sweep(self, dx: np.ndarray, dd: float, budget: int):
        """A cd sweep block from column ``k mod n``, ending at the next ``SWEEP_BLOCK`` boundary
        or refresh, before the first zero column and at its first iteration on the floor."""
        state, a, zero = self.state, self.a, self.a.zero_col
        k = state.k
        j = k % a.n
        # Blocks end at refreshes, so each refresh comes where single steps would make it.
        end = min(j - j % SWEEP_BLOCK + SWEEP_BLOCK, j + REFRESH_EVERY - k % REFRESH_EVERY,
                  j + budget, a.n if zero is None else zero)
        if end == j:
            raise UsageError(f"zero column {j} cannot drive a coordinate step")
        cols = slice(j, end)
        delta, changes = cd_sweep(state, a, cols, dx, k >= a.n)
        y = state.y - _normal_product(a, cols, delta)
        size, ys, floor = len(delta), None, STATIONARITY_REL * self.atb_norm
        if math.sqrt(y @ y) <= SWEEP_FLOOR_MARGIN * floor:
            # y after each iteration: y_0 minus the moves delta_u A.T a_u so far, summed in order.
            ys = (-delta[:, None] * a.gram[cols] if a.gram is not None
                  else (a.entries[:, cols] * -delta).T @ a.entries)
            ys[0] += state.y
            np.add.accumulate(ys, out=ys)
            at_floor = np.flatnonzero(np.sqrt(np.einsum("ij,ij->i", ys, ys)) <= floor)
            size = int(at_floor[0]) + 1 if len(at_floor) else size
        dx_end = dx.copy()
        dx_end[j:j + size] += delta[:size]

        def apply(count: int) -> None:
            state.x[j:j + count] += delta[:count]
            state.y = (ys[count - 1] if ys is not None else y if count == len(delta)
                       else state.y - _normal_product(a, slice(j, j + count), delta[:count]))

        return (j,), None, _block_errors(dd, changes[:size], float(dx_end @ dx_end)), apply


def run_col_method(
    method: str,
    a: DenseMatrix,
    b,
    *,
    config: SelectionConfig | None = None,
    stop: StopRule | None = None,
    x0=None,
    x_star=None,
    seed: int | None = None,
    cgls_cfg: CglsConfig | None = None,
    record_steps: bool = False,
) -> SolveReport:
    """Iterate the chosen column method until the stop rule fires.

    RSE is measured against the least-squares solution ``x_star``; when not
    supplied it is computed once by the CGLS reference, configured by
    ``cgls_cfg`` (default tolerance 1e-12), which has no other use. Any
    starting point is admissible. Besides the RSE and iteration caps, the run
    stops as stationary once ``||A.T r|| <= STATIONARITY_REL * ||A.T b||``
    (1e-14).
    """
    return solve_loop(_ColFamily, method, a, b, config=config, stop=stop, x0=x0,
                      x_star=x_star, seed=seed, cgls_cfg=cgls_cfg,
                      record_steps=record_steps, reference=cgls)
