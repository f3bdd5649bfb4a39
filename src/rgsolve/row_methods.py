"""Row-action methods: Kaczmarz, RGRK, RGDR, GBK, and RBK.

Each step enforces the projection condition that the aggregated constraint
direction is orthogonal to the new residual. No row method carries the
residual: without a row Gram ``A @ A.T`` (O(m^2) memory), the recursion
``r -= weight * A @ d`` costs the same GEMV as ``b - A @ x``, which RGRK,
RGDR and GBK form at the start of each step (none at x = 0) since they
select on all of r. Cyclic Kaczmarz and RBK read ``b_S - A_S @ x`` for
their rows only, in O(s*n). A block projection solves with the selected
rows' Gram ``A_S @ A_S.T``: GBK, whose set changes every step, solves with
the Gram it forms, and RBK, whose blocks are those of one partition, applies
the inverse that the matrix keeps for each block from its first use.
Cyclic Kaczmarz advances in sweep blocks of up to ``SWEEP_BLOCK``
consecutive rows (``kaczmarz_sweep``): their successive projections are one
Gauss-Seidel solve on ``tril(A_S @ A_S.T)``, which the matrix keeps for each
partition block, in a few numpy calls where single steps would cost O(n) each
plus the fixed cost of their calls. From a run's second pass over the rows
on, a block applies the triangle's kept inverse: O(s*n + s^2) for s rows,
against O(s^2 n + s^3) to form the triangle on a block's first use. A block ends
before the first zero row, which raises when a block starts on it.

Row methods converge to the least-norm solution of consistent systems when
started in the row space; on inconsistent systems they stall, which the driver
reports as a distinct termination reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgls import CglsConfig, cgls
from .errors import UsageError
from .linalg import NO_FACTOR, SWEEP_BLOCK, DenseMatrix, _block_index, _full_rank
from .selection import (
    SelectionConfig,
    _draw_by_square,
    gbk_set,
    make_partition,  # noqa: F401  (no solve calls it; perfbench's tracer patches it)
    relaxed_greedy_set,
    row_losses,
)
from .state import (
    _block_errors,
    MethodFamily,
    SolveReport,
    SolveState,
    StopRule,
    solve_loop,
    residual,
)

ROW_METHODS = ("kaczmarz", "rgrk", "rgdr", "gbk", "rbk")


def kaczmarz_step(state: SolveState, a: DenseMatrix, residual_i: float, i: int) -> None:
    """Project the iterate onto the hyperplane of row ``i``, whose residual entry
    ``b_i - a_i . x`` is ``residual_i``; row ``i`` is nonzero."""
    if residual_i != 0.0:
        state.x += residual_i / float(a.row_sqnorms[i]) * a.entries[i]


def rgdr_step(state: SolveState, a: DenseMatrix, r: np.ndarray, indices: np.ndarray) -> bool:
    """Aggregate the selected rows, weighted by their residuals, into one projection.

    With eta the residual ``r = b - A x`` masked to ``indices``, the update is
    ``x += (eta.T r / ||A.T eta||^2) A.T eta``. Returns False, with x
    untouched, when ``A.T eta`` vanishes, which means the selected residual
    lies outside the range of A and the method cannot move; True otherwise.
    """
    r_sel = r[indices]
    g1 = float(r_sel.dot(r_sel))
    if g1 <= 0.0:
        return True
    direction = a.entries[indices].T.dot(r_sel)
    g2 = float(direction.dot(direction))
    if g2 <= 0.0:
        return False
    state.x += g1 / g2 * direction
    return True


def rgrk_step(state: SolveState, a: DenseMatrix, r: np.ndarray, indices: np.ndarray,
              rng: np.random.Generator, squares: np.ndarray) -> None:
    """Sample one row from the selected set with probability proportional to its
    squared residual in ``r = b - A x``, then apply the single-row projection.
    ``squares`` is ``r * r``, as ``LossProfile.squares`` keeps it."""
    i = _draw_by_square(squares, indices, rng)
    kaczmarz_step(state, a, float(r[i]), i)


def block_project_step(state: SolveState, a: DenseMatrix, b: np.ndarray, indices: np.ndarray,
                       inverse=None) -> None:
    """Project the iterate orthogonally onto the solution set of the selected rows.

    The correction is the minimum-norm solution of ``A_S dx = r_S``, with
    ``r_S = b_S - A_S x``: ``A_S.T K^-1 r_S`` for ``K = A_S A_S.T``, refined
    once against ``r_S - A_S dx`` (the corrected seminormal equations), which
    takes its error from about cond(A_S)^2 * eps to cond(A_S) * eps.
    ``inverse`` is K^-1 as ``_gram_inverse`` gives it, which costs O(s*n + s^2)
    to apply; when None, K is formed, vetted by ``_full_rank`` and solved
    with, which for a set used once costs less than inverting it. When K is
    rank deficient (``NO_FACTOR``) the correction is least squares on ``A_S``.
    """
    rows = _block_index(indices)
    sub = a.entries[rows]
    rhs = b[rows] - sub.dot(state.x)
    if inverse is None:
        gram = sub @ sub.T
        solve = (lambda v: np.linalg.solve(gram, v)) if _full_rank(gram) else None
    else:
        solve = None if inverse is NO_FACTOR else inverse.dot
    if solve is None:
        state.x += np.linalg.lstsq(sub, rhs, rcond=None)[0]
        return
    dx = solve(rhs).dot(sub)
    state.x += dx + solve(rhs - sub.dot(dx)).dot(sub)


def kaczmarz_sweep(state: SolveState, a: DenseMatrix, b: np.ndarray, rows: slice,
                   dx: np.ndarray, revisit: bool) -> tuple[np.ndarray, np.ndarray]:
    """``kaczmarz_step`` on each of ``rows`` (nonzero, in order) as one Gauss-Seidel solve.

    The successive projections move x by ``z @ A_S``, where z solves
    ``tril(K) z = r_S`` for ``K = A_S A_S.T`` and ``r_S = b_S - A_S x``: each
    row's residual counts the moves of the rows before it. Returns z, which
    the caller applies, and how much each projection changes
    ``||x - x*||^2``, given ``dx = x - x*`` before the first:
    ``z_t (2 a_t.(x_t - x*) + K_tt z_t)``, where ``a_t.(x_t - x*)`` is
    ``(A_S dx)_t`` plus the earlier rows' moves, ``(r_S - K_tt z)_t``.
    ``tril(K)`` and, for a ``revisit`` on a later pass, its inverse come from
    ``DenseMatrix._sweep_solve``.
    """
    sub = a.entries[rows]
    rhs = b[rows] - sub.dot(state.x)
    z, lower = a._sweep_solve(0, rows, rhs, revisit)
    return z, z * (2.0 * (sub.dot(dx) + rhs) - np.diagonal(lower) * z)


@dataclass
class _RowFamily(MethodFamily):
    """Row hooks: errors in x and a stall window of 10*m. Before any step, a greedy solve
    refuses a zero row."""

    kind = "row"
    methods = ROW_METHODS
    params = {"rgdr": "theta", "rgrk": "theta", "gbk": "eta1", "rbk": "block_size"}

    def __post_init__(self):
        if self.method in ("rgrk", "rgdr", "gbk") and self.a.zero_row is not None:
            raise UsageError(f"zero row {self.a.zero_row} unsupported by greedy selection")
        self.sqnorms = self.a.row_sqnorms
        self.blocks = (self.a._partition_count(0, self.config.block_size)
                       if self.method == "rbk" else None)
        self.stall_window = 10 * self.a.m

    def err_sq(self, dx: np.ndarray, dd: float) -> float:
        return dd

    def step(self, dx: np.ndarray, dd: float, budget: int):
        if self.method == "kaczmarz":
            return self._sweep(dx, dd, budget)
        state, a, b, config, method = self.state, self.a, self.b, self.config, self.method
        if method == "rbk":
            selected, factor = a._partition_block(0, config.block_size,
                                                  int(self.rng.integers(self.blocks)))
            block_project_step(state, a, b, selected, factor)
            return selected, None, (), None
        # x is zero, in practice, only at the start, so only there is it looked for.
        r = b - a.matvec(state.x) if state.k else residual(a, b, state.x)
        profile = row_losses(a, r)
        if method == "gbk":
            selected = gbk_set(profile, config.eta1)
        else:
            selected = relaxed_greedy_set(profile, config.theta)
        if not selected.size:
            # Nothing to select: a zero residual away from x* (the loop found RSE >= rse_tol)
            # is a stall too, and so are losses that are not finite.
            return "stalled"
        if method == "gbk":
            block_project_step(state, a, b, selected)
        elif method == "rgrk":
            rgrk_step(state, a, r, selected, self.rng, profile.squares)
        elif not rgdr_step(state, a, r, selected):
            return "stalled"
        return selected, profile, (), None

    def _sweep(self, dx: np.ndarray, dd: float, budget: int):
        """A kaczmarz sweep block from row ``k mod m``, ending before the first zero row."""
        a, zero = self.a, self.a.zero_row
        i = self.state.k % a.m
        end = min(i + SWEEP_BLOCK, i + budget, a.m if zero is None else zero)
        if end == i:
            raise UsageError(f"zero row {i} cannot drive a projection step")
        rows = slice(i, end)
        z, changes = kaczmarz_sweep(self.state, a, self.b, rows, dx, self.state.k >= a.m)
        move = z @ a.entries[rows]
        dx_end = dx + move

        def apply(count: int) -> None:
            self.state.x += move if count == len(z) else z[:count] @ a.entries[i:i + count]

        return (i,), None, _block_errors(dd, changes, float(dx_end @ dx_end)), apply


def run_row_method(
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
    """Iterate the chosen row method until the stop rule fires.

    The relative solution error (RSE) is ||x_k - x*|| / ||x_0 - x*|| with
    ``x_star`` the least-norm solution; when not supplied it is computed once
    by the CGLS reference, configured by ``cgls_cfg`` (default tolerance
    1e-12), which has no other use. The default start is the zero vector,
    which lies in the row space as the least-norm guarantee requires.
    """
    return solve_loop(_RowFamily, method, a, b, config=config, stop=stop, x0=x0,
                      x_star=x_star, seed=seed, cgls_cfg=cgls_cfg,
                      record_steps=record_steps, reference=cgls)
