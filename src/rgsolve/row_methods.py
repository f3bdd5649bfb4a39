"""Row-action methods: Kaczmarz, RGRK, RGDR, GBK, and RBK.

Each step enforces the projection condition that the aggregated constraint
direction is orthogonal to the new residual. RGRK and RGDR carry the residual
by the recursion ``r -= weight * A @ d`` and recompute it from scratch every
100 iterations to bound drift. The row-aggregate update never forms
``A @ A.T``: the direction ``d = A.T @ eta`` is assembled from the selected
rows only, and ``A @ d`` is a plain matvec, keeping memory at O(m*n). A block
projection solves the s x s system of the selected rows' Gram ``A_S @ A_S.T``
by Cholesky. GBK selects on all of r, so it forms ``b - A @ x`` afresh at
the start of each block step rather than carrying it. Cyclic Kaczmarz and RBK
select without looking at r, so they read ``b_S - A_S @ x`` for their rows
only, in O(s*n).

Row methods converge to the least-norm solution of consistent systems when
started in the row space; on inconsistent systems they stall, which the driver
reports as a distinct termination reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgls import CglsConfig, cgls
from .errors import ConvergedSignal, StalledError, UsageError
from .linalg import DenseMatrix, _block_index, _min_norm_solve
from .selection import (
    SelectionConfig,
    _draw_by_square,
    gbk_set,
    make_partition,
    relaxed_greedy_set,
    row_losses,
)
from .state import (
    MethodFamily,
    SolveReport,
    SolveState,
    StopRule,
    check_drift,
    solve_loop,
    residual,
)

ROW_METHODS = ("kaczmarz", "rgrk", "rgdr", "gbk", "rbk")


def kaczmarz_step(state: SolveState, a: DenseMatrix, b: np.ndarray, i: int) -> None:
    """Project the iterate onto the hyperplane of row ``i``.

    The residual entry is read from the carried ``state.r``, which the step
    keeps up to date, or computed as ``b_i - a_i . x`` when ``state.r`` is None.
    """
    sq = float(a.row_sqnorms[i])
    if sq <= 0.0:
        raise UsageError(f"zero row {i} cannot drive a projection step")
    row = a.entries[i]
    residual_i = float(b[i] - row @ state.x) if state.r is None else float(state.r[i])
    if residual_i != 0.0:
        delta = residual_i / sq
        state.x += delta * row
        if state.r is not None:
            state.r -= delta * a.matvec(row)


def rgdr_step(state: SolveState, a: DenseMatrix, indices: np.ndarray) -> None:
    """Aggregate the selected rows, weighted by their residuals, into one projection.

    With eta the residual masked to ``indices``, the update is
    ``x += (eta.T r / ||A.T eta||^2) A.T eta`` and the residual follows the
    matching recursion. Raises StalledError when ``A.T eta`` vanishes, which
    means the selected residual lies outside the range of A.
    """
    r_sel = state.r[indices]
    g1 = float(r_sel @ r_sel)
    if g1 <= 0.0:
        return
    direction = a.entries[indices].T @ r_sel
    g2 = float(direction @ direction)
    if g2 <= 0.0:
        raise StalledError("row method stalled on inconsistent system")
    weight = g1 / g2
    state.x += weight * direction
    state.r -= weight * a.matvec(direction)


def rgrk_step(
    state: SolveState,
    a: DenseMatrix,
    b: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Sample one row from the selected set with probability proportional to its
    squared residual, then apply the single-row projection."""
    kaczmarz_step(state, a, b, _draw_by_square(state.r, indices, rng))


def block_project_step(state: SolveState, a: DenseMatrix, b: np.ndarray, indices: np.ndarray) -> None:
    """Project the iterate orthogonally onto the solution set of the selected rows.

    The correction is the minimum-norm solution of ``A_S dx = b_S - A_S x``,
    ``A_S.T K^-1 (b_S - A_S x)`` with ``K = A_S A_S.T`` vetted by Cholesky and
    refined once (least squares on ``A_S`` when K is numerically singular).
    """
    rows = _block_index(indices)
    sub = a.entries[rows]
    state.x += _min_norm_solve(sub, b[rows] - sub @ state.x, sub @ sub.T)


@dataclass
class _RowFamily(MethodFamily):
    """Row hooks: the residual r = b - A x carried by RGRK and RGDR, errors in x, and a
    stall window of 10*m."""

    kind = "row"
    methods = ROW_METHODS
    params = {"rgdr": "theta", "rgrk": "theta", "gbk": "eta1", "rbk": "block_size"}

    def __post_init__(self):
        if self.method in ("rgrk", "rgdr"):
            self.state.r = residual(self.a, self.b, self.state.x)
        self.sqnorms = self.a.row_sqnorms
        self.partition = (
            make_partition(self.a.m, self.config.block_size) if self.method == "rbk" else None
        )
        self.stall_window = 10 * self.a.m

    def refresh(self) -> None:
        if self.state.r is None:
            return
        fresh = self.b - self.a.matvec(self.state.x)
        check_drift(fresh, self.state.r, float(np.linalg.norm(self.b)), "residual")
        self.state.r = fresh

    def err_sq(self) -> float:
        dx = self.state.x - self.x_star
        return float(dx @ dx)

    def step(self):
        state, a, b, config, method = self.state, self.a, self.b, self.config, self.method
        profile = None
        try:
            if method == "kaczmarz":
                selected = np.array([state.k % a.m])
                kaczmarz_step(state, a, b, int(selected[0]))
            elif method == "gbk":
                profile = row_losses(a, residual(a, b, state.x))
                selected = gbk_set(profile, config.eta1)
                block_project_step(state, a, b, selected)
            elif method in ("rgrk", "rgdr"):
                profile = row_losses(a, state.r)
                selected = relaxed_greedy_set(profile, config.theta)
                if method == "rgdr":
                    rgdr_step(state, a, selected)
                else:
                    rgrk_step(state, a, b, selected, self.rng)
            else:  # rbk
                selected = self.partition[int(self.rng.integers(len(self.partition)))]
                block_project_step(state, a, b, selected)
        except (ConvergedSignal, StalledError):
            # A zero residual away from x* (the loop found RSE >= rse_tol) is a stall too.
            return "stalled"
        return selected, profile


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
