"""Column-action methods: CD, RGRCD, RGDC, AMDCD, and RBCD.

Column methods update coordinates of x using columns of A and converge to the
least-squares solution whether or not the system is consistent. The working
vector is ``y = A.T r``; it drives all selection rules, so adding any
perturbation from the null space of A.T to b leaves the iterates unchanged.
A step on the column set S with weights w moves y by ``w @ G[S]``, rows of the
Gram matrix ``G = A.T @ A`` that the matrix caches on first use: O(s*n) per
step, independent of m. On wide matrices (n > m), where no Gram is kept, the
move is ``A.T @ (A[:, S] @ w)`` instead. RBCD solves the s x s system
``G[S, S] w = y[S]`` by Cholesky (on wide matrices it forms ``A_S.T @ A_S``).
The residual r is carried alongside y for the step records and the column
error metric (O(m*s) per step), and both are recomputed from scratch every
100 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgls import CglsConfig, cgls
from .errors import ConvergedSignal, DegenerateStepError, UsageError
from .linalg import DenseMatrix, _block_index, _min_norm_solve
from .selection import (
    SelectionConfig,
    _draw_by_square,
    column_losses_from_y,
    make_partition,
    max_distance_set,
    relaxed_greedy_set,
)
from .state import (
    MethodFamily,
    SolveReport,
    SolveState,
    StopRule,
    check_drift,
    solve_loop,
)

COL_METHODS = ("cd", "rgrcd", "rgdc", "amdcd", "rbcd")


def _normal_product(a: DenseMatrix, indices, w, applied: np.ndarray) -> np.ndarray:
    """``A.T @ applied`` for ``applied = A[:, indices] @ w``, through the Gram when A has one."""
    gram = a.gram
    return a.matvec_transpose(applied) if gram is None else np.dot(w, gram[indices])


def cd_step(state: SolveState, a: DenseMatrix, j: int) -> None:
    """Exactly minimize the residual along coordinate ``j``."""
    sq = float(a.col_sqnorms[j])
    if sq <= 0.0:
        raise UsageError(f"zero column {j} cannot drive a coordinate step")
    y_j = float(state.y[j])
    if y_j != 0.0:
        delta = y_j / sq
        col = a.entries_t[j]
        state.x[j] += delta
        state.r -= delta * col
        state.y -= delta * _normal_product(a, j, 1.0, col)


def rgdc_step(state: SolveState, a: DenseMatrix, indices: np.ndarray) -> None:
    """Aggregate the selected coordinates, weighted by y, into one correction.

    With xi supported on ``indices`` carrying the values of y there, the update
    is ``x += (xi.T y / ||A xi||^2) xi``; afterwards xi is orthogonal to the
    new y. Raises DegenerateStepError if ``A xi`` vanishes, which requires the
    selected columns to cancel exactly.
    """
    y_sel = state.y[indices]
    h1 = float(y_sel @ y_sel)
    if h1 <= 0.0:
        return
    combined = a.entries_t[indices].T @ y_sel  # A[:, indices] @ y_sel
    h2 = float(combined @ combined)
    if h2 <= 0.0:
        raise DegenerateStepError("selected columns cancel exactly; aggregate step is degenerate")
    weight = h1 / h2
    state.x[indices] += weight * y_sel
    state.r -= weight * combined
    state.y -= weight * _normal_product(a, indices, y_sel, combined)


def rgrcd_step(state: SolveState, a: DenseMatrix, indices: np.ndarray, rng: np.random.Generator) -> None:
    """Sample one coordinate from the selected set with probability proportional
    to its squared y value, then apply the coordinate step."""
    cd_step(state, a, _draw_by_square(state.y, indices, rng))


def amdcd_step(state: SolveState, a: DenseMatrix, indices: np.ndarray) -> None:
    """Update every selected coordinate simultaneously with its own weight y_j / ||col_j||^2.

    Pseudoinverse-free: correlated columns in the set are not reconciled, so
    the combined move can overshoot; the rule is applied exactly as stated.
    """
    sq = a.col_sqnorms[indices]
    if sq.min() <= 0.0:
        raise UsageError("zero column cannot drive a coordinate step")
    weights = state.y[indices] / sq
    state.x[indices] += weights
    applied = a.entries_t[indices].T @ weights  # A @ increment
    state.r -= applied
    state.y -= _normal_product(a, indices, weights, applied)


def rbcd_block_step(state: SolveState, a: DenseMatrix, indices: np.ndarray) -> None:
    """Least-squares-solve the residual against the selected columns and apply it.

    The correction is the minimum-norm solution of ``G[S, S] w = y[S]``, the
    normal equations of ``A_S w = r`` (least squares on ``A_S`` when the block
    Gram is numerically singular).
    """
    block = _block_index(indices)
    cols = a.entries_t[block]  # A[:, indices].T
    gram = a.gram
    block_gram = cols @ cols.T if gram is None else gram[block][:, block]
    correction = _min_norm_solve(cols.T, state.r, block_gram, state.y[block])
    state.x[block] += correction
    applied = correction @ cols
    state.r -= applied
    state.y -= _normal_product(a, block, correction, applied)


@dataclass
class _ColFamily(MethodFamily):
    """Column hooks: y = A.T r next to r, errors in r, and the stationarity floor on ||y||."""

    kind = "column"
    methods = COL_METHODS
    params = {"rgdc": ("theta", "theta2"), "rgrcd": ("theta", "theta2"),
              "amdcd": ("eta2", "eta2"), "rbcd": ("block_size", "block_size")}
    refresh_moves_err = True

    def __post_init__(self):
        a = self.a
        self.state.r = self.b - a.matvec(self.state.x)
        self.state.y = a.matvec_transpose(self.state.r)
        self.atb_norm = float(np.linalg.norm(a.matvec_transpose(self.b)))
        self.r_star = self.b - a.matvec(self.x_star) if self.record_steps else None
        self.sqnorms = a.col_sqnorms
        self.stall_window = None
        self.partition = (
            make_partition(a.n, self.config.block_size) if self.method == "rbcd" else None
        )

    def refresh(self) -> None:
        fresh_r = self.b - self.a.matvec(self.state.x)
        fresh_y = self.a.matvec_transpose(fresh_r)
        check_drift(fresh_y, self.state.y, self.atb_norm, "y")
        self.state.r = fresh_r
        self.state.y = fresh_y

    def err_sq(self) -> float:
        dr = self.state.r - self.r_star
        return float(dr @ dr)

    def stationary(self) -> bool:
        y = self.state.y
        return math.sqrt(y @ y) <= self.stop.stationarity_tol * self.atb_norm

    def step(self):
        state, a, config, method = self.state, self.a, self.config, self.method
        profile = None
        try:
            if method == "cd":
                selected = np.array([state.k % a.n])
                cd_step(state, a, int(selected[0]))
            elif method in ("rgrcd", "rgdc"):
                profile = column_losses_from_y(a, state.y, config.zero_tol)
                selected = relaxed_greedy_set(profile, config.theta2)
                if method == "rgdc":
                    rgdc_step(state, a, selected)
                else:
                    rgrcd_step(state, a, selected, self.rng)
            elif method == "amdcd":
                selected = max_distance_set(a, state.y, config.eta2)
                amdcd_step(state, a, selected)
            else:  # rbcd
                selected = self.partition[int(self.rng.integers(len(self.partition)))]
                rbcd_block_step(state, a, selected)
        except ConvergedSignal:
            return "stationary"
        return selected, profile


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
    stops as stationary when ||y|| falls below stationarity_tol * ||A.T b||.
    """
    return solve_loop(_ColFamily, method, a, b, config=config, stop=stop, x0=x0,
                      x_star=x_star, seed=seed, cgls_cfg=cgls_cfg,
                      record_steps=record_steps, reference=cgls)
