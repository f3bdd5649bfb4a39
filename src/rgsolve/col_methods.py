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
No column method carries the residual r itself; y is recomputed from x every
100 iterations. Step records read the energy error ``||A (x - x*)||^2`` from
x, one GEMV per recorded step.
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
    residual,
)

COL_METHODS = ("cd", "rgrcd", "rgdc", "amdcd", "rbcd")


def _normal_product(a: DenseMatrix, indices, w, applied: np.ndarray | None = None) -> np.ndarray:
    """``A.T @ (A[:, indices] @ w)``, the move of y for the step ``x[indices] += w``.

    Through rows of the Gram when A has one, in O(s*n); otherwise through
    ``applied = A[:, indices] @ w``, formed here (O(m*s)) when not given.
    """
    gram = a.gram
    if gram is not None:
        return np.dot(w, gram[indices])
    if applied is None:
        applied = a.entries_t[indices].T @ w
    return a.matvec_transpose(applied)


def cd_step(state: SolveState, a: DenseMatrix, j: int) -> None:
    """Exactly minimize the residual along coordinate ``j``."""
    sq = float(a.col_sqnorms[j])
    if sq <= 0.0:
        raise UsageError(f"zero column {j} cannot drive a coordinate step")
    y_j = float(state.y[j])
    if y_j != 0.0:
        delta = y_j / sq
        state.x[j] += delta
        gram = a.gram
        state.y -= delta * (a.matvec_transpose(a.entries_t[j]) if gram is None else gram[j])


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
    state.y -= _normal_product(a, indices, weights)


def rbcd_block_step(state: SolveState, a: DenseMatrix, b: np.ndarray, indices: np.ndarray) -> None:
    """Least-squares-solve the residual against the selected columns and apply it.

    The correction is the minimum-norm solution of ``G[S, S] w = y[S]``, the
    normal equations of ``A_S w = r``. When the block Gram is numerically
    singular it is least squares on ``A_S`` against ``r = b - A x``, which
    only that rare path forms (one GEMV).
    """
    block = _block_index(indices)
    cols = a.entries_t[block]  # A[:, indices].T
    gram = a.gram
    block_gram = cols @ cols.T if gram is None else gram[block][:, block]
    correction = _min_norm_solve(cols.T, lambda: b - a.matvec(state.x), block_gram,
                                 state.y[block])
    state.x[block] += correction
    state.y -= _normal_product(a, block, correction)


@dataclass
class _ColFamily(MethodFamily):
    """Column hooks: y = A.T r, errors in energy ``||A (x - x*)||``, and the stationarity
    floor on ||y||."""

    kind = "column"
    methods = COL_METHODS
    params = {"rgdc": ("theta", "theta2"), "rgrcd": ("theta", "theta2"),
              "amdcd": ("eta2", "eta2"), "rbcd": ("block_size", "block_size")}

    def __post_init__(self):
        a, state = self.a, self.state
        state.y = a.matvec_transpose(residual(a, self.b, state.x))
        # At x = 0, r is b bit for bit, so y is A.T b.
        self.atb_norm = float(np.linalg.norm(
            a.matvec_transpose(self.b) if state.x.any() else state.y))
        self.sqnorms = a.col_sqnorms
        self.stall_window = None
        self.partition = (
            make_partition(a.n, self.config.block_size) if self.method == "rbcd" else None
        )

    def refresh(self) -> None:
        fresh_y = self.a.matvec_transpose(self.b - self.a.matvec(self.state.x))
        check_drift(fresh_y, self.state.y, self.atb_norm, "y")
        self.state.y = fresh_y

    def err_sq(self) -> float:
        # From x, never as (x - x*).T G (x - x*), whose rounding can turn negative.
        ae = self.a.matvec(self.state.x - self.x_star)
        return float(ae @ ae)

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
                rbcd_block_step(state, a, self.b, selected)
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
