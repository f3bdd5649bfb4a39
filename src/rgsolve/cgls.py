"""Conjugate gradient on the normal equations (CGLS).

The high-precision reference for minimum-norm least-squares solutions: the
``x*`` oracle of the solve loop when no ``x_star`` is given (the generators
use none). Starting from a zero guess the returned iterate is the minimum-norm
solution. The stopping measure is the normal-equations residual
||M.T (rhs - M w)||, which stays well defined for inconsistent systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SubsolverError, UsageError
from .linalg import DenseMatrix


@dataclass(frozen=True)
class CglsConfig:
    """Tolerance on the relative normal-equations residual and iteration budget.

    ``max_iters`` defaults to 2 * min(rows, cols) + 10 for the matrix at hand
    when left unset. Frozen, so the checks below hold for the config's life.
    """

    rel_tol: float = 1e-12
    max_iters: int | None = None

    def __post_init__(self):
        if not self.rel_tol > 0.0:  # also NaN
            raise UsageError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_iters is not None and not (
                isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise UsageError(f"max_iters must be an integer of at least 1, got {self.max_iters}")


def _overflow(what: str, value: float, iterations: int = 0) -> SubsolverError:
    return SubsolverError(
        f"cgls cannot run in float64: {what} is {value:g} (squares overflow); "
        "rescale the matrix and right-hand side",
        iterations=iterations,
        residual=math.inf,
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below, not warned about
def cgls(matrix, rhs, cfg: CglsConfig | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of ``matrix @ w ~ rhs`` from a zero guess.

    Returns ``w`` with ``||M.T (rhs - M w)|| <= rel_tol * ||M.T rhs||``. Raises
    SubsolverError with iteration diagnostics when the budget is exhausted, and
    when ``||M||_F``, ``||M.T rhs||`` or a later square overflows float64, where
    the iteration would otherwise return zeros or NaN.
    """
    m_arr = matrix.entries if isinstance(matrix, DenseMatrix) else np.asarray(matrix, dtype=float)
    if m_arr.ndim != 2:
        raise UsageError(f"expected a matrix, got shape {m_arr.shape}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (m_arr.shape[0],):
        raise UsageError(f"rhs must have length {m_arr.shape[0]}, got shape {rhs.shape}")
    frob = float(np.linalg.norm(m_arr))  # one dot over the entries, no temporary
    if frob == 0.0 and not np.any(m_arr):  # the norm underflows for some nonzero M
        raise UsageError("cgls requires a nonzero matrix")
    if not math.isfinite(frob):
        raise _overflow("||M||_F", frob)
    cfg = cfg or CglsConfig()
    max_iters = cfg.max_iters or 2 * min(m_arr.shape) + 10  # validated: None or >= 1

    w = np.zeros(m_arr.shape[1])
    s = rhs.copy()
    q = m_arr.T @ s
    base = float(np.linalg.norm(q))
    if not math.isfinite(base):
        raise _overflow("||M.T rhs||", base)
    if base == 0.0:
        return w  # rhs is orthogonal to the column space; zero is optimal
    target = cfg.rel_tol * base
    # Below this the normal-equations residual is rounding noise relative to the
    # current residual's scale; no further progress is possible in float64.
    floor_eps = 4.0 * np.finfo(float).eps
    p = q.copy()
    gamma = float(q @ q)
    for it in range(max_iters):
        q_norm = float(np.sqrt(gamma))
        if q_norm <= target or q_norm <= floor_eps * frob * float(np.linalg.norm(s)):
            return w
        t = m_arr @ p
        t_sq = float(t @ t)
        if t_sq == 0.0:
            return w  # search direction exhausted; w is optimal in range(M.T)
        if not t_sq < math.inf:  # also NaN, once an earlier square overflowed
            raise _overflow("||M p||^2", t_sq, it)
        alpha = gamma / t_sq
        w += alpha * p
        s -= alpha * t
        q = m_arr.T @ s
        gamma_new = float(q @ q)
        p = q + (gamma_new / gamma) * p
        gamma = gamma_new
    q_norm = float(np.sqrt(gamma))
    if q_norm <= target or q_norm <= floor_eps * frob * float(np.linalg.norm(s)):
        return w
    raise SubsolverError(
        f"cgls did not reach rel_tol={cfg.rel_tol:g} within {max_iters} iterations "
        f"(normal-equations residual {q_norm:.3e}, target {target:.3e})",
        iterations=max_iters,
        residual=q_norm,
    )
