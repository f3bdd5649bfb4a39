"""Sequential reference for the cyclic methods: one ``kaczmarz_step``/``cd_step`` per iteration.

The solve loop advances ``kaczmarz`` and ``cd`` in sweep blocks. This loop
takes one step at a time, as the single-step path does, with the same stop
rules checked after every iteration (stationarity included), and forms
``x - x*`` after each step. Tests compare the block path against it.
"""

import math
from types import SimpleNamespace

import numpy as np

from rgsolve import col_methods
from rgsolve.col_methods import REFRESH_EVERY, cd_step
from rgsolve.row_methods import kaczmarz_step
from rgsolve.state import SolveState, residual

STALL_IMPROVEMENT = 1e-3


def sequential_run(method, a, b, *, x_star, x0=None, rse_tol=1e-4, max_iters=1_000_000):
    """Run ``kaczmarz`` or ``cd`` one step at a time; returns what the report would hold."""
    rows = method == "kaczmarz"
    x = np.zeros(a.n) if x0 is None else np.array(x0, dtype=float)
    state = SolveState(x=x)
    if not rows:
        state.y = a.matvec_transpose(residual(a, b, x))
        atb = a.matvec_transpose(b) if x.any() else state.y.copy()
        atb_norm = float(np.linalg.norm(atb))

    denom = float(np.linalg.norm(x - x_star))
    rse, trace = 1.0, [1.0]
    best, since, k = 1.0, 0, 0
    while True:
        if rse < rse_tol:
            reason = "converged"
            break
        if not rows and math.sqrt(state.y @ state.y) <= col_methods.STATIONARITY_REL * atb_norm:
            reason = "stationary"
            break
        if k >= max_iters:
            reason = "max_iters"
            break
        if rows and since >= 10 * a.m:
            reason = "stalled"
            break
        if rows:
            i = k % a.m
            kaczmarz_step(state, a, float(b[i] - a.entries[i] @ state.x), i)
        else:
            if k and k % REFRESH_EVERY == 0:
                state.y = (a.matvec_transpose(b - a.matvec(state.x)) if a.gram is None
                           else atb - a.gram @ state.x)
            cd_step(state, a, k % a.n)
        k += 1
        dx = state.x - x_star
        rse = math.sqrt(float(dx @ dx)) / denom
        trace.append(rse)
        if rse < best * (1.0 - STALL_IMPROVEMENT):
            best, since = rse, 0
        else:
            since += 1
    return SimpleNamespace(iterations=k, termination_reason=reason, rse_trace=trace,
                           set_size_trace=[1] * k, x_final=state.x)
