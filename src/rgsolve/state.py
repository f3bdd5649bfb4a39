"""Solver state, stopping rules, run reports, and the solve loop shared by all ten methods."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cgls import CglsConfig
from .errors import UsageError
from .linalg import DenseMatrix, as_vector
from .selection import SelectionConfig, _check_positive_int

TERMINATION_REASONS = ("converged", "max_iters", "stalled", "stationary")

# A run stalls when the best RSE fails to improve by this relative amount over
# its family's stall window.
_STALL_IMPROVEMENT = 1e-3

# Methods with per-step certificates (theory.certify_run) and with statistical ones
# (theory.certify_randomized); only these record steps.
STEP_CERTIFIED = ("rgdr", "rgdc")
STAT_CERTIFIED = ("rgrk", "rgrcd")

# Iterations that a cyclic method (kaczmarz, cd) advances per sweep block. Larger blocks
# spread the fixed cost of their numpy calls over more iterations but cost O(s^2 n + s^3);
# at n = 100 and 300 (one BLAS thread) solve times were flat from 32 to 64. 50 divides
# col_methods.REFRESH_EVERY, so cd blocks stay full between refreshes.
SWEEP_BLOCK = 50
# The lower triangle of every sweep block, made once: np.tril makes its mask on every call.
_SWEEP_LOWER = np.tri(SWEEP_BLOCK)
_SWEEP_LOWER.setflags(write=False)


def _forward_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """z with ``tril(gram) z = rhs``, for the Gram of a sweep block: one Gauss-Seidel sweep
    from zero on the block's equations."""
    size = len(rhs)
    return np.linalg.solve(gram * _SWEEP_LOWER[:size, :size], rhs)


@dataclass
class SolveState:
    """Evolving iterate: x and, for the column methods, y = A.T (b - A x).

    No method carries the residual r itself. The row methods read it from x
    and b at each step, and the column methods carry y by recursion.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    k: int = 0


@dataclass
class StopRule:
    """Termination thresholds for a solve run (the column methods' stationarity floor
    is the constant ``col_methods.STATIONARITY_REL``)."""

    rse_tol: float = 1e-4
    max_iters: int = 1_000_000

    def __post_init__(self):
        # Negated, so that NaN fails them too.
        if not self.rse_tol > 0.0:
            raise UsageError(f"rse_tol must be positive, got {self.rse_tol}")
        _check_positive_int("max_iters", self.max_iters)
        self.max_iters = int(self.max_iters)


@dataclass(slots=True)
class StepRecord:
    """Per-iteration data needed to certify contraction bounds after the run, kept
    for the certified methods ``rgrk``, ``rgdr``, ``rgrcd`` and ``rgdc`` only.

    ``err_sq_before``/``err_sq_after`` are ``||x - x*||^2`` for row methods and the
    energy error ``||A (x - x*)||^2`` for column methods, both read from the
    ``x - x*`` the solve loop forms for the RSE. ``indices`` is the selected
    set as the step returned it; the certifier reads the set's energy from it.
    """

    k: int
    indices: np.ndarray
    zero_mass: float  # sum of squared norms over the zero-loss set
    err_sq_before: float
    err_sq_after: float


@dataclass
class SolveReport:
    """Trace of a solve run: per-iteration relative solution error and set sizes.

    ``rse_trace[k]`` is ||x_k - x*|| / ||x_0 - x*||; ``iter_seconds[k]`` is the
    cumulative wall time of the solver loop when iterate k was produced, and
    the iterates of one sweep block (``kaczmarz``, ``cd``) share one stamp.
    ``final_rse`` always equals the trace tail. ``step_records`` holds one
    record per iteration when a certified method ran with ``record_steps``,
    and is None otherwise.
    """

    method: str
    params: dict
    seed: int | None
    iterations: int
    final_rse: float
    rse_trace: list[float]
    set_size_trace: list[int]
    iter_seconds: list[float]
    wall_seconds: float
    termination_reason: str
    x_final: np.ndarray | None = field(default=None, repr=False)
    step_records: list[StepRecord] | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-ready form; certification step records are not serialized."""
        return {
            "method": self.method,
            "params": dict(self.params),
            "seed": self.seed,
            "iterations": self.iterations,
            "final_rse": self.final_rse,
            "rse_trace": [float(v) for v in self.rse_trace],
            "set_size_trace": [int(v) for v in self.set_size_trace],
            "iter_seconds": [float(v) for v in self.iter_seconds],
            "wall_seconds": self.wall_seconds,
            "termination_reason": self.termination_reason,
            "x_final": None if self.x_final is None else [float(v) for v in self.x_final],
        }


def residual(a: DenseMatrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``b - A x``; a copy of b when x is zero, since ``A @ 0`` is +0.0 and ``b - 0.0``
    is b bit for bit, so the GEMV is skipped."""
    return b - a.matvec(x) if x.any() else b.copy()


@dataclass
class MethodFamily:
    """What the row or the column methods supply to ``solve_loop``.

    ``params`` maps a method to the config field it reads, reported under
    that name. ``__post_init__`` completes the start state (y for the column
    methods) and sets ``sqnorms`` (summed over the zero set by step records)
    and ``stall_window`` (iterations without a 0.1% RSE gain before the run
    stalls, checked after the iteration cap; None for no stall rule).
    ``err_sq(dx, dd)`` is the squared error step records carry, given the
    loop's ``dx = x - x*`` and ``dd = dx @ dx``.
    ``step()`` updates ``x`` (and y) and returns ``(selected, profile or
    None)``, the loss profile whose zero set the step records sum (every
    certified method has one), or a termination reason when nothing is left
    to select; the loop then counts the iteration in ``state.k``.
    ``stationary()`` is an extra stop rule checked before the iteration cap.

    While a family's ``sweeps`` is true it advances in sweep blocks of
    consecutive single-index iterations instead of ``step()``; a family may
    turn it off for the rest of the solve.
    ``sweep(dx, budget)`` prepares the next block of at most ``budget``
    iterations without applying it and returns how much each of its
    iterations changes ``||x - x*||^2`` and ``x - x*`` after the whole
    block; ``commit(count)`` applies its first ``count`` iterations.
    """

    kind: ClassVar[str]
    methods: ClassVar[tuple[str, ...]]
    params: ClassVar[dict[str, str]]

    method: str
    a: DenseMatrix
    b: np.ndarray
    state: SolveState
    config: SelectionConfig
    rng: np.random.Generator

    def stationary(self) -> bool:
        return False


def _stall_count(rse: float, best: float, since: int) -> tuple[float, int]:
    """The best RSE so far and the iterations since it last improved, after an iteration
    that reached ``rse``."""
    if rse < best * (1.0 - _STALL_IMPROVEMENT):
        return rse, 0
    return best, since + 1


def _block_errors(dd_start: float, changes: np.ndarray, dd_end: float) -> np.ndarray:
    """``||x - x*||^2`` after each iteration of a sweep block but the last, from its value
    before the block, the change each iteration makes and its value after the block.

    Each is summed from whichever end of the block the changes in between are smaller in
    magnitude, so its rounding is relative to it whether the error falls through the block
    or jumps inside it: from the start while the magnitudes summed so far are at most half
    of ``dd_end - dd_start + sum |changes|``, from the end after that.
    """
    # np.add.accumulate is np.cumsum without its dispatch cost, which dominates at s = 50.
    sizes = np.add.accumulate(np.abs(changes))
    split = int(np.count_nonzero(sizes[:-1] <= 0.5 * (dd_end - dd_start + float(sizes[-1]))))
    dds = np.add.accumulate(changes[:-1])
    dds[:split] += dd_start
    dds[split:] = dd_end - np.add.accumulate(changes[:split:-1])[::-1]
    return np.maximum(dds, 0.0, out=dds)


def solve_loop(family: type[MethodFamily], method: str, a: DenseMatrix, b, *, config, stop,
               x0, x_star, seed, cgls_cfg, record_steps, reference) -> SolveReport:
    """Iterate ``method`` of ``family`` until a stop rule fires.

    ``reference`` is the CGLS solver that supplies ``x_star``, with ``cgls_cfg``
    (default tolerance 1e-12), when it is not given. The family modules pass
    the ``cgls`` they import, looked up when they call, so a wrapper installed
    on that module attribute sees the solve. ``record_steps`` is accepted only
    for the certified methods.
    """
    if method not in family.methods:
        raise UsageError(
            f"unknown {family.kind} method {method!r}; expected one of {family.methods}"
        )
    if record_steps and method not in STEP_CERTIFIED + STAT_CERTIFIED:
        raise UsageError(
            f"step records exist only for the certified methods rgrk, rgdr, rgrcd, rgdc, "
            f"not {method!r}"
        )
    config = config if config is not None else SelectionConfig()
    stop = stop if stop is not None else StopRule()
    rng = np.random.default_rng(seed)
    b = as_vector(b, a.m, "b")
    x = np.zeros(a.n) if x0 is None else as_vector(x0, a.n, "x0").copy()
    if x_star is None:
        x_star = reference(a, b, cgls_cfg or CglsConfig(rel_tol=1e-12))
    else:
        x_star = as_vector(x_star, a.n, "x_star")
    name = family.params.get(method)
    params = {} if name is None else {name: getattr(config, name)}

    dx = x - x_star
    denom = float(np.linalg.norm(dx))
    if denom == 0.0:
        return SolveReport(method, params, seed, 0, 0.0, [0.0], [], [0.0], 0.0,
                           "converged", x_final=x, step_records=[] if record_steps else None)

    state = SolveState(x=x)
    fam = family(method=method, a=a, b=b, state=state, config=config, rng=rng)
    rse = 1.0
    rse_trace = [1.0]
    set_sizes: list[int] = []
    iter_seconds = [0.0]
    records: list[StepRecord] | None = [] if record_steps else None
    best_rse = rse
    since_best = 0
    dd = float(dx @ dx)
    # A step's error before is the previous step's error after.
    err_sq = fam.err_sq(dx, dd) if record_steps else 0.0

    window = fam.stall_window
    start = time.perf_counter()
    while True:
        if rse < stop.rse_tol:
            reason = "converged"
            break
        if fam.stationary():
            reason = "stationary"
            break
        if state.k >= stop.max_iters:
            reason = "max_iters"
            break
        if window is not None and since_best >= window:
            reason = "stalled"
            break
        if fam.sweeps:
            # Only the iterations up to the first at which the RSE or stall rule fires are
            # applied, and x - x* is re-formed exactly after the last of them.
            changes, dx_end = fam.sweep(dx, stop.max_iters - state.k)
            dds = _block_errors(dd, changes, float(dx_end @ dx_end))
            rses = (np.sqrt(dds) / denom).tolist()
            count = len(changes)
            best, since = best_rse, since_best
            for t, guess in enumerate(rses):
                after_t = _stall_count(guess, best, since)
                if guess < stop.rse_tol or (window is not None and after_t[1] >= window):
                    count = t + 1
                    break
                best, since = after_t
            fam.commit(count)
            state.k += count
            dx = state.x - x_star
            dd = float(dx @ dx)
            rse = math.sqrt(dd) / denom
            rses[count - 1:] = [rse]
            rse_trace += rses
            set_sizes += [1] * count
            iter_seconds += [time.perf_counter() - start] * count
            best_rse, since_best = _stall_count(rse, best, since)
            continue
        outcome = fam.step()
        if isinstance(outcome, str):
            reason = outcome
            break
        selected, profile = outcome
        state.k += 1
        dx = state.x - x_star
        dd = float(dx @ dx)
        rse = math.sqrt(dd) / denom
        rse_trace.append(rse)
        set_sizes.append(int(selected.size))
        iter_seconds.append(time.perf_counter() - start)
        if record_steps:
            err_before, err_sq = err_sq, fam.err_sq(dx, dd)
            records.append(StepRecord(
                k=state.k - 1,
                indices=selected,
                zero_mass=float(fam.sqnorms[profile.losses < profile.zero_tol].sum()),
                err_sq_before=err_before,
                err_sq_after=err_sq,
            ))
        best_rse, since_best = _stall_count(rse, best_rse, since_best)

    wall = time.perf_counter() - start
    return SolveReport(
        method=method,
        params=params,
        seed=seed,
        iterations=state.k,
        final_rse=rse_trace[-1],
        rse_trace=rse_trace,
        set_size_trace=set_sizes,
        iter_seconds=iter_seconds,
        wall_seconds=wall,
        termination_reason=reason,
        x_final=state.x.copy(),
        step_records=records,
    )
