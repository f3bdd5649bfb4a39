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

# Methods with per-step certificates (theory.certify_run), which record every step, and
# with statistical ones (theory.certify_randomized), which record a run's errors at its ends.
STEP_CERTIFIED = ("rgdr", "rgdc")
STAT_CERTIFIED = ("rgrk", "rgrcd")
# Methods that draw from a seeded generator; only their runs build one.
RANDOMIZED_METHODS = ("rgrk", "rbk", "rgrcd", "rbcd")

@dataclass
class SolveState:
    """Evolving iterate: x and, for the column methods, y = A.T (b - A x).

    No method carries the residual r itself. The row methods read it from x
    and b at each step, and the column methods carry y by recursion.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    k: int = 0


@dataclass(frozen=True)
class StopRule:
    """Termination thresholds for a solve run (the column methods' stationarity floor
    is the constant ``col_methods.STATIONARITY_REL``). Frozen, so the checks below
    hold for the rule's life."""

    rse_tol: float = 1e-4
    max_iters: int = 1_000_000

    def __post_init__(self):
        # Negated, so that NaN fails them too.
        if not self.rse_tol > 0.0:
            raise UsageError(f"rse_tol must be positive, got {self.rse_tol}")
        _check_positive_int("max_iters", self.max_iters)
        object.__setattr__(self, "max_iters", int(self.max_iters))


@dataclass
class SolveReport:
    """Trace of a solve run: per-iteration relative solution error and set sizes.

    ``rse_trace[k]`` is ||x_k - x*|| / ||x_0 - x*||; ``iter_seconds[k]`` is the
    cumulative wall time of the solver loop when iterate k was produced, and
    the iterates of one sweep block (``kaczmarz``, ``cd``) share one stamp.
    ``final_rse`` always equals the trace tail. With ``record_steps``,
    ``err_sq_ends`` is the squared error (``||x - x*||^2`` for rows, the energy
    ``||A (x - x*)||^2`` for columns) at the start and at the end of the run,
    (0.0, 0.0) for a run started at x*, and ``rgdr``/``rgdc`` record per step k
    its set ``step_indices[k]``, its zero-loss set's squared norms summed in
    ``step_zero_mass[k]``, and its errors before and after, ``step_err_sq[k]`` and
    ``step_err_sq[k + 1]``. These are None otherwise (step columns always for
    ``rgrk``/``rgrcd``, whose certificates read ``err_sq_ends`` and ``iterations``).
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
    step_indices: list[np.ndarray] | None = field(default=None, repr=False)
    step_zero_mass: np.ndarray | None = field(default=None, repr=False)
    step_err_sq: np.ndarray | None = field(default=None, repr=False)
    err_sq_ends: tuple[float, float] | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-ready form; certification step columns and errors are not serialized."""
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
    that name. ``__post_init__`` refuses, before any step, what the method
    cannot run on, completes the start state (y for the column methods) and
    sets ``sqnorms`` (summed over the zero set by step records)
    and ``stall_window`` (iterations without a 0.1% RSE gain before the run
    stalls, checked after the iteration cap; None for no stall rule).
    ``err_sq(dx, dd)`` is the squared error a recorded run reads, given the
    loop's ``dx = x - x*`` and ``dd = dx @ dx``.
    ``stationary()``, a method of the families that have one (None for the
    others), is an extra stop rule checked before the iteration cap.
    ``rng`` is the seeded generator of ``RANDOMIZED_METHODS``, None for the others.

    ``step(dx, dd, budget)`` advances iteration ``state.k`` and up to
    ``budget - 1`` more. It returns a termination reason when nothing is
    left to select or ``rgdr`` cannot move (x and y are then untouched), or
    ``(selected, profile, dds, apply)``. A single step
    has moved x (and y) when it returns: ``selected`` is its set,
    ``profile`` the loss profile whose zero set the step records sum (every
    certified method has one) or None, ``dds`` is empty and ``apply`` None.
    A sweep block of s consecutive single-index iterations (``kaczmarz``,
    ``cd``) has moved nothing: ``selected`` is ``(first index,)``, ``dds``
    holds ``_block_errors``' s - 1 guesses of ``||x - x*||^2`` inside it,
    and ``apply(count)`` applies its first ``count`` iterations. The loop
    counts the iterations in ``state.k``.
    """

    kind: ClassVar[str]
    methods: ClassVar[tuple[str, ...]]
    params: ClassVar[dict[str, str]]

    method: str
    a: DenseMatrix
    b: np.ndarray
    state: SolveState
    config: SelectionConfig
    rng: np.random.Generator | None
    stationary: ClassVar = None


def _stall_fold(rses, best: float, since: int) -> tuple[float, int]:
    """The best RSE so far and the iterations since it last improved, after iterations
    that reached ``rses`` in turn."""
    for rse in rses:
        if rse < best * (1.0 - _STALL_IMPROVEMENT):
            best, since = rse, 0
        else:
            since += 1
    return best, since


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

    The stall rule's ``best_rse``/``since_best`` fold ``rse_trace`` entries, each once
    and in order, only when the rule could fire: when ``since_best`` plus the entries not
    yet folded reaches the window (never without one). A sweep block's guesses are cut at
    the first below ``rse_tol`` by one comparison, and walked one at a time only in a
    block where the stall window can be reached. Beyond its step, a single step costs the
    loop ``x - x*``, its norm, an append to each trace and, for the column family only,
    the stationarity rule.
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
    rng = np.random.default_rng(seed) if method in RANDOMIZED_METHODS else None
    b = as_vector(b, a.m, "b")
    x = np.zeros(a.n) if x0 is None else as_vector(x0, a.n, "x0").copy()
    if x_star is None:
        x_star = reference(a, b, cgls_cfg or CglsConfig(rel_tol=1e-12))
    else:
        x_star = as_vector(x_star, a.n, "x_star")
    name = family.params.get(method)
    params = {} if name is None else {name: getattr(config, name)}

    per_step = record_steps and method in STEP_CERTIFIED
    dx = x - x_star
    dd = float(dx.dot(dx))
    denom = math.sqrt(dd)
    if denom == 0.0:
        return SolveReport(method, params, seed, 0, 0.0, [0.0], [], [0.0], 0.0, "converged",
                           x_final=x, err_sq_ends=(0.0, 0.0) if record_steps else None,
                           step_indices=[] if per_step else None,
                           step_zero_mass=np.zeros(0) if per_step else None,
                           step_err_sq=np.zeros(1) if per_step else None)

    state = SolveState(x=x)
    fam = family(method=method, a=a, b=b, state=state, config=config, rng=rng)
    rse = 1.0
    rse_trace = [1.0]
    set_sizes: list[int] = []
    iter_seconds = [0.0]
    best_rse = rse
    since_best = 0
    folded = 1  # entries of rse_trace that best_rse and since_best count
    # A step's error before is the previous step's error after.
    err_sq_start = err_sq = fam.err_sq(dx, dd) if record_steps else 0.0
    indices, zero_masses, errs = [], [], [err_sq]

    window, stationary = fam.stall_window, fam.stationary
    start = time.perf_counter()
    while True:
        if rse < stop.rse_tol:
            reason = "converged"
            break
        if stationary is not None and stationary():
            reason = "stationary"
            break
        if state.k >= stop.max_iters:
            reason = "max_iters"
            break
        if window is not None and since_best + len(rse_trace) - folded >= window:
            best_rse, since_best = _stall_fold(rse_trace[folded:], best_rse, since_best)
            folded = len(rse_trace)
            if since_best >= window:
                reason = "stalled"
                break
        outcome = fam.step(dx, dd, stop.max_iters - state.k)
        if isinstance(outcome, str):
            reason = outcome
            break
        selected, profile, dds, apply = outcome
        # Of a sweep block, only the iterations up to the first at which the RSE or stall
        # rule fires are applied; the guessed RSEs of the others go on the trace, and x - x*
        # is re-formed exactly after the last of them.
        count = 1
        if len(dds):
            guesses = np.sqrt(dds) / denom
            below = guesses < stop.rse_tol
            end = int(below.argmax()) if below.any() else len(guesses)
            if window is not None and since_best + len(rse_trace) - folded + end >= window:
                best_rse, since_best = _stall_fold(rse_trace[folded:], best_rse, since_best)
                for t, guess in enumerate(guesses[:end].tolist()):
                    after = _stall_fold((guess,), best_rse, since_best)
                    if after[1] >= window:
                        end = t
                        break
                    best_rse, since_best = after
                folded = len(rse_trace) + end
            rse_trace += guesses[:end].tolist()
            count += end
        if apply is not None:
            apply(count)
        state.k += count
        dx = state.x - x_star
        dd = float(dx.dot(dx))
        rse = math.sqrt(dd) / denom
        rse_trace.append(rse)
        if count == 1:  # appending is cheaper than extending by a one-entry list
            set_sizes.append(len(selected))
            iter_seconds.append(time.perf_counter() - start)
        else:
            set_sizes += [len(selected)] * count
            iter_seconds += [time.perf_counter() - start] * count
        if per_step:
            err_sq = fam.err_sq(dx, dd)
            errs.append(err_sq)
            indices.append(selected)
            # Most steps have no zero-loss index, and one reduction finds that without a mask.
            losses, tol = profile.losses, profile.zero_tol
            zero_masses.append(float(fam.sqnorms[losses < tol].sum())
                               if np.minimum.reduce(losses) < tol else 0.0)

    wall = time.perf_counter() - start
    if record_steps and not per_step:  # rgrk and rgrcd read their error again only here
        err_sq = fam.err_sq(dx, dd)
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
        err_sq_ends=(err_sq_start, err_sq) if record_steps else None,
        step_indices=indices if per_step else None,
        step_zero_mass=np.array(zero_masses) if per_step else None,
        step_err_sq=np.array(errs) if per_step else None,
    )
