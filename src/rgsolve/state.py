"""Solver state, stopping rules, run reports, and the solve loop shared by all ten methods."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cgls import CglsConfig
from .errors import RgsolveError, UsageError
from .linalg import DenseMatrix, as_vector
from .selection import SelectionConfig

TERMINATION_REASONS = ("converged", "max_iters", "stalled", "stationary")

# The carried vectors (the residual, y) are recomputed from x this often, and the run
# fails if the recursion drifted by more than _DRIFT_REL of its scale.
REFRESH_EVERY = 100
_DRIFT_REL = 1e-8

# A run stalls when the best RSE fails to improve by this relative amount over
# its family's stall window.
_STALL_IMPROVEMENT = 1e-3


@dataclass
class SolveState:
    """Evolving iterate: x, the residual r = b - A x when carried, and (column methods)
    y = A.T r.

    ``r`` is set only for RGRK and RGDR, which carry it by recursion; every other
    method leaves it None. Cyclic Kaczmarz and RBK read the residual entries of
    their rows from x and b, GBK forms ``b - A x`` afresh at each step, and the
    column methods select and step on y alone.
    """

    x: np.ndarray
    r: np.ndarray | None
    y: np.ndarray | None = None
    k: int = 0


@dataclass
class StopRule:
    """Termination thresholds for a solve run."""

    rse_tol: float = 1e-4
    max_iters: int = 1_000_000
    stationarity_tol: float = 1e-14  # column methods, on ||y|| / ||A.T b||

    def __post_init__(self):
        if self.rse_tol <= 0.0:
            raise UsageError(f"rse_tol must be positive, got {self.rse_tol}")
        if self.max_iters < 1:
            raise UsageError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.stationarity_tol <= 0.0:
            raise UsageError(f"stationarity_tol must be positive, got {self.stationarity_tol}")


@dataclass
class StepRecord:
    """Per-iteration data needed to certify contraction bounds after the run.

    ``err_sq_before``/``err_sq_after`` are ``||x - x*||^2`` for row methods and the
    energy error ``||A (x - x*)||^2`` for column methods, both read from x.
    """

    k: int
    indices: np.ndarray
    set_energy: float  # sum of squared norms over the selected rows/columns
    zero_mass: float  # sum of squared norms over the zero-loss set
    err_sq_before: float
    err_sq_after: float


@dataclass
class SolveReport:
    """Trace of a solve run: per-iteration relative solution error and set sizes.

    ``rse_trace[k]`` is ||x_k - x*|| / ||x_0 - x*||; ``iter_seconds[k]`` is the
    cumulative wall time of the solver loop when iterate k was produced.
    ``final_rse`` always equals the trace tail.
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

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        x_final = data.get("x_final")
        return cls(
            method=data["method"],
            params=dict(data["params"]),
            seed=data["seed"],
            iterations=int(data["iterations"]),
            final_rse=float(data["final_rse"]),
            rse_trace=[float(v) for v in data["rse_trace"]],
            set_size_trace=[int(v) for v in data["set_size_trace"]],
            iter_seconds=[float(v) for v in data["iter_seconds"]],
            wall_seconds=float(data["wall_seconds"]),
            termination_reason=data["termination_reason"],
            x_final=None if x_final is None else np.asarray(x_final, dtype=float),
        )


def residual(a: DenseMatrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``b - A x``; a copy of b when x is zero, since ``A @ 0`` is +0.0 and ``b - 0.0``
    is b bit for bit, so the GEMV is skipped."""
    return b - a.matvec(x) if x.any() else b.copy()


def check_drift(fresh: np.ndarray, carried: np.ndarray, base_norm: float, name: str) -> None:
    """Raise when a vector carried by recursion has drifted from its fresh recomputation."""
    scale = max(1.0, base_norm + float(np.linalg.norm(fresh)))
    drift = float(np.linalg.norm(fresh - carried))
    if drift > _DRIFT_REL * scale:
        raise RgsolveError(
            f"{name} recursion drifted beyond tolerance ({drift:.3e} vs scale {scale:.3e})"
        )


@dataclass
class MethodFamily:
    """What the row or the column methods supply to ``solve_loop``.

    ``params`` maps a method to its reported parameter and its config field.
    ``__post_init__`` completes the start state (the residual for RGRK and
    RGDR, y for the column methods) and sets ``sqnorms`` (summed by step
    records) and ``stall_window`` (iterations without a 0.1% RSE gain before
    the run stalls, checked after the iteration cap; None for no stall rule).
    ``refresh()`` recomputes the carried vectors, raising on drift;
    ``err_sq()`` is the squared error step records carry, read from x alone,
    so a refresh never changes it. ``step()`` updates ``x`` and the carried
    vectors and returns ``(selected, profile or None)``, the loss profile
    whose zero set the step records sum, or a termination reason when nothing
    is left to select; the loop then counts the iteration in ``state.k``.
    ``stationary()`` is an extra stop rule checked before the
    iteration cap.
    """

    kind: ClassVar[str]
    methods: ClassVar[tuple[str, ...]]
    params: ClassVar[dict[str, tuple[str, str]]]

    method: str
    a: DenseMatrix
    b: np.ndarray
    x_star: np.ndarray
    state: SolveState
    config: SelectionConfig
    stop: StopRule
    rng: np.random.Generator

    def stationary(self) -> bool:
        return False


def solve_loop(family: type[MethodFamily], method: str, a: DenseMatrix, b, *, config, stop,
               x0, x_star, seed, cgls_cfg, record_steps, reference) -> SolveReport:
    """Iterate ``method`` of ``family`` until a stop rule fires.

    ``reference`` is the CGLS solver that supplies ``x_star``, with ``cgls_cfg``
    (default tolerance 1e-12), when it is not given. The family modules pass
    the ``cgls`` they import, looked up when they call, so a wrapper installed
    on that module attribute sees the solve.
    """
    if method not in family.methods:
        raise UsageError(
            f"unknown {family.kind} method {method!r}; expected one of {family.methods}"
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
    params = {}
    if method in family.params:
        name, field_name = family.params[method]
        params[name] = getattr(config, field_name)

    denom = float(np.linalg.norm(x - x_star))
    if denom == 0.0:
        return SolveReport(method, params, seed, 0, 0.0, [0.0], [], [0.0], 0.0,
                           "converged", x_final=x, step_records=[] if record_steps else None)

    state = SolveState(x=x, r=None)
    fam = family(method=method, a=a, b=b, x_star=x_star, state=state, config=config,
                 stop=stop, rng=rng)
    rse = 1.0
    rse_trace = [1.0]
    set_sizes: list[int] = []
    iter_seconds = [0.0]
    records: list[StepRecord] | None = [] if record_steps else None
    best_rse = rse
    since_best = 0
    # A step's error before is the previous step's error after.
    err_sq = fam.err_sq() if record_steps else 0.0

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
        if fam.stall_window is not None and since_best >= fam.stall_window:
            reason = "stalled"
            break
        if state.k and state.k % REFRESH_EVERY == 0:
            fam.refresh()

        outcome = fam.step()
        if isinstance(outcome, str):
            reason = outcome
            break
        selected, profile = outcome
        state.k += 1
        dx = state.x - x_star
        rse = math.sqrt(dx @ dx) / denom
        rse_trace.append(rse)
        set_sizes.append(int(selected.size))
        iter_seconds.append(time.perf_counter() - start)
        if record_steps:
            err_before, err_sq = err_sq, fam.err_sq()
            records.append(StepRecord(
                k=state.k - 1,
                indices=np.array(selected, dtype=int),
                set_energy=float(fam.sqnorms[selected].sum()),
                zero_mass=(float(fam.sqnorms[profile.zero_set].sum())
                           if profile is not None else 0.0),
                err_sq_before=err_before,
                err_sq_after=err_sq,
            ))
        if rse < best_rse * (1.0 - _STALL_IMPROVEMENT):
            best_rse = rse
            since_best = 0
        else:
            since_best += 1

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
