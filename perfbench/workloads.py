"""Workload table, metric names, and the checked operations every workload runs.

Every workload must report every end-to-end metric, so every workload runs
the same operation kinds: one solve per method on each of its main
instances, and both certification jobs on a 200x50 instance (certification
refuses instances with a dimension above 512, so it cannot run on the main
instances). Instances are drawn from the workload seed only; the program sees
nothing but the generated matrices and right-hand sides.

All calls into ``rgsolve`` go through module attributes at call time, so the
traced run's wrappers (see ``tracer.py``) see them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import rgsolve.col_methods
import rgsolve.problems
import rgsolve.row_methods
import rgsolve.theory
from rgsolve.cgls import CglsConfig
from rgsolve.col_methods import COL_METHODS
from rgsolve.row_methods import ROW_METHODS
from rgsolve.selection import SelectionConfig
from rgsolve.state import StopRule

RSE_TOL = 1e-4
CERT_REPEATS = 30  # the CLI's default --repeats for statistical certification
METHODS = ROW_METHODS + COL_METHODS
STEP_CERT_METHODS = ("rgdr", "rgdc")
STAT_CERT_METHODS = ("rgrk", "rgrcd")
CERT_SHAPE = (200, 50)
CERT_CALIB_REF_S = 0.0048

END_TO_END = tuple(f"{m}.solve_s" for m in METHODS) + ("setup_s", "certify_step_s", "certify_stat_s")
PER_LAYER_UNITS = {
    "problems.self_s": "s",
    "cgls.oracle_s": "s",
    "selection.calls": "count",
    "selection.self_s": "s",
    "row_methods.step.calls": "count",
    "row_methods.step.self_s": "s",
    "col_methods.step.calls": "count",
    "col_methods.step.self_s": "s",
    "row_methods.driver.self_s": "s",
    "col_methods.driver.self_s": "s",
    "row_methods.stall_wasted_frac": "fraction",
    "linalg.matvec.calls": "count",
    "linalg.matvec.self_s": "s",
    "linalg.matvec_t.calls": "count",
    "linalg.matvec_t.self_s": "s",
    "cgls.calls": "count",
    "cgls.self_s": "s",
    "cgls.failed": "count",
    "linalg.svd.calls": "count",
    "linalg.svd.self_s": "s",
    "theory.self_s": "s",
    **{f"{m}.{k}": u for m in METHODS
       for k, u in (("iters", "count"), ("us_per_it", "us"), ("set_size", "count"))},
    "trace.overhead_frac": "fraction",
    "ref.gemv_us": "us",
    "ref.gemvt_us": "us",
    "ref.gemv_mt_us": "us",
    "ref.gemvt_mt_us": "us",
    "rgdr.model_flops_per_it": "flop",
    "rgdc.model_flops_per_it": "flop",
}


@dataclass(frozen=True)
class Workload:
    """Consistent ``randn`` m x n instances, solved by every method."""

    name: str
    m: int
    n: int
    pool: int  # distinct main instances a timed run cycles through
    trace_rounds: int  # main instances (and certification instances) in a traced run
    sweep_share: float  # share of a timed run for method sweeps; certification gets the rest
    calib_ref_s: float  # the calibration loop's time at m x n on the reference host (envinfo.Calibration)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", 2000, 100, pool=8, trace_rounds=6, sweep_share=0.4,
                 calib_ref_s=0.0023,
                 why="20-1800 iterations of 2-5 small GEMVs each, where selection and solve-loop overheads show"),
        Workload("large", 5000, 300, pool=4, trace_rounds=2, sweep_share=0.7,
                 calib_ref_s=0.0095,
                 why="GEMV- and CGLS-bound iterations at 5000x300, where selection-only changes should stay flat"),
    )
}


def instance_seed(seed: int, index: int) -> int:
    """Matrix seed of main instance ``index``; the right-hand side uses the next stream, as the CLI does."""
    return 1000 * seed + 2 * index


def cert_seed(seed: int, index: int) -> int:
    return 1000 * seed + 500 + 2 * index


def build_instance(w: Workload, seed: int, index: int):
    """Seed to solvable in-memory instance: generator plus right-hand side with its CGLS reference."""
    s = instance_seed(seed, index)
    return rgsolve.problems.make_consistent(rgsolve.problems.gen_randn(w.m, w.n, s), s + 1)


def build_cert_instance(seed: int, index: int):
    s = cert_seed(seed, index)
    return rgsolve.problems.make_consistent(rgsolve.problems.gen_randn(*CERT_SHAPE, s), s + 1)


def solve(method: str, inst, seed: int, record_steps: bool = False):
    """One solve call at default parameters with x* supplied, as ``rgsolve solve`` makes it."""
    run = rgsolve.row_methods.run_row_method if method in ROW_METHODS else rgsolve.col_methods.run_col_method
    return run(method, inst.A, inst.b, config=SelectionConfig(), stop=StopRule(rse_tol=RSE_TOL),
               x_star=inst.x_star, seed=seed, cgls_cfg=CglsConfig(), record_steps=record_steps)


def check_solve(report, inst) -> str | None:
    """Return why ``report`` is wrong, or None when it converged to the generator's x*."""
    if report.termination_reason != "converged":
        return f"ended {report.termination_reason!r}, expected 'converged'"
    # Recomputed from the iterate, with x0 = 0, rather than taken from the report.
    rse = float(np.linalg.norm(report.x_final - inst.x_star) / np.linalg.norm(inst.x_star))
    if not rse < RSE_TOL:
        return f"recomputed RSE {rse:.3e} is not below {RSE_TOL:g}"
    return None


def certify_step_job(method: str, inst, seed: int) -> str | None:
    """A ``record_steps`` solve plus per-step certification; returns why it failed, or None."""
    report = solve(method, inst, seed, record_steps=True)
    problem = check_solve(report, inst)
    if problem:
        return problem
    certs = rgsolve.theory.certify_run(report, inst.A)
    bad = sum(not c.satisfied for c in certs)
    return f"{bad} of {len(certs)} step certificates violated" if bad else None


def certify_stat_job(method: str, inst, seed: int) -> str | None:
    """``CERT_REPEATS`` seeded ``record_steps`` solves plus statistical certification."""
    reports = []
    for rep in range(CERT_REPEATS):
        report = solve(method, inst, seed + rep, record_steps=True)
        problem = check_solve(report, inst)
        if problem:
            return f"repeat {rep}: {problem}"
        reports.append(report)
    cert = rgsolve.theory.certify_randomized(reports, inst.A)
    if not cert.satisfied:
        return (f"mean contraction {cert.mean_contraction:.6f} exceeds factor "
                f"{cert.factor:.6f} + 3 se ({cert.std_error:.2e})")
    return None
