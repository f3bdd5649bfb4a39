"""Timed and traced runs of one workload: sampling, output checks, metric values.

``timed_run`` gives the end-to-end samples and ``traced_run`` the per-layer
values; ``run.py`` is the command line around them.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

import envinfo
import rgsolve.theory
import workloads as wl
from rgsolve.row_methods import ROW_METHODS
from tracer import Tracer

SETUP_REPEATS = 3  # set-up samples per main instance
# certify_stat_s gets twice certify_step_s's share of the certification time: its job is longer.
STAT_OVER_STEP = 2.0
SWEEP_FLOOR_S = 0.1  # a sweep repeats each method's solve until this much time is spent on it


def percentile_summary(samples: list[float]) -> dict:
    """Median, the highest of p90/p99/p99.9 with at least ten samples beyond it, and the count."""
    out = {"median": statistics.median(samples), "n": len(samples), "p": None, "p_value": None}
    for p in (99.9, 99.0, 90.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            out["p"], out["p_value"] = p, float(np.percentile(samples, p))
            break
    return out


class Ledger:
    """Counts attempted and failed operations and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, fn):
        """Call ``fn`` (which returns None or why its output is wrong); return True if it passed."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a failed operation is counted, and the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")
        return not problem


def timed_solve(ledger: Ledger, method: str, inst, solver_seed: int, label: str):
    """One checked solve call; its wall seconds, or None when it failed."""
    elapsed = []

    def op():
        t0 = perf_counter()
        report = wl.solve(method, inst, solver_seed)
        elapsed.append(perf_counter() - t0)
        return wl.check_solve(report, inst)

    return elapsed[0] if ledger.run(label, op) else None


def timed_run(w, seed: int, seconds: float):
    """Interleave method sweeps and both certification jobs in fixed time shares for ``seconds``.

    Returns, per sample key, (wall seconds, host-speed scale factor) pairs.
    """
    ledger = Ledger()
    samples: dict[str, list[tuple[float, float]]] = {m: [] for m in wl.METHODS}
    samples.update(setup_s=[], certify_step_s=[], certify_stat_s=[])
    pool: dict[int, object] = {}
    calib = envinfo.Calibration(w.m, w.n, w.calib_ref_s)
    cert_calib = envinfo.Calibration(*wl.CERT_SHAPE, wl.CERT_CALIB_REF_S)

    def sweep(i: int):
        idx = i % w.pool
        if idx not in pool:
            k_before = calib.measure()
            times = []
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                pool[idx] = wl.build_instance(w, seed, idx)
                times.append(perf_counter() - t0)
            scale = calib.scale(k_before, calib.measure())
            samples["setup_s"].extend((t, scale) for t in times)
        inst, solver_seed = pool[idx], wl.instance_seed(seed, idx)
        for method in wl.METHODS:
            # Cheap solves repeat so that every method is sampled across the whole run.
            k_before = calib.measure()
            block: list[float] = []
            while sum(block) < SWEEP_FLOOR_S:
                elapsed = timed_solve(ledger, method, inst, solver_seed, f"{method} on instance {idx}")
                if elapsed is None:
                    break
                block.append(elapsed)
            scale = calib.scale(k_before, calib.measure())
            samples[method].extend((t, scale) for t in block)

    def certify(key: str, methods, job, index: int):
        inst, solver_seed = wl.build_cert_instance(seed, index), wl.cert_seed(seed, index)
        k_before = cert_calib.measure()
        t0 = perf_counter()
        ok = [ledger.run(f"{key} {m} on certification instance {index}",
                         lambda m=m: job(m, inst, solver_seed)) for m in methods]
        elapsed = perf_counter() - t0
        if all(ok):
            samples[key].append((elapsed, cert_calib.scale(k_before, cert_calib.measure())))

    cert_share = (1.0 - w.sweep_share) / (1.0 + STAT_OVER_STEP)
    kinds = {
        "sweep": (w.sweep_share, sweep),
        "certify_step_s": (cert_share, lambda i: certify(
            "certify_step_s", wl.STEP_CERT_METHODS, wl.certify_step_job, 2 * i)),
        "certify_stat_s": (STAT_OVER_STEP * cert_share, lambda i: certify(
            "certify_stat_s", wl.STAT_CERT_METHODS, wl.certify_stat_job, 2 * i + 1)),
    }
    spent = dict.fromkeys(kinds, 0.0)
    last = dict.fromkeys(kinds, 0.0)
    done = dict.fromkeys(kinds, 0)
    start = perf_counter()
    deadline = start + seconds
    while True:
        pending = [k for k in kinds if done[k] == 0]
        if pending:
            kind = pending[0]
        else:
            total = sum(spent.values())
            kind = max(kinds, key=lambda k: kinds[k][0] * total - spent[k])
            if perf_counter() + last[kind] > deadline:
                break
        t0 = perf_counter()
        kinds[kind][1](done[kind])
        last[kind] = perf_counter() - t0
        spent[kind] += last[kind]
        done[kind] += 1
    detail = {"rounds": done, "measured_s": perf_counter() - start,
              "calibration_median_s": {"main": statistics.median(calib.samples),
                                       "cert": statistics.median(cert_calib.samples)}}
    return samples, ledger, detail


def end_to_end_metrics(samples: dict[str, list[tuple[float, float]]]) -> tuple[dict, dict]:
    """Median host-speed-adjusted seconds per metric, plus raw medians, counts and high percentiles."""
    metrics, summary = {}, {}
    for name in wl.END_TO_END:
        pairs = samples.get(name[:-len(".solve_s")] if name.endswith(".solve_s") else name)
        if not pairs:
            continue
        summary[name] = percentile_summary([t * scale for t, scale in pairs])
        summary[name]["raw_median"] = statistics.median(t for t, _ in pairs)
        metrics[name] = {"value": summary[name]["median"], "unit": "s"}
    return metrics, summary


def stall_wasted(report) -> tuple[int, int]:
    """Iterations after the last best-RSE improvement (the solver's 0.1% stall rule) and total iterations."""
    best, last_improved = report.rse_trace[0], 0
    for k, rse in enumerate(report.rse_trace[1:], start=1):
        if rse < best * (1.0 - 1e-3):
            best, last_improved = rse, k
    return report.iterations - last_improved, report.iterations


def traced_run(w, seed: int):
    """Fixed rounds: set-up, each method untraced then traced, certification jobs; per-layer metrics."""
    ledger = Ledger()
    tracer = Tracer()
    stats = {m: {"iters": 0, "untraced_s": 0.0, "traced_s": 0.0, "sizes": []} for m in wl.METHODS}
    row_iters = {"wasted": 0, "total": 0}
    for r in range(w.trace_rounds):
        tracer.op = "setup"
        with tracer:
            inst = wl.build_instance(w, seed, r)
        for method in wl.METHODS:
            def op(method=method, traced_first=bool(r % 2)):
                reports, times = {}, {}
                for traced in ((True, False) if traced_first else (False, True)):
                    tracer.op = "solve"
                    if traced:
                        tracer.install()
                    try:
                        t0 = perf_counter()
                        reports[traced] = wl.solve(method, inst, wl.instance_seed(seed, r))
                        times[traced] = perf_counter() - t0
                    finally:
                        tracer.restore()
                plain, seen = reports[False], reports[True]
                if (seen.iterations != plain.iterations
                        or seen.x_final.tobytes() != plain.x_final.tobytes()):
                    return "traced solve differs from the untraced one"
                s = stats[method]
                s["iters"] += plain.iterations
                s["untraced_s"] += times[False]
                s["traced_s"] += times[True]
                s["sizes"].extend(plain.set_size_trace)
                if method in ROW_METHODS:
                    waste, its = stall_wasted(plain)
                    row_iters["wasted"] += waste
                    row_iters["total"] += its
                return wl.check_solve(plain, inst)

            ledger.run(f"{method} on instance {r}", op)
        cert_inst, cert_seed = wl.build_cert_instance(seed, r), wl.cert_seed(seed, r)
        tracer.op = "certify"
        with tracer:
            for m in wl.STEP_CERT_METHODS:
                ledger.run(f"certify_step {m}", lambda m=m: wl.certify_step_job(m, cert_inst, cert_seed))
            for m in wl.STAT_CERT_METHODS:
                ledger.run(f"certify_stat {m}", lambda m=m: wl.certify_stat_job(m, cert_inst, cert_seed))

    rounds = w.trace_rounds
    totals = tracer.layer_totals()

    def layer(op, name, field):
        return totals.get((op, name), {}).get(field, 0) / rounds

    values = {
        "problems.self_s": layer("setup", "problems", "self_s"),
        "cgls.oracle_s": layer("setup", "cgls", "oracle_s"),
        "cgls.calls": layer("solve", "cgls", "calls"),
        "cgls.self_s": layer("solve", "cgls", "self_s"),
        "cgls.failed": layer("solve", "cgls", "failed"),
        "linalg.svd.calls": layer("certify", "linalg.svd", "calls"),
        "linalg.svd.self_s": layer("certify", "linalg.svd", "self_s"),
        "theory.self_s": layer("certify", "theory", "self_s"),
    }
    for name in ("selection", "row_methods.step", "col_methods.step", "linalg.matvec", "linalg.matvec_t"):
        values[f"{name}.calls"] = layer("solve", name, "calls")
        values[f"{name}.self_s"] = layer("solve", name, "self_s")
    for name in ("row_methods.driver", "col_methods.driver"):
        values[f"{name}.self_s"] = layer("solve", name, "self_s")
    values["row_methods.stall_wasted_frac"] = row_iters["wasted"] / max(row_iters["total"], 1)
    untraced = sum(s["untraced_s"] for s in stats.values())
    values["trace.overhead_frac"] = sum(s["traced_s"] for s in stats.values()) / max(untraced, 1e-12) - 1.0
    for m in wl.METHODS:
        s = stats[m]
        values[f"{m}.iters"] = s["iters"] / rounds
        values[f"{m}.us_per_it"] = 1e6 * s["untraced_s"] / max(s["iters"], 1)
        values[f"{m}.set_size"] = float(np.mean(s["sizes"])) if s["sizes"] else 0.0
    ref = envinfo.gemv_us(w.m, w.n)
    ref_mt = envinfo.gemv_us_threaded(w.m, w.n, os.cpu_count() or 1)
    values.update({"ref.gemv_us": ref["gemv_us"], "ref.gemvt_us": ref["gemvt_us"],
                   "ref.gemv_mt_us": ref_mt["gemv_us"], "ref.gemvt_mt_us": ref_mt["gemvt_us"]})
    values["rgdr.model_flops_per_it"] = rgsolve.theory.flops_rgdr(
        w.m, w.n, max(1, round(values["rgdr.set_size"])))
    values["rgdc.model_flops_per_it"] = rgsolve.theory.flops_rgdc(
        w.n, max(1, round(values["rgdc.set_size"])))
    detail = {"rounds": rounds, "spans": len(tracer.spans)}
    return values, ledger, detail
