"""Command-line front end: generate problems, run solves and sweeps, certify bounds.

Subcommands
    gen         write a synthetic problem directory (A.mtx, b.mtx, xstar.mtx, meta.json)
    solve       run one method on a problem directory, emitting report.json + trace.csv
    bench       run a methods x problems x seeds sweep from a JSON config
    certify     check a run's per-iteration contraction bounds (exit 0 iff satisfied)
    trace-plot  flatten report JSONs into long-format CSV of (k, seconds, rse)

Exit codes: 0 success/converged, 2 usage error, 3 stalled, non-converged or any
other solver error, 4 size-guard refusal. Outputs are deterministic for fixed
flags and seeds except for wall-clock columns.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .col_methods import COL_METHODS, run_col_method
from .errors import GenerationError, RgsolveError, SizeGuardError, UsageError
from .mmio import read_json, write_csv, write_json
from .problems import (
    ProblemInstance,
    gen_randn,
    gen_smatrix,
    load_instance,
    make_consistent,
    make_inconsistent,
    save_instance,
)
from .row_methods import ROW_METHODS, run_row_method
from .selection import SelectionConfig
from .state import STAT_CERTIFIED, STEP_CERTIFIED, SolveReport, StopRule
from .theory import _check_certify_size, certificates_to_csv, certify_randomized, certify_run

RANDOMIZED_METHODS = ("rgrk", "rbk", "rgrcd", "rbcd")
ALL_METHODS = ROW_METHODS + COL_METHODS
GENERATOR_KINDS = ("randn", "smatrix")


def _generate_matrix(kind, m, n, r, sigma1, sigma2, seed):
    if kind == "randn":
        return gen_randn(m, n, seed)
    if kind == "smatrix":
        rank = min(m, n) if r is None else r
        return gen_smatrix(m, n, rank, sigma1, sigma2, seed)
    raise UsageError(f"unknown generator kind {kind!r}")


def _build_instance(kind, m, n, r, sigma1, sigma2, inconsistent, noise_scale, seed):
    matrix = _generate_matrix(kind, m, n, r, sigma1, sigma2, seed)
    meta = {"generator": kind, "m": m, "n": n}
    if kind == "smatrix":
        meta.update({"r": min(m, n) if r is None else r, "sigma1": sigma1, "sigma2": sigma2})
    # The right-hand side uses its own stream so the matrix draw is unaffected.
    if inconsistent:
        return make_inconsistent(matrix, seed + 1, noise_scale=noise_scale, meta=meta)
    return make_consistent(matrix, seed + 1, meta=meta)


def _selection_config(values: dict) -> SelectionConfig:
    """The selection config from flags or a bench entry: each field under its own name."""
    return SelectionConfig(**{
        f.name: _config_number(values.get(f.name, f.default), f.name, type(f.default))
        for f in fields(SelectionConfig)
    })


def _run_method(method, instance: ProblemInstance, config, stop, seed, record_steps=False):
    runner = run_row_method if method in ROW_METHODS else run_col_method
    return runner(
        method,
        instance.A,
        instance.b,
        config=config,
        stop=stop,
        x_star=instance.x_star,
        seed=seed,
        record_steps=record_steps,
    )


def _run_cell(method, instance, config, stop, base_seed, repeats, record_steps=False):
    """One (method, instance) cell: repeated runs for randomized methods, one otherwise."""
    runs = repeats if method in RANDOMIZED_METHODS else 1
    return [
        _run_method(method, instance, config, stop, base_seed + rep, record_steps)
        for rep in range(runs)
    ]


def _write_trace_csv(reports: list[SolveReport], path: Path) -> None:
    write_csv(path, ["run", "k", "rse", "set_size", "cumulative_seconds"], (
        [run_idx, k, repr(rse), rep.set_size_trace[k - 1] if k > 0 else "",
         repr(rep.iter_seconds[k])]
        for run_idx, rep in enumerate(reports) for k, rse in enumerate(rep.rse_trace)
    ))


def _aggregate(reports: list[SolveReport]) -> dict:
    its = [rep.iterations for rep in reports]
    walls = [rep.wall_seconds for rep in reports]
    rses = [rep.final_rse for rep in reports]
    return {
        "runs": len(reports),
        "mean_iterations": sum(its) / len(its),
        "mean_wall_seconds": sum(walls) / len(walls),
        "mean_final_rse": sum(rses) / len(rses),
        "termination_reasons": sorted({rep.termination_reason for rep in reports}),
    }


def cmd_gen(args) -> int:
    instance = _build_instance(
        args.kind, args.m, args.n, args.r, args.sigma1, args.sigma2,
        args.inconsistent, args.noise_scale, args.seed,
    )
    out = save_instance(instance, args.out)
    case = "inconsistent" if args.inconsistent else "consistent"
    print(f"wrote {case} {args.kind} instance ({args.m}x{args.n}, seed {args.seed}) to {out}")
    return 0


def cmd_solve(args) -> int:
    instance = load_instance(args.problem_dir)
    if args.method not in ALL_METHODS:
        raise UsageError(f"unknown method {args.method!r}; expected one of {ALL_METHODS}")
    config = _selection_config(vars(args))
    stop = StopRule(rse_tol=args.tol, max_iters=args.max_iters)
    reports = _run_cell(args.method, instance, config, stop, args.seed, args.repeats)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    aggregate = _aggregate(reports)
    write_json(out / "report.json", {
        "method": args.method,
        "params": reports[0].params,
        "problem": {"directory": str(args.problem_dir), "consistent": instance.consistent},
        "stop": {"rse_tol": args.tol, "max_iters": args.max_iters},
        "aggregate": aggregate,
        "runs": [rep.to_dict() for rep in reports],
    })
    _write_trace_csv(reports, out / "trace.csv")

    label = " ".join(
        [args.method] + [f"{k}={v:g}" for k, v in reports[0].params.items()]
    )
    if len(reports) > 1:
        print(
            f"{label}: mean IT={aggregate['mean_iterations']:.1f} "
            f"mean CPU={aggregate['mean_wall_seconds']:.4f}s "
            f"mean RSE={aggregate['mean_final_rse']:.3e} ({len(reports)} runs)"
        )
    else:
        rep = reports[0]
        print(
            f"{label}: IT={rep.iterations} RSE={rep.final_rse:.3e} "
            f"reason={rep.termination_reason} CPU={rep.wall_seconds:.4f}s"
        )
    return 0 if all(rep.termination_reason == "converged" for rep in reports) else 3


def _method_label(entry: dict, config: SelectionConfig) -> str:
    """The method name and the parameters its bench entry sets, as converted into ``config``."""
    return " ".join([entry["method"], *(f"{f.name}={getattr(config, f.name):g}"
                                        for f in fields(config) if f.name in entry)])


def _config_number(value, key: str, kind):
    """``kind(value)``, or a usage error naming the bench config entry when it is not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"bench config {key} must be a number, got {value!r}") from None


def _at_least(value: int, least: int, name: str) -> int:
    """``value``, or a usage error when it is below ``least`` (seeds >= 0, repeats >= 1)."""
    if value < least:
        raise UsageError(f"{name} must be at least {least}, got {value}")
    return value


def cmd_bench(args) -> int:
    config = read_json(args.config)
    if not isinstance(config, dict):
        raise UsageError("bench config must be a JSON object")
    problems = config.get("problems", [])
    methods = config.get("methods", [])
    seeds = config.get("seeds", [])
    for key, value in (("problems", problems), ("methods", methods), ("seeds", seeds)):
        if not isinstance(value, list):
            raise UsageError(f"bench config {key} must be a list, got {value!r}")
    if not methods:
        raise UsageError("bench config lists no methods")
    if not problems:
        raise UsageError("bench config lists no problems")
    if not seeds:
        raise UsageError("bench config lists no seeds")
    for entry in (*problems, *methods):
        if not isinstance(entry, dict):
            raise UsageError(f"bench config problems and methods must be objects, got {entry!r}")
    for prob in problems:
        if prob.get("kind", "randn") not in GENERATOR_KINDS:
            raise UsageError(f"bench config problem kind must be one of {GENERATOR_KINDS}, "
                             f"got {prob['kind']!r}")
        if prob.get("case", "consistent") not in ("consistent", "inconsistent"):
            raise UsageError("bench config problem case must be 'consistent' or 'inconsistent', "
                             f"got {prob['case']!r}")
        for key in ("m", "n") if prob.get("r") is None else ("m", "n", "r"):
            value = prob.get(key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise UsageError(
                    f"bench config problem {key} must be a positive integer, got {value!r}"
                )
    stop = StopRule(
        rse_tol=_config_number(config.get("tol", 1e-4), "tol", float),
        max_iters=_config_number(config.get("max_iters", 1_000_000), "max_iters", int),
    )
    repeats = _at_least(_config_number(config.get("repeats", 30), "repeats", int), 1,
                        "bench config repeats")
    seeds = [_at_least(_config_number(seed, "seed", int), 0, "bench config seed")
             for seed in seeds]
    generator_numbers = [
        [_config_number(prob.get(key, default), key, float)
         for key, default in (("sigma1", 1.25), ("sigma2", 1.0), ("noise_scale", 0.1))]
        for prob in problems
    ]
    sel_configs = []
    for entry in methods:
        if entry.get("method") not in ALL_METHODS:
            raise UsageError(f"bench config method must be one of {ALL_METHODS}, "
                             f"got {entry.get('method')!r}")
        sel_configs.append(_selection_config(entry))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    any_failure = False
    for prob, (sigma1, sigma2, noise_scale) in zip(problems, generator_numbers):
        kind = prob.get("kind", "randn")
        m, n = prob["m"], prob["n"]
        inconsistent = prob.get("case", "consistent") == "inconsistent"
        instances = [
            _build_instance(kind, m, n, prob.get("r"), sigma1, sigma2, inconsistent,
                            noise_scale, seed)
            for seed in seeds
        ]
        for entry, sel_config in zip(methods, sel_configs):
            method = entry["method"]
            cell_reports = []
            status = "ok"
            try:
                for seed, instance in zip(seeds, instances):
                    cell_reports.extend(
                        _run_cell(method, instance, sel_config, stop, seed, repeats)
                    )
            except RgsolveError as exc:
                status = f"error: {exc}"
                any_failure = True
            row = {
                "kind": kind,
                "m": m,
                "n": n,
                "case": "inconsistent" if inconsistent else "consistent",
                "method": method,
                "label": _method_label(entry, sel_config),
                "seeds": len(seeds),
                "runs": len(cell_reports),
                "status": status,
            }
            if cell_reports:
                agg = _aggregate(cell_reports)
                row.update({
                    "mean_it": agg["mean_iterations"],
                    "mean_wall_seconds": agg["mean_wall_seconds"],
                    "mean_final_rse": agg["mean_final_rse"],
                    "reasons": "|".join(agg["termination_reasons"]),
                })
                if any(rep.termination_reason != "converged" for rep in cell_reports):
                    any_failure = True
            else:
                row.update({"mean_it": "", "mean_wall_seconds": "",
                            "mean_final_rse": "", "reasons": ""})
            rows.append(row)

    fields = ["kind", "m", "n", "case", "method", "label", "seeds", "runs",
              "mean_it", "mean_wall_seconds", "mean_final_rse", "reasons", "status"]
    write_csv(out / "results.csv", fields, ([row[name] for name in fields] for row in rows))

    # Trend summary: iteration-count ratios between method pairs on each problem.
    by_problem: dict[tuple, list[dict]] = {}
    for row in rows:
        by_problem.setdefault((row["kind"], row["m"], row["n"], row["case"]), []).append(row)
    summary = []
    for key, group in by_problem.items():
        for i, row_a in enumerate(group):
            for row_b in group[i + 1:]:
                if row_a["mean_it"] and row_b["mean_it"] and row_b["mean_it"] > 0:
                    ratio = repr(row_a["mean_it"] / row_b["mean_it"])
                else:
                    ratio = ""
                summary.append([*key, row_a["label"], row_b["label"], ratio])
    write_csv(out / "summary.csv",
              ["kind", "m", "n", "case", "method_a", "method_b", "it_ratio"], summary)

    print(f"wrote {len(rows)} result rows to {out / 'results.csv'}")
    return 3 if any_failure else 0


def cmd_certify(args) -> int:
    instance = load_instance(args.problem_dir)
    if args.method not in STEP_CERTIFIED + STAT_CERTIFIED:
        raise UsageError(
            "certification supports rgdr, rgdc (per-step) and rgrk, rgrcd (statistical)"
        )
    _check_certify_size(instance.A)
    config = _selection_config(vars(args))
    stop = StopRule(rse_tol=args.tol, max_iters=args.max_iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.method in STEP_CERTIFIED:
        report = _run_method(args.method, instance, config, stop, args.seed, record_steps=True)
        certificates = certify_run(report, instance.A)
        certificates_to_csv(certificates, out / "certificates.csv")
        violations = sum(not cert.satisfied for cert in certificates)
        print(
            f"{args.method} theta={args.theta:g}: {len(certificates)} certificates, "
            f"{violations} violation(s)"
        )
        return 0 if violations == 0 else 3

    reports = _run_cell(args.method, instance, config, stop, args.seed, args.repeats,
                        record_steps=True)
    aggregate = certify_randomized(reports, instance.A)
    write_csv(out / "certificates.csv",
              ["method", "theta", "factor", "mean_contraction", "std_error", "runs", "satisfied"],
              [[aggregate.method, repr(aggregate.theta), repr(aggregate.factor),
                repr(aggregate.mean_contraction), repr(aggregate.std_error),
                aggregate.runs, int(aggregate.satisfied)]])
    print(
        f"{args.method} theta={args.theta:g}: mean contraction "
        f"{aggregate.mean_contraction:.6f} vs factor {aggregate.factor:.6f} "
        f"(+3se band, {aggregate.runs} runs): "
        f"{'satisfied' if aggregate.satisfied else 'VIOLATED'}"
    )
    return 0 if aggregate.satisfied else 3


def cmd_trace_plot(args) -> int:
    rows = []
    for path in args.reports:
        payload = read_json(path)
        try:
            method = str(payload["method"])
            theta = payload.get("params", {}).get("theta", "")
            for run in payload["runs"]:
                seconds = run["iter_seconds"]
                rows.extend((method, theta, k, float(seconds[k]), float(rse))
                            for k, rse in enumerate(run["rse_trace"]))
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            raise UsageError(
                f"{path}: not a solve report ({type(exc).__name__}: {exc})") from None
    rows.sort(key=lambda row: (row[0], str(row[1]), row[2]))
    write_csv(args.out, ["method", "theta", "k", "cumulative_seconds", "rse"],
              ([method, theta, k, repr(seconds), repr(rse)]
               for method, theta, k, seconds, rse in rows))
    print(f"wrote {len(rows)} trace rows to {args.out}")
    return 0


def _add_run_arguments(parser, repeats_default: int, repeats_help: str) -> None:
    """The problem, method, stop and output flags shared by ``solve`` and ``certify``."""
    parser.add_argument("problem_dir")
    parser.add_argument("--method", required=True)
    for f in fields(SelectionConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                            default=f.default)
    parser.add_argument("--tol", type=float, default=1e-4)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=repeats_default, help=repeats_help)
    parser.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgsolve",
        description="Greedy row/column iterative solvers with a reproducible benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic problem directory")
    gen.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--r", type=int, default=None, help="rank (smatrix; default min(m, n))")
    gen.add_argument("--sigma1", type=float, default=1.25, help="largest singular value (smatrix)")
    gen.add_argument("--sigma2", type=float, default=1.0, help="smallest singular value (smatrix)")
    gen.add_argument("--inconsistent", action="store_true",
                     help="add null-space noise to the right-hand side")
    gen.add_argument("--noise-scale", type=float, default=0.1,
                     help="noise norm relative to ||A x*|| (default 0.1)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run one method on a problem directory")
    _add_run_arguments(solve, 1, "averaged repeat count for randomized methods")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run a methods x problems x seeds sweep")
    bench.add_argument("config", help="JSON config: problems, methods, seeds, tol, repeats")
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    certify = sub.add_parser("certify", help="verify per-iteration contraction bounds")
    _add_run_arguments(certify, 30, "runs for statistical certification of randomized methods")
    certify.set_defaults(func=cmd_certify)

    trace = sub.add_parser("trace-plot", help="flatten report JSONs into plot-ready CSV")
    trace.add_argument("reports", nargs="*", help="report.json files from solve runs")
    trace.add_argument("--out", required=True)
    trace.set_defaults(func=cmd_trace_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, least in (("seed", 0), ("repeats", 1)):
            if hasattr(args, name):
                _at_least(getattr(args, name), least, f"--{name}")
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UsageError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RgsolveError as exc:  # stalled, subsolver failure, degenerate step, y drift
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
