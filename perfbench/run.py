"""rgsolve benchmark: per-method wall time to tolerance, set-up and certification time.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Inputs come from ``--seed`` only. BLAS is pinned to one thread and
everything runs in this one process, except the multi-threaded GEMV
reference of the traced run, which runs in a child process.

``--trace 0`` times solve calls and certification jobs from outside for
``--seconds``, scales each time for host speed, and prints every end-to-end
metric. ``--trace 1`` runs a fixed number of rounds in which each solve runs
untraced and then with the ``tracer.Tracer`` wrappers installed, and prints
the per-layer metrics. The second-to-last stdout line is a JSON detail
record (environment, sample counts, high percentiles, raw medians,
failures); the last line is the result object. Exit status: 0 when every
output checked out, 1 when one did not, 2 when the library source is
missing.
"""

from __future__ import annotations

import os

# Must be set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rgsolve" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import envinfo
    import measure
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    env = envinfo.environment(ROOT)
    if args.trace:
        values, ledger, detail = measure.traced_run(w, args.seed)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in wl.PER_LAYER_UNITS.items()}
        expected = wl.PER_LAYER_UNITS
    else:
        samples, ledger, detail = measure.timed_run(w, args.seed, args.seconds)
        metrics, detail["summary"] = measure.end_to_end_metrics(samples)
        expected = wl.END_TO_END
    env["loadavg_end"] = list(os.getloadavg())
    failed = len(ledger.failures)
    correct = failed == 0 and set(metrics) == set(expected)
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env,
                      "attempted": ledger.attempted, "failed": failed,
                      "fail_frac": failed / max(ledger.attempted, 1),
                      "failures": ledger.failures[:20], **detail}))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
