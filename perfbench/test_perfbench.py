"""Checks on the benchmark itself: trace fidelity, clean restore, self-time arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rgsolve  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Span, Tracer  # noqa: E402


def _attribute_snapshot() -> dict[str, dict[str, object]]:
    mods = {name: importlib.import_module(f"rgsolve.{name}")
            for _, name, _ in pkgutil.iter_modules(rgsolve.__path__)}
    snap = {name: dict(vars(mod)) for name, mod in mods.items()}
    snap["rgsolve"] = dict(vars(rgsolve))
    snap["DenseMatrix"] = dict(vars(rgsolve.linalg.DenseMatrix))
    return snap


def test_restore_leaves_every_attribute_as_it_was():
    before = _attribute_snapshot()
    tracer = Tracer()
    with tracer:
        assert rgsolve.row_methods.run_row_method is not before["row_methods"]["run_row_method"]
    after = _attribute_snapshot()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        changed = [k for k in before[name] if before[name][k] is not after[name][k]]
        assert not changed, f"{name}: {changed}"


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_solves_are_bit_identical(workload):
    w = wl.WORKLOADS[workload]
    inst = wl.build_instance(w, 0, 0)
    seed = wl.instance_seed(0, 0)
    tracer = Tracer()
    for method in wl.METHODS:
        plain = wl.solve(method, inst, seed)
        tracer.op = method
        with tracer:
            traced = wl.solve(method, inst, seed)
        assert traced.iterations == plain.iterations, method
        assert traced.termination_reason == plain.termination_reason == "converged"
        assert traced.x_final.tobytes() == plain.x_final.tobytes(), method
        driver = "row_methods.driver" if method in rgsolve.ROW_METHODS else "col_methods.driver"
        assert tracer.layer_totals()[(method, driver)]["calls"] == 1


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    tracer.spans.extend([
        Span(-1, "row_methods.driver", "solve", 0.0, 10.0),
        Span(0, "row_methods.step", "solve", 1.0, 5.0),
        Span(1, "row_methods.step", "solve", 2.0, 3.0),  # rgrk_step calling kaczmarz_step
        Span(1, "linalg.matvec", "solve", 3.0, 4.5),
        Span(-1, "problems", "setup", 0.0, 2.0),
        Span(4, "cgls", "setup", 0.5, 1.5, failed=False),
    ])
    totals = tracer.layer_totals()
    assert totals[("solve", "row_methods.driver")]["self_s"] == pytest.approx(6.0)
    assert totals[("solve", "row_methods.step")]["self_s"] == pytest.approx(1.5 + 1.0)
    assert totals[("solve", "row_methods.step")]["calls"] == 1
    assert totals[("solve", "linalg.matvec")]["self_s"] == pytest.approx(1.5)
    assert totals[("setup", "problems")]["self_s"] == pytest.approx(1.0)
    assert totals[("setup", "cgls")]["oracle_s"] == pytest.approx(1.0)
    assert totals[("setup", "cgls")]["calls"] == 0
