"""Sweep blocks: kaczmarz and cd take the iterations of one sequential step at a time."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgsolve import (
    DenseMatrix,
    GenerationError,
    StopRule,
    UsageError,
    gen_randn,
    col_methods,
    gen_smatrix,
    make_consistent,
    make_inconsistent,
    run_col_method,
    run_row_method,
    sigma_extremes,
)
from rgsolve.state import SWEEP_BLOCK
from sweep_reference import sequential_run

RUNS = {"kaczmarz": run_row_method, "cd": run_col_method}


def _both(method, inst, *, x0=None, rse_tol, max_iters):
    report = RUNS[method](method, inst.A, inst.b, x0=x0, x_star=inst.x_star,
                          stop=StopRule(rse_tol=rse_tol, max_iters=max_iters))
    reference = sequential_run(method, inst.A, inst.b, x0=x0, x_star=inst.x_star,
                               rse_tol=rse_tol, max_iters=max_iters)
    return report, reference


def _assert_same_run(report, reference, a):
    """Same iterations, reason and set sizes, x_final to 1e-13 relative and the RSE trace to
    1e-12 absolute (relative once the RSE passes 1), each plus 32 eps cond(A): rounding the
    same sums in another order leaves differences in x along A's small singular directions,
    and computing single steps' move of y by another summation moves x by up to 4 eps cond(A).
    A stationary stop, where the rounding noise of y meets the floor, may move by less than a
    block."""
    k = min(report.iterations, reference.iterations)
    assert report.termination_reason == reference.termination_reason
    if reference.termination_reason == "stationary":
        assert abs(report.iterations - reference.iterations) < SWEEP_BLOCK
    else:
        assert report.iterations == reference.iterations
    assert report.set_size_trace[:k] == reference.set_size_trace[:k]
    sigma_max, sigma_min = sigma_extremes(a)
    slack = 32 * np.finfo(float).eps * sigma_max / sigma_min
    rse = np.array(reference.rse_trace[:k + 1])
    assert (np.abs(report.rse_trace[:k + 1] - rse) <= (1e-12 + slack) * np.maximum(rse, 1.0)).all()
    assert np.linalg.norm(report.x_final - reference.x_final) <= \
        (1e-13 + slack) * np.linalg.norm(reference.x_final)


@st.composite
def _instances(draw):
    m, n = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        entries = gen_randn(m, n, seed).entries.copy()
    else:
        rank = draw(st.integers(2, max(2, min(m, n))))
        cond = 10.0 ** draw(st.floats(0.5, 6.0))
        entries = gen_smatrix(m, n, rank, cond, 1.0, seed).entries.copy()
    rng = np.random.default_rng(seed)
    copies = draw(st.sampled_from(["none", "rows", "cols"]))
    if copies != "none":
        # An exact duplicate and a near-parallel copy, next to each other or not.
        block = entries if copies == "rows" else entries.T
        picks = rng.integers(block.shape[0], size=2)
        extra = block[picks] + np.outer([0.0, 1e-7], np.ones(block.shape[1])) * \
            rng.standard_normal((2, block.shape[1]))
        block = np.insert(block, rng.integers(block.shape[0] + 1, size=2), extra, axis=0)
        entries = block if copies == "rows" else block.T
    a = DenseMatrix(entries)
    inst = None
    if draw(st.booleans()):
        try:
            inst = make_inconsistent(a, seed + 1)
        except GenerationError:  # A has full row rank
            pass
    if inst is None:
        inst = make_consistent(a, seed + 1)
    x0 = rng.standard_normal(a.n) if draw(st.booleans()) else None
    return inst, x0


# Derandomized, so that every run draws the same examples. A failing example reports as a
# failure: tests/conftest.py keeps Hypothesis's patch writer from ending the session.
@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_instances(), method=st.sampled_from(["kaczmarz", "cd"]),
       rse_tol=st.sampled_from([1e-4, 1e-6, 1e-12]), max_iters=st.integers(1, 700))
def test_sweep_blocks_match_single_steps(case, method, rse_tol, max_iters):
    inst, x0 = case
    report, reference = _both(method, inst, x0=x0, rse_tol=rse_tol, max_iters=max_iters)
    _assert_same_run(report, reference, inst.A)


@pytest.mark.parametrize("method", ["kaczmarz", "cd"])
@pytest.mark.parametrize("max_iters", [1, 123, 2 * SWEEP_BLOCK + 1])
def test_a_cap_inside_a_block_ends_at_the_cap(method, max_iters):
    inst = make_consistent(gen_randn(200, 50, 80), 81)
    report, reference = _both(method, inst, rse_tol=1e-300, max_iters=max_iters)
    assert report.termination_reason == "max_iters" and report.iterations == max_iters
    assert len(report.rse_trace) == len(report.iter_seconds) == max_iters + 1
    _assert_same_run(report, reference, inst.A)


@pytest.mark.parametrize("method", ["kaczmarz", "cd", "rgdr"])
def test_a_whole_float_cap_runs_as_an_int_and_other_caps_are_refused(method):
    inst = make_consistent(gen_randn(200, 50, 80), 81)
    stop = StopRule(rse_tol=1e-300, max_iters=30.0)
    assert type(stop.max_iters) is int
    run = run_row_method if method in ("kaczmarz", "rgdr") else run_col_method
    report = run(method, inst.A, inst.b, x_star=inst.x_star, stop=stop)
    assert report.termination_reason == "max_iters" and report.iterations == 30
    for cap in (2.5, math.inf, math.nan):
        with pytest.raises(UsageError, match=f"^max_iters must be a positive integer, got {cap}$"):
            StopRule(rse_tol=1e-4, max_iters=cap)


def test_inconsistent_kaczmarz_stalls_inside_a_block_where_single_steps_do():
    # 40 rows: each sweep is one block, so blocks end at multiples of 40.
    inst = make_inconsistent(gen_randn(40, 8, 82), 83)
    report, reference = _both("kaczmarz", inst, rse_tol=1e-4, max_iters=100_000)
    assert report.termination_reason == "stalled"
    assert report.iterations % 40
    _assert_same_run(report, reference, inst.A)


@pytest.mark.parametrize("method", ["kaczmarz", "cd"])
def test_the_tolerance_crossed_inside_a_block_ends_where_single_steps_do(method):
    # 40x20: kaczmarz blocks end at multiples of 40 and cd blocks at multiples of 20.
    inst = make_consistent(gen_randn(40, 20, 84), 85)
    report, reference = _both(method, inst, rse_tol=1e-6, max_iters=100_000)
    assert report.termination_reason == "converged"
    assert report.iterations % (40 if method == "kaczmarz" else 20)
    _assert_same_run(report, reference, inst.A)


@pytest.mark.parametrize("method, entries, message", [
    ("kaczmarz", [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], "zero row 1 cannot drive a projection step"),
    ("cd", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "zero column 1 cannot drive a coordinate step"),
])
def test_a_zero_row_or_column_still_raises_when_reached(method, entries, message):
    a = DenseMatrix(entries)
    with pytest.raises(UsageError, match=f"^{message}$"):
        RUNS[method](method, a, np.ones(a.m), x_star=np.ones(a.n))


def test_cd_stops_stationary_where_single_steps_do_when_y_hovers_at_the_floor(monkeypatch):
    # Column 3 repeats column 0 and column 4 nearly repeats column 1, so A is rank deficient:
    # the run ends stationary with its RSE stuck, and y's rounding noise is about the floor.
    base = gen_randn(12, 3, 32).entries
    noise = np.random.default_rng(32).standard_normal(12)
    a = DenseMatrix(np.column_stack([base, base[:, 0], base[:, 1] + 1e-7 * noise]))
    inst = make_consistent(a, 33)
    report, reference = _both("cd", inst, rse_tol=1e-4, max_iters=5000)
    assert reference.termination_reason == "stationary"
    _assert_same_run(report, reference, a)
    # Checked at block ends only, the floor is missed: with 5 columns every block ends on
    # the same column, where y sits just above it.
    monkeypatch.setattr(col_methods, "SWEEP_FLOOR_MARGIN", 0.0)
    late = RUNS["cd"]("cd", a, inst.b, x_star=inst.x_star, stop=StopRule(1e-4, 5000))
    assert late.termination_reason == "max_iters"
