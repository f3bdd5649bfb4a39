"""Sweep blocks: kaczmarz and cd take the iterations of one sequential step at a time."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgsolve import (
    DenseMatrix,
    GenerationError,
    SelectionConfig,
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
from rgsolve.linalg import SWEEP_BLOCK
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


def _assert_stalls_inside_a_block_where_single_steps_do(m, n, seed):
    inst = make_inconsistent(gen_randn(m, n, seed), seed + 1)
    report, reference = _both("kaczmarz", inst, rse_tol=1e-4, max_iters=100_000)
    assert report.termination_reason == "stalled"
    assert report.iterations % m % SWEEP_BLOCK  # not at a block's end
    _assert_same_run(report, reference, inst.A)


def test_inconsistent_kaczmarz_stalls_inside_a_block_where_single_steps_do():
    # 40 rows: each sweep is one block, so blocks end at multiples of 40.
    _assert_stalls_inside_a_block_where_single_steps_do(40, 8, 82)


# 120 rows: blocks [0, 50), [50, 100) and [100, 120), so the stall window is reached inside
# a block that is not a whole sweep. At 40x15 a block is walked guess by guess, since the
# trace entries not yet folded could reach the window, but they hold a 0.1% gain and the
# run goes on past that block.
@pytest.mark.parametrize("m, n, seed", [(120, 8, 82), (40, 15, 86)])
def test_kaczmarz_stalls_where_single_steps_do_when_the_window_nears_inside_a_block(m, n, seed):
    _assert_stalls_inside_a_block_where_single_steps_do(m, n, seed)


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


@pytest.mark.parametrize("method, entries, b, x_star", [
    ("kaczmarz", [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 2.0, 0.0], [1.0, 2.0]),
    ("cd", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0], [1.0, 2.0, 0.0]),
])
def test_a_zero_row_or_column_never_reached_does_not_raise(method, entries, b, x_star):
    a = DenseMatrix(entries)
    report = RUNS[method](method, a, np.array(b), x_star=np.array(x_star))
    assert report.termination_reason == "converged" and report.iterations == 2


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


# Wide, so without a Gram: y after each iteration of a block near the floor is read from
# (A_S diag(delta)).T A.
@pytest.mark.parametrize("m, n, seed", [(20, 120, 3), (30, 200, 5)])
def test_wide_cd_stops_stationary_where_single_steps_do(m, n, seed):
    inst = make_consistent(gen_randn(m, n, seed), seed + 1)
    report, reference = _both("cd", inst, rse_tol=1e-300, max_iters=100_000)
    assert inst.A.gram is None and reference.termination_reason == "stationary"
    _assert_same_run(report, reference, inst.A)


def _slots(a, axis):
    """Index -> whether that sweep slot holds its triangle's inverse, for every filled slot."""
    return {i: slot[1] is not None for i, slot in enumerate(a._sweeps[axis][1]) if slot}


def _digest(report):
    return (report.iterations, report.termination_reason, report.rse_trace,
            report.set_size_trace, report.x_final.tobytes())


@pytest.mark.parametrize("shape", [(200, 60), (60, 200)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", ["kaczmarz", "cd"])
def test_warm_and_cold_solves_are_byte_identical_over_many_passes(method, shape, monkeypatch):
    inst = make_consistent(gen_smatrix(*shape, 60, 2.0, 1.0, 86), 87)
    axis = 0 if method == "kaczmarz" else 1
    stop = StopRule(rse_tol=1e-8, max_iters=100_000)

    def solve(a):
        return RUNS[method](method, a, inst.b, x_star=inst.x_star, stop=stop)

    cold = solve(inst.A)
    assert cold.iterations >= 3 * shape[axis]
    slots = _slots(inst.A, axis)
    assert len(slots) == -(-shape[axis] // SWEEP_BLOCK) and all(slots.values())
    inverted = []
    monkeypatch.setattr(np.linalg, "inv", lambda *args: inverted.append(args))
    assert _digest(solve(inst.A)) == _digest(cold)
    assert not inverted  # a warm solve inverts no block again
    monkeypatch.undo()
    assert _digest(solve(DenseMatrix(inst.A.entries))) == _digest(cold)
    reference = sequential_run(method, inst.A, inst.b, x_star=inst.x_star, rse_tol=1e-8,
                               max_iters=100_000)
    _assert_same_run(cold, reference, inst.A)


def test_a_first_pass_kaczmarz_run_solves_each_block_as_before():
    # Six whole blocks of a 400-row matrix: every one on the first pass, none inverted.
    inst = make_consistent(gen_randn(400, 60, 88), 89)
    a, b = inst.A, inst.b
    report = run_row_method("kaczmarz", a, b, x_star=inst.x_star,
                            stop=StopRule(rse_tol=1e-300, max_iters=6 * SWEEP_BLOCK))
    x = np.zeros(a.n)
    for lo in range(0, 6 * SWEEP_BLOCK, SWEEP_BLOCK):
        sub = a.entries[lo:lo + SWEEP_BLOCK]
        x += np.linalg.solve(np.tril(sub @ sub.T), b[lo:lo + SWEEP_BLOCK] - sub @ x) @ sub
    assert report.x_final.tobytes() == x.tobytes()
    assert _slots(a, 0) == dict.fromkeys(range(6), False)


def _zeroed(shape, axis, index, seed):
    """A randn matrix with row (axis 0) or column (axis 1) ``index`` zeroed."""
    entries = gen_randn(*shape, seed).entries.copy()
    np.moveaxis(entries, axis, 0)[index] = 0.0
    return DenseMatrix(entries)


# Blocks that are not whole blocks of the SWEEP_BLOCK partition keep no slot of their own: each
# fills its grid block's slot with that block's whole triangle, and with its inverse once a
# later pass comes back to it.
@pytest.mark.parametrize("method, matrix, max_iters, filled", [
    ("kaczmarz", lambda: gen_randn(200, 60, 90), 123, dict.fromkeys(range(3), False)),
    ("cd", lambda: gen_randn(200, 60, 90), 30, {0: False}),
    ("kaczmarz", lambda: _zeroed((120, 60), 0, 75, 91), 75, {0: False, 1: False}),
    ("cd", lambda: _zeroed((200, 120), 1, 75, 91), 75, {0: False, 1: False}),
    # n = 60: [0, 50), [50, 60), then [0, 40) up to the refresh, [40, 50) and [50, 60).
    ("cd", lambda: gen_randn(200, 60, 92), 120, {0: True, 1: True}),
    ("cd", lambda: gen_randn(200, 60, 92), 170, {0: True, 1: True}),
    # Cut by the cap on a later pass: [100, 123), and [20, 30) after the refresh at 200.
    ("kaczmarz", lambda: gen_randn(200, 60, 90), 2 * 200 + 123, dict.fromkeys(range(4), True)),
    ("cd", lambda: gen_randn(200, 60, 90), 3 * 60 + 30, {0: True, 1: True}),
], ids=["kaczmarz-budget", "cd-budget", "kaczmarz-zero-row", "cd-zero-column",
        "cd-off-grid", "cd-off-grid-then-whole", "kaczmarz-budget-revisit", "cd-budget-revisit"])
def test_blocks_that_are_not_whole_keep_no_slot_and_match_single_steps(method, matrix,
                                                                       max_iters, filled):
    a = matrix()
    inst = make_consistent(a, 93)
    report, reference = _both(method, inst, rse_tol=1e-300, max_iters=max_iters)
    assert report.iterations == max_iters
    _assert_same_run(report, reference, a)
    axis = 0 if method == "kaczmarz" else 1
    assert _slots(a, axis) == filled
    for index in filled:
        grid = slice(index * SWEEP_BLOCK, (index + 1) * SWEEP_BLOCK)
        assert np.array_equal(a._sweeps[axis][1][index][0], np.tril(a._block_gram(axis, grid)))


@pytest.mark.parametrize("method, matrix, message", [
    ("kaczmarz", lambda: _zeroed((120, 60), 0, 75, 91),
     "zero row 75 cannot drive a projection step"),
    ("cd", lambda: _zeroed((200, 120), 1, 75, 91),
     "zero column 75 cannot drive a coordinate step"),
], ids=["kaczmarz-zero-row", "cd-zero-column"])
def test_a_zero_inside_a_grid_block_raises_where_it_did_and_its_slot_is_never_inverted(
        method, matrix, message, monkeypatch):
    # Cut at 75 the run goes on, at 76 it raises (the cases above run the first 75). The slot
    # of [50, 100) holds a triangle with a zero pivot at the zero, past the cut at 75.
    a = matrix()
    inst = make_consistent(a, 93)
    inverted = []
    monkeypatch.setattr(np.linalg, "inv", lambda *args: inverted.append(args))
    with pytest.raises(UsageError, match=f"^{message}$"):
        RUNS[method](method, a, inst.b, x_star=inst.x_star, stop=StopRule(1e-300, 76))
    axis = 0 if method == "kaczmarz" else 1
    assert not inverted and _slots(a, axis) == {0: False, 1: False}
    assert np.diagonal(a._sweeps[axis][1][1][0])[75 - SWEEP_BLOCK] == 0.0


def test_rbk_and_kaczmarz_keep_their_own_slots_on_one_matrix():
    inst = make_consistent(gen_smatrix(300, 60, 60, 2.0, 1.0, 94), 95)

    def solve(method, a):
        return run_row_method(method, a, inst.b, x_star=inst.x_star, seed=3,
                              config=SelectionConfig(block_size=SWEEP_BLOCK),
                              stop=StopRule(rse_tol=1e-8, max_iters=100_000))

    fresh = {m: _digest(solve(m, DenseMatrix(inst.A.entries))) for m in ("kaczmarz", "rbk")}
    a = inst.A
    for method in ("kaczmarz", "rbk", "kaczmarz", "rbk"):
        assert _digest(solve(method, a)) == fresh[method]
    size, factors = a._factors[0]
    sweeps = a._sweeps[0][1]
    assert size == SWEEP_BLOCK and len(factors) == len(sweeps) == 6
    assert all(isinstance(f, np.ndarray) for f in factors)
    assert _slots(a, 0) == dict.fromkeys(range(6), True)
    for factor, (lower, inverse) in zip(factors, sweeps):
        assert not np.shares_memory(factor, inverse)
        np.testing.assert_allclose(inverse @ lower, np.eye(SWEEP_BLOCK), atol=1e-10)
