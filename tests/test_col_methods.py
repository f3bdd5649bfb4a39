import sys
import threading
import warnings

import numpy as np
import pytest

from rgsolve import col_methods, row_methods
from rgsolve import (
    COL_METHODS,
    ROW_METHODS,
    DegenerateStepError,
    DenseMatrix,
    RgsolveError,
    SelectionConfig,
    StopRule,
    UsageError,
    gen_randn,
    gen_smatrix,
    make_consistent,
    make_inconsistent,
    run_col_method,
    run_row_method,
)
from rgsolve.col_methods import amdcd_step, cd_step, rbcd_block_step, rgdc_step, rgrcd_step
from rgsolve.col_methods import REFRESH_EVERY
from rgsolve.linalg import NO_FACTOR
from rgsolve.selection import column_losses_from_y, relaxed_greedy_set
from rgsolve.state import STAT_CERTIFIED, STEP_CERTIFIED, SolveState

DIAG = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
B_DIAG = np.array([1.0, 4.0])


def fresh_state(a, b, x=None):
    x = np.zeros(a.n) if x is None else np.asarray(x, dtype=float).copy()
    return SolveState(x=x, y=a.matvec_transpose(b - a.matvec(x)))


def test_cd_identity():
    a = DenseMatrix(np.eye(2))
    state = fresh_state(a, np.array([1.0, 2.0]))
    cd_step(state, a, 0)
    np.testing.assert_allclose(state.x, [1.0, 0.0])


def test_cd_hand():
    state = fresh_state(DIAG, B_DIAG)
    cd_step(state, DIAG, 1)
    np.testing.assert_allclose(state.x, [0.0, 2.0])
    assert abs(state.y[1]) < 1e-14


def test_cd_stationary_column_is_noop():
    state = fresh_state(DIAG, B_DIAG, x=[0.0, 2.0])  # column 1 stationary
    before = [v.copy() for v in (state.x, state.y)]
    cd_step(state, DIAG, 1)
    assert [v.tobytes() for v in (state.x, state.y)] == [v.tobytes() for v in before]
    rgdc_step(state, DIAG, np.array([1]))  # a stationary set
    assert [v.tobytes() for v in (state.x, state.y)] == [v.tobytes() for v in before]


def test_rgdc_hand_step():
    state = fresh_state(DIAG, B_DIAG)
    rgdc_step(state, DIAG, np.array([1]))
    np.testing.assert_allclose(state.x, [0.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(state.y, [1.0, 0.0], atol=1e-15)
    # weight (xi.T y) / ||A xi||^2 = 64 / 256 on xi = (0, y_1) = (0, 8)
    np.testing.assert_array_equal(state.x, [0.0, 0.25 * 8.0])


def test_rgdc_singleton_equals_cd():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = DenseMatrix(rng.standard_normal((12, 5)))
        b = rng.standard_normal(12)
        x = rng.standard_normal(5)
        s1 = fresh_state(a, b, x)
        s2 = fresh_state(a, b, x)
        j = int(rng.integers(a.n))
        rgdc_step(s1, a, np.array([j]))
        cd_step(s2, a, j)
        np.testing.assert_allclose(s1.x, s2.x, atol=1e-12)
        np.testing.assert_allclose(s1.y, s2.y, atol=1e-12)


def test_rgdc_full_set_identity_one_step():
    a = DenseMatrix(np.eye(2))
    b = np.array([2.0, 2.0])
    state = fresh_state(a, b)
    rgdc_step(state, a, np.array([0, 1]))
    np.testing.assert_allclose(state.x, [2.0, 2.0], atol=1e-15)
    # weight 8 / 8 = 1 on xi = y = (2, 2): the step lands exactly on the solution
    np.testing.assert_array_equal(state.x, [2.0, 2.0])
    np.testing.assert_array_equal(state.y, [0.0, 0.0])


def test_rgdc_petrov_galerkin_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = DenseMatrix(rng.standard_normal((15, 6)))
        b = rng.standard_normal(15)
        state = fresh_state(a, b, rng.standard_normal(6))
        profile = column_losses_from_y(a, state.y)
        sel = relaxed_greedy_set(profile, rng.uniform(0.0, 1.0))
        xi = np.zeros(a.n)
        xi[sel] = state.y[sel]
        rgdc_step(state, a, sel)
        bound = 1e-10 * np.linalg.norm(xi) * np.linalg.norm(state.y)
        assert abs(float(xi @ state.y)) <= max(bound, 1e-30)


def test_rgdc_degenerate_cancelling_columns():
    a = DenseMatrix([[1.0, -1.0], [0.0, 0.0], [1.0, -1.0]])
    state = SolveState(x=np.zeros(2), y=np.array([1.0, 1.0]))
    with pytest.raises(DegenerateStepError):
        rgdc_step(state, a, np.array([0, 1]))


def _gathered_rgdc_step(state, a, indices):
    """RGDC's step with its weight from the gathered ``A_S y_S``."""
    y_sel = state.y[indices]
    combined = a.entries[:, indices] @ y_sel
    weight = float(y_sel @ y_sel) / float(combined @ combined)
    state.x[indices] += weight * y_sel
    state.y -= weight * (y_sel @ a.gram[indices])


def test_rgdc_nearly_cancelling_columns_take_the_gathered_weight():
    rng = np.random.default_rng(40)
    v, w, u = rng.standard_normal((3, 50))
    a = DenseMatrix(np.column_stack([v, -v + 1e-6 * w, u]))
    b = rng.standard_normal(50)
    indices = np.array([0, 1])
    state = SolveState(x=np.zeros(3), y=np.array([1.0, 1.0, 0.5]))
    gathered = SolveState(x=state.x.copy(), y=state.y.copy())
    rgdc_step(state, a, indices)
    _gathered_rgdc_step(gathered, a, indices)
    np.testing.assert_allclose(state.x, gathered.x, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(state.y, gathered.y, rtol=1e-12, atol=0.0)
    # A_S y_S = 1e-6 w: the Gram form's rounding is far from negligible against it.
    y_sel = np.ones(2)
    gram_h2 = float(y_sel @ a.gram[np.ix_(indices, indices)] @ y_sel)
    exact_h2 = float(np.sum(np.square(1e-6 * w)))
    assert abs(gram_h2 - exact_h2) > 1e-6 * exact_h2
    # Columns that do not cancel take the Gram form itself.
    a = DenseMatrix(rng.standard_normal((50, 6)))
    state = fresh_state(a, b)
    x0, y_sel = state.x.copy(), state.y[[1, 3, 4]]
    rgdc_step(state, a, np.array([1, 3, 4]))
    gram_h2 = float(y_sel @ a.gram[np.ix_([1, 3, 4], [1, 3, 4])] @ y_sel)
    np.testing.assert_allclose(state.x[[1, 3, 4]] - x0[[1, 3, 4]],
                               float(y_sel @ y_sel) / gram_h2 * y_sel, rtol=1e-14)


def test_rgrcd_singleton_deterministic():
    state = fresh_state(DIAG, B_DIAG)
    rgrcd_step(state, DIAG, np.array([1]), np.random.default_rng(0), state.y * state.y)
    np.testing.assert_allclose(state.x, [0.0, 2.0])


def test_rgrcd_sampling_distribution():
    # y = (1, 8): P(col 1) = 64/65
    a = DenseMatrix(np.eye(2))
    b = np.array([1.0, 8.0])
    rng = np.random.default_rng(7)
    picks = 0
    trials = 100_000
    for _ in range(trials):
        state = fresh_state(a, b)
        rgrcd_step(state, a, np.array([0, 1]), rng, state.y * state.y)
        if state.x[1] != 0.0:
            picks += 1
    assert abs(picks / trials - 64.0 / 65.0) < 0.01


def test_amdcd_singleton_equals_cd():
    rng = np.random.default_rng(2)
    a = DenseMatrix(rng.standard_normal((10, 4)))
    b = rng.standard_normal(10)
    s1 = fresh_state(a, b)
    s2 = fresh_state(a, b)
    amdcd_step(s1, a, np.array([2]))
    cd_step(s2, a, 2)
    np.testing.assert_allclose(s1.x, s2.x, atol=1e-13)
    np.testing.assert_allclose(s1.y, s2.y, atol=1e-13)


def test_amdcd_identity_full_set():
    a = DenseMatrix(np.eye(2))
    b = np.array([1.0, 2.0])
    state = fresh_state(a, b)
    amdcd_step(state, a, np.array([0, 1]))
    np.testing.assert_allclose(state.x, [1.0, 2.0])


def test_amdcd_orthogonal_columns_decouple():
    state = fresh_state(DIAG, B_DIAG)
    amdcd_step(state, DIAG, np.array([0, 1]))
    np.testing.assert_allclose(state.x, [1.0, 2.0], atol=1e-15)


def test_rbcd_full_block_reaches_least_squares():
    a = gen_randn(20, 6, 14)
    inst = make_inconsistent(a, 15)
    state = fresh_state(a, inst.b)
    rbcd_block_step(state, a, inst.b, np.arange(6), a.block_factor(1, np.arange(6)))
    np.testing.assert_allclose(state.x, inst.x_star, rtol=1e-8, atol=1e-10)


def test_rbcd_singleton_matches_cd():
    rng = np.random.default_rng(4)
    a = DenseMatrix(rng.standard_normal((10, 4)))
    b = rng.standard_normal(10)
    s1 = fresh_state(a, b)
    s2 = fresh_state(a, b)
    rbcd_block_step(s1, a, b, np.array([1]), a.block_factor(1, [1]))
    cd_step(s2, a, 1)
    np.testing.assert_allclose(s1.x, s2.x, atol=1e-10)


def test_rbcd_identity():
    a = DenseMatrix(np.eye(2))
    b = np.array([1.0, 2.0])
    state = fresh_state(a, b)
    rbcd_block_step(state, a, b, np.array([0, 1]), a.block_factor(1, [0, 1]))
    np.testing.assert_allclose(state.x, [1.0, 2.0], atol=1e-12)


def _assert_col_block_is_min_norm(a, b, indices, x):
    state = fresh_state(a, b, x)
    rbcd_block_step(state, a, b, indices, a.block_factor(1, indices))
    expected = x.copy()
    expected[indices] += np.linalg.lstsq(a.entries[:, indices], b - a.matvec(x), rcond=None)[0]
    assert np.linalg.norm(state.x - expected) <= 1e-8 * np.linalg.norm(expected)


DUPLICATED = np.array([0, 1, 2, 5, 8, 9, 10])  # columns 8-10 repeat columns 0-2


def test_rbcd_duplicated_columns_is_min_norm_on_tall_matrices():
    cholesky_passed = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((40, 8))
        a = DenseMatrix(np.hstack([base, base[:, :3]]))
        try:
            np.linalg.cholesky(a.gram[np.ix_(DUPLICATED, DUPLICATED)])
            cholesky_passed += 1  # only the pivot guard keeps this block off Cholesky
        except np.linalg.LinAlgError:
            pass
        _assert_col_block_is_min_norm(a, rng.standard_normal(40), DUPLICATED,
                                      rng.standard_normal(11))
    assert cholesky_passed > 0


def test_rbcd_duplicated_columns_is_min_norm_on_wide_matrices():
    rng = np.random.default_rng(50)
    base = rng.standard_normal((6, 8))
    a = DenseMatrix(np.hstack([base, base[:, :3]]))
    _assert_col_block_is_min_norm(a, rng.standard_normal(6), DUPLICATED, rng.standard_normal(11))
    assert a.gram is None


@pytest.mark.parametrize("spread", [1e3, 1e7])
def test_rbcd_ill_conditioned_columns_is_min_norm(spread):
    # spread 1e3 stays on the Cholesky path; 1e7 trips the pivot guard
    a = gen_smatrix(60, 20, 20, spread, 1.0, 51)
    rng = np.random.default_rng(52)
    _assert_col_block_is_min_norm(a, rng.standard_normal(60), np.arange(20),
                                  rng.standard_normal(20))


def test_rbcd_block_inverse_is_as_accurate_as_a_solve():
    # cond(G[S, S]) = 1e10 still passes the pivot test, so the step applies the inverse;
    # it must stay within 2x of a backward-stable solve of the same normal equations.
    a = gen_smatrix(60, 20, 20, 1e5, 1.0, 3)
    block = np.arange(20)
    inverse = a.block_factor(1, block)
    assert inverse is not NO_FACTOR
    errors, solve_errors = [], []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(60)
        x = np.zeros(20) if seed == 0 else rng.standard_normal(20)  # seed 0: the first probe
        state = fresh_state(a, b, x)
        oracle = np.linalg.lstsq(a.entries, b - a.matvec(x), rcond=None)[0]
        solved = np.linalg.solve(a.gram, state.y)
        rbcd_block_step(state, a, b, block, inverse)
        for err, w in ((errors, state.x - x), (solve_errors, solved)):
            err.append(np.linalg.norm(w - oracle) / np.linalg.norm(oracle))
    assert errors[0] <= 2 * solve_errors[0]
    assert max(errors) <= 2 * max(solve_errors)


def test_run_rgdc_hand_instance():
    report = run_col_method("rgdc", DIAG, B_DIAG, config=SelectionConfig(theta=0.5),
                            x_star=np.array([1.0, 2.0]))
    assert report.iterations == 2
    assert report.termination_reason == "converged"
    assert report.rse_trace[0] == 1.0


def test_run_col_methods_converge_consistent():
    a = gen_randn(60, 10, 16)
    inst = make_consistent(a, 17)
    for method, seed in (("cd", None), ("rgrcd", 3), ("rgdc", None),
                         ("amdcd", None), ("rbcd", 5)):
        report = run_col_method(method, a, inst.b, x_star=inst.x_star, seed=seed,
                                config=SelectionConfig(block_size=5),
                                stop=StopRule(rse_tol=1e-4, max_iters=60_000))
        assert report.termination_reason == "converged", method


def test_col_methods_solve_inconsistent_least_squares():
    a = gen_smatrix(120, 12, 12, 1.25, 1.0, 18)
    inst = make_inconsistent(a, 19)
    report = run_col_method("rgdc", a, inst.b, x_star=inst.x_star)
    assert report.termination_reason == "converged"
    # the normal-equations residual is small at the converged iterate
    r_final = inst.b - a.matvec(report.x_final)
    assert np.linalg.norm(a.matvec_transpose(r_final)) <= 1e-3 * np.linalg.norm(
        a.matvec_transpose(inst.b))


def test_noise_invariance_of_column_iterates():
    a = gen_smatrix(80, 10, 10, 1.25, 1.0, 20)
    clean = make_consistent(a, 21)
    rng = np.random.default_rng(22)
    draw = rng.standard_normal(a.m)
    basis = np.linalg.qr(a.entries)[0]
    noise = draw - basis @ (basis.T @ draw)
    noise -= basis @ (basis.T @ noise)
    noise *= 0.1 * np.linalg.norm(clean.b) / np.linalg.norm(noise)
    noisy_b = clean.b + noise

    s1 = fresh_state(a, clean.b)
    s2 = fresh_state(a, noisy_b)
    for _ in range(100):
        p1 = column_losses_from_y(a, s1.y)
        p2 = column_losses_from_y(a, s2.y)
        if p1.max_loss <= 0 or p2.max_loss <= 0:
            break
        sel1 = relaxed_greedy_set(p1, 0.5)
        sel2 = relaxed_greedy_set(p2, 0.5)
        np.testing.assert_array_equal(sel1, sel2)
        rgdc_step(s1, a, sel1)
        rgdc_step(s2, a, sel2)
        assert np.abs(s1.x - s2.x).max() <= 1e-10


def test_stationarity_termination():
    # rank-deficient: the error component in null(A) is invisible to column
    # methods, so the run reaches least-squares stationarity with RSE stuck
    rng = np.random.default_rng(23)
    base = rng.standard_normal((20, 3))
    a = DenseMatrix(np.hstack([base, base[:, :1]]))  # col 3 duplicates col 0
    x_gen = rng.standard_normal(4)
    b = a.matvec(x_gen)
    null_dir = np.array([1.0, 0.0, 0.0, -1.0])  # A @ null_dir = 0
    reachable = 0.1 * a.matvec_transpose(rng.standard_normal(20))  # in range(A.T)
    report = run_col_method("rgdc", a, b, x0=x_gen + null_dir + reachable, x_star=x_gen,
                            stop=StopRule(rse_tol=1e-6, max_iters=10_000))
    assert report.termination_reason == "stationary"
    assert report.iterations > 0
    assert report.final_rse >= 1e-6


def test_residual_error_monotone_for_column_methods():
    a = gen_randn(40, 8, 24)
    inst = make_inconsistent(a, 25)
    r_star = inst.b - a.matvec(inst.x_star)
    state = fresh_state(a, inst.b)
    previous = float(np.linalg.norm(inst.b - a.matvec(state.x) - r_star)) ** 2
    for _ in range(60):
        profile = column_losses_from_y(a, state.y)
        if profile.max_loss <= 0:
            break
        sel = relaxed_greedy_set(profile, 0.5)
        rgdc_step(state, a, sel)
        current = float(np.linalg.norm(inst.b - a.matvec(state.x) - r_star)) ** 2
        assert current <= previous * (1.0 + 1e-12)
        previous = current


COLUMN_STEPS = {
    "cd": lambda s, a, b, idx: cd_step(s, a, int(idx[0])),
    "rgdc": lambda s, a, b, idx: rgdc_step(s, a, idx),
    "amdcd": lambda s, a, b, idx: amdcd_step(s, a, idx),
    "rbcd": lambda s, a, b, idx: rbcd_block_step(s, a, b, idx, a.block_factor(1, idx)),
}


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)], ids=["tall", "wide"])
@pytest.mark.parametrize("step", sorted(COLUMN_STEPS))
def test_column_steps_keep_y_equal_to_a_t_r(shape, step):
    # Tall matrices update y through rows of the cached Gram, wide ones through A.T
    rng = np.random.default_rng(31)
    a = DenseMatrix(rng.standard_normal(shape))
    b = rng.standard_normal(a.m)
    for _ in range(5):
        state = fresh_state(a, b, x=rng.standard_normal(a.n))
        indices = rng.choice(a.n, size=4, replace=False)
        COLUMN_STEPS[step](state, a, b, indices)
        scale = max(1.0, float(np.linalg.norm(state.y)))
        fresh_y = a.matvec_transpose(b - a.matvec(state.x))
        assert np.linalg.norm(state.y - fresh_y) <= 1e-12 * scale
    assert (a.gram is None) == (a.n > a.m)


def test_gram_is_cached_read_only_and_tall_only():
    tall = gen_randn(30, 7, 32)
    assert tall.gram is tall.gram
    assert not tall.gram.flags.writeable
    np.testing.assert_array_equal(tall.gram, tall.entries.T @ tall.entries)
    square = gen_randn(6, 6, 33)
    np.testing.assert_array_equal(square.gram, square.entries.T @ square.entries)

    wide = gen_randn(7, 30, 34)
    inst = make_consistent(wide, 35)
    for method in COL_METHODS:
        run_col_method(method, wide, inst.b, x_star=inst.x_star, seed=0,
                       stop=StopRule(rse_tol=1e-6, max_iters=300))
    assert wide.gram is None


@pytest.mark.parametrize("method", ["rgdc", "rbk", "rbcd", "kaczmarz", "cd"])
def test_concurrent_solves_share_one_matrix(method):
    # Every thread may race to build the Gram, the block factors and the sweep blocks'
    # triangles and inverses (kaczmarz and cd pass over this matrix 4 and 10 times), and
    # threads that alternate block sizes replace each other's partition; each must still
    # see complete factors of its own blocks.
    a = gen_randn(300, 60, 36)
    inst = make_consistent(a, 37)
    runner = run_row_method if method in ROW_METHODS else run_col_method
    sizes = (20, 25)

    def solve(matrix, block_size):
        report = runner(method, matrix, inst.b, x_star=inst.x_star, seed=1,
                        config=SelectionConfig(block_size=block_size))
        return report.iterations, report.x_final.tobytes()

    serial = [solve(gen_randn(300, 60, 36), size) for size in sizes]
    results = [None] * 6

    def worker(i):
        results[i] = solve(a, sizes[i % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial[i % 2] for i in range(len(results))]


DRIFT_STEPS = {"cd": "cd_sweep", "rgrcd": "cd_step", "rgdc": "rgdc_step",
               "amdcd": "amdcd_step", "rbcd": "rbcd_block_step"}


@pytest.mark.parametrize("method", COL_METHODS)
def test_refresh_catches_drift_in_carried_y(monkeypatch, method):
    a = gen_randn(200, 40, 11)
    inst = make_consistent(a, 12)
    name = DRIFT_STEPS[method]
    original = getattr(col_methods, name)

    def perturbed(state, *args, **kwargs):
        out = original(state, *args, **kwargs)
        # A step runs iteration state.k; the sweep kernel returns the block of iterations
        # from state.k on, and the perturbation outlives the block's move of y.
        if state.k <= 20 < state.k + (1 if out is None else len(out[0])):
            state.y[0] += 1e-3
        return out

    monkeypatch.setattr(col_methods, name, perturbed)
    with pytest.raises(RgsolveError, match="y recursion drifted"):
        run_col_method(method, a, inst.b, x_star=inst.x_star, seed=0,
                       config=SelectionConfig(block_size=5),
                       stop=StopRule(rse_tol=1e-300, max_iters=1000))


def _long_double_normal_residual(a, b, x):
    big = a.entries.astype(np.longdouble)
    return big.T @ (b.astype(np.longdouble) - big @ x.astype(np.longdouble))


def _family(a, b, method="cd"):
    return col_methods._ColFamily(method=method, a=a, b=b, state=SolveState(x=np.zeros(a.n)),
                                  config=SelectionConfig(), rng=np.random.default_rng(0))


@pytest.mark.parametrize("method", ["rgrcd", "rgdc", "amdcd"])
def test_a_greedy_step_on_a_zero_y_is_stationary(method):
    inst = make_inconsistent(gen_randn(30, 6, 4), 5)
    family = _family(inst.A, inst.b, method)
    family.state.k = 1  # not a refresh, which would recompute y from x
    family.state.y[:] = 0.0
    x = family.state.x.copy()
    dx = x - inst.x_star
    assert family.step(dx, float(dx @ dx), 10) == "stationary"
    np.testing.assert_array_equal(family.state.x, x)


@pytest.mark.parametrize("instance", [
    lambda: make_inconsistent(gen_randn(500, 50, 70), 71),
    lambda: make_inconsistent(gen_smatrix(300, 50, 50, 1e3, 1.0, 72), 73),
], ids=["randn", "smatrix-cond-1e3"])
@pytest.mark.parametrize("offset", [0.0, 1e-6])
def test_gram_refresh_matches_a_long_double_normal_residual(monkeypatch, instance, offset):
    inst = instance()
    a, b = inst.A, inst.b
    fam = _family(a, b)
    x = inst.x_star + offset
    truth = _long_double_normal_residual(a, b, x)
    fam.state.x[:] = x
    fam.state.y = a.matvec_transpose(b - a.matvec(x))
    for name in ("matvec", "matvec_transpose"):  # the refresh reads A.T b - G x alone
        monkeypatch.setattr(DenseMatrix, name, None)
    fam.refresh()
    assert float(np.linalg.norm(fam.state.y - truth)) <= 1e-14 * fam.atb_norm


@pytest.mark.parametrize("start", ["zero", "nonzero"])
def test_refresh_reads_a_t_b_not_the_start_y(monkeypatch, start):
    a = gen_randn(200, 40, 74)
    inst = make_inconsistent(a, 75)
    x0 = None if start == "zero" else np.random.default_rng(76).standard_normal(a.n)
    families = []
    init = col_methods._ColFamily.__post_init__

    def watched_init(self):
        init(self)
        families.append((self, self.state.y.copy()))

    monkeypatch.setattr(col_methods._ColFamily, "__post_init__", watched_init)
    report = run_col_method("cd", a, inst.b, x0=x0, x_star=inst.x_star,
                            stop=StopRule(rse_tol=1e-300, max_iters=3 * REFRESH_EVERY))
    assert report.iterations == 3 * REFRESH_EVERY  # three refreshes without drift
    (fam, y0), = families
    assert fam.atb.tobytes() == a.matvec_transpose(inst.b).tobytes()
    assert (fam.atb.tobytes() == y0.tobytes()) == (start == "zero")
    truth = _long_double_normal_residual(a, inst.b, report.x_final)
    assert float(np.linalg.norm(fam.state.y - truth)) <= 1e-12 * fam.atb_norm


@pytest.mark.parametrize("method", ["rgrcd", "rgdc", "amdcd"])
def test_greedy_column_methods_reject_a_zero_column(method, monkeypatch):
    a = DenseMatrix([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    b, x_star = np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0])
    # Refused once, before the first step: the selection rules do not look for zero columns.
    monkeypatch.setattr(col_methods._ColFamily, "step", None)
    with pytest.raises(UsageError, match="^zero column 1 unsupported by greedy selection$"):
        run_col_method(method, a, b, x_star=x_star, seed=0)
    # A run started at x* returns before the refusal.
    at_solution = run_col_method(method, a, b, x0=x_star, x_star=x_star, seed=0)
    assert (at_solution.termination_reason, at_solution.iterations) == ("converged", 0)


@pytest.mark.parametrize("method", COL_METHODS)
def test_column_methods_refuse_an_overflowing_normal_right_hand_side(method):
    # A.T b overflows to inf, on which ||y|| <= 1e-14 ||A.T b|| would read as stationary
    # at x = 0. The refusal comes before any step and without an overflow warning.
    a = DenseMatrix([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=r"^A\.T b overflows \(its norm is inf\)"):
            run_col_method(method, a, np.array([1e200, 2.0, 3.0]), x_star=np.array([1.0, 2.0]),
                           seed=0)


CERTIFIED = STEP_CERTIFIED + STAT_CERTIFIED


def _assert_records_refused(monkeypatch, method, a, b, **kwargs):
    """``record_steps=True`` on an uncertified method raises before the CGLS reference
    solve and before any iteration."""
    is_row = method in ROW_METHODS
    module, family = ((row_methods, row_methods._RowFamily) if is_row
                      else (col_methods, col_methods._ColFamily))

    def never(*args, **kw):
        raise AssertionError("the solve started before refusing the records")

    monkeypatch.setattr(module, "cgls", never)
    monkeypatch.setattr(family, "step", never)
    run = run_row_method if is_row else run_col_method
    with pytest.raises(UsageError, match=rf"^step records exist only for the certified "
                                         rf"methods rgrk, rgdr, rgrcd, rgdc, not '{method}'$"):
        run(method, a, b, record_steps=True, **kwargs)


def _assert_column_solve_carries_no_residual(monkeypatch, shape, method, record_steps):
    a = gen_randn(*shape, 60)
    inst = make_consistent(a, 61)
    if record_steps and method not in CERTIFIED:
        _assert_records_refused(monkeypatch, method, a, inst.b, seed=62)
        return
    refreshed = []
    refresh = col_methods._ColFamily.refresh

    def watched_refresh(self):
        refresh(self)
        refreshed.append(self.state.k)

    monkeypatch.setattr(col_methods._ColFamily, "refresh", watched_refresh)
    gemvs = []
    for name in ("matvec", "matvec_transpose"):
        def counted(self, v, _name=name, _original=getattr(DenseMatrix, name)):
            gemvs.append(_name)
            return _original(self, v)

        monkeypatch.setattr(DenseMatrix, name, counted)
    monkeypatch.setattr(col_methods, "STATIONARITY_REL", 1e-300)
    sweeps = []
    sweep = col_methods.cd_sweep

    def watched_sweep(state, *args):
        sweeps.append(state.k)
        return sweep(state, *args)

    monkeypatch.setattr(col_methods, "cd_sweep", watched_sweep)
    report = run_col_method(method, a, inst.b, x_star=inst.x_star, seed=62,
                            config=SelectionConfig(block_size=3), record_steps=record_steps,
                            stop=StopRule(rse_tol=1e-300, max_iters=350))
    assert report.iterations == 350 and report.termination_reason == "max_iters"
    assert refreshed == [100, 200, 300]
    assert (method == "cd") == bool(sweeps) and len(sweeps) < report.iterations / 10
    # A.T b at the start. On tall matrices nothing else touches A: steps move y through the
    # Gram and refreshes read A.T b - G x. On wide ones each step, and cd's each sweep block,
    # moves y by A.T (A_S w), and each refresh forms b - A x and A.T r. Records add
    # A (x - x*) at the start, then after each iteration of rgdc, whose every step is
    # recorded, and once at the end of rgrcd, whose run keeps only its two end errors.
    tall = a.gram is not None
    per_step = record_steps and method in STEP_CERTIFIED
    want = ["matvec_transpose"] + ["matvec"] * record_steps
    for k in range(report.iterations):
        if not tall:
            if k and k % REFRESH_EVERY == 0:
                want += ["matvec", "matvec_transpose"]
            if method != "cd" or k in sweeps:
                want += ["matvec_transpose"]
        want += ["matvec"] * per_step
    want += ["matvec"] * (record_steps and not per_step)
    assert gemvs == want


@pytest.mark.parametrize("shape", [(60, 20), (20, 60)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", COL_METHODS)
def test_column_solves_without_records_carry_no_residual(monkeypatch, shape, method):
    _assert_column_solve_carries_no_residual(monkeypatch, shape, method, record_steps=False)


@pytest.mark.parametrize("shape", [(60, 20), (20, 60)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", COL_METHODS)
def test_column_solves_with_records_carry_no_residual(monkeypatch, shape, method):
    _assert_column_solve_carries_no_residual(monkeypatch, shape, method, record_steps=True)


@pytest.mark.parametrize("method", COL_METHODS)
def test_column_step_records_are_never_negative_on_rank_deficient_matrices(monkeypatch, method):
    # The Gram form (x - x*).T G (x - x*) rounds below zero here once A (x - x*) is tiny.
    for seed in range(3):
        a = gen_smatrix(60, 20, 6, 10.0, 1.0, seed)
        inst = make_consistent(a, seed + 10)
        x0 = np.random.default_rng(seed + 20).standard_normal(a.n)
        if method not in CERTIFIED:
            _assert_records_refused(monkeypatch, method, a, inst.b, x0=x0, seed=seed)
            continue
        report = run_col_method(method, a, inst.b, x0=x0, x_star=inst.x_star, seed=seed,
                                config=SelectionConfig(block_size=5), record_steps=True,
                                stop=StopRule(rse_tol=1e-12, max_iters=3000))
        assert report.iterations > 0 and min(report.err_sq_ends) >= 0.0
        if method in STAT_CERTIFIED:
            assert report.step_indices is None and report.step_err_sq is None
            continue
        assert len(report.step_indices) == len(report.step_err_sq) - 1 == report.iterations
        assert report.step_err_sq.min() >= 0.0


@pytest.mark.parametrize("shape", [(60, 20), (20, 60)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", ROW_METHODS + COL_METHODS)
def test_step_records_never_change_the_iterates(monkeypatch, shape, method):
    a = gen_randn(*shape, 63)
    inst = make_consistent(a, 64)
    run = run_row_method if method in ROW_METHODS else run_col_method
    kwargs = dict(seed=65, config=SelectionConfig(block_size=3),
                  stop=StopRule(rse_tol=1e-10, max_iters=350))
    off = run(method, a, inst.b, x_star=inst.x_star, **kwargs)
    if method not in CERTIFIED:
        assert off.iterations > 0 and off.step_indices is None
        _assert_records_refused(monkeypatch, method, a, inst.b, **kwargs)
        return
    on = run(method, a, inst.b, x_star=inst.x_star, record_steps=True, **kwargs)
    assert on.iterations == off.iterations > 0
    assert on.termination_reason == off.termination_reason
    assert on.rse_trace == off.rse_trace
    assert on.set_size_trace == off.set_size_trace
    assert on.x_final.tobytes() == off.x_final.tobytes()
    assert off.step_indices is None and off.err_sq_ends is None and len(on.err_sq_ends) == 2
    if method in STAT_CERTIFIED:
        assert on.step_indices is None
    else:
        assert len(on.step_indices) == len(on.step_zero_mass) == on.iterations


@pytest.mark.parametrize("method", CERTIFIED)
def test_recorded_randomized_runs_read_their_error_only_at_the_ends(monkeypatch, method):
    # rgrk and rgrcd record no step columns (so no zero-loss mass) and read the error at the
    # start and the end only; rgdr and rgdc read it after every step and record each one.
    a = gen_randn(60, 20, 63)
    inst = make_consistent(a, 64)
    is_row = method in ROW_METHODS
    family = row_methods._RowFamily if is_row else col_methods._ColFamily
    reads = []
    err_sq = family.err_sq
    monkeypatch.setattr(family, "err_sq",
                        lambda self, dx, dd: reads.append(self.state.k) or err_sq(self, dx, dd))
    run = run_row_method if is_row else run_col_method
    report = run(method, a, inst.b, x_star=inst.x_star, seed=65, record_steps=True)
    assert report.iterations > 0
    columns = (report.step_indices, report.step_zero_mass, report.step_err_sq)
    if method in STAT_CERTIFIED:
        assert reads == [0, report.iterations] and columns == (None, None, None)
    else:
        assert reads == list(range(report.iterations + 1))
        assert [len(column) for column in columns] == [report.iterations] * 2 + [len(reads)]


def _steps_against_a_fresh_recomputation(monkeypatch, shape, method, theta):
    """Run ``method`` recorded and check its step columns, hex for hex, against a fresh
    recomputation around each step; returns whether each step's zero-loss set was nonempty
    (None for the methods without step columns)."""
    a = gen_randn(*shape, 5)
    inst = make_consistent(a, 6)
    if method not in CERTIFIED:
        _assert_records_refused(monkeypatch, method, a, inst.b, seed=3)
        return None
    is_row = method in ROW_METHODS
    family = row_methods._RowFamily if is_row else col_methods._ColFamily
    sqnorms = a.row_sqnorms if is_row else a.col_sqnorms
    fresh = []

    def err_sq(x):
        d = x - inst.x_star if is_row else a.matvec(x - inst.x_star)
        return float(d @ d)

    def step(self, *args):
        before = err_sq(self.state.x)
        outcome = family_step(self, *args)
        if not isinstance(outcome, str):
            selected, profile, dds, apply = outcome
            assert len(dds) == 0 and apply is None  # a single step, already applied
            zero_set = np.flatnonzero(profile.losses < profile.zero_tol)
            fresh.append((selected.copy(), float(sqnorms[zero_set].sum()), before,
                          err_sq(self.state.x), len(zero_set) > 0))
        return outcome

    family_step = family.step
    monkeypatch.setattr(family, "step", step)
    run = run_row_method if is_row else run_col_method
    stop = StopRule(rse_tol=1e-10, max_iters=2 * REFRESH_EVERY + 50)
    report = run(method, a, inst.b, x_star=inst.x_star, seed=3, record_steps=True,
                 config=SelectionConfig(theta=theta, block_size=7), stop=stop)
    assert len(fresh) == report.iterations > 0
    if method == "rgrcd":  # the run straddles the refreshes of y at steps 100 and 200
        assert report.iterations > 2 * REFRESH_EVERY
    start, end = report.err_sq_ends
    assert [start.hex(), end.hex()] == [err_sq(np.zeros(a.n)).hex(),
                                        err_sq(report.x_final).hex()]
    if method in STAT_CERTIFIED:
        assert report.step_indices is None
        return None
    zero_mass, errs = report.step_zero_mass.tolist(), report.step_err_sq.tolist()
    assert len(report.step_indices) == len(zero_mass) == len(errs) - 1 == report.iterations
    assert (start, end) == (errs[0], errs[-1])
    for k, (indices, mass, before, after, _) in enumerate(fresh):
        got = report.step_indices[k]
        assert got.dtype == indices.dtype and got.tobytes() == indices.tobytes()
        assert [v.hex() for v in (zero_mass[k], errs[k], errs[k + 1])] == \
            [v.hex() for v in (mass, before, after)]
    return [nonempty for *_, nonempty in fresh]


@pytest.mark.parametrize("shape", [(200, 50), (50, 200)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", ROW_METHODS + COL_METHODS)
def test_step_records_equal_a_fresh_recomputation(monkeypatch, shape, method):
    _steps_against_a_fresh_recomputation(monkeypatch, shape, method, 0.3)


@pytest.mark.parametrize("shape", [(200, 50), (50, 200)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", STEP_CERTIFIED)
def test_step_zero_mass_is_exact_with_and_without_a_zero_set(monkeypatch, shape, method):
    # At theta = 1 the first step has no zero-loss index and later ones do, so the recorded
    # zero mass comes from both sides of the solve loop's test for an empty zero set.
    nonempty = _steps_against_a_fresh_recomputation(monkeypatch, shape, method, 1.0)
    assert not nonempty[0] and any(nonempty)


def _duplicated_tall_instance():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((40, 8))
    return make_consistent(DenseMatrix(np.hstack([base, base[:, :3]])), 1), 9  # block 0-8 repeats 0


@pytest.mark.parametrize("instance", [
    _duplicated_tall_instance,
    lambda: (make_consistent(gen_randn(7, 30, 34), 35), 100),
], ids=["duplicated-tall", "wide"])
def test_rbcd_least_squares_fallback_solves_the_system(monkeypatch, instance):
    inst, block_size = instance()
    fallbacks = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kw: fallbacks.append(1) or lstsq(*args, **kw))
    report = run_col_method("rbcd", inst.A, inst.b, x_star=inst.x_star, seed=66,
                            config=SelectionConfig(block_size=block_size),
                            stop=StopRule(rse_tol=1e-8, max_iters=2000))
    assert fallbacks  # rank-deficient blocks reached least squares
    assert report.termination_reason in ("converged", "stationary")
    # Consistent systems: the iterate solves A x = b, though with duplicated columns it
    # need not be x*.
    residual = inst.b - inst.A.matvec(report.x_final)
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(inst.b)
