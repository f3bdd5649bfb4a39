import numpy as np
import pytest

from rgsolve import row_methods
from rgsolve import (
    COL_METHODS,
    ROW_METHODS,
    CglsConfig,
    DenseMatrix,
    SelectionConfig,
    StopRule,
    UsageError,
    cgls,
    gen_randn,
    gen_smatrix,
    make_consistent,
    make_inconsistent,
    run_col_method,
    run_row_method,
)
from rgsolve.row_methods import block_project_step, kaczmarz_step, rgdr_step, rgrk_step
from rgsolve.selection import relaxed_greedy_set, row_losses
from rgsolve.state import TERMINATION_REASONS, SolveState

DIAG = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
B_DIAG = np.array([1.0, 4.0])


def fresh_state(a, x=None):
    return SolveState(x=np.zeros(a.n) if x is None else np.asarray(x, dtype=float).copy())


def residual(a, b, state):
    return b - a.matvec(state.x)


def test_kaczmarz_identity_row():
    a = DenseMatrix(np.eye(2))
    state = fresh_state(a)
    kaczmarz_step(state, a, 2.0, 1)
    np.testing.assert_allclose(state.x, [0.0, 2.0])


def test_kaczmarz_hand():
    state = fresh_state(DIAG)
    kaczmarz_step(state, DIAG, 4.0, 1)
    np.testing.assert_allclose(state.x, [0.0, 2.0])
    assert abs(residual(DIAG, B_DIAG, state)[1]) < 1e-15


def test_kaczmarz_satisfied_row_is_noop():
    state = fresh_state(DIAG, x=[1.0, 0.0])  # row 0 already satisfied
    x_before = state.x.copy()
    r = residual(DIAG, B_DIAG, state)
    kaczmarz_step(state, DIAG, float(r[0]), 0)
    assert state.x.tobytes() == x_before.tobytes()
    rgdr_step(state, DIAG, r, np.array([0]))  # a satisfied set
    assert state.x.tobytes() == x_before.tobytes()


def test_rgdr_hand_step():
    state = fresh_state(DIAG)
    rgdr_step(state, DIAG, B_DIAG, np.array([1]))  # r = b at x = 0
    np.testing.assert_allclose(state.x, [0.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(residual(DIAG, B_DIAG, state), [1.0, 0.0], atol=1e-15)
    # weight (eta.T r) / ||A.T eta||^2 = 16 / 64 along A.T eta = (0, 8)
    np.testing.assert_array_equal(state.x, 0.25 * np.array([0.0, 8.0]))


def test_rgdr_full_set_identity_converges_in_one_step():
    a = DenseMatrix(np.eye(2))
    b = np.array([2.0, 2.0])
    state = fresh_state(a)
    rgdr_step(state, a, b, np.array([0, 1]))
    np.testing.assert_allclose(state.x, [2.0, 2.0], atol=1e-15)
    # weight 8 / 8 = 1 along A.T eta = (2, 2): the step lands exactly on b
    np.testing.assert_array_equal(state.x, [2.0, 2.0])
    np.testing.assert_array_equal(residual(a, b, state), [0.0, 0.0])


def test_rgdr_singleton_equals_kaczmarz():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = DenseMatrix(rng.standard_normal((12, 5)))
        b = rng.standard_normal(12)
        x = rng.standard_normal(5)
        s1 = fresh_state(a, x)
        s2 = fresh_state(a, x)
        r = residual(a, b, s1)
        i = int(rng.integers(a.m))
        rgdr_step(s1, a, r, np.array([i]))
        kaczmarz_step(s2, a, float(r[i]), i)
        np.testing.assert_allclose(s1.x, s2.x, atol=1e-12)


def test_rgdr_petrov_galerkin_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = DenseMatrix(rng.standard_normal((15, 6)))
        b = rng.standard_normal(15)
        state = fresh_state(a, rng.standard_normal(6))
        r = residual(a, b, state)
        sel = relaxed_greedy_set(row_losses(a, r), rng.uniform(0.0, 1.0))
        eta = np.zeros(a.m)
        eta[sel] = r[sel]
        rgdr_step(state, a, r, sel)
        r = residual(a, b, state)
        bound = 1e-10 * np.linalg.norm(eta) * np.linalg.norm(r)
        assert abs(float(eta @ r)) <= max(bound, 1e-30)


def test_rgdr_stalls_when_direction_vanishes():
    # Second block row duplicates the first with opposite sign: residual
    # (1, 1) on those rows maps through A.T to zero.
    a = DenseMatrix([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0, 0.0])  # inconsistent on the first two rows
    state = fresh_state(a)
    assert rgdr_step(state, a, b, np.array([0, 1])) is False
    np.testing.assert_array_equal(state.x, np.zeros(2))


def test_rgrk_singleton_support_deterministic():
    state = fresh_state(DIAG)
    rgrk_step(state, DIAG, B_DIAG, np.array([1]), np.random.default_rng(0), B_DIAG * B_DIAG)
    np.testing.assert_allclose(state.x, [0.0, 2.0])


def test_rgrk_sampling_distribution():
    # unit-norm rows, residual (1, 4): P(row 1) = 16/17
    a = DenseMatrix(np.eye(2))
    b = np.array([1.0, 4.0])
    rng = np.random.default_rng(42)
    picks = 0
    trials = 100_000
    for _ in range(trials):
        state = fresh_state(a)
        rgrk_step(state, a, b, np.array([0, 1]), rng, b * b)
        if state.x[1] != 0.0:
            picks += 1
    assert abs(picks / trials - 16.0 / 17.0) < 0.01


def test_block_project_full_set_jumps_to_solution():
    a = DenseMatrix(np.eye(2))
    b = np.array([1.0, 2.0])
    state = fresh_state(a)
    block_project_step(state, a, b, np.array([0, 1]))
    np.testing.assert_allclose(state.x, [1.0, 2.0], atol=1e-10)


def test_block_project_singleton_matches_kaczmarz():
    rng = np.random.default_rng(3)
    a = DenseMatrix(rng.standard_normal((10, 4)))
    b = rng.standard_normal(10)
    x = rng.standard_normal(4)
    s1 = fresh_state(a, x)
    s2 = fresh_state(a, x)
    block_project_step(s1, a, b, np.array([4]))
    kaczmarz_step(s2, a, float(residual(a, b, s2)[4]), 4)
    np.testing.assert_allclose(s1.x, s2.x, atol=1e-10)


def test_block_project_full_rows_reaches_least_norm():
    rng = np.random.default_rng(4)
    a = DenseMatrix(rng.standard_normal((12, 5)))
    x_true = rng.standard_normal(5)
    b = a.matvec(x_true)
    state = fresh_state(a)
    block_project_step(state, a, b, np.arange(12))
    np.testing.assert_allclose(state.x, x_true, rtol=1e-8)


def _assert_row_block_is_min_norm(a, b, indices, x):
    state = SolveState(x=x.copy())
    block_project_step(state, a, b, indices)
    sub = a.entries[indices]
    expected = x + np.linalg.lstsq(sub, b[indices] - sub @ x, rcond=None)[0]
    assert np.linalg.norm(state.x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_block_project_duplicated_rows_is_min_norm():
    rng = np.random.default_rng(40)
    base = rng.standard_normal((8, 12))
    a = DenseMatrix(np.vstack([base, base[:3]]))  # rows 8-10 repeat rows 0-2
    b = rng.standard_normal(11)  # inconsistent on the repeated rows
    _assert_row_block_is_min_norm(a, b, np.array([0, 1, 2, 5, 8, 9, 10]), rng.standard_normal(12))


def test_block_project_more_rows_than_columns_is_min_norm():
    rng = np.random.default_rng(41)
    a = DenseMatrix(rng.standard_normal((12, 5)))
    _assert_row_block_is_min_norm(a, rng.standard_normal(12), np.arange(12), rng.standard_normal(5))


@pytest.mark.parametrize("spread", [1e3, 1e5, 1e7])
def test_block_project_ill_conditioned_rows_is_min_norm(spread):
    # 1e3 and 1e5 stay on the Cholesky path (1e5 reaches 1e-8 only through the
    # refinement step); 1e7 trips the pivot guard
    a = gen_smatrix(20, 60, 20, spread, 1.0, 42)
    rng = np.random.default_rng(43)
    _assert_row_block_is_min_norm(a, rng.standard_normal(20), np.arange(20), rng.standard_normal(60))


def test_block_project_inverse_is_as_accurate_as_solves():
    # Square 100x100 blocks: the inverse of A_S A_S.T, applied and refined once, must stay
    # within 2x of the same projection through two solves.
    errors, solve_errors = [], []
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        a = DenseMatrix(rng.standard_normal((100, 100)))
        b, x = rng.standard_normal(100), rng.standard_normal(100)
        rhs = b - a.matvec(x)
        oracle = np.linalg.lstsq(a.entries, rhs, rcond=None)[0]
        gram = a.entries @ a.entries.T
        solved = np.linalg.solve(gram, rhs) @ a.entries
        solved += np.linalg.solve(gram, rhs - a.entries @ solved) @ a.entries
        state = fresh_state(a, x)
        block_project_step(state, a, b, np.arange(100))
        for err, dx in ((errors, state.x - x), (solve_errors, solved)):
            err.append(np.linalg.norm(dx - oracle) / np.linalg.norm(oracle))
    assert max(errors) <= 2 * max(solve_errors)


def test_run_rgdr_hand_instance():
    report = run_row_method("rgdr", DIAG, B_DIAG, config=SelectionConfig(theta=0.5),
                            x_star=np.array([1.0, 2.0]))
    assert report.iterations == 2
    assert report.termination_reason == "converged"
    assert report.rse_trace[0] == 1.0
    assert report.final_rse == report.rse_trace[-1]


def test_run_already_converged():
    report = run_row_method("rgdr", DIAG, B_DIAG, x0=np.array([1.0, 2.0]),
                            x_star=np.array([1.0, 2.0]))
    assert report.iterations == 0
    assert report.termination_reason == "converged"


def test_run_unknown_method():
    with pytest.raises(UsageError):
        run_row_method("nope", DIAG, B_DIAG)


def test_monotone_error_decay_consistent():
    a = gen_randn(40, 12, 5)
    inst = make_consistent(a, 6)
    for method, seed in (("rgdr", None), ("rgrk", 7), ("kaczmarz", None)):
        report = run_row_method(method, a, inst.b, x_star=inst.x_star, seed=seed,
                                stop=StopRule(rse_tol=1e-6, max_iters=3000))
        trace = np.array(report.rse_trace)
        assert np.all(trace[1:] <= trace[:-1] + 1e-12)


def test_least_norm_convergence_rank_deficient():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((30, 8))
    a = DenseMatrix(np.hstack([base, base[:, :2]]))  # duplicated columns
    x_gen = rng.standard_normal(10)
    b = a.matvec(x_gen)
    x_oracle = cgls(a, b, CglsConfig(rel_tol=1e-12))
    tol = 1e-8
    report = run_row_method("rgdr", a, b, x_star=x_oracle,
                            stop=StopRule(rse_tol=tol, max_iters=100_000))
    assert report.termination_reason == "converged"
    denom = np.linalg.norm(x_oracle)
    assert np.linalg.norm(x_oracle) > 0
    # converged to the least-norm point, not merely some solution
    x_final_err = report.final_rse * denom
    assert x_final_err <= 10 * tol * denom


def test_row_methods_stall_on_inconsistent_system():
    a = gen_randn(60, 8, 9)
    inst = make_inconsistent(a, 10)
    report = run_row_method("rgdr", a, inst.b, x_star=inst.x_star,
                            stop=StopRule(rse_tol=1e-4, max_iters=50_000))
    assert report.termination_reason == "stalled"
    assert report.final_rse >= 1e-4


@pytest.mark.parametrize("method", ["rgrk", "rgdr", "gbk"])
def test_a_zero_residual_away_from_x_star_stalls(method):
    # b is met exactly at x = (1, 2, 0), but x* = (1, 2, 1): every loss is zero, so the
    # greedy rule has nothing left to select.
    a = DenseMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    report = run_row_method(method, a, np.array([1.0, 2.0]), x_star=np.array([1.0, 2.0, 1.0]),
                            seed=0)
    assert (report.termination_reason, report.iterations) == ("stalled", 2)
    assert report.final_rse == pytest.approx(1.0 / np.sqrt(6.0))
    np.testing.assert_allclose(report.x_final, [1.0, 2.0, 0.0])


def test_rgdr_stalls_at_once_when_its_direction_vanishes():
    a = DenseMatrix([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    report = run_row_method("rgdr", a, np.array([1.0, 1.0, 0.0]), x_star=np.array([0.5, 0.0]))
    assert (report.termination_reason, report.iterations) == ("stalled", 0)
    np.testing.assert_array_equal(report.x_final, np.zeros(2))


@pytest.mark.parametrize("method", ["rgrk", "rgdr", "gbk"])
def test_non_finite_losses_stop_at_once(method):
    # ||row 0||^2 overflows, so the losses are NaN and the greedy rule selects nothing.
    a = DenseMatrix([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_row_method(method, a, np.array([1e200, 2.0, 3.0]),
                                x_star=np.array([1.0, 2.0]), seed=0)
    assert report.termination_reason in TERMINATION_REASONS
    assert report.iterations == 0
    np.testing.assert_array_equal(report.x_final, np.zeros(2))


def _first_stall(rse_trace, window):
    """The first iteration at which the 0.1% stall rule, replayed over the trace, has gone
    ``window`` iterations without a gain; None when it never has."""
    best, since = rse_trace[0], 0
    for k, rse in enumerate(rse_trace[1:], 1):
        best, since = (rse, 0) if rse < best * (1.0 - 1e-3) else (best, since + 1)
        if since >= window:
            return k
    return None


@pytest.mark.parametrize("method", ["rgdr", "gbk", "rbk", "kaczmarz"])
def test_a_stall_stops_where_the_rule_replayed_over_the_trace_first_fires(method):
    inst = make_inconsistent(gen_randn(80, 10, 3), 4)
    report = run_row_method(method, inst.A, inst.b, x_star=inst.x_star, seed=1,
                            config=SelectionConfig(block_size=20))
    assert report.termination_reason == "stalled"
    assert len(report.rse_trace) == report.iterations + 1
    assert _first_stall(report.rse_trace, 10 * inst.A.m) == report.iterations


def test_gbk_and_rbk_converge():
    a = gen_randn(80, 10, 12)
    inst = make_consistent(a, 13)
    gbk = run_row_method("gbk", a, inst.b, x_star=inst.x_star,
                         config=SelectionConfig(eta1=0.5))
    assert gbk.termination_reason == "converged"
    rbk = run_row_method("rbk", a, inst.b, x_star=inst.x_star, seed=3,
                         config=SelectionConfig(block_size=20))
    assert rbk.termination_reason == "converged"


def test_rbk_reproducible_under_seed():
    a = gen_randn(50, 8, 20)
    inst = make_consistent(a, 21)
    r1 = run_row_method("rbk", a, inst.b, x_star=inst.x_star, seed=5,
                        config=SelectionConfig(block_size=10))
    r2 = run_row_method("rbk", a, inst.b, x_star=inst.x_star, seed=5,
                        config=SelectionConfig(block_size=10))
    assert r1.rse_trace == r2.rse_trace
    assert r1.iterations == r2.iterations


def test_residual_recursion_stays_consistent_over_long_runs():
    a = gen_randn(30, 20, 30)
    inst = make_consistent(a, 31)
    report = run_row_method("rgrk", a, inst.b, x_star=inst.x_star, seed=1,
                            stop=StopRule(rse_tol=1e-10, max_iters=5000))
    # r = b - A x is formed afresh at every step, so no recursion can drift
    assert report.iterations > 200
    assert report.termination_reason == "converged"


@pytest.mark.parametrize("method", ["rgrk", "rgdr", "gbk"])
@pytest.mark.parametrize("x0", [None, np.full(40, 0.01)], ids=["zero-start", "nonzero-start"])
def test_greedy_row_steps_make_one_gemv_each_after_the_first(monkeypatch, method, x0):
    a = gen_randn(200, 40, 11)
    inst = make_consistent(a, 12)
    events = []
    matvec, matvec_t = DenseMatrix.matvec, DenseMatrix.matvec_transpose
    losses = row_methods.row_losses
    monkeypatch.setattr(DenseMatrix, "matvec",
                        lambda self, x: events.append("gemv") or matvec(self, x))
    monkeypatch.setattr(DenseMatrix, "matvec_transpose",
                        lambda self, r: events.append("gemv_t") or matvec_t(self, r))
    monkeypatch.setattr(row_methods, "row_losses",
                        lambda a, r: events.append("select") or losses(a, r))
    report = run_row_method(method, a, inst.b, x0=x0, x_star=inst.x_star, seed=0,
                            stop=StopRule(rse_tol=1e-300, max_iters=350))
    assert report.iterations == 350 and report.termination_reason == "max_iters"
    # Every step selects on b - A x, formed by exactly one GEMV, except at x0 = 0, where
    # it is b itself; there is none at the end and no transposed one.
    start = ["select"] if x0 is None else ["gemv", "select"]
    assert events == start + ["gemv", "select"] * (report.iterations - 1)


def test_cyclic_kaczmarz_carries_no_residual_across_refreshes(monkeypatch):
    a = gen_randn(30, 20, 30)
    inst = make_consistent(a, 31)
    gemvs = []
    matvec = DenseMatrix.matvec
    monkeypatch.setattr(DenseMatrix, "matvec", lambda self, x: gemvs.append(1) or matvec(self, x))
    report = run_row_method("kaczmarz", a, inst.b, x_star=inst.x_star,
                            stop=StopRule(rse_tol=1e-10, max_iters=5000))
    assert report.iterations > 300
    assert report.termination_reason == "converged"
    assert gemvs == []  # no start, per-step or refresh GEMV


def _block_solve_counting_gemvs(monkeypatch, method, config):
    """Solve with ``method``, counting GEMVs."""
    a = gen_randn(60, 20, 44)
    inst = make_consistent(a, 45)
    gemvs = []
    matvec = DenseMatrix.matvec
    monkeypatch.setattr(DenseMatrix, "matvec", lambda self, x: gemvs.append(1) or matvec(self, x))
    report = run_row_method(method, a, inst.b, x_star=inst.x_star, seed=46, config=config,
                            stop=StopRule(rse_tol=1e-10, max_iters=5000))
    assert report.iterations > 300
    assert report.termination_reason == "converged"
    return report, gemvs


def test_rbk_carries_no_residual_across_refreshes(monkeypatch):
    _, gemvs = _block_solve_counting_gemvs(monkeypatch, "rbk", SelectionConfig(block_size=2))
    assert gemvs == []  # no start, per-step or refresh GEMV


def test_gbk_carries_no_residual_across_refreshes(monkeypatch):
    report, gemvs = _block_solve_counting_gemvs(monkeypatch, "gbk", SelectionConfig(eta1=1.0))
    # b - A x before every step but the first, where x = 0; none at start, refresh or the end
    assert len(gemvs) == report.iterations - 1


def test_rbk_solves_ill_conditioned_square_blocks():
    # 2000x100 with 100-row blocks: every block is a square Gaussian matrix. The one
    # drawn here has condition number 6.4e3, on which CGLS at tolerance 1e-12 does
    # not converge within its default cap of 210 iterations.
    a = gen_randn(2000, 100, 403012)
    inst = make_consistent(a, 403013)
    report = run_row_method("rbk", a, inst.b, x_star=inst.x_star, seed=403012,
                            stop=StopRule(rse_tol=1e-4))
    assert report.termination_reason == "converged"


def test_set_size_trace_matches_iterations():
    report = run_row_method("rgdr", DIAG, B_DIAG, x_star=np.array([1.0, 2.0]))
    assert len(report.set_size_trace) == report.iterations
    assert len(report.rse_trace) == report.iterations + 1
    assert len(report.iter_seconds) == report.iterations + 1


@pytest.mark.parametrize("method", ROW_METHODS + COL_METHODS)
def test_solve_loop_contract_for_every_method(method):
    a = gen_randn(40, 10, 3)
    inst = make_consistent(a, 4)
    config = SelectionConfig(block_size=3)
    is_row = method in ROW_METHODS
    run, other = (run_row_method, run_col_method) if is_row else (run_col_method, run_row_method)

    capped = run(method, a, inst.b, config=config, x_star=inst.x_star, seed=0,
                 stop=StopRule(rse_tol=1e-12, max_iters=5))
    assert capped.termination_reason == "max_iters"
    assert capped.iterations == 5
    assert len(capped.rse_trace) == 6
    assert len(capped.set_size_trace) == 5

    at_solution = run(method, a, inst.b, config=config, x0=inst.x_star, x_star=inst.x_star)
    assert at_solution.termination_reason == "converged"
    assert at_solution.iterations == 0

    with pytest.raises(UsageError, match=f"unknown {'column' if is_row else 'row'} method"):
        other(method, a, inst.b, config=config, x_star=inst.x_star)


@pytest.mark.parametrize("method", ["rgrk", "rgdr", "gbk"])
def test_greedy_row_methods_reject_a_zero_row(method, monkeypatch):
    a = DenseMatrix([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    b, x_star = np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0])
    # Refused once, before the first step: the selection rules do not look for zero rows.
    monkeypatch.setattr(row_methods._RowFamily, "step", None)
    with pytest.raises(UsageError, match="^zero row 1 unsupported by greedy selection$"):
        run_row_method(method, a, b, x_star=x_star, seed=0)
    # A run started at x* returns before the refusal.
    at_solution = run_row_method(method, a, b, x0=x_star, x_star=x_star, seed=0)
    assert (at_solution.termination_reason, at_solution.iterations) == ("converged", 0)
