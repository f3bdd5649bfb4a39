import numpy as np
import pytest

from rgsolve import row_methods
from rgsolve import (
    COL_METHODS,
    ROW_METHODS,
    CglsConfig,
    DenseMatrix,
    RgsolveError,
    SelectionConfig,
    StalledError,
    StopRule,
    UsageError,
    cgls,
    gen_randn,
    gen_smatrix,
    make_consistent,
    make_inconsistent,
    relaxed_greedy_set,
    row_losses,
    run_col_method,
    run_row_method,
)
from rgsolve.row_methods import block_project_step, kaczmarz_step, rgdr_step, rgrk_step
from rgsolve.state import SolveState

DIAG = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
B_DIAG = np.array([1.0, 4.0])


def fresh_state(a, b, x=None):
    x = np.zeros(a.n) if x is None else np.asarray(x, dtype=float).copy()
    return SolveState(x=x, r=b - a.matvec(x))


def test_kaczmarz_identity_row():
    a = DenseMatrix(np.eye(2))
    state = fresh_state(a, np.array([1.0, 2.0]))
    kaczmarz_step(state, a, np.array([1.0, 2.0]), 1)
    np.testing.assert_allclose(state.x, [0.0, 2.0])


def test_kaczmarz_hand():
    state = fresh_state(DIAG, B_DIAG)
    kaczmarz_step(state, DIAG, B_DIAG, 1)
    np.testing.assert_allclose(state.x, [0.0, 2.0])
    assert abs(state.r[1]) < 1e-15


def test_kaczmarz_satisfied_row_is_noop():
    state = fresh_state(DIAG, B_DIAG, x=[1.0, 0.0])  # row 0 already satisfied
    x_before, r_before = state.x.copy(), state.r.copy()
    kaczmarz_step(state, DIAG, B_DIAG, 0)
    assert state.x.tobytes() == x_before.tobytes()
    assert state.r.tobytes() == r_before.tobytes()
    rgdr_step(state, DIAG, np.array([0]))  # a satisfied set
    assert state.x.tobytes() == x_before.tobytes()
    assert state.r.tobytes() == r_before.tobytes()


def test_kaczmarz_rejects_zero_row():
    a = DenseMatrix([[0.0, 0.0], [1.0, 1.0]])
    state = SolveState(x=np.zeros(2), r=np.array([1.0, 1.0]))
    with pytest.raises(UsageError):
        kaczmarz_step(state, a, np.array([1.0, 1.0]), 0)


def test_rgdr_hand_step():
    state = fresh_state(DIAG, B_DIAG)
    rgdr_step(state, DIAG, np.array([1]))
    np.testing.assert_allclose(state.x, [0.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(state.r, [1.0, 0.0], atol=1e-15)
    # weight (eta.T r) / ||A.T eta||^2 = 16 / 64 along A.T eta = (0, 8)
    np.testing.assert_array_equal(state.x, 0.25 * np.array([0.0, 8.0]))


def test_rgdr_full_set_identity_converges_in_one_step():
    a = DenseMatrix(np.eye(2))
    b = np.array([2.0, 2.0])
    state = fresh_state(a, b)
    rgdr_step(state, a, np.array([0, 1]))
    np.testing.assert_allclose(state.x, [2.0, 2.0], atol=1e-15)
    # weight 8 / 8 = 1 along A.T eta = (2, 2): the step lands exactly on b
    np.testing.assert_array_equal(state.x, [2.0, 2.0])
    np.testing.assert_array_equal(state.r, [0.0, 0.0])


def test_rgdr_singleton_equals_kaczmarz():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = DenseMatrix(rng.standard_normal((12, 5)))
        b = rng.standard_normal(12)
        x = rng.standard_normal(5)
        s1 = fresh_state(a, b, x)
        s2 = fresh_state(a, b, x)
        i = int(rng.integers(a.m))
        rgdr_step(s1, a, np.array([i]))
        kaczmarz_step(s2, a, b, i)
        np.testing.assert_allclose(s1.x, s2.x, atol=1e-12)
        np.testing.assert_allclose(s1.r, s2.r, atol=1e-12)


def test_rgdr_petrov_galerkin_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = DenseMatrix(rng.standard_normal((15, 6)))
        b = rng.standard_normal(15)
        state = fresh_state(a, b, rng.standard_normal(6))
        profile = row_losses(a, state.r)
        sel = relaxed_greedy_set(profile, rng.uniform(0.0, 1.0))
        eta = np.zeros(a.m)
        eta[sel] = state.r[sel]
        rgdr_step(state, a, sel)
        bound = 1e-10 * np.linalg.norm(eta) * np.linalg.norm(state.r)
        assert abs(float(eta @ state.r)) <= max(bound, 1e-30)


def test_rgdr_stalls_when_direction_vanishes():
    # Second block row duplicates the first with opposite sign: residual
    # (1, 1) on those rows maps through A.T to zero.
    a = DenseMatrix([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0, 0.0])  # inconsistent on the first two rows
    state = fresh_state(a, b)
    with pytest.raises(StalledError):
        rgdr_step(state, a, np.array([0, 1]))


def test_rgrk_singleton_support_deterministic():
    state = fresh_state(DIAG, B_DIAG)
    rgrk_step(state, DIAG, B_DIAG, np.array([1]), np.random.default_rng(0))
    np.testing.assert_allclose(state.x, [0.0, 2.0])


def test_rgrk_sampling_distribution():
    # unit-norm rows, residual (1, 4): P(row 1) = 16/17
    a = DenseMatrix(np.eye(2))
    b = np.array([1.0, 4.0])
    rng = np.random.default_rng(42)
    picks = 0
    trials = 100_000
    for _ in range(trials):
        state = fresh_state(a, b)
        rgrk_step(state, a, b, np.array([0, 1]), rng)
        if state.x[1] != 0.0:
            picks += 1
    assert abs(picks / trials - 16.0 / 17.0) < 0.01


def test_block_project_full_set_jumps_to_solution():
    a = DenseMatrix(np.eye(2))
    b = np.array([1.0, 2.0])
    state = fresh_state(a, b)
    block_project_step(state, a, b, np.array([0, 1]))
    np.testing.assert_allclose(state.x, [1.0, 2.0], atol=1e-10)


def test_block_project_singleton_matches_kaczmarz():
    rng = np.random.default_rng(3)
    a = DenseMatrix(rng.standard_normal((10, 4)))
    b = rng.standard_normal(10)
    x = rng.standard_normal(4)
    s1 = fresh_state(a, b, x)
    s2 = fresh_state(a, b, x)
    block_project_step(s1, a, b, np.array([4]))
    kaczmarz_step(s2, a, b, 4)
    np.testing.assert_allclose(s1.x, s2.x, atol=1e-10)


def test_block_project_full_rows_reaches_least_norm():
    rng = np.random.default_rng(4)
    a = DenseMatrix(rng.standard_normal((12, 5)))
    x_true = rng.standard_normal(5)
    b = a.matvec(x_true)
    state = fresh_state(a, b)
    block_project_step(state, a, b, np.arange(12))
    np.testing.assert_allclose(state.x, x_true, rtol=1e-8)


def _assert_row_block_is_min_norm(a, b, indices, x):
    state = SolveState(x=x.copy(), r=None)
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


def test_run_rgdr_hand_instance():
    report = run_row_method("rgdr", DIAG, B_DIAG, config=SelectionConfig(theta1=0.5),
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
    # the driver re-verifies r = b - A x every 100 iterations and raises on drift
    assert report.iterations > 200
    assert report.termination_reason == "converged"


@pytest.mark.parametrize("method, name", [("rgrk", "kaczmarz_step"), ("rgdr", "rgdr_step")])
def test_refresh_catches_drift_in_carried_residual(monkeypatch, method, name):
    a = gen_randn(200, 40, 11)
    inst = make_consistent(a, 12)
    original = getattr(row_methods, name)

    def perturbed(state, *args, **kwargs):
        original(state, *args, **kwargs)
        if state.k == 20:
            state.r[0] += 1e-3

    monkeypatch.setattr(row_methods, name, perturbed)
    with pytest.raises(RgsolveError, match="residual recursion drifted"):
        run_row_method(method, a, inst.b, x_star=inst.x_star, seed=0,
                       stop=StopRule(rse_tol=1e-300, max_iters=1000))


def test_cyclic_kaczmarz_carries_no_residual_across_refreshes(monkeypatch):
    a = gen_randn(30, 20, 30)
    inst = make_consistent(a, 31)
    carried = []
    original = row_methods.kaczmarz_step

    def watched(state, *args):
        carried.append(state.r is not None)
        original(state, *args)

    monkeypatch.setattr(row_methods, "kaczmarz_step", watched)
    gemvs = []
    matvec = DenseMatrix.matvec
    monkeypatch.setattr(DenseMatrix, "matvec", lambda self, x: gemvs.append(1) or matvec(self, x))
    report = run_row_method("kaczmarz", a, inst.b, x_star=inst.x_star,
                            stop=StopRule(rse_tol=1e-10, max_iters=5000))
    assert report.iterations > 300
    assert report.termination_reason == "converged"
    assert len(carried) == report.iterations and not any(carried)
    assert gemvs == []  # no start, per-step or refresh GEMV


def _block_solve_watching_residual(monkeypatch, method, config):
    """Solve with ``method``, noting whether each block step saw a carried residual and
    counting GEMVs."""
    a = gen_randn(60, 20, 44)
    inst = make_consistent(a, 45)
    carried = []
    original = row_methods.block_project_step

    def watched(state, *args):
        carried.append(state.r is not None)
        original(state, *args)

    monkeypatch.setattr(row_methods, "block_project_step", watched)
    gemvs = []
    matvec = DenseMatrix.matvec
    monkeypatch.setattr(DenseMatrix, "matvec", lambda self, x: gemvs.append(1) or matvec(self, x))
    report = run_row_method(method, a, inst.b, x_star=inst.x_star, seed=46, config=config,
                            stop=StopRule(rse_tol=1e-10, max_iters=5000))
    assert report.iterations > 300
    assert report.termination_reason == "converged"
    assert len(carried) == report.iterations and not any(carried)
    return report, gemvs


def test_rbk_carries_no_residual_across_refreshes(monkeypatch):
    _, gemvs = _block_solve_watching_residual(monkeypatch, "rbk", SelectionConfig(block_size=2))
    assert gemvs == []  # no start, per-step or refresh GEMV


def test_gbk_carries_no_residual_across_refreshes(monkeypatch):
    report, gemvs = _block_solve_watching_residual(monkeypatch, "gbk", SelectionConfig(eta1=1.0))
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
def test_greedy_row_methods_reject_a_zero_row(method):
    a = DenseMatrix([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(UsageError, match="^zero row 1 unsupported by greedy selection$"):
        run_row_method(method, a, np.array([1.0, 0.0, 1.0]), x_star=np.array([1.0, 1.0]),
                       seed=0)


@pytest.mark.parametrize("method, step_name", [("rgrk", "rgrk_step"), ("rgdr", "rgdr_step")])
def test_step_records_equal_a_fresh_recomputation(monkeypatch, method, step_name):
    a = gen_randn(200, 50, 5)
    inst = make_consistent(a, 6)
    fresh = []
    original_losses = row_methods.row_losses
    original_step = getattr(row_methods, step_name)

    def err_sq(x):
        d = x - inst.x_star
        return float(d @ d)

    def losses(*args, **kwargs):
        profile = original_losses(*args, **kwargs)
        zero = np.flatnonzero(profile.losses < profile.zero_tol)
        fresh.append({"zero_mass": float(a.row_sqnorms[zero].sum())})
        return profile

    def step(state, *args, **kwargs):
        fresh[-1]["err_sq_before"] = err_sq(state.x)
        original_step(state, *args, **kwargs)
        fresh[-1]["err_sq_after"] = err_sq(state.x)

    monkeypatch.setattr(row_methods, "row_losses", losses)
    monkeypatch.setattr(row_methods, step_name, step)
    report = run_row_method(method, a, inst.b, x_star=inst.x_star, seed=3, record_steps=True,
                            config=SelectionConfig(theta1=0.3))
    assert report.termination_reason == "converged"
    assert len(report.step_records) == len(fresh) == report.iterations
    for rec, want in zip(report.step_records, fresh):
        assert {k: getattr(rec, k) for k in want} == want
