import tracemalloc

import numpy as np
import pytest

from rgsolve import (CglsConfig, DenseMatrix, SubsolverError, UsageError, cgls, gen_smatrix,
                     run_col_method, run_row_method)


def test_identity():
    np.testing.assert_allclose(cgls(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0],
                               rtol=1e-12, atol=1e-12)


def test_scalar_least_squares():
    # normal equations: 2 w = 4
    w = cgls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    np.testing.assert_allclose(w, [2.0], rtol=1e-10)


def test_matches_svd_least_squares_oracle():
    a = gen_smatrix(30, 10, 10, 2.0, 1.0, 4)
    rhs = np.random.default_rng(5).standard_normal(30)
    w = cgls(a, rhs)
    oracle = np.linalg.lstsq(a.entries, rhs, rcond=None)[0]
    np.testing.assert_allclose(w, oracle, rtol=1e-8, atol=1e-10)


def test_normal_equations_residual_property():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((25, 8))
        rhs = rng.standard_normal(25)
        w = cgls(m, rhs)
        lhs = m.T @ m @ w
        target = m.T @ rhs
        assert np.linalg.norm(lhs - target) <= 1e-10 * np.linalg.norm(target)


def test_consistent_square_system_exact():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    x_true = rng.standard_normal(6)
    w = cgls(m, m @ x_true)
    np.testing.assert_allclose(w, x_true, rtol=1e-10)


def test_row_permutation_invariance():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((20, 6))
    rhs = rng.standard_normal(20)
    perm = rng.permutation(20)
    w1 = cgls(m, rhs)
    w2 = cgls(m[perm], rhs[perm])
    np.testing.assert_allclose(w1, w2, rtol=1e-10, atol=1e-12)


def test_rank_deficient_gives_minimum_norm():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((15, 4))
    m = np.hstack([base, base[:, :2]])  # duplicated columns, rank 4
    rhs = m @ rng.standard_normal(6)
    w = cgls(m, rhs)
    oracle = np.linalg.lstsq(m, rhs, rcond=None)[0]  # SVD gives min-norm too
    np.testing.assert_allclose(w, oracle, rtol=1e-8, atol=1e-10)


def test_orthogonal_rhs_returns_zero():
    m = np.array([[1.0], [0.0]])
    np.testing.assert_array_equal(cgls(m, np.array([0.0, 5.0])), [0.0])


def test_budget_exhaustion_reports_diagnostics():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((40, 20))
    rhs = rng.standard_normal(40)
    with pytest.raises(SubsolverError) as excinfo:
        cgls(m, rhs, CglsConfig(rel_tol=1e-14, max_iters=2))
    assert excinfo.value.iterations == 2
    assert excinfo.value.residual > 0.0


def test_rejects_zero_matrix():
    with pytest.raises(UsageError):
        cgls(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(UsageError):
        cgls(DenseMatrix(np.zeros((3, 2))), np.ones(3))


def test_accepts_nonzero_matrix_whose_norm_underflows():
    m = np.full((4, 2), 1e-170)
    assert np.linalg.norm(m) == 0.0
    assert cgls(m, np.ones(4)).shape == (2,)


def test_squares_that_overflow_raise_instead_of_returning_zero():
    # ||A||_F and A.T b overflow, so the iteration would stop at once at w = 0.
    a = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1e200, 2.0, 3.0])
    with pytest.raises(SubsolverError, match=r"^cgls cannot run in float64: \|\|M\|\|_F is inf"):
        cgls(a, b)
    # Without x_star the solve loop asks cgls for it, and no run reports a false convergence.
    with pytest.raises(SubsolverError, match="overflow"):
        run_col_method("cd", DenseMatrix(a), b)
    with pytest.raises(SubsolverError, match="overflow"):
        run_row_method("kaczmarz", DenseMatrix(a), b)
    # ||M||_F and ||M.T rhs|| are finite here, but ||M p||^2 is not.
    with pytest.raises(SubsolverError, match=r"\|\|M p\|\|\^2 is inf") as err:
        cgls(1e100 * np.eye(2), np.ones(2))
    assert err.value.iterations == 0 and err.value.residual == np.inf


def test_makes_no_full_size_temporary():
    a = DenseMatrix(np.random.default_rng(6).standard_normal((400, 30)))
    rhs = np.ones(400)
    tracemalloc.start()
    try:
        cgls(a, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * a.entries.nbytes


def test_config_validation():
    for kwargs in ({"rel_tol": 0.0}, {"rel_tol": -1.0}, {"rel_tol": float("nan")},
                   {"max_iters": 0}, {"max_iters": float("nan")}, {"max_iters": 2.5},
                   {"max_iters": 3.0}):
        with pytest.raises(UsageError):
            CglsConfig(**kwargs)
    assert CglsConfig(max_iters=np.int64(3)).max_iters == 3
