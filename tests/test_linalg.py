import numpy as np
import pytest

from rgsolve import (
    DenseMatrix,
    GenerationError,
    SizeGuardError,
    UsageError,
    gen_smatrix,
    orthonormalize_columns,
    sigma_extremes,
    singular_values,
)


def test_matvec_diagonal():
    a = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(a.matvec([1.0, 2.0]), [1.0, 4.0])


def test_matvec_identity():
    a = DenseMatrix(np.eye(3))
    np.testing.assert_allclose(a.matvec([5.0, 6.0, 7.0]), [5.0, 6.0, 7.0])


def test_matvec_hand():
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(a.matvec([1.0, 1.0]), [3.0, 7.0])


def test_matvec_dimension_mismatch():
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(UsageError):
        a.matvec([1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        a.matvec_transpose([1.0])


def test_matvec_transpose_hand():
    a = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(a.matvec_transpose([1.0, 4.0]), [1.0, 8.0])


def test_matvec_transpose_zero_and_identity():
    a = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(a.matvec_transpose(np.zeros(2)), np.zeros(2))
    eye = DenseMatrix(np.eye(2))
    np.testing.assert_allclose(eye.matvec_transpose([3.0, 4.0]), [3.0, 4.0])


def test_module_level_wrappers():
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(a.matvec([1.0, 1.0]), [3.0, 7.0])
    np.testing.assert_allclose(a.matvec_transpose([1.0, 1.0]), [4.0, 6.0])


def test_norm_caches_consistent():
    rng = np.random.default_rng(0)
    a = DenseMatrix(rng.standard_normal((17, 9)))
    np.testing.assert_allclose(a.row_sqnorms, (a.entries ** 2).sum(axis=1), rtol=1e-14)
    np.testing.assert_allclose(a.col_sqnorms, (a.entries ** 2).sum(axis=0), rtol=1e-14)
    assert abs(a.row_sqnorms.sum() - a.frob_sq) <= 1e-12 * a.frob_sq
    assert abs(a.col_sqnorms.sum() - a.frob_sq) <= 1e-12 * a.frob_sq


def test_non_finite_entries_rejected():
    with pytest.raises(UsageError):
        DenseMatrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(UsageError):
        DenseMatrix([[np.inf]])


def test_entries_are_immutable():
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        a.entries[0, 0] = 9.0


def test_transpose_roundtrip_matches_gram_action():
    rng = np.random.default_rng(1)
    for seed in range(5):
        a = DenseMatrix(np.random.default_rng(seed).standard_normal((20, 10)))
        x = rng.standard_normal(10)
        direct = (a.entries.T @ a.entries) @ x
        np.testing.assert_allclose(a.matvec_transpose(a.matvec(x)), direct,
                                   rtol=1e-12, atol=1e-12)


def test_orthonormalize_scaling_columns():
    q = orthonormalize_columns([[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_allclose(q, np.eye(2), atol=1e-15)


def test_orthonormalize_rank_deficient():
    with pytest.raises(GenerationError):
        orthonormalize_columns([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])


def test_orthonormalize_random_draw():
    raw = np.random.default_rng(2).standard_normal((5, 3))
    q = orthonormalize_columns(raw)
    assert np.abs(q.T @ q - np.eye(3)).max() < 1e-10
    # span preserved: raw columns representable in the Q basis
    recon = q @ (q.T @ raw)
    np.testing.assert_allclose(recon, raw, atol=1e-10)


def test_singular_values_diagonal():
    sig = singular_values(DenseMatrix([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(sig, [2.0, 1.0], rtol=1e-14)


def test_singular_values_smatrix_extremes():
    a = gen_smatrix(50, 10, 10, 1.25, 1.0, 3)
    smax, smin = sigma_extremes(a)
    assert abs(smax - 1.25) <= 1e-8 * 1.25
    assert abs(smin - 1.0) <= 1e-8


def test_singular_values_rank_one():
    sig = singular_values(DenseMatrix([[1.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(sig, [2.0], rtol=1e-12)


def test_singular_values_match_eigh_oracle():
    for seed in range(5):
        arr = np.random.default_rng(seed).standard_normal((30, 12))
        sig = singular_values(arr)
        oracle = np.sqrt(np.sort(np.linalg.eigvalsh(arr.T @ arr))[::-1])
        np.testing.assert_allclose(sig, oracle, rtol=1e-8)


def test_singular_values_energy_identity():
    a = DenseMatrix(np.random.default_rng(7).standard_normal((25, 10)))
    sig = singular_values(a)
    assert abs((sig ** 2).sum() - a.frob_sq) <= 1e-8 * a.frob_sq


def test_singular_values_wide_matrix():
    arr = np.random.default_rng(8).standard_normal((6, 15))
    sig = singular_values(arr)
    oracle = np.sqrt(np.sort(np.linalg.eigvalsh(arr @ arr.T))[::-1])
    np.testing.assert_allclose(sig, oracle, rtol=1e-8)


def test_singular_values_size_guard():
    with pytest.raises(SizeGuardError):
        singular_values(np.ones((600, 600)))


def test_energy_weights_and_zero_facts_are_cached_read_only():
    a = DenseMatrix([[3.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(a.row_weights, a.row_sqnorms / a.frob_sq)
    np.testing.assert_array_equal(a.col_weights, a.col_sqnorms / a.frob_sq)
    assert (a.zero_row, a.zero_col) == (2, 1)
    for arr in (a.row_weights, a.col_weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    full = DenseMatrix(np.eye(2))
    assert (full.zero_row, full.zero_col) == (None, None)
