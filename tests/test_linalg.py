import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rgsolve import (
    DenseMatrix,
    GenerationError,
    SelectionConfig,
    SizeGuardError,
    StopRule,
    UsageError,
    gen_randn,
    gen_smatrix,
    make_consistent,
    run_col_method,
    run_row_method,
    sigma_extremes,
    singular_values,
)
from rgsolve.linalg import NO_FACTOR, SWEEP_BLOCK, _block_index, orthonormalize_columns


def test_matvec_diagonal():
    a = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(a.matvec([1.0, 2.0]), [1.0, 4.0])


def test_matvec_identity():
    a = DenseMatrix(np.eye(3))
    np.testing.assert_allclose(a.matvec([5.0, 6.0, 7.0]), [5.0, 6.0, 7.0])


def test_matvec_hand():
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(a.matvec([1.0, 1.0]), [3.0, 7.0])


def test_public_constructor_copies_and_the_private_one_adopts():
    raw = np.random.default_rng(0).standard_normal((6, 3))
    a = DenseMatrix(raw)
    assert a.entries is not raw and raw.flags.writeable
    b = DenseMatrix._of(raw)
    assert b.entries is raw and not raw.flags.writeable
    assert b.frob_sq == a.frob_sq and b.row_sqnorms.tobytes() == a.row_sqnorms.tobytes()
    with pytest.raises(UsageError):
        DenseMatrix._of(np.ones(3))  # validated on the same path


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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(UsageError, match="matrix contains non-finite entries"):
            DenseMatrix([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(UsageError, match="matrix contains non-finite entries"):
        DenseMatrix([[np.inf]])


def test_finite_entries_whose_squares_overflow_are_accepted():
    a = DenseMatrix([[1e200, 0.0], [0.0, 1.0]])
    assert a.frob_sq == np.inf
    np.testing.assert_array_equal(a.matvec([1.0, 1.0]), [1e200, 1.0])


@pytest.mark.parametrize("shape", [(400, 120), (120, 400)])
def test_entries_is_the_only_full_size_array(shape):
    arr = np.random.default_rng(3).standard_normal(shape)
    tracemalloc.start()
    try:
        a = DenseMatrix(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * arr.nbytes  # the defensive copy and O(m + n) norms, nothing more
    a.gram
    two_d = {k for k, v in vars(a).items() if isinstance(v, np.ndarray) and v.ndim == 2}
    assert two_d == ({"entries", "_gram"} if shape[0] > shape[1] else {"entries"})


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
def test_matvec_transpose_is_the_transposed_gemv(shape):
    rng = np.random.default_rng(4)
    a = DenseMatrix(rng.standard_normal(shape))
    r = rng.standard_normal(shape[0])
    np.testing.assert_array_equal(a.matvec_transpose(r), a.entries.T @ r)


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


def test_norms_and_zero_facts_are_cached_read_only():
    a = DenseMatrix([[3.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(a.row_sqnorms, [9.0, 16.0, 0.0])
    np.testing.assert_array_equal(a.col_sqnorms, [9.0, 0.0, 16.0])
    assert a.frob_sq == 25.0
    assert (a.zero_row, a.zero_col) == (2, 1)
    for arr in (a.entries, a.row_sqnorms, a.col_sqnorms):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    full = DenseMatrix(np.eye(2))
    assert (full.zero_row, full.zero_col) == (None, None)


@pytest.mark.parametrize("indices, expected", [
    ([3, 4, 5, 6], slice(3, 7)),
    ([0], slice(0, 1)),
    ([9], slice(9, 10)),
    ([2, 3, 5], None),  # a gap: the array itself
    ([0, 7], None),
])
def test_block_index_is_a_slice_exactly_for_a_contiguous_run(indices, expected):
    indices = np.array(indices)
    index = _block_index(indices)
    if expected is None:
        assert index is indices
    else:
        assert index == expected
    np.testing.assert_array_equal(np.arange(20)[index], indices)


BLOCK_SOLVES = {"rbk": (run_row_method, 0), "rbcd": (run_col_method, 1)}  # runner, axis


def _block_solve(method, a, inst, block_size, seed=3, max_iters=400):
    runner, _ = BLOCK_SOLVES[method]
    report = runner(method, a, inst.b, x_star=inst.x_star, seed=seed,
                    config=SelectionConfig(block_size=block_size),
                    stop=StopRule(rse_tol=1e-10, max_iters=max_iters))
    return report.iterations, report.termination_reason, report.set_size_trace, \
        report.x_final.tobytes()


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Counts of the numpy.linalg calls made while the test runs, by function name."""
    counts = Counter()
    for name in ("cholesky", "inv", "solve", "lstsq"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("block_size", [7, 100])
@pytest.mark.parametrize("shape", [(150, 110), (110, 150)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", sorted(BLOCK_SOLVES))
def test_block_solves_repeat_exactly_on_a_warmed_matrix(method, shape, block_size,
                                                        linalg_calls):
    a = gen_randn(*shape, 60)
    inst = make_consistent(a, 61)
    linalg_calls.clear()  # the set-up's rank proof of a tall matrix is one Cholesky
    cold = _block_solve(method, a, inst, block_size)
    # Every block of these shapes is factored, each once.
    assert linalg_calls["inv"] == linalg_calls["cholesky"] > 0
    linalg_calls.clear()
    assert _block_solve(method, a, inst, block_size) == cold
    assert not linalg_calls  # a warm solve vets, inverts and solves nothing
    assert _block_solve(method, gen_randn(*shape, 60), inst, block_size) == cold


def _duplicated_rows():
    base = np.random.default_rng(64).standard_normal((10, 12))
    return DenseMatrix(np.repeat(base, 2, axis=0))  # every row twice, side by side


@pytest.mark.parametrize("method, matrix, block_size", [
    ("rbk", _duplicated_rows, 4),
    ("rbk", lambda: gen_randn(40, 5, 65), 10),  # more rows per block than columns
    ("rbcd", lambda: DenseMatrix(_duplicated_rows().entries.T.copy()), 4),
], ids=["rbk-duplicated-rows", "rbk-more-rows-than-columns", "rbcd-duplicated-columns"])
def test_rank_deficient_blocks_take_lstsq_at_every_step(method, matrix, block_size,
                                                        linalg_calls):
    a = matrix()
    inst = make_consistent(a, 66)
    for _ in range(2):  # cold, then warm
        linalg_calls.clear()
        iterations, *_ = _block_solve(method, a, inst, block_size, max_iters=25)
        assert iterations > 0
        assert linalg_calls["lstsq"] == iterations
        assert linalg_calls["inv"] == 0
    assert linalg_calls["cholesky"] == 0  # the warm solve vets no block again
    axis = BLOCK_SOLVES[method][1]
    assert a.partition_factor(axis, block_size, 0) is NO_FACTOR


def test_cached_factors_keep_one_partition_per_axis_within_its_bound():
    a = gen_randn(120, 40, 67)
    inst = make_consistent(a, 68)
    for block_size in (25, 30):
        for method in BLOCK_SOLVES:
            _block_solve(method, a, inst, block_size, max_iters=50)
    for axis, count, bound in ((0, a.m, a.entries.size), (1, a.n, a.n * a.n)):
        blocks = -(-count // 30)
        for index in range(blocks):  # fill every slot, not just the ones the solves drew
            a.partition_factor(axis, 30, index)
        size, slots = a._factors[axis]
        assert size == 30 and len(slots) == blocks
        held = [f for f in slots if f is not NO_FACTOR]
        assert held and all(not f.flags.writeable for f in held)
        assert sum(f.size for f in held) <= bound


@pytest.mark.parametrize("shape", [(130, 60), (60, 130), (130, 40), (40, 130)],
                         ids=["tall", "wide", "tall-narrow", "wide-short"])
def test_sweep_slots_stay_within_their_bound(shape):
    rng = np.random.default_rng(69)
    # Every slot, inverses included, filled by whole blocks and, on a fresh matrix, by pieces
    # of them, off the grid too: a piece fills its grid block's slot with the whole block's.
    pieces = [(7, 30, False), (0, 7, True), (30, SWEEP_BLOCK, True)]
    for spans in ([(0, SWEEP_BLOCK, True)], pieces):
        a = gen_randn(*shape, 69)
        for axis in (0, 1):
            count = shape[axis]
            grid = range(0, count, SWEEP_BLOCK)
            for lo, (start, stop, revisit) in itertools.product(grid, spans):
                block = slice(lo + start, min(lo + stop, count))
                if block.start < block.stop:
                    rhs = rng.standard_normal(block.stop - block.start)
                    z = a._sweep_solve(axis, block, rhs, revisit)[0]
                    np.testing.assert_allclose(np.tril(a._block_gram(axis, block)) @ z, rhs,
                                               rtol=1e-9, atol=1e-9)
            held = [arr for slot in a._sweeps[axis][1] if slot for arr in slot]
            if shape[1 - axis] < SWEEP_BLOCK:
                assert not held  # each triangle would outweigh its block of A
                continue
            assert len(held) == 2 * -(-count // SWEEP_BLOCK)
            assert all(not arr.flags.writeable for arr in held)
            assert sum(arr.size for arr in held) <= 2 * SWEEP_BLOCK * count
