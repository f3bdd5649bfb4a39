import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rgsolve import DenseMatrix, SelectionConfig, UsageError
from rgsolve.selection import (
    _draw_by_square,
    _inverse_cdf_draw,
    column_losses_from_y,
    gbk_set,
    make_partition,
    max_distance_set,
    relaxed_greedy_set,
    row_losses,
)

DIAG = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])


def random_case(seed, m=25, n=10):
    rng = np.random.default_rng(seed)
    a = DenseMatrix(rng.standard_normal((m, n)))
    r = rng.standard_normal(m)
    return a, r


def test_row_losses_hand():
    prof = row_losses(DIAG, np.array([1.0, 4.0]))
    np.testing.assert_allclose(prof.losses, [1.0, 4.0])
    # The energy-weighted mean 0.2 * 1 + 0.8 * 4 is ||r||^2 / ||A||_F^2 = 17 / 5.
    assert prof.weighted_mean == 17.0 / DIAG.frob_sq
    assert abs(prof.weighted_mean - 3.4) < 1e-14
    assert prof.max_loss == 4.0


def test_row_losses_zero_residual():
    prof = row_losses(DIAG, np.zeros(2))
    np.testing.assert_array_equal(prof.losses, [0.0, 0.0])
    assert prof.max_loss == 0.0


def test_row_losses_symmetric():
    prof = row_losses(DenseMatrix(np.eye(2)), np.array([2.0, 2.0]))
    np.testing.assert_allclose(prof.losses, [4.0, 4.0])
    assert prof.weighted_mean == 4.0


def test_column_losses_hand():
    prof = column_losses_from_y(DIAG, DIAG.matvec_transpose(np.array([1.0, 4.0])))
    np.testing.assert_allclose(prof.losses, [1.0, 16.0])
    assert abs(prof.weighted_mean - 13.0) < 1e-12
    assert prof.max_loss == 16.0


def test_column_losses_orthogonal_residual():
    # residual orthogonal to both columns
    a = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    prof = column_losses_from_y(a, a.matvec_transpose(np.array([0.0, 0.0, 3.0])))
    np.testing.assert_array_equal(prof.losses, [0.0, 0.0])


def test_column_losses_identity():
    eye = DenseMatrix(np.eye(2))
    prof = column_losses_from_y(eye, eye.matvec_transpose(np.array([1.0, 4.0])))
    np.testing.assert_allclose(prof.losses, [1.0, 16.0])


def test_loss_sum_identities_random():
    for seed in range(20):
        a, r = random_case(seed)
        row = row_losses(a, r)
        col = column_losses_from_y(a, a.matvec_transpose(r))
        r_sq = float(r @ r)
        y = a.matvec_transpose(r)
        y_sq = float(y @ y)
        assert abs(float(row.losses @ a.row_sqnorms) - r_sq) <= 1e-10 * r_sq
        assert abs(float(col.losses @ a.col_sqnorms) - y_sq) <= 1e-10 * y_sq
        # The energy-weighted mean of the losses is ||r||^2 / ||A||_F^2 (||y||^2 for columns).
        assert row.weighted_mean == r_sq / a.frob_sq
        assert col.weighted_mean == y_sq / a.frob_sq
        for prof, sqnorms in ((row, a.row_sqnorms), (col, a.col_sqnorms)):
            weighted = float(sqnorms @ prof.losses) / a.frob_sq
            assert abs(prof.weighted_mean - weighted) <= 1e-12 * prof.weighted_mean
        assert row.max_loss >= row.weighted_mean
        assert col.max_loss >= col.weighted_mean


def test_relaxed_greedy_hand_cases():
    prof = row_losses(DIAG, np.array([1.0, 4.0]))
    # threshold 0.5*4 + 0.5*3.4 = 3.7 selects only the larger loss
    np.testing.assert_array_equal(relaxed_greedy_set(prof, 0.5), [1])
    # theta=0 thresholds at the weighted mean 3.4
    np.testing.assert_array_equal(relaxed_greedy_set(prof, 0.0), [1])


def test_relaxed_greedy_symmetric_ties():
    prof = row_losses(DenseMatrix(np.eye(2)), np.array([2.0, 2.0]))
    for theta in (0.0, 0.3, 1.0):
        np.testing.assert_array_equal(relaxed_greedy_set(prof, theta), [0, 1])


def assert_selects_nothing(selected):
    assert selected.dtype == np.intp and selected.shape == (0,)


def test_relaxed_greedy_selects_nothing_at_zero_loss():
    prof = row_losses(DIAG, np.zeros(2))
    for theta in (0.0, 0.5, 1.0):
        assert_selects_nothing(relaxed_greedy_set(prof, theta))


def test_relaxed_greedy_properties_random():
    thetas = np.linspace(0.0, 1.0, 9)
    for seed in range(30):
        a, r = random_case(seed)
        prof = row_losses(a, r)
        argmax = np.flatnonzero(prof.losses == prof.max_loss)
        previous = None
        for theta in thetas:
            sel = relaxed_greedy_set(prof, theta)
            assert sel.size > 0
            assert np.isin(argmax, sel).all()
            if previous is not None:  # larger theta never enlarges the set
                assert set(sel).issubset(set(previous))
            previous = sel
        np.testing.assert_array_equal(relaxed_greedy_set(prof, 1.0), argmax)


def test_gbk_set_hand():
    prof = row_losses(DIAG, np.array([1.0, 4.0]))
    np.testing.assert_array_equal(gbk_set(prof, 0.5), [1])
    np.testing.assert_array_equal(gbk_set(prof, 0.25), [0, 1])
    ties = row_losses(DenseMatrix(np.eye(2)), np.array([2.0, 2.0]))
    np.testing.assert_array_equal(gbk_set(ties, 1.0), [0, 1])


def test_gbk_set_selects_nothing_at_zero_loss():
    prof = row_losses(DIAG, np.zeros(2))
    for eta1 in (0.5, 1.0):
        assert_selects_nothing(gbk_set(prof, eta1))


def test_gbk_set_bounds():
    for seed in range(10):
        a, r = random_case(seed)
        sel = gbk_set(row_losses(a, r), 0.5)
        assert sel.size > 0 and sel.min() >= 0 and sel.max() < a.m


def test_max_distance_hand():
    y = DIAG.matvec_transpose(np.array([1.0, 4.0]))  # distances 1 and 4
    np.testing.assert_array_equal(max_distance_set(DIAG, y, 0.1), [1])
    eye = DenseMatrix(np.eye(2))
    np.testing.assert_array_equal(max_distance_set(eye, np.array([4.0, 4.0]), 0.0), [0, 1])
    np.testing.assert_array_equal(max_distance_set(eye, np.array([3.95, 4.0]), 0.1), [0, 1])


def test_max_distance_contains_argmax():
    for seed in range(10):
        a, r = random_case(seed)
        y = a.matvec_transpose(r)
        dist = np.abs(y) / np.sqrt(a.col_sqnorms)
        sel = max_distance_set(a, y, 0.05)
        assert int(np.argmax(dist)) in sel


def test_max_distance_selects_nothing_at_zero_distance():
    for eta2 in (0.0, 0.1):
        assert_selects_nothing(max_distance_set(DIAG, np.zeros(2), eta2))


def test_make_partition_cases():
    blocks = make_partition(5, 2)
    assert [list(b) for b in blocks] == [[0, 1], [2, 3], [4]]
    assert [list(b) for b in make_partition(4, 4)] == [[0, 1, 2, 3]]
    assert [list(b) for b in make_partition(3, 5)] == [[0, 1, 2]]


def test_make_partition_covers_everything():
    for count, size in ((10, 3), (12, 4), (7, 1), (2000, 100)):
        blocks = make_partition(count, size)
        joined = np.concatenate(blocks)
        np.testing.assert_array_equal(joined, np.arange(count))
        for lo, block in zip(range(0, count, size), blocks):
            np.testing.assert_array_equal(block, np.arange(lo, min(lo + size, count)))


def test_make_partition_blocks_are_writable_and_do_not_overlap():
    blocks = make_partition(10, 3)
    blocks[1][:] = -1
    assert [list(b) for b in blocks] == [[0, 1, 2], [-1, -1, -1], [6, 7, 8], [9]]


def test_selection_config_validation():
    with pytest.raises(UsageError):
        SelectionConfig(theta=1.5)
    with pytest.raises(UsageError):
        SelectionConfig(eta1=0.0)
    with pytest.raises(UsageError, match="eta2 must be nonnegative"):
        SelectionConfig(eta2=-1.0)
    with pytest.raises(UsageError, match="eta2 must be nonnegative"):
        SelectionConfig(eta2=float("nan"))
    with pytest.raises(UsageError):
        SelectionConfig(block_size=0)


@pytest.mark.parametrize("field", ["theta", "eta1", "eta2", "block_size"])
def test_selection_config_is_frozen(field):
    # Its constructor's checks hold for the object's whole life: the selection rules
    # read its fields without checking them again.
    config = SelectionConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, getattr(config, field))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 2.5, "3"])
def test_non_integer_block_sizes_raise_usage_error(bad):
    with pytest.raises(UsageError, match="^block_size must be a positive integer"):
        SelectionConfig(block_size=bad)
    with pytest.raises(UsageError, match="^block_size must be a positive integer"):
        make_partition(10, bad)
    with pytest.raises(UsageError, match="^count must be a positive integer"):
        make_partition(bad, 2)


def test_zero_set_uses_relative_tolerance():
    a = DenseMatrix(np.eye(3))
    r = np.array([1.0, 1e-20, 0.0])
    prof = row_losses(a, r)
    np.testing.assert_array_equal(prof.losses < prof.zero_tol, [False, True, True])


_WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0]),  # zeros and ties
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(weights=st.lists(_WEIGHT, min_size=1, max_size=60),
       seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_inverse_cdf_draw_is_generator_choice(weights, seed):
    w = np.array(weights)
    assume(w.sum() > 0.0)
    p = w / w.sum()
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _inverse_cdf_draw(p, ours) == numpys.choice(len(w), p=p)
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_draw_by_square_is_the_inverse_cdf_draw_over_the_set():
    v = np.array([3.0, -1.0, 0.0, 2.0, 5.0])
    indices = np.array([0, 1, 3])
    w = v[indices] ** 2
    for seed in range(20):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # The draw reads the squares as the loss profile keeps them: v * v, which is v ** 2.
        assert (_draw_by_square(v * v, indices, ours)
                == indices[_inverse_cdf_draw(w / w.sum(), ref)])
        assert ours.bit_generator.state == ref.bit_generator.state
