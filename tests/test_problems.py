import warnings

import numpy as np
import pytest

import rgsolve.problems
from rgsolve import (
    DenseMatrix,
    GenerationError,
    StopRule,
    UsageError,
    gen_randn,
    gen_smatrix,
    load_instance,
    make_consistent,
    make_inconsistent,
    run_col_method,
    run_row_method,
    save_instance,
    singular_values,
)
from rgsolve.linalg import ZERO_SIGMA_REL, _full_rank


def test_gen_randn_deterministic():
    a1 = gen_randn(30, 7, 42)
    a2 = gen_randn(30, 7, 42)
    np.testing.assert_array_equal(a1.entries, a2.entries)
    a3 = gen_randn(30, 7, 43)
    assert np.any(a1.entries != a3.entries)


def test_gen_randn_moments():
    a = gen_randn(10_000, 300, 0)
    assert abs(a.entries.mean()) < 0.01
    assert abs(a.entries.var() - 1.0) < 0.02


def test_gen_randn_column_norm_concentration():
    # squared column norms are chi-square with m degrees of freedom
    a = gen_randn(10_000, 300, 1)
    m = a.m
    assert np.abs(a.col_sqnorms - m).max() < 5.0 * np.sqrt(2.0 * m)


def test_gen_smatrix_extreme_singular_values():
    a = gen_smatrix(50, 10, 10, 1.25, 1.0, 3)
    sig = np.sqrt(np.sort(np.linalg.eigvalsh(a.entries.T @ a.entries))[::-1])
    assert abs(sig[0] - 1.25) < 1e-8
    assert abs(sig[-1] - 1.0) < 1e-8
    assert np.all(sig <= 1.25 + 1e-8) and np.all(sig >= 1.0 - 1e-8)


def test_gen_smatrix_rank_two():
    a = gen_smatrix(20, 6, 2, 2.0, 0.5, 4)
    sig = singular_values(a)
    np.testing.assert_allclose(sig, [2.0, 0.5], rtol=1e-8)


def test_gen_smatrix_rank_deficient():
    a = gen_smatrix(30, 10, 6, 1.25, 1.0, 5)
    sig = singular_values(a)
    assert sig.size == 6
    assert abs(sig[-1] - 1.0) < 1e-8


def test_gen_smatrix_energy_identity():
    a = gen_smatrix(40, 8, 8, 3.0, 1.0, 6)
    sig = singular_values(a)
    assert abs((sig ** 2).sum() - a.frob_sq) <= 1e-8 * a.frob_sq


def test_gen_smatrix_validation():
    with pytest.raises(UsageError):
        gen_smatrix(10, 5, 1, 2.0, 1.0, 0)
    with pytest.raises(UsageError):
        gen_smatrix(10, 5, 6, 2.0, 1.0, 0)
    with pytest.raises(UsageError):
        gen_smatrix(10, 5, 3, 1.0, 2.0, 0)


def test_make_consistent_invariants():
    for seed in range(5):
        a = gen_randn(40, 10, seed)
        inst = make_consistent(a, seed + 100)
        assert inst.consistent
        res = np.linalg.norm(inst.b - a.matvec(inst.x_star))
        assert res <= 1e-10 * np.linalg.norm(inst.b)


def test_make_consistent_identity_passthrough():
    import rgsolve

    a = rgsolve.DenseMatrix(np.eye(2))
    inst = make_consistent(a, 7)
    np.testing.assert_array_equal(inst.b, inst.x_star)


def test_make_consistent_rank_deficient_least_norm():
    a = gen_smatrix(30, 10, 6, 1.25, 1.0, 8)  # rank 6 < n
    inst = make_consistent(a, 9)
    # x_star must lie in the row space: projecting onto it changes nothing
    u, s, vt = np.linalg.svd(a.entries)
    row_space = vt[: (s > 1e-10 * s[0]).sum()]
    proj = row_space.T @ (row_space @ inst.x_star)
    assert np.linalg.norm(inst.x_star - proj) <= 1e-8 * np.linalg.norm(inst.x_star)


def test_make_inconsistent_invariants():
    for seed in range(5):
        a = gen_randn(50, 8, seed)
        inst = make_inconsistent(a, seed + 200)
        assert not inst.consistent
        noise = inst.b - a.matvec(inst.x_star)
        # residual at the reference equals the injected noise scale
        assert abs(np.linalg.norm(noise) - 0.1 * np.linalg.norm(a.matvec(inst.x_star))) \
            <= 1e-6 * np.linalg.norm(inst.b)
        assert np.linalg.norm(a.matvec_transpose(noise)) <= \
            1e-8 * np.sqrt(a.frob_sq) * np.linalg.norm(noise)


def test_make_inconsistent_full_rank_keeps_generating_solution():
    a = gen_randn(40, 6, 30)
    rng = np.random.default_rng(31)
    expected = rng.standard_normal(a.n)  # same stream the generator uses
    inst = make_inconsistent(a, 31)
    np.testing.assert_array_equal(inst.x_star, expected)


def test_make_inconsistent_requires_nontrivial_complement():
    a = gen_randn(4, 4, 1)  # square, full rank: no null space of A.T
    with pytest.raises(GenerationError):
        make_inconsistent(a, 2)


def test_make_inconsistent_noise_scale_knob():
    a = gen_randn(50, 8, 33)
    inst = make_inconsistent(a, 34, noise_scale=0.5)
    noise = inst.b - a.matvec(inst.x_star)
    target = 0.5 * np.linalg.norm(a.matvec(inst.x_star))
    assert abs(np.linalg.norm(noise) - target) <= 1e-6 * target


@pytest.fixture()
def no_cgls(monkeypatch):
    """Set-up makes no CGLS call: ``problems.cgls`` raises if anything calls it."""
    def refuse(*args, **kwargs):
        raise AssertionError("set-up called cgls")

    monkeypatch.setattr(rgsolve.problems, "cgls", refuse)


def _x_gen(n, seed):
    return np.random.default_rng(seed).standard_normal(n)  # make_*'s first draw


def _lstsq(a, b):
    return np.linalg.lstsq(a.entries, b, rcond=ZERO_SIGMA_REL)[0]


@pytest.mark.parametrize("make", [make_consistent, make_inconsistent])
@pytest.mark.parametrize("matrix", [
    lambda: gen_randn(200, 30, 70),
    lambda: gen_smatrix(300, 40, 40, 1e6, 1.0, 3),  # cond 1e6: lstsq is off by about 1e-12
], ids=["randn", "smatrix-cond-1e6"])
def test_full_column_rank_reference_is_the_generating_vector(make, matrix, no_cgls):
    a = matrix()
    inst = make(a, 4)
    assert inst.x_star.tobytes() == _x_gen(a.n, 4).tobytes()
    assert a._gram is not None  # the proof's Gram is the one the column solves use
    lstsq = _lstsq(a, inst.b)
    assert np.linalg.norm(lstsq - inst.x_star) <= 1e-10 * np.linalg.norm(inst.x_star)


@pytest.mark.parametrize("make, matrix, near", [
    (make_consistent, lambda: gen_smatrix(120, 30, 20, 10.0, 1.0, 4), False),
    (make_inconsistent, lambda: gen_smatrix(120, 30, 20, 10.0, 1.0, 4), False),
    (make_consistent, lambda: gen_randn(40, 120, 3), False),
    # Every square underflows to zero, but x_gen is still the solution to rounding.
    (make_consistent, lambda: DenseMatrix(gen_randn(40, 6, 5).entries * 1e-170), True),
], ids=["rank-deficient", "rank-deficient-inconsistent", "wide", "underflow"])
def test_unproven_references_are_the_svd_solve(make, matrix, near, no_cgls):
    a = matrix()
    inst = make(a, 5)
    assert inst.x_star.tobytes() == _lstsq(a, inst.b).tobytes()
    distance = np.linalg.norm(inst.x_star - _x_gen(a.n, 5)) / np.linalg.norm(inst.x_star)
    assert distance <= 1e-12 if near else distance > 1e-3


def test_subnormal_gram_is_no_proof(no_cgls):
    # This rank-11 matrix's Gram is subnormal and passes the pivot test.
    a = DenseMatrix(gen_smatrix(60, 12, 11, 2.0, 1.0, 0).entries * 1e-156)
    assert _full_rank(a.gram)
    inst = make_consistent(a, 5)
    assert inst.x_star.tobytes() == _lstsq(a, inst.b).tobytes()
    assert np.linalg.norm(inst.x_star - _x_gen(a.n, 5)) > 1e-3 * np.linalg.norm(inst.x_star)


@pytest.mark.parametrize("make", [make_consistent, make_inconsistent])
def test_overflowing_squares_take_the_svd_solve_without_a_warning(make, no_cgls):
    a = DenseMatrix([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])  # frob_sq is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = make(a, 1)
    assert np.isfinite(inst.b).all()
    assert inst.x_star.tobytes() == _lstsq(a, inst.b).tobytes()
    assert inst.x_star.tobytes() == np.array([0.345584192064786, 0.0]).tobytes()
    assert a._gram is None  # never built: A.T @ A would overflow


def test_column_methods_solve_inconsistent_but_row_methods_stall():
    a = gen_smatrix(100, 10, 10, 1.25, 1.0, 35)
    inst = make_inconsistent(a, 36)
    col = run_col_method("rgdc", a, inst.b, x_star=inst.x_star)
    assert col.termination_reason == "converged"
    row = run_row_method("rgdr", a, inst.b, x_star=inst.x_star,
                         stop=StopRule(rse_tol=1e-4, max_iters=50_000))
    assert row.termination_reason == "stalled"
    assert row.final_rse >= 1e-4


def test_instance_serialization_roundtrip(tmp_path):
    a = gen_smatrix(20, 5, 5, 1.25, 1.0, 40)
    inst = make_inconsistent(a, 41, meta={"generator": "smatrix"})
    directory = save_instance(inst, tmp_path / "case")
    back = load_instance(directory)
    np.testing.assert_array_equal(back.A.entries, inst.A.entries)
    np.testing.assert_array_equal(back.b, inst.b)
    np.testing.assert_array_equal(back.x_star, inst.x_star)
    assert back.consistent == inst.consistent
    assert back.seed == inst.seed
    assert back.meta["generator"] == "smatrix"


def test_instance_serialization_deterministic(tmp_path):
    a = gen_randn(15, 4, 50)
    inst = make_consistent(a, 51)
    d1 = save_instance(inst, tmp_path / "one")
    d2 = save_instance(inst, tmp_path / "two")
    for name in ("A.mtx", "b.mtx", "xstar.mtx", "meta.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
