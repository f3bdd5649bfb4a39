"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole tier-1 suite takes 10-30 s, depending on the host, dominated
by the desk-scale trend sweep (criterion 5) and the certification runs
(criterion 3).

Criteria 5(a) and 5(b) check the iteration gap between the deterministic
aggregate methods (RGDR, RGDC) and the randomized methods that draw one index
from the same relaxed greedy set (RGRK, RGRCD). The gap tracks the size of the
selected set, which shrinks to the argmax as theta -> 1; at theta = 1 each pair
is one algorithm (the max-loss Kaczmarz step, the greedy coordinate step) and
the ratio is exactly 1. So no fixed factor holds for every theta. The criterion
asks for a 5x gap where the aggregate is large (theta <= 0.5, which includes
the fast deterministic block Kaczmarz case theta = 0.5), a deterministic method
that is faster at every theta, and a gap that narrows strictly as theta grows.
Measured at 2000x100 over 30 seeds, the ratios are 23.6, 11.1, 5.02, 1.85 (rows)
and 13.4, 8.7, 4.96, 2.12 (columns) at theta = 0.3, 0.5, 0.7, 0.9.
"""

import functools

import numpy as np

from rgsolve import (
    DenseMatrix,
    SelectionConfig,
    StopRule,
    cgls,
    CglsConfig,
    certify_run,
    flops_rgdc,
    flops_rgdr,
    gen_randn,
    gen_smatrix,
    make_consistent,
    make_inconsistent,
    run_col_method,
    run_row_method,
)
from rgsolve.col_methods import rgdc_step
from rgsolve.row_methods import block_project_step, kaczmarz_step, rgdr_step
from rgsolve.selection import column_losses_from_y, relaxed_greedy_set, row_losses
from rgsolve.state import SolveState
from fdbk_reference import fdbk_iterates

THETAS = (0.3, 0.5, 0.7, 0.9)


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}")
                raise
            print(f"[PASS] criterion {num}: {desc}")
        return wrapper
    return decorate


def _fresh_row_state(a, x=None):
    return SolveState(x=np.zeros(a.n) if x is None else np.asarray(x, dtype=float).copy())


def _fresh_col_state(a, b, x=None):
    x = np.zeros(a.n) if x is None else np.asarray(x, dtype=float).copy()
    return SolveState(x=x, y=a.matvec_transpose(b - a.matvec(x)))


@criterion(1, "hand-trace exactness of RGDR(0.5) and RGDC(0.5)")
def test_criterion_01_hand_trace():
    a = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([1.0, 4.0])
    expected = [np.array([0.0, 2.0]), np.array([1.0, 2.0])]

    state = _fresh_row_state(a)
    for target in expected:
        r = b - a.matvec(state.x)
        rgdr_step(state, a, r, relaxed_greedy_set(row_losses(a, r), 0.5))
        assert np.abs(state.x - target).max() <= 1e-12

    state = _fresh_col_state(a, b)
    for target in expected:
        sel = relaxed_greedy_set(column_losses_from_y(a, state.y), 0.5)
        rgdc_step(state, a, sel)
        assert np.abs(state.x - target).max() <= 1e-12


@criterion(2, "projection orthogonality over 1000 random aggregate steps")
def test_criterion_02_projection_orthogonality():
    rng = np.random.default_rng(123)
    for trial in range(1000):
        a = DenseMatrix(np.random.default_rng(trial % 20).standard_normal((50, 20)))
        b = rng.standard_normal(50)
        theta = float(rng.choice(THETAS))

        state = _fresh_row_state(a, rng.standard_normal(20))
        r = b - a.matvec(state.x)
        sel = relaxed_greedy_set(row_losses(a, r), theta)
        eta = np.zeros(a.m)
        eta[sel] = r[sel]
        rgdr_step(state, a, r, sel)
        r = b - a.matvec(state.x)
        bound = 1e-10 * np.linalg.norm(eta) * np.linalg.norm(r)
        assert abs(float(eta @ r)) <= max(bound, 1e-30)

        state = _fresh_col_state(a, b, rng.standard_normal(20))
        sel = relaxed_greedy_set(column_losses_from_y(a, state.y), theta)
        xi = np.zeros(a.n)
        xi[sel] = state.y[sel]
        rgdc_step(state, a, sel)
        bound = 1e-10 * np.linalg.norm(xi) * np.linalg.norm(state.y)
        assert abs(float(xi @ state.y)) <= max(bound, 1e-30)


@criterion(3, "per-iteration contraction bounds hold for RGDR and RGDC")
def test_criterion_03_bound_certification():
    instances = []
    for seed in range(10):
        instances.append(gen_randn(100, 50, seed))
        instances.append(gen_smatrix(100, 50, 50, 1.25, 1.0, 100 + seed))
    for idx, a in enumerate(instances):
        inst = make_consistent(a, 1000 + idx)
        for theta in THETAS:
            row_report = run_row_method(
                "rgdr", a, inst.b, config=SelectionConfig(theta=theta),
                x_star=inst.x_star, record_steps=True)
            for cert in certify_run(row_report, a):
                assert cert.satisfied, (idx, theta, cert)
            col_report = run_col_method(
                "rgdc", a, inst.b, config=SelectionConfig(theta=theta),
                x_star=inst.x_star, record_steps=True)
            for cert in certify_run(col_report, a):
                assert cert.satisfied, (idx, theta, cert)


@criterion(4, "RGDR(0.5) matches the independently coded aggregate reference")
def test_criterion_04_reference_equivalence():
    for seed in (5, 17, 29):
        a = gen_randn(100, 50, seed)
        inst = make_consistent(a, 500 + seed)
        reference = fdbk_iterates(a.entries.copy(), inst.b.copy(), 200)
        state = _fresh_row_state(a)
        for k in range(200):
            r = inst.b - a.matvec(state.x)
            profile = row_losses(a, r)
            if profile.max_loss <= 0.0:
                x_mine = state.x
            else:
                sel = relaxed_greedy_set(profile, 0.5)
                rgdr_step(state, a, r, sel)
                x_mine = state.x
            assert np.abs(x_mine - reference[k]).max() <= 1e-12, (seed, k)


def _trend_data():
    """Mean iteration counts and mean selected-set sizes per (method, theta).

    The set size is averaged over every iteration of every seed; for RGRK and
    RGRCD it is the size of the relaxed greedy set the index is drawn from.
    """
    if not hasattr(_trend_data, "cache"):
        keys = [(m, t) for m in ("rgdr", "rgrk", "rgdc", "rgrcd") for t in THETAS]
        iterations = {key: [] for key in keys}
        set_sizes = {key: [] for key in keys}
        stop = StopRule(rse_tol=1e-4, max_iters=1_000_000)
        for seed in range(30):
            a = gen_randn(2000, 100, seed)
            inst = make_consistent(a, 20_000 + seed)
            for theta in THETAS:
                cfg = SelectionConfig(theta=theta)
                for method, run, rng_seed in (("rgdr", run_row_method, None),
                                              ("rgrk", run_row_method, seed),
                                              ("rgdc", run_col_method, None),
                                              ("rgrcd", run_col_method, seed)):
                    report = run(method, a, inst.b, config=cfg, stop=stop,
                                 x_star=inst.x_star, seed=rng_seed)
                    iterations[(method, theta)].append(report.iterations)
                    set_sizes[(method, theta)].extend(report.set_size_trace)
        _trend_data.cache = (
            {key: float(np.mean(vals)) for key, vals in iterations.items()},
            {key: float(np.mean(vals)) for key, vals in set_sizes.items()},
        )
    return _trend_data.cache


def _trend_failures(det_method, rand_method):
    """Where the deterministic aggregate method falls short of criterion 5(a)/(b).

    Requires mean IT(det) < mean IT(rand)/5 for theta <= 0.5, mean IT(det) <
    mean IT(rand) for every theta, and the ratio IT(rand)/IT(det) to decrease
    strictly along THETAS. Each failure names its theta with both means, the
    ratio and the deterministic method's mean selected-set size.
    """
    its, set_sizes = _trend_data()
    failures = []
    prev_ratio = None
    for theta in THETAS:
        det, rand = its[(det_method, theta)], its[(rand_method, theta)]
        ratio = rand / det
        broken = []
        if theta <= 0.5 and not det < rand / 5.0:
            broken.append("ratio < 5 at theta <= 0.5")
        if not det < rand:
            broken.append(f"{det_method.upper()} not faster")
        if prev_ratio is not None and not ratio < prev_ratio:
            broken.append(f"ratio not below {prev_ratio:.2f} at the previous theta")
        if broken:
            failures.append(
                f"theta={theta}: {det_method.upper()} {det:.1f} vs "
                f"{rand_method.upper()} {rand:.1f} (ratio {ratio:.2f}, "
                f"mean set size {set_sizes[(det_method, theta)]:.1f}): "
                + ", ".join(broken))
        prev_ratio = ratio
    return failures


@criterion(5, "(a) RGDR beats RGRK: 5x fewer iterations for theta <= 0.5, "
              "fewer at every theta, gap narrowing as theta grows (2000x100)")
def test_criterion_05a_row_trend():
    failures = _trend_failures("rgdr", "rgrk")
    assert not failures, "; ".join(failures)


@criterion(5, "(b) RGDC beats RGRCD: 5x fewer iterations for theta <= 0.5, "
              "fewer at every theta, gap narrowing as theta grows (2000x100)")
def test_criterion_05b_column_trend():
    failures = _trend_failures("rgdc", "rgrcd")
    assert not failures, "; ".join(failures)


@criterion(5, "(c) mean IT(RGDR) increases monotonically in theta")
def test_criterion_05c_monotone_in_theta():
    means, _ = _trend_data()
    its = [means[("rgdr", theta)] for theta in THETAS]
    assert all(b > a for a, b in zip(its, its[1:])), its


@criterion(6, "larger-scale spot check at 5000x300 lands in the expected windows")
def test_criterion_06_large_scale_spot_check():
    it_row, it_col = [], []
    cfg = SelectionConfig(theta=0.5)
    for seed in range(30):
        a = gen_randn(5000, 300, seed)
        inst = make_consistent(a, 60_000 + seed)
        it_row.append(run_row_method("rgdr", a, inst.b, config=cfg,
                                     x_star=inst.x_star).iterations)
        it_col.append(run_col_method("rgdc", a, inst.b, config=cfg,
                                     x_star=inst.x_star).iterations)
    mean_row = float(np.mean(it_row))
    mean_col = float(np.mean(it_col))
    assert 15.0 <= mean_row <= 45.0, mean_row
    assert 35.0 <= mean_col <= 75.0, mean_col


@criterion(7, "RGDC solves inconsistent systems and ignores null-space noise")
def test_criterion_07_inconsistent_least_squares():
    a = gen_smatrix(1000, 50, 50, 1.25, 1.0, 77)
    inst = make_inconsistent(a, 78, noise_scale=0.1)
    atb = np.linalg.norm(a.matvec_transpose(inst.b))
    for theta in THETAS:
        report = run_col_method("rgdc", a, inst.b, config=SelectionConfig(theta=theta),
                                x_star=inst.x_star)
        assert report.termination_reason == "converged", theta
        assert report.final_rse < 1e-4
        residual = inst.b - a.matvec(report.x_final)
        assert np.linalg.norm(a.matvec_transpose(residual)) <= 1e-3 * atb

    # iterates with and without the noise term coincide
    b_clean = a.matvec(inst.x_star)
    s_noisy = _fresh_col_state(a, inst.b)
    s_clean = _fresh_col_state(a, b_clean)
    for _ in range(150):
        p_noisy = column_losses_from_y(a, s_noisy.y)
        p_clean = column_losses_from_y(a, s_clean.y)
        if p_noisy.max_loss <= 0.0 or p_clean.max_loss <= 0.0:
            break
        sel_noisy = relaxed_greedy_set(p_noisy, 0.5)
        sel_clean = relaxed_greedy_set(p_clean, 0.5)
        np.testing.assert_array_equal(sel_noisy, sel_clean)
        rgdc_step(s_noisy, a, sel_noisy)
        rgdc_step(s_clean, a, sel_clean)
        assert np.abs(s_noisy.x - s_clean.x).max() <= 1e-10


@criterion(8, "loss identities and selection algebra over 500 random profiles")
def test_criterion_08_selection_algebra():
    rng = np.random.default_rng(88)
    for trial in range(500):
        a = DenseMatrix(np.random.default_rng(trial % 25).standard_normal((30, 10)))
        r = rng.standard_normal(30)
        profile = row_losses(a, r)
        r_sq = float(r @ r)
        assert abs(float(profile.losses @ a.row_sqnorms) - r_sq) <= 1e-10 * r_sq
        argmax = np.flatnonzero(profile.losses == profile.max_loss)
        theta_lo, theta_hi = sorted(rng.uniform(0.0, 1.0, size=2))
        set_lo = relaxed_greedy_set(profile, theta_lo)
        set_hi = relaxed_greedy_set(profile, theta_hi)
        assert np.isin(argmax, set_hi).all()
        assert set(set_hi).issubset(set(set_lo))
        np.testing.assert_array_equal(relaxed_greedy_set(profile, 1.0), argmax)


@criterion(9, "flop predictors reproduce the per-iteration cost formulas")
def test_criterion_09_flop_predictors():
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = int(rng.integers(1, 10_000))
        n = int(rng.integers(1, 1_000))
        s_row = int(rng.integers(1, m + 1))
        s_col = int(rng.integers(1, n + 1))
        expected_row = (2 * s_row + 1) * (m + n) + (s_row * (3 * s_row + 7)) // 2 + 4 * m + 2
        expected_col = (2 * s_col + 1) * n + (s_col * (3 * s_col + 11)) // 2 + 4 * n + 2
        assert flops_rgdr(m, n, s_row) == expected_row
        assert flops_rgdc(n, s_col) == expected_col


@criterion(10, "CGLS matches the SVD oracle; singleton block step equals the row step")
def test_criterion_10_subsolver_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m_arr = rng.standard_normal((40, 15))
        rhs = rng.standard_normal(40)
        w = cgls(m_arr, rhs, CglsConfig(rel_tol=1e-12))
        oracle = np.linalg.lstsq(m_arr, rhs, rcond=None)[0]
        scale = np.linalg.norm(oracle)
        assert np.linalg.norm(w - oracle) <= 1e-8 * max(scale, 1.0), seed

    rng = np.random.default_rng(1010)
    for _ in range(20):
        a = DenseMatrix(rng.standard_normal((12, 6)))
        b = rng.standard_normal(12)
        x = rng.standard_normal(6)
        i = int(rng.integers(a.m))
        s1 = _fresh_row_state(a, x)
        s2 = _fresh_row_state(a, x)
        block_project_step(s1, a, b, np.array([i]))
        kaczmarz_step(s2, a, float(b[i] - a.entries[i] @ x), i)
        assert np.abs(s1.x - s2.x).max() <= 1e-10
