import functools
import tracemalloc

import numpy as np
import pytest

from rgsolve import (
    DenseMatrix,
    SelectionConfig,
    SizeGuardError,
    StopRule,
    UsageError,
    certificates_to_csv,
    certify_randomized,
    certify_run,
    column_losses_from_y,
    flops_rgdc,
    flops_rgdr,
    gen_randn,
    gen_smatrix,
    make_consistent,
    relaxed_greedy_set,
    rgrcd_factor,
    rgrk_factor,
    row_losses,
    run_col_method,
    run_row_method,
    sigma_extremes,
    singular_values,
)
from rgsolve import theory
from rgsolve.theory import (
    BOUND_SLACK,
    _aggregate_factor,
    _set_energy_fractions,
    _subset_sigma_max,
)

DIAG = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])


def _zero_mass(sqnorms, profile):
    # The zero-loss mass as the solve loop records it: the norms under the below-tolerance mask.
    return float(sqnorms[profile.losses < profile.zero_tol].sum())


def _factor(a, row_kind, indices, profile, theta):
    """The per-step bound that certify_run checks, for a set chosen from ``profile``."""
    zero_mass = _zero_mass(a.row_sqnorms if row_kind else a.col_sqnorms, profile)
    energy_fraction = _set_energy_fractions(a, row_kind, [indices])[0]
    sigma_max_sub = _subset_sigma_max(a, row_kind, [indices])[0]
    return _aggregate_factor(a, energy_fraction, zero_mass, theta, sigma_extremes(a)[1],
                             sigma_max_sub)[0]


def _first_certificate(method, theta):
    # On DIAG with b = [1, 4] the first step selects index 1 alone at every theta,
    # with no zero-loss mass, so the bound is 1 - (4/5) * 1^2 / 2^2 = 0.8.
    run = run_row_method if method == "rgdr" else run_col_method
    report = run(method, DIAG, np.array([1.0, 4.0]), config=SelectionConfig(theta=theta),
                 x_star=np.array([1.0, 2.0]), record_steps=True)
    np.testing.assert_array_equal(report.step_records[0].indices, [1])
    return certify_run(report, DIAG)[0]


def test_rgdr_factor_hand():
    for theta in (0.0, 0.5, 1.0):
        assert abs(_first_certificate("rgdr", theta).factor_theoretical - 0.8) < 1e-12


def test_rgdr_factor_orthonormal_full_set_is_zero():
    a = DenseMatrix(np.eye(3))
    profile = row_losses(a, np.array([1.0, 1.0, 1.0]))
    factor = _factor(a, True, np.arange(3), profile, 0.5)
    assert abs(factor) < 1e-12


def test_rgdr_hand_ratio_below_factor():
    # one aggregate step on the hand instance contracts the squared error by 0.2
    x_star = np.array([1.0, 2.0])
    err0 = float(x_star @ x_star)  # start from zero
    x1 = np.array([0.0, 2.0])
    ratio = float((x1 - x_star) @ (x1 - x_star)) / err0
    assert abs(ratio - 0.2) < 1e-12
    assert ratio <= 0.8


def test_rgdc_factor_hand():
    for theta in (0.0, 0.7, 1.0):
        assert abs(_first_certificate("rgdc", theta).factor_theoretical - 0.8) < 1e-12


def test_rgdc_factor_full_set_equal_norm_orthogonal_columns():
    a = DenseMatrix(np.eye(4) * 2.0)
    y = a.matvec_transpose(np.array([1.0, 1.0, 1.0, 1.0]))
    profile = column_losses_from_y(a, y)
    factor = _factor(a, False, np.arange(4), profile, 0.5)
    smax, smin = sigma_extremes(a)
    expected = 1.0 - smin**2 * 4 / a.frob_sq
    assert abs(factor - expected) < 1e-12


def test_factors_stay_in_unit_interval():
    rng = np.random.default_rng(0)
    for seed in range(10):
        a = gen_randn(25, 8, seed)
        r = rng.standard_normal(25)
        profile = row_losses(a, r)
        sel = relaxed_greedy_set(profile, rng.uniform(0, 1))
        f = _factor(a, True, sel, profile, rng.uniform(0, 1))
        assert 0.0 <= f < 1.0
        y = a.matvec_transpose(r)
        cprofile = column_losses_from_y(a, y)
        csel = relaxed_greedy_set(cprofile, rng.uniform(0, 1))
        g = _factor(a, False, csel, cprofile, rng.uniform(0, 1))
        assert 0.0 <= g < 1.0


def test_rgrk_factor_identity_formula():
    a = DenseMatrix(np.eye(2))
    for theta in (0.0, 0.25, 0.5, 1.0):
        # total energy 2, worst-row slack 1: relaxation is 1 + theta
        expected = 1.0 - (1.0 + theta) / 2.0
        assert abs(rgrk_factor(a, theta) - expected) < 1e-12


def test_rgrk_factor_theta_zero_endpoint():
    for seed in range(5):
        a = gen_randn(20, 6, seed)
        _, smin = sigma_extremes(a)
        expected = 1.0 - smin**2 / a.frob_sq
        assert abs(rgrk_factor(a, 0.0) - expected) < 1e-10


def test_rgrcd_factor_mirrors_row_version_on_symmetric_matrix():
    a = DenseMatrix(np.eye(3) * 2.0)
    for theta in (0.1, 0.6):
        assert abs(rgrk_factor(a, theta) - rgrcd_factor(a, theta)) < 1e-14


def test_factor_monotone_in_theta():
    # larger theta gives a tighter (smaller) bound
    a = gen_randn(30, 6, 3)
    factors = [rgrk_factor(a, theta) for theta in np.linspace(0, 1, 6)]
    assert all(f2 <= f1 + 1e-14 for f1, f2 in zip(factors, factors[1:]))


def test_flops_hand_values():
    assert flops_rgdr(2, 2, 1) == 27
    assert flops_rgdc(2, 1) == 23


def test_flops_match_formula_on_random_triples():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(1, 5000))
        n = int(rng.integers(1, 500))
        s = int(rng.integers(1, m + 1))
        update_r = (2 * s + 1) * (m + n) + (s * (3 * s + 7)) // 2
        assert flops_rgdr(m, n, s) == update_r + 4 * m + 2
        sc = int(rng.integers(1, n + 1))
        update_c = (2 * sc + 1) * n + (sc * (3 * sc + 11)) // 2
        assert flops_rgdc(n, sc) == update_c + 4 * n + 2


def test_flops_monotone_in_set_size():
    values = [flops_rgdr(50, 20, s) for s in range(1, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_certify_hand_instance():
    report = run_row_method("rgdr", DIAG, np.array([1.0, 4.0]),
                            config=SelectionConfig(theta=0.5),
                            x_star=np.array([1.0, 2.0]), record_steps=True)
    certs = certify_run(report, DIAG)
    assert len(certs) == 2
    assert all(c.satisfied for c in certs)
    assert abs(certs[0].factor_theoretical - 0.8) < 1e-12
    assert abs(certs[0].ratio_measured - 0.2) < 1e-12


def test_certify_rgdr_random_instances():
    a = gen_randn(100, 50, 5)
    inst = make_consistent(a, 6)
    report = run_row_method("rgdr", a, inst.b, config=SelectionConfig(theta=0.5),
                            x_star=inst.x_star, record_steps=True)
    certs = certify_run(report, a)
    assert certs and all(c.satisfied for c in certs)
    assert all(0.0 <= c.factor_theoretical < 1.0 for c in certs)


def test_certify_rgdc_random_instances():
    a = gen_randn(100, 50, 7)
    inst = make_consistent(a, 8)
    report = run_col_method("rgdc", a, inst.b, config=SelectionConfig(theta=0.9),
                            x_star=inst.x_star, record_steps=True)
    certs = certify_run(report, a)
    assert certs and all(c.satisfied for c in certs)


def test_certify_requires_trace():
    report = run_row_method("rgdr", DIAG, np.array([1.0, 4.0]),
                            x_star=np.array([1.0, 2.0]))
    with pytest.raises(UsageError, match="record_steps"):
        certify_run(report, DIAG)


def test_certify_rejects_unsupported_method():
    a = gen_randn(20, 5, 1)
    inst = make_consistent(a, 2)
    report = run_row_method("rgrk", a, inst.b, x_star=inst.x_star, seed=0, record_steps=True)
    with pytest.raises(UsageError, match="per-step certificates exist only for rgdr and rgdc"):
        certify_run(report, a)


def test_certify_size_guard():
    a = gen_randn(600, 5, 1)
    inst = make_consistent(a, 2)
    report = run_row_method("rgdr", a, inst.b, x_star=inst.x_star, record_steps=True,
                            stop=StopRule(rse_tol=1e-2))
    with pytest.raises(SizeGuardError):
        certify_run(report, a)


def test_superiority_over_randomized_factor_per_step():
    # Unconditionally, the aggregate per-step bound is at most
    # 1 - relax_k * sigma_min^2 / ||A||_F^2 (the submatrix energy ratio is >= 1).
    # It drops below the randomized global bound whenever the zero-loss set
    # carries at least the worst row's energy, which is the premise under
    # which the relaxation weights compare; with an empty zero-loss set and a
    # singleton selection the comparison can fail by theta * min_energy / F^2.
    for seed in range(5):
        a = gen_randn(40, 12, seed)
        inst = make_consistent(a, seed + 60)
        theta = 0.5
        _, smin = sigma_extremes(a)
        global_factor = rgrk_factor(a, theta)
        min_energy = float(a.row_sqnorms.min())
        report = run_row_method("rgdr", a, inst.b, config=SelectionConfig(theta=theta),
                                x_star=inst.x_star, record_steps=True)
        for cert in certify_run(report, a):
            relax = cert.components["relaxation_factor"]
            assert cert.factor_theoretical <= 1.0 - relax * smin**2 / a.frob_sq + 1e-12
            if cert.components["zero_set_mass"] >= min_energy:
                assert cert.factor_theoretical <= global_factor + 1e-12


def test_superiority_holds_once_zero_loss_set_is_populated():
    # hand instance: after the first step one row loss is exactly zero, the
    # relaxation premise holds, and the per-step bound beats the global one
    a = DIAG
    b = np.array([1.0, 4.0])
    theta = 0.5
    report = run_row_method("rgdr", a, b, config=SelectionConfig(theta=theta),
                            x_star=np.array([1.0, 2.0]), record_steps=True)
    certs = certify_run(report, a)
    second = certs[1]
    assert second.components["zero_set_mass"] >= a.row_sqnorms.min()
    assert second.factor_theoretical <= rgrk_factor(a, theta) + 1e-12


def test_active_energy_bounds():
    rng = np.random.default_rng(70)
    for seed in range(10):
        a = gen_randn(25, 8, seed)
        r = rng.standard_normal(25)
        profile = row_losses(a, r)
        active = a.frob_sq - _zero_mass(a.row_sqnorms, profile)
        assert active <= a.frob_sq + 1e-12
        if profile.max_loss > 0:
            assert active >= a.row_sqnorms.max() - 1e-12


# Instances on which certify_run is checked against a per-step SVD of each selected set:
# name -> (matrix, theta). At theta = 0 the sets outgrow the other dimension: rgdr's row
# sets on 60x10 exceed n, and rgdc's column sets on the wide 40x120 (no Gram) exceed m.
ORACLE_CASES = {
    "randn": (lambda: gen_randn(80, 20, 5), 0.5),
    "smatrix_kappa_1e5": (lambda: gen_smatrix(100, 20, 20, 1e5, 1.0, 4), 0.5),
    "rank_deficient": (lambda: gen_smatrix(120, 30, 20, 10.0, 1.0, 4), 0.5),
    "wide": (lambda: gen_randn(40, 120, 3), 0.5),
    "wide_theta_0": (lambda: gen_randn(40, 120, 3), 0.0),
    "sets_exceed_n": (lambda: gen_randn(60, 10, 5), 0.0),
}


@functools.cache
def _oracle_run(case, method):
    make, theta = ORACLE_CASES[case]
    a = make()
    inst = make_consistent(a, 11)
    run = run_row_method if method == "rgdr" else run_col_method
    report = run(method, a, inst.b, config=SelectionConfig(theta=theta), x_star=inst.x_star,
                 record_steps=True, stop=StopRule(rse_tol=1e-8, max_iters=2000))
    return report, a


def _svd_certificates(report, a):
    """(factor, satisfied, components) per step, with sigma_max(A_S) from the SVD of A_S."""
    row_kind = report.method == "rgdr"
    sqnorms = a.row_sqnorms if row_kind else a.col_sqnorms
    sigma_min = sigma_extremes(a)[1]
    out = []
    for rec in report.step_records:
        sub = a.entries[rec.indices] if row_kind else a.entries[:, rec.indices]
        fraction = float(sqnorms[rec.indices].sum()) / a.frob_sq
        factor, components = _aggregate_factor(
            a, fraction, rec.zero_mass, report.params["theta"], sigma_min,
            float(singular_values(sub)[0]),
        )
        ratio = rec.err_sq_after / rec.err_sq_before if rec.err_sq_before > 0.0 else 0.0
        out.append((factor, ratio <= factor + BOUND_SLACK, components))
    return out


@pytest.mark.parametrize("method", ["rgdr", "rgdc"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_certify_run_matches_per_step_svd(case, method):
    report, a = _oracle_run(case, method)
    certs = certify_run(report, a)
    oracle = _svd_certificates(report, a)
    assert len(certs) == len(oracle) > 0
    for cert, (factor, satisfied, components) in zip(certs, oracle):
        assert abs(cert.factor_theoretical - factor) <= 1e-12
        assert cert.satisfied == satisfied
        got, want = cert.components["sigma_max_subset"], components["sigma_max_subset"]
        assert abs(got - want) <= 1e-13 * want
        for name in ("set_energy_fraction", "zero_set_mass", "relaxation_factor", "sigma_min"):
            assert cert.components[name] == components[name], name


@pytest.mark.parametrize("case, method, axis", [("sets_exceed_n", "rgdr", 1),
                                                ("wide_theta_0", "rgdc", 0)])
def test_oracle_cases_reach_sets_larger_than_the_other_dimension(case, method, axis):
    report, a = _oracle_run(case, method)
    assert max(len(rec.indices) for rec in report.step_records) > a.shape[axis]


@pytest.mark.parametrize("budget", [1, 700])
@pytest.mark.parametrize("case, method", [("smatrix_kappa_1e5", "rgdr"),
                                          ("rank_deficient", "rgdc"),
                                          ("wide_theta_0", "rgdc"),
                                          ("sets_exceed_n", "rgdr")])
def test_chunked_certificates_equal_unchunked(monkeypatch, case, method, budget):
    # A budget of one float stacks one set per eigensolve; 700 splits the groups unevenly.
    report, a = _oracle_run(case, method)
    whole = certify_run(report, a)
    monkeypatch.setattr(theory, "_STACK_FLOATS", budget)
    assert certify_run(report, a) == whole


def test_certify_memory_stays_within_a_few_matrices():
    # 8000 rgdr steps at theta = 1 on 512x512 each select one row, so all their sets
    # share one size: stacked at once, their rows would take over 15 times A's bytes.
    # The 2^20-float chunk budget is 4 times A here.
    a = gen_randn(512, 512, 8)
    inst = make_consistent(a, 9)
    report = run_row_method("rgdr", a, inst.b, config=SelectionConfig(theta=1.0),
                            x_star=inst.x_star, record_steps=True,
                            stop=StopRule(rse_tol=1e-12, max_iters=8000))
    limit = 5 * a.entries.nbytes
    assert sum(len(rec.indices) * (a.n + 1) for rec in report.step_records) * 8 > 3 * limit
    tracemalloc.start()
    try:
        certs = certify_run(report, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(certs) == 8000 and all(c.satisfied for c in certs)
    assert peak < limit


def test_randomized_certification_rgrk():
    a = gen_randn(60, 20, 11)
    inst = make_consistent(a, 12)
    reports = [
        run_row_method("rgrk", a, inst.b, config=SelectionConfig(theta=0.5),
                       x_star=inst.x_star, seed=seed, record_steps=True)
        for seed in range(30)
    ]
    aggregate = certify_randomized(reports, a)
    assert aggregate.runs == 30
    assert aggregate.satisfied
    assert aggregate.mean_contraction <= aggregate.factor + 3 * aggregate.std_error


def test_randomized_certification_rgrcd():
    a = gen_randn(60, 20, 13)
    inst = make_consistent(a, 14)
    reports = [
        run_col_method("rgrcd", a, inst.b, config=SelectionConfig(theta=0.5),
                       x_star=inst.x_star, seed=seed, record_steps=True)
        for seed in range(30)
    ]
    aggregate = certify_randomized(reports, a)
    assert aggregate.satisfied


def test_certificates_csv_format(tmp_path):
    report = run_row_method("rgdr", DIAG, np.array([1.0, 4.0]),
                            x_star=np.array([1.0, 2.0]), record_steps=True)
    certs = certify_run(report, DIAG)
    path = tmp_path / "certs.csv"
    certificates_to_csv(certs, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("k,factor,ratio,satisfied,")
    assert len(lines) == 1 + len(certs)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert abs(float(first[1]) - 0.8) < 1e-12
