import functools
import sys
import threading
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
    flops_rgdc,
    flops_rgdr,
    gen_randn,
    gen_smatrix,
    make_consistent,
    rgrcd_factor,
    rgrk_factor,
    run_col_method,
    run_row_method,
    sigma_extremes,
    singular_values,
)
from rgsolve import theory
from rgsolve.mmio import write_csv
from rgsolve.selection import column_losses_from_y, relaxed_greedy_set, row_losses
from rgsolve.theory import BOUND_SLACK, _aggregate_factor, _set_spectra

DIAG = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])


def _zero_mass(sqnorms, profile):
    # The zero-loss mass as the solve loop records it: the norms under the below-tolerance mask.
    return float(sqnorms[profile.losses < profile.zero_tol].sum())


def _factor(a, row_kind, indices, profile, theta):
    """The per-step bound that certify_run checks, for a set chosen from ``profile``."""
    zero_mass = _zero_mass(a.row_sqnorms if row_kind else a.col_sqnorms, profile)
    (energy_fraction,), (sigma_max_sub,) = _set_spectra(a, row_kind, [indices])
    return _aggregate_factor(a, energy_fraction, zero_mass, theta, sigma_extremes(a)[1],
                             sigma_max_sub)[0]


def _first_certificate(method, theta):
    # On DIAG with b = [1, 4] the first step selects index 1 alone at every theta,
    # with no zero-loss mass, so the bound is 1 - (4/5) * 1^2 / 2^2 = 0.8.
    run = run_row_method if method == "rgdr" else run_col_method
    report = run(method, DIAG, np.array([1.0, 4.0]), config=SelectionConfig(theta=theta),
                 x_star=np.array([1.0, 2.0]), record_steps=True)
    np.testing.assert_array_equal(report.step_indices[0], [1])
    return next(iter(certify_run(report, DIAG)))


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
    certs = list(certify_run(report, DIAG))
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


def test_certify_run_refuses_a_report_from_another_shape():
    # Certified against another matrix, a report would get certificates computed from that
    # matrix's spectra and norms; the shape check refuses it unless the shapes agree.
    a = gen_randn(100, 20, 1)
    inst = make_consistent(a, 2)
    for method, run in (("rgdr", run_row_method), ("rgdc", run_col_method)):
        report = run(method, a, inst.b, x_star=inst.x_star, record_steps=True)
        assert all(c.satisfied for c in certify_run(report, a))
        for other in (gen_randn(100, 30, 5), gen_randn(100, 10, 5)):
            with pytest.raises(UsageError, match=f"^the report does not come from a run on "
                                                 f"this 100x{other.n} instance$"):
                certify_run(report, other)
    # rgdr's x_final has the right length for 60x20, but it records rows past 59.
    report = run_row_method("rgdr", a, inst.b, x_star=inst.x_star, record_steps=True)
    assert max(int(indices.max()) for indices in report.step_indices) >= 60
    with pytest.raises(UsageError, match="^the report does not come from a run on this 60x20"):
        certify_run(report, gen_randn(60, 20, 5))
    report.step_indices[0] = np.array([-1])
    with pytest.raises(UsageError, match="^the report does not come from a run on this 100x20"):
        certify_run(report, a)


def test_certification_refuses_min_dimension_above_512_before_any_svd(monkeypatch):
    # A few recorded steps on 513x513, then certification: the guard of singular_values,
    # min(m, n) <= 512, refuses it before any set is gathered and before any SVD runs.
    rng = np.random.default_rng(3)
    a = DenseMatrix(rng.standard_normal((513, 513)))
    x_star = rng.standard_normal(513)
    b = a.matvec(x_star)
    stop = StopRule(rse_tol=1e-12, max_iters=2)
    steps = [run(method, a, b, x_star=x_star, record_steps=True, stop=stop)
             for method, run in (("rgdr", run_row_method), ("rgdc", run_col_method))]
    stats = [[run(method, a, b, x_star=x_star, seed=seed, record_steps=True, stop=stop)
              for seed in (1, 2)]
             for method, run in (("rgrk", run_row_method), ("rgrcd", run_col_method))]
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(theory, "_set_spectra", lambda *args: calls.append(args))
    for report in steps:
        with pytest.raises(SizeGuardError, match=r"min\(m, n\) = 513"):
            certify_run(report, a)
    for reports in stats:
        with pytest.raises(SizeGuardError, match=r"min\(m, n\) = 513"):
            certify_randomized(reports, a)
    assert calls == []


def test_tall_instance_beyond_512_rows_is_certified():
    # 600x5, the shape that certification refused while it guarded max(m, n) <= 512.
    a = gen_randn(600, 5, 1)
    inst = make_consistent(a, 2)
    for method, run in (("rgdr", run_row_method), ("rgdc", run_col_method)):
        report = run(method, a, inst.b, x_star=inst.x_star, record_steps=True)
        certs = certify_run(report, a)
        assert report.termination_reason == "converged" and len(certs) > 0
        assert certs.satisfied.all(), method
    for method, run in (("rgrk", run_row_method), ("rgrcd", run_col_method)):
        reports = [run(method, a, inst.b, x_star=inst.x_star, seed=seed, record_steps=True)
                   for seed in range(30)]
        cert = certify_randomized(reports, a)
        assert cert.runs == 30 and cert.satisfied, cert


def test_wide_instance_beyond_512_columns_is_certified_without_a_gram():
    # 20x600: rgdc certifies from gathered columns, as no Gram is kept when n > m. It meets
    # b away from the minimum-norm x*, so it stops stationary, with every step certified.
    a = gen_randn(20, 600, 4)
    inst = make_consistent(a, 5)
    report = run_col_method("rgdc", a, inst.b, x_star=inst.x_star, record_steps=True)
    certs = certify_run(report, a)
    assert a.gram is None
    assert report.termination_reason == "stationary" and len(certs) > 0
    assert certs.satisfied.all()


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
    second = list(certify_run(report, a))[1]
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
    errs = report.step_err_sq.tolist()
    for indices, zero_mass, before, after in zip(report.step_indices,
                                                 report.step_zero_mass.tolist(), errs, errs[1:]):
        sub = a.entries[indices] if row_kind else a.entries[:, indices]
        fraction = float(sqnorms[indices].sum()) / a.frob_sq
        factor, components = _aggregate_factor(
            a, fraction, zero_mass, report.params["theta"], sigma_min,
            float(singular_values(sub)[0]),
        )
        ratio = after / before if before > 0.0 else 0.0
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
    assert max(len(indices) for indices in report.step_indices) > a.shape[axis]


@pytest.mark.parametrize("budget", [1, 700])
@pytest.mark.parametrize("case, method", [("smatrix_kappa_1e5", "rgdr"),
                                          ("rank_deficient", "rgdc"),
                                          ("wide_theta_0", "rgdc"),
                                          ("sets_exceed_n", "rgdr")])
def test_chunked_certificates_equal_unchunked(monkeypatch, case, method, budget):
    # A budget of one float stacks one set per eigensolve; 700 splits the groups unevenly.
    report, a = _oracle_run(case, method)
    whole = list(certify_run(report, a))
    monkeypatch.setattr(theory, "_STACK_FLOATS", budget)
    assert list(certify_run(report, a)) == whole


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
    assert sum(len(indices) * (a.n + 1) for indices in report.step_indices) * 8 > 3 * limit
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


@pytest.mark.parametrize("method", ["rgrk", "rgrcd"])
def test_randomized_certification_skips_a_run_started_at_x_star(method):
    a = gen_randn(60, 20, 11)
    inst = make_consistent(a, 12)
    run = run_row_method if method == "rgrk" else run_col_method
    reports = [
        run(method, a, inst.b, config=SelectionConfig(theta=0.5), x_star=inst.x_star,
            x0=inst.x_star if seed == 0 else None, seed=seed, record_steps=True)
        for seed in range(4)
    ]
    assert reports[0].iterations == 0 and reports[0].err_sq_ends == (0.0, 0.0)
    aggregate = certify_randomized(reports, a)
    assert aggregate.runs == 3
    assert aggregate == certify_randomized(reports[1:], a)


def _rgrk_runs(a, inst, theta, seeds, record_steps=True):
    return [run_row_method("rgrk", a, inst.b, config=SelectionConfig(theta=theta),
                           x_star=inst.x_star, seed=seed, record_steps=record_steps)
            for seed in seeds]


def test_randomized_certification_refuses_runs_at_other_parameters():
    a = gen_randn(100, 20, 1)
    inst = make_consistent(a, 2)
    reports = _rgrk_runs(a, inst, 1.0, range(3)) + _rgrk_runs(a, inst, 0.1, range(3, 6))
    with pytest.raises(UsageError, match="^all reports must come from runs with the same "
                                         "parameters$"):
        certify_randomized(reports, a)
    assert certify_randomized(reports[:3], a).theta == 1.0


def test_randomized_certification_refuses_runs_on_another_instance():
    a = gen_randn(100, 20, 1)
    reports = _rgrk_runs(a, make_consistent(a, 2), 0.5, range(3))
    for other in (gen_randn(100, 21, 1), gen_randn(100, 19, 1)):
        with pytest.raises(UsageError, match=f"^all reports must come from runs on an "
                                             f"instance with n = {other.n}$"):
            certify_randomized(reports, other)


def test_randomized_certification_requires_recorded_runs():
    a = gen_randn(60, 20, 11)
    inst = make_consistent(a, 12)
    reports = _rgrk_runs(a, inst, 0.5, range(3))
    reports[1] = _rgrk_runs(a, inst, 0.5, [1], record_steps=False)[0]
    with pytest.raises(UsageError, match="record_steps"):
        certify_randomized(reports, a)


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


# The per-step certify instances of CI (consistent right-hand sides from the next seed, as
# ``rgsolve gen`` draws them) at CLI defaults, and a theta = 1 run whose later steps all have
# a nonempty zero-loss set: name -> (matrix, theta).
CSV_CASES = {
    "randn_200x50": (lambda: gen_randn(200, 50, 1), 0.5),
    "smatrix_120x30_r20": (lambda: gen_smatrix(120, 30, 20, 10.0, 1.0, 4), 0.5),
    "randn_40x120": (lambda: gen_randn(40, 120, 3), 0.5),
    "zero_sets_theta_1": (lambda: gen_randn(200, 50, 5), 1.0),
}
CSV_SEEDS = {"randn_200x50": 1, "smatrix_120x30_r20": 4, "randn_40x120": 3,
             "zero_sets_theta_1": 5}


def _scalar_csv(report, a, path):
    """certificates.csv written one step at a time: ``_aggregate_factor`` on Python floats
    and the ratio and verdict in Python, each float as its repr."""
    sigma_min = sigma_extremes(a)[1]
    energy, sigma_max_sub = _set_spectra(a, report.method == "rgdr", report.step_indices)
    errs = report.step_err_sq.tolist()
    rows = []
    for k, (fraction, zero_mass, sigma_max, before, after) in enumerate(zip(
            energy.tolist(), report.step_zero_mass.tolist(), sigma_max_sub.tolist(),
            errs, errs[1:])):
        factor, components = _aggregate_factor(a, fraction, zero_mass, report.params["theta"],
                                               sigma_min, sigma_max)
        factor = float(factor)
        # The bound as Python spells it, with ** (libm pow) for both squares.
        relax = float(components["relaxation_factor"])
        plain = 1.0 - relax * fraction * sigma_min**2 / sigma_max**2
        assert factor == (0.0 if -1e-9 < plain < 0.0 else plain)
        ratio = after / before if before > 0.0 else 0.0
        rows.append([k, repr(factor), repr(ratio), int(ratio <= factor + BOUND_SLACK),
                     *(repr(float(components[name])) for name in theory._COMPONENTS)])
    write_csv(path, ["k", "factor", "ratio", "satisfied", *theory._COMPONENTS], rows)


@pytest.mark.parametrize("method", ["rgdr", "rgdc"])
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_certificates_csv_equals_the_scalar_bound_byte_for_byte(tmp_path, case, method):
    make, theta = CSV_CASES[case]
    a = make()
    inst = make_consistent(a, CSV_SEEDS[case] + 1)
    run = run_row_method if method == "rgdr" else run_col_method
    report = run(method, a, inst.b, config=SelectionConfig(theta=theta), x_star=inst.x_star,
                 record_steps=True)
    if case == "zero_sets_theta_1":
        assert report.step_zero_mass[0] == 0.0 and report.step_zero_mass[1:].all()
    certificates_to_csv(certify_run(report, a), tmp_path / "columns.csv")
    _scalar_csv(report, a, tmp_path / "scalar.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "scalar.csv").read_bytes()


def test_vectorized_bound_squares_sigma_max_as_python_does():
    # numpy's ** multiplies, Python's calls libm pow; they can round an ulp apart, so the
    # vectorized bound must square each sigma_max(subset) as the per-step bound did.
    a = gen_randn(30, 10, 1)
    sigma_min = sigma_extremes(a)[1]
    rng = np.random.default_rng(4)
    sigma_max = sigma_min * (1.0 + 10.0 * rng.random(50_000))
    fraction = rng.random(sigma_max.size)
    factor = _aggregate_factor(a, fraction, np.zeros(sigma_max.size), 0.5, sigma_min,
                               sigma_max)[0]
    want = [1.0 - (0.5 * a.frob_sq / a.frob_sq + 0.5) * f * sigma_min**2 / s**2
            for f, s in zip(fraction.tolist(), sigma_max.tolist())]
    assert factor.tolist() == want


def test_certificates_are_columns_with_row_views():
    # What `rgsolve certify` and the benchmark's certification job read: len(), and per row
    # k, factor_theoretical, ratio_measured, satisfied and the components.
    a = gen_randn(200, 50, 1)
    inst = make_consistent(a, 2)
    report = run_col_method("rgdc", a, inst.b, x_star=inst.x_star, record_steps=True)
    certs = certify_run(report, a)
    assert len(certs) == report.iterations > 0
    rows = list(certs)
    assert len(rows) == len(certs) and sum(not c.satisfied for c in certs) == 0
    for k, row in enumerate(rows):
        assert row.k == k and type(row.k) is int and type(row.satisfied) is bool
        assert row.factor_theoretical == certs.factor[k] and row.ratio_measured == certs.ratio[k]
        assert row.satisfied == certs.satisfied[k]
        assert list(row.components) == list(theory._COMPONENTS)
        for name, value in row.components.items():
            assert type(value) is float and value == certs.components[name][k] == \
                getattr(row, name)


def test_one_matrix_makes_one_svd_for_all_its_certifications(monkeypatch):
    a = gen_randn(200, 50, 1)
    inst = make_consistent(a, 2)
    step_reports = [run(method, a, inst.b, x_star=inst.x_star, record_steps=True)
                    for method, run in (("rgdr", run_row_method), ("rgdc", run_col_method))]
    stat_reports = [run(method, a, inst.b, x_star=inst.x_star, seed=seed, record_steps=True)
                    for method, run in (("rgrk", run_row_method), ("rgrcd", run_col_method))
                    for seed in range(3)]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    for report in step_reports:
        assert all(c.satisfied for c in certify_run(report, a))
    certify_randomized(stat_reports[:3], a)
    certify_randomized(stat_reports[3:], a)
    assert len(calls) == 1
    kept = a._sigma
    assert not kept.flags.writeable
    fresh = singular_values(a)
    assert len(calls) == 2 and kept.tobytes() == fresh.tobytes()
    assert sigma_extremes(a) == (float(fresh[0]), float(fresh[-1])) and len(calls) == 2


def test_concurrent_certifications_share_one_matrix():
    # Every thread may race to compute the matrix's singular values; each must see them whole.
    def reports(a):
        inst = make_consistent(a, 2)
        return [run(method, a, inst.b, x_star=inst.x_star, record_steps=True)
                for method, run in (("rgdr", run_row_method), ("rgdc", run_col_method))]

    def certify(a, report):
        return list(certify_run(report, a))

    fresh = gen_randn(120, 30, 7)
    serial = [certify(fresh, report) for report in reports(fresh)]
    a = gen_randn(120, 30, 7)
    shared = reports(a)
    results = [None] * 6

    def worker(i):
        results[i] = certify(a, shared[i % 2])

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
