from dataclasses import FrozenInstanceError, fields

import pytest

import rgsolve
from rgsolve import errors, selection
from rgsolve import (COL_METHODS, ROW_METHODS, CglsConfig, SelectionConfig, StopRule, gen_randn,
                     gen_smatrix, make_consistent, make_inconsistent, run_col_method,
                     run_row_method)
from rgsolve.cli import build_parser
from rgsolve.state import TERMINATION_REASONS, SolveState

PUBLIC_NAMES = [
    "AggregateCertificate", "BoundCertificate", "COL_METHODS", "CglsConfig",
    "DegenerateStepError", "DenseMatrix", "GenerationError", "ProblemInstance",
    "ROW_METHODS", "RgsolveError", "SelectionConfig", "SizeGuardError", "SolveReport",
    "StopRule", "SubsolverError", "UsageError", "certificates_to_csv",
    "certify_randomized", "certify_run", "cgls", "flops_rgdc", "flops_rgdr", "gen_randn",
    "gen_smatrix", "load_instance", "make_consistent", "make_inconsistent", "read_matrix",
    "read_vector", "rgrcd_factor", "rgrk_factor", "run_col_method", "run_row_method",
    "save_instance", "sigma_extremes", "singular_values", "write_matrix", "write_vector",
]

# The selection layer lives in rgsolve.selection (and is imported by the method modules);
# selection and rgdr_step report that they have nothing to do by their return values.
DROPPED_NAMES = [
    "ConvergedSignal", "LossProfile", "row_losses", "column_losses_from_y",
    "relaxed_greedy_set", "gbk_set", "max_distance_set", "make_partition",
]


def test_public_names_are_pinned_and_resolve():
    # Step functions and SolveState are internals of rgsolve.row_methods, col_methods and state.
    assert sorted(rgsolve.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(rgsolve.__all__)) == len(rgsolve.__all__) == 38
    for name in rgsolve.__all__:
        assert getattr(rgsolve, name) is not None, name
    for name in DROPPED_NAMES:
        assert not hasattr(rgsolve, name), name
    for name in DROPPED_NAMES[1:]:
        assert callable(getattr(selection, name)), name
    assert not hasattr(errors, "ConvergedSignal") and not hasattr(errors, "StalledError")


def test_each_knob_has_one_name():
    assert [f.name for f in fields(SelectionConfig)] == ["theta", "eta1", "eta2", "block_size"]
    assert [f.name for f in fields(StopRule)] == ["rse_tol", "max_iters"]


def test_solve_state_carries_no_residual():
    # Only the column methods carry a vector (y) by recursion; the row methods form r.
    assert [f.name for f in fields(SolveState)] == ["x", "y", "k"]


@pytest.mark.parametrize("method", ROW_METHODS + COL_METHODS)
def test_reported_params_are_selection_config_fields(method):
    inst = make_consistent(gen_randn(30, 6, 1), 2)
    run = run_row_method if method in ROW_METHODS else run_col_method
    report = run(method, inst.A, inst.b, x_star=inst.x_star, seed=0,
                 config=SelectionConfig(block_size=3), stop=StopRule(max_iters=5))
    assert set(report.params) <= {f.name for f in fields(SelectionConfig)}
    assert report.params == {name: getattr(SelectionConfig(block_size=3), name)
                             for name in report.params}


def test_every_termination_reason_is_listed_and_reached():
    instances = {
        "consistent": make_consistent(gen_randn(40, 8, 5), 6),
        # Row methods stall on a noisy right-hand side.
        "inconsistent": make_inconsistent(gen_randn(40, 8, 1), 2),
        # Column methods reach a least-squares point that is not the least-norm x*.
        "rank-deficient": make_consistent(gen_smatrix(30, 10, 4, 2.0, 1.0, 3), 4),
    }
    reasons = {}
    for case, inst in instances.items():
        for method in ROW_METHODS + COL_METHODS:
            run = run_row_method if method in ROW_METHODS else run_col_method
            for cap in (2, 2000):
                report = run(method, inst.A, inst.b, x_star=inst.x_star, seed=0,
                             config=SelectionConfig(block_size=3), stop=StopRule(1e-6, cap))
                reasons[case, method, cap] = report.termination_reason
    assert set(reasons.values()) <= set(TERMINATION_REASONS)
    assert reasons["consistent", "rgdr", 2000] == "converged"
    assert reasons["consistent", "rgdr", 2] == "max_iters"
    assert reasons["inconsistent", "kaczmarz", 2000] == "stalled"
    assert reasons["rank-deficient", "cd", 2000] == "stationary"


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_run_commands_take_a_flag_for_every_config_field(command):
    flags = []
    for f in fields(SelectionConfig):
        flags += ["--" + f.name.replace("_", "-"), "1"]
    args = build_parser().parse_args([command, "p", "--method", "rgdr", "--out", "o", *flags])
    assert all(getattr(args, f.name) == 1 for f in fields(SelectionConfig))


@pytest.mark.parametrize("config", [StopRule(), CglsConfig(), CglsConfig(max_iters=7)])
def test_stop_rule_and_cgls_config_are_frozen(config):
    # Their constructors' checks hold for their whole life: a solve reads the fields as
    # checked once, so a NaN tolerance or a negative cap cannot be set afterwards.
    before = [getattr(config, f.name) for f in fields(config)]
    for f, bad in zip(fields(config), (float("nan"), -5)):
        with pytest.raises(FrozenInstanceError):
            setattr(config, f.name, bad)
    assert [getattr(config, f.name) for f in fields(config)] == before
