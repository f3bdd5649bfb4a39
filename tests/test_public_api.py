import rgsolve

PUBLIC_NAMES = [
    "AggregateCertificate", "BoundCertificate", "COL_METHODS", "CglsConfig", "ConvergedSignal",
    "DegenerateStepError", "DenseMatrix", "GenerationError", "LossProfile", "ProblemInstance",
    "ROW_METHODS", "RgsolveError", "SelectionConfig", "SizeGuardError", "SolveReport",
    "StalledError", "StepRecord", "StopRule", "SubsolverError", "UsageError", "as_vector",
    "certificates_to_csv", "certify_randomized", "certify_run", "cgls", "column_losses_from_y",
    "flops_rgdc", "flops_rgdr", "gbk_set", "gen_randn", "gen_smatrix", "load_instance",
    "make_consistent", "make_inconsistent", "make_partition", "max_distance_set",
    "orthonormalize_columns", "read_matrix", "read_vector", "relaxed_greedy_set", "rgdc_factor",
    "rgdr_factor", "rgrcd_factor", "rgrk_factor", "row_losses", "run_col_method",
    "run_row_method", "save_instance", "sigma_extremes", "singular_values", "write_matrix",
    "write_vector",
]


def test_public_names_are_pinned_and_resolve():
    # Step functions and SolveState are internals of rgsolve.row_methods, col_methods and state.
    assert sorted(rgsolve.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(rgsolve.__all__)) == len(rgsolve.__all__) == 52
    for name in rgsolve.__all__:
        assert getattr(rgsolve, name) is not None, name
