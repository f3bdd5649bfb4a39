"""The randomized methods against ``paper_reference``, step for step over whole runs."""

import numpy as np
import pytest

from paper_reference import rgrcd_step, rgrk_step
from rgsolve import (
    SelectionConfig,
    StopRule,
    gen_randn,
    gen_smatrix,
    make_consistent,
    make_inconsistent,
    run_col_method,
    run_row_method,
)
from rgsolve import col_methods, row_methods

STEPS = 30
SEED = 5

INSTANCES = {
    "tall": lambda: make_consistent(gen_randn(120, 30, 61), 62),
    "rank-deficient": lambda: make_consistent(gen_smatrix(100, 40, 25, 10.0, 1.0, 63), 64),
    "inconsistent": lambda: make_inconsistent(gen_randn(120, 30, 65), 66),
}

# (library method, its single-index step that the draw feeds, the reference step)
METHODS = {
    "rgrk": (run_row_method, row_methods, "kaczmarz_step", rgrk_step),
    "rgrcd": (run_col_method, col_methods, "cd_step", rgrcd_step),
}


@pytest.mark.parametrize(("method", "instance"), [
    ("rgrk", "tall"), ("rgrk", "rank-deficient"),
    ("rgrcd", "tall"), ("rgrcd", "rank-deficient"), ("rgrcd", "inconsistent"),
])
@pytest.mark.parametrize("theta", [0.3, 0.8])
def test_randomized_draws_match_the_reference_at_every_step(monkeypatch, method, instance,
                                                            theta):
    inst = INSTANCES[instance]()
    run, module, name, reference_step = METHODS[method]
    steps = []
    library_step = getattr(module, name)

    def recording_step(state, a, *args):
        before = state.x.copy()
        library_step(state, a, *args)
        steps.append((args[-1], before, state.x.copy()))  # the index is the last argument

    monkeypatch.setattr(module, name, recording_step)
    report = run(method, inst.A, inst.b, config=SelectionConfig(theta=theta),
                 x_star=inst.x_star, seed=SEED, stop=StopRule(rse_tol=1e-300, max_iters=STEPS))
    assert report.iterations == STEPS and len(steps) == STEPS

    a = inst.A.entries
    sigma = np.linalg.svd(a, compute_uv=False)
    sigma = sigma[sigma > 1e-10 * sigma[0]]
    tol = 32.0 * np.finfo(float).eps * sigma[0] / sigma[-1]
    scale = max(np.linalg.norm(report.x_final), np.linalg.norm(inst.x_star))
    twin = np.random.default_rng(SEED)  # the solver's generator, drawn from in lockstep
    for k, (index, before, after) in enumerate(steps):
        expected_index, expected_after = reference_step(a, inst.b, before, theta, twin)
        assert index == expected_index, k
        assert np.linalg.norm(after - expected_after) <= tol * scale, k
