"""Per-iteration contraction bounds, flop-count predictors, and bound certification.

The deterministic aggregate methods admit a per-step bound on the squared
error ratio of the form

    1 - relax * (selected energy / total energy) * sigma_min(A)^2 / sigma_max(subset)^2

which is strictly below 1; ``relax`` mixes the relaxation parameter with the
energy not yet annihilated (indices of exactly-zero loss are excluded). The
randomized single-index methods satisfy the analogous bound only in
expectation with a global, step-independent factor, so those are certified
statistically over repeated seeded runs.

``sigma_min(A)`` comes from the singular values of the whole matrix, once per
run: a Gram eigenvalue would carry an error of about cond(A)^2 * eps there and
move the rank cutoff of rank-deficient matrices. ``sigma_max(subset)`` is the
square root of the largest eigenvalue of the set's Gram, the smaller of
``A_S A_S^T`` and ``A_S^T A_S`` (``G[S, S]`` from the cached Gram for column
sets). The Grams of all the run's sets of one size are stacked and eigensolved
in one call, in chunks of at most ``_STACK_FLOATS`` floats. Certification
refuses instances with a dimension above ``CERTIFY_DIM_LIMIT``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError, UsageError
# perfbench/tracer.py patches singular_values and sigma_extremes here by name, so both stay
# module attributes though only sigma_extremes is called.
from .linalg import DenseMatrix, sigma_extremes, singular_values  # noqa: F401
from .mmio import write_csv
from .state import STAT_CERTIFIED, STEP_CERTIFIED, SolveReport

# Certification requires full-matrix and per-step submatrix spectra; refuse
# instances where either dimension exceeds this.
CERTIFY_DIM_LIMIT = 512

# Absorbs floating-point zero-set detection and spectral error in bound checks.
BOUND_SLACK = 1e-8

# Floats that one chunk of stacked set Grams, with the rows or columns it gathers, may
# hold (8 MB): at 512x512, four times A's bytes, however long the run.
_STACK_FLOATS = 1 << 20


@dataclass
class BoundCertificate:
    """One iteration's theoretical contraction factor versus the measured ratio."""

    k: int
    factor_theoretical: float
    ratio_measured: float
    satisfied: bool
    components: dict


@dataclass
class AggregateCertificate:
    """Statistical certificate for a randomized method over repeated runs."""

    method: str
    theta: float
    factor: float
    mean_contraction: float
    std_error: float
    runs: int
    satisfied: bool


def _check_certify_size(a: DenseMatrix) -> None:
    if max(a.m, a.n) > CERTIFY_DIM_LIMIT:
        raise SizeGuardError(
            f"certification is limited to instances with both dimensions <= "
            f"{CERTIFY_DIM_LIMIT}; got {a.m}x{a.n}"
        )


def _clamp_factor(factor: float) -> float:
    # The bound is provably in [0, 1); tiny negatives are rounding artifacts.
    if -1e-9 < factor < 0.0:
        return 0.0
    return factor


def _relaxation(theta: float, frob_sq: float, active_energy: float) -> float:
    if active_energy <= 0.0:
        raise UsageError("all energy sits in the zero-loss set; nothing to bound")
    return theta * frob_sq / active_energy + (1.0 - theta)


def _aggregate_factor(a, energy_fraction, zero_mass, theta, sigma_min,
                      sigma_max_sub) -> tuple[float, dict]:
    """Per-step bound 1 - relax * (set energy / ||A||_F^2) * sigma_min^2 / sigma_max(subset)^2."""
    active_energy = a.frob_sq - zero_mass
    relax = _relaxation(theta, a.frob_sq, active_energy)
    factor = _clamp_factor(1.0 - relax * energy_fraction * sigma_min**2 / sigma_max_sub**2)
    return factor, {
        "relaxation_factor": relax,
        "active_energy": active_energy,
        "zero_set_mass": zero_mass,
        "sigma_min": sigma_min,
        "sigma_max_subset": sigma_max_sub,
        "set_energy_fraction": energy_fraction,
    }


def _set_stacks(index_sets, set_floats):
    """Yield ``(positions, stack)``: the sets of one size, stacked as a c x s index array,
    with their positions in ``index_sets``, in chunks of c sets that need at most
    ``_STACK_FLOATS`` floats at ``set_floats(s)`` each (one set when one needs more)."""
    groups = {}
    for i, indices in enumerate(index_sets):
        groups.setdefault(len(indices), []).append(i)
    for s, members in groups.items():
        chunk = max(1, _STACK_FLOATS // set_floats(s))
        for lo in range(0, len(members), chunk):
            positions = members[lo:lo + chunk]
            yield positions, np.array([index_sets[i] for i in positions])


def _set_energy_fractions(a, row_kind, index_sets) -> np.ndarray:
    """``||A_S||_F^2 / ||A||_F^2`` of each row (``row_kind``) or column set S."""
    sqnorms = a.row_sqnorms if row_kind else a.col_sqnorms
    energy = np.empty(len(index_sets))
    for positions, stack in _set_stacks(index_sets, lambda s: 2 * s):
        energy[positions] = sqnorms[stack].sum(axis=1)
    return energy / a.frob_sq


def _subset_sigma_max(a, row_kind, index_sets) -> np.ndarray:
    """``sigma_max(A_S)`` of each row (``row_kind``) or column set S: the square root of
    the largest eigenvalue of its Gram, which is at most min(s, other dimension) square."""
    entries = a.entries if row_kind else a.entries.T
    other = entries.shape[1]
    gram = None if row_kind else a.gram

    def set_floats(s):
        return s * s if gram is not None else s * other + min(s, other) ** 2

    def set_grams(stack):
        # A chunk's gathered sets are freed on return, before the next chunk is gathered.
        if gram is not None:
            return gram[stack[:, :, None], stack[:, None, :]]
        sub = entries[stack]  # c x s x other
        sub_t = sub.transpose(0, 2, 1)
        return sub @ sub_t if stack.shape[1] <= other else sub_t @ sub

    sigma = np.empty(len(index_sets))
    for positions, stack in _set_stacks(index_sets, set_floats):
        sigma[positions] = np.linalg.eigvalsh(set_grams(stack))[:, -1]
    return np.sqrt(sigma)


def _randomized_factor(a, theta, sqnorms, kind) -> float:
    """Global expected factor ``1 - relax * sigma_min^2 / ||A||_F^2`` of a randomized method."""
    if not 0.0 <= theta <= 1.0:
        raise UsageError(f"theta must lie in [0, 1], got {theta}")
    active = a.frob_sq - float(sqnorms.min())
    if active <= 0.0:
        raise UsageError(f"single-{kind} matrix admits no relaxed expected factor")
    relax = _relaxation(theta, a.frob_sq, active)
    return _clamp_factor(1.0 - relax * sigma_extremes(a)[1] ** 2 / a.frob_sq)


def rgrk_factor(a: DenseMatrix, theta: float) -> float:
    """Global expected contraction factor for the randomized row method."""
    return _randomized_factor(a, theta, a.row_sqnorms, "row")


def rgrcd_factor(a: DenseMatrix, theta: float) -> float:
    """Global expected contraction factor for the randomized coordinate method."""
    return _randomized_factor(a, theta, a.col_sqnorms, "column")


def flops_rgdr(m: int, n: int, set_size: int) -> int:
    """Flops for one aggregate row iteration: update cost plus selection cost."""
    if m < 1 or n < 1 or set_size < 1:
        raise UsageError("flop arguments must be positive")
    update = (2 * set_size + 1) * (m + n) + (set_size * (3 * set_size + 7)) // 2
    selection = 4 * m + 2
    return update + selection


def flops_rgdc(n: int, set_size: int) -> int:
    """Flops for one aggregate column iteration: update cost plus selection cost."""
    if n < 1 or set_size < 1:
        raise UsageError("flop arguments must be positive")
    update = (2 * set_size + 1) * n + (set_size * (3 * set_size + 11)) // 2
    selection = 4 * n + 2
    return update + selection


def certify_run(report: SolveReport, a: DenseMatrix) -> list[BoundCertificate]:
    """Check every recorded iteration of a deterministic aggregate run against its bound,
    at the run's ``params["theta"]``, with a ``BOUND_SLACK`` allowance."""
    if report.method not in STEP_CERTIFIED:
        raise UsageError(
            f"per-step certificates exist only for rgdr and rgdc, not {report.method!r}"
        )
    if report.step_records is None:
        raise UsageError("missing trace: rerun the solve with record_steps=True")
    _check_certify_size(a)
    theta = report.params.get("theta")
    if theta is None:
        raise UsageError("no relaxation parameter available for certification")
    sigma_min = sigma_extremes(a)[1]

    row_kind = report.method == "rgdr"
    index_sets = [rec.indices for rec in report.step_records]
    energy = _set_energy_fractions(a, row_kind, index_sets)
    sigma_max_sub = _subset_sigma_max(a, row_kind, index_sets)
    certificates = []
    for rec, fraction, sigma_max in zip(report.step_records, energy.tolist(),
                                        sigma_max_sub.tolist()):
        factor, components = _aggregate_factor(
            a, fraction, rec.zero_mass, theta, sigma_min, sigma_max
        )
        ratio = rec.err_sq_after / rec.err_sq_before if rec.err_sq_before > 0.0 else 0.0
        certificates.append(BoundCertificate(
            k=rec.k,
            factor_theoretical=factor,
            ratio_measured=ratio,
            satisfied=bool(ratio <= factor + BOUND_SLACK),
            components=components,
        ))
    return certificates


def certify_randomized(reports: list[SolveReport], a: DenseMatrix) -> AggregateCertificate:
    """Check repeated randomized runs against the expected contraction factor.

    Each run contributes its geometric-mean per-step squared-error ratio; the
    sample mean must not exceed the expected factor, at the ``theta`` in the
    first report's ``params``, by more than three standard errors. The bounds
    hold in expectation only, so at least two runs (ideally 30) are required.
    """
    if not reports:
        raise UsageError("no reports to certify")
    method = reports[0].method
    if method not in STAT_CERTIFIED:
        raise UsageError(
            f"statistical certificates exist only for rgrk and rgrcd, not {method!r}"
        )
    if any(rep.method != method for rep in reports):
        raise UsageError("all reports must come from the same method")
    if len(reports) < 2:
        raise UsageError("statistical certification needs at least two runs")
    _check_certify_size(a)
    theta = reports[0].params["theta"]
    factor = rgrk_factor(a, theta) if method == "rgrk" else rgrcd_factor(a, theta)

    contractions = []
    for rep in reports:
        if rep.step_records is None:
            raise UsageError("missing trace: rerun the solves with record_steps=True")
        if not rep.step_records:
            continue
        first = rep.step_records[0]
        last = rep.step_records[-1]
        if first.err_sq_before <= 0.0:
            continue
        overall = last.err_sq_after / first.err_sq_before
        contractions.append(overall ** (1.0 / len(rep.step_records)))
    if len(contractions) < 2:
        raise UsageError("not enough non-trivial runs for statistical certification")
    sample = np.array(contractions)
    mean = float(sample.mean())
    std_error = float(sample.std(ddof=1) / np.sqrt(sample.size))
    return AggregateCertificate(
        method=method,
        theta=float(theta),
        factor=factor,
        mean_contraction=mean,
        std_error=std_error,
        runs=int(sample.size),
        satisfied=bool(mean <= factor + 3.0 * std_error),
    )


_CSV_COMPONENTS = (
    "relaxation_factor",
    "active_energy",
    "zero_set_mass",
    "sigma_min",
    "sigma_max_subset",
    "set_energy_fraction",
)


def certificates_to_csv(certificates: list[BoundCertificate], path) -> None:
    """Write per-iteration certificates as CSV: k, factor, ratio, satisfied, components."""
    write_csv(path, ["k", "factor", "ratio", "satisfied", *_CSV_COMPONENTS], (
        [cert.k, repr(cert.factor_theoretical), repr(cert.ratio_measured), int(cert.satisfied),
         *(repr(float(cert.components[name])) for name in _CSV_COMPONENTS)]
        for cert in certificates
    ))
