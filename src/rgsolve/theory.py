"""Per-iteration contraction bounds, flop-count predictors, and bound certification.

The deterministic aggregate methods admit a per-step bound on the squared
error ratio of the form

    1 - relax * (selected energy / total energy) * sigma_min(A)^2 / sigma_max(subset)^2

which is strictly below 1; ``relax`` mixes the relaxation parameter with the
energy not yet annihilated (indices of exactly-zero loss are excluded). The
randomized single-index methods satisfy the analogous bound only in
expectation with a global, step-independent factor, so those are certified
statistically over repeated seeded runs.

``sigma_min(A)`` comes from the singular values that the matrix keeps from its
first certification: a Gram eigenvalue would carry an error of about cond(A)^2 * eps
there and move the rank cutoff of rank-deficient matrices. ``sigma_max(subset)`` is the
square root of the largest eigenvalue of the set's Gram, the smaller of
``A_S A_S^T`` and ``A_S^T A_S`` (``G[S, S]`` from the cached Gram for column
sets). The Grams of all the run's sets of one size are stacked and eigensolved
in one call, in chunks of at most ``_STACK_FLOATS`` floats, and every step's bound,
ratio and verdict comes from one pass over the run's step columns, as the columns of a
``StepCertificates``. The only size guard is that of ``linalg.singular_values``,
min(m, n) <= 512, reached through ``sigma_extremes`` before any set is gathered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UsageError
# perfbench/tracer.py patches singular_values and sigma_extremes here by name, so both stay
# module attributes though only sigma_extremes is called.
from .linalg import DenseMatrix, sigma_extremes, singular_values  # noqa: F401
from .mmio import write_csv
from .state import STAT_CERTIFIED, STEP_CERTIFIED, SolveReport

# Absorbs floating-point zero-set detection and spectral error in bound checks.
BOUND_SLACK = 1e-8

# Floats that one chunk of stacked set Grams, with the rows or columns it gathers, may
# hold (8 MB), however long the run; a set that needs more is gathered alone, and one
# set's gathered rows or columns are never more than A's.
_STACK_FLOATS = 1 << 20


class BoundCertificate(NamedTuple):
    """A row of ``StepCertificates``: one step's bound versus its measured ratio, with the
    bound's components as fields and as the ``components`` dict."""

    k: int
    factor_theoretical: float
    ratio_measured: float
    satisfied: bool
    relaxation_factor: float
    active_energy: float
    zero_set_mass: float
    sigma_min: float
    sigma_max_subset: float
    set_energy_fraction: float

    @property
    def components(self) -> dict:
        return dict(zip(_COMPONENTS, self[4:]))


_COMPONENTS = BoundCertificate._fields[4:]


@dataclass(eq=False)
class StepCertificates:
    """A run's certificates as columns of one entry per step: ``k``, ``factor``, ``ratio``,
    ``satisfied``, ``components`` (name to column); iterating yields ``BoundCertificate``s."""

    k: np.ndarray
    factor: np.ndarray
    ratio: np.ndarray
    satisfied: np.ndarray
    components: dict

    def __len__(self) -> int:
        return len(self.k)

    def __iter__(self):
        columns = (self.k, self.factor, self.ratio, self.satisfied,
                   *(self.components[name] for name in _COMPONENTS))
        return map(BoundCertificate._make, zip(*(column.tolist() for column in columns)))


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


def _clamp_factor(factor) -> np.ndarray:
    # The bound is provably in [0, 1); tiny negatives are rounding artifacts.
    return np.where((-1e-9 < factor) & (factor < 0.0), 0.0, factor)


def _relaxation(theta: float, frob_sq: float, active_energy):
    if np.any(active_energy <= 0.0):
        raise UsageError("all energy sits in the zero-loss set; nothing to bound")
    return theta * frob_sq / active_energy + (1.0 - theta)


def _aggregate_factor(a, energy_fraction, zero_mass, theta, sigma_min,
                      sigma_max_sub) -> tuple[np.ndarray, dict]:
    """Bound 1 - relax * (set energy / ||A||_F^2) * sigma_min^2 / sigma_max(subset)^2 of one
    step (floats) or of each step of a run (arrays), with its components."""
    active_energy = a.frob_sq - zero_mass
    relax = _relaxation(theta, a.frob_sq, active_energy)
    # Python's ** (libm pow), one value at a time: numpy's ** multiplies, an ulp apart at times.
    sub_sq = np.asarray(np.frompyfunc(pow, 2, 1)(sigma_max_sub, 2), dtype=float)
    factor = _clamp_factor(1.0 - relax * energy_fraction * sigma_min**2 / sub_sq)
    return factor, {
        "relaxation_factor": relax,
        "active_energy": active_energy,
        "zero_set_mass": zero_mass,
        "sigma_min": np.full(factor.shape, sigma_min),
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


def _set_spectra(a, row_kind, index_sets) -> tuple[np.ndarray, np.ndarray]:
    """``||A_S||_F^2 / ||A||_F^2`` and ``sigma_max(A_S)`` of each row (``row_kind``) or
    column set S, from one stacking of the sets. ``sigma_max`` is the square root of the
    largest eigenvalue of the set's Gram, which is at most min(s, other dimension) square."""
    sqnorms = a.row_sqnorms if row_kind else a.col_sqnorms
    entries = a.entries if row_kind else a.entries.T
    other = entries.shape[1]
    gram = None if row_kind else a.gram

    def set_floats(s):
        # The indices and their gathered norms, then the gathered rows or columns and Gram.
        return 2 * s + (s * s if gram is not None else s * other + min(s, other) ** 2)

    def set_grams(stack):
        # A chunk's gathered sets are freed on return, before the next chunk is gathered.
        if gram is not None:
            return gram[stack[:, :, None], stack[:, None, :]]
        sub = entries[stack]  # c x s x other
        sub_t = sub.transpose(0, 2, 1)
        return sub @ sub_t if stack.shape[1] <= other else sub_t @ sub

    energy = np.empty(len(index_sets))
    sigma = np.empty(len(index_sets))
    for positions, stack in _set_stacks(index_sets, set_floats):
        energy[positions] = sqnorms[stack].sum(axis=1)
        sigma[positions] = np.linalg.eigvalsh(set_grams(stack))[:, -1]
    return energy / a.frob_sq, np.sqrt(sigma)


def _randomized_factor(a, theta, sqnorms, kind) -> float:
    """Global expected factor ``1 - relax * sigma_min^2 / ||A||_F^2`` of a randomized method."""
    if not 0.0 <= theta <= 1.0:
        raise UsageError(f"theta must lie in [0, 1], got {theta}")
    active = a.frob_sq - float(sqnorms.min())
    if active <= 0.0:
        raise UsageError(f"single-{kind} matrix admits no relaxed expected factor")
    relax = _relaxation(theta, a.frob_sq, active)
    return float(_clamp_factor(1.0 - relax * sigma_extremes(a)[1] ** 2 / a.frob_sq))


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


def certify_run(report: SolveReport, a: DenseMatrix) -> StepCertificates:
    """Check every recorded iteration of a deterministic aggregate run against its bound,
    at the run's ``params["theta"]``, with a ``BOUND_SLACK`` allowance. Raises UsageError
    when ``x_final`` does not have ``a.n`` entries or a recorded index is out of range for
    its axis: one vectorized check per run, blind to another matrix of ``a``'s shape."""
    if report.method not in STEP_CERTIFIED:
        raise UsageError(
            f"per-step certificates exist only for rgdr and rgdc, not {report.method!r}"
        )
    if report.step_indices is None:
        raise UsageError("missing trace: rerun the solve with record_steps=True")
    theta = report.params.get("theta")
    if theta is None:
        raise UsageError("no relaxation parameter available for certification")
    row_kind = report.method == "rgdr"
    index_sets = report.step_indices
    flat = np.concatenate(index_sets) if index_sets else np.zeros(1, dtype=np.intp)
    if (report.x_final is None or len(report.x_final) != a.n
            or not 0 <= flat.min() <= flat.max() < (a.m if row_kind else a.n)):
        raise UsageError(f"the report does not come from a run on this {a.m}x{a.n} instance")
    sigma_min = sigma_extremes(a)[1]  # refuses min(m, n) > 512 before any set is gathered
    energy, sigma_max_sub = _set_spectra(a, row_kind, index_sets)
    factor, components = _aggregate_factor(a, energy, report.step_zero_mass, theta,
                                           sigma_min, sigma_max_sub)
    before, after = report.step_err_sq[:-1], report.step_err_sq[1:]
    ratio = np.divide(after, before, out=np.zeros(len(before)), where=before > 0.0)
    return StepCertificates(np.arange(len(ratio)), factor, ratio,
                            ratio <= factor + BOUND_SLACK, components)


def certify_randomized(reports: list[SolveReport], a: DenseMatrix) -> AggregateCertificate:
    """Check repeated randomized runs on ``a`` against the expected contraction factor.

    Each run contributes its geometric-mean per-step squared-error ratio, read from
    its ``err_sq_ends`` and ``iterations``; the sample mean must not exceed the
    expected factor, at the runs' common ``params["theta"]``, by more than three
    standard errors. The bounds hold in expectation only, so at least two runs
    (ideally 30) are required. Runs that took no step or started at x* are skipped.
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
    params = reports[0].params
    if any(rep.params != params for rep in reports):
        raise UsageError("all reports must come from runs with the same parameters")
    if any(rep.x_final is None or len(rep.x_final) != a.n for rep in reports):
        raise UsageError(f"all reports must come from runs on an instance with n = {a.n}")
    if len(reports) < 2:
        raise UsageError("statistical certification needs at least two runs")
    theta = params["theta"]
    factor = rgrk_factor(a, theta) if method == "rgrk" else rgrcd_factor(a, theta)

    contractions = []
    for rep in reports:
        if rep.err_sq_ends is None:
            raise UsageError("missing trace: rerun the solves with record_steps=True")
        start, end = rep.err_sq_ends
        if rep.iterations == 0 or start <= 0.0:
            continue
        contractions.append((end / start) ** (1.0 / rep.iterations))
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


def certificates_to_csv(certificates: StepCertificates, path) -> None:
    """Write a run's certificates as CSV: k, factor, ratio, satisfied, components."""
    c = certificates
    floats = [map(repr, column.tolist()) for column in
              (c.factor, c.ratio, *(c.components[name] for name in _COMPONENTS))]
    write_csv(path, ["k", "factor", "ratio", "satisfied", *_COMPONENTS],
              zip(c.k.tolist(), *floats[:2], c.satisfied.astype(int).tolist(), *floats[2:]))
