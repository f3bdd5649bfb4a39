"""Per-index losses and every index-selection rule used by the solvers.

Row losses divide squared residual components by row norms; column losses do
the same for the correlations ``A.T @ r`` against column norms. The greedy
rules threshold those losses: the relaxed rule mixes the maximum loss with the
energy-weighted mean, the block-Kaczmarz rule scales the maximum alone, and
the max-distance rule admits columns within an absolute slack of the best
scaled correlation. A rule whose largest loss or distance is zero has
nothing left to select and returns an empty index array. All functions here
are pure and safe to call concurrently. They take validated inputs and check
nothing per call: float arrays of the right length, a matrix with no zero row
or column for the greedy rules, and parameters from a frozen
``SelectionConfig``, whose constructor checks them once. A greedy solve
refuses a zero row or column once, before its first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .linalg import DenseMatrix

# A loss counts as zero below 1e-14 times the largest one, or below this floor when
# that underflows.
_ZERO_TOL_FLOOR = 1e-300


@dataclass
class LossProfile:
    """Per-index losses with their energy-weighted mean; a loss below ``zero_tol`` counts
    as zero. ``squares`` are the squared residual or ``y`` entries that the losses divide
    by the squared norms, kept so that a randomized draw does not square them again."""

    losses: np.ndarray
    max_loss: float
    weighted_mean: float
    zero_tol: float
    squares: np.ndarray


@dataclass(frozen=True)
class SelectionConfig:
    """One parameter per selection rule: ``theta`` for rgrk/rgdr/rgrcd/rgdc (the paper's
    theta1 and theta2), ``eta1`` for gbk, ``eta2`` for amdcd, ``block_size`` for rbk/rbcd."""

    theta: float = 0.5
    eta1: float = 0.5
    eta2: float = 0.1
    block_size: int = 100

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise UsageError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 < self.eta1 <= 1.0:
            raise UsageError(f"eta1 must lie in (0, 1], got {self.eta1}")
        if not self.eta2 >= 0.0:  # also NaN
            raise UsageError(f"eta2 must be nonnegative, got {self.eta2}")
        _check_positive_int("block_size", self.block_size)


def _check_positive_int(name: str, value) -> None:
    """Raise UsageError unless ``value`` is a whole number of at least 1; NaN and
    inf fail before ``int()``, which would raise ValueError or OverflowError."""
    try:
        ok = math.isfinite(value) and value >= 1 and int(value) == value
    except TypeError:  # not a real number
        ok = False
    if not ok:
        raise UsageError(f"{name} must be a positive integer, got {value}")


def _make_profile(squares, sqnorms, weighted_mean: float) -> LossProfile:
    # Here and in the draw, ufunc reductions: ndarray.max/sum/cumsum without their dispatch cost.
    losses = squares / sqnorms
    max_loss = float(np.maximum.reduce(losses))
    zero_tol = max(1e-14 * max_loss, _ZERO_TOL_FLOOR)
    return LossProfile(losses, max_loss, weighted_mean, zero_tol, squares)


# The energy-weighted mean sum_i (||a_i||^2 / ||A||_F^2) (r_i^2 / ||a_i||^2) is
# ||r||^2 / ||A||_F^2, and likewise ||y||^2 / ||A||_F^2 over columns: one dot each.
def row_losses(a: DenseMatrix, r) -> LossProfile:
    """Loss profile over rows: squared residual over squared row norm."""
    return _make_profile(r * r, a.row_sqnorms, float(r.dot(r)) / a.frob_sq)


def column_losses_from_y(a: DenseMatrix, y) -> LossProfile:
    """Loss profile over columns from a precomputed ``y = A.T @ r``."""
    return _make_profile(y * y, a.col_sqnorms, float(y.dot(y)) / a.frob_sq)


def relaxed_greedy_set(profile: LossProfile, theta: float) -> np.ndarray:
    """Indices whose loss reaches theta * max + (1 - theta) * weighted mean.

    Comparison is >= exactly, with no numerical slack: threshold ties are
    included. The threshold is clamped to the maximum loss so rounding in the
    convex combination can never exclude the argmax.
    """
    if profile.max_loss <= 0.0:
        return np.empty(0, dtype=np.intp)
    threshold = theta * profile.max_loss + (1.0 - theta) * profile.weighted_mean
    threshold = min(threshold, profile.max_loss)
    return (profile.losses >= threshold).nonzero()[0]


def gbk_set(profile: LossProfile, eta1: float) -> np.ndarray:
    """Indices whose loss reaches eta1 times the maximum loss."""
    if profile.max_loss <= 0.0:
        return np.empty(0, dtype=np.intp)
    return (profile.losses >= eta1 * profile.max_loss).nonzero()[0]


def max_distance_set(a: DenseMatrix, y, eta2: float) -> np.ndarray:
    """Columns whose scaled correlation |y_j| / ||col_j|| is within eta2 of the best."""
    dist = np.abs(y) / np.sqrt(a.col_sqnorms)
    d_max = float(dist.max())
    if d_max <= 0.0:
        return np.empty(0, dtype=np.intp)
    return (d_max - dist <= eta2).nonzero()[0]


def _inverse_cdf_draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probabilities ``p`` (nonnegative, summing to one).

    This is numpy's own algorithm for ``rng.choice(p.size, p=p)``, without its
    argument checks: the same single ``rng.random()`` and the same inverse
    CDF, so it returns the same index and leaves the stream in the same state.
    """
    cdf = np.add.accumulate(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_by_square(squares: np.ndarray, indices: np.ndarray, rng: np.random.Generator) -> int:
    """One of ``indices``, drawn with probability proportional to ``squares[indices]``: for
    ``squares = v * v`` (``LossProfile.squares``) the draw over ``v[indices] ** 2``, bit for bit."""
    weights = squares[indices]
    return int(indices[_inverse_cdf_draw(weights / np.add.reduce(weights), rng)])


def make_partition(count: int, block_size: int) -> list[np.ndarray]:
    """Contiguous blocks of the given size over range(count), non-overlapping views of one
    ``np.arange(count)``; final block holds the remainder."""
    _check_positive_int("count", count)
    _check_positive_int("block_size", block_size)
    block_size = int(block_size)
    indices = np.arange(int(count))
    return [indices[lo:lo + block_size] for lo in range(0, len(indices), block_size)]
