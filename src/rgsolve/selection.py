"""Per-index losses and every index-selection rule used by the solvers.

Row losses divide squared residual components by row norms; column losses do
the same for the correlations ``A.T @ r`` against column norms. The greedy
rules threshold those losses: the relaxed rule mixes the maximum loss with the
energy-weighted mean, the block-Kaczmarz rule scales the maximum alone, and
the max-distance rule admits columns within an absolute slack of the best
scaled correlation. All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergedSignal, UsageError
from .linalg import DenseMatrix

# Absolute floor for the loss-zero threshold when the relative default underflows.
_ZERO_TOL_FLOOR = 1e-300


@dataclass
class LossProfile:
    """Per-index losses with their energy-weighted mean and zero-loss bookkeeping."""

    kind: str  # "row" or "column"
    losses: np.ndarray
    max_loss: float
    weighted_mean: float
    zero_tol: float

    @cached_property
    def zero_set(self) -> np.ndarray:
        """Indices whose loss is below ``zero_tol``, found on first access."""
        return (self.losses < self.zero_tol).nonzero()[0]


@dataclass
class SelectionConfig:
    """Relaxation/threshold parameters and block sizes for the selection rules."""

    theta1: float = 0.5
    theta2: float = 0.5
    eta1: float = 0.5
    eta2: float = 0.1
    block_size: int = 100
    zero_tol: float | None = None  # None: 1e-14 * max_loss with a 1e-300 floor

    def __post_init__(self):
        if not 0.0 <= self.theta1 <= 1.0:
            raise UsageError(f"theta1 must lie in [0, 1], got {self.theta1}")
        if not 0.0 <= self.theta2 <= 1.0:
            raise UsageError(f"theta2 must lie in [0, 1], got {self.theta2}")
        if not 0.0 < self.eta1 <= 1.0:
            raise UsageError(f"eta1 must lie in (0, 1], got {self.eta1}")
        if self.eta2 < 0.0:
            raise UsageError(f"eta2 must be nonnegative, got {self.eta2}")
        if int(self.block_size) != self.block_size or self.block_size < 1:
            raise UsageError(f"block_size must be a positive integer, got {self.block_size}")
        if self.zero_tol is not None and self.zero_tol <= 0.0:
            raise UsageError(f"zero_tol must be positive when given, got {self.zero_tol}")


def _make_profile(kind, losses, weights, zero_tol) -> LossProfile:
    max_loss = float(losses.max())
    if zero_tol is None:
        zero_tol = max(1e-14 * max_loss, _ZERO_TOL_FLOOR)
    return LossProfile(kind, losses, max_loss, float(weights @ losses), zero_tol)


def row_losses(a: DenseMatrix, r, zero_tol: float | None = None) -> LossProfile:
    """Loss profile over rows: squared residual over squared row norm."""
    r = np.asarray(r, dtype=float)
    if r.shape != (a.m,):
        raise UsageError(f"residual must have length {a.m}, got shape {r.shape}")
    if a.zero_row is not None:
        raise UsageError(f"zero row {a.zero_row} unsupported by greedy selection")
    return _make_profile("row", r * r / a.row_sqnorms, a.row_weights, zero_tol)


def column_losses_from_y(a: DenseMatrix, y, zero_tol: float | None = None) -> LossProfile:
    """Loss profile over columns from a precomputed ``y = A.T @ r``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (a.n,):
        raise UsageError(f"y must have length {a.n}, got shape {y.shape}")
    if a.zero_col is not None:
        raise UsageError(f"zero column {a.zero_col} unsupported by greedy selection")
    return _make_profile("column", y * y / a.col_sqnorms, a.col_weights, zero_tol)


def relaxed_greedy_set(profile: LossProfile, theta: float) -> np.ndarray:
    """Indices whose loss reaches theta * max + (1 - theta) * weighted mean.

    Comparison is >= exactly, with no numerical slack: threshold ties are
    included. The threshold is clamped to the maximum loss so rounding in the
    convex combination can never exclude the argmax.
    """
    if not 0.0 <= theta <= 1.0:
        raise UsageError(f"theta must lie in [0, 1], got {theta}")
    if profile.max_loss <= 0.0:
        raise ConvergedSignal("all losses are zero; stop iterating instead of selecting")
    threshold = theta * profile.max_loss + (1.0 - theta) * profile.weighted_mean
    threshold = min(threshold, profile.max_loss)
    return (profile.losses >= threshold).nonzero()[0]


def gbk_set(profile: LossProfile, eta1: float) -> np.ndarray:
    """Indices whose loss reaches eta1 times the maximum loss."""
    if not 0.0 < eta1 <= 1.0:
        raise UsageError(f"eta1 must lie in (0, 1], got {eta1}")
    if profile.max_loss <= 0.0:
        raise ConvergedSignal("all losses are zero; stop iterating instead of selecting")
    threshold = min(eta1 * profile.max_loss, profile.max_loss)
    return (profile.losses >= threshold).nonzero()[0]


def max_distance_set(a: DenseMatrix, y, eta2: float) -> np.ndarray:
    """Columns whose scaled correlation |y_j| / ||col_j|| is within eta2 of the best."""
    if eta2 < 0.0:
        raise UsageError(f"eta2 must be nonnegative, got {eta2}")
    y = np.asarray(y, dtype=float)
    if y.shape != (a.n,):
        raise UsageError(f"y must have length {a.n}, got shape {y.shape}")
    if a.zero_col is not None:
        raise UsageError(f"zero column {a.zero_col} unsupported by greedy selection")
    dist = np.abs(y) / np.sqrt(a.col_sqnorms)
    d_max = float(dist.max())
    if d_max <= 0.0:
        raise ConvergedSignal("all distances are zero; stop iterating instead of selecting")
    return (d_max - dist <= eta2).nonzero()[0]


def _inverse_cdf_draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probabilities ``p`` (nonnegative, summing to one).

    This is numpy's own algorithm for ``rng.choice(p.size, p=p)``, without its
    argument checks: the same single ``rng.random()`` and the same inverse
    CDF, so it returns the same index and leaves the stream in the same state.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_by_square(v: np.ndarray, indices: np.ndarray, rng: np.random.Generator) -> int:
    """One of ``indices``, drawn with probability proportional to ``v[indices] ** 2``."""
    weights = v[indices] ** 2
    total = float(weights.sum())
    if total <= 0.0:
        raise UsageError("the vector restricted to the selected set is zero")
    return int(indices[_inverse_cdf_draw(weights / total, rng)])


def make_partition(count: int, block_size: int) -> list[np.ndarray]:
    """Contiguous blocks of the given size over range(count); final block holds the remainder."""
    if int(count) != count or count < 1:
        raise UsageError(f"count must be a positive integer, got {count}")
    if int(block_size) != block_size or block_size < 1:
        raise UsageError(f"block_size must be a positive integer, got {block_size}")
    count = int(count)
    block_size = int(block_size)
    return [np.arange(lo, min(lo + block_size, count)) for lo in range(0, count, block_size)]
