"""Self-contained reference for the randomized relaxed greedy methods RGRK and RGRCD.

Kept independent of the package on purpose: it works from raw arrays, forms
``r = b - A x`` (and, for the column method, ``y = A.T r``) afresh at every
step, keeps no Gram and no cache, re-derives the relaxed greedy threshold
``theta * max + (1 - theta) * (energy-weighted mean)`` from the paper, and
draws from the selected set with ``Generator.choice`` itself. A step starts
from any iterate, so tests compare the solvers against it one step at a
time, with a twin generator in the same state as the solver's.
"""

import numpy as np


def relaxed_greedy_set(losses: np.ndarray, energy: np.ndarray, theta: float) -> np.ndarray:
    """Indices whose loss reaches ``theta * max + (1 - theta) * sum(energy * losses) /
    sum(energy)``, with ``energy`` the squared row or column norms. In exact arithmetic the
    threshold is at most the maximum loss, so it is clamped there: rounding cannot drop
    the argmax."""
    top = losses.max()
    threshold = theta * top + (1.0 - theta) * float(energy @ losses) / energy.sum()
    return np.flatnonzero(losses >= min(threshold, top))


def _draw(candidates: np.ndarray, v: np.ndarray, rng: np.random.Generator) -> int:
    """One of ``candidates``, with probability proportional to ``v[candidates] ** 2``."""
    w = v[candidates] ** 2
    return int(candidates[rng.choice(len(candidates), p=w / w.sum())])


def rgrk_step(a: np.ndarray, b: np.ndarray, x: np.ndarray, theta: float,
              rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """One RGRK step from ``x``: the row drawn and the projection of ``x`` onto its
    hyperplane."""
    r = b - a @ x
    row_sq = (a * a).sum(axis=1)
    i = _draw(relaxed_greedy_set(r * r / row_sq, row_sq, theta), r, rng)
    return i, x + r[i] / row_sq[i] * a[i]


def rgrcd_step(a: np.ndarray, b: np.ndarray, x: np.ndarray, theta: float,
               rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """One RGRCD step from ``x``: the coordinate drawn and ``x`` with the residual
    minimized along it."""
    y = a.T @ (b - a @ x)
    col_sq = (a * a).sum(axis=0)
    j = _draw(relaxed_greedy_set(y * y / col_sq, col_sq, theta), y, rng)
    x = x.copy()
    x[j] += y[j] / col_sq[j]
    return j, x
