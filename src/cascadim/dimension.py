"""Multi-scale dimension estimators.

Box counting on interval sets and on the supports of atomic measures,
scaling entropy of atomic measures (all on the line), their log-log
regressions, and the shared least-squares helper.
Every estimator refuses to probe below the resolution of its input: below
that scale one would be measuring the discretization, not the measure.

Grid convention: cells are ``[k*eps, (k+1)*eps)`` anchored at 0; sets are
closed, so a right endpoint sitting on a cell boundary occupies the next
cell ([0,1] at eps=1/4 gives 5 cells).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateWindow, ScaleBelowResolution, ZeroMassBall

__all__ = [
    "ScalingFit",
    "fit_loglog",
    "box_count",
    "box_dimension",
    "entropy_dimension",
    "default_scales",
]


@dataclass
class ScalingFit:
    """A fitted scaling law: observable vs log(1/scale)."""

    scales: np.ndarray
    observable: np.ndarray
    slope: float
    stderr: float
    r_squared: float
    window: tuple[int, int]
    min_quotient: float | None = None

    def summary(self) -> dict:
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "points": int(len(self.scales)),
        }


def fit_loglog(xs, ys, window: tuple[int, int] | None = None):
    """Ordinary least squares of ys against xs over a half-open index window.

    Returns (slope, stderr_of_slope, r_squared).  The inputs are whatever the
    caller has already put on log scales; no transform is applied here.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if window is None:
        window = (0, len(xs))
    lo, hi = window
    x = xs[lo:hi]
    y = ys[lo:hi]
    n = len(x)
    if n < 3:
        raise DegenerateWindow(f"need >= 3 points, got {n}")
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateWindow("zero variance in x")
    sxy = float(((x - xbar) * (y - ybar)).sum())
    slope = sxy / sxx
    resid = y - (ybar + slope * (x - xbar))
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ybar) ** 2).sum())
    stderr = np.sqrt(max(ss_res, 0.0) / (n - 2) / sxx)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, float(stderr), float(r2)


def default_scales(delta: float, depth: int, coarse: int = 3, trim: int = 2) -> np.ndarray:
    """Geometric probe scales delta^coarse .. delta^(depth-trim).

    The two finest generation scales are excluded: at the truncation depth the
    simulated measure is an artifact of the cutoff, not of the cascade.
    """
    top = max(coarse, 1)
    bottom = depth - trim
    if bottom < top:
        raise DegenerateWindow(f"no scales between delta^{top} and delta^{bottom}")
    return delta ** np.arange(top, bottom + 1, dtype=float)


# ---------------------------------------------------------------------------
# box counting


def _cells_of_intervals(los: np.ndarray, his: np.ndarray, eps: float) -> int:
    """Number of grid cells touched by a sorted disjoint family of intervals."""
    if los.size == 0:
        return 0
    klo = np.floor(los / eps).astype(np.int64)
    khi = np.floor(his / eps).astype(np.int64)
    counts = khi - klo + 1
    # merged intervals are disjoint but may still share a boundary cell
    shared = np.count_nonzero(klo[1:] <= khi[:-1])
    return int(counts.sum() - shared)


def box_count(obj, eps: float) -> int:
    """N(eps): grid cells [k*eps,(k+1)*eps) meeting the set, grid anchored at 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if hasattr(obj, "los"):  # IntervalSet
        if eps < obj.source_scale:
            raise ScaleBelowResolution(eps, obj.source_scale)
        return _cells_of_intervals(obj.los, obj.his, eps)
    # support of an atomic measure
    if eps < obj.resolution:
        raise ScaleBelowResolution(eps, obj.resolution)
    return int(np.unique(np.floor(obj.points / eps).astype(np.int64)).size)


def box_dimension(obj, eps_schedule: Sequence[float], window: tuple[int, int] | None = None) -> ScalingFit:
    """Least-squares slope of log N(eps) against log(1/eps)."""
    eps = np.asarray(sorted(set(float(e) for e in eps_schedule), reverse=True))
    floor = obj.source_scale if hasattr(obj, "los") else obj.resolution
    eps = eps[eps >= floor]
    if eps.size < 4:
        raise DegenerateWindow("need >= 4 scales above the resolution floor")
    counts = np.array([box_count(obj, e) for e in eps], dtype=float)
    if (counts <= 0).any():
        raise DegenerateWindow("empty set has no box dimension")
    xs = np.log(1.0 / eps)
    ys = np.log(counts)
    slope, stderr, r2 = fit_loglog(xs, ys, window)
    return ScalingFit(eps, counts, slope, stderr, r2, window or (0, len(eps)))


# ---------------------------------------------------------------------------
# scaling entropy


def _entropy_at_scale(m, r: float, sample_size, rng):
    """H_r, minus the mean log mass of r-balls around typical points, and its standard error.

    ``sample_size=None`` sums over all atoms with their weights
    (deterministic); an integer draws that many centers from the normalized
    measure with the ``KeyedRng`` ``rng``.
    """
    if r < m.resolution:
        raise ScaleBelowResolution(r, m.resolution)
    norm = m.normalized()
    if sample_size is None:
        masses = norm.ball_mass_many(norm.points, r)
        if (masses <= 0).any():
            raise ZeroMassBall("atom with zero ball mass in full summation")
        logs = np.log(masses)
        h = float(-(norm.weights * logs).sum())
        var = float((norm.weights * logs**2).sum() - (norm.weights * logs).sum() ** 2)
        return h, float(np.sqrt(max(var, 0.0)))
    centers = norm.sample_points(sample_size, rng)
    masses = norm.ball_mass_many(centers, r)
    if (masses <= 0).any():
        raise ZeroMassBall("sampled a point whose ball has zero mass")
    logs = np.log(masses)
    return float(-logs.mean()), float(logs.std(ddof=1) / np.sqrt(sample_size))


def entropy_dimension(
    m,
    r_schedule: Sequence[float],
    sample_size: int | None = None,
    rng=None,
    window: tuple[int, int] | None = None,
) -> ScalingFit:
    """Slope of H_r against -log r over the schedule.

    The fit slope is the reported estimate; the minimum per-scale quotient
    H_r / (-log r) is kept alongside as the conservative reading for measures
    where the liminf and the slope could disagree.
    """
    if sample_size is not None and rng is None:
        raise ValueError("Monte Carlo mode needs an rng")
    rs = np.asarray(sorted(set(float(r) for r in r_schedule), reverse=True))
    rs = rs[rs >= m.resolution]
    if rs.size < 4:
        raise DegenerateWindow("need >= 4 scales above the resolution floor")
    hs = np.empty(rs.size)
    for i, r in enumerate(rs):
        hs[i], _ = _entropy_at_scale(m, r, sample_size, rng)
    xs = -np.log(rs)
    slope, stderr, r2 = fit_loglog(xs, hs, window)
    quot = hs[xs > 0] / xs[xs > 0]
    minq = float(quot.min()) if quot.size else None
    return ScalingFit(rs, hs, slope, stderr, r2, window or (0, len(rs)), min_quotient=minq)
