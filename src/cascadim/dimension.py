"""Multi-scale dimension estimators.

Box counting on interval sets (the support of an atomic measure m is
``IntervalSet(m.points, m.points, m.resolution)``, one degenerate interval
per atom), scaling entropy of atomic measures (all on the line), their
log-log regressions, and the shared least-squares helper.
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


def fit_loglog(xs, ys):
    """Ordinary least squares of ys against xs over all the points.

    Returns (slope, stderr_of_slope).  The inputs are whatever the caller has
    already put on log scales; no transform is applied here.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
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
    stderr = np.sqrt(max(ss_res, 0.0) / (n - 2) / sxx)
    return slope, float(stderr)


def default_scales(delta: float, depth: int) -> np.ndarray:
    """Geometric probe scales delta^3 .. delta^(depth-2).

    The two finest generation scales are excluded: at the truncation depth the
    simulated measure is an artifact of the cutoff, not of the cascade.
    """
    if depth - 2 < 3:
        raise DegenerateWindow(f"no scales between delta^3 and delta^{depth - 2}")
    return delta ** np.arange(3, depth - 1, dtype=float)


def _window(schedule: Sequence[float], floor: float) -> np.ndarray:
    """The distinct scales of ``schedule`` at or above ``floor``, largest first; at least 4."""
    scales = np.asarray(sorted(set(float(s) for s in schedule), reverse=True))
    scales = scales[scales >= floor]
    if scales.size < 4:
        raise DegenerateWindow("need >= 4 scales above the resolution floor")
    return scales


# ---------------------------------------------------------------------------
# box counting


def box_count(s, eps: float) -> int:
    """N(eps): grid cells [k*eps,(k+1)*eps) meeting the interval set ``s``, grid anchored at 0."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps < s.source_scale:
        raise ScaleBelowResolution(eps, s.source_scale)
    klo = np.floor(s.los / eps).astype(np.int64)
    khi = np.floor(s.his / eps).astype(np.int64)
    # merged intervals are disjoint but may still share a boundary cell
    return int((khi - klo + 1).sum() - np.count_nonzero(klo[1:] <= khi[:-1]))


def box_dimension(s, eps_schedule: Sequence[float]) -> ScalingFit:
    """Least-squares slope of log N(eps) against log(1/eps) for the interval set ``s``."""
    eps = _window(eps_schedule, s.source_scale)
    counts = np.array([box_count(s, e) for e in eps], dtype=float)
    if (counts <= 0).any():
        raise DegenerateWindow("empty set has no box dimension")
    return ScalingFit(eps, counts, *fit_loglog(np.log(1.0 / eps), np.log(counts)))


# ---------------------------------------------------------------------------
# scaling entropy


def _entropy_at_scale(norm, r: float, centers, order=None) -> float:
    """H_r, minus the mean log mass of r-balls around typical points of a normalized measure.

    ``centers=None`` sums over all atoms with their weights (deterministic),
    reading the masses from ``atom_ball_masses`` (two slices on a full
    lattice, else the search); an array averages over
    those centers, drawn from the measure.  With ``order`` the centers are
    sorted, ``drawn[order]``: the masses are searched in that order and
    scattered back to draw order before the mean, so H_r is that of the
    drawn centers bit for bit.  Both refuse an r below the resolution.
    """
    if centers is None:
        masses = norm.atom_ball_masses(r)
        if (masses <= 0).any():
            raise ZeroMassBall("atom with zero ball mass in full summation")
        log_masses = np.log(masses, out=masses)  # masses is this call's own array
        log_masses *= norm.weights
        return float(-log_masses.sum())
    masses = norm.ball_mass_many(centers, r)
    if order is not None:
        drawn = np.empty_like(masses)
        drawn[order] = masses
        masses = drawn
    if (masses <= 0).any():
        raise ZeroMassBall("sampled a point whose ball has zero mass")
    return float(-np.log(masses).mean())


def entropy_dimension(m, r_schedule: Sequence[float], sample_size: int | None = None, rng=None) -> ScalingFit:
    """Slope of H_r against -log r over the radii of the schedule at or above the resolution.

    The measure is normalized once for all radii, and in Monte Carlo mode
    its ``sample_size`` centers (a positive integer) are drawn once, from
    the ``KeyedRng`` ``rng``, and sorted once, for all radii.  Each radius
    searches with the sorted centers, so consecutive searches start near
    each other in the atoms, and scatters the masses back to draw order
    (see ``_entropy_at_scale``).  The full sum
    (``sample_size=None``) reads each radius's ball masses from
    ``AtomicMeasure.atom_ball_masses``: on a lattice-tagged measure whose
    atoms fill every cell, at a lattice radius, that is two shifted slices
    of the cached cumulative weights, else two searches; the masses are the
    same bit for bit.
    """
    if sample_size is not None and rng is None:
        raise ValueError("Monte Carlo mode needs an rng")
    rs = _window(r_schedule, m.resolution)
    norm = m.normalized()
    centers = order = None
    if sample_size is not None:
        drawn = norm.sample_points(sample_size, rng)
        order = np.argsort(drawn)
        centers = drawn[order]
    hs = np.array([_entropy_at_scale(norm, r, centers, order) for r in rs])
    return ScalingFit(rs, hs, *fit_loglog(-np.log(rs), hs))
