"""Euclidean discretizations of symbolic measures and sets.

Atomic measures (weighted point clouds on the line) carry an explicit
resolution: the spatial uncertainty of replacing each cylinder by one
representative point.  Estimators must stay above it.  Interval sets hold
merged unions of closed intervals for set-level work (percolation images,
sumsets).

The atom representative of a cylinder is the coding-map image of the word
continued by the constant tail 1; any other continuation moves the point by
at most the resolution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import CylinderMeasure, KeyedRng, WeightLaw, cascade_measure
from .errors import CapExceeded, ScaleBelowResolution
from .ifs import AffineIfs
from .symbolic import Subshift, SymbolicMeasure

__all__ = [
    "AtomicMeasure",
    "ProductPairs",
    "IntervalSet",
    "pushforward",
    "set_image",
    "product",
    "project",
    "marginal",
    "convolve",
    "sumset",
    "bernoulli_convolution",
]

class AtomicMeasure:
    """Weighted atoms on the line.

    Atoms are kept sorted by coordinate with exact duplicates merged.
    ``resolution`` bounds the positional uncertainty of every atom.
    """

    def __init__(self, points, weights, resolution: float):
        points = np.asarray(points, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if points.ndim != 1:
            raise ValueError("points must be a 1-d array")
        if weights.shape != points.shape:
            raise ValueError("weights must align with points")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        order = np.argsort(points, kind="stable")
        points = points[order]
        weights = weights[order]
        if points.size > 1:
            starts = np.flatnonzero(np.concatenate([[True], points[1:] != points[:-1]]))
            if starts.size != points.size:  # merge exactly coinciding atoms
                weights = np.add.reduceat(weights, starts)
                points = points[starts]
        self.points = points
        self.weights = weights
        self.resolution = float(resolution)
        self._cum = None

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return len(self.weights)

    def normalized(self) -> "AtomicMeasure":
        tot = self.total_weight
        if tot <= 0:
            raise ValueError("cannot normalize a zero measure")
        if abs(tot - 1.0) < 1e-15:
            return self
        out = AtomicMeasure.__new__(AtomicMeasure)
        out.points = self.points
        out.weights = self.weights / tot
        out.resolution = self.resolution
        out._cum = None
        return out

    # -- ball queries -------------------------------------------------------

    def _cumweights(self) -> np.ndarray:
        if self._cum is None:
            self._cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        return self._cum

    def ball_mass(self, center: float, r: float) -> float:
        """Total weight within the closed ball; r must respect the resolution."""
        return float(self.ball_mass_many([center], r)[0])

    def ball_mass_many(self, centers, r: float) -> np.ndarray:
        if r < self.resolution:
            raise ScaleBelowResolution(r, self.resolution)
        centers = np.asarray(centers, dtype=float)
        cum = self._cumweights()
        lo = np.searchsorted(self.points, centers - r, side="left")
        hi = np.searchsorted(self.points, centers + r, side="right")
        return cum[hi] - cum[lo]

    def scaled(self, c: float) -> "AtomicMeasure":
        """The pushforward under x -> c*x."""
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return AtomicMeasure(self.points * c, self.weights.copy(), self.resolution * abs(c))

    def sample_points(self, count: int, rng: KeyedRng) -> np.ndarray:
        """Draw atom positions with probability proportional to weight.

        The draws read ``rng``'s counter stream 0xE17.
        """
        tot = self.total_weight
        if tot <= 0:
            raise ValueError("cannot sample from a zero measure")
        u = rng.counter_uniforms(0xE17, count)
        cum = np.cumsum(self.weights) / tot
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(self.weights) - 1)
        return self.points[idx]


@dataclass(eq=False)
class ProductPairs:
    """The atoms (xs[k], ys[k]) of a product measure with their weights.

    Pairs come in (x, y) order, equal pairs adjacent.  The package asks only
    one-dimensional questions of a product, through ``project`` and
    ``marginal``, so it keeps no planar measure.
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    resolution: float

    def __len__(self) -> int:
        return len(self.weights)


class IntervalSet:
    """A merged union of closed intervals, kept sorted and disjoint."""

    def __init__(self, los, his, source_scale: float = 0.0, _merged: bool = False):
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape or los.ndim != 1:
            raise ValueError("need matching 1-d endpoint arrays")
        if (his < los).any():
            raise ValueError("intervals must satisfy lo <= hi")
        if not _merged and los.size > 1:
            order = np.argsort(los, kind="stable")
            los = los[order]
            his = his[order]
            cummax = np.maximum.accumulate(his)
            starts = np.flatnonzero(np.concatenate([[True], los[1:] > cummax[:-1]]))
            ends = np.concatenate([starts[1:], [los.size]]) - 1
            los = los[starts]
            his = cummax[ends]
        self.los = los
        self.his = his
        self.source_scale = float(source_scale)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(np.empty(0), np.empty(0))

    def __len__(self) -> int:
        return len(self.los)

    @property
    def measure(self) -> float:
        return float((self.his - self.los).sum())

    def hull(self) -> tuple[float, float]:
        if len(self) == 0:
            raise ValueError("empty set has no hull")
        return float(self.los[0]), float(self.his[-1])

    def scale(self, c: float) -> "IntervalSet":
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        los, his = self.los * c, self.his * c
        if c < 0:
            los, his = his[::-1], los[::-1]
        return IntervalSet(los, his, self.source_scale * abs(c), _merged=True)


# ---------------------------------------------------------------------------
# pushforwards and images


def pushforward(cm: CylinderMeasure, ifs: AffineIfs, tail: int = 1) -> AtomicMeasure:
    """Image of a cylinder measure under the coding map, one atom per word.

    Exactly coinciding atoms (exactly overlapping maps) merge their weights.
    """
    if cm.alphabet_size != ifs.alphabet_size:
        raise ValueError("alphabet mismatch")
    keep = cm.masses > 0
    codes = cm.codes[keep]
    masses = cm.masses[keep]
    pts = ifs.points_for_codes(codes, cm.depth, ifs.fixed_point(tail))
    if codes.size:
        res = ifs.diameter * float(ifs.contractions_for_codes(codes, cm.depth).max())
    else:
        res = 0.0
    return AtomicMeasure(pts, masses, res)


def set_image(codes: np.ndarray, ifs: AffineIfs, length: int) -> IntervalSet:
    """Union of the cylinder image intervals of the words with these codes, merged.

    When ``ifs.lattice(length)`` routes the IFS (ratio 1/m with m a power of
    two, integer digits m*t_i and hull ends lo, hi, all exact below 2^53),
    every cylinder at depth n = ``length`` is ``[(P + lo) / m^n, (P + hi) / m^n]``
    for an integer cell offset P.  Then the offsets are sorted as int64 and a
    new interval starts wherever the next offset is more than ``w = hi - lo``
    past the last; repeated offsets never start one.  That is the merge
    ``IntervalSet`` makes of the float intervals, and the float path is exact
    on such an IFS, so the result is the same bit for bit.  Every other IFS
    takes the float path, ``intervals_for_codes``.
    """
    if len(codes) == 0:
        return IntervalSet.empty()
    lattice = ifs.lattice(length)
    if lattice is None:
        los, his = ifs.intervals_for_codes(codes, length)
        return IntervalSet(los, his, source_scale=float((his - los).max()))
    m, digits, lo, hi = lattice
    cells = ifs.lattice_offsets(codes, length, m, digits)
    cells.sort()
    breaks = np.flatnonzero(np.diff(cells) > hi - lo)
    scale = m**length
    los = (cells[np.concatenate([[0], breaks + 1])] + lo) / scale
    his = (cells[np.append(breaks, cells.size - 1)] + hi) / scale
    return IntervalSet(los, his, source_scale=(hi - lo) / scale, _merged=True)


# ---------------------------------------------------------------------------
# products, projections, convolutions


def _product_pairs(m1: AtomicMeasure, m2: AtomicMeasure, atom_cap: int, rng: KeyedRng | None):
    """Index pairs and weights (i, j, ws) of the atoms (m1.points[i], m2.points[j]).

    The exact grid comes x-major, so in (x, y) order; sampled pairs come in
    draw order.
    """
    n1, n2 = len(m1), len(m2)
    if n1 * n2 <= atom_cap:
        i = np.repeat(np.arange(n1), n2)
        j = np.tile(np.arange(n2), n1)
        return i, j, (m1.weights[:, None] * m2.weights[None, :]).ravel()
    rng = rng or KeyedRng(0)
    u1 = rng.counter_uniforms(0xA1, atom_cap)
    u2 = rng.counter_uniforms(0xA2, atom_cap)
    c1 = np.cumsum(m1.weights) / m1.total_weight
    c2 = np.cumsum(m2.weights) / m2.total_weight
    i = np.minimum(np.searchsorted(c1, u1, side="right"), n1 - 1)
    j = np.minimum(np.searchsorted(c2, u2, side="right"), n2 - 1)
    w = m1.total_weight * m2.total_weight / atom_cap
    return i, j, np.full(atom_cap, w)


def product(
    m1: AtomicMeasure,
    m2: AtomicMeasure,
    atom_cap: int = 5_000_000,
    rng: KeyedRng | None = None,
) -> ProductPairs:
    """The product measure as (x, y) pairs: exact grid if it fits, else sampled.

    The sampled mode draws index pairs coordinate-wise proportionally to the
    weights (an exact sampler for the product law) and gives every sampled
    atom the weight total/atom_cap.
    """
    i, j, ws = _product_pairs(m1, m2, atom_cap, rng)
    if len(m1) * len(m2) > atom_cap:
        # factor atoms are sorted and distinct, so the key order is the
        # (x, y) order; sampled atoms share one weight, so ws keeps its order
        order = np.argsort(i * len(m2) + j, kind="stable")
        i, j = i[order], j[order]
    return ProductPairs(m1.points[i], m2.points[j], ws, max(m1.resolution, m2.resolution))


def project(m: ProductPairs, s: float, sign: int, delta: float) -> AtomicMeasure:
    """Linear projection (x,y) -> delta^s * x +/- y of a product measure."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    c = delta**s
    return AtomicMeasure(c * m.xs + sign * m.ys, m.weights, m.resolution * (c + 1.0))


def marginal(m: ProductPairs, axis: int) -> AtomicMeasure:
    """Coordinate projection of a product measure onto axis 0 (x) or 1 (y)."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return AtomicMeasure(m.ys if axis else m.xs, m.weights, m.resolution)


def convolve(
    m1: AtomicMeasure,
    m2: AtomicMeasure,
    atom_cap: int = 5_000_000,
    rng: KeyedRng | None = None,
) -> AtomicMeasure:
    """The additive convolution: atoms at x + y.

    Identical to projecting the product with unit coefficient; the projection
    family is already the affinely normalized form, so the normalization pair
    relating the two is (scale, shift) = (1, 0).  Cap semantics as product(),
    without its (x, y) sort.
    """
    i, j, ws = _product_pairs(m1, m2, atom_cap, rng)
    return AtomicMeasure(m1.points[i] + m2.points[j], ws, m1.resolution + m2.resolution)


# ---------------------------------------------------------------------------
# sumsets


# Candidate gap pieces per erosion block: bounds the arrays of one block.
_EROSION_BUDGET = 10_000
# Gaps added on each side of a guessed candidate range before it is checked.
_EROSION_MARGIN = 2


def _erosion_sumset(a_lo, a_hi, b_lo, b_hi, source: float) -> IntervalSet:
    """Exact sumset via its complement.

    x misses A+B exactly when, for every summand interval J of B, the
    translate x - J fits inside a single gap of A.  For one J those x form
    sorted, disjoint open intervals ``(gap_lo + b_hi[j], gap_hi + b_lo[j])``,
    one per gap.  The uncovered set C is their intersection over all of B,
    kept as sorted disjoint open intervals.  The sumset is the closed
    stretches between consecutive uncovered intervals, so two that touch
    leave an isolated point of A+B.

    C meets a block of gap families per step, longest summands first.  For
    each (family, piece of C), a searchsorted of the piece's ends minus b_j
    against the unshifted gaps guesses the gaps that can meet the piece.
    Subtracting rounds differently from adding, so the guess is widened by
    ``_EROSION_MARGIN``, then until the gap just outside each end misses the
    piece under the materialized sums.  A block is the longest run of next
    families whose candidates fit ``_EROSION_BUDGET`` (at least one): a few
    while C is wide, hundreds once C is down to its two rays.  Each
    candidate ``(gap_lo[i] + b_hi[j], gap_hi[i] + b_lo[j])`` is clipped to
    the piece of C that proposed it, so a gap proposed by two pieces counts
    once anywhere, and empty ones are dropped.  A counting sweep keeps the
    stretches that every family of the block covers; at equal coordinates
    a piece that ends closes before one that starts opens, as the pieces
    are open.

    The result is bit for bit that of intersecting one family at a time:
    every endpoint is one of the materialized sums, the intersection does
    not depend on the order of the families, and an open set has exactly
    one representation as sorted disjoint open intervals.
    """
    if b_lo.size > a_lo.size:  # A+B = B+A: erode by the shorter family
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
    # the unbounded gaps of A^c are rays, so the first uncovered interval
    # ends at min(A) + min(B) and the last starts at max(A) + max(B)
    gap_lo = np.concatenate([[-np.inf], a_hi])
    gap_hi = np.concatenate([a_lo, [np.inf]])
    n_gaps = gap_lo.size
    order = np.argsort(b_lo - b_hi, kind="stable")  # long summands shrink C fastest
    c_lo, c_hi = np.array([-np.inf]), np.array([np.inf])
    done = 0
    while done < order.size and c_lo.size:
        # guessed gap ranges [first, stop) per (family, piece of C)
        fams = order[done : done + max(1, _EROSION_BUDGET // (c_lo.size * (2 * _EROSION_MARGIN + 1)))]
        bl, bh = b_lo[fams, None], b_hi[fams, None]
        first = np.maximum(np.searchsorted(gap_hi, c_lo - bl, side="right") - _EROSION_MARGIN, 0)
        stop = np.minimum(np.searchsorted(gap_lo, c_hi - bh, side="left") + _EROSION_MARGIN, n_gaps)
        while True:
            low = (first > 0) & (gap_hi[first - 1] + bl > c_lo)
            high = (stop < n_gaps) & (gap_lo[np.minimum(stop, n_gaps - 1)] + bh < c_hi)
            if not (low.any() or high.any()):
                break
            first -= low
            stop += high
        counts = np.maximum(stop - first, 0)
        k = max(1, int(np.searchsorted(np.cumsum(counts.sum(axis=1)), _EROSION_BUDGET, side="right")))
        counts = counts[:k].ravel()
        rows = np.repeat(np.arange(counts.size), counts)
        gap = first[:k].ravel()[rows] + np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        fam, piece = np.divmod(rows, c_lo.size)
        lo = np.maximum(gap_lo[gap] + bh[fam, 0], c_lo[piece])
        hi = np.minimum(gap_hi[gap] + bl[fam, 0], c_hi[piece])
        keep = hi > lo
        lo, hi = np.sort(lo[keep]), np.sort(hi[keep])
        # pieces open at each distinct start: those started up to it minus
        # those ended up to it; k open means every family covers the stretch,
        # which runs to the next end
        run_end = np.flatnonzero(np.append(lo[1:] != lo[:-1], True))
        open_count = run_end + 1 - np.searchsorted(hi, lo[run_end], side="right")
        c_lo = lo[run_end[open_count == k]]
        c_hi = hi[np.searchsorted(hi, c_lo, side="right")]
        done += k
    return IntervalSet(c_hi[:-1], c_lo[1:], source, _merged=True)


def sumset(
    s1: IntervalSet,
    s2: IntervalSet,
    s: float,
    pair_cap: int = 5_000_000,
) -> IntervalSet:
    """The arithmetic sum {x + s*y} of two interval sets, exactly merged.

    One exact algorithm serves every input: complement erosion by blocks of
    shifted gap families, sized by a fixed candidate budget (see
    ``_erosion_sumset``).  Its endpoints are the floating-point sums of
    endpoints that the pairwise Minkowski sums would give, and the result is
    bit for bit that of eroding by one family at a time, whatever the block
    sizes.
    """
    if s == 0:
        raise ValueError("s must be nonzero")
    if len(s1) == 0 or len(s2) == 0:
        return IntervalSet.empty()
    pairs = len(s1) * len(s2)
    if pairs > pair_cap:
        raise CapExceeded(pairs, pair_cap, what="interval pairs")
    sb = s2.scale(s)
    return _erosion_sumset(s1.los, s1.his, sb.los, sb.his, s1.source_scale + sb.source_scale)


# ---------------------------------------------------------------------------
# named constructions


def bernoulli_convolution(
    beta: float,
    p: float,
    depth: int,
    law: WeightLaw | None = None,
    rng: KeyedRng | None = None,
) -> AtomicMeasure:
    """Pushforward of the (optionally cascaded) p-Bernoulli measure under
    the two maps beta*x - 1, beta*x + 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0,1)")
    ifs = AffineIfs.bernoulli_pair(beta)
    base = SymbolicMeasure.bernoulli([p, 1.0 - p])
    law = law or WeightLaw.percolation(1.0)
    rng = rng or KeyedRng(0)
    cm = cascade_measure(base, Subshift.full(2), law, depth, rng)
    return pushforward(cm, ifs)

