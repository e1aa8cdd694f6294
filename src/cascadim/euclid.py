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

import copy
import math
from dataclasses import dataclass

import numpy as np

from .cascade import CylinderMeasure, KeyedRng, WeightLaw, _inverse_cdf, _to_uniform, cascade_measure
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
    "projection_coefficient",
    "marginal",
    "convolve",
    "sumset",
    "bernoulli_convolution",
]

# Keys per chunk of a sampled product's factor pass.  Each array of a chunk
# (hashes, uniforms, buckets, drawn points) is 512 KB.  With one factor drawn
# per pass, drawing bconv's two factors took 0.156 s at 2^16 against 0.172 s
# at 2^15 and 0.16 s at 2^17 on the 2-core Xeon of BENCH_33.json (2 MB of L2
# per core): fewer chunks cost fewer numpy calls, while larger ones crowd the
# factor's tables out of the cache.
_PAIR_CHUNK = 1 << 16


class AtomicMeasure:
    """Weighted atoms on the line.

    Atoms are kept sorted by coordinate with exact duplicates merged.
    ``resolution`` bounds the positional uncertainty of every atom.

    ``scale`` tags a measure on a lattice: it is a power of two, and every
    point times ``scale`` is an integer cell, exactly.  ``pushforward`` sets
    it where the coding map routes to integer cells (see there); every other
    measure, including those that ``project``, ``marginal`` and ``convolve``
    build, has ``scale`` None.  ``atom_ball_masses`` reads the tag.
    """

    def __init__(self, points, weights, resolution: float):
        points = np.asarray(points, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if points.ndim != 1:
            raise ValueError("points must be a 1-d array")
        if weights.shape != points.shape:
            raise ValueError("weights must align with points")
        _check_atoms(points, weights, resolution)
        if not (points[1:] >= points[:-1]).all():
            order = np.argsort(points, kind="stable")
            points = points[order]
            weights = weights[order]
        else:  # a stable sort of sorted points is the identity; the measure still owns its arrays
            points, weights = points.copy(), weights.copy()
        if points.size > 1:
            starts = np.flatnonzero(np.concatenate([[True], points[1:] != points[:-1]]))
            if starts.size != points.size:  # merge exactly coinciding atoms
                weights = np.add.reduceat(weights, starts)
                points = points[starts]
        self._keep(points, weights, resolution)

    def _keep(self, points: np.ndarray, weights: np.ndarray, resolution: float) -> None:
        """Hold atoms already checked, sorted and merged, in arrays no caller holds."""
        self.points = points
        self.weights = weights
        self.resolution = float(resolution)
        self.scale = None
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
        out = copy.copy(self)
        out.weights = self.weights / tot
        out._cum = None
        return out

    # -- ball queries -------------------------------------------------------

    def _cumweights(self) -> np.ndarray:
        if self._cum is None:
            self._cum = np.zeros(self.weights.size + 1)  # cumsum(weights) after a 0.0, summed in place
            np.cumsum(self.weights, out=self._cum[1:])
        return self._cum

    def ball_mass_many(self, centers, r: float) -> np.ndarray:
        """Total weight within the closed r-ball around each center; r must respect the resolution."""
        if not r >= self.resolution:
            raise ScaleBelowResolution(r, self.resolution)
        centers = np.asarray(centers, dtype=float)
        cum = self._cumweights()
        lo = np.searchsorted(self.points, centers - r, side="left")
        hi = np.searchsorted(self.points, centers + r, side="right")
        return cum[hi] - cum[lo]

    def atom_ball_masses(self, r: float) -> np.ndarray:
        """``ball_mass_many(points, r)``, the r-ball mass around every atom, bit for bit.

        A tagged measure whose atoms fill every cell from the first to the
        last (a cascade on the full shift) takes two slices, when ``R = r *
        scale`` is an integer.  Its n atoms are n distinct integer cells
        ``points * scale``, so they fill the range exactly when the range
        spans n - 1 cells, and atom i sits in cell i.  Each centre +/- r is
        then a cell edge, exactly, so the searched indices are ``max(i-R, 0)``
        and ``min(i+R+1, n)``, and the masses are two shifted slices of
        ``cum = _cumweights()`` and one subtraction, with no gather: the upper
        ends are ``cum[R+1:]`` then ``cum[n]``, and the lower ends ``cum[:n-R]``
        are taken off from atom R on; below R the lower end is ``cum[0]`` =
        +0.0, and ``x - 0.0`` is ``x``.  Every other measure and radius takes
        ``ball_mass_many``.
        """
        if not r >= self.resolution:
            raise ScaleBelowResolution(r, self.resolution)
        n = len(self)
        if not (
            self.scale is not None
            and float(r * self.scale).is_integer()
            and n
            and (self.points[-1] - self.points[0]) * self.scale == n - 1
        ):
            return self.ball_mass_many(self.points, r)
        cum = self._cumweights()
        R = min(int(r * self.scale), n + 1)  # from R = n on, every ball holds every atom
        masses = np.empty(n)
        inner = max(n - R, 0)  # the atoms whose ball ends before the last cell
        masses[:inner] = cum[R + 1 :]
        masses[inner:] = cum[n]
        np.subtract(masses[R:], cum[:inner], out=masses[R:])
        return masses

    def sample_points(self, count: int, rng: KeyedRng) -> np.ndarray:
        """Draw atom positions with probability proportional to weight.

        The draws read ``rng``'s counter stream 0xE17, and ``_inverse_cdf``
        returns the drawn points themselves, through a table of points when
        ``count`` reaches it.  ``count`` must be a positive integer.
        """
        _require_count(count, "sample count")
        tot = self.total_weight
        if tot <= 0:
            raise ValueError("cannot sample from a zero measure")
        return _inverse_cdf(self.weights, tot, count, self.points)(rng.counter_uniforms(0xE17, count))


def _require_count(value, name: str) -> None:
    """Refuse, with ``ValueError``, a count that is not a positive integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_atoms(points: np.ndarray, weights, resolution: float) -> None:
    """Refuse, with ``ValueError``, atoms or a resolution that are not finite, or a negative weight."""
    if not (np.isfinite(points).all() and np.isfinite(weights).all() and np.isfinite(resolution)):
        raise ValueError("points, weights and resolution must be finite")
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")


@dataclass(eq=False)
class ProductPairs:
    """The atoms (xs[k], ys[k]) of a product measure with their weights.

    The exact grid comes x-major, sampled pairs in draw order.  The weights
    of a sampled product are its one weight broadcast to every atom, a
    read-only array of stride 0.  The package asks only one-dimensional
    questions of a product, through ``project`` and ``marginal``, which sort
    by value, so it keeps no planar measure.  ``xs`` and ``ys`` must have
    the same shape.
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    resolution: float

    def __post_init__(self):
        if np.shape(self.xs) != np.shape(self.ys):
            raise ValueError("xs and ys must have the same shape")

    def __len__(self) -> int:
        return len(self.xs)


class IntervalSet:
    """A merged union of closed intervals, kept sorted and disjoint.

    The constructor is the package's one interval merge.  It sorts by ``lo``
    and joins overlapping or touching runs unless every ``los[i+1] > his[i]``
    already.  It refuses non-finite endpoints and scales, and keeps copies.
    """

    def __init__(self, los, his, source_scale: float = 0.0):
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape or los.ndim != 1:
            raise ValueError("need matching 1-d endpoint arrays")
        if not (np.isfinite(los).all() and np.isfinite(his).all()):
            raise ValueError("interval endpoints must be finite")
        if not 0 <= source_scale < np.inf:
            raise ValueError("source_scale must be finite and nonnegative")
        if (his < los).any():
            raise ValueError("intervals must satisfy lo <= hi")
        if (los[1:] > his[:-1]).all():
            los, his = los.copy(), his.copy()
        else:
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

    def scale(self, c: float) -> "IntervalSet":
        if not (np.isfinite(c) and c != 0):
            raise ValueError("scale factor must be finite and nonzero")
        los, his = self.los * c, self.his * c
        if c < 0:
            los, his = his[::-1], los[::-1]
        return IntervalSet(los, his, self.source_scale * abs(c))


# ---------------------------------------------------------------------------
# pushforwards and images


def pushforward(cm: CylinderMeasure, ifs: AffineIfs) -> AtomicMeasure:
    """Image of a cylinder measure under the coding map, one atom per word.

    Each word is continued by the constant tail 1, so its atom is f_u(x0)
    with x0 the fixed point of letter 1, within the resolution
    ``diameter * ratio**depth`` of every point of its cylinder.  Exactly
    coinciding atoms (exactly overlapping maps) merge their weights.  When ``ifs.lattice(depth)``
    routes the IFS and x0 is an integer, the atom of u is
    ``(P(u) + x0) / m^n``, computed exactly by the float coding map, so the
    measure is tagged with ``scale = m^n`` (see ``AtomicMeasure``).
    """
    if cm.alphabet_size != ifs.alphabet_size:
        raise ValueError("alphabet mismatch")
    x0 = ifs.fixed_point(1)
    pts = ifs.points_for_codes(cm.codes, cm.depth, x0)
    res = ifs.diameter * ifs.ratio**cm.depth if cm.codes.size else 0.0
    atoms = AtomicMeasure(pts, cm.masses, res)
    lattice = ifs.lattice(cm.depth)
    if lattice is not None and x0.is_integer():
        atoms.scale = float(lattice[0] ** cm.depth)
    return atoms


def set_image(words: np.ndarray, ifs: AffineIfs, length: int) -> IntervalSet:
    """Union of the cylinder image intervals of a set of depth-n words, merged.

    When ``ifs.lattice(length)`` routes the IFS (ratio 1/m with m a power of
    two, integer digits m*t_i and hull ends lo, hi, all exact below 2^53),
    every cylinder at depth n = ``length`` is ``[(P + lo) / m^n, (P + hi) / m^n]``
    for the integer cell offset ``P(u) = sum_j d(u_j) m^(n-j)`` in
    ``ifs.cell_range(length)``, ``[min(d) S, max(d) S]`` with
    ``S = (m^n - 1)/(m - 1)``, and ``words`` are those offsets, as
    ``percolation_codes`` numbers them for this ``ifs``; on an m-adic
    tiling they are the base-a codes.  Both ends are exact, so the intervals
    are bit for bit those of the float path (``hull_images``), which every
    other IFS takes, and there ``words`` are base-a codes in ``[0, a^n)``.
    Words that are not integers, or lie outside their range, raise
    ``ValueError``; ``words`` is not changed.  ``IntervalSet`` merges either,
    repeated cells too: a walk whose words outnumber their range's cells
    hands on the distinct cells in order (``walk_tree``), so no step here
    drops repeats.
    """
    if len(words) == 0:
        return IntervalSet.empty()
    if words.dtype.kind not in "iu":
        raise ValueError("words must be integers")
    lattice = ifs.lattice(length)
    if lattice is None:
        if words.min() < 0 or int(words.max()) >= ifs.alphabet_size**length:
            raise ValueError(f"codes must lie in [0, {ifs.alphabet_size}^{length})")
        los, his = ifs.hull_images(words, length)
    else:
        m, _, lo, hi = lattice
        first, last = ifs.cell_range(length)
        if words.min() < first or words.max() > last:
            raise ValueError(f"cell offsets must lie in [{first}, {last}]")
        words = words.astype(np.int64, copy=False)  # unsigned or narrow words would overflow adding lo
        los = (words + lo) / m**length
        his = (words + hi) / m**length
    return IntervalSet(los, his, source_scale=float((his - los).max()))


# ---------------------------------------------------------------------------
# products, projections, convolutions


def _product_pairs(m1: AtomicMeasure, m2: AtomicMeasure, atom_cap: int, rng: KeyedRng | None):
    """The weights ``ws`` of the atoms (m1.points[i], m2.points[j]), and their points in two passes.

    Returns ``(ws, (first, second))``.  ``first`` yields ``(part, x)`` and
    ``second`` yields ``(part, y)``, where ``x`` and ``y`` broadcast to the
    shape of ``ws[part]`` and give its atoms' first and second points; a
    caller runs all of ``first`` before ``second``.  The exact grid is one
    part: ``ws`` is n1 x n2 (x-major, so in (x, y) order once flattened),
    ``part`` is ``...``, and ``x`` and ``y`` are the factors' points as a
    column and a row, so no index array is built.  Sampled pairs come in
    draw order, ``_PAIR_CHUNK`` at a time, one factor per pass (see
    ``_sampled_factor``): chunk [start, stop) of ``first`` reads keys
    [start, stop) of the counter stream 0xA1, and that of ``second`` those
    of 0xA2.  Every sampled atom weighs total/atom_cap, so ``ws`` is that
    one weight broadcast to ``atom_cap`` atoms (stride 0).  The points are
    those of drawing all ``atom_cap`` keys at once, bit for bit, while no
    array of ``atom_cap`` keys, indices or weights is built.  ``atom_cap``
    must be a positive integer, and a sampled product needs an ``rng`` and
    factors of positive total weight; each is checked before any draw.
    """
    _require_count(atom_cap, "atom_cap")
    if len(m1) * len(m2) <= atom_cap:
        ws = m1.weights[:, None] * m2.weights[None, :]
        return ws, ([(..., m1.points[:, None])], [(..., m2.points[None, :])])
    if rng is None:
        raise ValueError("a sampled product needs an rng")
    t1, t2 = m1.total_weight, m2.total_weight
    if not (t1 > 0 and t2 > 0):
        raise ValueError("a sampled product needs factors of positive total weight")
    ws = np.broadcast_to(np.float64(t1 * t2 / atom_cap), (atom_cap,))
    return ws, (_sampled_factor(m1, atom_cap, rng, 0xA1), _sampled_factor(m2, atom_cap, rng, 0xA2))


def _sampled_factor(m: AtomicMeasure, atom_cap: int, rng: KeyedRng, salt: int):
    """One factor's sampled points ``(part, points)``, chunk by chunk, from counter stream ``salt``.

    The inverse-CDF lookup, built once for all ``atom_cap`` keys, returns
    ``m.points`` themselves, and it is built before the first chunk, so
    only the factor being drawn keeps its cdf, guide table and points in
    cache.
    """
    draw = _inverse_cdf(m.weights, m.total_weight, atom_cap, m.points)
    keys = rng.counter_stream(salt)
    for start in range(0, atom_cap, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, atom_cap)
        yield slice(start, stop), draw(_to_uniform(keys(start, stop)))


def _product_measure(weights: np.ndarray, fill, resolution: float) -> AtomicMeasure:
    """The measure of a product's atoms, whose points ``fill(out)`` writes into a new array ``out``.

    ``fill`` writes them, rather than a caller passing an array, so that no
    caller holds ``out``.  ``out`` takes the shape of ``weights``: an exact
    grid's n1 x n2, flattened for ``AtomicMeasure``.  A sampled product has
    one weight (``weights`` has stride 0), and its measure is bit for bit
    the one the constructor builds from ``np.full`` of it, with no weight
    per point.  ``out`` is sorted in place: with one
    weight, the order among equal points cannot change a merged sum, and
    the run of zeros is led by the first zero given, as a stable sort leads
    it.  The runs are marked once, ``out`` is dropped once their first
    points are taken, and each merged weight is read by run length
    (``_run_weights``).
    """
    weights = np.asarray(weights, dtype=np.float64)
    points = np.empty(weights.shape)
    fill(points)
    if not weights.size or weights.strides != (0,):
        return AtomicMeasure(points.reshape(-1), weights.reshape(-1), resolution)
    weight = weights[0]
    _check_atoms(points, weight, resolution)
    first_zero = points[np.argmax(points == 0)]
    points.sort()
    new_run = np.empty(points.size, dtype=bool)
    new_run[0] = True
    np.not_equal(points[1:], points[:-1], out=new_run[1:])
    merged = points[new_run]
    del points
    lead = np.searchsorted(merged, 0.0)
    if lead < merged.size and merged[lead] == 0:
        merged[lead] = first_zero
    lengths = np.flatnonzero(new_run)  # the runs' first indices, made their lengths in place
    np.subtract(lengths[1:], lengths[:-1], out=lengths[:-1])
    lengths[-1] = new_run.size - lengths[-1]
    measure = AtomicMeasure.__new__(AtomicMeasure)
    measure._keep(merged, _run_weights(lengths, weight), resolution)
    return measure


def _run_weights(lengths: np.ndarray, weight) -> np.ndarray:
    """``np.add.reduceat(np.full(L, weight), [0])[0]`` for each run length L in ``lengths``, bit for bit.

    A reduction of equal values depends on their count only, so the merged
    weights are read from a table indexed by run length.  The table is
    filled by one ``np.add.reduceat`` over one run of each distinct length,
    laid end to end: at most ``lengths.sum()`` weights.
    """
    present = np.zeros(lengths.max() + 1, dtype=bool)
    present[lengths] = True
    distinct = np.flatnonzero(present)
    table = np.empty(present.size)
    table[distinct] = np.add.reduceat(np.full(distinct.sum(), weight), np.cumsum(distinct) - distinct)
    return table[lengths]


def product(
    m1: AtomicMeasure,
    m2: AtomicMeasure,
    *,
    atom_cap: int,
    rng: KeyedRng | None = None,
) -> ProductPairs:
    """The product measure as (x, y) pairs: exact grid if it fits, else sampled.

    The sampled mode draws index pairs coordinate-wise proportionally to the
    weights (an exact sampler for the product law) from ``rng``, which it
    needs.  Every sampled atom weighs total/atom_cap, and ``weights`` is
    that one weight broadcast, with no array of its own.  The points are
    drawn in two passes, chunk by chunk: every ``x`` into one preallocated
    ``xs``, then every ``y`` into ``ys`` (see ``_product_pairs``, which also
    says what is refused).  So a product allocates those two arrays, one
    factor's value table and chunk-sized scratch at a time, and an exact
    grid its weights too.
    """
    ws, passes = _product_pairs(m1, m2, atom_cap, rng)
    xs, ys = np.empty(ws.shape), np.empty(ws.shape)
    for out, drawn in zip((xs, ys), passes):
        for part, points in drawn:
            out[part] = points
    return ProductPairs(xs.reshape(-1), ys.reshape(-1), ws.reshape(-1), max(m1.resolution, m2.resolution))


def projection_coefficient(delta: float, s: float) -> float:
    """``delta**s``, refused with ``ValueError`` unless delta lies in (0, 1) and it is a finite positive float."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), not {delta!r}")
    try:
        c = delta**s
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise ValueError(f"delta^s = {delta!r}^{s!r} is not a finite positive float")
    return c


def project(m: ProductPairs, s: float, sign: int, delta: float) -> AtomicMeasure:
    """Linear projection (x,y) -> delta^s * x +/- y of a product measure; ``m`` is not changed.

    The coefficient is ``projection_coefficient(delta, s)``, with its refusals.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    c = projection_coefficient(delta, s)

    def points(out):  # c*x - y is c*x + (-1*y), bit for bit
        np.multiply(m.xs, c, out=out)
        (np.add if sign > 0 else np.subtract)(out, m.ys, out=out)

    return _product_measure(m.weights, points, m.resolution * (c + 1.0))


def marginal(m: ProductPairs, axis: int) -> AtomicMeasure:
    """Coordinate projection of a product measure onto axis 0 (x) or 1 (y); ``m`` is not changed."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")

    def points(out):  # a copy: the measure sorts its points in place
        out[...] = m.ys if axis else m.xs

    return _product_measure(m.weights, points, m.resolution)


def convolve(
    m1: AtomicMeasure,
    m2: AtomicMeasure,
    *,
    atom_cap: int,
    rng: KeyedRng | None = None,
) -> AtomicMeasure:
    """The additive convolution: atoms at x + y.

    Identical to projecting the product with unit coefficient; the projection
    family is already the affinely normalized form, so the normalization pair
    relating the two is (scale, shift) = (1, 0).  Cap semantics as product():
    the sums are written into one array in two passes, every ``x`` and then
    every ``y`` added to it in place (the same IEEE sum as
    ``np.add(x, y)``).  A sampled convolution sorts that array in place and
    merges it by runs of its one weight (see ``_product_measure``).  So it
    allocates that array, a byte per sum to mark the runs, and the merged
    points, run lengths and weights.
    """
    ws, (first, second) = _product_pairs(m1, m2, atom_cap, rng)

    def sums(out):
        for part, x in first:
            out[part] = x
        for part, y in second:
            out[part] += y

    return _product_measure(ws, sums, m1.resolution + m2.resolution)


# ---------------------------------------------------------------------------
# sumsets


# Candidate gap pieces per erosion block: bounds the arrays of one block.
_EROSION_BUDGET = 10_000
# Gaps added on each side of a guessed candidate range before it is checked.
_EROSION_MARGIN = 2
# The most interval pairs ``sumset`` takes: a product of two set sizes past it is refused.
_SUMSET_PAIR_CAP = 200_000_000


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
    return IntervalSet(c_hi[:-1], c_lo[1:], source)


def sumset(s1: IntervalSet, s2: IntervalSet, s: float) -> IntervalSet:
    """The arithmetic sum {x + s*y} of two interval sets, exactly merged.

    One exact algorithm serves every input: complement erosion by blocks of
    shifted gap families, sized by a fixed candidate budget (see
    ``_erosion_sumset``).  Its endpoints are the floating-point sums of
    endpoints that the pairwise Minkowski sums would give, and the result is
    bit for bit that of eroding by one family at a time, whatever the block
    sizes.  More than ``_SUMSET_PAIR_CAP`` interval pairs raise ``CapExceeded``.
    """
    if not (np.isfinite(s) and s != 0):
        raise ValueError("s must be finite and nonzero")
    if len(s1) == 0 or len(s2) == 0:
        return IntervalSet.empty()
    pairs = len(s1) * len(s2)
    if pairs > _SUMSET_PAIR_CAP:
        raise CapExceeded(pairs, _SUMSET_PAIR_CAP, what="interval pairs")
    sb = s2.scale(s)
    return _erosion_sumset(s1.los, s1.his, sb.los, sb.his, s1.source_scale + sb.source_scale)


# ---------------------------------------------------------------------------
# named constructions


def bernoulli_convolution(beta: float, p: float, depth: int) -> AtomicMeasure:
    """Pushforward of the depth-n p-Bernoulli measure under the two maps
    beta*x - 1, beta*x + 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0,1)")
    base = SymbolicMeasure.bernoulli([p, 1.0 - p])
    # the unit law hashes nothing, so the seed is immaterial
    cm = cascade_measure(base, Subshift.full(2), WeightLaw.percolation(1.0), depth, KeyedRng(0))
    return pushforward(cm, AffineIfs.bernoulli_pair(beta))

