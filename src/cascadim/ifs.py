"""Affine iterated function systems on the line, whose maps share one contraction ratio.

Canonical coding maps (at the hull ends they give cylinder images), and the
overlap counter:
the maximal number of depth-n cylinder images meeting a ball of radius
``delta**n``, whose growth exponent separates the regimes where percolation
image dimensions are exactly additive from those where overlaps inflate the
naive covering bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dimension import fit_loglog
from .symbolic import Subshift, _capped_word_count, codes_to_letters, numbering

__all__ = ["AffineIfs", "OverlapProfile", "overlap_count", "gamma_estimate"]


@dataclass(frozen=True)
class AffineIfs:
    """Maps ``x -> ratio * x + translation_i``: one contraction ratio in (0,1) for every map."""

    ratio: float
    translations: tuple[float, ...]

    def __post_init__(self):
        if len(self.translations) < 1:
            raise ValueError("need at least one map")
        if not all(map(math.isfinite, (self.ratio, *self.translations))):
            raise ValueError("ratio and translations must be finite")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie strictly in (0,1)")

    @classmethod
    def from_maps(cls, maps: Sequence[tuple[float, float]]) -> "AffineIfs":
        """The maps ``(ratio, translation)``, which must share one ratio."""
        ratios = {float(r) for r, _ in maps}
        if len(ratios) != 1:
            raise ValueError(f"need maps that share one ratio, not the ratios {sorted(ratios)}")
        return cls(ratios.pop(), tuple(float(t) for _, t in maps))

    @classmethod
    def tiling(cls, a: int) -> "AffineIfs":
        """The a-adic tiling of [0,1]: maps x/a + (i-1)/a."""
        return cls(1.0 / a, tuple((i - 1) / a for i in range(1, a + 1)))

    @classmethod
    def bernoulli_pair(cls, beta: float) -> "AffineIfs":
        """The two maps beta*x - 1, beta*x + 1 behind Bernoulli convolutions."""
        return cls(beta, (-1.0, 1.0))

    @property
    def alphabet_size(self) -> int:
        return len(self.translations)

    def fixed_point(self, letter: int) -> float:
        return self.translations[letter - 1] / (1.0 - self.ratio)

    @property
    def attractor_min(self) -> float:
        # increasing maps: the attractor extremes are the extreme fixed points
        return min(self.fixed_point(i) for i in range(1, self.alphabet_size + 1))

    @property
    def attractor_max(self) -> float:
        return max(self.fixed_point(i) for i in range(1, self.alphabet_size + 1))

    @property
    def diameter(self) -> float:
        return self.attractor_max - self.attractor_min

    def lattice(self, length: int) -> tuple[int, tuple[int, ...], int, int] | None:
        """``(m, digits, lo, hi)`` when the images at depth n = ``length`` lie on the grid m^-n.

        That holds when the ratio is ``1/m`` with m a power of two (at most
        2^53), every ``m * t_i`` is an integer ``d_i`` (the digits), the hull
        ends ``attractor_min`` and ``attractor_max`` are integers ``lo`` and
        ``hi``, and ``m^n * (max|d_i| + |lo| + |hi|) < 2^53``.  Then the
        cylinder of u is ``[(P(u) + lo) / m^n, (P(u) + hi) / m^n]`` with
        ``P(u) = sum_j d(u_j) m^(n-j)``, and every ``r*x + t`` step of
        ``points_for_codes`` from a hull end is exact: each value it meets is
        an integer below 2^53 over a power of two.  So the lattice and the float path
        give the same floats, bit for bit.  No translation may be -0.0, which
        the float path can carry to an endpoint.  Otherwise None.
        """
        mant, exp = math.frexp(self.ratio)
        if mant != 0.5 or exp < -52:
            return None
        m = 2 ** (1 - exp)
        ends = [float(t) * m for t in self.translations] + [self.attractor_min, self.attractor_max]
        if not all(v.is_integer() for v in ends):
            return None
        if any(t == 0 and math.copysign(1.0, t) < 0 for t in self.translations):
            return None
        *digits, lo, hi = map(int, ends)
        if m**length * (max(map(abs, digits)) + abs(lo) + abs(hi)) >= 2**53:
            return None
        return m, tuple(digits), lo, hi

    def cell_range(self, length: int) -> tuple[int, int] | None:
        """``(first, last)``, the least and greatest cell offset P(u) on the grid of ``lattice(length)``.

        They are ``min(d) S`` and ``max(d) S`` with ``S = (m^n - 1)/(m - 1)``,
        n = ``length``, the range of the walk's ``numbering``; None when
        ``lattice(length)`` is.
        """
        lattice = self.lattice(length)
        return None if lattice is None else numbering(self.alphabet_size, length, lattice[:2])[2]

    # -- coding map over code arrays ------------------------------------------

    def points_for_codes(self, codes: np.ndarray, length: int, x0: float) -> np.ndarray:
        """f_u(x0) for every base-a code u of the given length.

        The last L letters of each word are read from a table of f_s(x0) over
        all a^L suffixes s, where L is the largest length with
        a^L <= max(len(codes), a), capped at ``length``; only the first
        ``length - L`` letters are decoded and applied.  The table is built
        right to left with the same ``r*x + t`` steps as
        ``points_for_letters``, so every point is bit for bit the one the full
        letter matrix gives.  Carrying each prefix's affine map (offset,
        contraction) down the tree instead would compose left to right, which
        rounds differently for a non-dyadic ratio.
        """
        return self._points_from(codes, length, (x0,))[0]

    def hull_images(self, codes: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        """f_u(attractor_min) and f_u(attractor_max), the ends of each cylinder image.

        As ``points_for_codes`` at the two hull ends, bit for bit; the prefix
        letters are decoded once for both.
        """
        return tuple(self._points_from(codes, length, (self.attractor_min, self.attractor_max)))

    def _points_from(self, codes: np.ndarray, length: int, starts) -> list[np.ndarray]:
        """``points_for_codes`` at each start in turn, sharing one decoded prefix matrix."""
        a = self.alphabet_size
        L = self._suffix_length(len(codes), length)
        prefixes, suffixes = np.divmod(np.asarray(codes, dtype=np.int64), a**L)
        letters = codes_to_letters(prefixes, length - L, a)
        return [self.points_for_letters(letters, self._suffix_table(x0, L)[suffixes]) for x0 in starts]

    def points_for_letters(self, letters: np.ndarray, x0: float | np.ndarray) -> np.ndarray:
        """f_u(x0) for every row u of a letter matrix; ``x0`` may be one start per row."""
        t = np.array(self.translations)
        x = np.full(letters.shape[0], x0, dtype=float)
        for j in range(letters.shape[1] - 1, -1, -1):
            x = self.ratio * x + t[letters[:, j] - 1]
        return x

    def _suffix_length(self, count: int, length: int) -> int:
        """The largest L <= length with a^L <= max(count, a)."""
        L = 0
        while L < length and self.alphabet_size ** (L + 1) <= max(count, self.alphabet_size):
            L += 1
        return L

    def _suffix_table(self, x0: float, L: int) -> np.ndarray:
        """f_s(x0) for the a^L words s of length L, indexed by their codes."""
        t = np.array(self.translations)[:, None]
        table = np.array([float(x0)])
        for _ in range(L):
            table = (self.ratio * table + t).ravel()
        return table


@dataclass(frozen=True)
class OverlapProfile:
    """Overlap counts t_n for n = 1..n_max and the fitted growth exponent."""

    counts: tuple[int, ...]
    gamma_estimate: float
    fit_window: tuple[int, int]
    delta: float


def overlap_count(x: Subshift, ifs: AffineIfs, n: int) -> int:
    """Exact sup over centers of depth-n cylinder images meeting B(center, delta^n).

    The count, as a function of the center, only grows where the closed ball
    starts touching an interval, at some ``lo - radius``.  All intervals have
    length ``delta^n * diameter``, so the lower ends place them.  At distinct
    lower end k the count is the multiplicity of those up to k, less that of
    the intervals whose touch ended, at ``lo + length + radius``, strictly
    before.  More than ``DEFAULT_WORD_CAP`` admissible words raise
    ``CapExceeded``.

    When ``ifs.lattice(n)`` routes the IFS and ``ifs.cell_range(n)`` spans
    at most as many cells as there are words (the rule by which a lattice
    ``walk_tree`` marks its cells), the words are never listed:
    ``_cell_histogram`` counts them per cell, and the count is the largest
    sum over a window of ``hi - lo + 3`` consecutive cells, the
    lower ends from k - length - 2 radius to k in units of m^-n.  Every
    float step of the general path is exact on the lattice, so both give the
    same count.  Otherwise the words come from ``x.admissible_codes(n)`` and
    their lower ends from ``points_for_codes``.
    """
    if x.alphabet_size != ifs.alphabet_size:
        raise ValueError("alphabet mismatch between subshift and IFS")
    if n < 1:
        raise ValueError("n must be >= 1")
    words = _capped_word_count(x, n)
    cells = ifs.cell_range(n)
    if cells is not None and cells[1] - cells[0] < words:
        m, digits, lo, hi = ifs.lattice(n)
        window = hi - lo + 3
        cum = np.cumsum(_cell_histogram(x, m, digits, n))
        cum = np.concatenate([np.zeros(window, dtype=np.int64), cum])
        return int((cum[window:] - cum[:-window]).max())
    los = ifs.points_for_codes(x.admissible_codes(n), n, ifs.attractor_min)
    length = ifs.ratio**n * ifs.diameter
    radius = ifs.ratio**n
    uniq, mult = np.unique(los, return_counts=True)
    cum = np.concatenate([[0], np.cumsum(mult)])
    ended = np.searchsorted(uniq + length + radius, uniq - radius, side="left")
    return int((cum[1:] - cum[ended]).max())


def _cell_histogram(x: Subshift, m: int, digits: Sequence[int], n: int) -> np.ndarray:
    """Admissible length-n words per cell offset ``P(u) - min(digits) (m^n - 1)/(m - 1)``.

    ``H[j, c]`` counts the words ending in letter ``j+1`` at shifted offset c;
    a word ``u`` followed by letter ``j+1`` lands at ``c m + d_j - min(d)``,
    so each level is one product with the successor table, spread out by m.
    """
    table = x.successor_table()
    a = x.alphabet_size
    shift = np.array(digits, dtype=np.int64) - min(digits)
    steps = table[:a].T.astype(np.int64)  # steps[j, i]: letter j+1 may follow letter i+1
    H = np.zeros((a, shift.max() + 1), dtype=np.int64)
    H[np.arange(a), shift] = table[a]
    for _ in range(n - 1):
        grown = steps @ H
        H = np.zeros((a, (H.shape[1] - 1) * m + shift.max() + 1), dtype=np.int64)
        for j in range(a):
            H[j, shift[j] : shift[j] + m * (grown.shape[1] - 1) + 1 : m] = grown[j]
    return H.sum(axis=0)


def gamma_estimate(x: Subshift, ifs: AffineIfs, n_max: int) -> OverlapProfile:
    """Fit the growth exponent of the overlap counts over n in [ceil(n_max/2), n_max]."""
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    delta = ifs.ratio
    _capped_word_count(x, n_max)  # word counts never fall as n grows: refuse before any level
    counts = [overlap_count(x, ifs, n) for n in range(1, n_max + 1)]
    n_lo = math.ceil(n_max / 2)
    ns = np.arange(n_lo, n_max + 1, dtype=float)
    xs = ns * math.log(1.0 / delta)
    ys = np.log([counts[int(n) - 1] for n in ns])
    if np.ptp(ys) == 0.0:
        slope = 0.0  # constant counts: flat profile, exponent zero
    else:
        slope, _ = fit_loglog(xs, ys)
    return OverlapProfile(tuple(counts), max(float(slope), 0.0), (n_lo, n_max), delta)
