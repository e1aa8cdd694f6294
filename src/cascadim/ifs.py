"""Affine iterated function systems on the line.

Canonical coding maps, cylinder image intervals, and the overlap counter:
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
from .symbolic import DEFAULT_WORD_CAP, Subshift, codes_to_letters

__all__ = ["AffineIfs", "OverlapProfile", "overlap_count", "gamma_estimate"]


@dataclass(frozen=True)
class AffineIfs:
    """Maps ``x -> ratio_i * x + translation_i`` with ratios in (0,1)."""

    ratios: tuple[float, ...]
    translations: tuple[float, ...]

    def __post_init__(self):
        if len(self.ratios) != len(self.translations) or len(self.ratios) < 1:
            raise ValueError("need matching nonempty ratios/translations")
        if not all(map(math.isfinite, self.ratios + self.translations)):
            raise ValueError("ratios and translations must be finite")
        if any(not 0.0 < r < 1.0 for r in self.ratios):
            raise ValueError("ratios must lie strictly in (0,1)")

    @classmethod
    def from_maps(cls, maps: Sequence[tuple[float, float]]) -> "AffineIfs":
        return cls(tuple(float(r) for r, _ in maps), tuple(float(t) for _, t in maps))

    @classmethod
    def tiling(cls, a: int) -> "AffineIfs":
        """The a-adic tiling of [0,1]: maps x/a + (i-1)/a."""
        return cls(tuple(1.0 / a for _ in range(a)), tuple((i - 1) / a for i in range(1, a + 1)))

    @classmethod
    def bernoulli_pair(cls, beta: float) -> "AffineIfs":
        """The two maps beta*x - 1, beta*x + 1 behind Bernoulli convolutions."""
        return cls((beta, beta), (-1.0, 1.0))

    @property
    def alphabet_size(self) -> int:
        return len(self.ratios)

    @property
    def equal_ratio(self) -> float | None:
        r0 = self.ratios[0]
        return r0 if all(r == r0 for r in self.ratios) else None

    def fixed_point(self, letter: int) -> float:
        return self.translations[letter - 1] / (1.0 - self.ratios[letter - 1])

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

        That holds when every ratio is ``1/m`` with m a power of two (at most
        2^53), every ``m * t_i`` is an integer ``d_i`` (the digits), the hull
        ends ``attractor_min`` and ``attractor_max`` are integers ``lo`` and
        ``hi``, and ``m^n * (max|d_i| + |lo| + |hi|) < 2^53``.  Then the
        cylinder of u is ``[(P(u) + lo) / m^n, (P(u) + hi) / m^n]`` with
        ``P(u) = sum_j d(u_j) m^(n-j)``, and every ``r*x + t`` step of
        ``intervals_for_codes`` is exact: each value it meets is an integer
        below 2^53 over a power of two.  So the lattice and the float path
        give the same floats, bit for bit.  No translation may be -0.0, which
        the float path can carry to an endpoint.  Otherwise None.
        """
        mant, exp = math.frexp(self.ratios[0])
        if self.equal_ratio is None or mant != 0.5 or exp < -52:
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
        rounds differently for non-dyadic ratios.
        """
        suffixes, prefixes, L = self._split_codes(codes, length)
        return self.points_for_letters(prefixes, self._suffix_table(x0, L)[suffixes])

    def points_for_letters(self, letters: np.ndarray, x0: float | np.ndarray) -> np.ndarray:
        """f_u(x0) for every row u of a letter matrix; ``x0`` may be one start per row."""
        r = np.array(self.ratios)
        t = np.array(self.translations)
        x = np.full(letters.shape[0], x0, dtype=float)
        for j in range(letters.shape[1] - 1, -1, -1):
            idx = letters[:, j] - 1
            x = r[idx] * x + t[idx]
        return x

    def intervals_for_codes(self, codes: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        suffixes, prefixes, L = self._split_codes(codes, length)
        los = self.points_for_letters(prefixes, self._suffix_table(self.attractor_min, L)[suffixes])
        his = self.points_for_letters(prefixes, self._suffix_table(self.attractor_max, L)[suffixes])
        return los, his

    def lattice_offsets(self, codes: np.ndarray, length: int, m: int, digits: Sequence[int]) -> np.ndarray:
        """P(u) = sum_j d(u_j) m^(length-j) for every base-a code u, as int64.

        The codes split as in ``points_for_codes``: the last L letters index an
        int64 table of P over all a^L words, and the first ``length - L``
        index a table over the prefixes.  A prefix longer than L splits again,
        L letters at a time, so no table has more than max(len(codes), a)
        entries and no letter matrix is built.  ``lattice`` gives ``m`` and
        ``digits``; the sums are exact in int64 wherever it routes.
        """
        L = self._suffix_length(len(codes), length)
        prefixes, suffixes = np.divmod(np.asarray(codes, dtype=np.int64), self.alphabet_size**L)
        table = _offset_table(m, digits, L)
        out = table[suffixes]
        del suffixes
        shift = m**L
        k = length - L  # prefix letters not yet read
        while k > 0:
            if k > L:
                prefixes, suffixes = np.divmod(prefixes, self.alphabet_size**L)
            else:
                suffixes, table = prefixes, _offset_table(m, digits, k)
            part = table[suffixes]
            part *= shift
            out += part
            shift *= m**L
            k -= L
        return out

    def _split_codes(self, codes: np.ndarray, length: int):
        """Suffix indices, prefix letter matrix and suffix length L of the codes."""
        a = self.alphabet_size
        codes = np.asarray(codes, dtype=np.int64)
        L = self._suffix_length(len(codes), length)
        prefixes, suffixes = np.divmod(codes, a**L)
        return suffixes, codes_to_letters(prefixes, length - L, a), L

    def _suffix_length(self, count: int, length: int) -> int:
        """The largest L <= length with a^L <= max(count, a)."""
        L = 0
        while L < length and self.alphabet_size ** (L + 1) <= max(count, self.alphabet_size):
            L += 1
        return L

    def _suffix_table(self, x0: float, L: int) -> np.ndarray:
        """f_s(x0) for the a^L words s of length L, indexed by their codes."""
        r = np.array(self.ratios)[:, None]
        t = np.array(self.translations)[:, None]
        table = np.array([float(x0)])
        for _ in range(L):
            table = (r * table + t).ravel()
        return table

    def contractions_for_codes(self, codes: np.ndarray, length: int) -> np.ndarray:
        if self.equal_ratio is not None:
            return np.full(len(codes), self.equal_ratio**length)
        letters = codes_to_letters(codes, length, self.alphabet_size)
        r = np.array(self.ratios)
        out = np.ones(letters.shape[0])
        for j in range(letters.shape[1]):
            out *= r[letters[:, j] - 1]
        return out


def _offset_table(m: int, digits: Sequence[int], k: int) -> np.ndarray:
    """P(s) = sum_j d(s_j) m^(k-j) for the a^k words s of length k, indexed by their codes."""
    d = np.array(digits, dtype=np.int64)
    table = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        table = (table[:, None] * m + d).ravel()
    return table


@dataclass(frozen=True)
class OverlapProfile:
    """Overlap counts t_n for n = 1..n_max and the fitted growth exponent."""

    counts: tuple[int, ...]
    gamma_estimate: float
    fit_window: tuple[int, int]
    delta: float


def overlap_count(
    x: Subshift,
    ifs: AffineIfs,
    n: int,
    cap: int = DEFAULT_WORD_CAP,
    radius: float | None = None,
) -> int:
    """Exact sup over centers of depth-n cylinder images meeting B(center, delta^n).

    The count, as a function of the center, only changes where the closed ball
    starts or stops touching some interval, so sweeping the 2|X_n| event
    points (with multiplicities aggregated for exactly-coinciding intervals)
    attains the true supremum.  ``radius`` overrides the default ball radius
    delta^n, e.g. to check affine equivariance under rescaled translations.
    """
    delta = ifs.equal_ratio
    if delta is None:
        raise ValueError("overlap counting is defined for equal-ratio systems only")
    if x.alphabet_size != ifs.alphabet_size:
        raise ValueError("alphabet mismatch between subshift and IFS")
    if n < 1:
        raise ValueError("n must be >= 1")
    codes = x.admissible_codes(n, cap)
    los, _ = ifs.intervals_for_codes(codes, n)
    length = delta**n * ifs.diameter
    radius = delta**n if radius is None else float(radius)
    uniq, mult = np.unique(los, return_counts=True)
    starts = uniq - radius
    ends = uniq + length + radius
    coords = np.concatenate([starts, ends])
    deltas = np.concatenate([mult, -mult])
    kinds = np.concatenate([np.zeros(uniq.size, dtype=np.int8), np.ones(uniq.size, dtype=np.int8)])
    order = np.lexsort((kinds, coords))  # starts before ends at equal coords: closed/closed touch counts
    running = np.cumsum(deltas[order])
    return int(running.max())


def gamma_estimate(
    x: Subshift,
    ifs: AffineIfs,
    n_max: int,
    cap: int = DEFAULT_WORD_CAP,
) -> OverlapProfile:
    """Fit the growth exponent of the overlap counts over n in [ceil(n_max/2), n_max]."""
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    delta = ifs.equal_ratio
    if delta is None:
        raise ValueError("overlap counting is defined for equal-ratio systems only")
    counts = [overlap_count(x, ifs, n, cap) for n in range(1, n_max + 1)]
    n_lo = math.ceil(n_max / 2)
    ns = np.arange(n_lo, n_max + 1, dtype=float)
    xs = ns * math.log(1.0 / delta)
    ys = np.log([counts[int(n) - 1] for n in ns])
    if np.ptp(ys) == 0.0:
        slope = 0.0  # constant counts: flat profile, exponent zero
    else:
        slope, _, _ = fit_loglog(xs, ys)
    return OverlapProfile(tuple(counts), max(float(slope), 0.0), (n_lo, n_max), delta)
