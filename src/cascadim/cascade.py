"""Random multiplicative cascades and percolation on symbolic trees.

The i.i.d. weight family is indexed by finite words, so the generator keys
every draw to its word instead of consuming a sequential stream: the weight
at a word is a pure function of (master seed, word).  That makes lazy
pruning, depth extension and any split of the work across threads reproduce
the same realization bit for bit.

Hashing: a word is encoded as its length followed by its one-byte letters,
and absorbed token by token through the splitmix64 finalizer (the published
64-bit avalanche mixer); uniforms take the top 53 bits of the final state.
``_mix64`` is the one copy of the finalizer, mixing an array in place, and
``KeyedRng.word_hashes`` is that definition.  Because the length comes
first, a child's hash cannot reuse its parent's.  The tree walk instead
carries, for each node, its prefix state for every deeper word length
(``KeyedRng.length_states`` at the root, one ``KeyedRng.absorb`` per
letter: XOR the letter's salt, then ``_mix64``): a child's hash is one mix,
and a depth-j prefix is absorbed once per deeper length.  A walk that does
not mark takes as many mixes as re-folding each level from the root (4.93M
for the 3.14M children of the first ``perc_image_overlap`` trial, numbered
as codes, 3.4 per leaf), but runs in cache-sized blocks instead of
full-width passes over each level.  Numbered by its cells, the same trial
marks and skips the subtrees of marked cells (``walk_tree``): 2.07M mixes.

Keep test: a percolation node survives when its uniform u is below p.
``_to_uniform`` reads only the top 53 bits v = h >> 11 of a hash, and it is
monotone in v: v is exact as a float, and adding 0.5, scaling by 2^-53 and
clamping never reverse an order.  So u < p holds exactly when v is below
T(p), the least 53-bit v whose uniform is at least p, which
``_keep_threshold`` finds by bisection over ``_to_uniform`` itself; that is
h < T(p) * 2^11, one integer comparison per child.  ``percolation_codes``
walks the boolean successor table on that test, with no float masses, and
no realization moves.  ``cascade_measure`` keeps its float masses, which its
reports need, and takes every weight from ``weights_from_uniforms``.

scipy is imported only for the lognormal law, whose weights need its
``ndtri``: ``scipy.special`` takes about 0.3 s to import, more than most
runs.  ``WeightLaw.lognormal`` imports it in the thread that builds the
law, before any worker starts, so ``weights_from_uniforms``, which worker
threads call, finds it already loaded.

A realization is the walk's leaves, and the walk drops every child of
mass 0, so every ``CylinderMeasure`` mass is positive.  Whether the limit
degenerates (``degenerate_regime``) depends on the law and the base
measure alone, and the experiment driver reports it once per run.
"""
from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ifs import AffineIfs
from .symbolic import Subshift, SymbolicMeasure, walk_tree
from .symbolic import codes_to_letters  # noqa: F401  unused here, but perfbench/layers.py traces this name

__all__ = [
    "KeyedRng",
    "WeightLaw",
    "CylinderMeasure",
    "cascade_measure",
    "percolation_codes",
    "cascade_mass_trace",
]

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_LEN_SALT = np.uint64(0x9E3779B97F4A7C15)
_LETTER_SALT = np.uint64(0xD1B54A32D192ED03)
_STREAM_SALT = np.uint64(0x2545F4914F6CDD1D)
_COUNTER_SALT = np.uint64(0x8CB92BA72F3D8DD7)
_U53 = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, which it returns."""
    scratch = np.empty_like(z)
    with np.errstate(over="ignore"):
        for shift, factor in ((30, _M1), (27, _M2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=scratch)
            z ^= scratch
            if factor is not None:
                z *= factor
    return z


def _to_uniform(h: np.ndarray) -> np.ndarray:
    # strictly inside (0,1): safe for inverse-CDF transforms.  The top code's
    # midpoint 2^53 - 0.5 rounds up to 2^53, so 1.0 is clamped to 1 - 2^-53.
    u = (h >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= _U53
    return np.minimum(u, 1.0 - _U53, out=u)


@dataclass(frozen=True)
class KeyedRng:
    """Deterministic word-keyed randomness: weight(u) = f(master_seed, u)."""

    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed) & 0xFFFFFFFFFFFFFFFF)

    def _root(self) -> np.ndarray:
        return _mix64(np.array([self.master_seed], dtype=np.uint64))

    def word_hashes(self, letters: np.ndarray) -> np.ndarray:
        """Hashes for an (N, k) letter matrix: absorb length, then each letter."""
        letters = np.asarray(letters)
        n, k = letters.shape
        h = np.repeat(self._root(), n)
        h ^= _LEN_SALT + np.uint64(k)
        _mix64(h)
        for j in range(k):
            h ^= _LETTER_SALT + letters[:, j].astype(np.uint64)
            _mix64(h)
        return h

    def length_states(self, depth: int) -> np.ndarray:
        """The states after absorbing each word length 1..depth, in that order."""
        return _mix64(self._root() ^ (_LEN_SALT + np.arange(1, depth + 1, dtype=np.uint64)))

    @staticmethod
    def absorb(states: np.ndarray, letters: np.ndarray) -> None:
        """``word_hashes``' letter step, in place: each state absorbs its letter.

        ``letters`` broadcasts against ``states``.
        """
        states ^= _LETTER_SALT + np.asarray(letters, dtype=np.uint64)
        _mix64(states)

    def counter_stream(self, salt: int):
        """``hashes(start, stop)``: the hashes of indices [start, stop) of the stream keyed by (salt, index).

        The stream's base state is mixed once, here, so a sampler that walks
        the stream in chunks mixes it once.  Every index is hashed on its
        own, so the chunks of any split join up to the whole stream bit for
        bit.
        """
        with np.errstate(over="ignore"):
            base = _mix64(self._root() ^ (_STREAM_SALT + np.uint64(salt & 0xFFFFFFFFFFFFFFFF)))

        def hashes(start: int, stop: int) -> np.ndarray:
            with np.errstate(over="ignore"):
                return _mix64(base ^ (_COUNTER_SALT + np.arange(start, stop, dtype=np.uint64)))

        return hashes

    def counter_uniforms(self, salt: int, n: int) -> np.ndarray:
        """The first ``n`` uniforms of the stream keyed by (salt, index); for samplers."""
        return _to_uniform(self.counter_stream(salt)(0, n))

    def derive(self, index: int) -> "KeyedRng":
        """An independent child stream, seeded by hash 0 of counter stream ``index``; for trials and factors."""
        return KeyedRng(int(self.counter_stream(index)(0, 1)[0]))


@dataclass(frozen=True)
class WeightLaw:
    """Mean-one nonnegative weight law V for the cascade multipliers."""

    kind: str  # "percolation" | "discrete" | "lognormal"
    p: float | None = None
    sigma: float | None = None
    values: tuple[float, ...] | None = None
    probs: tuple[float, ...] | None = None

    @classmethod
    def percolation(cls, p: float) -> "WeightLaw":
        """V = 1/p with probability p, else 0."""
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0,1]")
        return cls("percolation", p=float(p))

    @classmethod
    def lognormal(cls, sigma: float) -> "WeightLaw":
        """exp(sigma*Z - sigma^2/2): location pinned so E(V) = 1."""
        if not 0 < sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        importlib.import_module("scipy.special")  # see the module docstring
        return cls("lognormal", sigma=float(sigma))

    @classmethod
    def discrete(cls, values: Iterable[float], probs: Iterable[float]) -> "WeightLaw":
        v = tuple(float(x) for x in values)
        q = tuple(float(x) for x in probs)
        if len(v) != len(q) or not v:
            raise ValueError("values and probs must match and be nonempty")
        if not all(0 <= x < np.inf for x in v + q):
            raise ValueError("values and probs must be finite and nonnegative")
        if abs(sum(q) - 1.0) > 1e-12:
            raise ValueError("probs must sum to 1")
        mean = sum(vi * qi for vi, qi in zip(v, q))
        if abs(mean - 1.0) > 1e-10:
            raise ValueError(f"E(V) must be 1, got {mean!r}")
        return cls("discrete", values=v, probs=q)

    def weight_entropy(self) -> float:
        """h_V = E(V log V), the entropy cost of the cascade, in nats."""
        if self.kind == "percolation":
            return -np.log(self.p)
        if self.kind == "lognormal":
            return self.sigma**2 / 2.0
        total = 0.0
        for v, q in zip(self.values, self.probs):
            if v > 0 and q > 0:
                total += q * v * np.log(v)
        return total

    def positive_probability(self) -> float:
        """P(V > 0): the chance that a node keeps its subtree."""
        if self.kind == "discrete":
            return sum(q for v, q in zip(self.values, self.probs) if v > 0)
        return self.p if self.kind == "percolation" else 1.0

    def weights_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "percolation":
            return np.where(u < self.p, 1.0 / self.p, 0.0)
        if self.kind == "lognormal":
            from scipy.special import ndtri

            # exp(s * ndtri(u) - s*s/2), the same operations in the same order, in place
            s = self.sigma
            z = ndtri(u)
            z *= s
            z -= s * s / 2.0
            return np.exp(z, out=z)
        return _inverse_cdf(self.probs, 1.0, u.size, np.asarray(self.values))(u)


def _inverse_cdf(weights, total: float, keys: int, values: np.ndarray):
    """``lookup(u)``: ``values[min(searchsorted(cumsum(weights) / total, u, "right"), n - 1)]``, bit for bit.

    ``values`` is the array a caller would index with the drawn indices
    (the atoms' points, or a law's values), so a lookup gives the drawn
    values themselves.  Built once for all ``keys`` keys a sampler will look
    up, in one call or in chunks of any size.  The keys u lie in [0, 1]:
    ``KeyedRng.counter_uniforms`` stays below 1, but any key of 1.0 is
    answered too.  With B the power of two at or above n, a guide table
    (Chen & Asau's indexed search) is built from ``edges[b]``, the clamped
    search result at b/B, for b = 0..B+1, so u = 1.0 has bucket B; every
    b/B is exact.  The search and the clamp are monotone in u and b =
    floor(u*B) is exact, so the result for u lies in ``[edges[b],
    edges[b+1]]``.  A bucket whose two ends agree is closed: its keys need
    no search, and the table holds ``values[edges[b]]``, so a closed key
    takes two gathers (its open flag and its value).  The B+1 flags of the
    open buckets are kept as a boolean array, so finding the open keys
    reads one byte per key.  The open keys are searched in key order, and
    their clamped results' values scattered back: numpy's search starts
    from the previous key's result, so the cache lines it reads stay warm.
    Fewer ``keys`` than B, counted over all chunks, take the plain search,
    and no table is built.
    """
    cdf = np.cumsum(weights)
    cdf /= total
    last = cdf.size - 1
    table = 1 << last.bit_length()
    if keys < table:

        def lookup(u):
            idx = np.searchsorted(cdf, u, side="right")
            return values[np.minimum(idx, last, out=idx)]

        return lookup
    edges = np.minimum(np.searchsorted(cdf, np.arange(table + 2) / table, side="right"), last)
    open_bucket = edges[1:] != edges[:-1]
    edge_values = values[edges]

    def lookup(u):
        bucket = (u * table).astype(np.intp)
        drawn = edge_values[bucket]
        open_keys = np.flatnonzero(open_bucket[bucket])
        open_keys = open_keys[np.argsort(u[open_keys])]
        searched = np.searchsorted(cdf, u[open_keys], side="right")
        drawn[open_keys] = values[np.minimum(searched, last, out=searched)]
        return drawn

    return lookup


class CylinderMeasure:
    """Depth-n discretization of a measure: mass per admissible length-n word.

    Words are stored as sorted base-a codes; ``masses`` aligns with ``codes``
    and is positive: a word of mass 0 is not stored, and a zero, negative or
    NaN mass raises ``ValueError``.  Treated as immutable once built.
    """

    def __init__(self, codes: np.ndarray, masses: np.ndarray, depth: int, alphabet_size: int):
        self.codes = np.asarray(codes, dtype=np.int64)
        self.masses = np.asarray(masses, dtype=np.float64)
        if self.codes.shape != self.masses.shape:
            raise ValueError("codes and masses must align")
        if not (self.masses > 0).all():
            raise ValueError("masses must be positive")
        self.depth = int(depth)
        self.alphabet_size = int(alphabet_size)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def coarsen(self, depth: int) -> "CylinderMeasure":
        """Sum masses over suffixes down to the requested depth.

        Implemented as repeated one-level coarsenings so that coarsening in
        steps and coarsening directly are bitwise identical.
        """
        if not 0 <= depth <= self.depth:
            raise ValueError("coarsen depth out of range")
        cur = self
        while cur.depth > depth:
            if len(cur.codes) == 0:
                cur = CylinderMeasure(cur.codes, cur.masses, cur.depth - 1, cur.alphabet_size)
                continue
            parents = cur.codes // cur.alphabet_size
            starts = np.flatnonzero(np.concatenate([[True], parents[1:] != parents[:-1]]))
            sums = np.add.reduceat(cur.masses, starts)
            cur = CylinderMeasure(parents[starts], sums, cur.depth - 1, cur.alphabet_size)
        return cur

    def __len__(self) -> int:
        return len(self.codes)


def degenerate_regime(h_v: float, h_mu: float) -> bool:
    """h_V >= h_mu, unless h_V = 0: the unit law V = 1 keeps mass 1 at every depth."""
    return h_v > 0 and h_v >= h_mu


def _keep_threshold(p: float) -> int:
    """T(p), the least 53-bit v with ``_to_uniform`` of ``v << 11`` at least p; 2^53 if none.

    A hash h keeps its node (u < p) exactly when ``h >> 11 < T(p)``.
    """
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        if _to_uniform(np.array([mid << 11], dtype=np.uint64))[0] >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _grow(base, x, law, rng, depth):
    """Keyed cascade walk: the codes and masses of the depth-n words (see ``walk_tree``)."""
    if base.alphabet_size != x.alphabet_size:
        raise ValueError("measure and subshift alphabets differ")
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def weigh(hashes):
        return law.weights_from_uniforms(_to_uniform(hashes))

    table = x.successor_table() * base.step_table()
    if law == WeightLaw.percolation(1.0):
        return walk_tree(table, depth)  # unit weights: no node needs its hash
    return walk_tree(table, depth, rng, weigh)


def cascade_measure(
    base: SymbolicMeasure, x: Subshift, law: WeightLaw, depth: int, rng: KeyedRng
) -> CylinderMeasure:
    """One realization of the depth-n cascade stage of the base measure.

    mass(u) = (product of keyed weights along the prefixes of u) * base([u])
    for every admissible u of length ``depth`` whose mass is positive;
    zero-weight subtrees are pruned without touching their descendants, so
    a cascade that dies out gives an empty measure.
    """
    return CylinderMeasure(*_grow(base, x, law, rng, depth), depth, x.alphabet_size)


def percolation_codes(x: Subshift, p: float, depth: int, rng: KeyedRng, ifs: AffineIfs) -> np.ndarray:
    """The admissible depth-n words whose every prefix weight is positive, numbered for ``ifs``.

    The walk reads the boolean successor table (not at all on the full
    shift) and keeps a child when its entry allows it and it passes the
    integer keep test (see the module docstring); no node carries a mass.
    The words are numbered as ``set_image(words, ifs, depth)`` reads them:
    by their cell offsets where ``ifs.lattice(depth)`` routes (``walk_tree``'s
    numeral), else by their base-a codes.  On an m-adic tiling the two
    agree, so ``AffineIfs.tiling(a)`` gives the codes.  Numbers come one per
    word, in walk order, until the words outnumber the numbers of their
    range; then the walk returns the distinct numbers, sorted (``walk_tree``).
    """
    WeightLaw.percolation(p)  # the same refusals as the law
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if ifs.alphabet_size != x.alphabet_size:
        raise ValueError("alphabet mismatch between subshift and IFS")
    lattice = ifs.lattice(depth)
    numeral = None if lattice is None else lattice[:2]
    table = x.successor_table()
    if p == 1.0:
        return walk_tree(table, depth, numeral=numeral)[0]
    bound = np.uint64(_keep_threshold(p) << 11)  # h >> 11 < T(p); T(p) < 2^53 for p < 1, so it fits
    return walk_tree(table, depth, rng, lambda hashes: hashes < bound, numeral)[0]


def cascade_mass_trace(
    base: SymbolicMeasure, x: Subshift, law: WeightLaw, depth: int, rng: KeyedRng
) -> np.ndarray:
    """Total cascade mass per level k = 1..depth for one realization.

    Level k's total is the sum of the leaf masses of the depth-k walk, which
    are level k of any deeper walk, node for node and in code order.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    totals = [_grow(base, x, law, rng, k)[1].sum() for k in range(1, depth + 1)]
    return np.array(totals)
