"""Random multiplicative cascades and percolation on symbolic trees.

The i.i.d. weight family is indexed by finite words, so the generator keys
every draw to its word instead of consuming a sequential stream: the weight
at a word is a pure function of (master seed, word).  That makes lazy
pruning, depth extension and any split of the work across threads reproduce
the same realization bit for bit.

Hashing: a word is encoded as its length followed by its one-byte letters,
and absorbed token by token through the splitmix64 finalizer (the published
64-bit avalanche mixer); uniforms take the top 53 bits of the final state.
``KeyedRng.word_hashes`` is that definition.  Because the length comes
first, a child's hash cannot reuse its parent's.  The tree walk instead
carries, for each node, its prefix state for every deeper word length
(``KeyedRng.length_states`` at the root, one ``KeyedRng.absorb`` per
letter): a child's hash is one mix, and a depth-j prefix is absorbed once
per deeper length.  That is as many mixes as re-folding each level from the
root (4.93M for the 3.14M children of the first ``perc_image_overlap``
trial, 3.4 per leaf), but the walk runs in cache-sized blocks instead of
full-width passes over each level.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateCascadeWarning
from .symbolic import DEFAULT_WORD_CAP, Subshift, SymbolicMeasure, walk_tree
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
    """splitmix64 finalizer, elementwise on uint64 arrays."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _to_uniform(h: np.ndarray) -> np.ndarray:
    # strictly inside (0,1): safe for inverse-CDF transforms
    u = (h >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= _U53
    return u


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
        with np.errstate(over="ignore"):
            h = np.broadcast_to(self._root(), (n,)).copy()
            h = _mix64(h ^ (_LEN_SALT + np.uint64(k)))
            for j in range(k):
                h = _mix64(h ^ (_LETTER_SALT + letters[:, j].astype(np.uint64)))
        return h

    def length_states(self, depth: int) -> np.ndarray:
        """The states after absorbing each word length 1..depth, in that order."""
        lengths = np.arange(1, depth + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix64(self._root() ^ (_LEN_SALT + lengths))

    @staticmethod
    def absorb(states: np.ndarray, letters: np.ndarray) -> None:
        """``word_hashes``' letter step, in place: each state absorbs its letter.

        ``letters`` broadcasts against ``states``.
        """
        scratch = np.empty_like(states)
        with np.errstate(over="ignore"):
            states ^= _LETTER_SALT + np.asarray(letters, dtype=np.uint64)
            for shift, factor in ((30, _M1), (27, _M2), (31, None)):
                np.right_shift(states, np.uint64(shift), out=scratch)
                states ^= scratch
                if factor is not None:
                    states *= factor

    def counter_uniforms(self, salt: int, n: int, offset: int = 0) -> np.ndarray:
        """Deterministic uniform stream keyed by (salt, index); for samplers."""
        with np.errstate(over="ignore"):
            base = _mix64(self._root() ^ (_STREAM_SALT + np.uint64(salt & 0xFFFFFFFFFFFFFFFF)))
            idx = np.arange(offset, offset + n, dtype=np.uint64)
            h = _mix64(base ^ (_COUNTER_SALT + idx))
        return _to_uniform(h)

    def derive(self, index: int) -> "KeyedRng":
        """An independent child stream; used for trial and factor seeds."""
        with np.errstate(over="ignore"):
            h = _mix64(self._root() ^ (_STREAM_SALT + np.uint64(index & 0xFFFFFFFFFFFFFFFF)))
            h = _mix64(h ^ _COUNTER_SALT)
        return KeyedRng(int(h[0]))


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
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls("lognormal", sigma=float(sigma))

    @classmethod
    def discrete(cls, values: Iterable[float], probs: Iterable[float]) -> "WeightLaw":
        v = tuple(float(x) for x in values)
        q = tuple(float(x) for x in probs)
        if len(v) != len(q) or not v:
            raise ValueError("values and probs must match and be nonempty")
        if any(x < 0 for x in v) or any(x < 0 for x in q):
            raise ValueError("values and probs must be nonnegative")
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
            s = self.sigma
            return np.exp(s * ndtri(u) - s * s / 2.0)
        cum = np.cumsum(self.probs)
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(self.values) - 1)
        return np.asarray(self.values)[idx]


class CylinderMeasure:
    """Depth-n discretization of a measure: mass per admissible length-n word.

    Words are stored as sorted base-a codes; ``masses`` aligns with ``codes``.
    Treated as immutable once built.
    """

    def __init__(
        self,
        codes: np.ndarray,
        masses: np.ndarray,
        depth: int,
        alphabet_size: int,
        meta: dict | None = None,
    ):
        self.codes = np.asarray(codes, dtype=np.int64)
        self.masses = np.asarray(masses, dtype=np.float64)
        if self.codes.shape != self.masses.shape:
            raise ValueError("codes and masses must align")
        self.depth = int(depth)
        self.alphabet_size = int(alphabet_size)
        self.meta = dict(meta or {})

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def is_degenerate(self) -> bool:
        return not (self.masses > 0).any()

    def positive_codes(self) -> np.ndarray:
        return self.codes[self.masses > 0]

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
                cur = CylinderMeasure(
                    cur.codes, cur.masses, cur.depth - 1, cur.alphabet_size, cur.meta
                )
                continue
            parents = cur.codes // cur.alphabet_size
            starts = np.flatnonzero(np.concatenate([[True], parents[1:] != parents[:-1]]))
            sums = np.add.reduceat(cur.masses, starts)
            cur = CylinderMeasure(
                parents[starts], sums, cur.depth - 1, cur.alphabet_size, cur.meta
            )
        return cur

    def __len__(self) -> int:
        return len(self.codes)


def _grow(base, x, law, rng, depth, cap):
    """Keyed cascade walk: depth-n codes and masses, and the total mass per level."""
    if base.alphabet_size != x.alphabet_size:
        raise ValueError("measure and subshift alphabets differ")
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def weigh(length, hashes):
        return law.weights_from_uniforms(_to_uniform(hashes))

    table = x.successor_table() * base.step_table()
    if law == WeightLaw.percolation(1.0):
        return walk_tree(table, depth, cap)  # unit weights: no node needs its hash
    return walk_tree(table, depth, cap, rng, weigh)


def cascade_measure(
    base: SymbolicMeasure,
    x: Subshift,
    law: WeightLaw,
    depth: int,
    rng: KeyedRng,
    cap: int = DEFAULT_WORD_CAP,
) -> CylinderMeasure:
    """One realization of the depth-n cascade stage of the base measure.

    mass(u) = (product of keyed weights along the prefixes of u) * base([u])
    for every admissible u of length ``depth``; zero-weight subtrees are
    pruned without touching their descendants.
    """
    meta = {"law": law.kind, "seed": rng.master_seed}
    h_v = law.weight_entropy()
    h_mu = base.entropy()
    if h_v >= h_mu:
        meta["degenerate_regime"] = True
        warnings.warn(
            f"weight entropy {h_v:.6g} >= base entropy {h_mu:.6g}: "
            "the cascade limit is degenerate (finite stages still computed)",
            DegenerateCascadeWarning,
        )
    codes, masses, _ = _grow(base, x, law, rng, depth, cap)
    return CylinderMeasure(codes, masses, depth, x.alphabet_size, meta)


def percolation_codes(
    x: Subshift, p: float, depth: int, rng: KeyedRng, cap: int = DEFAULT_WORD_CAP
) -> np.ndarray:
    """Codes of the admissible depth-n words whose every prefix weight is positive."""
    law = WeightLaw.percolation(p)
    base = SymbolicMeasure.uniform(x.alphabet_size)
    codes, _, _ = _grow(base, x, law, rng, depth, cap)
    return codes


def cascade_mass_trace(
    base: SymbolicMeasure,
    x: Subshift,
    law: WeightLaw,
    depth: int,
    rng: KeyedRng,
    cap: int = DEFAULT_WORD_CAP,
) -> np.ndarray:
    """Total cascade mass per level k = 1..depth for one realization."""
    _, _, trace = _grow(base, x, law, rng, depth, cap)
    return np.asarray(trace)
