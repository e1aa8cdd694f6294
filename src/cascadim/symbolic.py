"""One-sided symbolic spaces, subshifts and shift-invariant measures.

Letters run over ``{1..a}``.  A word indexes a cylinder; a subshift is either
the full shift or a subshift of finite type given by an ``a x a`` 0/1 letter
transition matrix.  Measures are Bernoulli or stationary Markov, the two
families whose cylinder masses have closed forms.  Entropies are in nats
throughout; dimension formulas downstream divide by the log of the metric
contraction in the same base.

Large word sets are handled as sorted ``int64`` arrays of base-``a`` codes
(``code = sum (letter_j - 1) * a**(n - j)``), which keeps lexicographic order
equal to numeric order.  Where letters are needed, ``codes_to_letters``
decodes the codes into an ``(N, n)`` letter matrix; codes and letter
matrices are the only forms a word set takes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, NonStationaryWarning, NotIrreducible

DEFAULT_WORD_CAP = 20_000_000
_BLOCK = 8192  # nodes per block of walk_tree's depth-first pass

__all__ = [
    "DEFAULT_WORD_CAP",
    "Subshift",
    "SymbolicMeasure",
    "codes_to_letters",
    "walk_tree",
]


def _xlogx(p: np.ndarray) -> np.ndarray:
    """x*log(x) with the 0*log(0) = 0 convention."""
    out = np.zeros_like(p, dtype=float)
    pos = p > 0
    out[pos] = p[pos] * np.log(p[pos])
    return out


def codes_to_letters(codes: np.ndarray, length: int, alphabet_size: int) -> np.ndarray:
    """Decode base-``a`` word codes into an ``(N, length)`` uint8 letter matrix."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty((codes.size, length), dtype=np.uint8)
    rem = codes
    for j in range(length - 1, -1, -1):
        rem, digit = np.divmod(rem, alphabet_size)
        out[:, j] = digit + 1
    return out


def walk_tree(table: np.ndarray, depth: int, cap: int, rng=None, weigh=None):
    """Grow the word tree one letter per level down to ``depth``.

    ``table`` is ``(a+1, a)``: a word ending in letter ``i+1`` (row ``a``: the
    empty word) passes ``table[i, j]`` times its mass to its child with letter
    ``j+1``.  Children of zero mass are dropped, so a zero entry marks a
    forbidden step.  Masses take the table's dtype: a boolean table just
    enumerates words.

    With ``rng`` and ``weigh`` each child's mass takes one more factor,
    ``weigh(length, hashes)``, from the keyed hashes of the children of one
    block at that length.  Every node carries its prefix state for each
    deeper word length (``rng.length_states`` at the root); a child's hash is
    its parent's next-length state absorbing its letter (``rng.absorb``),
    and only the survivors absorb their letter into their remaining states.

    The walk runs breadth first until a level holds more than ``_BLOCK``
    nodes, then walks each contiguous block of that level down to ``depth``
    before the next, splitting again wherever a block grows past ``_BLOCK``.
    Blocks go left to right, so the codes come out sorted, and each level's
    total is the sum over all its masses in code order.

    Returns the codes and masses of the length-``depth`` words and the total
    mass at each level.  Codes are int64, so a walk past 62 bits of code
    range raises ``CapExceeded`` instead of wrapping; so does a level of more
    than ``cap`` nodes.
    """
    a = table.shape[1]
    if depth * math.log2(a) > 62:
        raise CapExceeded(a**depth, 2**62, what="code range")
    codes = np.zeros(1, dtype=np.int64)
    masses = np.ones(1, dtype=table.dtype)
    if depth == 0:
        return codes, masses, []
    child_letters = np.tile(np.arange(1, a + 1, dtype=np.uint64), _BLOCK)
    # states: one row per deeper word length, one column per node
    states = None if weigh is None else rng.length_states(depth)[:, None]
    # a node's row in ``table`` is its last letter - 1; the root's is a
    pending = [(0, codes, np.full(1, a), masses, states)]
    counts = [0] * depth
    level_masses = [[] for _ in range(depth)]
    level_masses[-1].append(np.zeros(0, dtype=table.dtype))
    leaf_codes = [np.zeros(0, dtype=np.int64)]
    while pending:
        length, codes, row, parent_masses, states = pending.pop()
        masses = np.take(table, row, axis=0).ravel()
        masses *= np.repeat(parent_masses, a)
        if weigh is not None:
            hashes = np.repeat(states[0], a)
            rng.absorb(hashes, child_letters[: len(hashes)])
            masses *= weigh(length + 1, hashes)
        kept = np.flatnonzero(masses > 0)
        parent = kept // a
        row = kept - parent * a
        masses = np.take(masses, kept)
        codes = np.take(codes, parent) * a + row
        level_masses[length].append(masses)
        counts[length] += len(codes)
        if counts[length] > cap:
            raise CapExceeded(counts[length], cap, what="tree nodes")
        length += 1
        if length == depth:
            leaf_codes.append(codes)
            continue
        if weigh is not None:
            deeper = np.empty((len(states) - 1, len(parent)), dtype=np.uint64)
            # row by row: a row of a block is contiguous, the block is not
            for state, out in zip(states[1:], deeper):
                np.take(state, parent, out=out)
            rng.absorb(deeper, row + 1)
            states = deeper
        for start in reversed(range(0, len(codes), _BLOCK)):  # popped left to right
            block = slice(start, start + _BLOCK)
            pending.append(
                (length, codes[block], row[block], masses[block],
                 None if weigh is None else states[:, block])
            )
    # one sum per whole level: per-block partial sums would round differently
    masses = np.concatenate(level_masses[-1])
    totals = [np.concatenate(ms).sum() if ms else 0.0 for ms in level_masses[:-1]]
    return np.concatenate(leaf_codes), masses, totals + [masses.sum()]


def _int_matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class Subshift:
    """Full shift or subshift of finite type on ``{1..a}^N``.

    ``transition[i][j] == 1`` allows letter ``i+1`` to be followed by ``j+1``.
    ``transition is None`` means the full shift.
    """

    alphabet_size: int
    transition: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        if self.transition is not None:
            a = self.alphabet_size
            if len(self.transition) != a or any(len(r) != a for r in self.transition):
                raise ValueError("transition matrix must be a x a")
            if any(v not in (0, 1) for r in self.transition for v in r):
                raise ValueError("transition entries must be 0/1")
            if any(sum(r) == 0 for r in self.transition):
                # Letters with no successor would make deeper word sets empty;
                # they are legal as a matrix but useless, so reject early only
                # if *every* letter is a dead end.
                if all(sum(r) == 0 for r in self.transition):
                    raise ValueError("transition matrix has no allowed pair")

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls, alphabet_size: int) -> "Subshift":
        return cls(alphabet_size)

    @classmethod
    def sft(cls, matrix: Sequence[Sequence[int]]) -> "Subshift":
        rows = tuple(tuple(int(v) for v in r) for r in matrix)
        return cls(len(rows), rows)

    @classmethod
    def golden_mean(cls) -> "Subshift":
        """Two letters, the pair '22' forbidden."""
        return cls.sft([[1, 1], [1, 0]])

    # -- structure ------------------------------------------------------

    @property
    def is_full_shift(self) -> bool:
        return self.transition is None

    def matrix(self) -> np.ndarray:
        if self.transition is None:
            return np.ones((self.alphabet_size, self.alphabet_size), dtype=np.int64)
        return np.array(self.transition, dtype=np.int64)

    def is_irreducible(self) -> bool:
        if self.transition is None:
            return True
        A = self.matrix() > 0
        a = self.alphabet_size
        reach = A | np.eye(a, dtype=bool)
        for _ in range(a):
            reach = reach | (reach @ reach)
        return bool(reach.all())

    # -- word enumeration ------------------------------------------------

    def _live_letters(self) -> np.ndarray:
        """0-based letters from which infinite admissible continuations exist.

        A word indexes a nonempty cylinder of the subshift exactly when its
        adjacent pairs are allowed and its last letter is live; on irreducible
        systems every letter is live and the pair rule alone decides.
        """
        if self.transition is None:
            return np.arange(self.alphabet_size)
        A = self.matrix() > 0
        live = np.ones(self.alphabet_size, dtype=bool)
        for _ in range(self.alphabet_size + 1):
            new = (A[:, live].sum(axis=1) > 0) & live
            if new.sum() == live.sum():
                break
            live = new
        return np.flatnonzero(live)

    def word_count(self, n: int) -> int:
        """Exact number of admissible length-n words (Python integers)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return 1
        if self.transition is None:
            return self.alphabet_size ** n
        live = self._live_letters()
        if live.size == 0:
            return 0
        # row sums of the live-restricted A^(n-1), summed over starting letters
        sub = self.matrix()[np.ix_(live, live)]
        A = [list(map(int, row)) for row in sub]
        size = live.size
        power = [[int(i == j) for j in range(size)] for i in range(size)]
        k = n - 1
        base = A
        while k:
            if k & 1:
                power = _int_matmul(power, base)
            base = _int_matmul(base, base)
            k >>= 1
        return sum(sum(row) for row in power)

    def successor_table(self) -> np.ndarray:
        """Boolean ``(a+1, a)`` table of the letters allowed after each letter.

        Row ``i`` lists the successors of letter ``i+1``, row ``a`` the first
        letters (the empty word).  Only live letters are allowed, so every
        word the table spells indexes a nonempty cylinder.
        """
        a = self.alphabet_size
        live = np.zeros(a, dtype=bool)
        live[self._live_letters()] = True
        return np.vstack([(self.matrix() > 0) & live, live])

    def admissible_codes(self, n: int, cap: int = DEFAULT_WORD_CAP) -> np.ndarray:
        """Sorted int64 codes of the admissible length-n words."""
        if n < 0:
            raise ValueError("n must be >= 0")
        count = self.word_count(n)
        if count > cap:
            raise CapExceeded(count, cap, what="words")
        codes, _, _ = walk_tree(self.successor_table(), n, cap)
        return codes

    # -- spectral quantities ----------------------------------------------

    def _perron(self, transpose: bool = False, tol: float = 1e-14, max_iter: int = 100_000):
        """Perron eigenvalue and positive eigenvector by shifted power iteration.

        Iterates with A + I so periodic matrices (e.g. permutations) converge.
        """
        if not self.is_irreducible():
            raise NotIrreducible("transition matrix is not irreducible")
        A = self.matrix().astype(float)
        if transpose:
            A = A.T
        a = self.alphabet_size
        M = A + np.eye(a)
        v = np.full(a, 1.0 / a)
        lam = 0.0
        for _ in range(max_iter):
            w = M @ v
            new_lam = w.max()
            w /= new_lam
            if abs(new_lam - lam) <= tol * new_lam and np.max(np.abs(w - v)) <= tol:
                v = w
                lam = new_lam
                break
            v = w
            lam = new_lam
        v = v / v.sum()
        return lam - 1.0, v

    def topological_entropy(self) -> float:
        """log of the Perron eigenvalue; log(a) for the full shift."""
        if self.transition is None:
            return math.log(self.alphabet_size)
        lam, _ = self._perron()
        return math.log(lam)

    def parry_measure(self) -> "SymbolicMeasure":
        """The Markov measure of maximal entropy of an irreducible SFT."""
        if self.transition is None:
            a = self.alphabet_size
            return SymbolicMeasure.bernoulli([1.0 / a] * a)
        lam, v = self._perron()
        _, u = self._perron(transpose=True)
        A = self.matrix().astype(float)
        P = A * v[None, :] / (lam * v[:, None])
        pi = u * v
        pi = pi / pi.sum()
        return SymbolicMeasure.markov(pi, P, _check_stationary=False)


@dataclass(frozen=True)
class SymbolicMeasure:
    """Bernoulli or stationary Markov measure on the one-sided shift."""

    kind: str  # "bernoulli" | "markov"
    probs: tuple[float, ...] | None = None
    initial: tuple[float, ...] | None = None
    transition: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def bernoulli(cls, probs: Iterable[float]) -> "SymbolicMeasure":
        p = tuple(float(x) for x in probs)
        if len(p) < 2:
            raise ValueError("need at least two letters")
        if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        return cls("bernoulli", probs=p)

    @classmethod
    def uniform(cls, alphabet_size: int) -> "SymbolicMeasure":
        return cls.bernoulli([1.0 / alphabet_size] * alphabet_size)

    @classmethod
    def markov(
        cls,
        initial: Iterable[float],
        transition: Sequence[Sequence[float]],
        _check_stationary: bool = True,
    ) -> "SymbolicMeasure":
        P = np.array([[float(v) for v in row] for row in transition], dtype=float)
        a = P.shape[0]
        if P.shape != (a, a) or a < 2:
            raise ValueError("transition must be square, a >= 2")
        if (P < -1e-15).any() or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must be probability vectors")
        pi = np.array([float(x) for x in initial], dtype=float)
        if pi.shape != (a,) or (pi < -1e-15).any() or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("initial must be a probability vector of length a")
        if _check_stationary and np.max(np.abs(pi @ P - pi)) > 1e-10:
            pi = _stationary_of(P)
            warnings.warn(
                "initial distribution is not stationary; replaced by the "
                "stationary distribution of the transition matrix",
                NonStationaryWarning,
            )
        return cls(
            "markov",
            initial=tuple(float(x) for x in pi),
            transition=tuple(tuple(float(v) for v in row) for row in P),
        )

    # -- basic facts ------------------------------------------------------

    @property
    def alphabet_size(self) -> int:
        if self.kind == "bernoulli":
            return len(self.probs)
        return len(self.initial)

    def entropy(self) -> float:
        """Measure-theoretic entropy in nats (0*log 0 = 0).

        For Markov measures this is the asymptotic cylinder decay rate, which
        weights the transition rows by the stationary distribution; fibre
        measures restarted from a transition row therefore keep the entropy
        of the chain.
        """
        if self.kind == "bernoulli":
            return float(-_xlogx(np.array(self.probs)).sum())
        P = np.array(self.transition)
        pi = np.array(self.initial)
        if np.max(np.abs(pi @ P - pi)) > 1e-9:
            pi = _stationary_of(P)
        return float(-(pi[:, None] * _xlogx(P)).sum())

    # -- cylinder masses ----------------------------------------------------

    def cylinder_mass_batch(self, letters: np.ndarray) -> np.ndarray:
        """Vector of cylinder masses for an (N, n) letter matrix."""
        letters = np.asarray(letters)
        if letters.ndim != 2:
            raise ValueError("expected a 2-d letter matrix")
        if letters.shape[1] == 0:
            return np.ones(letters.shape[0])
        if self.kind == "bernoulli":
            p = np.array(self.probs)
            out = p[letters[:, 0] - 1].copy()
            for j in range(1, letters.shape[1]):
                out *= p[letters[:, j] - 1]
            return out
        P = np.array(self.transition)
        out = np.array(self.initial)[letters[:, 0] - 1].copy()
        for j in range(1, letters.shape[1]):
            out *= P[letters[:, j - 1] - 1, letters[:, j] - 1]
        return out

    def step_table(self) -> np.ndarray:
        """``(a+1, a)`` next-letter probabilities: row ``i`` after letter ``i+1``,
        row ``a`` for the first letter."""
        if self.kind == "bernoulli":
            return np.tile(self.probs, (self.alphabet_size + 1, 1))
        return np.vstack([self.transition, self.initial])

    # -- conditioning on the past --------------------------------------------

    def fibre(self, last_past_letter: int) -> "SymbolicMeasure":
        """Conditional law of the future given a past ending in the letter.

        For a Markov measure the conditional distribution of the future given
        the whole past depends on the last past symbol only: it is the chain
        restarted from the corresponding transition row.  Bernoulli measures
        are their own fibres by independence.
        """
        if not 1 <= last_past_letter <= self.alphabet_size:
            raise ValueError("letter outside alphabet")
        if self.kind == "bernoulli":
            return self
        row = self.transition[last_past_letter - 1]
        return SymbolicMeasure("markov", initial=tuple(row), transition=self.transition)

    # -- sampling ---------------------------------------------------------

    def sample_letters(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) letter matrix of i.i.d. words drawn from the measure."""
        if n < 0:
            raise ValueError("n must be >= 0")
        out = np.empty((count, n), dtype=np.uint8)
        if n == 0:
            return out
        if self.kind == "bernoulli":
            cum = np.cumsum(self.probs)
            u = rng.random((count, n))
            out[:] = np.searchsorted(cum, u, side="right").astype(np.uint8) + 1
            np.minimum(out, self.alphabet_size, out=out)
            return out
        P = np.array(self.transition)
        cumP = np.cumsum(P, axis=1)
        cum0 = np.cumsum(self.initial)
        u = rng.random((count, n))
        cur = np.searchsorted(cum0, u[:, 0], side="right").astype(np.int64)
        np.minimum(cur, self.alphabet_size - 1, out=cur)
        out[:, 0] = cur + 1
        for j in range(1, n):
            rows = cumP[cur]
            cur = (u[:, j : j + 1] >= rows).sum(axis=1)
            np.minimum(cur, self.alphabet_size - 1, out=cur)
            out[:, j] = cur + 1
        return out


def _stationary_of(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible stochastic matrix."""
    a = P.shape[0]
    M = P.T + np.eye(a)
    v = np.full(a, 1.0 / a)
    for _ in range(200_000):
        w = M @ v
        w /= w.sum()
        if np.max(np.abs(w - v)) <= 1e-15:
            return w
        v = w
    return v
