"""One-sided symbolic spaces, subshifts and shift-invariant measures.

Letters run over ``{1..a}``.  A word indexes a cylinder; a subshift is a
subshift of finite type given by an ``a x a`` 0/1 letter transition matrix,
the full shift being the all-ones matrix.  Measures are stationary Markov
chains, whose cylinder masses have closed forms; a Bernoulli measure is the
chain whose rows all equal its initial law.  Entropies are in nats
throughout; dimension formulas downstream divide by the log of the metric
contraction in the same base.

Large word sets are handled as sorted ``int64`` arrays of base-``a`` codes
(``code = sum (letter_j - 1) * a**(n - j)``), which keeps lexicographic order
equal to numeric order.  Where letters are needed, ``codes_to_letters``
decodes the codes into an ``(N, n)`` letter matrix.  ``walk_tree`` can
number its words by another numeral instead, such as the cell offsets of a
lattice IFS, and then gives distinct cells where words would outnumber them
(see there).
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
    "numbering",
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


def numbering(a: int, depth: int, numeral=None):
    """``walk_tree``'s ``(m, digits, (first, last))`` for ``numeral``; base-``a`` codes without one.

    Codes have ``digits`` None.  ``first`` and ``last`` are the least and
    greatest number a length-``depth`` word can take: ``min(d) S`` and
    ``max(d) S`` with ``S = (m^n - 1)/(m - 1)`` and d the digits (``0..a-1``
    for codes).  Numbers are int64, so a
    numbering whose largest ``|number|`` at level k, ``max|d| S``, reaches
    2^62 raises ``CapExceeded`` at the first such level, where the number is
    still short to build and print.  This is the one code-range rule: a
    caller checks a walk before it runs by calling it with the walk's
    numbering.
    """
    if numeral is None:
        m, digits, low, high = a, None, 0, a - 1
    else:
        m, digits = numeral[0], np.array(numeral[1], dtype=np.int64)
        if digits.shape != (a,):
            raise ValueError(f"numeral needs one digit per letter, {a}")
        low, high = int(digits.min()), int(digits.max())
    span = 0  # S at level k
    for k in range(1, depth + 1):
        span = span * m + 1
        reach = max(-low, high) * span  # the largest |number| at level k
        if reach >= 2**62:
            raise CapExceeded(reach + 1, 2**62, what=f"code range at level {k} of {depth}")
    return m, digits, (low * span, high * span)


def walk_tree(table: np.ndarray, depth: int, cap: int, rng=None, weigh=None, numeral=None):
    """Grow the word tree one letter per level down to ``depth``.

    ``table`` is ``(a+1, a)``: a word ending in letter ``i+1`` (row ``a``: the
    empty word) passes ``table[i, j]`` times its mass to its child with letter
    ``j+1``.  Children of zero mass are dropped, so a zero entry marks a
    forbidden step.  Masses take the table's dtype.

    With ``rng`` and ``weigh`` each child's mass takes one more factor,
    ``weigh(hashes)``, from the keyed hashes of the children of one block.
    Every node carries its prefix state for each deeper word length
    (``rng.length_states`` at the root); a child's hash is its parent's
    next-length state absorbing its letter (``rng.absorb``), and only the
    survivors absorb their letter into their remaining states.

    An all-True boolean table (the full shift) is never read and no node
    carries a mass: ``weigh`` alone decides, and without ``weigh`` every
    child is kept.  The masses returned are all True, built once at the end;
    the words are those that the same walk on ``table.astype(float)`` gives
    positive mass.

    A step that keeps every child of its block (a lognormal weight is never
    0, and an unweighed full-shift walk keeps everything) builds no index
    array: the children are the parents repeated ``a`` times, each followed
    by letters 1..a in turn, so their numbers are ``repeat(N*m, a)`` plus the
    digits tiled, their rows the tiled ``0..a-1``, and their deeper prefix
    states ``repeat(states[1:], a, axis=1)``: the same values, in the same
    order, that the gathers of a pruning step pick for its kept children.

    The walk runs breadth first until a level holds more than ``_BLOCK``
    nodes, then walks each contiguous block of that level down to ``depth``
    before the next, splitting again wherever a block grows past ``_BLOCK``.
    Blocks go left to right, so the words come out in code order.  A node's
    mass depends only on its word, so level k of this walk is, node for
    node, the leaves of the depth-k walk.

    A node is numbered by its base-``a`` code, ``code(parent)*a + letter - 1``,
    so the codes come out sorted.  With ``numeral=(m, digits)`` it is
    numbered ``N(parent)*m + digits[letter - 1]`` instead: with the
    ``(m, digits)`` of ``AffineIfs.lattice(depth)`` that is the word's cell
    offset ``P(u) = sum_j d(u_j) m^(depth-j)``, which need not be sorted
    or distinct.  A boolean walk so numbered lists its leaf blocks until they
    outnumber the cells of its number range ``[first, last]`` (``numbering``);
    from then on it marks every leaf block in a boolean array over that range
    and returns the marked cells, distinct and in increasing order, with all-True
    masses.  So a many-to-one lattice walk gives its distinct cells, never
    more numbers than the range holds, and no list of every word.

    Returns the numbers and masses of the length-``depth`` words; no
    shallower level outlives its blocks.  Numbers are int64, so a walk
    whose numbers could reach 2^62 in size raises ``CapExceeded`` instead
    of wrapping (``numbering``); so does a level of more than ``cap`` nodes.
    """
    a = table.shape[1]
    m, digits, (first, last) = numbering(a, depth, numeral)
    codes = np.zeros(1, dtype=np.int64)
    masses = np.ones(1, dtype=table.dtype)
    if depth == 0:
        return codes, masses
    full = table.dtype == bool and bool(table.all())
    child_letters = np.tile(np.arange(1, a + 1, dtype=np.uint64), _BLOCK)
    if weigh is None or not full:  # a weighed full-shift walk gathers its kept children at every step
        # the rows and digits of a block's children when every one is kept
        child_rows = np.tile(np.arange(a), _BLOCK)
        child_digits = child_rows if digits is None else np.tile(digits, _BLOCK)
    # states: one row per deeper word length, one column per node
    states = None if weigh is None else rng.length_states(depth)[:, None]
    # a node's row in ``table`` is its last letter - 1; the root's is a
    pending = [(0, codes, np.full(1, a), None if full else masses, states)]
    counts = [0] * depth
    leaf_codes = [np.zeros(0, dtype=np.int64)]
    leaf_masses = [np.zeros(0, dtype=table.dtype)]
    listed, marked = 0, None
    while pending:
        length, codes, row, parent_masses, states = pending.pop()
        children = len(codes) * a
        if weigh is not None:
            hashes = np.repeat(states[0], a)
            rng.absorb(hashes, child_letters[:children])
        if full:
            kept = None if weigh is None else np.flatnonzero(weigh(hashes))
        else:
            masses = np.take(table, row, axis=0).ravel()
            masses *= np.repeat(parent_masses, a)
            if weigh is not None:
                masses *= weigh(hashes)
            keep = masses > 0
            kept = None if keep.all() else np.flatnonzero(keep)
        if kept is None:  # every child kept
            codes = np.repeat(codes * m, a)
            codes += child_digits[:children]
            row, parent = child_rows[:children], None
        else:
            if not full:
                masses = np.take(masses, kept)
            parent = kept // a
            row = kept - parent * a
            codes = np.take(codes, parent) * m + (row if digits is None else np.take(digits, row))
        counts[length] += len(codes)
        if counts[length] > cap:
            raise CapExceeded(counts[length], cap, what="tree nodes")
        length += 1
        if length == depth:
            leaf_codes.append(codes)
            if not full:
                leaf_masses.append(masses)
            listed += len(codes)
            if listed > last - first and digits is not None and table.dtype == bool:
                if marked is None:
                    marked = np.zeros(last - first + 1, dtype=bool)
                for block in leaf_codes:
                    marked[block - first] = True
                del leaf_codes[:], leaf_masses[:]
            continue
        if weigh is not None:
            if parent is None:
                deeper = np.repeat(states[1:], a, axis=1)
                rng.absorb(deeper, child_letters[:children])
            else:
                deeper = np.empty((len(states) - 1, len(parent)), dtype=np.uint64)
                # row by row: a row of a block is contiguous, the block is not
                for state, out in zip(states[1:], deeper):
                    np.take(state, parent, out=out)
                rng.absorb(deeper, row + 1)
            states = deeper
        for start in reversed(range(0, len(codes), _BLOCK)):  # popped left to right
            block = slice(start, start + _BLOCK)
            pending.append(
                (length, codes[block], row[block], None if full else masses[block],
                 None if weigh is None else states[:, block])
            )
    if marked is not None:
        codes = np.flatnonzero(marked)
        codes += first
        return codes, np.ones(len(codes), dtype=bool)
    codes = np.concatenate(leaf_codes)
    if full:
        return codes, np.ones(len(codes), dtype=bool)
    return codes, np.concatenate(leaf_masses)


def _perron(A: np.ndarray):
    """Perron eigenvalue and positive eigenvector (summing to 1) of a
    nonnegative irreducible matrix, by shifted power iteration.

    Iterates with A + I so periodic matrices (e.g. permutations) converge.
    """
    tol = 1e-14
    a = len(A)
    M = A + np.eye(a)
    v = np.full(a, 1.0 / a)
    lam = 0.0
    for _ in range(100_000):
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


@dataclass(frozen=True)
class Subshift:
    """Subshift of finite type on ``{1..a}^N``.

    ``transition[i][j] == 1`` allows letter ``i+1`` to be followed by ``j+1``;
    the full shift is the all-ones matrix.
    """

    transition: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        a = len(self.transition)
        if a < 2:
            raise ValueError("alphabet_size must be >= 2")
        if any(len(r) != a for r in self.transition):
            raise ValueError("transition matrix must be a x a")
        if any(v not in (0, 1) for r in self.transition for v in r):
            raise ValueError("transition entries must be 0/1")
        # letters without a successor are legal, only useless; a matrix with
        # no allowed pair at all has no words past length 1
        if all(sum(r) == 0 for r in self.transition):
            raise ValueError("transition matrix has no allowed pair")

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls, alphabet_size: int) -> "Subshift":
        return cls.sft([[1] * alphabet_size] * alphabet_size)

    @classmethod
    def sft(cls, matrix: Sequence[Sequence[int]]) -> "Subshift":
        # an entry other than 0 or 1 is kept as it is, for the 0/1 check to refuse
        return cls(tuple(tuple(int(v) if v in (0, 1) else v for v in r) for r in matrix))

    @classmethod
    def golden_mean(cls) -> "Subshift":
        """Two letters, the pair '22' forbidden."""
        return cls.sft([[1, 1], [1, 0]])

    # -- structure ------------------------------------------------------

    @property
    def alphabet_size(self) -> int:
        return len(self.transition)

    @property
    def is_full_shift(self) -> bool:
        return all(all(r) for r in self.transition)

    def matrix(self) -> np.ndarray:
        return np.array(self.transition, dtype=np.int64)

    def is_irreducible(self) -> bool:
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
        # the entries of the live-restricted A^(n-1), summed; object dtype
        # keeps Python integers, so the count never wraps
        live = self._live_letters()
        sub = self.matrix()[np.ix_(live, live)].astype(object)
        return int(np.linalg.matrix_power(sub, n - 1).sum())

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

    def admissible_codes(self, n: int) -> np.ndarray:
        """Sorted int64 codes of the admissible length-n words, at most ``DEFAULT_WORD_CAP``."""
        if n < 0:
            raise ValueError("n must be >= 0")
        _capped_word_count(self, n)
        codes, _ = walk_tree(self.successor_table(), n, DEFAULT_WORD_CAP)
        return codes

    # -- spectral quantities ----------------------------------------------

    def _perron(self):
        if not self.is_irreducible():
            raise NotIrreducible("transition matrix is not irreducible")
        return _perron(self.matrix().astype(float))

    def topological_entropy(self) -> float:
        """log of the Perron eigenvalue; exactly log(a) for the full shift."""
        if self.is_full_shift:
            return math.log(self.alphabet_size)
        lam, _ = self._perron()
        return math.log(lam)

    def parry_measure(self) -> "SymbolicMeasure":
        """The Markov measure of maximal entropy of an irreducible SFT;
        exactly uniform on the full shift."""
        if self.is_full_shift:
            return SymbolicMeasure.uniform(self.alphabet_size)
        lam, v = self._perron()
        A = self.matrix().astype(float)
        _, u = _perron(A.T)
        P = A * v[None, :] / (lam * v[:, None])
        pi = u * v
        pi = pi / pi.sum()
        return SymbolicMeasure.markov(pi, P)


def _capped_word_count(x: Subshift, n: int) -> int:
    """``x.word_count(n)``, refused with ``CapExceeded`` past ``DEFAULT_WORD_CAP``."""
    count = x.word_count(n)
    if count > DEFAULT_WORD_CAP:
        raise CapExceeded(count, DEFAULT_WORD_CAP, what="words")
    return count


@dataclass(frozen=True)
class SymbolicMeasure:
    """Stationary Markov measure on the one-sided shift.

    A Bernoulli measure is the chain whose transition rows all equal its
    initial law.
    """

    initial: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]

    @classmethod
    def bernoulli(cls, probs: Iterable[float]) -> "SymbolicMeasure":
        p = tuple(float(x) for x in probs)
        if len(p) < 2:
            raise ValueError("need at least two letters")
        if not all(0.0 <= x <= 1.0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        return cls(p, (p,) * len(p))

    @classmethod
    def uniform(cls, alphabet_size: int) -> "SymbolicMeasure":
        return cls.bernoulli([1.0 / alphabet_size] * alphabet_size)

    @classmethod
    def markov(cls, initial: Iterable[float], transition: Sequence[Sequence[float]]) -> "SymbolicMeasure":
        P = np.array([[float(v) for v in row] for row in transition], dtype=float)
        a = P.shape[0]
        if P.shape != (a, a) or a < 2:
            raise ValueError("transition must be square, a >= 2")
        if not np.isfinite(P).all() or (P < -1e-15).any() or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must be probability vectors")
        pi = np.array([float(x) for x in initial], dtype=float)
        if pi.shape != (a,) or not np.isfinite(pi).all() or (pi < -1e-15).any() or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("initial must be a probability vector of length a")
        if np.max(np.abs(pi @ P - pi)) > 1e-10:
            pi = _perron(P.T)[1]
            warnings.warn(
                "initial distribution is not stationary; replaced by the "
                "stationary distribution of the transition matrix",
                NonStationaryWarning,
            )
        return cls(tuple(float(x) for x in pi), tuple(tuple(float(v) for v in row) for row in P))

    # -- basic facts ------------------------------------------------------

    @property
    def alphabet_size(self) -> int:
        return len(self.initial)

    def entropy(self) -> float:
        """Measure-theoretic entropy in nats (0*log 0 = 0).

        This is the asymptotic cylinder decay rate, which weights the
        transition rows by the stationary distribution; fibre measures
        restarted from a transition row therefore keep the entropy of the
        chain.  When every row equals the initial law (a Bernoulli measure)
        it is -sum p log p of that law.
        """
        P = np.array(self.transition)
        pi = np.array(self.initial)
        if (P == pi).all():
            return float(-_xlogx(pi).sum())
        if np.max(np.abs(pi @ P - pi)) > 1e-9:
            pi = _perron(P.T)[1]
        return float(-(pi[:, None] * _xlogx(P)).sum())

    # -- cylinder masses ----------------------------------------------------

    def cylinder_mass_batch(self, letters: np.ndarray) -> np.ndarray:
        """Vector of cylinder masses for an (N, n) letter matrix."""
        letters = np.asarray(letters)
        if letters.ndim != 2:
            raise ValueError("expected a 2-d letter matrix")
        if letters.shape[1] == 0:
            return np.ones(letters.shape[0])
        P = np.array(self.transition)
        out = np.array(self.initial)[letters[:, 0] - 1].copy()
        for j in range(1, letters.shape[1]):
            out *= P[letters[:, j - 1] - 1, letters[:, j] - 1]
        return out

    def step_table(self) -> np.ndarray:
        """``(a+1, a)`` next-letter probabilities: row ``i`` after letter ``i+1``,
        row ``a`` for the first letter."""
        return np.vstack([self.transition, self.initial])

    # -- conditioning on the past --------------------------------------------

    def fibre(self, last_past_letter: int) -> "SymbolicMeasure":
        """Conditional law of the future given a past ending in the letter.

        The conditional distribution of the future given the whole past
        depends on the last past symbol only: it is the chain restarted from
        the corresponding transition row.  A measure whose restart row is its
        initial law (every Bernoulli measure) is its own fibre.
        """
        if not 1 <= last_past_letter <= self.alphabet_size:
            raise ValueError("letter outside alphabet")
        row = self.transition[last_past_letter - 1]
        if row == self.initial:
            return self
        return SymbolicMeasure(row, self.transition)

    # -- sampling ---------------------------------------------------------

    def sample_letters(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) letter matrix of i.i.d. words drawn from the measure."""
        if n < 0:
            raise ValueError("n must be >= 0")
        a = self.alphabet_size
        out = np.empty((count, n), dtype=np.uint8)
        cum = np.cumsum(self.step_table(), axis=1)
        u = rng.random((count, n))
        cur = np.full(count, a)  # row a of the step table: the first letter
        for j in range(n):
            # the entries of a cumulative row at or below u: searchsorted(row, u, "right")
            cur = (u[:, j : j + 1] >= cum[cur]).sum(axis=1)
            np.minimum(cur, a - 1, out=cur)
            out[:, j] = cur + 1
        return out
