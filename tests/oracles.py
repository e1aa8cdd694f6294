"""Per-word reference definitions, the independent oracles of the batch paths.

The library handles word sets as base-a codes or ``(N, n)`` letter matrices
only.  The functions here take one word as a tuple of letters in ``1..a`` and
evaluate it the slow, obvious way, so the tests can check the vectorized
paths against them: ``cylinder_mass`` against
``SymbolicMeasure.cylinder_mass_batch``, ``apply_word``, ``canonical_point``
and ``cylinder_interval`` against ``AffineIfs.points_for_codes``,
``contraction`` against ``contractions_for_codes``, ``cell_offset``
against the cell numbering of the tree walk, ``draw_weight`` against the
keyed tree walk, and ``merged_atoms`` against ``AtomicMeasure``'s sort and
merge.  ``cell_offsets`` takes base-a codes and sums ``cell_offset``'s
definition over all of them at once, and ``walked_numbers`` turns the
numbers of a walk's words into what a boolean walk numbered that way
returns.  ``counter_hashes`` and
``sampled_pairs`` draw a sampled product whole, every key of a counter
stream in one array and a plain search per factor, against the chunked
draw of ``product`` and ``convolve``.

``LATTICE_IFS`` holds the systems that ``AffineIfs.lattice`` routes, each
with a subshift and a keep probability, for the tests of every lattice path.
"""
import numpy as np

from cascadim import AffineIfs, Subshift
from cascadim.cascade import _COUNTER_SALT, _STREAM_SALT, _mix64, _to_uniform
from cascadim.symbolic import codes_to_letters

EX_OVERLAP = AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.0), (0.5, 0.5)])

LATTICE_IFS = {
    "exact overlap": (EX_OVERLAP, Subshift.full(3), 0.62),
    "tiling(2)": (AffineIfs.tiling(2), Subshift.full(2), 0.8),
    "tiling(2), golden mean": (AffineIfs.tiling(2), Subshift.golden_mean(), 0.9),
    "hull width 2": (AffineIfs.from_maps([(0.5, 0.0), (0.5, 1.0)]), Subshift.full(2), 0.8),
    "tiling(4)": (AffineIfs.tiling(4), Subshift.full(4), 0.5),
    "ratio 1/4, three maps": (AffineIfs.from_maps([(0.25, 0.0), (0.25, 0.5), (0.25, 0.75)]), Subshift.full(3), 0.7),
    "hull [-1, 1]": (AffineIfs.from_maps([(0.5, -0.5), (0.5, 0.5)]), Subshift.full(2), 0.8),
    "degenerate hull": (AffineIfs.from_maps([(0.5, 0.5), (0.5, 0.5)]), Subshift.full(2), 0.8),
}


def cylinder_mass(measure, letters) -> float:
    """Mass of the cylinder [u] under a ``SymbolicMeasure``: initial law, then transitions."""
    letters = tuple(letters)
    if not letters:
        return 1.0
    for l in letters:
        if not 1 <= l <= measure.alphabet_size:
            raise ValueError(f"letter {l} outside alphabet")
    P = measure.transition
    out = measure.initial[letters[0] - 1]
    for prev, cur in zip(letters, letters[1:]):
        out *= P[prev - 1][cur - 1]
    return out


def apply_word(ifs, letters, x: float) -> float:
    """f_u(x): the maps of the letters of u applied right to left."""
    for l in reversed(tuple(letters)):
        x = ifs.ratios[l - 1] * x + ifs.translations[l - 1]
    return x


def canonical_point(ifs, letters, tail: int = 1) -> float:
    """Image of the sequence u . tail^infinity under the coding map.

    Exact: the composed map applied to the fixed point of the tail letter.
    Any other continuation of u lands within diameter * prod(ratios of u).
    """
    return apply_word(ifs, letters, ifs.fixed_point(tail))


def cylinder_interval(ifs, letters) -> tuple[float, float]:
    """The image of the cylinder [u]: f_u applied to the attractor hull."""
    return apply_word(ifs, letters, ifs.attractor_min), apply_word(ifs, letters, ifs.attractor_max)


def contraction(ifs, letters) -> float:
    """The contraction ratio of f_u, multiplied left to right."""
    out = 1.0
    for l in letters:
        out *= ifs.ratios[l - 1]
    return out


def cell_offset(ifs, letters) -> int:
    """P(u) = sum_j d(u_j) m^(n-j), the integer cell of u on the grid of ``ifs.lattice(n)``, n = len(u).

    The cylinder image of u is ``[(P(u) + lo) / m^n, (P(u) + hi) / m^n]``.
    """
    letters = tuple(letters)
    n = len(letters)
    m, digits, _, _ = ifs.lattice(n)
    return sum(digits[l - 1] * m ** (n - j) for j, l in enumerate(letters, 1))


def cell_offsets(ifs, codes, length) -> np.ndarray:
    """``cell_offset`` of the word of each base-a code of the given length, as int64.

    The same sum, taken term by term over the decoded letter columns, so it
    serves word sets too large for a loop in Python; every term and partial
    sum is an integer below 2^53 wherever the lattice routes.
    """
    m, digits, _, _ = ifs.lattice(length)
    letters = codes_to_letters(codes, length, ifs.alphabet_size)
    d = np.array(digits, dtype=np.int64)
    out = np.zeros(len(letters), dtype=np.int64)
    for j in range(1, length + 1):
        out += d[letters[:, j - 1] - 1] * m ** (length - j)
    return out


def walked_numbers(numbers, numeral, length):
    """What a boolean walk numbered by ``numeral = (m, digits)`` returns for words of these ``numbers``, in walk order.

    A length-n number lies in [first, last] = [min(d) S, max(d) S] with
    S = 1 + m + ... + m^(n-1).  While the words number at most ``last - first``
    the walk lists them, one number per word; past that it marks them and
    gives the distinct numbers in increasing order.  Returns those numbers
    and whether they are marked.
    """
    m, digits = numeral
    span = sum(m**j for j in range(length))
    marked = len(numbers) > (max(digits) - min(digits)) * span
    return (np.unique(numbers) if marked else numbers), marked


def draw_weight(law, rng, letters) -> float:
    """One realization of V keyed to the word; repeated calls are identical."""
    letters = tuple(letters)
    mat = np.array([letters], dtype=np.uint64).reshape(1, len(letters))
    u = _to_uniform(rng.word_hashes(mat))
    return float(law.weights_from_uniforms(u)[0])


def merged_atoms(points, weights):
    """Atoms stable-sorted by point, each run of equal points merged by ``np.add.reduceat``."""
    points = np.asarray(points, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(points, kind="stable")
    points, weights = points[order], weights[order]
    if points.size < 2:
        return points, weights
    starts = np.flatnonzero(np.concatenate([[True], points[1:] != points[:-1]]))
    return points[starts], np.add.reduceat(weights, starts)


def counter_hashes(rng, salt, n) -> np.ndarray:
    """The first ``n`` hashes of ``rng``'s counter stream ``salt``, built as one array of ``n`` keys."""
    with np.errstate(over="ignore"):
        root = _mix64(np.array([rng.master_seed], dtype=np.uint64))
        base = _mix64(root ^ (_STREAM_SALT + np.uint64(salt)))
        return _mix64(base ^ (_COUNTER_SALT + np.arange(n, dtype=np.uint64)))


def sampled_pairs(m1, m2, atom_cap, rng):
    """The index pairs (i, j) of a sampled product, drawn whole.

    ``atom_cap`` uniforms of the counter streams 0xA1 (for i) and 0xA2 (for
    j), each answered by ``min(searchsorted(cumsum(w) / total, u, "right"), n - 1)``.
    """

    def draw(m, salt):
        cdf = np.cumsum(m.weights) / m.total_weight
        u = _to_uniform(counter_hashes(rng, salt, atom_cap))
        return np.minimum(np.searchsorted(cdf, u, side="right"), len(m) - 1)

    return draw(m1, 0xA1), draw(m2, 0xA2)
