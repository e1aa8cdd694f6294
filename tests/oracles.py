"""Per-word reference definitions, the independent oracles of the batch paths.

The library handles word sets as base-a codes or ``(N, n)`` letter matrices
only.  The functions here take one word as a tuple of letters in ``1..a`` and
evaluate it the slow, obvious way, so the tests can check the vectorized
paths against them: ``cylinder_mass`` against
``SymbolicMeasure.cylinder_mass_batch``, ``apply_word``, ``canonical_point``
and ``cylinder_interval`` against ``AffineIfs.points_for_codes`` and
``intervals_for_codes``, ``contraction`` against ``contractions_for_codes``,
and ``draw_weight`` against the keyed tree walk.
"""
import numpy as np

from cascadim.cascade import _to_uniform


def cylinder_mass(measure, letters) -> float:
    """Mass of the cylinder [u] under a Bernoulli or Markov ``SymbolicMeasure``."""
    letters = tuple(letters)
    if not letters:
        return 1.0
    for l in letters:
        if not 1 <= l <= measure.alphabet_size:
            raise ValueError(f"letter {l} outside alphabet")
    if measure.kind == "bernoulli":
        p = measure.probs
        out = 1.0
        for l in letters:
            out *= p[l - 1]
        return out
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


def draw_weight(law, rng, letters) -> float:
    """One realization of V keyed to the word; repeated calls are identical."""
    letters = tuple(letters)
    mat = np.array([letters], dtype=np.uint64).reshape(1, len(letters))
    u = _to_uniform(rng.word_hashes(mat))
    return float(law.weights_from_uniforms(u)[0])
