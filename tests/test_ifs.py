import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadim import AffineIfs, Subshift, gamma_estimate, overlap_count
from cascadim.errors import CapExceeded
from cascadim.symbolic import codes_to_letters
from oracles import apply_word, canonical_point, contraction, cylinder_interval

EX_OVERLAP = AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.0), (0.5, 0.5)])


class TestAffineIfs:
    def test_ratio_range_enforced(self):
        with pytest.raises(ValueError):
            AffineIfs.from_maps([(1.0, 0.0), (0.5, 0.5)])

    @pytest.mark.parametrize("maps", [[(0.5, 0.0), (0.5, math.inf)], [(0.5, math.nan)], [(math.nan, 0.0)]])
    def test_non_finite_maps_rejected(self, maps):
        with pytest.raises(ValueError, match="finite"):
            AffineIfs.from_maps(maps)

    def test_tiling_hull(self, tiling2):
        assert tiling2.attractor_min == 0.0
        assert tiling2.attractor_max == 1.0
        assert tiling2.diameter == 1.0

    def test_mixed_ratio_hull_is_fixed_point_envelope(self):
        ifs = AffineIfs.from_maps([(0.1, 0.0), (0.9, -0.05)])
        assert ifs.attractor_min == pytest.approx(-0.5)
        assert ifs.attractor_max == pytest.approx(0.0)


class TestCanonicalPoint:
    def test_tiling_single_letter(self, tiling2):
        assert canonical_point(tiling2, (2,), tail=1) == 0.5

    def test_empty_word_gives_tail_fixed_point(self, tiling2):
        assert canonical_point(tiling2, (), tail=2) == 1.0

    def test_composition_oracle(self):
        ifs = AffineIfs.from_maps([(0.4, -1.0), (0.4, 1.0)])
        fix1 = -1.0 / (1.0 - 0.4)
        expected = 0.4 * (0.4 * fix1 - 1.0) + 1.0
        assert canonical_point(ifs, (2, 1), tail=1) == pytest.approx(expected, abs=0)

    @given(st.lists(st.integers(1, 2), max_size=6), st.lists(st.integers(1, 2), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_composition_associativity(self, u, v):
        ifs = AffineIfs.from_maps([(0.4, -1.0), (0.55, 0.3)])
        left = canonical_point(ifs, tuple(u) + tuple(v), tail=1)
        right = apply_word(ifs, tuple(u), canonical_point(ifs, tuple(v), tail=1))
        assert left == right  # identical composition order, bitwise

    def test_tail_distance_bound(self, tiling2):
        u = (1, 2, 1, 2)
        p1 = canonical_point(tiling2, u, tail=1)
        p2 = canonical_point(tiling2, u, tail=2)
        assert abs(p1 - p2) <= tiling2.diameter * contraction(tiling2, u)


class TestCylinderInterval:
    def test_tiling_first_letter(self, tiling2):
        assert cylinder_interval(tiling2, (1,)) == (0.0, 0.5)

    def test_exact_overlap_letters_coincide(self):
        i1 = cylinder_interval(EX_OVERLAP, (1,))
        i2 = cylinder_interval(EX_OVERLAP, (2,))
        assert i1 == i2 == (0.0, 0.5)

    def test_length_scales_by_ratio_power(self, tiling2):
        for n in (1, 3, 6):
            lo, hi = cylinder_interval(tiling2, tuple([1] * n))
            assert hi - lo == pytest.approx(0.5**n * tiling2.diameter, abs=1e-15)

    @given(st.lists(st.integers(1, 2), max_size=5), st.lists(st.integers(1, 2), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_nestedness(self, u, v):
        ifs = AffineIfs.from_maps([(0.5, 0.0), (0.3, 0.6)])
        lo_u, hi_u = cylinder_interval(ifs, tuple(u))
        lo_uv, hi_uv = cylinder_interval(ifs, tuple(u) + tuple(v))
        assert lo_u - 1e-12 <= lo_uv and hi_uv <= hi_u + 1e-12


NON_DYADIC = {
    "bernoulli-pair-0.4": AffineIfs.bernoulli_pair(0.4),
    "unequal-3-map": AffineIfs.from_maps([(0.3, 0.0), (0.45, 0.2), (0.17, 0.8)]),
}


class TestCodesAgainstLetterPath:
    """The suffix-table coding map against decoding every word in full."""

    @staticmethod
    def _cases(a):
        rng = np.random.default_rng(17)
        return {
            "single code": (np.array([a**7 - 2]), 7),
            "fewer codes than a": (np.arange(a - 1), 4),
            "all a^n codes": (np.arange(a**6), 6),
            "length 1": (np.arange(a), 1),
            "length 1, one code": (np.array([a - 1]), 1),
            "sparse": (np.unique(rng.integers(0, a**12, 3000)), 12),
            "empty": (np.zeros(0, dtype=np.int64), 5),
        }

    @pytest.mark.parametrize("name", list(NON_DYADIC), ids=list(NON_DYADIC))
    def test_bitwise_equal_to_letter_matrix(self, name):
        ifs = NON_DYADIC[name]
        a = ifs.alphabet_size
        for case, (codes, length) in self._cases(a).items():
            letters = codes_to_letters(codes, length, a)
            for x0 in (ifs.attractor_min, ifs.attractor_max, ifs.fixed_point(1), 0.3):
                got = ifs.points_for_codes(codes, length, x0)
                assert np.array_equal(got, ifs.points_for_letters(letters, x0)), case
                assert got.flags.writeable
            los, his = ifs.intervals_for_codes(codes, length)
            assert np.array_equal(los, ifs.points_for_letters(letters, ifs.attractor_min)), case
            assert np.array_equal(his, ifs.points_for_letters(letters, ifs.attractor_max)), case
            assert los.flags.writeable and his.flags.writeable

    @pytest.mark.parametrize("name", list(NON_DYADIC), ids=list(NON_DYADIC))
    def test_bitwise_equal_to_per_word_oracle(self, name):
        ifs = NON_DYADIC[name]
        codes = np.arange(ifs.alphabet_size**5)
        words = codes_to_letters(codes, 5, ifs.alphabet_size).tolist()
        points = ifs.points_for_codes(codes, 5, ifs.fixed_point(1))
        assert np.array_equal(points, [canonical_point(ifs, w) for w in words])
        los, his = ifs.intervals_for_codes(codes, 5)
        assert np.array_equal(np.column_stack([los, his]), [cylinder_interval(ifs, w) for w in words])


class TestContractions:
    def test_unequal_ratios_match_per_word_product(self):
        ifs = AffineIfs.from_maps([(0.3, 0.0), (0.5, 0.5)])
        assert ifs.equal_ratio is None
        codes = np.arange(2**6)
        expected = [contraction(ifs, w) for w in codes_to_letters(codes, 6, 2).tolist()]
        got = ifs.contractions_for_codes(codes, 6)
        assert np.array_equal(got, expected)  # same left-to-right order: exact
        assert len(np.unique(got)) == 7  # 0.3^k 0.5^(6-k), k = 0..6


def _overlap_oracle(x, ifs, n):
    """Independent O(N^2) overlap counter: test every event point directly."""
    delta = ifs.equal_ratio
    codes = x.admissible_codes(n)
    los, his = ifs.intervals_for_codes(codes, n)
    r = delta**n
    candidates = np.concatenate([los - r, his + r])
    best = 0
    for c in candidates:
        best = max(best, int(((los <= c + r) & (his >= c - r)).sum()))
    return best


class TestOverlapCount:
    def test_tiling_value_from_oracle(self, tiling2):
        full2 = Subshift.full(2)
        for n in (3, 6):
            oracle = _overlap_oracle(full2, tiling2, n)
            assert overlap_count(full2, tiling2, n) == oracle
        assert overlap_count(full2, tiling2, 6) == 4  # frozen from the oracle
        assert 3 <= overlap_count(full2, tiling2, 6) <= 4

    def test_single_letter_loop_is_one(self, tiling2):
        loop = Subshift.sft([[1, 0], [0, 0]])
        for n in (1, 4, 7):
            assert overlap_count(loop, tiling2, n) == 1

    def test_exact_overlap_digit_collisions(self):
        # letters 1,2 share a dyadic digit: the all-zeros cell has 2^n preimages
        assert overlap_count(Subshift.full(3), EX_OVERLAP, 10) >= 2**10

    def test_oracle_agreement_overlapping(self):
        full3 = Subshift.full(3)
        for n in (2, 4, 6):
            assert overlap_count(full3, EX_OVERLAP, n) == _overlap_oracle(full3, EX_OVERLAP, n)

    def test_translation_and_scaling_equivariance(self):
        full2 = Subshift.full(2)
        base = AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.5)])
        n = 5
        expected = overlap_count(full2, base, n)
        for c, d in ((1.0, 0.7), (3.0, -1.2), (0.25, 0.0)):
            moved = AffineIfs.from_maps([(0.5, c * t + d) for t in base.translations])
            assert overlap_count(full2, moved, n, radius=c * 0.5**n) == expected

    def test_separated_system_bounded_by_four(self):
        full2 = Subshift.full(2)
        separated = AffineIfs.from_maps([(0.3, 0.0), (0.3, 0.7)])
        for n in (2, 5, 8):
            assert overlap_count(full2, separated, n) <= 4

    def test_mixed_ratio_rejected(self):
        mixed = AffineIfs.from_maps([(0.4, 0.0), (0.5, 0.5)])
        with pytest.raises(ValueError):
            overlap_count(Subshift.full(2), mixed, 3)

    def test_cap_propagates(self, tiling2):
        with pytest.raises(CapExceeded):
            overlap_count(Subshift.full(2), tiling2, 12, cap=100)


class TestGamma:
    def test_tiling_flat(self, tiling2):
        prof = gamma_estimate(Subshift.full(2), tiling2, 12)
        assert prof.gamma_estimate <= 0.05
        assert all(t <= 4 for t in prof.counts)

    def test_exact_overlap_is_one(self):
        prof = gamma_estimate(Subshift.full(3), EX_OVERLAP, 11)
        assert 0.95 <= prof.gamma_estimate <= 1.05

    def test_golden_mean_flat(self, golden_mean, tiling2):
        prof = gamma_estimate(golden_mean, tiling2, 12)
        assert prof.gamma_estimate <= 0.05

    def test_window_is_top_half(self, tiling2):
        prof = gamma_estimate(Subshift.full(2), tiling2, 9)
        assert prof.fit_window == (5, 9)
        assert len(prof.counts) == 9
