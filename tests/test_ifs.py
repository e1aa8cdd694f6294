import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadim import AffineIfs, Subshift, gamma_estimate, ifs as ifs_module, overlap_count
from cascadim.errors import CapExceeded
from cascadim.symbolic import codes_to_letters, walk_tree
from oracles import (
    EX_OVERLAP,
    LATTICE_IFS,
    apply_word,
    canonical_point,
    cell_offset,
    cell_offsets,
    contraction,
    cylinder_interval,
    walked_numbers,
)


class TestAffineIfs:
    def test_ratio_range_enforced(self):
        with pytest.raises(ValueError):
            AffineIfs.from_maps([(1.0, 0.0), (1.0, 0.5)])

    @pytest.mark.parametrize("maps", [[(0.4, 0.0), (0.5, 0.5)], [(0.5, 0.0), (0.5, 0.5), (0.25, 0.75)], []])
    def test_mixed_ratio_rejected(self, maps):
        # one contraction ratio per IFS: maps of two ratios, or none, are refused
        with pytest.raises(ValueError, match="share one ratio"):
            AffineIfs.from_maps(maps)

    @pytest.mark.parametrize("maps", [[(0.5, 0.0), (0.5, math.inf)], [(0.5, math.nan)], [(math.nan, 0.0)]])
    def test_non_finite_maps_rejected(self, maps):
        with pytest.raises(ValueError, match="finite"):
            AffineIfs.from_maps(maps)

    def test_tiling_hull(self, tiling2):
        assert tiling2.attractor_min == 0.0
        assert tiling2.attractor_max == 1.0
        assert tiling2.diameter == 1.0

    def test_hull_is_fixed_point_envelope(self):
        ifs = AffineIfs.from_maps([(0.4, 0.0), (0.4, -0.05), (0.4, 0.3)])
        assert ifs.attractor_min == pytest.approx(-0.05 / 0.6)
        assert ifs.attractor_max == pytest.approx(0.5)


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
        ifs = AffineIfs.from_maps([(0.4, -1.0), (0.4, 0.3)])
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
        ifs = AffineIfs.from_maps([(0.4, 0.0), (0.4, 0.6)])
        lo_u, hi_u = cylinder_interval(ifs, tuple(u))
        lo_uv, hi_uv = cylinder_interval(ifs, tuple(u) + tuple(v))
        assert lo_u - 1e-12 <= lo_uv and hi_uv <= hi_u + 1e-12


NON_DYADIC = {
    "bernoulli-pair-0.4": AffineIfs.bernoulli_pair(0.4),
    "ratio-0.3-3-map": AffineIfs.from_maps([(0.3, 0.0), (0.3, 0.2), (0.3, 0.8)]),
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

    @pytest.mark.parametrize("name", list(NON_DYADIC), ids=list(NON_DYADIC))
    def test_bitwise_equal_to_per_word_oracle(self, name):
        ifs = NON_DYADIC[name]
        codes = np.arange(ifs.alphabet_size**5)
        words = codes_to_letters(codes, 5, ifs.alphabet_size).tolist()
        points = ifs.points_for_codes(codes, 5, ifs.fixed_point(1))
        assert np.array_equal(points, [canonical_point(ifs, w) for w in words])
        los = ifs.points_for_codes(codes, 5, ifs.attractor_min)
        his = ifs.points_for_codes(codes, 5, ifs.attractor_max)
        assert np.array_equal(np.column_stack([los, his]), [cylinder_interval(ifs, w) for w in words])


    @pytest.mark.parametrize("name", list(NON_DYADIC), ids=list(NON_DYADIC))
    def test_hull_images_decode_once(self, name, monkeypatch):
        ifs = NON_DYADIC[name]
        decoded = []

        def counted(codes, length, a):
            decoded.append(len(codes))
            return codes_to_letters(codes, length, a)

        monkeypatch.setattr(ifs_module, "codes_to_letters", counted)
        for case, (codes, length) in self._cases(ifs.alphabet_size).items():
            decoded.clear()
            los, his = ifs.hull_images(codes, length)
            assert decoded == [len(codes)], case
            assert los.tobytes() == ifs.points_for_codes(codes, length, ifs.attractor_min).tobytes(), case
            assert his.tobytes() == ifs.points_for_codes(codes, length, ifs.attractor_max).tobytes(), case


class TestLatticeOffsets:
    """The integer cell offsets P(u) = sum_j d(u_j) m^(n-j) against the per-word sum."""

    SYSTEMS = {
        # name: (ifs, the depth of the whole walk); the walks of all a^n words
        "exact overlap": (EX_OVERLAP, 7),  # 2187 words on 128 cells: marked
        # 1024 words on 1024 cells: marked, the boundary; walk order is not cell order
        "ratio 1/4, digits (3, 0, 1, 2)": (
            AffineIfs.from_maps([(0.25, 0.75), (0.25, 0.0), (0.25, 0.25), (0.25, 0.5)]),
            5,
        ),
        "bernoulli_pair(0.5)": (AffineIfs.bernoulli_pair(0.5), 7),  # 128 words on 509 cells: listed
        "ratio 1/4, three maps": (AffineIfs.from_maps([(0.25, 0.0), (0.25, 0.5), (0.25, 0.75)]), 7),  # listed
        # 9 words on 10 cells, 0..9: listed, the boundary; 3 and 3 repeat
        "digits (0, 1, 3)": (AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.5), (0.5, 1.5)]), 2),
    }

    @pytest.mark.parametrize("name", list(SYSTEMS), ids=list(SYSTEMS))
    def test_offsets_match_per_word_sums(self, name):
        # the walk's cell numbering and the batch oracle against the per-word
        # sum: word for word, or the distinct cells where the walk marks
        ifs, depth = self.SYSTEMS[name]
        a = ifs.alphabet_size
        numeral = ifs.lattice(depth)[:2]
        walked = walk_tree(Subshift.full(a).successor_table(), depth, numeral=numeral)[0]
        sparse = np.unique(np.random.default_rng(4).integers(0, a**20, 30))
        last = np.array([a**9 - 1])
        cases = {
            "all a^n words, numbered by the walk": (np.arange(a**depth), depth, walked),
            "sparse, length 20": (sparse, 20, cell_offsets(ifs, sparse, 20)),
            "one code": (last, 9, cell_offsets(ifs, last, 9)),
        }
        for case, (codes, length, got) in cases.items():
            assert got.dtype == np.int64, case
            letters = codes_to_letters(codes, length, a).tolist()
            per_word = np.array([cell_offset(ifs, w) for w in letters])
            if got is walked:
                per_word, marked = walked_numbers(per_word, numeral, length)
                assert marked == (name in ("exact overlap", "ratio 1/4, digits (3, 0, 1, 2)")), case
            assert got.tolist() == per_word.tolist(), case


def _overlap_oracle(x, ifs, n):
    """Independent O(N^2) overlap counter: test every event point directly."""
    delta = ifs.ratio
    codes = x.admissible_codes(n)
    los = ifs.points_for_codes(codes, n, ifs.attractor_min)
    his = ifs.points_for_codes(codes, n, ifs.attractor_max)
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
        systems = {
            "exact overlap": (Subshift.full(3), EX_OVERLAP),
            "image-bound-only maps": (Subshift.full(3), AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.1), (0.5, 0.5)])),
            "hull width 2": (Subshift.full(2), AffineIfs.from_maps([(0.5, 0.0), (0.5, 1.0)])),
            "bernoulli_pair(0.4)": (Subshift.full(2), AffineIfs.bernoulli_pair(0.4)),
            "separated 0.3 pair": (Subshift.full(2), AffineIfs.from_maps([(0.3, 0.0), (0.3, 0.7)])),
        }
        for name, (x, ifs) in systems.items():
            for n in (2, 4, 6):
                assert overlap_count(x, ifs, n) == _overlap_oracle(x, ifs, n), (name, n)

    def test_translation_equivariance(self):
        full2 = Subshift.full(2)
        base = AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.5)])
        n = 5
        moved = AffineIfs.from_maps([(0.5, t + 0.7) for t in base.translations])
        assert overlap_count(full2, moved, n) == overlap_count(full2, base, n)

    def test_separated_system_bounded_by_four(self):
        full2 = Subshift.full(2)
        separated = AffineIfs.from_maps([(0.3, 0.0), (0.3, 0.7)])
        for n in (2, 5, 8):
            assert overlap_count(full2, separated, n) <= 4

    def test_cap_propagates(self, tiling2):
        with pytest.raises(CapExceeded):
            overlap_count(Subshift.full(2), tiling2, 25)  # 2^25 words, past DEFAULT_WORD_CAP


def _subshifts(a):
    """Full, golden-mean-like (the last letter may not repeat) and dead-end (the last letter has no successor)."""
    no_repeat = [[1] * a for _ in range(a)]
    no_repeat[-1][-1] = 0
    dead_end = [[1] * a for _ in range(a - 1)] + [[0] * a]
    return {"full": Subshift.full(a), "golden mean": Subshift.sft(no_repeat), "dead end": Subshift.sft(dead_end)}


class TestLatticeOverlapCount:
    """overlap_count's cell histogram against the float path and the oracle, n = 1..8.

    The histogram runs only where ``cell_range`` spans at most as many cells
    as there are words; elsewhere the words are listed (``admissible_codes``).
    ``ROUTES`` holds the paths each system takes over the three subshifts.
    The float path is forced by routing no lattice.
    """

    ROUTES = {
        "exact overlap": {"cells"},
        "tiling(2)": {"cells", "words"},
        "tiling(2), golden mean": {"cells", "words"},
        "hull width 2": {"words"},
        "tiling(4)": {"cells", "words"},
        "ratio 1/4, three maps": {"words"},
        "hull [-1, 1]": {"words"},
        "degenerate hull": {"cells"},
    }

    @staticmethod
    def _routes(ifs, monkeypatch):
        listed = []
        admissible = Subshift.admissible_codes

        def counted(self, n):
            listed.append(n)
            return admissible(self, n)

        monkeypatch.setattr(Subshift, "admissible_codes", counted)
        routes = set()
        for name, x in _subshifts(ifs.alphabet_size).items():
            for n in range(1, 9):
                first, last = ifs.cell_range(n)
                on_cells = last - first < x.word_count(n)
                listed.clear()
                got = overlap_count(x, ifs, n)
                assert listed == ([] if on_cells else [n]), (name, n)
                routes.add("cells" if on_cells else "words")
                with monkeypatch.context() as unrouted:
                    unrouted.setattr(AffineIfs, "lattice", lambda self, length: None)
                    assert overlap_count(x, ifs, n) == got, (name, n)
                if x.word_count(n) <= 300:
                    assert _overlap_oracle(x, ifs, n) == got, (name, n)
        return routes

    @pytest.mark.parametrize("name", list(LATTICE_IFS), ids=list(LATTICE_IFS))
    def test_equals_float_path_and_oracle(self, name, monkeypatch):
        assert self._routes(LATTICE_IFS[name][0], monkeypatch) == self.ROUTES[name]

    def test_sparse_lattice_lists_the_words(self, monkeypatch):
        # digits (0, 3) at ratio 1/4: 4^n cells for 2^n words
        sparse = AffineIfs.from_maps([(0.25, 0.0), (0.25, 0.75)])
        assert sparse.lattice(8) == (4, (0, 3), 0, 1)
        assert self._routes(sparse, monkeypatch) == {"words"}


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
