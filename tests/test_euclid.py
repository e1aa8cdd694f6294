import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cascadim import (
    AffineIfs,
    AtomicMeasure,
    CylinderMeasure,
    IntervalSet,
    KeyedRng,
    Subshift,
    SymbolicMeasure,
    WeightLaw,
    bernoulli_convolution,
    cascade_measure,
    convolve,
    default_scales,
    marginal,
    percolation_codes,
    product,
    project,
    pushforward,
    set_image,
    sumset,
)
from cascadim import cascade, euclid
from cascadim.errors import CapExceeded, ScaleBelowResolution
from cascadim.cascade import _inverse_cdf, _to_uniform
from cascadim.symbolic import codes_to_letters
from oracles import (
    EX_OVERLAP, LATTICE_IFS, cell_offsets, counter_hashes, cylinder_interval, merged_atoms, sampled_pairs,
)


def unit_cascade(measure, shift, depth, seed=1):
    return cascade_measure(measure, shift, WeightLaw.percolation(1.0), depth, KeyedRng(seed))


class TestAtomicMeasure:
    def test_sorted_and_merged(self):
        m = AtomicMeasure([0.5, 0.25, 0.5], [1.0, 2.0, 3.0], resolution=0.0)
        assert m.points.tolist() == [0.25, 0.5]
        assert m.weights.tolist() == [2.0, 4.0]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([0.0], [-1.0], resolution=0.0)

    def test_planar_points_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([[0.9, 0.1], [0.1, 0.5], [0.5, 0.2]], [1.0, 2.0, 3.0], 0.0)

    @pytest.mark.parametrize(
        "points, weights, resolution",
        [([0.0, np.nan], [1.0, 1.0], 0.0), ([0.0, 1.0], [np.nan, 1.0], 0.0), ([0.0, 1.0], [np.inf, 1.0], 0.0),
         ([0.0, -np.inf], [1.0, 1.0], 0.0), ([0.0], [1.0], np.nan), ([0.0], [1.0], np.inf)],
        ids=["nan point", "nan weight", "inf weight", "-inf point", "nan resolution", "inf resolution"],
    )
    def test_non_finite_input_rejected(self, points, weights, resolution):
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure(points, weights, resolution)


class TestSortedAtoms:
    """Points given in non-decreasing order take no sort, against the stable sort and merge."""

    @pytest.mark.parametrize(
        "points",
        [[-1.0, -0.0, 0.0, -0.0, 0.0, 0.5, 0.5, 0.5, 2.0], [0.0, -0.0], [-0.0, 0.0, 3.0], [1.5], []],
        ids=["repeats-and-zeros", "zero-then-minus-zero", "minus-zero-first", "one", "empty"],
    )
    def test_sorted_input_equals_the_argsort_path(self, points, monkeypatch):
        points = np.array(points, dtype=np.float64)
        weights = np.arange(1.0, len(points) + 1) / 7  # unequal, so the stable sort would run
        want_points, want_weights = merged_atoms(points, weights)
        monkeypatch.setattr(euclid.np, "argsort", lambda *args, **kwargs: pytest.fail("sorted sorted points"))
        m = AtomicMeasure(points, weights, 0.0)
        assert m.points.tobytes() == want_points.tobytes()
        assert m.weights.tobytes() == want_weights.tobytes()
        if len(points) > 1:  # unequal weights: the measure owns both arrays
            assert not np.shares_memory(m.points, points) and not np.shares_memory(m.weights, weights)

    def test_unsorted_input_still_sorted(self):
        points = [0.5, -0.0, 0.0, -1.0, 0.5]
        weights = [0.1, 0.2, 0.3, 0.4, 0.5]
        want_points, want_weights = merged_atoms(points, weights)
        m = AtomicMeasure(points, weights, 0.0)
        assert m.points.tobytes() == want_points.tobytes()
        assert m.weights.tobytes() == want_weights.tobytes()


def one_weight_pairs(points, weight):
    """Atoms (points[k], points[k]) whose weights are one weight broadcast, as a sampled product holds them."""
    points = np.asarray(points, dtype=np.float64)
    return euclid.ProductPairs(points, points.copy(), np.broadcast_to(np.float64(weight), points.shape), 0.0)


class TestEqualWeightAtoms:
    """The one-weight path of sampled products (in-place sort, run-length merge) against the stable sort and merge."""

    @staticmethod
    def _assert_same_bits(points, weight):
        want_points, want_weights = merged_atoms(points, np.full(len(points), weight))
        pairs = one_weight_pairs(points, weight)
        measures = marginal(pairs, 0), marginal(pairs, 1), AtomicMeasure(points, np.full(len(points), weight), 0.0)
        for m in measures:
            assert np.array_equal(m.points.view(np.int64), want_points.view(np.int64))
            assert np.array_equal(m.weights.view(np.int64), want_weights.view(np.int64))
        return measures[0]

    def test_repeated_points(self):
        rng = np.random.default_rng(4)
        points = rng.integers(-50, 50, size=5000) / 8
        m = self._assert_same_bits(points, 0.1)
        assert len(m) < 101 and (np.diff(m.points) > 0).all()

    def test_one_atom(self):
        for x in (0.3, -0.0, 0.0):
            self._assert_same_bits([x], 0.25)

    def test_mixed_signed_zeros(self):
        # -0.0 == +0.0, so the run of zeros merges into one atom whose point
        # is the first zero given, whichever its sign
        for points in ([0.0, -0.0, 1.0, -0.0], [-0.0, 0.5, 0.0, 0.0, -1.0], [2.0, 0.0, -0.0]):
            m = self._assert_same_bits(points, 0.5)
            given = np.array(points)
            assert m.points[m.points == 0].tobytes() == given[given == 0][:1].tobytes()
        rng = np.random.default_rng(9)
        for _ in range(20):
            points = rng.choice([-0.0, 0.0, 0.25, -0.25], size=300)
            self._assert_same_bits(points, 1 / 3)

    def test_long_run(self):
        rng = np.random.default_rng(5)
        points = np.concatenate([np.full(2**15 + 5, 0.375), rng.integers(-9, 9, size=3000) / 4, [0.0, -0.0]])
        m = self._assert_same_bits(rng.permutation(points), 1 / 3_000_000)
        assert m.weights.max() == m.weights[m.points == 0.375][0]

    def test_all_distinct(self):
        points = np.random.default_rng(6).permutation(np.arange(-2000, 3000) / 7)
        m = self._assert_same_bits(points, 0.2)
        assert len(m) == 5000 and (m.weights == 0.2).all()

    def test_run_weights_match_reduceat(self):
        lengths = np.concatenate([np.arange(1, 4097), [2**15, 2**15 + 1, 100_003, 2**20 + 7]])
        for w in (0.1, 1 / 3, 1 / 3_000_000, 2.0**-1074):
            want = np.array([np.add.reduceat(np.full(k, w), [0])[0] for k in lengths])
            order = np.random.default_rng(7).permutation(np.repeat(np.arange(lengths.size), 2))
            got = euclid._run_weights(lengths[order], np.float64(w))
            assert np.array_equal(got.view(np.int64), want[order].view(np.int64))

    def test_unequal_and_signed_zero_weights_take_the_stable_sort(self):
        # weights equal in value but not in bits (0.0 and -0.0), and unequal weights
        points = [0.5, 0.5, 0.0, -0.0, 0.5]
        for weights in ([0.0, -0.0, -0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4, 0.5]):
            m = AtomicMeasure(points, weights, 0.0)
            want_points, want_weights = merged_atoms(points, weights)
            assert np.array_equal(m.points.view(np.int64), want_points.view(np.int64))
            assert np.array_equal(m.weights.view(np.int64), want_weights.view(np.int64))

    def test_one_weight_is_checked_as_the_constructor_checks(self):
        for points, weight, match in (([0.0, np.inf], 0.5, "finite"), ([0.0, 1.0], np.nan, "finite"),
                                      ([0.0, 1.0], -0.5, "nonnegative")):
            with pytest.raises(ValueError, match=match):
                marginal(one_weight_pairs(points, weight), 0)
        pairs = one_weight_pairs([0.0, 1.0], 0.5)
        pairs.resolution = np.inf
        with pytest.raises(ValueError, match="finite"):
            marginal(pairs, 0)


class TestInverseCdf:
    """The build-once guide-table lookup against the plain search and clamp, bit for bit."""

    @staticmethod
    def _assert_plain(weights, u):
        weights = np.asarray(weights, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        total = float(weights.sum())
        cdf = np.cumsum(weights) / total
        want = np.minimum(np.searchsorted(cdf, u, side="right"), weights.size - 1)
        lookup = _inverse_cdf(weights, total, u.size)
        got = lookup(u)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # the one lookup answers the same keys in chunks smaller than its table
        chunk = max(1, TestInverseCdf._table(weights.size) // 3)
        got = np.concatenate([lookup(u[k : k + chunk]) for k in range(0, u.size, chunk)])
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @staticmethod
    def _table(n):
        return 1 << (n - 1).bit_length()

    # the largest value counter_uniforms can return: the top code's midpoint
    # rounds to 1.0 and is clamped to 1 - 2^-53
    TOP = float(_to_uniform(np.array([2**64 - 1], dtype=np.uint64))[0])

    def _keys(self, weights, count, seed=0):
        """``count`` stream uniforms, every bucket edge b/B, every CDF value and the top uniform."""
        weights = np.asarray(weights, dtype=np.float64)
        table = self._table(weights.size)
        edges = np.arange(table + 1) / table
        cdf = np.cumsum(weights) / weights.sum()
        u = np.concatenate([KeyedRng(seed).counter_uniforms(0xE17, count), edges, cdf, [self.TOP]])
        assert u.size >= table  # the guide table runs
        return u

    def test_concentrated_bernoulli(self):
        m = pushforward(unit_cascade(SymbolicMeasure.bernoulli([0.9, 0.1]), Subshift.full(2), 12), AffineIfs.tiling(2))
        assert len(m) == 4096
        self._assert_plain(m.weights, self._keys(m.weights, 50_000))
        bc = bernoulli_convolution(0.4, 0.9, 12)
        self._assert_plain(bc.weights, self._keys(bc.weights, 50_000, seed=1))

    def test_uniform(self):
        for n in (1000, 1024, 1025):
            w = np.full(n, 1 / n)
            self._assert_plain(w, self._keys(w, 20_000))

    def test_single_atom(self):
        self._assert_plain([0.7], self._keys([0.7], 100))
        self._assert_plain([0.7], [self.TOP])
        self._assert_plain([0.7], [1.0])

    def test_zero_weight_atoms(self):
        w = np.array([0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.5, 0.2, 0.0, 0.0])
        self._assert_plain(w, self._keys(w, 5000))
        w = np.zeros(300)
        w[[7, 150, 151, 299]] = [1.0, 2.0, 0.5, 0.25]
        self._assert_plain(w, self._keys(w, 5000))

    def test_keys_on_edges_and_cdf_values(self):
        # dyadic weights put CDF values on the bucket edges themselves
        w = np.array([0.25, 0.125, 0.125, 0.5])
        table = self._table(w.size)
        self._assert_plain(w, np.arange(table + 1) / table)
        self._assert_plain(w, np.tile(np.cumsum(w), 2))
        # keys one ulp either side of every edge
        edges = np.arange(1, 1025) / 1024
        w = np.random.default_rng(2).random(1000)
        self._assert_plain(w, np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, 2)]))

    def test_few_keys_take_the_plain_search(self, monkeypatch):
        w = np.random.default_rng(3).random(1000) + 0.01
        table = self._table(w.size)
        m1 = AtomicMeasure(np.arange(w.size) / 8, w, 0.0)
        m2 = AtomicMeasure(np.arange(300) / 4, np.random.default_rng(4).random(300) + 0.01, 0.0)
        built = []

        class NumpySpy:  # numpy as cascade sees it, noting each guide-table build
            def __getattr__(self, name):
                return getattr(np, name)

            def arange(self, *args, **kwargs):
                if not kwargs:  # the counter streams ask for dtype=uint64
                    built.append(args)
                return np.arange(*args, **kwargs)

        monkeypatch.setattr(cascade, "np", NumpySpy())
        _inverse_cdf(w, w.sum(), table - 1)
        assert built == []  # no table
        _inverse_cdf(w, w.sum(), table)
        assert built == [(table + 2,)]
        # one table per factor per sampled product, decided by atom_cap and
        # built before the first chunk, however small the chunks
        monkeypatch.setattr(euclid, "_PAIR_CHUNK", 100)
        for atom_cap, tables in ((table - 1, [(512 + 2,)]), (table, [(table + 2,), (512 + 2,)]),
                                 (3 * table + 5, [(table + 2,), (512 + 2,)])):
            for build in (product, convolve):
                built.clear()
                build(m1, m2, atom_cap=atom_cap, rng=KeyedRng(5))
                assert built == tables


class TestIntervalSet:
    """The one interval merge: skipped when the input is already sorted and disjoint."""

    def test_sorted_disjoint_input_matches_the_sorting_path(self):
        rng = np.random.default_rng(6)
        edges = np.cumsum(rng.random(2000) + 1e-3)
        cases = [
            (edges[0::2], edges[1::2]),
            (np.array([-1.0, -0.0, 2.0]), np.array([-0.5, 0.0, 2.0])),  # a signed zero and a point
            (np.array([0.25]), np.array([0.5])),
        ]
        for los, his in cases:
            given_los, given_his = los.copy(), his.copy()
            kept = IntervalSet(los, his)
            assert not np.shares_memory(kept.los, los) and not np.shares_memory(kept.his, his)
            assert los.tobytes() == given_los.tobytes() and his.tobytes() == given_his.tobytes()
            merged = IntervalSet(los[::-1], his[::-1])  # reversed, so sorted and merged
            assert kept.los.tobytes() == merged.los.tobytes() and kept.his.tobytes() == merged.his.tobytes()
            assert kept.los.tobytes() == los.tobytes() and kept.his.tobytes() == his.tobytes()

    def test_touching_overlapping_and_unsorted_input_merges(self):
        cases = {
            "touching": (([0.0, 1.0], [1.0, 2.0]), ([0.0], [2.0])),
            "overlapping": (([0.0, 0.5], [1.0, 2.0]), ([0.0], [2.0])),
            "nested": (([0.0, 0.2], [1.0, 0.5]), ([0.0], [1.0])),
            "repeated": (([0.0, 0.0, 3.0], [1.0, 1.0, 4.0]), ([0.0, 3.0], [1.0, 4.0])),
            "unsorted": (([2.0, 0.0, 5.0], [3.0, 1.0, 6.0]), ([0.0, 2.0, 5.0], [1.0, 3.0, 6.0])),
            "unsorted, touching": (([1.0, 0.0], [2.0, 1.0]), ([0.0], [2.0])),
        }
        for name, ((los, his), (want_los, want_his)) in cases.items():
            s = IntervalSet(los, his)
            assert (s.los.tolist(), s.his.tolist()) == (want_los, want_his), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_endpoints_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            IntervalSet([0.0, bad, 1.0], [0.5, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            IntervalSet([0.0], [bad])
        with pytest.raises(ValueError, match="finite"):
            IntervalSet([0.0, 1.0], [0.5, 2.0]).scale(bad)
        for scale in (bad, -1.0):
            with pytest.raises(ValueError, match="source_scale"):
                IntervalSet([0.0], [1.0], source_scale=scale)


class TestPushforward:
    def test_depth_one_uniform(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 1), tiling2)
        assert m.points.tolist() == [0.0, 0.5]
        assert m.weights.tolist() == [0.5, 0.5]
        assert m.resolution == pytest.approx(0.5)

    def test_total_weight_preserved(self, uniform2, tiling2):
        cm = cascade_measure(uniform2, Subshift.full(2), WeightLaw.percolation(0.7), 10, KeyedRng(8))
        m = pushforward(cm, tiling2)
        assert m.total_weight == pytest.approx(cm.total_mass, rel=1e-12)

    def test_exact_overlap_atoms_merge(self):
        base = SymbolicMeasure.uniform(3)
        cm = unit_cascade(base, Subshift.full(3), 4)
        m = pushforward(cm, EX_OVERLAP)
        # 3^4 words collapse onto the 2^4 dyadic points
        assert len(m) == 16
        assert m.total_weight == pytest.approx(1.0, abs=1e-12)
        # word "1w" and "2w" coincide: the leftmost atom collects 2^4 words
        assert m.weights[0] == pytest.approx((2 / 3) ** 4, abs=1e-12)


class TestSetImage:
    def test_full_depth_words_tile_unit_interval(self, tiling2):
        img = set_image(Subshift.full(2).admissible_codes(6), tiling2, 6)
        assert len(img) == 1
        assert (img.los[0], img.his[0]) == (0.0, 1.0)

    def test_empty(self, tiling2):
        assert len(set_image(np.zeros(0, dtype=np.int64), tiling2, 6)) == 0

    def test_golden_mean_depth_four_oracle(self, golden_mean, tiling2):
        # oracle: merge the 8 dyadic intervals by hand
        codes = golden_mean.admissible_codes(4)
        intervals = sorted(cylinder_interval(tiling2, w) for w in codes_to_letters(codes, 4, 2).tolist())
        merged = [list(intervals[0])]
        for lo, hi in intervals[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        img = set_image(codes, tiling2, 4)
        assert len(img) == len(merged)
        assert np.allclose(img.los, [m[0] for m in merged], atol=0)
        assert np.allclose(img.his, [m[1] for m in merged], atol=0)
        assert img.source_scale == pytest.approx(1 / 16)

    @pytest.mark.parametrize(
        "ifs, codes, n",
        [
            (AffineIfs.tiling(3), [0, 100], 3),  # float path; read as code 19 before the check
            (AffineIfs.tiling(2), [-1], 3),  # lattice path; read as [0.875, 1] before the check
            (AffineIfs.tiling(2), [8], 3),  # lattice path; an IndexError before the check
            (AffineIfs.tiling(3), [-1, 5], 3),
        ],
        ids=["float path, 100 >= 3^3", "lattice path, -1", "lattice path, 8 = 2^3", "float path, -1"],
    )
    def test_codes_outside_the_range_rejected(self, ifs, codes, n):
        # on tiling(2) the cell offsets are the codes
        with pytest.raises(ValueError, match=r"must lie in \[0, "):
            set_image(np.array(codes), ifs, n)

    @pytest.mark.parametrize("ifs", [AffineIfs.tiling(2), AffineIfs.tiling(3)], ids=["lattice path", "float path"])
    def test_non_integer_words_rejected(self, ifs):
        # 0.5 read as a cell gave [1/16, 3/16] on the lattice path; the float path read it as code 0
        with pytest.raises(ValueError, match="integers"):
            set_image(np.array([0.5]), ifs, 3)

    @pytest.mark.parametrize("ifs", [AffineIfs.tiling(2), AffineIfs.tiling(3)], ids=["lattice path", "float path"])
    def test_first_and_last_code_accepted(self, ifs):
        a, n = ifs.alphabet_size, 3
        img = set_image(np.array([0, a**n - 1]), ifs, n)
        assert img.los.tolist() == pytest.approx([0.0, 1 - a**-n], abs=1e-15)
        assert img.his.tolist() == pytest.approx([a**-n, 1.0], abs=1e-15)


def _assert_float_path_image(img, ifs, codes, n):
    """``img`` against the merged float intervals, bit for bit."""
    los = ifs.points_for_codes(codes, n, ifs.attractor_min)
    his = ifs.points_for_codes(codes, n, ifs.attractor_max)
    ref = IntervalSet(los, his)
    assert np.array_equal(img.los, ref.los) and img.los.tobytes() == ref.los.tobytes()
    assert np.array_equal(img.his, ref.his) and img.his.tobytes() == ref.his.tobytes()
    assert img.source_scale == float((his - los).max())


class TestLatticeImage:
    """set_image's integer lattice path against the float path."""

    @staticmethod
    def _cases(a, shift, p):
        rng = np.random.default_rng(5)
        cases = {
            "single code": (np.array([a**7 - 2]), 7),
            "all a^n codes": (np.arange(a**6), 6),
            "length 1": (np.arange(a), 1),
            "length 1, one code": (np.array([a - 1]), 1),
            "sparse, length 24": (np.unique(rng.integers(0, a**24, 3000)), 24),
        }
        for seed in (1, 2, 3):
            codes = percolation_codes(shift, p, 16, KeyedRng(seed), AffineIfs.tiling(a))
            cases[f"percolation, seed {seed}"] = (codes, 16)
        return cases

    @pytest.mark.parametrize("name", list(LATTICE_IFS), ids=list(LATTICE_IFS))
    def test_bitwise_equal_to_float_path(self, name):
        # set_image of the cells against the float path from the codes
        ifs, shift, p = LATTICE_IFS[name]
        for case, (codes, n) in self._cases(ifs.alphabet_size, shift, p).items():
            assert ifs.lattice(n) is not None, case
            assert codes.size > 0, case
            cells = cell_offsets(ifs, codes, n)
            _assert_float_path_image(set_image(cells, ifs, length=n), ifs, codes, n)

    @pytest.mark.parametrize("name", list(LATTICE_IFS), ids=list(LATTICE_IFS))
    def test_walk_numbers_the_cells(self, name):
        # the walk's cell numbering against the oracle, word for word in walk order
        ifs, shift, p = LATTICE_IFS[name]
        for q, n in ((p, 16), (1.0, 8)):
            for seed in (1, 2, 3):
                codes = percolation_codes(shift, q, n, KeyedRng(seed), AffineIfs.tiling(ifs.alphabet_size))
                cells = percolation_codes(shift, q, n, KeyedRng(seed), ifs)
                assert cells.dtype == np.int64
                assert np.array_equal(cells, cell_offsets(ifs, codes, n)), (q, seed)

    def test_overlap_walk_images_as_its_words(self):
        # seed 2 keeps one word, 1 3 1 (code 6), whose cell is P = 2: read as
        # cell 6 it would give [0.75, 0.875]
        shift = Subshift.full(3)
        codes = percolation_codes(shift, 0.35, 3, KeyedRng(2), AffineIfs.tiling(3))
        words = percolation_codes(shift, 0.35, 3, KeyedRng(2), EX_OVERLAP)
        letters = codes_to_letters(codes, 3, 3).tolist()
        assert letters == [[1, 3, 1]] and words.tolist() == [2]
        img = set_image(words, EX_OVERLAP, 3)
        oracle = IntervalSet(*zip(*(cylinder_interval(EX_OVERLAP, u) for u in letters)))
        assert img.los.tolist() == oracle.los.tolist() == [0.25]
        assert img.his.tolist() == oracle.his.tolist() == [0.375]

    def test_lattice_data(self):
        assert EX_OVERLAP.lattice(16) == (2, (0, 0, 1), 0, 1)
        assert LATTICE_IFS["hull [-1, 1]"][0].lattice(3) == (2, (-1, 1), -1, 1)
        assert LATTICE_IFS["degenerate hull"][0].lattice(3) == (2, (1, 1), 1, 1)
        # cell offsets run from min(d) S to max(d) S, S = (m^n - 1)/(m - 1)
        assert EX_OVERLAP.cell_range(3) == (0, 7)
        assert LATTICE_IFS["hull [-1, 1]"][0].cell_range(3) == (-7, 7)
        assert LATTICE_IFS["ratio 1/4, three maps"][0].cell_range(2) == (0, 15)
        assert AffineIfs.tiling(2).cell_range(52) is None
        # m^n (max|d| + |lo| + |hi|) < 2^53
        assert AffineIfs.tiling(2).lattice(51) is not None
        assert AffineIfs.tiling(2).lattice(52) is None
        # a -0.0 translation reaches a float endpoint, which no integer cell gives
        neg_zero = self.UNROUTED["translation -0.0"][0]
        assert np.signbit(neg_zero.points_for_codes(np.array([0]), 3, neg_zero.attractor_min)[0])

    UNROUTED = {
        "tiling(3)": (AffineIfs.tiling(3), 10),  # 1/3 is not exact in float
        "bernoulli_pair(0.4)": (AffineIfs.bernoulli_pair(0.4), 10),
        "hull end 1/3": (AffineIfs.from_maps([(0.25, 0.0), (0.25, 0.25)]), 10),
        "m^n > 2^53": (AffineIfs.tiling(2), 54),
        "translation -0.0": (AffineIfs.from_maps([(0.5, -0.0), (0.5, 0.5)]), 10),
        "m = 2^1030 past the float range": (AffineIfs.from_maps([(2.0**-1030, 0.0), (2.0**-1030, 0.0)]), 1),
    }

    @pytest.mark.parametrize("name", list(UNROUTED), ids=list(UNROUTED))
    def test_unrouted_ifs_take_float_path(self, name, monkeypatch):
        ifs, n = self.UNROUTED[name]
        assert ifs.lattice(n) is None

        def no_lattice(*args):
            raise AssertionError("lattice path taken")

        monkeypatch.setattr(euclid, "_ordered_cells", no_lattice)
        a = ifs.alphabet_size
        codes = np.unique(np.random.default_rng(9).integers(0, a**n, 500))
        codes = np.concatenate([[0], codes])  # the all-ones word, where -0.0 can show
        _assert_float_path_image(set_image(codes, ifs, length=n), ifs, codes, n)


class TestLatticeCells:
    """The distinct-cell step of the lattice image: a bitmap over a narrow cell range, else the cells as given."""

    CASES = {
        # name: (ifs, codes, depth, bitmap side)
        "exact overlap, every depth-10 code": (EX_OVERLAP, np.arange(3**10), 10, True),
        "digits (-1, -1, 0), every depth-10 code": (
            AffineIfs.from_maps([(0.5, -0.5), (0.5, -0.5), (0.5, 0.0)]),
            np.arange(3**10),
            10,
            True,
        ),
        "tiling(2), sparse depth-16 codes": (
            AffineIfs.tiling(2),
            np.unique(np.random.default_rng(3).integers(0, 2**16, 3000)),
            16,
            False,
        ),
        "bernoulli_pair(0.5), every depth-10 code": (AffineIfs.bernoulli_pair(0.5), np.arange(2**10), 10, False),
    }

    @staticmethod
    def _range(ifs, n):
        m, digits, _, _ = ifs.lattice(n)
        span = (m**n - 1) // (m - 1)
        return min(digits) * span, max(digits) * span

    @pytest.mark.parametrize("name", list(CASES), ids=list(CASES))
    def test_both_sides_match_the_float_path(self, name):
        ifs, codes, n, bitmap = self.CASES[name]
        first, last = self._range(ifs, n)
        assert (last - first < len(codes)) == bitmap
        cells = cell_offsets(ifs, codes, n)
        assert first <= cells.min() and cells.max() <= last
        # the bitmap side gives the distinct cells in order; the wide side hands
        # its cells on unchanged, for IntervalSet to sort
        given = cells.copy()
        out = euclid._ordered_cells(given, first, last)
        assert np.array_equal(given, cells)
        if bitmap:
            assert np.array_equal(out, np.unique(cells))
        else:
            assert out is given and np.array_equal(out, cells)
        wide = cells.copy()
        assert euclid._ordered_cells(wide, first, first + len(cells)) is wide
        assert np.array_equal(wide, cells)
        _assert_float_path_image(set_image(cells, ifs, length=n), ifs, codes, n)
        # the codes moved to the other side of the rule: repeated onto the
        # bitmap side, or thinned and shuffled onto the wide side
        if bitmap:
            other = np.random.default_rng(1).permutation(codes[:: len(codes) // (last - first) + 1])
            assert last - first >= len(other) and not (np.diff(cell_offsets(ifs, other, n)) >= 0).all()
        else:
            other = np.tile(codes, (last - first) // len(codes) + 1)
            assert last - first < len(other)
        _assert_float_path_image(set_image(cell_offsets(ifs, other, n), ifs, length=n), ifs, other, n)

    HULL = LATTICE_IFS["hull [-1, 1]"][0]  # digits (-1, 1): first = -S

    @pytest.mark.parametrize("ifs", [EX_OVERLAP, HULL], ids=["exact overlap", "digits (-1, 1)"])
    def test_cells_outside_the_range_rejected(self, ifs):
        n = 5
        first, last = self._range(ifs, n)
        for bad in (first - 1, last + 1):
            with pytest.raises(ValueError, match=r"cell offsets must lie in"):
                set_image(np.array([first, bad, last]), ifs, n)
        # both ends themselves are cells
        lo, hi = ifs.attractor_min, ifs.attractor_max
        img = set_image(np.array([last, first]), ifs, n)
        assert img.los[0] == (first + lo) / 2**n and img.his[-1] == (last + hi) / 2**n

    def test_input_unchanged(self):
        n = 6
        first, last = self._range(self.HULL, n)
        assert first == -(2**n - 1)
        codes = np.arange(2**n)
        cells = np.tile(cell_offsets(self.HULL, codes, n), 3)  # repeats: the bitmap side
        assert last - first < len(cells)
        given = cells.copy()
        img = set_image(given, self.HULL, length=n)
        assert np.array_equal(given, cells)
        _assert_float_path_image(img, self.HULL, np.tile(codes, 3), n)


class TestProduct:
    def test_single_atoms(self):
        m = product(AtomicMeasure([1.0], [0.5], 0.0), AtomicMeasure([2.0], [0.25], 0.0), atom_cap=1)
        assert np.column_stack([m.xs, m.ys]).tolist() == [[1.0, 2.0]]
        assert m.weights.tolist() == [0.125]

    def test_exact_total(self):
        m1 = AtomicMeasure([0.0, 1.0], [0.4, 0.6], 0.0)
        m2 = AtomicMeasure([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], 0.0)
        m = product(m1, m2, atom_cap=6)
        assert m.weights.sum() == pytest.approx(m1.total_weight * m2.total_weight, abs=1e-9)

    def test_sampled_needs_rng(self):
        m1 = AtomicMeasure([0.0, 1.0], [0.4, 0.6], 0.0)
        m2 = AtomicMeasure([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], 0.0)
        for build in (product, convolve):
            with pytest.raises(ValueError, match="needs an rng"):
                build(m1, m2, atom_cap=5)
            # the exact grid draws nothing
            assert build(m1, m2, atom_cap=6).weights.sum() == pytest.approx(1.0)

    def test_sampled_matches_exact_ball_masses(self, np_rng):
        def disc_mass(pairs, center, r):  # brute planar ball mass over all pairs
            inside = (pairs.xs - center[0]) ** 2 + (pairs.ys - center[1]) ** 2 <= r * r
            return float(pairs.weights[inside].sum())

        xs = np.linspace(0, 1, 10)
        m1 = AtomicMeasure(xs, np_rng.random(10) + 0.1, 0.0)
        m2 = AtomicMeasure(xs, np_rng.random(10) + 0.1, 0.0)
        exact = product(m1, m2, atom_cap=100)
        sampled = product(m1, m2, atom_cap=50, rng=KeyedRng(3))  # force sampling
        n = len(sampled)
        assert n == 50
        w = m1.total_weight * m2.total_weight
        for center in ((0.5, 0.5), (0.2, 0.8)):
            me = disc_mass(exact, center, 0.3)
            ms = disc_mass(sampled, center, 0.3)
            p = me / w
            sigma = w * math.sqrt(p * (1 - p) / n)
            assert abs(ms - me) < 4 * sigma + 1e-12

    def test_exact_grid_is_x_major_bit_for_bit(self):
        m1, m2 = bernoulli_convolution(0.4, 0.9, 5), bernoulli_convolution(0.35, 0.85, 4)
        i, j = np.repeat(np.arange(len(m1)), len(m2)), np.tile(np.arange(len(m2)), len(m1))
        w = m1.weights[i] * m2.weights[j]
        prod = product(m1, m2, atom_cap=len(m1) * len(m2))
        assert prod.xs.shape == prod.ys.shape == prod.weights.shape == (len(m1) * len(m2),)
        for got, want in ((prod.xs, m1.points[i]), (prod.ys, m2.points[j]), (prod.weights, w)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        conv = convolve(m1, m2, atom_cap=len(m1) * len(m2))
        want = AtomicMeasure(m1.points[i] + m2.points[j], w, m1.resolution + m2.resolution)
        assert np.array_equal(conv.points.view(np.int64), want.points.view(np.int64))
        assert np.array_equal(conv.weights.view(np.int64), want.weights.view(np.int64))

    def test_exact_grid_peak_memory(self):
        # no index array per atom: the points and weights of the grid, and what
        # AtomicMeasure needs to sort and merge them (6.0 and 8.75 arrays of
        # N floats with index arrays)
        m1, m2 = bernoulli_convolution(0.6, 0.5, 10), bernoulli_convolution(0.7, 0.3, 10)
        n = len(m1) * len(m2)
        assert n == 2**20
        peaks = {}
        for build in (product, convolve):
            tracemalloc.start()
            try:
                build(m1, m2, atom_cap=n)
                peaks[build.__name__] = tracemalloc.get_traced_memory()[1] / (8 * n)
            finally:
                tracemalloc.stop()
        assert peaks["product"] < 3.5 and peaks["convolve"] < 7.0, peaks


class TestChunkedProduct:
    """Sampled products drawn in chunks against the whole draw of ``oracles.sampled_pairs``, bit for bit."""

    C = euclid._PAIR_CHUNK
    CAPS = (1, C - 1, C, C + 1, 3 * C + 5)

    @pytest.fixture(scope="class")
    def factors(self):
        small = bernoulli_convolution(0.4, 0.9, 10)  # its guide table runs from atom_cap C - 1 on
        big = bernoulli_convolution(0.35, 0.85, 16)  # its table runs only at 3C + 5, past its 2^16 atoms
        assert len(small) < self.C - 1 and self.C + 1 < len(big) < 3 * self.C + 5
        return small, big

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("atom_cap", CAPS)
    def test_product_and_convolve_match_the_whole_draw(self, factors, atom_cap):
        small, big = factors
        for m1, m2, seed in ((small, big, 3), (big, small, 4), (small, small, 5)):
            rng = KeyedRng(seed)
            i, j = sampled_pairs(m1, m2, atom_cap, rng)
            w = np.full(atom_cap, m1.total_weight * m2.total_weight / atom_cap)
            prod = product(m1, m2, atom_cap=atom_cap, rng=rng)
            assert self._same_bits(prod.xs, m1.points[i]) and self._same_bits(prod.ys, m2.points[j])
            assert self._same_bits(prod.weights, w)
            conv = convolve(m1, m2, atom_cap=atom_cap, rng=rng)
            want = AtomicMeasure(m1.points[i] + m2.points[j], w, m1.resolution + m2.resolution)
            assert self._same_bits(conv.points, want.points) and self._same_bits(conv.weights, want.weights)
            assert conv.resolution == want.resolution

    def test_stream_ranges_are_slices_of_the_whole_stream(self):
        C = self.C
        ranges = [(0, 1), (0, C), (C - 3, C + 5), (C, 2 * C), (2 * C - 1, 2 * C + 1), (5, 3 * C + 5),
                  (3 * C, 3 * C + 5)]
        for seed, salt in ((3, 0xA1), (3, 0xA2), (11, 0xE17)):
            rng = KeyedRng(seed)
            whole = counter_hashes(rng, salt, 3 * C + 5)
            hashes = rng.counter_stream(salt)
            for start, stop in ranges:
                assert np.array_equal(hashes(start, stop), whole[start:stop])
            assert np.array_equal(rng.counter_uniforms(salt, 3 * C + 5), _to_uniform(whole))

    class NoDraws:  # an rng that fails the test if anything is drawn from it
        def counter_stream(self, salt):
            raise AssertionError("drew before refusing")

    def test_atom_cap_must_be_a_positive_integer(self):
        m1 = AtomicMeasure([0.0, 1.0], [0.4, 0.6], 0.0)
        m2 = AtomicMeasure([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], 0.0)
        for build in (product, convolve):
            for atom_cap in (0, -3, 2.5, True, "5", None):
                with pytest.raises(ValueError, match="atom_cap must be a positive integer"):
                    build(m1, m2, atom_cap=atom_cap, rng=self.NoDraws())
            assert build(m1, m2, atom_cap=np.int64(6)).weights.sum() == pytest.approx(1.0)

    def test_sampled_product_refuses_a_zero_total_factor(self):
        zero = AtomicMeasure([0.0, 0.5], [0.0, 0.0], 0.0)
        some = AtomicMeasure([0.0, 1.0], [0.4, 0.6], 0.0)
        for build in (product, convolve):
            for m1, m2 in ((zero, some), (some, zero), (zero, zero)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="positive total weight"):
                        build(m1, m2, atom_cap=3, rng=self.NoDraws())
            # the exact grid keeps its zero-weight atoms
            assert build(zero, some, atom_cap=4).weights.tolist() == [0.0] * 4


class TestProjection:
    @pytest.mark.parametrize(
        "delta, s",
        [(0.5, -2000.0), (0.5, 2000.0), (0.5, float("nan")), (1.0, 1.0), (0.0, 1.0), (-0.5, 2.0), (1.5, 1.0),
         (float("nan"), 1.0)],
    )
    def test_coefficient_refused_unless_finite_positive(self, delta, s):
        # 0.5^-2000 overflows a float, 0.5^2000 underflows to 0: neither is a projection
        prod = product(AtomicMeasure([0.0], [1.0], 0.0), AtomicMeasure([0.0], [1.0], 0.0), atom_cap=1)
        with pytest.raises(ValueError, match="delta"):
            project(prod, s, +1, delta)
        with pytest.raises(ValueError, match="delta"):
            euclid.projection_coefficient(delta, s)

    def test_coefficient_is_the_power(self):
        assert euclid.projection_coefficient(0.5, -2.0) == 4.0
        assert euclid.projection_coefficient(1 / 3, 1.5) == (1 / 3) ** 1.5

    def test_zero_exponent_plus(self):
        prod = product(AtomicMeasure([0.0], [1.0], 0.0), AtomicMeasure([0.0], [1.0], 0.0), atom_cap=1)
        m = project(prod, 0.0, +1, 0.5)
        assert m.points.tolist() == [0.0]

    def test_weight_preserved_and_formula(self):
        prod = product(AtomicMeasure([2.0], [0.5], 0.0), AtomicMeasure([3.0], [0.4], 0.0), atom_cap=1)
        m = project(prod, 2.0, +1, 0.5)
        assert m.points[0] == pytest.approx(0.25 * 2.0 + 3.0)
        assert m.weights[0] == pytest.approx(0.2)
        mm = project(prod, 2.0, -1, 0.5)
        assert mm.points[0] == pytest.approx(0.25 * 2.0 - 3.0)

    def test_marginals_recover_factors(self):
        m1 = AtomicMeasure([0.0, 1.0], [0.4, 0.6], 0.0)
        m2 = AtomicMeasure([0.0, 2.0], [0.7, 0.3], 0.0)
        prod = product(m1, m2, atom_cap=4)
        mx = marginal(prod, 0)
        assert mx.points.tolist() == m1.points.tolist()
        assert np.allclose(mx.weights, m1.weights, atol=1e-15)
        my = marginal(prod, 1)
        assert np.allclose(my.weights, m2.weights, atol=1e-15)


class TestSampledProjection:
    """Projections and marginals of a sampled product against the constructor given its one weight, bit for bit."""

    @pytest.fixture(scope="class")
    def prod(self):
        m1, m2 = bernoulli_convolution(0.4, 0.9, 10), bernoulli_convolution(0.35, 0.85, 9)
        return product(m1, m2, atom_cap=3 * euclid._PAIR_CHUNK + 5, rng=KeyedRng(7))

    def test_weights_are_one_weight_broadcast(self, prod):
        assert len(prod) == prod.xs.size == 3 * euclid._PAIR_CHUNK + 5
        assert prod.weights.shape == prod.xs.shape and prod.weights.strides == (0,)
        assert not prod.weights.flags.writeable

    def test_project_and_marginal_match_the_constructor_and_leave_the_pairs(self, prod):
        xs, ys = prod.xs.copy(), prod.ys.copy()
        w = np.full(len(prod), prod.weights[0])
        built = [(project(prod, s, sign, 1 / 3), AtomicMeasure((1 / 3) ** s * xs + sign * ys, w, 0.0))
                 for s in (0.0, 0.7) for sign in (+1, -1)]
        built += [(marginal(prod, axis), AtomicMeasure(ys if axis else xs, w, 0.0)) for axis in (0, 1)]
        for got, want in built:
            assert np.array_equal(got.points.view(np.int64), want.points.view(np.int64))
            assert np.array_equal(got.weights.view(np.int64), want.weights.view(np.int64))
            assert not np.shares_memory(got.points, prod.xs) and not np.shares_memory(got.points, prod.ys)
        assert prod.xs.tobytes() == xs.tobytes() and prod.ys.tobytes() == ys.tobytes()

    def test_pairs_of_different_shapes_refused(self):
        with pytest.raises(ValueError, match="same shape"):
            euclid.ProductPairs(np.zeros(3), np.zeros(4), np.ones(3), 0.0)
        with pytest.raises(ValueError, match="same shape"):
            euclid.ProductPairs(np.zeros((2, 2)), np.zeros(4), np.ones(4), 0.0)

    def test_len_counts_the_atoms_whatever_holds_the_weights(self):
        for weights in (np.broadcast_to(np.float64(0.2), (5,)), np.float64(0.2)):
            assert len(euclid.ProductPairs(np.zeros(5), np.ones(5), weights, 0.0)) == 5


class TestConvolve:
    def test_point_masses_add(self):
        m = convolve(AtomicMeasure([1.5], [1.0], 0.0), AtomicMeasure([-0.5], [1.0], 0.0), atom_cap=1)
        assert m.points.tolist() == [1.0]
        assert m.weights.tolist() == [1.0]

    def test_commutative_ball_masses(self, uniform2, tiling2):
        m1 = pushforward(unit_cascade(uniform2, Subshift.full(2), 6), tiling2)
        m2 = pushforward(unit_cascade(SymbolicMeasure.bernoulli([0.3, 0.7]), Subshift.full(2), 5), tiling2)
        c12 = convolve(m1, m2, atom_cap=2**11)
        c21 = convolve(m2, m1, atom_cap=2**11)
        for center in (0.3, 0.9, 1.5):
            got = c12.ball_mass_many([center], 0.1)[0]
            assert got == pytest.approx(c21.ball_mass_many([center], 0.1)[0], rel=1e-12)

    def test_binomial_profile_oracle(self, uniform2, tiling2):
        # self-convolution of the depth-6 uniform tiling measure: the atom
        # weights on the grid follow the discrete self-convolution
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 6), tiling2)
        conv = convolve(m, m, atom_cap=2**12)
        oracle = np.convolve(np.full(64, 1 / 64), np.full(64, 1 / 64))
        assert len(conv) == 127
        assert np.allclose(np.sort(conv.weights)[::-1], np.sort(oracle)[::-1], atol=1e-15)
        assert conv.weights[0] == pytest.approx(1 / 4096, abs=1e-18)

    def test_equals_projected_product(self):
        m1 = AtomicMeasure([0.0, 0.25, 0.75], [0.2, 0.5, 0.3], 0.0)
        m2 = AtomicMeasure([0.1, 0.6], [0.5, 0.5], 0.0)
        conv = convolve(m1, m2, atom_cap=6)
        proj = project(product(m1, m2, atom_cap=6), 0.0, +1, 0.5)
        # normalization pair (scale, shift) = (1, 0): identical atom sets
        assert np.allclose(np.sort(conv.points), np.sort(proj.points), atol=0)
        for center in (0.3, 0.85):
            got = conv.ball_mass_many([center], 0.2)[0]
            assert got == pytest.approx(proj.ball_mass_many([center], 0.2)[0], abs=1e-15)
        # exact grid and sampled mode give the projected product bit for bit
        for kwargs in ({"atom_cap": 6}, {"atom_cap": 5, "rng": KeyedRng(3)}):
            conv = convolve(m1, m2, **kwargs)
            proj = project(product(m1, m2, **kwargs), 0.0, +1, 0.5)
            assert np.array_equal(conv.points, proj.points)
            assert np.array_equal(conv.weights, proj.weights)

    def test_signed_zero_sums_in_both_draw_orders(self):
        # x + y is -0.0 for (-0.0, -0.0) and +0.0 for (1, -1): the merged zero is the first drawn
        m1 = AtomicMeasure([-0.0, 1.0, 2.0], [0.45, 0.45, 0.1], 0.0)
        m2 = AtomicMeasure([-1.0, -0.0, 3.0], [0.45, 0.45, 0.1], 0.0)
        seen = set()
        for seed in range(40):
            rng = KeyedRng(seed)
            i, j = sampled_pairs(m1, m2, 8, rng)
            sums = m1.points[i] + m2.points[j]
            negative = np.signbit(sums[sums == 0])
            if negative.any() and not negative.all():  # zeros of both signs: note which came first
                seen.add(bool(negative[0]))
            conv = convolve(m1, m2, atom_cap=8, rng=rng)
            want_points, want_weights = merged_atoms(sums, np.full(8, m1.total_weight * m2.total_weight / 8))
            assert np.array_equal(conv.points.view(np.int64), want_points.view(np.int64))
            assert np.array_equal(conv.weights.view(np.int64), want_weights.view(np.int64))
        assert seen == {False, True}

    def test_sampled_convolution_peak_memory(self):
        # the sums buffer, the run marks and the merged atoms, with no weight per sampled atom
        # and no sorted copy: well below three arrays of atom_cap floats
        atom_cap = 2**20
        m1, m2 = bernoulli_convolution(0.4, 0.9, 16), bernoulli_convolution(0.35, 0.85, 16)
        tracemalloc.start()
        try:
            conv = convolve(m1, m2, atom_cap=atom_cap, rng=KeyedRng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(conv) < atom_cap
        assert peak < 3 * 8 * atom_cap

    def test_general_exponent_reduces_to_scaled_convolution(self):
        # project(product, s, +) == convolve(m1 scaled by delta^s, m2), (1, 0) map
        m1 = AtomicMeasure([0.0, 0.25, 0.75], [0.2, 0.5, 0.3], 0.0)
        m2 = AtomicMeasure([0.1, 0.6], [0.5, 0.5], 0.0)
        delta, s = 0.5, 1.5
        proj = project(product(m1, m2, atom_cap=6), s, +1, delta)
        c = delta**s
        conv = convolve(AtomicMeasure(m1.points * c, m1.weights, m1.resolution * c), m2, atom_cap=6)
        assert np.allclose(np.sort(proj.points), np.sort(conv.points), atol=1e-15)
        for center in (0.3, 0.7):
            got = proj.ball_mass_many([center], 0.2)[0]
            assert got == pytest.approx(conv.ball_mass_many([center], 0.2)[0], abs=1e-15)


def _one_family_erosion(a, bs):
    """Reference: the erosion as one Python step per shifted gap family."""

    def intersect(c_lo, c_hi, d_lo, d_hi):
        first = np.searchsorted(d_hi, c_lo, side="left")
        last = np.searchsorted(d_lo, c_hi, side="right")
        counts = last - first
        keep = counts > 0
        c_lo, c_hi, first, counts = c_lo[keep], c_hi[keep], first[keep], counts[keep]
        rep = np.repeat(np.arange(c_lo.size), counts)
        offs = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        didx = first[rep] + offs
        lo = np.maximum(c_lo[rep], d_lo[didx])
        hi = np.minimum(c_hi[rep], d_hi[didx])
        pos = hi > lo
        return lo[pos], hi[pos]

    a_lo, a_hi, b_lo, b_hi = a.los, a.his, bs.los, bs.his
    if b_lo.size > a_lo.size:
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
    gap_lo = np.concatenate([[-np.inf], a_hi])
    gap_hi = np.concatenate([a_lo, [np.inf]])
    c_lo, c_hi = np.array([-np.inf]), np.array([np.inf])
    for j in np.argsort(b_lo - b_hi, kind="stable"):
        c_lo, c_hi = intersect(c_lo, c_hi, gap_lo + b_hi[j], gap_hi + b_lo[j])
    return c_hi[:-1], c_lo[1:]


class TestSumset:
    def test_unit_plus_unit(self):
        u = IntervalSet([0.0], [1.0])
        out = sumset(u, u, 1.0, pair_cap=1)
        assert len(out) == 1 and (out.los[0], out.his[0]) == (0.0, 2.0)

    def test_singleton_second_set(self):
        pts = IntervalSet([0.0, 1.0], [0.0, 1.0])
        single = IntervalSet([0.0], [0.0])
        out = sumset(pts, single, 2.5, pair_cap=2)
        assert out.los.tolist() == [0.0, 1.0]
        assert out.his.tolist() == [0.0, 1.0]

    def test_zero_s_rejected(self):
        u = IntervalSet([0.0], [1.0])
        with pytest.raises(ValueError):
            sumset(u, u, 0.0, pair_cap=1)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_s_rejected(self, s):
        u = IntervalSet([0.0, 2.0], [1.0, 3.0])
        for a, b in ((u, u), (IntervalSet.empty(), u)):
            with pytest.raises(ValueError, match="finite"):
                sumset(a, b, s, pair_cap=4)

    def test_pair_cap(self):
        a = IntervalSet(np.arange(100.0) * 2, np.arange(100.0) * 2 + 0.5)
        with pytest.raises(CapExceeded):
            sumset(a, a, 1.0, pair_cap=100)

    def test_exhaustive_oracle_golden_triadic(self, golden_mean, tiling2):
        # incommensurable pairing: depth-6 golden-mean image + sqrt(2) * depth-4 triadic image
        img1 = set_image(golden_mean.admissible_codes(6), tiling2, 6)
        c2 = percolation_codes(Subshift.full(3), 0.7, 4, KeyedRng(5), AffineIfs.tiling(3))
        img2 = set_image(c2, AffineIfs.tiling(3), length=4)
        s = math.sqrt(2.0)
        out = sumset(img1, img2, s, pair_cap=len(img1) * len(img2))
        # oracle: python double loop + merge
        pairs = sorted(
            (lo1 + s * lo2, hi1 + s * hi2)
            for lo1, hi1 in zip(img1.los, img1.his)
            for lo2, hi2 in zip(img2.los, img2.his)
        )
        merged = [list(pairs[0])]
        for lo, hi in pairs[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        assert len(out) == len(merged)
        assert np.array_equal(out.los, [m[0] for m in merged])
        assert np.array_equal(out.his, [m[1] for m in merged])

    def test_erosion_path_equals_brute(self):
        # oracle: every pairwise Minkowski sum, merged; families mix
        # zero-length intervals with positive ones, and |A| < |B| as well as |A| > |B|
        rng = np.random.default_rng(12)
        for n, m in ((120, 90), (40, 150), (1, 30), (25, 1)):
            for _ in range(4):
                lo1 = np.sort(rng.random(n)) * 2
                a = IntervalSet(lo1, lo1 + rng.random(n) * 0.01 * (rng.random(n) < 0.7))
                lo2 = np.sort(rng.random(m)) * 1.5 + 3
                b = IntervalSet(lo2, lo2 + rng.random(m) * 0.02 * (rng.random(m) < 0.7))
                for s in (0.8, -1.3):
                    bs = b.scale(s)
                    los, his = np.add.outer(a.los, bs.los), np.add.outer(a.his, bs.his)
                    brute = IntervalSet(los.ravel(), his.ravel())
                    eroded = sumset(a, b, s, pair_cap=n * m)
                    assert np.array_equal(brute.los, eroded.los)
                    assert np.array_equal(brute.his, eroded.his)
        # isolated points survive: {0, 1} + {0}
        pts = IntervalSet([0.0, 1.0], [0.0, 1.0])
        out = sumset(pts, IntervalSet([0.0], [0.0]), 1.0, pair_cap=2)
        assert out.los.tolist() == [0.0, 1.0] and out.his.tolist() == [0.0, 1.0]

    def test_blocked_erosion_matches_one_family_loop(self, monkeypatch):
        sqrt2 = math.sqrt(2.0)
        # percolation images of the sumset-dim sizes: C is wide for many
        # blocks before it shrinks to its two rays
        for seed in (3, 11):
            rng = KeyedRng(seed)
            ca = percolation_codes(Subshift.full(2), 0.9, 16, rng.derive(1), AffineIfs.tiling(2))
            cb = percolation_codes(Subshift.full(3), 0.9, 10, rng.derive(2), AffineIfs.tiling(3))
            a = set_image(ca, AffineIfs.tiling(2), length=16)
            b = set_image(cb, AffineIfs.tiling(3), length=10)
            assert len(a) > 1000 and len(b) > 1000
            for s in (1.0, -1.0, sqrt2):
                out = sumset(a, b, s, pair_cap=200_000_000)
                los, his = _one_family_erosion(a, b.scale(s))
                assert np.array_equal(out.los, los) and np.array_equal(out.his, his)
        # small families on the 1/8 lattice: zero-length pieces, shared
        # endpoints and singletons, |A| < |B| as well as |A| > |B|.  They fit
        # one block under the default budget, so smaller budgets make the
        # candidate guesses run against a C of many pieces (s = -0.3 rounds
        # those guesses off by a gap now and then).
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(300):
            fams = []
            for size in rng.integers(1, 40, size=2):
                lo = rng.integers(0, 40, size=size) / 8
                fams.append(IntervalSet(lo, lo + rng.integers(0, 4, size=size) / 8 * (rng.random(size) < 0.6)))
            cases.append(fams)
        assert any(len(a) < len(b) for a, b in cases) and any(len(a) > len(b) for a, b in cases)
        budgets = (euclid._EROSION_BUDGET, 50, 1)
        for a, b in cases:
            for s in (1.0, -1.0, sqrt2, -0.3):
                los, his = _one_family_erosion(a, b.scale(s))
                for budget in budgets:
                    monkeypatch.setattr(euclid, "_EROSION_BUDGET", budget)
                    out = sumset(a, b, s, pair_cap=len(a) * len(b))
                    assert np.array_equal(out.los, los) and np.array_equal(out.his, his)

    def test_reflection_identity(self):
        # {x + s y} = s * {y + (1/s) x}
        rng = np.random.default_rng(5)
        lo1 = np.sort(rng.random(40))
        s1 = IntervalSet(lo1, lo1 + 0.01)
        lo2 = np.sort(rng.random(30)) * 2
        s2 = IntervalSet(lo2, lo2 + 0.02)
        for s in (2.0, -0.7):
            left = sumset(s1, s2, s, pair_cap=1200)
            right = sumset(s2, s1, 1.0 / s, pair_cap=1200).scale(s)
            assert len(left) == len(right)
            assert np.allclose(left.los, right.los, atol=1e-12)
            assert np.allclose(left.his, right.his, atol=1e-12)


class TestBernoulliConvolution:
    def test_half_is_uniform_dyadic(self):
        m = bernoulli_convolution(0.5, 0.5, 6)
        assert len(m) == 64
        assert np.allclose(m.weights, 1 / 64, atol=0)
        gaps = np.diff(m.points)
        assert np.allclose(gaps, gaps[0], atol=1e-12)

    def test_total_weight_unit_law(self):
        m = bernoulli_convolution(0.4, 0.7, 8)
        assert m.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_third_cantor_cylinder_masses(self):
        # beta = 1/3: affine image of the middle-thirds Cantor set; the ball
        # around a depth-k cylinder point with the cylinder's radius carries
        # exactly the cylinder mass 2^-k
        depth = 8
        m = bernoulli_convolution(1 / 3, 0.5, depth)
        ifs = AffineIfs.bernoulli_pair(1 / 3)
        for word in ((1, 2, 1), (2, 2, 2), (1, 1, 2)):
            k = len(word)
            lo, hi = cylinder_interval(ifs, word)
            center = (lo + hi) / 2
            r = (hi - lo) / 2
            assert m.ball_mass_many([center], r)[0] == pytest.approx(0.5**k, abs=1e-12)


class TestBallMass:
    def test_whole_support(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 8), tiling2)
        lo, hi = m.points[0], m.points[-1]
        assert m.ball_mass_many([(lo + hi) / 2], hi - lo)[0] == pytest.approx(m.total_weight, abs=1e-12)

    def test_single_atom_small_ball(self):
        m = AtomicMeasure([0.0, 1.0], [0.25, 0.75], resolution=1e-6)
        assert m.ball_mass_many([1.0], 1e-5)[0] == pytest.approx(0.75)

    def test_uniform_interval_mass(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 10), tiling2)
        got = m.ball_mass_many([0.5], 2.0**-4)[0]
        assert abs(got - 2 * 2.0**-4) <= 1 / 1024 + 1e-12

    def test_scale_floor_enforced(self):
        m = AtomicMeasure([0.0], [1.0], resolution=1e-3)
        with pytest.raises(ScaleBelowResolution):
            m.ball_mass_many([0.0], 1e-4)

    def test_nan_radius_rejected(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 8), tiling2)
        assert m.scale is not None  # a full lattice: atom_ball_masses would take the slices
        for query in (lambda r: m.ball_mass_many([0.5], r), m.atom_ball_masses):
            with pytest.raises(ScaleBelowResolution):
                query(np.nan)

    def test_monotone_in_radius(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 8), tiling2)
        masses = [m.ball_mass_many([0.37], r)[0] for r in (0.01, 0.05, 0.1, 0.4)]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))


class TestLatticeBallMasses:
    """``atom_ball_masses`` against the search path ``ball_mass_many(points, r)``."""

    CASES = {
        "lognormal-tiling2": (2, AffineIfs.tiling(2), WeightLaw.lognormal(0.5), 10, 3),
        # gaps inside the support, and balls clipped at both ends of the range
        "percolation": (2, AffineIfs.tiling(2), WeightLaw.percolation(0.7), 9, 8),
        "tiling4": (4, AffineIfs.tiling(4), WeightLaw.lognormal(0.5), 7, 3),
        # tail fixed point -1: negative cells, two apart
        "negative-cells": (2, AffineIfs.from_maps([(0.5, -0.5), (0.5, 0.5)]), WeightLaw.lognormal(0.5), 10, 3),
        # maps 1 and 2 coincide: merged atoms
        "exact-overlap": (3, EX_OVERLAP, WeightLaw.lognormal(0.5), 7, 3),
    }
    # the cases whose atoms leave cells empty, so every radius takes the search
    PARTIAL = {"percolation", "negative-cells"}

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        search = AtomicMeasure.ball_mass_many

        def spy(self, centers, r):
            calls.append(r)
            return search(self, centers, r)

        monkeypatch.setattr(AtomicMeasure, "ball_mass_many", spy)
        return calls

    @pytest.mark.parametrize("name", list(CASES), ids=list(CASES))
    def test_routed_masses_equal_search(self, name, monkeypatch):
        a, ifs, law, depth, seed = self.CASES[name]
        cm = cascade_measure(SymbolicMeasure.uniform(a), Subshift.full(a), law, depth, KeyedRng(seed))
        m = pushforward(cm, ifs)
        assert m.scale == ifs.equal_ratio**-depth
        norm = m.normalized()
        assert norm.scale == m.scale
        clipped_low = clipped_high = False
        for measure in (m, norm):
            for r in default_scales(ifs.equal_ratio, depth):
                calls = self._spy(monkeypatch)
                got = measure.atom_ball_masses(r)
                assert calls == ([r] if name in self.PARTIAL else [])  # the search, or the slices
                monkeypatch.undo()
                assert got.tobytes() == measure.ball_mass_many(measure.points, r).tobytes(), r
                cells = np.round(measure.points * measure.scale)
                R = r * measure.scale
                clipped_low |= bool((cells - R < cells[0]).any())
                clipped_high |= bool((cells + R > cells[-1]).any())
        assert clipped_low and clipped_high
        if name == "percolation":
            assert (np.diff(np.round(m.points * m.scale)) > 1).any()
        if name == "negative-cells":
            assert m.points[0] < 0
        if name == "exact-overlap":
            assert len(m) < len(cm.codes)

    @pytest.mark.parametrize("cells", [1, 2, 37, 1024])
    def test_full_lattice_slices_equal_search(self, cells, monkeypatch):
        # every cell from -5 on holds one atom, so atom i sits in cell i
        rng = np.random.default_rng(cells)
        scale = 64.0
        weights = rng.random(cells) ** 4  # spread in size, so the partial sums round
        m = AtomicMeasure((np.arange(cells) - 5) / scale, weights, 0.0)
        m.scale = scale
        for measure in (m, m.normalized()):
            for R in sorted({0, 1, cells // 2, cells - 1, cells, cells + 1, 10 * cells}):
                calls = self._spy(monkeypatch)
                got = measure.atom_ball_masses(R / scale)
                assert calls == []  # the slices ran
                monkeypatch.undo()
                assert got.tobytes() == measure.ball_mass_many(measure.points, R / scale).tobytes(), R

    def test_full_lattice_cascade_takes_the_slices(self, monkeypatch):
        cm = cascade_measure(SymbolicMeasure.uniform(2), Subshift.full(2), WeightLaw.lognormal(0.5), 10, KeyedRng(6))
        m = pushforward(cm, AffineIfs.tiling(2))
        for r in (m.resolution, *default_scales(0.5, 10), 2.0, 4.0):
            calls = self._spy(monkeypatch)
            got = m.atom_ball_masses(r)
            assert calls == []  # the slices ran
            monkeypatch.undo()
            assert got.tobytes() == m.ball_mass_many(m.points, r).tobytes(), r

    def test_off_lattice_radius_falls_back(self, monkeypatch):
        m = pushforward(unit_cascade(SymbolicMeasure.uniform(2), Subshift.full(2), 10), AffineIfs.tiling(2))
        calls = self._spy(monkeypatch)
        got = m.atom_ball_masses(0.3)
        assert calls == [0.3]
        monkeypatch.undo()
        assert np.array_equal(got, m.ball_mass_many(m.points, 0.3))

    def test_sparse_range_falls_back_without_allocating(self, monkeypatch):
        depth = 22  # two atoms 2^22 - 1 cells apart: a 32 MB dense array
        cm = CylinderMeasure(np.array([0, 2**depth - 1]), np.array([0.25, 0.75]), depth, 2)
        m = pushforward(cm, AffineIfs.tiling(2))
        assert m.scale == 2.0**depth
        r = 2.0**-3
        calls = self._spy(monkeypatch)
        tracemalloc.start()
        try:
            got = m.atom_ball_masses(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [r]
        assert peak < 2**20
        assert got.tolist() == [0.25, 0.75]

    def test_below_resolution_raises(self):
        m = pushforward(unit_cascade(SymbolicMeasure.uniform(2), Subshift.full(2), 8), AffineIfs.tiling(2))
        assert m.scale is not None
        with pytest.raises(ScaleBelowResolution):
            m.atom_ball_masses(m.resolution / 2)

    def test_off_lattice_ifs_untagged(self):
        m3 = pushforward(unit_cascade(SymbolicMeasure.uniform(3), Subshift.full(3), 6), AffineIfs.tiling(3))
        bc = bernoulli_convolution(0.4, 0.5, 8)
        for m in (m3, bc):
            assert m.scale is None
            r = 4 * m.resolution
            assert np.array_equal(m.atom_ball_masses(r), m.ball_mass_many(m.points, r))
