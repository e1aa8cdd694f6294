import math

import numpy as np
import pytest

from cascadim import (
    AffineIfs,
    AtomicMeasure,
    IntervalSet,
    KeyedRng,
    Subshift,
    SymbolicMeasure,
    WeightLaw,
    bernoulli_convolution,
    cascade_measure,
    convolve,
    marginal,
    percolation_codes,
    product,
    project,
    pushforward,
    set_image,
    sumset,
)
from cascadim import euclid
from cascadim.errors import CapExceeded, ScaleBelowResolution
from cascadim.euclid import _product_pairs
from cascadim.symbolic import codes_to_letters
from oracles import cylinder_interval

EX_OVERLAP = AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.0), (0.5, 0.5)])


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


# equal-ratio IFSs whose images lie on the grid m^-n: set_image takes the lattice path
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


def _assert_float_path_image(img, ifs, codes, n):
    """``img`` against the merged float intervals, bit for bit."""
    los, his = ifs.intervals_for_codes(codes, n)
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
            cases[f"percolation, seed {seed}"] = (percolation_codes(shift, p, 16, KeyedRng(seed)), 16)
        return cases

    @pytest.mark.parametrize("name", list(LATTICE_IFS), ids=list(LATTICE_IFS))
    def test_bitwise_equal_to_float_path(self, name):
        ifs, shift, p = LATTICE_IFS[name]
        for case, (codes, n) in self._cases(ifs.alphabet_size, shift, p).items():
            assert ifs.lattice(n) is not None, case
            assert codes.size > 0, case
            _assert_float_path_image(set_image(codes, ifs, length=n), ifs, codes, n)

    def test_lattice_data(self):
        assert EX_OVERLAP.lattice(16) == (2, (0, 0, 1), 0, 1)
        assert LATTICE_IFS["hull [-1, 1]"][0].lattice(3) == (2, (-1, 1), -1, 1)
        assert LATTICE_IFS["degenerate hull"][0].lattice(3) == (2, (1, 1), 1, 1)
        # m^n (max|d| + |lo| + |hi|) < 2^53
        assert AffineIfs.tiling(2).lattice(51) is not None
        assert AffineIfs.tiling(2).lattice(52) is None
        # a -0.0 translation reaches a float endpoint, which no integer cell gives
        neg_zero = self.UNROUTED["translation -0.0"][0]
        assert np.signbit(neg_zero.intervals_for_codes(np.array([0]), 3)[0][0])

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

        monkeypatch.setattr(AffineIfs, "lattice_offsets", no_lattice)
        a = ifs.alphabet_size
        codes = np.unique(np.random.default_rng(9).integers(0, a**n, 500))
        codes = np.concatenate([[0], codes])  # the all-ones word, where -0.0 can show
        _assert_float_path_image(set_image(codes, ifs, length=n), ifs, codes, n)


class TestProduct:
    def test_single_atoms(self):
        m = product(AtomicMeasure([1.0], [0.5], 0.0), AtomicMeasure([2.0], [0.25], 0.0))
        assert np.column_stack([m.xs, m.ys]).tolist() == [[1.0, 2.0]]
        assert m.weights.tolist() == [0.125]

    def test_exact_total(self):
        m1 = AtomicMeasure([0.0, 1.0], [0.4, 0.6], 0.0)
        m2 = AtomicMeasure([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], 0.0)
        m = product(m1, m2)
        assert m.weights.sum() == pytest.approx(m1.total_weight * m2.total_weight, abs=1e-9)

    def test_sampled_matches_exact_ball_masses(self, np_rng):
        def disc_mass(pairs, center, r):  # brute planar ball mass over all pairs
            inside = (pairs.xs - center[0]) ** 2 + (pairs.ys - center[1]) ** 2 <= r * r
            return float(pairs.weights[inside].sum())

        xs = np.linspace(0, 1, 10)
        m1 = AtomicMeasure(xs, np_rng.random(10) + 0.1, 0.0)
        m2 = AtomicMeasure(xs, np_rng.random(10) + 0.1, 0.0)
        exact = product(m1, m2)
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

    def test_sampled_pairs_in_xy_order(self):
        # the pairs come out as a stable lexsort on (x, y) of the draws would
        # leave them: in (x, y) order, equal atoms in draw order
        m1 = AtomicMeasure([0.9, 0.1, 0.5, 0.3], [1.0, 6.0, 2.0, 1.0], 0.0)
        m2 = AtomicMeasure([0.7, 0.2, 0.4], [5.0, 1.0, 1.0], 0.0)
        i, j, ws = _product_pairs(m1, m2, 9, KeyedRng(5))
        xs, ys = m1.points[i], m2.points[j]
        order = np.lexsort((ys, xs))
        prod = product(m1, m2, atom_cap=9, rng=KeyedRng(5))
        assert np.array_equal(prod.xs, xs[order])
        assert np.array_equal(prod.ys, ys[order])
        assert np.array_equal(prod.weights, ws[order])
        pairs = list(zip(prod.xs, prod.ys))
        assert pairs == sorted(pairs)
        assert len(set(pairs)) < len(pairs) and not np.array_equal(order, np.arange(9))


class TestProjection:
    def test_zero_exponent_plus(self):
        prod = product(AtomicMeasure([0.0], [1.0], 0.0), AtomicMeasure([0.0], [1.0], 0.0))
        m = project(prod, 0.0, +1, 0.5)
        assert m.points.tolist() == [0.0]

    def test_weight_preserved_and_formula(self):
        prod = product(AtomicMeasure([2.0], [0.5], 0.0), AtomicMeasure([3.0], [0.4], 0.0))
        m = project(prod, 2.0, +1, 0.5)
        assert m.points[0] == pytest.approx(0.25 * 2.0 + 3.0)
        assert m.weights[0] == pytest.approx(0.2)
        mm = project(prod, 2.0, -1, 0.5)
        assert mm.points[0] == pytest.approx(0.25 * 2.0 - 3.0)

    def test_marginals_recover_factors(self):
        m1 = AtomicMeasure([0.0, 1.0], [0.4, 0.6], 0.0)
        m2 = AtomicMeasure([0.0, 2.0], [0.7, 0.3], 0.0)
        prod = product(m1, m2)
        mx = marginal(prod, 0)
        assert mx.points.tolist() == m1.points.tolist()
        assert np.allclose(mx.weights, m1.weights, atol=1e-15)
        my = marginal(prod, 1)
        assert np.allclose(my.weights, m2.weights, atol=1e-15)


class TestConvolve:
    def test_point_masses_add(self):
        m = convolve(AtomicMeasure([1.5], [1.0], 0.0), AtomicMeasure([-0.5], [1.0], 0.0))
        assert m.points.tolist() == [1.0]
        assert m.weights.tolist() == [1.0]

    def test_commutative_ball_masses(self, uniform2, tiling2):
        m1 = pushforward(unit_cascade(uniform2, Subshift.full(2), 6), tiling2)
        m2 = pushforward(unit_cascade(SymbolicMeasure.bernoulli([0.3, 0.7]), Subshift.full(2), 5), tiling2)
        c12 = convolve(m1, m2)
        c21 = convolve(m2, m1)
        for center in (0.3, 0.9, 1.5):
            assert c12.ball_mass(center, 0.1) == pytest.approx(c21.ball_mass(center, 0.1), rel=1e-12)

    def test_binomial_profile_oracle(self, uniform2, tiling2):
        # self-convolution of the depth-6 uniform tiling measure: the atom
        # weights on the grid follow the discrete self-convolution
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 6), tiling2)
        conv = convolve(m, m)
        oracle = np.convolve(np.full(64, 1 / 64), np.full(64, 1 / 64))
        assert len(conv) == 127
        assert np.allclose(np.sort(conv.weights)[::-1], np.sort(oracle)[::-1], atol=1e-15)
        assert conv.weights[0] == pytest.approx(1 / 4096, abs=1e-18)

    def test_equals_projected_product(self):
        m1 = AtomicMeasure([0.0, 0.25, 0.75], [0.2, 0.5, 0.3], 0.0)
        m2 = AtomicMeasure([0.1, 0.6], [0.5, 0.5], 0.0)
        conv = convolve(m1, m2)
        proj = project(product(m1, m2), 0.0, +1, 0.5)
        # normalization pair (scale, shift) = (1, 0): identical atom sets
        assert np.allclose(np.sort(conv.points), np.sort(proj.points), atol=0)
        for center in (0.3, 0.85):
            assert conv.ball_mass(center, 0.2) == pytest.approx(proj.ball_mass(center, 0.2), abs=1e-15)
        # exact grid and sampled mode give the projected product bit for bit
        for kwargs in ({}, {"atom_cap": 5, "rng": KeyedRng(3)}):
            conv = convolve(m1, m2, **kwargs)
            proj = project(product(m1, m2, **kwargs), 0.0, +1, 0.5)
            assert np.array_equal(conv.points, proj.points)
            assert np.array_equal(conv.weights, proj.weights)

    def test_general_exponent_reduces_to_scaled_convolution(self):
        # project(product, s, +) == convolve(scaled(m1, delta^s), m2), (1, 0) map
        m1 = AtomicMeasure([0.0, 0.25, 0.75], [0.2, 0.5, 0.3], 0.0)
        m2 = AtomicMeasure([0.1, 0.6], [0.5, 0.5], 0.0)
        delta, s = 0.5, 1.5
        proj = project(product(m1, m2), s, +1, delta)
        conv = convolve(m1.scaled(delta**s), m2)
        assert np.allclose(np.sort(proj.points), np.sort(conv.points), atol=1e-15)
        for center in (0.3, 0.7):
            assert proj.ball_mass(center, 0.2) == pytest.approx(conv.ball_mass(center, 0.2), abs=1e-15)


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
        out = sumset(u, u, 1.0)
        assert len(out) == 1 and (out.los[0], out.his[0]) == (0.0, 2.0)

    def test_singleton_second_set(self):
        pts = IntervalSet([0.0, 1.0], [0.0, 1.0])
        single = IntervalSet([0.0], [0.0])
        out = sumset(pts, single, 2.5)
        assert out.los.tolist() == [0.0, 1.0]
        assert out.his.tolist() == [0.0, 1.0]

    def test_zero_s_rejected(self):
        u = IntervalSet([0.0], [1.0])
        with pytest.raises(ValueError):
            sumset(u, u, 0.0)

    def test_pair_cap(self):
        a = IntervalSet(np.arange(100.0) * 2, np.arange(100.0) * 2 + 0.5)
        with pytest.raises(CapExceeded):
            sumset(a, a, 1.0, pair_cap=100)

    def test_exhaustive_oracle_golden_triadic(self, golden_mean, tiling2):
        # incommensurable pairing: depth-6 golden-mean image + sqrt(2) * depth-4 triadic image
        img1 = set_image(golden_mean.admissible_codes(6), tiling2, 6)
        c2 = percolation_codes(Subshift.full(3), 0.7, 4, KeyedRng(5))
        img2 = set_image(c2, AffineIfs.tiling(3), length=4)
        s = math.sqrt(2.0)
        out = sumset(img1, img2, s)
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
                    eroded = sumset(a, b, s)
                    assert np.array_equal(brute.los, eroded.los)
                    assert np.array_equal(brute.his, eroded.his)
        # isolated points survive: {0, 1} + {0}
        pts = IntervalSet([0.0, 1.0], [0.0, 1.0])
        out = sumset(pts, IntervalSet([0.0], [0.0]), 1.0)
        assert out.los.tolist() == [0.0, 1.0] and out.his.tolist() == [0.0, 1.0]

    def test_blocked_erosion_matches_one_family_loop(self, monkeypatch):
        sqrt2 = math.sqrt(2.0)
        # percolation images of the sumset-dim sizes: C is wide for many
        # blocks before it shrinks to its two rays
        for seed in (3, 11):
            rng = KeyedRng(seed)
            ca = percolation_codes(Subshift.full(2), 0.9, 16, rng.derive(1))
            cb = percolation_codes(Subshift.full(3), 0.9, 10, rng.derive(2))
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
                    out = sumset(a, b, s)
                    assert np.array_equal(out.los, los) and np.array_equal(out.his, his)

    def test_reflection_identity(self):
        # {x + s y} = s * {y + (1/s) x}
        rng = np.random.default_rng(5)
        lo1 = np.sort(rng.random(40))
        s1 = IntervalSet(lo1, lo1 + 0.01)
        lo2 = np.sort(rng.random(30)) * 2
        s2 = IntervalSet(lo2, lo2 + 0.02)
        for s in (2.0, -0.7):
            left = sumset(s1, s2, s)
            right = sumset(s2, s1, 1.0 / s).scale(s)
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
            assert m.ball_mass(center, r) == pytest.approx(0.5**k, abs=1e-12)


class TestBallMass:
    def test_whole_support(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 8), tiling2)
        lo, hi = m.points[0], m.points[-1]
        assert m.ball_mass((lo + hi) / 2, hi - lo) == pytest.approx(m.total_weight, abs=1e-12)

    def test_single_atom_small_ball(self):
        m = AtomicMeasure([0.0, 1.0], [0.25, 0.75], resolution=1e-6)
        assert m.ball_mass(1.0, 1e-5) == pytest.approx(0.75)

    def test_uniform_interval_mass(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 10), tiling2)
        got = m.ball_mass(0.5, 2.0**-4)
        assert abs(got - 2 * 2.0**-4) <= 1 / 1024 + 1e-12

    def test_scale_floor_enforced(self):
        m = AtomicMeasure([0.0], [1.0], resolution=1e-3)
        with pytest.raises(ScaleBelowResolution):
            m.ball_mass(0.0, 1e-4)

    def test_monotone_in_radius(self, uniform2, tiling2):
        m = pushforward(unit_cascade(uniform2, Subshift.full(2), 8), tiling2)
        masses = [m.ball_mass(0.37, r) for r in (0.01, 0.05, 0.1, 0.4)]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))
