import math
import warnings

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
    box_count,
    box_dimension,
    cascade_measure,
    default_scales,
    entropy_dimension,
    fit_loglog,
    product,
    pushforward,
)
from cascadim.dimension import _entropy_at_scale
from cascadim.errors import DegenerateWindow, ScaleBelowResolution


def unit_pushforward(probs, depth, a=None, seed=1):
    a = a or len(probs)
    base = SymbolicMeasure.bernoulli(probs)
    cm = cascade_measure(base, Subshift.full(a), WeightLaw.percolation(1.0), depth, KeyedRng(seed))
    return pushforward(cm, AffineIfs.tiling(a))


def triadic_cantor(depth):
    los = np.array([0.0])
    for _ in range(depth):
        los = np.concatenate([los / 3, los / 3 + 2 / 3])
    los = np.sort(los)
    return IntervalSet(los, los + 3.0**-depth, source_scale=3.0**-depth)


class TestBoxCount:
    def test_unit_interval_convention(self):
        # direct enumeration oracle: cells [k/4,(k+1)/4) meeting the closed [0,1]
        cells = {k for k in range(-1, 6) if k * 0.25 <= 1.0 and (k + 1) * 0.25 > 0.0}
        assert box_count(IntervalSet([0.0], [1.0]), 0.25) == len(cells) == 5

    def test_empty_set(self):
        assert box_count(IntervalSet.empty(), 0.25) == 0

    def test_nan_and_nonpositive_eps_rejected(self):
        s = IntervalSet([0.0], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
            for eps in (np.nan, 0.0, -0.25):
                with pytest.raises(ValueError, match="eps must be positive"):
                    box_count(s, eps)

    def test_dyadic_exact_against_integer_oracle(self, golden_mean, tiling2):
        from cascadim import set_image

        img = set_image(golden_mean.admissible_codes(8), tiling2, 8)
        for k in (2, 4, 6):
            eps = 2.0**-k
            # integer oracle on the exact dyadic grid
            scale = 2**8
            cells = set()
            for lo, hi in zip(img.los, img.his):
                a = int(round(lo * scale))
                b = int(round(hi * scale))
                step = scale // 2**k
                cells.update(range(a // step, b // step + 1))
            assert box_count(img, eps) == len(cells)

    def test_cantor_counts_bracketed(self):
        # closed-set/half-open-cell convention adds boundary cells, so the
        # triadic count sits between 2^k and 2^(k+1) (float-rounding dependent)
        c = triadic_cantor(12)
        for k in (2, 5, 8):
            n = box_count(c, 3.0**-k)
            assert 2**k <= n <= 2 ** (k + 1)

    def test_scale_floor(self):
        c = triadic_cantor(5)
        with pytest.raises(ScaleBelowResolution):
            box_count(c, 3.0**-8)

    def test_atom_support_counting(self):
        m = AtomicMeasure([0.1, 0.26, 0.9], [1.0, 1.0, 1.0], resolution=0.0)
        support = IntervalSet(m.points, m.points, m.resolution)
        assert box_count(support, 0.25) == 3
        assert box_count(support, 0.5) == 2

    def test_nested_grid_monotone(self, golden_mean, tiling2):
        from cascadim import set_image

        img = set_image(golden_mean.admissible_codes(10), tiling2, 10)
        eps = 2.0**-8
        assert box_count(img, 2 * eps) <= box_count(img, eps)
        assert box_count(img, 4 * eps) <= box_count(img, 2 * eps)

    def test_scaling_consistency(self):
        # dyadic scaling keeps the anchored grid aligned: counts are equal
        base = triadic_cantor(6)
        scaled = IntervalSet(base.los * 4, base.his * 4, source_scale=base.source_scale * 4)
        for k in (2, 4):
            assert box_count(scaled, 4 * 3.0**-k) == box_count(base, 3.0**-k)


class TestBoxDimension:
    def test_unit_interval(self):
        fit = box_dimension(IntervalSet([0.0], [1.0]), [2.0**-k for k in range(4, 16)])
        assert fit.slope == pytest.approx(1.0, abs=0.02)

    def test_cantor_depth_12(self):
        fit = box_dimension(triadic_cantor(12), [3.0**-k for k in range(1, 11)])
        assert fit.slope == pytest.approx(math.log(2) / math.log(3), abs=0.02)

    def test_finite_point_set_flat(self):
        pts = AtomicMeasure([0.0, 0.3, 0.7], [1.0, 1.0, 1.0], resolution=1e-9)
        fit = box_dimension(IntervalSet(pts.points, pts.points, pts.resolution), [2.0**-k for k in range(4, 20)])
        assert abs(fit.slope) < 0.05

    def test_needs_enough_scales(self):
        with pytest.raises(DegenerateWindow):
            box_dimension(IntervalSet([0.0], [1.0], source_scale=0.2), [0.5, 0.25, 0.125, 0.01])


class TestFitLoglog:
    def test_exact_line(self):
        slope, stderr = fit_loglog([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        assert slope == pytest.approx(2.0, abs=1e-14)
        assert stderr == pytest.approx(0.0, abs=1e-14)

    def test_constant(self):
        slope, stderr = fit_loglog([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert slope == 0.0 and stderr == 0.0

    def test_noisy_recovery(self, np_rng):
        hits = 0
        for _ in range(100):
            xs = np.linspace(0, 5, 30)
            ys = 1.7 * xs + 0.4 + np_rng.normal(0, 0.2, 30)
            slope, stderr = fit_loglog(xs, ys)
            if abs(slope - 1.7) <= 3 * stderr:
                hits += 1
        assert hits >= 95  # 3-sigma coverage, allowing a few misses

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindow):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DegenerateWindow):
            fit_loglog([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestScalingEntropy:
    def test_single_atom_zero(self):
        m = AtomicMeasure([0.3], [1.0], resolution=0.0)
        for r in (0.01, 0.5):
            assert _entropy_at_scale(m, r, None) == pytest.approx(0.0, abs=1e-15)

    def test_separated_atoms_log_n(self):
        m = AtomicMeasure(np.arange(8.0), np.full(8, 0.125), resolution=0.0)
        assert _entropy_at_scale(m, 0.25, None) == pytest.approx(math.log(8), abs=1e-12)

    def test_full_summation_oracle(self, uniform2):
        # independent oracle: explicit python loop over atoms
        m = unit_pushforward([0.5, 0.5], 12)
        r = 2.0**-6
        norm_w = m.weights / m.total_weight
        expect = 0.0
        for x, w in zip(m.points, norm_w):
            mass = norm_w[(m.points >= x - r) & (m.points <= x + r)].sum()
            expect -= w * math.log(mass)
        assert _entropy_at_scale(m.normalized(), r, None) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(-math.log(2 * r), abs=0.05)

    def test_monte_carlo_matches_full(self, uniform2):
        m = unit_pushforward([0.3, 0.7], 12)
        r = 2.0**-5
        norm = m.normalized()
        full = _entropy_at_scale(norm, r, None)
        mc = _entropy_at_scale(norm, r, norm.sample_points(4000, KeyedRng(9)))
        # internal spread of -log mass at this scale is below 1.5
        assert abs(mc - full) < 4 * 1.5 / math.sqrt(4000)


class TestEntropyDimension:
    def test_lebesgue_like(self):
        m = unit_pushforward([0.5, 0.5], 14)
        fit = entropy_dimension(m, default_scales(0.5, 14))
        assert fit.slope == pytest.approx(1.0, abs=0.03)

    def test_skew_bernoulli(self):
        m = unit_pushforward([0.1, 0.9], 16)
        h = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
        fit = entropy_dimension(m, default_scales(0.5, 16))
        assert fit.slope == pytest.approx(h / math.log(2), abs=0.05)

    def test_cascade_dimension_drop(self, uniform2):
        # per-seed slopes are noisy (few surviving leaves), so the check uses
        # the stated tolerance widened by three standard errors of the mean
        law = WeightLaw.percolation(0.7)
        slopes = []
        seed = 0
        while len(slopes) < 16:
            cm = cascade_measure(uniform2, Subshift.full(2), law, 16, KeyedRng(500).derive(seed))
            seed += 1
            if not len(cm):
                continue
            fit = entropy_dimension(pushforward(cm, AffineIfs.tiling(2)), default_scales(0.5, 16))
            slopes.append(fit.slope)
        target = 1 + math.log(0.7) / math.log(2)
        stderr = np.std(slopes, ddof=1) / math.sqrt(len(slopes))
        assert abs(np.mean(slopes) - target) <= max(0.06, 3 * stderr)

    def test_monte_carlo_draws_centers_once(self, monkeypatch):
        m = unit_pushforward([0.3, 0.7], 12)
        scales = default_scales(0.5, 12)
        norm = m.normalized()
        # the fit of one fresh draw per radius, as the centers were once drawn
        hs = [_entropy_at_scale(norm, r, norm.sample_points(500, KeyedRng(6))) for r in scales]
        draws = []
        sample = AtomicMeasure.sample_points

        def counted(self, count, rng):
            draws.append(count)
            return sample(self, count, rng)

        monkeypatch.setattr(AtomicMeasure, "sample_points", counted)
        fit = entropy_dimension(m, scales, sample_size=500, rng=KeyedRng(6))
        assert draws == [500]
        assert np.array_equal(fit.observable, hs)
        assert (fit.slope, fit.stderr) == fit_loglog(-np.log(fit.scales), hs)

    def test_sorted_centers_match_plain_searches(self):
        # atoms on the grid k/8 with +0.0 and -0.0 among them; centres with
        # ties, both zeros, atoms (so atom +/- r lands on atoms for r = k/8)
        # and points between atoms, in shuffled draw orders
        grid = np.arange(-8, 9) / 8
        points = np.concatenate([[-0.0], grid[grid != 0]])
        m = AtomicMeasure(points, np.random.default_rng(8).random(points.size) + 0.05, 0.0)
        norm = m.normalized()
        base = np.concatenate([grid, [-0.0, 0.0, -0.0, 0.5, 0.5, 0.5, 1 / 16, -0.3, 0.999, 1.0, 1.0]])
        for seed in range(5):
            centers = np.random.default_rng(seed).permutation(np.tile(base, 3))
            order = np.argsort(centers)
            for r in (1 / 16, 1 / 8, 1 / 4, 3 / 8, 0.3, 2.0):
                plain = norm.ball_mass_many(centers, r)
                scattered = np.empty_like(plain)
                scattered[order] = norm.ball_mass_many(centers[order], r)
                assert np.array_equal(scattered.view(np.int64), plain.view(np.int64))
                sorted_h = _entropy_at_scale(norm, r, centers[order], order)
                assert sorted_h == _entropy_at_scale(norm, r, centers)

    def test_monte_carlo_sample_count_must_be_a_positive_integer(self):
        m = unit_pushforward([0.3, 0.7], 10)
        scales = default_scales(0.5, 10)
        for count in (0, -5, 2.5, True):
            with pytest.raises(ValueError, match="sample count must be a positive integer"):
                entropy_dimension(m, scales, sample_size=count, rng=KeyedRng(1))
            with pytest.raises(ValueError, match="sample count must be a positive integer"):
                m.sample_points(count, KeyedRng(1))
        assert m.sample_points(np.int64(3), KeyedRng(1)).size == 3

    def test_monte_carlo_needs_rng(self):
        m = unit_pushforward([0.5, 0.5], 8)
        with pytest.raises(ValueError, match="needs an rng"):
            entropy_dimension(m, default_scales(0.5, 8), sample_size=50)

    def test_product_additivity(self):
        # 2-d product of tiling measures: dimensions add within tolerance.
        # Brute planar scaling entropy: 500 centers drawn from the product
        # law, each disc mass summed over every pair
        m1 = unit_pushforward([0.2, 0.8], 8)
        m2 = unit_pushforward([0.3, 0.7], 7)
        prod = product(m1, m2, atom_cap=2**15)
        w = prod.weights / prod.weights.sum()
        u = KeyedRng(4).counter_uniforms(0xE17, 500)
        centers = np.minimum(np.searchsorted(np.cumsum(w), u, side="right"), len(w) - 1)
        scales = [2.0**-k for k in range(2, 6)]
        hs = []
        for r in scales:
            masses = [
                w[(prod.xs - prod.xs[k]) ** 2 + (prod.ys - prod.ys[k]) ** 2 <= r * r].sum()
                for k in centers
            ]
            hs.append(-np.mean(np.log(masses)))
        slope, _ = fit_loglog(-np.log(scales), hs)
        d1 = entropy_dimension(m1, [2.0**-k for k in range(2, 6)]).slope
        d2 = entropy_dimension(m2, [2.0**-k for k in range(2, 6)]).slope
        assert slope == pytest.approx(d1 + d2, abs=0.15)

