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
    box_count,
    box_dimension,
    cascade_measure,
    default_scales,
    entropy_dimension,
    fit_loglog,
    product,
    pushforward,
)
from cascadim.dimension import ScalingFit, _entropy_at_scale
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
        assert box_count(m, 0.25) == 3
        assert box_count(m, 0.5) == 2

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
        fit = box_dimension(pts, [2.0**-k for k in range(4, 20)])
        assert abs(fit.slope) < 0.05

    def test_needs_enough_scales(self):
        with pytest.raises(DegenerateWindow):
            box_dimension(IntervalSet([0.0], [1.0], source_scale=0.2), [0.5, 0.25, 0.125, 0.01])


class TestFitLoglog:
    def test_exact_line(self):
        slope, stderr, r2 = fit_loglog([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        assert slope == pytest.approx(2.0, abs=1e-14)
        assert stderr == pytest.approx(0.0, abs=1e-14)
        assert r2 == pytest.approx(1.0, abs=1e-14)

    def test_constant(self):
        slope, stderr, r2 = fit_loglog([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert slope == 0.0 and stderr == 0.0

    def test_window(self):
        xs = np.arange(10.0)
        ys = np.concatenate([np.zeros(5), 2 * np.arange(5.0)])
        slope, _, _ = fit_loglog(xs, ys, window=(5, 10))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_noisy_recovery(self, np_rng):
        hits = 0
        for _ in range(100):
            xs = np.linspace(0, 5, 30)
            ys = 1.7 * xs + 0.4 + np_rng.normal(0, 0.2, 30)
            slope, stderr, _ = fit_loglog(xs, ys)
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
            assert _entropy_at_scale(m, r, None, None)[0] == pytest.approx(0.0, abs=1e-15)

    def test_separated_atoms_log_n(self):
        m = AtomicMeasure(np.arange(8.0), np.full(8, 0.125), resolution=0.0)
        assert _entropy_at_scale(m, 0.25, None, None)[0] == pytest.approx(math.log(8), abs=1e-12)

    def test_full_summation_oracle(self, uniform2):
        # independent oracle: explicit python loop over atoms
        m = unit_pushforward([0.5, 0.5], 12)
        r = 2.0**-6
        norm_w = m.weights / m.total_weight
        expect = 0.0
        for x, w in zip(m.points, norm_w):
            mass = norm_w[(m.points >= x - r) & (m.points <= x + r)].sum()
            expect -= w * math.log(mass)
        assert _entropy_at_scale(m, r, None, None)[0] == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(-math.log(2 * r), abs=0.05)

    def test_monte_carlo_matches_full(self, uniform2):
        m = unit_pushforward([0.3, 0.7], 12)
        r = 2.0**-5
        full = _entropy_at_scale(m, r, None, None)[0]
        mc = _entropy_at_scale(m, r, 4000, KeyedRng(9))[0]
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
            if cm.is_degenerate:
                continue
            fit = entropy_dimension(pushforward(cm, AffineIfs.tiling(2)), default_scales(0.5, 16))
            slopes.append(fit.slope)
        target = 1 + math.log(0.7) / math.log(2)
        stderr = np.std(slopes, ddof=1) / math.sqrt(len(slopes))
        assert abs(np.mean(slopes) - target) <= max(0.06, 3 * stderr)

    def test_monte_carlo_needs_rng(self):
        m = unit_pushforward([0.5, 0.5], 8)
        with pytest.raises(ValueError, match="needs an rng"):
            entropy_dimension(m, default_scales(0.5, 8), sample_size=50)

    def test_min_quotient_reported(self):
        m = unit_pushforward([0.5, 0.5], 10)
        fit = entropy_dimension(m, default_scales(0.5, 10))
        assert fit.min_quotient is not None
        assert fit.min_quotient <= fit.slope + 0.2

    def test_product_additivity(self):
        # 2-d product of tiling measures: dimensions add within tolerance.
        # Brute planar scaling entropy: 500 centers drawn from the product
        # law, each disc mass summed over every pair
        m1 = unit_pushforward([0.2, 0.8], 8)
        m2 = unit_pushforward([0.3, 0.7], 7)
        prod = product(m1, m2)
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
        slope, _, _ = fit_loglog(-np.log(scales), hs)
        d1 = entropy_dimension(m1, [2.0**-k for k in range(2, 6)]).slope
        d2 = entropy_dimension(m2, [2.0**-k for k in range(2, 6)]).slope
        assert slope == pytest.approx(d1 + d2, abs=0.15)


class TestScalingFitIO:
    def test_summary(self):
        fit = ScalingFit(
            np.array([0.5, 0.25]), np.array([1.0, 2.0]), 1.0, 0.0, 1.0, (0, 2)
        )
        s = fit.summary()
        assert set(s) == {"slope", "stderr", "r_squared", "window", "points"}
