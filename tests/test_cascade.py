import hashlib
import math
import warnings

import numpy as np
import pytest

from cascadim import (
    AffineIfs,
    CylinderMeasure,
    KeyedRng,
    Subshift,
    SymbolicMeasure,
    WeightLaw,
    bernoulli_convolution,
    cascade_mass_trace,
    cascade_measure,
    percolation_codes,
)
from cascadim import symbolic
from cascadim.cascade import _grow, _keep_threshold, _to_uniform, degenerate_regime
from cascadim.errors import CapExceeded
from cascadim.symbolic import codes_to_letters, walk_tree
from oracles import cell_offsets, cylinder_mass, draw_weight

# on the binary tiling the words that percolation_codes numbers for set_image are their codes
TILING2 = AffineIfs.tiling(2)


class TestWeightLaw:
    def test_percolation_unit(self):
        assert WeightLaw.percolation(1.0).weight_entropy() == pytest.approx(0.0, abs=1e-15)

    def test_percolation_entropy(self):
        for p in (0.3, 0.7, 0.95):
            assert WeightLaw.percolation(p).weight_entropy() == pytest.approx(-math.log(p), abs=1e-12)

    def test_discrete_two_point(self):
        law = WeightLaw.discrete([2.0, 0.0], [0.5, 0.5])
        assert law.weight_entropy() == pytest.approx(0.5 * 2.0 * math.log(2.0), abs=1e-12)

    def test_lognormal_entropy(self):
        assert WeightLaw.lognormal(0.5).weight_entropy() == pytest.approx(0.125, abs=1e-15)

    def test_discrete_mean_one_enforced(self):
        with pytest.raises(ValueError):
            WeightLaw.discrete([2.0, 0.5], [0.5, 0.5])

    def test_percolation_range(self):
        with pytest.raises(ValueError):
            WeightLaw.percolation(0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_lognormal_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            WeightLaw.lognormal(sigma)

    @pytest.mark.parametrize(
        "values, probs",
        [([math.nan, 1.0], [0.0, 1.0]), ([math.inf, 1.0], [0.0, 1.0]), ([2.0, 0.0], [math.nan, 0.5])],
        ids=["nan value", "inf value", "nan prob"],
    )
    def test_discrete_non_finite_rejected(self, values, probs):
        with pytest.raises(ValueError, match="finite"):
            WeightLaw.discrete(values, probs)

    @pytest.mark.parametrize(
        "values, probs",
        [([2.0, 0.0], [0.5, 0.5]), ([0.0, 1.5], [1 / 3, 2 / 3]), ([0.5, 1.0, 2.0], [0.2, 0.7, 0.1])],
    )
    def test_discrete_weights_exact(self, values, probs):
        # keys at every cumulative probability and one ulp on either side
        cum = np.cumsum(probs)
        u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [0.0, 0.5, 1.0 - 2.0**-53]])
        want = np.array(values)[np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)]
        got = WeightLaw.discrete(values, probs).weights_from_uniforms(u)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestDrawWeight:
    def test_unit_percolation_always_one(self):
        rng = KeyedRng(5)
        law = WeightLaw.percolation(1.0)
        for letters in ((1,), (2, 1), (1, 1, 2, 2)):
            assert draw_weight(law, rng, letters) == 1.0

    def test_repeat_calls_identical(self):
        rng = KeyedRng(123456789)
        w = (1, 2, 1, 2, 1)
        law = WeightLaw.lognormal(0.5)
        assert draw_weight(law, rng, w) == draw_weight(law, rng, w)
        assert draw_weight(law, KeyedRng(123456789), w) == draw_weight(law, rng, w)

    def test_empirical_mean_over_distinct_words(self):
        # one million distinct words of length 20 on the binary alphabet
        rng = KeyedRng(77)
        from cascadim.symbolic import codes_to_letters

        letters = codes_to_letters(np.arange(1_000_000, dtype=np.int64), 20, 2)
        from cascadim.cascade import _to_uniform

        u = _to_uniform(rng.word_hashes(letters))
        for law, var in (
            (WeightLaw.percolation(0.7), 1 / 0.7 - 1),
            (WeightLaw.lognormal(0.5), math.exp(0.25) - 1),
        ):
            ws = law.weights_from_uniforms(u)
            se = math.sqrt(var / len(ws))
            assert abs(ws.mean() - 1.0) < 4 * se

    def test_distinct_words_decorrelated(self):
        # same word, different seeds: survival agreement near 1/2 for p = 1/2
        from cascadim.cascade import _to_uniform
        from cascadim.symbolic import codes_to_letters

        letters = codes_to_letters(np.arange(100_000, dtype=np.int64), 17, 2)
        alive1 = _to_uniform(KeyedRng(1).word_hashes(letters)) < 0.5
        alive2 = _to_uniform(KeyedRng(2).word_hashes(letters)) < 0.5
        agreement = (alive1 == alive2).mean()
        assert abs(agreement - 0.5) < 0.01


    def test_top_code_stays_below_one(self):
        # 2^53 - 1 + 0.5 rounds up to 2^53: the top code is the only one that
        # would map to 1.0, where the lognormal law's inverse CDF is infinite
        top = np.array([2**64 - 1, 2**64 - 2**11 - 1], dtype=np.uint64)
        u = _to_uniform(top)
        assert u[0] < 1.0 and u[1] < u[0]
        assert np.isfinite(WeightLaw.lognormal(0.5).weights_from_uniforms(u)).all()


class TestKeepThreshold:
    """The walk's integer keep test ``h >> 11 < T(p)`` against the float test ``u < p``."""

    @staticmethod
    def _uniform_of(v):
        return float(_to_uniform(np.array([int(v) << 11], dtype=np.uint64))[0])

    def test_unit_law_keeps_every_code(self):
        # the top code's uniform is clamped to 1 - 2^-53 < 1
        assert _keep_threshold(1.0) == 2**53

    def test_one_half_and_its_neighbours(self):
        # (v + 0.5) 2^-53 rounds half to even at v = 2^52 and above
        below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
        assert (_keep_threshold(below), _keep_threshold(0.5), _keep_threshold(above)) == (
            2**52 - 1,
            2**52,
            2**52 + 1,
        )
        for p in (below, 0.5, above):
            t = _keep_threshold(p)
            assert self._uniform_of(t - 1) < p <= self._uniform_of(t)

    @pytest.mark.parametrize("p", [1e-9, 1 / 3, 0.5, 0.62, 0.8, 1 - 2**-53])
    def test_agrees_with_the_float_test(self, p):
        t = _keep_threshold(p)
        assert 0 < t < 2**53
        gen = np.random.default_rng(17)
        random = gen.integers(0, 2**64, size=2_000_000, dtype=np.uint64)
        # every top-53 value within 1000 of T, each with its lowest, highest and a random low part
        top = np.arange(max(t - 1000, 0), min(t + 1001, 2**53), dtype=np.uint64) << np.uint64(11)
        lows = (np.zeros_like(top), np.full_like(top, 2**11 - 1), gen.integers(0, 2**11, top.size, dtype=np.uint64))
        near = np.tile(top, 3) | np.concatenate(lows)
        for hashes in (random, near):
            expected = _to_uniform(hashes) < p
            assert np.array_equal((hashes >> np.uint64(11)) < np.uint64(t), expected)
            # the walk's form: the bound on the whole hash
            assert np.array_equal(hashes < np.uint64(t << 11), expected)
        assert 0 < expected.sum() < expected.size

    def test_percolation_codes_at_p_one_hash_nothing(self, golden_mean, monkeypatch):
        def hashed(*args):
            raise AssertionError("hashed a node")

        monkeypatch.setattr(KeyedRng, "length_states", hashed)
        monkeypatch.setattr(KeyedRng, "absorb", staticmethod(hashed))
        codes = percolation_codes(golden_mean, 1.0, 12, KeyedRng(1), TILING2)
        assert np.array_equal(codes, golden_mean.admissible_codes(12))


class TestCascadeMeasure:
    def test_unit_law_reproduces_base(self, uniform2):
        cm = cascade_measure(uniform2, Subshift.full(2), WeightLaw.percolation(1.0), 6, KeyedRng(3))
        assert len(cm) == 64
        assert np.allclose(cm.masses, 1 / 64, atol=0, rtol=0)
        assert cm.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_masses_are_weight_products(self, uniform2):
        rng = KeyedRng(42)
        law = WeightLaw.lognormal(0.4)
        cm = cascade_measure(uniform2, Subshift.full(2), law, 3, rng)
        for word, mass in zip(codes_to_letters(cm.codes, 3, 2).tolist(), cm.masses):
            q = 1.0
            for k in range(1, 4):
                q = q * draw_weight(law, rng, word[:k])
            assert mass == pytest.approx(q * cylinder_mass(uniform2, word), rel=1e-12)

    def test_markov_base_masses(self, golden_mean):
        base = golden_mean.parry_measure()
        cm = cascade_measure(base, golden_mean, WeightLaw.percolation(1.0), 5, KeyedRng(8))
        assert cm.total_mass == pytest.approx(1.0, abs=1e-9)
        for word, mass in zip(codes_to_letters(cm.codes, 5, 2).tolist(), cm.masses):
            assert mass == pytest.approx(cylinder_mass(base, word), abs=1e-15)

    def test_mean_total_mass(self, uniform2):
        law = WeightLaw.percolation(0.7)
        totals = np.array(
            [
                cascade_measure(uniform2, Subshift.full(2), law, 12, KeyedRng(1000).derive(i)).total_mass
                for i in range(300)
            ]
        )
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean() - 1.0) < 3 * se

    def test_galton_watson_survivor_mean(self, uniform2):
        law = WeightLaw.percolation(0.7)
        counts = np.array(
            [
                (cascade_measure(uniform2, Subshift.full(2), law, 10, KeyedRng(2000).derive(i)).masses > 0).sum()
                for i in range(1500)
            ]
        )
        target = (2 * 0.7) ** 10
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - target) < 4 * se

    def test_degenerate_cascade_computes_its_stages_without_warning(self, uniform2):
        # h_V = -log 0.4 > log 2: the limit dies, but each finite stage is the walk's leaves
        law = WeightLaw.percolation(0.4)
        assert degenerate_regime(law.weight_entropy(), uniform2.entropy())
        for seed in range(8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cm = cascade_measure(uniform2, Subshift.full(2), law, 8, KeyedRng(1).derive(seed))
            codes = percolation_codes(Subshift.full(2), 0.4, 8, KeyedRng(1).derive(seed), TILING2)
            assert np.array_equal(cm.codes, codes)
            assert cm.masses == pytest.approx(np.full(len(cm), 1.25**8), rel=1e-12)

    def test_unit_law_never_degenerate(self):
        # V = 1 keeps mass 1 at every depth: h_V = -0.0 >= h_mu = -0.0 is no degenerate regime
        assert not degenerate_regime(WeightLaw.percolation(1.0).weight_entropy(),
                                     SymbolicMeasure.bernoulli([1.0, 0.0]).entropy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bernoulli_convolution(0.4, 1.0, 8)

    def test_dying_cascade_is_empty(self, uniform2):
        law = WeightLaw.percolation(0.4)
        dead = [seed for seed in range(20)
                if not len(cascade_measure(uniform2, Subshift.full(2), law, 8, KeyedRng(1).derive(seed)))]
        assert dead  # survival to depth 8 is about 0.03 here
        cm = cascade_measure(uniform2, Subshift.full(2), law, 8, KeyedRng(1).derive(dead[0]))
        assert cm.codes.size == cm.masses.size == 0 and cm.total_mass == 0.0
        assert len(cm.coarsen(3)) == 0 and cm.coarsen(3).depth == 3

    def test_cap_exceeded(self, uniform2):
        with pytest.raises(CapExceeded):
            _grow(uniform2, Subshift.full(2), WeightLaw.percolation(1.0), KeyedRng(1), 12, 100)
        # binary words longer than 62 letters have no int64 code: raise, never wrap
        with pytest.raises(CapExceeded, match="code range"):
            percolation_codes(Subshift.full(2), 0.6, 64, KeyedRng(5), TILING2)
        with pytest.raises(CapExceeded, match="code range"):
            cascade_measure(uniform2, Subshift.full(2), WeightLaw.percolation(0.6), 64, KeyedRng(5))
        # a cell numbering is bounded by its own reach: 3 (4^40 - 1)/3 = 2^80 - 1
        table = Subshift.full(2).successor_table()
        with pytest.raises(CapExceeded, match="code range"):
            walk_tree(table, 40, 10**6, numeral=(4, (0, 3)))
        # the check stops at the first level past 2^62, so no 60,000-digit range is built or printed
        with pytest.raises(CapExceeded, match="at level 63 of 200000") as refused:
            percolation_codes(Subshift.full(2), 0.6, 200000, KeyedRng(5), TILING2)
        assert len(str(refused.value)) < 100
        with pytest.raises(ValueError, match="one digit per letter"):
            walk_tree(table, 8, 10**6, numeral=(2, (0, 0, 1)))
        with pytest.raises(ValueError, match="alphabet mismatch"):
            percolation_codes(Subshift.full(2), 0.6, 8, KeyedRng(5), AffineIfs.tiling(3))


class TestCylinderMeasure:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_non_positive_mass_refused(self, bad):
        with pytest.raises(ValueError, match="masses must be positive"):
            CylinderMeasure(np.array([0, 1, 3]), np.array([0.5, bad, 0.25]), 2, 2)

    def test_empty_measure_accepted(self):
        cm = CylinderMeasure(np.zeros(0, dtype=np.int64), np.zeros(0), 4, 2)
        assert len(cm) == 0 and cm.total_mass == 0.0 and len(cm.coarsen(0)) == 0


class TestDegenerateRegime:
    @pytest.mark.parametrize(
        "h_v, h_mu, degenerate",
        [
            (-math.log(0.4), math.log(2), True),  # percolation p = 0.4 on the uniform binary base
            (-math.log(0.7), math.log(2), False),
            (0.0, 0.0, False),  # the unit law keeps mass 1 at every depth
            (math.log(2), math.log(2), True),  # h_V = h_mu > 0: the critical case dies too
        ],
        ids=["p0.4", "p0.7", "unit-law", "critical"],
    )
    def test_cases(self, h_v, h_mu, degenerate):
        assert degenerate_regime(h_v, h_mu) is degenerate


class TestCoarsening:
    def test_stepwise_equals_direct_bitwise(self, uniform2):
        cm = cascade_measure(uniform2, Subshift.full(2), WeightLaw.lognormal(0.5), 12, KeyedRng(9))
        direct = cm.coarsen(7)
        stepwise = cm.coarsen(11).coarsen(9).coarsen(7)
        assert np.array_equal(direct.codes, stepwise.codes)
        assert np.array_equal(direct.masses, stepwise.masses)

    def test_total_mass_preserved(self, uniform2):
        cm = cascade_measure(uniform2, Subshift.full(2), WeightLaw.percolation(0.7), 12, KeyedRng(8))
        assert cm.coarsen(5).total_mass == pytest.approx(cm.total_mass, rel=1e-12)
        root = cm.coarsen(0)
        assert len(root) == 1 and root.masses[0] == pytest.approx(cm.total_mass, rel=1e-12)

    def test_coarsened_support_is_prefix_set(self, uniform2):
        cm = cascade_measure(uniform2, Subshift.full(2), WeightLaw.percolation(0.6), 10, KeyedRng(31))
        coarse = cm.coarsen(7)
        assert np.array_equal(np.unique(cm.codes // 2**3), coarse.codes)


class TestPercolation:
    def test_unit_retention_keeps_everything(self, golden_mean):
        assert len(percolation_codes(golden_mean, 1.0, 6, KeyedRng(1), TILING2)) == golden_mean.word_count(6)
        # letter 2 has no successor, so no infinite word passes through it
        dead_end = Subshift.sft([[1, 1], [0, 0]])
        for n in (1, 3, 6):
            codes = percolation_codes(dead_end, 1.0, n, KeyedRng(1), TILING2)
            assert np.array_equal(codes, dead_end.admissible_codes(n))
            assert codes.size == dead_end.word_count(n)

    def test_support_equality_with_cascade(self, uniform2):
        for seed in range(20):
            rng = KeyedRng(600).derive(seed)
            cm = cascade_measure(uniform2, Subshift.full(2), WeightLaw.percolation(0.7), 12, rng)
            assert np.array_equal(cm.codes, percolation_codes(Subshift.full(2), 0.7, 12, rng, TILING2))

    def test_prefix_nesting_inclusion(self):
        # prefixes of depth-(n+1) survivors are depth-n survivors; the reverse
        # fails when a survivor loses all its children, so only inclusion holds
        full2 = Subshift.full(2)
        for seed in range(10):
            rng = KeyedRng(601).derive(seed)
            deep = percolation_codes(full2, 0.7, 11, rng, TILING2)
            shallow = percolation_codes(full2, 0.7, 10, rng, TILING2)
            prefixes = np.unique(deep // 2)
            assert np.isin(prefixes, shallow).all()

    def test_word_and_code_views_agree(self, golden_mean):
        # per-word oracle: the admissible words whose every prefix draws a
        # positive weight, in code order
        rng = KeyedRng(77)
        law = WeightLaw.percolation(0.8)
        codes = percolation_codes(golden_mean, 0.8, 8, rng, TILING2)
        admissible = golden_mean.admissible_codes(8)
        alive = [
            all(draw_weight(law, rng, word[:k]) > 0 for k in range(1, 9))
            for word in codes_to_letters(admissible, 8, 2).tolist()
        ]
        assert 0 < codes.size < admissible.size
        assert np.array_equal(admissible[alive], codes)

    def test_survival_probability_matches_gw_recursion(self):
        # oracle: s_{n+1} = 1 - (1 - p*s_n)^a
        p, depth, trials = 0.6, 10, 2000
        s = 1.0
        for _ in range(depth):
            s = 1.0 - (1.0 - p * s) ** 2
        alive = sum(
            1
            for i in range(trials)
            if percolation_codes(Subshift.full(2), p, depth, KeyedRng(700).derive(i), TILING2).size > 0
        )
        se = math.sqrt(s * (1 - s) / trials)
        assert abs(alive / trials - s) < 4 * se


class TestMassTrace:
    def test_unit_law_constant_one(self, uniform2):
        trace = cascade_mass_trace(uniform2, Subshift.full(2), WeightLaw.percolation(1.0), 10, KeyedRng(3))
        assert np.allclose(trace, 1.0, atol=1e-12)

    def test_trace_end_matches_measure_total(self, uniform2):
        # the stage-k totals are a martingale, not nested sums: only the final
        # stage coincides with the measure (coarsening preserves that total)
        rng = KeyedRng(10)
        law = WeightLaw.percolation(0.7)
        trace = cascade_mass_trace(uniform2, Subshift.full(2), law, 10, rng)
        cm = cascade_measure(uniform2, Subshift.full(2), law, 10, rng)
        assert trace[-1] == pytest.approx(cm.total_mass, rel=1e-12)
        for k in (3, 7):
            assert cm.coarsen(k).total_mass == pytest.approx(cm.total_mass, rel=1e-12)

    def test_martingale_increments_uncorrelated(self, uniform2):
        # E[||m_{k+1}|| - ||m_k|| given ||m_k||] = 0: pooled regression slope ~ 0
        law = WeightLaw.percolation(0.7)
        cur, inc = [], []
        for i in range(500):
            tr = cascade_mass_trace(uniform2, Subshift.full(2), law, 10, KeyedRng(900).derive(i))
            cur.extend(tr[:-1])
            inc.extend(np.diff(tr))
        cur = np.array(cur)
        inc = np.array(inc)
        sxx = ((cur - cur.mean()) ** 2).sum()
        slope = ((cur - cur.mean()) * (inc - inc.mean())).sum() / sxx
        resid = inc - inc.mean() - slope * (cur - cur.mean())
        stderr = math.sqrt((resid**2).sum() / (len(inc) - 2) / sxx)
        assert abs(slope) < 3.5 * stderr

    def test_subcritical_extinction(self, uniform2):
        # a*p < 1: every realization dies by depth 25
        law = WeightLaw.percolation(0.4)
        finals = [
            cascade_mass_trace(uniform2, Subshift.full(2), law, 25, KeyedRng(33).derive(i))[-1]
            for i in range(50)
        ]
        assert all(v == 0.0 for v in finals)

    def test_depth_below_one_rejected(self, uniform2):
        with pytest.raises(ValueError, match="depth"):
            cascade_mass_trace(uniform2, Subshift.full(2), WeightLaw.percolation(0.7), 0, KeyedRng(1))


def _reference_walk(table, depth, law, rng):
    """Per level: the children's codes and hashes, and the surviving codes and masses.

    Every child is decoded to its full letter row and hashed from the root by
    ``word_hashes``, the reference definition of the keyed weights.
    """
    a = table.shape[1]
    codes = np.zeros(1, dtype=np.int64)
    masses = np.ones(1)
    out = []
    for length in range(1, depth + 1):
        rows = table[codes % a if length > 1 else [a]] * masses[:, None]
        children = (codes[:, None] * a + np.arange(a)).ravel()
        hashes = rng.word_hashes(codes_to_letters(children, length, a))
        masses = rows.ravel() * law.weights_from_uniforms(_to_uniform(hashes))
        keep = masses > 0
        codes, masses = children[keep], masses[keep]
        out.append((children, hashes, codes, masses))
    return out


_GOLDEN = Subshift.golden_mean()
_DEAD_LETTER = Subshift.sft([[1, 1, 1], [1, 0, 1], [0, 0, 0]])  # letter 3 has no successor
WALK_CASES = {
    "full2-percolation": (Subshift.full(2), SymbolicMeasure.uniform(2), WeightLaw.percolation(0.7), 14),
    "full3-percolation": (Subshift.full(3), SymbolicMeasure.uniform(3), WeightLaw.percolation(0.8), 10),
    "full3-lognormal": (Subshift.full(3), SymbolicMeasure.uniform(3), WeightLaw.lognormal(0.5), 8),
    "golden-discrete": (_GOLDEN, _GOLDEN.parry_measure(), WeightLaw.discrete([2.0, 0.0], [0.5, 0.5]), 14),
    "dead-letter-discrete": (
        _DEAD_LETTER,
        SymbolicMeasure.uniform(3),
        WeightLaw.discrete([0.0, 1.5], [1 / 3, 2 / 3]),
        9,
    ),
}


@pytest.fixture(params=[1, 7], ids=["block-1", "block-7"])
def small_block(request, monkeypatch):
    """Blocks of 1 and of 7 nodes, so that levels straddle blocks."""
    monkeypatch.setattr(symbolic, "_BLOCK", request.param)
    return request.param


def _walk_per_level(table, depth, law, rng, reference, cap=10**6):
    """``walk_tree`` with the keyed weights; also the hashes it drew, per length, in call order.

    A hash absorbs its word's length first, so each block's length is looked
    up from its first hash among the children of ``reference`` (a
    ``_reference_walk`` at least as deep); a hash it lacks fails the lookup.
    """
    length_of = {int(h): k for k, (_, hashes, _, _) in enumerate(reference, 1) for h in hashes}
    seen = {}

    def weigh(hashes):
        seen.setdefault(length_of[int(hashes[0])], []).append(hashes.copy())
        return law.weights_from_uniforms(_to_uniform(hashes))

    return walk_tree(table, depth, cap, rng, weigh), {k: np.concatenate(v) for k, v in seen.items()}


class TestTreeHashes:
    """The walk's keyed weights against the reference hash of each decoded word.

    Each check runs at the default block size and again with blocks of 1 and
    7 nodes.
    """

    @staticmethod
    def _check_walk(case):
        x, base, law, depth = WALK_CASES[case]
        table = x.successor_table() * base.step_table()
        for seed in (3, 2024):
            rng = KeyedRng(seed)
            reference = _reference_walk(table, depth, law, rng)
            (codes, masses), seen = _walk_per_level(table, depth, law, rng, reference)
            grown = _grow(base, x, law, rng, depth, 10**6)
            totals = cascade_mass_trace(base, x, law, depth, rng)
            assert list(seen) and sorted(seen) == list(range(1, len(seen) + 1))
            for length, got in seen.items():
                children, hashes, _, _ = reference[length - 1]
                assert len(got) == len(children)
                assert np.array_equal(got, hashes)
            assert np.array_equal(totals, [ref_masses.sum() for _, _, _, ref_masses in reference])
            assert np.array_equal(codes, reference[len(seen) - 1][2])
            assert np.array_equal(masses, reference[len(seen) - 1][3])
            for got, want in zip(grown, (codes, masses)):
                assert np.array_equal(got, want)

    @staticmethod
    def _check_depth_extension(uniform2):
        # extending a walk from depth 12 to 14 leaves the first 12 levels as they were
        rng = KeyedRng(91)
        law = WeightLaw.lognormal(0.5)
        table = Subshift.full(2).successor_table() * uniform2.step_table()
        reference = _reference_walk(table, 14, law, rng)
        _, short = _walk_per_level(table, 12, law, rng, reference)
        _, deep = _walk_per_level(table, 14, law, rng, reference)
        assert sorted(short) == list(range(1, 13)) and sorted(deep) == list(range(1, 15))
        for length in short:
            assert np.array_equal(short[length], deep[length])
        trace12 = cascade_mass_trace(uniform2, Subshift.full(2), law, 12, rng)
        trace14 = cascade_mass_trace(uniform2, Subshift.full(2), law, 14, rng)
        assert np.array_equal(trace14[:12], trace12)

    @pytest.mark.parametrize("case", list(WALK_CASES), ids=list(WALK_CASES))
    def test_walk_weights_equal_word_hashes(self, case):
        self._check_walk(case)

    @pytest.mark.parametrize("case", list(WALK_CASES), ids=list(WALK_CASES))
    def test_walk_weights_equal_word_hashes_in_small_blocks(self, case, small_block):
        self._check_walk(case)

    def test_depth_extension_keeps_every_level(self, uniform2):
        self._check_depth_extension(uniform2)

    def test_depth_extension_in_small_blocks(self, uniform2, small_block):
        self._check_depth_extension(uniform2)


class TestYesNoWalk:
    """A boolean table's walk against the same walk on float masses.

    The full shift's table is all True, so its walk reads no table and
    carries no masses; the golden mean's and the dead-letter shift's are not,
    so their walks carry boolean masses.  Each case runs with
    and without the keyed keep test and the cell numeral, at the default
    block size and again with blocks of 1 and 7 nodes.
    """

    SHIFTS = {
        "full3": (Subshift.full(3), 8, (2, (0, 0, 1))),
        "golden-mean": (Subshift.golden_mean(), 14, (2, (-1, 1))),
        "dead-letter": (_DEAD_LETTER, 10, (4, (0, 2, 3))),
    }

    @staticmethod
    def _check(name):
        x, depth, numeral = TestYesNoWalk.SHIFTS[name]
        table = x.successor_table()
        assert table.dtype == bool and table.all() == (name == "full3")
        bound = np.uint64(_keep_threshold(0.9) << 11)
        for rng, weigh in ((None, None), (KeyedRng(5), lambda hashes: hashes < bound)):
            for num in (None, numeral):
                codes, masses = walk_tree(table, depth, 10**6, rng, weigh, num)
                ref_codes, ref_masses = walk_tree(table.astype(float), depth, 10**6, rng, weigh, num)
                assert codes.tobytes() == ref_codes[ref_masses > 0].tobytes(), (weigh, num)
                assert masses.dtype == bool and masses.all() and len(masses) == len(codes)
                assert len(codes) > 0

    @pytest.mark.parametrize("name", list(SHIFTS), ids=list(SHIFTS))
    def test_equals_float_walk(self, name):
        self._check(name)

    @pytest.mark.parametrize("name", list(SHIFTS), ids=list(SHIFTS))
    def test_equals_float_walk_in_small_blocks(self, name, small_block):
        self._check(name)


def _oracle_walk(table, depth, law, rng, numeral):
    """Every admissible word's number and mass, word by word, from ``draw_weight``; the zero-mass words dropped.

    A mass takes each letter's factors in the walk's order: the table entry,
    times the parent's mass, times the keyed weight of the prefix.
    """
    a = table.shape[1]
    m, digits = numeral if numeral is not None else (a, range(a))
    level = [((), 0, 1.0, a)]  # (letters, number, mass, table row)
    for _ in range(depth):
        children = []
        for letters, number, mass, row in level:
            for letter in range(1, a + 1):
                word = letters + (letter,)
                child = table[row, letter - 1] * mass * draw_weight(law, rng, word)
                if child > 0:
                    children.append((word, number * m + digits[letter - 1], child, letter - 1))
        level = children
    return np.array([n for _, n, _, _ in level], dtype=np.int64), np.array([w for _, _, w, _ in level])


class TestKeepEveryChild:
    """Walks whose steps sometimes keep every child of a block and sometimes drop some.

    A weight law with a rare zero value keeps every child of most small
    blocks and drops some children of larger ones, so one walk takes both
    kinds of step; the golden-mean Markov base also drops the letter 2 after
    a 2.  Each walk is checked bit for bit against the word-by-word oracle,
    at the default block size and again with blocks of 1 and 7 nodes.
    """

    RARE_ZERO = WeightLaw.discrete([0.0, 1.0 / 0.97], [0.03, 0.97])
    CASES = {
        "full2": (Subshift.full(2), SymbolicMeasure.uniform(2), 9, None),
        "full3-numeral": (Subshift.full(3), SymbolicMeasure.uniform(3), 6, (2, (0, 0, 1))),
        "golden-markov": (_GOLDEN, _GOLDEN.parry_measure(), 10, (4, (-1, 3))),
    }

    @staticmethod
    def _check(name):
        x, base, depth, numeral = TestKeepEveryChild.CASES[name]
        law = TestKeepEveryChild.RARE_ZERO
        table = x.successor_table() * base.step_table()
        steps = []

        def weigh(hashes):
            weights = law.weights_from_uniforms(_to_uniform(hashes))
            steps.append(bool(weights.all()))
            return weights

        for seed in (4, 77):
            rng = KeyedRng(seed)
            steps.clear()
            codes, masses = walk_tree(table, depth, 10**6, rng, weigh, numeral)
            want_codes, want_masses = _oracle_walk(table, depth, law, rng, numeral)
            assert len(codes) > 0
            assert codes.tobytes() == want_codes.tobytes()
            assert masses.tobytes() == want_masses.tobytes()
            if x.is_full_shift:  # no table entry is 0, so a step keeps every child when every weight is positive
                assert True in steps and False in steps, steps

    @pytest.mark.parametrize("name", list(CASES), ids=list(CASES))
    def test_equals_word_oracle(self, name):
        self._check(name)

    @pytest.mark.parametrize("name", list(CASES), ids=list(CASES))
    def test_equals_word_oracle_in_small_blocks(self, name, small_block):
        self._check(name)


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
class TestCapAcrossBlocks:
    """``cap`` bounds each level's node count summed over all blocks, not per block."""

    @pytest.fixture(autouse=True)
    def _block(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(symbolic, "_BLOCK", block)

    def test_weighted_walk(self, uniform2):
        # lognormal weights prune nothing: level k holds 2**k nodes, and at the
        # default block level 15 comes from two blocks
        law = WeightLaw.lognormal(0.5)
        codes, _ = _grow(uniform2, Subshift.full(2), law, KeyedRng(3), 15, 2**15)
        assert np.array_equal(codes, np.arange(2**15))
        with pytest.raises(CapExceeded, match="tree nodes"):
            _grow(uniform2, Subshift.full(2), law, KeyedRng(3), 15, 2**15 - 1)

    def test_pruned_walk(self):
        x, base, law = Subshift.full(3), SymbolicMeasure.uniform(3), WeightLaw.percolation(0.8)
        rng = KeyedRng(3)
        reference = _reference_walk(x.successor_table() * base.step_table(), 10, law, rng)
        widest = max(len(codes) for _, _, codes, _ in reference)
        codes, _ = _grow(base, x, law, rng, 10, widest)
        assert np.array_equal(codes, reference[-1][2])
        with pytest.raises(CapExceeded, match="tree nodes"):
            _grow(base, x, law, rng, 10, widest - 1)

    def test_admissible_codes(self, golden_mean):
        table = golden_mean.successor_table()
        # the last level is the widest; at the default block it comes from two blocks
        widest = golden_mean.word_count(20)
        assert widest == 17711
        codes, _ = walk_tree(table, 20, widest)
        assert np.array_equal(codes, golden_mean.admissible_codes(20))
        with pytest.raises(CapExceeded, match="tree nodes"):
            walk_tree(table, 20, widest - 1)
        # 2^25 words: word_count refuses them before any walk
        with pytest.raises(CapExceeded, match="words"):
            Subshift.full(2).admissible_codes(25)


def _digests(codes, masses, totals):
    return (
        hashlib.sha256(codes.tobytes() + masses.tobytes()).hexdigest(),
        hashlib.sha256(np.asarray(totals, dtype=np.float64).tobytes()).hexdigest(),
    )


class TestRealizationPins:
    """sha256 of the codes, masses and level totals of five walks, fixed bit for bit.

    A walk that reorders, drops or rounds a single node or total changes its
    digest.  The digests were taken from the level-by-level walk that
    re-hashed every prefix from the root at each level.  The level totals are
    read from ``cascade_mass_trace``, and for the enumeration from the leaves
    of each shallower walk.

    The ``full2-lognormal-depth16`` digests assume numpy's ``X86_V4``
    (AVX-512) ``exp`` kernels, under which they were taken: a lognormal
    weight's last bit follows numpy's dispatched ``exp``, and with
    ``NPY_DISABLE_CPU_FEATURES=X86_V4`` that pin fails.
    """

    PINS = {
        "full3-percolation-depth16": (
            "3b11a6b56db89dc01bcf467f6998cee39ebbe1b2411a7de9d820978d658b634b",
            "2218bd31c4c3960f9f5ad860f215b4b5772ad3fcdda093962f86aed2437d4416",
        ),
        "full2-lognormal-depth16": (
            "347f151f78622910f3db51bca30cd5badf4c33bccf11924acd46a9ac503f667a",
            "337e6c7c0b8392572d989c8975365391533643cd326667ec833ba37591febbcb",
        ),
        "golden-percolation-depth18": (
            "a27a6f185aa16faa5b52a52ae1a1c49584b3bd2b0f4cd806af165b5a64bf5ac7",
            "ea24da49425f686692dabf5f219113041e6865bfd58a94ea9cd12f734bdcc844",
        ),
        "bconv-bernoulli-depth18": (
            "dc899864489a67a698cd391bcbf0212be87b189bfc902d0a5d5f9a55f1c2781c",
            "29f747aa4c77fc73c8ab44a2cf2d1b074afa8c7b6aca48e125bd9b2921c889cf",
        ),
        "sft-admissible-depth20": (
            "eef64aeb6973c1f8928fba5dea51882200ead8263e8b92cf09e959f3b651031d",
            "39329df214ae39206dd814ed0a8f3fe4d79a0a452bfde2d211bde7bac5b16e9c",
        ),
    }

    @staticmethod
    def _walk(name):
        if name == "sft-admissible-depth20":
            sft = Subshift.sft([[1, 1], [1, 0]])
            table = sft.successor_table()
            codes, masses = walk_tree(table, 20, 10**8)
            assert np.array_equal(codes, sft.admissible_codes(20))
            return codes, masses, [walk_tree(table, k, 10**8)[1].sum() for k in range(1, 21)]
        rng = KeyedRng(101).derive(0)
        if name == "full3-percolation-depth16":
            # the first realization of the overlap image: percolation_codes' walk
            base, x, law, depth = SymbolicMeasure.uniform(3), Subshift.full(3), WeightLaw.percolation(0.8), 16
        elif name == "full2-lognormal-depth16":
            base, x, law, depth = SymbolicMeasure.uniform(2), Subshift.full(2), WeightLaw.lognormal(0.5), 16
        elif name == "golden-percolation-depth18":
            base, x, law, depth = SymbolicMeasure.uniform(2), Subshift.golden_mean(), WeightLaw.percolation(0.8), 18
        else:
            # bernoulli_convolution's walk: the p_a = 0.9 base, unit weights, seed 101's stream 1
            base = SymbolicMeasure.bernoulli([0.9, 0.1])
            x, law, depth, rng = Subshift.full(2), WeightLaw.percolation(1.0), 18, KeyedRng(101).derive(1)
        return (*_grow(base, x, law, rng, depth, 10**8), cascade_mass_trace(base, x, law, depth, rng))

    @pytest.mark.parametrize("name", list(PINS), ids=list(PINS))
    def test_walk_digest(self, name):
        assert _digests(*self._walk(name)) == self.PINS[name]

    def test_unit_law_walk_hashes_nothing(self, monkeypatch):
        # every weight of percolation(1.0) is 1.0 whatever the hash
        def hashed(*args):
            raise AssertionError("hashed a node")

        monkeypatch.setattr(KeyedRng, "length_states", hashed)
        monkeypatch.setattr(KeyedRng, "absorb", staticmethod(hashed))
        name = "bconv-bernoulli-depth18"
        assert _digests(*self._walk(name)) == self.PINS[name]

    @pytest.mark.parametrize(
        "name, shift", [("full3-percolation-depth16", Subshift.full(3)), ("golden-percolation-depth18", _GOLDEN)]
    )
    def test_percolation_codes_match_the_pinned_walk(self, name, shift):
        # percolation_codes walks the boolean successor table on the integer keep test alone
        codes, masses, _ = self._walk(name)
        assert (masses > 0).all()
        depth = int(name.rsplit("depth", 1)[1])
        tiling = AffineIfs.tiling(shift.alphabet_size)
        assert np.array_equal(percolation_codes(shift, 0.8, depth, KeyedRng(101).derive(0), tiling), codes)

    def test_pinned_overlap_walk_numbers_its_cells(self):
        # the walk of perc_image_overlap's first trial, numbered by the cells of its IFS
        ifs = AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.0), (0.5, 0.5)])
        codes, _, _ = self._walk("full3-percolation-depth16")
        cells = percolation_codes(Subshift.full(3), 0.8, 16, KeyedRng(101).derive(0), ifs)
        assert np.array_equal(cells, cell_offsets(ifs, codes, 16))

    def test_public_entry_points_match_the_pinned_walk(self):
        trial = KeyedRng(101).derive(0)
        codes, masses, totals = self._walk("full3-percolation-depth16")
        assert np.array_equal(percolation_codes(Subshift.full(3), 0.8, 16, trial, AffineIfs.tiling(3)), codes)
        cm = cascade_measure(SymbolicMeasure.uniform(3), Subshift.full(3), WeightLaw.percolation(0.8), 16, trial)
        assert np.array_equal(cm.codes, codes) and np.array_equal(cm.masses, masses)
        assert totals[-1] == cm.total_mass
