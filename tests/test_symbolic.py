import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadim import Subshift, SymbolicMeasure
from cascadim.errors import CapExceeded, NonStationaryWarning, NotIrreducible
from cascadim.symbolic import codes_to_letters
from oracles import cylinder_mass

PHI = (1 + math.sqrt(5)) / 2


class TestEntropy:
    def test_uniform_is_log2(self):
        assert SymbolicMeasure.bernoulli([0.5, 0.5]).entropy() == pytest.approx(math.log(2), abs=1e-12)

    def test_atomic_is_zero(self):
        assert SymbolicMeasure.bernoulli([1.0, 0.0]).entropy() == 0.0

    def test_bernoulli_closed_form(self):
        # independent evaluation of -sum p log p
        probs = (0.1, 0.9)
        expected = -sum(p * math.log(p) for p in probs)
        assert SymbolicMeasure.bernoulli(probs).entropy() == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.325083, abs=1e-6)

    def test_markov_against_direct_sum(self):
        P = [[0.2, 0.8], [0.6, 0.4]]
        m = SymbolicMeasure.markov([0.6 / 1.4, 0.8 / 1.4], P)
        pi = np.array(m.initial)
        expected = -sum(
            pi[i] * P[i][j] * math.log(P[i][j]) for i in range(2) for j in range(2)
        )
        assert m.entropy() == pytest.approx(expected, abs=1e-12)


class TestCylinderMass:
    def test_bernoulli_product(self):
        m = SymbolicMeasure.bernoulli([0.5, 0.5])
        assert cylinder_mass(m, (1, 2, 1)) == pytest.approx(0.125, abs=1e-15)

    def test_empty_word_full_mass(self):
        m = SymbolicMeasure.bernoulli([0.3, 0.7])
        assert cylinder_mass(m, ()) == 1.0

    def test_parry_cylinder_via_eigendata(self, golden_mean):
        # independent oracle: eigen-solve with numpy instead of power iteration
        A = golden_mean.matrix().astype(float)
        lam_all, vecs = np.linalg.eig(A)
        k = np.argmax(lam_all.real)
        lam = lam_all[k].real
        v = np.abs(vecs[:, k].real)
        lu, uvecs = np.linalg.eig(A.T)
        ku = np.argmax(lu.real)
        u = np.abs(uvecs[:, ku].real)
        pi = u * v / (u * v).sum()
        p11 = A[0, 0] * v[0] / (lam * v[0])
        m = golden_mean.parry_measure()
        assert cylinder_mass(m, (1, 1)) == pytest.approx(pi[0] * p11, abs=1e-10)

    def test_batch_matches_scalar(self, golden_mean):
        m = golden_mean.parry_measure()
        letters = np.array([[1, 1, 2], [2, 1, 1], [1, 2, 1]], dtype=np.uint8)
        batch = m.cylinder_mass_batch(letters)
        for row, value in zip(letters, batch):
            assert value == pytest.approx(cylinder_mass(m, tuple(int(x) for x in row)), abs=1e-15)


def admissible_letters(shift, n, **kwargs):
    """X_n as an (N, n) letter matrix, rows in code order."""
    return codes_to_letters(shift.admissible_codes(n, **kwargs), n, shift.alphabet_size)


class TestAdmissibleWords:
    def test_full_shift_count(self):
        words = admissible_letters(Subshift.full(2), 3)
        assert len(words) == 8

    def test_golden_mean_fibonacci_via_bruteforce(self, golden_mean):
        # oracle: enumerate all tuples and filter forbidden pair (2,2)
        for n in range(1, 9):
            brute = [
                w
                for w in itertools.product((1, 2), repeat=n)
                if all(not (a == 2 and b == 2) for a, b in zip(w, w[1:]))
            ]
            words = admissible_letters(golden_mean, n)
            assert [tuple(int(v) for v in w) for w in words] == brute  # includes lexicographic order
        assert len(admissible_letters(golden_mean, 4)) == 8

    def test_n_zero_gives_empty_word(self, golden_mean):
        words = admissible_letters(golden_mean, 0)
        assert len(words) == 1 and len(words[0]) == 0

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            admissible_letters(Subshift.full(2), 10, cap=100)

    def test_counts_match_matrix_powers(self, golden_mean):
        A = golden_mean.matrix()
        power = np.eye(2, dtype=np.int64)
        for n in range(1, 12):
            assert golden_mean.word_count(n) == int(power.sum())
            power = power @ A

    def test_count_recursion(self, golden_mean):
        # N(n+1) = sum over admissible last letters of allowed continuations
        for n in range(1, 10):
            words = golden_mean.admissible_codes(n)
            last = words % 2
            expected = int((last == 0).sum()) * 2 + int((last == 1).sum()) * 1
            assert golden_mean.word_count(n + 1) == expected


class TestTopologicalEntropy:
    def test_full_shift(self):
        assert Subshift.full(3).topological_entropy() == pytest.approx(math.log(3), abs=1e-12)

    def test_golden_mean_vs_eig_oracle(self, golden_mean):
        lam = max(np.linalg.eigvals(golden_mean.matrix().astype(float)).real)
        assert golden_mean.topological_entropy() == pytest.approx(math.log(lam), abs=1e-12)
        assert golden_mean.topological_entropy() == pytest.approx(math.log(PHI), abs=1e-12)

    def test_permutation_matrix_zero(self):
        assert Subshift.sft([[0, 1], [1, 0]]).topological_entropy() == pytest.approx(0.0, abs=1e-12)

    def test_not_irreducible(self):
        with pytest.raises(NotIrreducible):
            Subshift.sft([[1, 0], [0, 0]]).topological_entropy()


class TestParry:
    def test_full_shift_uniform(self):
        m = Subshift.full(2).parry_measure()
        assert m.kind == "bernoulli"
        assert m.probs == (0.5, 0.5)

    def test_entropy_equals_topological(self, golden_mean):
        m = golden_mean.parry_measure()
        assert m.entropy() == pytest.approx(golden_mean.topological_entropy(), abs=1e-9)
        assert m.entropy() == pytest.approx(math.log(PHI), abs=1e-9)

    def test_entropy_matches_topological_random_sfts(self, np_rng):
        # every irreducible SFT up to a = 6
        tried = 0
        while tried < 12:
            a = int(np_rng.integers(2, 7))
            A = (np_rng.random((a, a)) < 0.6).astype(int)
            shift = Subshift.sft(A.tolist())
            if not shift.is_irreducible() or any(r.sum() == 0 for r in A):
                continue
            tried += 1
            m = shift.parry_measure()
            assert m.entropy() == pytest.approx(shift.topological_entropy(), abs=1e-9)

    def test_two_cycle_deterministic(self):
        m = Subshift.sft([[0, 1], [1, 0]]).parry_measure()
        assert m.entropy() == pytest.approx(0.0, abs=1e-12)

    def test_parry_is_stationary(self, golden_mean):
        m = golden_mean.parry_measure()
        pi = np.array(m.initial)
        P = np.array(m.transition)
        assert np.abs(pi @ P - pi).max() < 1e-10


class TestFibre:
    def test_bernoulli_fibre_is_itself(self):
        m = SymbolicMeasure.bernoulli([0.3, 0.7])
        assert m.fibre(2) is m

    def test_golden_mean_fibre_after_two(self, golden_mean):
        fib = golden_mean.parry_measure().fibre(2)
        assert fib.initial[0] == pytest.approx(1.0, abs=1e-10)
        assert fib.initial[1] == pytest.approx(0.0, abs=1e-12)

    def test_fibre_keeps_entropy(self, golden_mean):
        m = golden_mean.parry_measure()
        assert m.fibre(1).entropy() == pytest.approx(m.entropy(), abs=1e-12)
        assert m.fibre(2).entropy() == pytest.approx(m.entropy(), abs=1e-12)


class TestSampling:
    def test_degenerate_is_deterministic(self, np_rng):
        m = SymbolicMeasure.bernoulli([1.0, 0.0])
        w = m.sample_letters(5, 1, np_rng)[0]
        assert w.tolist() == [1, 1, 1, 1, 1]

    def test_fixed_seed_reproducible(self):
        m = SymbolicMeasure.bernoulli([0.4, 0.6])
        w1 = m.sample_letters(20, 1, np.random.default_rng(9))
        w2 = m.sample_letters(20, 1, np.random.default_rng(9))
        assert np.array_equal(w1, w2)

    def test_empirical_cylinder_frequencies(self, np_rng):
        m = SymbolicMeasure.bernoulli([0.3, 0.7])
        n, count = 3, 100_000
        letters = m.sample_letters(n, count, np_rng)
        codes = (letters[:, 0] - 1) * 4 + (letters[:, 1] - 1) * 2 + (letters[:, 2] - 1)
        for code in range(8):
            word = [(code >> 2) & 1, (code >> 1) & 1, code & 1]
            p = cylinder_mass(m, [b + 1 for b in word])
            freq = (codes == code).mean()
            sigma = math.sqrt(p * (1 - p) / count)
            assert abs(freq - p) < 4 * sigma + 1e-12

    def test_markov_sampling_frequencies(self, golden_mean, np_rng):
        m = golden_mean.parry_measure()
        letters = m.sample_letters(2, 60_000, np_rng)
        freq11 = ((letters[:, 0] == 1) & (letters[:, 1] == 1)).mean()
        p = cylinder_mass(m, (1, 1))
        assert abs(freq11 - p) < 4 * math.sqrt(p * (1 - p) / 60_000)

    def test_smb_convergence(self, np_rng):
        # (1/n) E[-log mass of sampled cylinder] -> entropy
        m = SymbolicMeasure.bernoulli([0.25, 0.75])
        n, count = 200, 2000
        letters = m.sample_letters(n, count, np_rng)
        logs = -np.log(m.cylinder_mass_batch(letters)) / n
        se = logs.std(ddof=1) / math.sqrt(count)
        assert abs(logs.mean() - m.entropy()) < 3 * se


class TestInvariants:
    @given(
        st.integers(2, 3),
        st.integers(1, 8),
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_partition_of_unity_bernoulli(self, a, n, raw):
        raw = (raw + [0.5] * 3)[:a]
        probs = np.array(raw) / np.sum(raw)
        m = SymbolicMeasure.bernoulli(probs)
        shift = Subshift.full(a)
        letters = admissible_letters(shift, n)
        assert m.cylinder_mass_batch(letters).sum() == pytest.approx(1.0, abs=1e-9)

    def test_partition_of_unity_markov(self, golden_mean):
        m = golden_mean.parry_measure()
        full = Subshift.full(2)
        for n in (1, 4, 7):
            letters = admissible_letters(full, n)
            assert m.cylinder_mass_batch(letters).sum() == pytest.approx(1.0, abs=1e-9)

    def test_nonstationary_initial_replaced(self):
        P = [[0.2, 0.8], [0.6, 0.4]]
        with pytest.warns(NonStationaryWarning):
            m = SymbolicMeasure.markov([0.9, 0.1], P)
        pi = np.array(m.initial)
        assert np.abs(pi @ np.array(P) - pi).max() < 1e-10
