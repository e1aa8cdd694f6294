"""Word-keyed cascades and fractal percolation.

The weight at a word is a pure function of (seed, word), so a realization is
a reproducible object: re-running, extending the depth, pruning lazily or
spreading trials over threads all yield the same measure bit for bit.
"""
import numpy as np

from cascadim import (
    KeyedRng,
    Subshift,
    SymbolicMeasure,
    WeightLaw,
    cascade_mass_trace,
    cascade_measure,
    percolation_codes,
)

rng = KeyedRng(2028)
law = WeightLaw.percolation(0.7)
full2 = Subshift.full(2)
uniform = SymbolicMeasure.uniform(2)

# the weight at a word is a function of the word's keyed hash
w = np.array([[1, 2, 1, 1, 2]])
print(f"keyed hash of word 12112: {rng.word_hashes(w)[0]:#018x}")
print(f"  and from a fresh KeyedRng(2028): {KeyedRng(2028).word_hashes(w)[0]:#018x} (keyed, not streamed)")

cm = cascade_measure(uniform, full2, law, 12, rng)
print(f"\npercolation cascade, depth 12: {len(cm)} surviving words, "
      f"total mass {cm.total_mass:.4f}")
# two more levels reuse every weight above them: the depth-14 survivors are
# children of depth-12 survivors, and each mass is its parent's times the two
# new keyed weights (1/p each on a survivor) and the base factor 1/4
deeper = cascade_measure(uniform, full2, law, 14, rng)
parent = np.searchsorted(cm.codes, deeper.codes // 4)
print("depth extension keeps the depth-12 weights:",
      bool(np.array_equal(cm.codes[parent], deeper.codes // 4)
           and np.allclose(deeper.masses, cm.masses[parent] / (4 * law.p**2), rtol=1e-12, atol=0)))

trace = cascade_mass_trace(uniform, full2, law, 12, rng)
print("total-mass martingale by level:", np.round(trace, 3))

# survival frequency against the Galton-Watson recursion s' = 1 - (1 - p s)^a
p, depth, trials = 0.7, 12, 400
s = 1.0
for _ in range(depth):
    s = 1.0 - (1.0 - p * s) ** 2
alive = sum(
    1 for i in range(trials) if percolation_codes(full2, p, depth, KeyedRng(5).derive(i)).size > 0
)
print(f"\nsurvival to depth {depth}: observed {alive/trials:.3f}, recursion gives {s:.3f}")

# mean-one weights: the expected total mass stays one at every depth
totals = [
    cascade_measure(uniform, full2, law, 10, KeyedRng(9).derive(i)).total_mass
    for i in range(300)
]
print(f"mean total mass over 300 seeds: {np.mean(totals):.4f} "
      f"(+- {np.std(totals)/np.sqrt(300):.4f})")
