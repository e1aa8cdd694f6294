"""Subshifts, invariant measures and entropies.

Walks through the symbolic layer: admissible words of a subshift of finite
type, the maximal-entropy (Parry) measure, cylinder masses, conditional
restarts from a past, and the entropy read off typical samples.
"""
import math

import numpy as np

from cascadim import Subshift
from cascadim.symbolic import codes_to_letters

golden = Subshift.golden_mean()
print("golden-mean shift: two letters, '22' forbidden")
print("admissible word counts:", [golden.word_count(n) for n in range(1, 9)], "(Fibonacci)")
# word sets are sorted base-a codes; decode them to letters where needed
x4 = codes_to_letters(golden.admissible_codes(4), 4, golden.alphabet_size)
print("X_4 =", " ".join("".join(map(str, row)) for row in x4.tolist()))

h_top = golden.topological_entropy()
print(f"\ntopological entropy = {h_top:.6f} = log((1+sqrt5)/2) = {math.log((1+math.sqrt(5))/2):.6f}")

parry = golden.parry_measure()
print("Parry measure: initial", np.round(parry.initial, 6), "transition rows", np.round(parry.transition, 6))
print(f"its entropy {parry.entropy():.6f} attains the topological entropy")

w = np.array([[1, 1, 2, 1]])
print(f"\ncylinder mass of [1121]: {parry.cylinder_mass_batch(w)[0]:.6f}")
fibre = parry.fibre(2)
print("future law after a past ending in 2: initial", np.round(fibre.initial, 6))
print("  (letter 2 cannot repeat, so the chain restarts from letter 1 surely)")

# Shannon-McMillan-Breiman at desk scale: -log(mass of sampled cylinder)/n -> entropy
rng = np.random.default_rng(7)
n, count = 400, 400
letters = parry.sample_letters(n, count, rng)
rate = -np.log(parry.cylinder_mass_batch(letters)) / n
print(f"\nSMB check over {count} samples of length {n}:")
print(f"  mean cylinder decay rate {rate.mean():.5f} vs entropy {parry.entropy():.5f}")
