"""Box counting and scaling-entropy dimension at desk scale.

Calibration on sets and measures whose dimensions have closed forms, then the
cascade dimension drop: percolation with retention p lowers the dimension of
the uniform measure by log(1/p)/log 2 per the weight entropy.
"""
import math

import numpy as np

from cascadim import (
    AffineIfs,
    IntervalSet,
    KeyedRng,
    Subshift,
    SymbolicMeasure,
    WeightLaw,
    box_dimension,
    cascade_measure,
    default_scales,
    entropy_dimension,
    pushforward,
)

# middle-thirds Cantor construction to depth 12
los = np.array([0.0])
for _ in range(12):
    los = np.concatenate([los / 3, los / 3 + 2 / 3])
cantor = IntervalSet(np.sort(los), np.sort(los) + 3.0**-12, source_scale=3.0**-12)
fit = box_dimension(cantor, [3.0**-k for k in range(1, 11)])
print(f"box dimension of the triadic Cantor set: {fit.slope:.4f} "
      f"(log 2 / log 3 = {math.log(2)/math.log(3):.4f})")

fit = box_dimension(IntervalSet([0.0], [1.0]), [2.0**-k for k in range(4, 16)])
print(f"box dimension of [0,1]: {fit.slope:.4f}")

tiling = AffineIfs.tiling(2)
full2 = Subshift.full(2)
unit = WeightLaw.percolation(1.0)

for probs in ((0.5, 0.5), (0.1, 0.9)):
    base = SymbolicMeasure.bernoulli(probs)
    m = pushforward(cascade_measure(base, full2, unit, 16, KeyedRng(1)), tiling)
    fit = entropy_dimension(m, default_scales(0.5, 16))
    print(f"entropy dimension of Bernoulli{probs} tiling measure: {fit.slope:.4f} "
          f"(h/log2 = {base.entropy()/math.log(2):.4f})")

# the cascade drop: dim = 1 + log(p)/log(2) for percolation on the uniform base
p = 0.7
slopes = []
seed = 0
while len(slopes) < 12:
    cm = cascade_measure(SymbolicMeasure.uniform(2), full2, WeightLaw.percolation(p), 16,
                         KeyedRng(42).derive(seed))
    seed += 1
    if not len(cm):
        continue
    slopes.append(entropy_dimension(pushforward(cm, tiling), default_scales(0.5, 16)).slope)
print(f"\npercolation({p}) cascade dimension over {len(slopes)} surviving seeds: "
      f"{np.mean(slopes):.4f} (formula 1 + log p/log 2 = {1 + math.log(p)/math.log(2):.4f})")
