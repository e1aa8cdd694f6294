"""Arithmetic of random fractals: sumsets, projections, convolutions.

Percolation images on incommensurable grids add their dimensions (capped at
one); coordinate projections of a product drop to the factor dimension; and
Bernoulli convolutions convolve to the capped sum when the contractions are
log-incommensurable.
"""
import math

import numpy as np

from cascadim import (
    AffineIfs,
    KeyedRng,
    Subshift,
    bernoulli_convolution,
    box_dimension,
    convolve,
    entropy_dimension,
    percolation_codes,
    set_image,
    sumset,
)

# sumset of two independent percolations on the dyadic and triadic grids
pa, pb = 0.55, 0.6
da, db = 14, 9
target = min(1.0, 2 + math.log(pa) / math.log(2) + math.log(pb) / math.log(3))
tiling2, tiling3 = AffineIfs.tiling(2), AffineIfs.tiling(3)
slopes = []
trial = 0
while len(slopes) < 8:
    rng = KeyedRng(7).derive(trial)
    trial += 1
    ca = percolation_codes(Subshift.full(2), pa, da, rng.derive(1), tiling2)
    cb = percolation_codes(Subshift.full(3), pb, db, rng.derive(2), tiling3)
    if ca.size == 0 or cb.size == 0:
        continue
    total = sumset(
        set_image(ca, tiling2, length=da),
        set_image(cb, tiling3, length=db),
        math.sqrt(2.0),
        pair_cap=200_000_000,
    )
    slopes.append(box_dimension(total, [2.0**-k for k in range(3, 13)]).slope)
print(f"sumset of percolation images, s = sqrt(2): dim {np.mean(slopes):.4f} "
      f"over {len(slopes)} surviving pairs (formula {target:.4f})")

# Bernoulli convolutions: separated factors, incommensurable contractions
b1, p1, b2, p2 = 0.4, 0.9, 0.35, 0.85
m1 = bernoulli_convolution(b1, p1, 16)
m2 = bernoulli_convolution(b2, p2, 16)
conv = convolve(m1, m2, atom_cap=1_000_000, rng=KeyedRng(3))
diam = (m1.points[-1] - m1.points[0]) + (m2.points[-1] - m2.points[0])
fit = entropy_dimension(conv, [diam * 2.0**-k for k in range(6, 15)],
                        sample_size=4000, rng=KeyedRng(4))


def h(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


target = min(1.0, h(p1) / math.log(1 / b1) + h(p2) / math.log(1 / b2))
print(f"convolution of Bernoulli convolutions: dim {fit.slope:.4f} "
      f"(capped factor sum {target:.4f})")
print("note: additivity saturates slowly near the critical sum; deeper trees tighten it")
