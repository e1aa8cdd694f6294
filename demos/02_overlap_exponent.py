"""The overlap counter and its growth exponent.

For a system of one contraction ratio delta, count how many depth-n cylinder images can meet a
single ball of radius delta^n.  Separated systems keep the count bounded; a
system with an exactly repeated map doubles it every level, and the fitted
growth exponent cleanly separates the two regimes.
"""
from cascadim import AffineIfs, Subshift, gamma_estimate, overlap_count

full2, full3 = Subshift.full(2), Subshift.full(3)
tiling = AffineIfs.tiling(2)
overlapping = AffineIfs.from_maps([(0.5, 0.0), (0.5, 0.0), (0.5, 0.5)])

print("dyadic tiling of [0,1]: intervals only touch, so a ball meets at most 4")
print("  t_n for n=1..8:", [overlap_count(full2, tiling, n) for n in range(1, 9)])

print("\nsystem {x/2, x/2, x/2 + 1/2}: the two identical maps double the")
print("preimage count of every left cell each level")
print("  t_n for n=1..8:", [overlap_count(full3, overlapping, n) for n in range(1, 9)])

for name, shift, ifs, n_max in (
    ("tiling / full shift", full2, tiling, 12),
    ("tiling / golden-mean", Subshift.golden_mean(), tiling, 12),
    ("exact-overlap triple", full3, overlapping, 13),
):
    prof = gamma_estimate(shift, ifs, n_max)
    print(f"\n{name}: gamma = {prof.gamma_estimate:.3f} "
          f"(fit over n = {prof.fit_window[0]}..{prof.fit_window[1]})")
    print("  counts:", list(prof.counts))
