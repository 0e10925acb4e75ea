"""Separation (distal) constants of the shipped diagonal models.

The divided-difference solve at the core of each conjugation step divides
by d_i - d_j, so everything hinges on a quantitative lower bound
|d_i - d_{i-k}| >= gamma / |k|^tau.  This script measures the largest
such gamma for each model in two ways:

* the window constant (``window_scan(D, max_offset).gamma(tau)``) pairs
  each site of the interior window with its partner i - k, read off the
  potential's formula even outside the box, and measures the inverted
  differences in the potential's norm (sampled BV where it carries a
  ``bv_profile``); the same scan's ``margin(tau, gamma)`` checks a given
  pair;
* the box constant (``distal_gamma_box``) takes the sup-norm minimum over
  all in-box pairs, which are exactly the divisors of the solve.  This is
  the constant ``run`` measures and the iteration consumes.

The two differ: the window reaches partners the box lacks, and craig_mod1's
sampled bounded-variation norm shrinks its window constant by the
total-variation factor.
"""

import math

from nmloc import (
    GOLDEN_MEAN,
    LatticeBox,
    PotentialSpec,
    build_potential,
    check_diophantine,
    distal_gamma_box,
    window_scan,
)

box = LatticeBox(1, 48, 32)
print(f"separation constants on {box}\n")

gamma_dio, worst = check_diophantine((GOLDEN_MEAN,), tau=1.0, max_k=64)
print(f"golden-mean torus constant:  ||k w|| >= {gamma_dio:.6f} / |k| "
      f"(worst k = {worst[0]})\n")

models = [
    ("maryland (tan)", PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), 1.0),
    ("sarnak (exp)", PotentialSpec("sarnak", omega=(GOLDEN_MEAN,)), 1.0),
    ("craig (x mod 1)", PotentialSpec("craig_mod1", omega=(GOLDEN_MEAN,)), 1.0),
    ("limit-periodic binary", PotentialSpec("limit_periodic_binary"), 1.0),
    ("limit-periodic ternary", PotentialSpec("limit_periodic_ternary"),
     math.log2(3.0)),
]
print(f"{'model':<24}{'tau':>6}{'gamma (window)':>16}{'gamma (box)':>14}"
      "  worst offset (window, box)")
for name, spec, tau in models:
    D = build_potential(spec, box)
    gamma, k = window_scan(D, max_offset=64).gamma(tau)
    gamma_box, k_box = distal_gamma_box(D, tau)
    print(f"{name:<24}{tau:>6.3f}{gamma:>16.6f}{gamma_box:>14.6f}  {k}, {k_box}")

print("\nclassical constants certified on the window:")
Db = build_potential(PotentialSpec("limit_periodic_binary"), box)
rb = window_scan(Db, max_offset=64).margin(tau=1.0, gamma=1 / 16)
print(f"  binary staircase at (tau=1, gamma=1/16): margin "
      f"{rb.empirical_margin:+.4f} -> {'pass' if rb.passed else 'fail'}")
Dt = build_potential(PotentialSpec("limit_periodic_ternary"), box)
rt = window_scan(Dt, max_offset=64).margin(tau=math.log2(3.0), gamma=1 / 3)
print(f"  ternary staircase at (tau=log2 3, gamma=1/3): margin "
      f"{rt.empirical_margin:+.4f} -> {'pass' if rt.passed else 'fail'}")

