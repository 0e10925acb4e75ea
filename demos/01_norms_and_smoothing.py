"""Diagonal-wise Sobolev norms, band smoothing, and the product estimate.

Operators on a lattice box are measured through their diagonals: the
s-norm weights the k-diagonal sup by <k>^s before taking the l2 sum over
offsets.  Three facts drive everything downstream:

* smoothing to a band of radius theta trades norm indices at rate
  theta^(s - s'),
* products obey a tame (interpolation) estimate whose constants come from
  an explicit lattice sum,
* both hold entrywise on the truncation, so every bound can be measured.
"""

import numpy as np

from nmloc import (
    HoppingSpec,
    LatticeBox,
    LatticeOperator,
    TameConstants,
    build_hopping,
    chain_bound_margins,
    tame_bound_check,
)

rng = np.random.default_rng(7)
box = LatticeBox(dimension=1, radius=32, interior_radius=24)
print(f"working on {box} ({box.n_sites} sites)\n")

# A long-range hopping profile |k|^-4 has finite s-norms up to s < 3.5.  The
# hopping is its radial symbol; T.band(lo, hi) forms the dense band
# lo < |i - j| <= hi, so the band of radius theta is T.band(-1, theta).
T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=1.0), box)
print("hopping norm growth toward the regularity edge s0 - d/2 = 3.5:")
for s in (0.0, 1.0, 2.0, 3.0, 3.45):
    print(f"  ||T||_{s:<5g} = {T.sobolev_norm(s):10.4f}")

print("\nband smoothing at theta = 8:")
for s, sp in ((3.0, 1.0), (0.5, 3.0)):
    inside = T.band(-1, 8.0).sobolev_norm(max(s, sp))
    outside = T.band(8.0, np.inf).sobolev_norm(min(s, sp))
    print(
        f"  ||S_8 T||_{max(s, sp):g} = {inside:.4f}"
        f"  <=  8^({max(s,sp):g}-{min(s,sp):g}) ||T||_{min(s,sp):g}"
        f" = {8.0 ** (max(s, sp) - min(s, sp)) * T.sobolev_norm(min(s, sp)):.4f}"
    )
    print(
        f"  ||(I-S_8) T||_{min(s, sp):g} = {outside:.6f}"
        f"  <=  8^({min(s,sp):g}-{max(s,sp):g}) ||T||_{max(s,sp):g}"
        f" = {8.0 ** (min(s, sp) - max(s, sp)) * T.sobolev_norm(max(s, sp)):.6f}"
    )

tc = TameConstants(box.dimension, alpha0=0.6)
print(f"\nproduct-estimate constants at alpha0 = 0.6: k0 = {tc.k0:.3f}, "
      f"k1(2.0) = {tc.k1(2.0):.3f}, c0 = {tc.c0:.3f}")

entries = rng.standard_normal((box.n_sites,) * 2) * box.band_mask(-1, 5)
X = LatticeOperator(box, entries.astype(complex))
T_dense = T.band(-1, np.inf)
margin = tame_bound_check(X, T_dense, 2.0, tc)
print(f"two-factor bound margin for a random band times the hopping: "
      f"{margin:.3f} (nonnegative by construction)")
m_lo, m_hi = chain_bound_margins([X, T_dense, X], 2.0, tc)
print(f"three-factor chain margins: low-index {m_lo:.3f}, high-index {m_hi:.3f}")
