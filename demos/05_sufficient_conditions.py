"""Why the scheme ships two regimes: sufficient constants vs practice.

The convergence argument imposes a family of displayed inequalities on the
parameters (band ratio, starting radius, norm indices).  They are
sufficient, not necessary, and for small loss budgets delta they force
astronomically large band ratios.  The checker makes that visible; the
empirical regime then runs at practical ratios and certifies convergence
a posteriori through the ledger.
"""

import numpy as np

from nmloc import (
    GOLDEN_MEAN,
    HoppingSpec,
    LatticeBox,
    PotentialSpec,
    SchemeParams,
    TameConstants,
    build_hopping,
    build_potential,
    check_theory_conditions,
    run,
)

tc = TameConstants(1, 0.6)
print(f"product-estimate constant c0 = {tc.c0:.2f} at alpha0 = 0.6\n")

practical = SchemeParams(tau=1.0, gamma=1.0, delta=0.05, alpha0=0.6,
                         alpha=3.25, alpha1=6.55, theta0=2.0, Theta=2.0)
rows = check_theory_conditions(practical, tc, t_3delta=0.31, t_4delta=0.31)
print("practical parameters (delta = 0.05, Theta = 2):")
for c in rows:
    tag = "" if c.effective else "   [constant not effective]"
    print(f"  {c.name:<8} holds={str(c.holds):<6} margin={c.margin:+10.3g} "
          f"({c.scale}){tag}")
binding = next(c for c in rows if c.name == "Theta")
print(f"\nbinding band-ratio requirement: {binding.data['binding']}, i.e. "
      f"Theta >= 1e{binding.data['required_log10']:.0f} -- far beyond reach, "
      "which is exactly why the empirical regime exists.\n")

witness = SchemeParams(tau=0.5, gamma=0.25, delta=4.0, alpha0=0.6,
                       alpha=100.0, alpha1=204.0, theta0=1e54, Theta=70.0,
                       theory_checks=True)
wrows = check_theory_conditions(witness, tc, t_3delta=0.0, t_4delta=0.0)
print(f"witness parameters (delta = 4, zero coupling): "
      f"{sum(c.holds for c in wrows)}/{len(wrows)} inequalities hold")
print("admissible coupling under these inequalities is below 1e-300, so "
      "the only float-representable witness hopping is zero;")

box = LatticeBox(1, 16, 12)
D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.0), box)
res = run(T, D, witness)
print(f"strict-checking run at the witness: converged = {res.converged}, "
      f"defect exactly zero = {bool(np.all(res.final_residual.entries == 0))}")

print("\nempirical regime at the same delta = 0.05, Theta = 2 (Maryland, "
      "coupling 0.1):")
T2 = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.1), box)
res2 = run(T2, D, SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0,
                               Theta=2.0, s_hopping=4.0, epsilon=0.1))
print(f"  converged = {res2.converged} in {res2.steps} steps, final defect "
      f"{res2.final_residual.sobolev_norm(0.0):.2e}")
print("  every claimed bound is recorded as a signed margin in the ledger "
      "rather than asserted.")
