"""Consistency checks of the analytic layered-sphere forward solver.

Everything downstream (data simulation, imaging) rests on the modal
transmission solve, so this script exercises its invariants directly:
interface continuity, series convergence, reciprocity, the exact vacuum
null, and the resonance guard on the measurement ball.
"""

import numpy as np

from nfem import (
    LayeredCavityConfig,
    Shell,
    interface_residual,
    maxwell_eigenvalue_margin,
    scattered_field,
    solve_modes,
    truncation_order,
)

k = 0.75
shells = (Shell(2.5, 1.0, 2.0),)
y = np.array([0.15, 0.05, 0.1])     # dipole position inside the cavity
p = np.array([1.0, -1.0, 1.0])      # dipole polarization

# --------------------------------------------- transmission conditions
# Tangential E and tangential A curl E must be continuous across both
# interfaces; the residual decays geometrically with the series order.
print("interface residual vs series order:")
for n_max in range(4, 17, 2):
    cfg = LayeredCavityConfig(1.5, shells, k, n_max)
    res = interface_residual(solve_modes(cfg), y, p)
    print(f"  order {n_max:2d}: {res:.2e}")
rule = truncation_order(1.5, shells, k)
print(f"default rule picks order {rule}")

# ------------------------------------------------------- reciprocity
cfg = LayeredCavityConfig(1.5, shells, k, 14)
modes = solve_modes(cfg)
x1, x2 = np.array([0.8, -0.3, 0.2]), np.array([-0.1, 0.6, -0.7])
q1, q2 = np.array([0.5, 1.0, -0.2]), np.array([-1.0, 0.3, 0.8])
lhs = q1 @ scattered_field(x1, x2, q2, modes)
rhs = q2 @ scattered_field(x2, x1, q1, modes)
print(f"\nreciprocity: p.E(x,y,q) = {lhs:.12e}")
print(f"             q.E(y,x,p) = {rhs:.12e}")
print(f"             relative difference {abs(lhs - rhs) / abs(lhs):.2e}")

# -------------------------------------------------------- vacuum null
vac = LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 1.0),), k, 14)
worst = np.max(np.abs(solve_modes(vac).reflection))
print(f"\nzero-contrast reflection coefficients: max |R_n| = {worst:.1e} (exact 0)")

# -------------------------------------------------- resonance guard
# The sampling method degenerates if k^2 is a Maxwell eigenvalue of the
# measurement ball; the margin measures the distance to the nearest one.
print("\ndistance from k*rho to the nearest ball resonance:")
for kk in (0.5, 0.75, 1.0, 4.4934094579):
    print(f"  k = {kk:<12g}: margin {maxwell_eigenvalue_margin(kk, 1.0):.3e}")
print("(4.4934... is the first resonance itself, hence the zero margin)")
