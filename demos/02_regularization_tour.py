"""A tour of the regularized solve behind the imaging function.

The near-field equation is severely ill-posed: the singular values of the
data operator decay rapidly, so a plain least-squares solve amplifies the
measurement noise.  This script shows the singular-value decay, how the
residual and solution norms trade off along a regularization sweep, and how
the discrepancy principle picks the parameter automatically from the noise
level.
"""

import numpy as np

from nfem import (
    LayeredCavityConfig,
    NoiseSpec,
    Shell,
    add_noise,
    assemble_nearfield,
    build_sphere_grid,
    morozov_alpha,
    regularized_solve,
    rhs_matrix,
    rhs_vector,
    solve_modes,
    svd_factorize,
)

k = 0.75
config = LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 2.0),), k, 34)
grid = build_sphere_grid(10, 20, 1.0)
noisy = add_noise(assemble_nearfield(solve_modes(config), grid), NoiseSpec(0.02, 7))
svd = svd_factorize(noisy, k=k)

# ------------------------------------------------------ singular values
print("singular-value decay of the weighted data matrix:")
for i in (0, 10, 50, 100, 200, 350):
    print(f"  sigma_{i:<3d} / sigma_0 = {svd.s[i] / svd.s[0]:.2e}")

# ----------------------------------------------------- parameter sweep
pol = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
z = np.array([2.0, 0.5, -0.3])  # a sampling point outside the cavity
b = rhs_vector(z, pol, grid, k)

print(f"\nregularization sweep at sampling point {z.tolist()}:")
print(f"  {'alpha':>10}  {'residual':>10}  {'||g||_w':>10}")
for alpha in np.logspace(-10, 0, 6) * svd.s[0]**2:
    sol = regularized_solve(svd, b[:, None], alpha=alpha)
    print(f"  {alpha:10.2e}  {sol.discrepancy[0]:10.3e}  {sol.g_norm[0]:10.3e}")

# Small alpha: tiny residual, huge solution (noise amplified).
# Large alpha: bounded solution, residual saturates.  The discrepancy
# principle picks the crossover where the residual matches the noise level.
# Residual and density are both measured in the quadrature-weighted L^2
# norm of the sphere, the norm the solve itself uses.
alpha_star, flagged = morozov_alpha(svd, b, 0.02)
sol = regularized_solve(svd, b[:, None], alpha=alpha_star)
target = 0.02 * svd.s[0] * sol.g_norm[0]
print(f"\ndiscrepancy-principle choice: alpha = {alpha_star:.3e}"
      + (" (flagged)" if flagged else ""))
print(f"  residual {sol.discrepancy[0]:.4e} vs target {target:.4e}")

# ------------------------------------------------- indicator contrast
# The imaging sweep solves many sampling points at once: the columns of b
# are right-hand sides, each with its own Morozov root.
print("\nindicator 1/||g||_w at points inside vs outside the cavity:")
zs = np.array([[1.2, 0.0, 0.0], [1.4, 0.3, 0.0], [1.8, 0.0, 0.0], [2.4, 0.0, 0.0]])
sol = regularized_solve(svd, rhs_matrix(zs, pol, grid, k), h_noise=0.02)
for z, g_norm in zip(zs, sol.g_norm):
    print(f"  z = {z.tolist()}:  1/||g||_w = {1.0 / g_norm:.3e}")
