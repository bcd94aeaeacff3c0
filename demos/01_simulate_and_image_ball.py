"""End-to-end walkthrough: simulate interior near-field data for a layered
spherical cavity, then image the cavity wall with the sampling method.

A dipole source sweeps over a measurement sphere of radius 1 inside a
vacuum cavity of radius 1.5 surrounded by a penetrable shell (A = 1, N = 2)
reaching to radius 2.5.  The imaging function is small inside the cavity
wall and large outside it, so its log-scale level sets trace the wall.

Run time is roughly half a minute; shrink the sampling box or increase the
spacing to go faster.
"""

import time

import numpy as np

from nfem import (
    LayeredCavityConfig,
    NoiseSpec,
    Shell,
    add_noise,
    assemble_nearfield,
    build_sampling_grid,
    build_sphere_grid,
    data_truncation_order,
    run_imaging,
    solve_modes,
)

# ---------------------------------------------------------------- forward
k = 0.75
cavity_radius = 1.5
shells = (Shell(outer_radius=2.5, A=1.0, N=2.0),)
rho = 1.0

# Sources and receivers both sit on the measurement sphere, which slows the
# series convergence; data_truncation_order picks an order converged to 1e-8.
n_max = data_truncation_order(cavity_radius, shells, k, rho)
config = LayeredCavityConfig(cavity_radius, shells, k, n_max)
grid = build_sphere_grid(n_theta=12, n_phi=24, radius=rho)

t0 = time.perf_counter()
clean = assemble_nearfield(solve_modes(config), grid)
print(f"assembled {clean.entries.shape[0]}x{clean.entries.shape[1]} data matrix "
      f"in {time.perf_counter() - t0:.2f} s (series order {n_max})")

defect = np.max(np.abs(clean.entries - clean.entries.T))
print(f"reciprocity defect: {defect / np.max(np.abs(clean.entries)):.2e}")

noisy = add_noise(clean, NoiseSpec(level=0.02, seed=7))

# ---------------------------------------------------------------- imaging
pol = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
sampling = build_sampling_grid(
    bounds=np.array([[-3.0, 3.0]] * 3), spacing=0.25, mask_radius=rho
)

t0 = time.perf_counter()
field = run_imaging(noisy, sampling, pol)
print(f"swept {int(np.sum(sampling.active))} sampling points "
      f"in {time.perf_counter() - t0:.1f} s")

# ----------------------------------------------------------------- report
radii = np.linalg.norm(sampling.points, axis=1)
inside = (radii >= 1.15) & (radii <= 1.35)   # inside the cavity wall
outside = (radii >= 1.7) & (radii <= 2.2)    # well outside it
p_in = np.percentile(field.log_indicator[inside], 90)
p_out = np.percentile(field.log_indicator[outside], 10)
print(f"log10 indicator, 90th percentile inside the wall:  {p_in:.2f}")
print(f"log10 indicator, 10th percentile outside the wall: {p_out:.2f}")
print(f"separation: {p_out - p_in:.2f} decades")

# A radial profile along +x shows the jump across the wall at r = 1.5.
print("\nradial profile of log10 I along +x:")
on_axis = (np.abs(sampling.points[:, 1]) < 1e-12) & (
    np.abs(sampling.points[:, 2]) < 1e-12
) & (sampling.points[:, 0] > rho)
for x, v in zip(sampling.points[on_axis, 0], field.log_indicator[on_axis]):
    bar = "#" * max(0, int(8 * (v + 4)))
    print(f"  r = {x:4.2f}  log10 I = {v:7.3f}  {bar}")
