"""End-to-end acceptance suite for the reference ball experiment.

Reference configuration: cavity radius 1.5, one shell to radius 2.5 with
(A, N) = (1, 2), measurement sphere of radius 1 with a 12 x 24 quadrature
grid (288 nodes), polarization (1, -1, 1)/sqrt(3), 2% multiplicative noise,
seed 7.  Regression bounds marked "frozen" were measured once on the first
verified run of this pipeline and must not drift.
"""

import math
import time

import numpy as np
import pytest

from nfem.forward import (
    LayeredCavityConfig,
    Shell,
    interface_residual,
    maxwell_eigenvalue_margin,
    solve_modes,
    truncation_order,
)
from nfem.lsm import (
    build_sampling_grid,
    morozov_alpha,
    regularized_solve,
    rhs_matrix,
    rhs_vector,
    run_imaging,
    svd_factorize,
)
from nfem.measurement import (
    NoiseSpec,
    add_noise,
    assemble_nearfield,
    build_sphere_grid,
    read_nearfield,
    write_nearfield,
)
from nfem.output import write_imaging_csv, write_imaging_vtk
from test_cli import read_vtk_scalars
from test_lsm import weighted_operator
from test_specialfun import legendre, radial, wavefunction

K = 0.75
CAVITY_RADIUS = 1.5
SHELLS = (Shell(2.5, 1.0, 2.0),)
RHO = 1.0
POL = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
NOISE = 0.02
SEED = 7
DATA_ORDER = 34  # series order converged to 1e-8 for on-sphere data

# Shape-separation regression bounds, frozen from the first verified run
# (measured gaps: 1.293 at k = 0.5, 1.268 at k = 0.75, 1.199 at k = 1.0),
# stored with 0.1 decades of slack for numerical drift across platforms.
FROZEN_GAP = {0.5: 1.19, 0.75: 1.16, 1.0: 1.09}


@pytest.fixture(scope="module")
def sphere():
    return build_sphere_grid(12, 24, RHO)


@pytest.fixture(scope="module")
def clean(sphere):
    config = LayeredCavityConfig(CAVITY_RADIUS, SHELLS, K, DATA_ORDER)
    return assemble_nearfield(solve_modes(config), sphere)


@pytest.fixture(scope="module")
def noisy(clean):
    return add_noise(clean, NoiseSpec(NOISE, SEED))


@pytest.fixture(scope="module")
def svd(noisy):
    return svd_factorize(noisy, k=K)


def test_noiseless_data_is_reciprocal(clean):
    """Source-receiver exchange symmetry of the raw sample matrix."""
    t0 = time.perf_counter()
    defect = np.linalg.norm(clean.entries - clean.entries.T)
    rel = defect / np.linalg.norm(clean.entries)
    elapsed = time.perf_counter() - t0
    print(f"reciprocity defect {rel:.3e} (limit 1e-08), checked in {elapsed:.2f} s")
    assert clean.grid.n_nodes == 288
    assert rel <= 1e-8


def test_vacuum_configuration_produces_null_data(clean, sphere):
    """Zero material contrast must give a numerically zero data matrix."""
    vacuum = LayeredCavityConfig(
        CAVITY_RADIUS, (Shell(2.5, 1.0, 1.0),), K, DATA_ORDER
    )
    null = assemble_nearfield(solve_modes(vacuum), sphere)
    ratio = np.linalg.norm(null.entries) / np.linalg.norm(clean.entries)
    print(f"vacuum-to-reference Frobenius ratio {ratio:.3e} (limit 1e-12)")
    assert ratio <= 1e-12


def test_transmission_conditions_hold_at_interfaces():
    """Tangential E and tangential A curl E match across both interfaces."""
    y = np.array([0.15, 0.05, 0.1])
    p = np.array([1.0, -1.0, 1.0])
    rule = truncation_order(CAVITY_RADIUS, SHELLS, K)
    residuals = []
    for n_max in range(4, 17):
        cfg = LayeredCavityConfig(CAVITY_RADIUS, SHELLS, K, n_max)
        residuals.append(interface_residual(solve_modes(cfg), y, p))
    at_rule = residuals[rule - 4]
    print(f"interface residual {at_rule:.3e} at order {rule} (limit 1e-06); "
          f"monotone over orders 4..16: "
          f"{all(b < a for a, b in zip(residuals, residuals[1:]))}")
    assert at_rule <= 1e-6
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_wavenumber_eigenvalue_guard():
    """Working wavenumbers clear the measurement ball's resonance set; a
    wavenumber placed exactly on the first resonance is detected."""
    margins = {k: maxwell_eigenvalue_margin(k, RHO) for k in (0.5, 0.75, 1.0)}
    resonant = maxwell_eigenvalue_margin(4.4934094579, RHO)
    print(f"margins {margins}, at resonance {resonant:.3e}")
    for k, m in margins.items():
        assert m > 0.05, f"margin too small at k={k}"
    assert resonant < 1e-6


def test_regularization_contracts(noisy, svd, sphere):
    """Spectral Tikhonov solves satisfy the normal equations of the L^2
    operator A~ = W^1/2 S W^1/2 in g~ = W^1/2 g and b~ = W^1/2 b; the
    discrepancy-principle root solves its defining equation; the
    discrepancy is monotone in the regularization parameter."""
    a, root = weighted_operator(noisy)
    points = [
        np.array([1.8, 0.3, -0.4]),
        np.array([0.0, -1.3, 0.8]),
        np.array([2.6, 2.1, -1.7]),
    ]
    worst_ne = 0.0
    worst_root = 0.0
    for z in points:
        b = rhs_vector(z, POL, sphere, K)
        for alpha in (1e-2, 1e-5, 1e-8):
            g = regularized_solve(svd, b[:, None], alpha=alpha, want_g=True).g[:, 0]
            resid = a.conj().T @ (a @ (root * g) - root * b) + alpha * root * g
            worst_ne = max(
                worst_ne,
                np.linalg.norm(resid) / np.linalg.norm(a.conj().T @ (root * b)),
            )
        alpha_star, flagged = morozov_alpha(svd, b, NOISE)
        assert not flagged
        sol = regularized_solve(svd, b[:, None], alpha=alpha_star, want_g=True)
        target = NOISE * svd.s[0] * np.linalg.norm(root * sol.g[:, 0])
        worst_root = max(
            worst_root, abs(sol.discrepancy[0] - target) / np.linalg.norm(root * b)
        )
    b = rhs_vector(points[0], POL, sphere, K)
    sweep = np.logspace(-12, 2, 10) * svd.s[0]**2
    disc = [regularized_solve(svd, b[:, None], alpha=al).discrepancy[0] for al in sweep]
    monotone = all(y > x for x, y in zip(disc, disc[1:]))
    print(f"normal-equations residual {worst_ne:.3e} (limit 1e-10), "
          f"discrepancy-root defect {worst_root:.3e} (limit 1e-06), "
          f"monotone sweep {monotone}")
    assert worst_ne <= 1e-10
    assert worst_root <= 1e-6
    assert monotone


@pytest.fixture(scope="module")
def full_image(noisy):
    grid = build_sampling_grid(
        np.array([[-3, 3], [-3, 3], [-3, 3]]), 0.1, RHO
    )
    t0 = time.perf_counter()
    field = run_imaging(noisy, grid, POL, NOISE, k=K)
    return field, time.perf_counter() - t0


def band_percentiles(log_values, radii, inner=(1.15, 1.35), outer=(1.7, 2.2)):
    """(90th percentile inside the shell band, 10th percentile outside)."""
    in_band = (radii >= inner[0]) & (radii <= inner[1])
    out_band = (radii >= outer[0]) & (radii <= outer[1])
    return (
        float(np.percentile(log_values[in_band], 90)),
        float(np.percentile(log_values[out_band], 10)),
    )


def test_image_separates_cavity_wall_from_exterior(full_image):
    """The log indicator is markedly lower inside the shell than well
    outside it, so the cavity wall is visible as a level-set transition."""
    field, elapsed = full_image
    radii = np.linalg.norm(field.grid.points, axis=1)
    p_in, p_out = band_percentiles(field.log_indicator, radii)
    gap = p_out - p_in
    print(f"inside 90th pct {p_in:.3f}, outside 10th pct {p_out:.3f}, "
          f"gap {gap:.3f} decades (floor 0.5, frozen {FROZEN_GAP[K]}), "
          f"sweep time {elapsed:.1f} s")
    assert elapsed < 600
    assert p_in < p_out
    assert gap >= 0.5
    assert gap >= FROZEN_GAP[K]
    active = field.grid.active
    assert np.max(field.indicator[active]) == pytest.approx(1.0, rel=1e-15)
    assert np.all(field.log_indicator[~active] == 0.0)


@pytest.mark.parametrize("k", [0.5, 1.0])
def test_separation_holds_at_other_wavenumbers(k, sphere):
    """The wall/exterior separation is not specific to one wavenumber.

    The percentile gap is invariant under the global peak normalization, so
    only the two radial bands are swept here.
    """
    config = LayeredCavityConfig(CAVITY_RADIUS, SHELLS, k, DATA_ORDER + 1)
    noisy_k = add_noise(assemble_nearfield(solve_modes(config), sphere), NoiseSpec(NOISE, SEED))
    svd_k = svd_factorize(noisy_k, k=k)
    grid = build_sampling_grid(np.array([[-3, 3]] * 3), 0.1, RHO)
    radii = np.linalg.norm(grid.points, axis=1)
    band = ((radii >= 1.15) & (radii <= 1.35)) | ((radii >= 1.7) & (radii <= 2.2))
    pts = grid.points[band]
    vals = np.concatenate(
        [
            1.0 / regularized_solve(
                svd_k, rhs_matrix(pts[i : i + 2048], POL, sphere, k), NOISE
            ).g_norm
            for i in range(0, len(pts), 2048)
        ]
    )
    p_in, p_out = band_percentiles(np.log10(vals), radii[band])
    gap = p_out - p_in
    print(f"k={k}: gap {gap:.3f} decades (floor 0.5, frozen {FROZEN_GAP[k]})")
    assert gap >= 0.5
    assert gap >= FROZEN_GAP[k]


def test_determinism_and_round_trips(clean, noisy, tmp_path, monkeypatch):
    """Same seed gives bitwise-identical files; the binary format round-trips
    losslessly; imaging output is thread-count invariant; CSV and VTK agree."""
    # Seeded noise is reproducible bit for bit.
    again = add_noise(clean, NoiseSpec(NOISE, SEED))
    assert np.array_equal(again.entries, noisy.entries)

    # Binary data file round-trip is lossless and rewrite-stable.
    path1, path2 = tmp_path / "a.nfem", tmp_path / "b.nfem"
    write_nearfield(noisy, path1, K)
    back, k_back = read_nearfield(path1)
    assert k_back == K
    assert np.array_equal(back.entries, noisy.entries)
    write_nearfield(back, path2, k_back)
    assert path1.read_bytes() == path2.read_bytes()

    # Imaging is invariant under the worker count.
    grid = build_sampling_grid(np.array([[-2, 2]] * 3), 0.5, RHO)
    monkeypatch.setenv("NFEM_THREADS", "1")
    f1 = run_imaging(noisy, grid, POL, NOISE, k=K)
    monkeypatch.setenv("NFEM_THREADS", "4")
    f4 = run_imaging(noisy, grid, POL, NOISE, k=K)
    assert np.array_equal(f1.log_indicator, f4.log_indicator)

    # CSV and VTK report the same scalar field.
    csv_path, vtk_path = tmp_path / "img.csv", tmp_path / "img.vtk"
    write_imaging_csv(f1, csv_path)
    write_imaging_vtk(f1, vtk_path)
    vtk_vals = read_vtk_scalars(vtk_path)
    csv_vals = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=4)
    cross = np.max(np.abs(vtk_vals - csv_vals))
    print(f"CSV/VTK cross-consistency {cross:.3e} (limit 1e-12)")
    assert cross <= 1e-12


def test_special_function_identities():
    """Radial Wronskian and recurrence, Legendre oracle, and the Maxwell
    differential relations of the wavefunctions."""
    # Wronskian j_n y_n' - j_n' y_n = 1/t^2.
    worst_w = 0.0
    for t in (0.4, 1.9, 7.3):
        (j, jp), (h, hp) = radial(10, 1, t), radial(10, 3, t)
        w = j * hp.imag - jp * h.imag  # y_n = Im h_n
        worst_w = max(worst_w, float(np.max(np.abs(w * t**2 - 1.0))))
    assert worst_w <= 1e-10

    # Three-term recurrence (2n+1) z_n = t (z_{n-1} + z_{n+1}).
    t = 2.4
    j = radial(12, 1, t)[0]
    n = np.arange(1, 12)
    rec = (2 * n + 1) * j[n] - t * (j[n - 1] + j[n + 1])
    worst_r = float(np.max(np.abs(rec)) / np.max(np.abs(j)))
    assert worst_r <= 1e-10

    # Legendre values against an independent upward recurrence.
    def oracle(n, m, x):
        pmm, fact = 1.0, 1.0
        s = math.sqrt((1 - x) * (1 + x))
        for _ in range(m):
            pmm *= -fact * s
            fact += 2.0
        if n == m:
            return pmm
        p_prev, p_cur = pmm, x * (2 * m + 1) * pmm
        for q in range(m + 2, n + 1):
            p_prev, p_cur = p_cur, ((2 * q - 1) * x * p_cur - (q + m - 1) * p_prev) / (q - m)
        return p_cur

    worst_p = 0.0
    xs = np.linspace(-0.95, 0.95, 20)
    for n_deg, m_ord in [(2, 0), (5, 1), (9, 3), (12, 7)]:
        for x, got in zip(xs, legendre(n_deg, xs)[n_deg, m_ord]):
            want = oracle(n_deg, m_ord, x)
            worst_p = max(worst_p, abs(got - want) / max(abs(want), 1e-300))
    assert worst_p <= 1e-11

    # curl M = k N and curl N = k M by central differences.
    k = 0.8
    x0 = np.array([0.6, -0.5, 0.8])

    def curl(f, x, eps=1e-5):
        jac = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            jac[:, j] = (f(x + step) - f(x - step)) / (2 * eps)
        return np.array(
            [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]
        )

    worst_c = 0.0
    for n_deg, m_ord in [(1, 1), (3, -2)]:
        fm = wavefunction("M", 1, n_deg, m_ord, k)
        fn = wavefunction("N", 1, n_deg, m_ord, k)
        scale = max(np.max(np.abs(fm(x0))), np.max(np.abs(fn(x0))))
        worst_c = max(
            worst_c,
            float(np.max(np.abs(curl(fm, x0) - k * fn(x0)))) / scale,
            float(np.max(np.abs(curl(fn, x0) - k * fm(x0)))) / scale,
        )
    assert worst_c <= 1e-5
    print(f"wronskian {worst_w:.2e}, recurrence {worst_r:.2e}, "
          f"legendre {worst_p:.2e}, maxwell-curl {worst_c:.2e}")
