"""Regularized sampling engine: SVD, Tikhonov, discrepancy principle,
right-hand sides, and the imaging sweep."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfem import lsm
from nfem.errors import DataFormatError, InvalidArgumentError
from nfem.forward import LayeredCavityConfig, Shell, solve_modes
from nfem.green import green_apply
from nfem.lsm import (
    ALPHA_LO_FACTOR,
    MAX_SAMPLING_POINTS,
    SvdFactorization,
    _morozov_root,
    build_sampling_grid,
    lattice_shape,
    morozov_alpha,
    regularized_solve,
    rhs_matrix,
    rhs_vector,
    run_imaging,
    single_layer_eval,
    svd_factorize,
)
from nfem.measurement import NoiseSpec, add_noise, assemble_nearfield, build_sphere_grid
from test_green import green_tensor

K = 0.75
POL = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
BALL = LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 2.0),), K, 20)


@pytest.fixture(scope="module")
def sphere():
    return build_sphere_grid(8, 16, 1.0)


@pytest.fixture(scope="module")
def noisy(sphere):
    clean = assemble_nearfield(solve_modes(BALL), sphere)
    return add_noise(clean, NoiseSpec(0.02, 7))


@pytest.fixture(scope="module")
def svd(noisy):
    return svd_factorize(noisy, k=K)


def weighted_operator(matrix):
    """The oracle's own L^2 operator A~ = W^1/2 S W^1/2 and the diagonal of
    W^1/2, built from the entries and the quadrature weights: densities and
    right-hand sides map to g~ = W^1/2 g and b~ = W^1/2 b."""
    root = np.sqrt(np.repeat(matrix.grid.weights, 2))
    return root[:, None] * matrix.entries * root[None, :], root


class TestSvd:
    def test_reconstruction(self, noisy, svd):
        a, _ = weighted_operator(noisy)
        back = ((svd.uhw / svd.root).conj().T * svd.s) @ svd.vh
        assert np.max(np.abs(back - a)) < 1e-10 * svd.s[0]

    def test_operator_norm_hermitian_oracle(self, noisy, svd):
        # ||A~||_2^2 is the top eigenvalue of A~^H A~, computed by an
        # independent Hermitian eigensolver.
        a, _ = weighted_operator(noisy)
        top = np.linalg.eigvalsh(a.conj().T @ a)[-1]
        assert svd.s[0] == pytest.approx(np.sqrt(top), rel=1e-8)

    def test_zero_data_rejected(self, noisy):
        from dataclasses import replace

        with pytest.raises(DataFormatError, match="zero"):
            svd_factorize(replace(noisy, entries=np.zeros_like(noisy.entries)), k=K)


class TestTikhonov:
    def test_matches_normal_equations_oracle(self, noisy, svd, sphere):
        # Dense oracle: (A~^H A~ + alpha I) g~ = A~^H b~ solved directly.
        a, root = weighted_operator(noisy)
        b = rhs_vector(np.array([1.8, 0.3, -0.4]), POL, sphere, K)
        for alpha in (1e-2, 1e-5, 1e-8):
            g = regularized_solve(svd, b[:, None], alpha=alpha, want_g=True).g[:, 0]
            n = a.shape[1]
            g_oracle = np.linalg.solve(
                a.conj().T @ a + alpha * np.eye(n), a.conj().T @ (root * b)
            )
            assert np.linalg.norm(root * g - g_oracle) < 1e-6 * np.linalg.norm(g_oracle)

    def test_normal_equations_residual(self, noisy, svd, sphere):
        a, root = weighted_operator(noisy)
        b = rhs_vector(np.array([2.0, 0.0, 0.5]), POL, sphere, K)
        for alpha in (1e-3, 1e-7):
            g = regularized_solve(svd, b[:, None], alpha=alpha, want_g=True).g[:, 0]
            resid = a.conj().T @ (a @ (root * g) - root * b) + alpha * root * g
            scale = np.linalg.norm(a.conj().T @ (root * b))
            assert np.linalg.norm(resid) < 1e-10 * scale

    def test_discrepancy_field_consistent(self, noisy, svd, sphere):
        a, root = weighted_operator(noisy)
        b = rhs_vector(np.array([1.6, -0.9, 0.2]), POL, sphere, K)
        sol = regularized_solve(svd, b[:, None], alpha=1e-4, want_g=True)
        direct = np.linalg.norm(a @ (root * sol.g[:, 0]) - root * b)
        assert sol.discrepancy[0] == pytest.approx(direct, rel=1e-12)

    def test_density_norm_unusable_raises(self, svd, sphere):
        # An alpha so large that every filter factor underflows leaves
        # ||g|| = 0; the solve refuses rather than return it.
        b = rhs_vector(np.array([1.5, 1.0, 0.3]), POL, sphere, K)
        with pytest.raises(InvalidArgumentError, match="alpha_fixed"):
            regularized_solve(svd, b[:, None], alpha=1e308)

    def test_limits(self, svd, sphere):
        # alpha -> large shrinks g to 0; alpha -> small drives the residual
        # toward the least-squares floor.
        b = rhs_vector(np.array([1.5, 1.0, 0.3]), POL, sphere, K)
        big, small = (
            regularized_solve(svd, b[:, None], alpha=a * svd.s[0]**2, want_g=True)
            for a in (1e6, 1e-14)
        )
        assert np.linalg.norm(big.g) < 1e-5 * np.linalg.norm(small.g)
        assert small.discrepancy[0] < 0.01 * np.linalg.norm(b)

    def test_alpha_positive_required(self, svd, sphere):
        b = rhs_vector(np.array([1.5, 1.0, 0.3]), POL, sphere, K)
        with pytest.raises(InvalidArgumentError):
            regularized_solve(svd, b[:, None], alpha=0.0)


class TestMorozov:
    def test_discrepancy_monotone_in_alpha(self, svd, sphere):
        b = rhs_vector(np.array([1.7, 0.4, 0.8]), POL, sphere, K)
        alphas = np.logspace(-12, 2, 10) * svd.s[0]**2
        disc = [regularized_solve(svd, b[:, None], alpha=a).discrepancy[0] for a in alphas]
        assert all(y > x for x, y in zip(disc, disc[1:]))

    def test_root_satisfies_discrepancy_equation(self, noisy, svd, sphere):
        _, root = weighted_operator(noisy)
        for z in ([1.8, 0.3, -0.4], [2.4, -1.0, 0.9], [0.0, 0.0, 1.2]):
            b = rhs_vector(np.array(z), POL, sphere, K)
            alpha, flagged = morozov_alpha(svd, b, 0.02)
            assert not flagged
            sol = regularized_solve(svd, b[:, None], alpha=alpha, want_g=True)
            target = 0.02 * svd.s[0] * np.linalg.norm(root * sol.g[:, 0])
            assert abs(sol.discrepancy[0] - target) < 1e-6 * np.linalg.norm(root * b)

    def test_zero_noise_flagged_at_bracket_floor(self, svd, sphere):
        b = rhs_vector(np.array([1.8, 0.3, -0.4]), POL, sphere, K)
        alpha, flagged = morozov_alpha(svd, b, 0.0)
        assert flagged
        assert alpha == pytest.approx(1e-14 * svd.s[0]**2, rel=1e-12)

    def test_zero_rhs_rejected(self, svd):
        with pytest.raises(InvalidArgumentError):
            morozov_alpha(svd, np.zeros(svd.root.size, dtype=complex), 0.02)

    def test_non_finite_phi_flagged(self):
        # beta = 0 makes phi = ln(0/0) at both bracket ends: no root can be
        # trusted there, so the row is flagged, never returned as a root.
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha, flagged = _morozov_root(np.array([1.0, 0.25]), np.zeros((1, 2)), 0.02)
        assert flagged[0]
        assert alpha[0] == ALPHA_LO_FACTOR


def morozov_bisect_oracle(s, beta_abs2, h, width=1e-8):
    """The fixed bisection in log10 alpha that the Morozov root finder
    replaced, run until the bracket is narrower than width decades (31
    steps at the default): columns of beta_abs2 = |U^H b~|^2 are
    right-hand sides.  Returns (alpha, flagged)."""
    n_z = beta_abs2.shape[1]
    sigma1 = s[0]
    lo = np.full(n_z, np.log10(ALPHA_LO_FACTOR * sigma1**2))
    hi = np.full(n_z, np.log10(sigma1**2))

    def d(log_alpha):
        denom = (s * s)[:, None] + (10.0**log_alpha)[None, :]
        res2 = np.sum(((10.0**log_alpha)[None, :] / denom) ** 2 * beta_abs2, axis=0)
        gn2 = np.sum((s[:, None] / denom) ** 2 * beta_abs2, axis=0)
        return np.sqrt(res2) - h * sigma1 * np.sqrt(gn2)

    if h == 0:
        return 10.0**lo, np.ones(n_z, dtype=bool)
    clamp_lo = d(lo) >= 0
    clamp_hi = d(hi) <= 0
    for _ in range(200):
        if np.all((hi - lo) < width):
            break
        mid = 0.5 * (lo + hi)
        pos = d(mid) >= 0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    alpha = 10.0 ** (0.5 * (lo + hi))
    alpha = np.where(clamp_lo, ALPHA_LO_FACTOR * sigma1**2, alpha)
    alpha = np.where(clamp_hi, sigma1**2, alpha)
    return alpha, clamp_lo | clamp_hi


def spectral_sums(s, beta_abs2, alpha):
    """||A~ g~ - b~|| and ||g~|| of the Tikhonov solution, per column."""
    denom = (s * s)[:, None] + alpha[None, :]
    res = np.sqrt(np.sum((alpha[None, :] / denom) ** 2 * beta_abs2, axis=0))
    gn = np.sqrt(np.sum((s[:, None] / denom) ** 2 * beta_abs2, axis=0))
    return res, gn


@pytest.fixture(scope="module")
def chunk_rhs(sphere):
    """One full 2048-point sweep chunk, radii 1.05 to 3.5, so the cavity wall
    band (1.15 to 1.35) and the shell are well covered."""
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((2048, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.concatenate([rng.uniform(1.15, 1.35, 512), rng.uniform(1.05, 3.5, 1536)])
    return rhs_matrix(dirs * radii[:, None], POL, sphere, K)


class TestRegularizedSolve:
    def test_alpha_matches_bisection_oracle(self, svd, chunk_rhs):
        beta_abs2 = np.abs(svd.uhw @ chunk_rhs) ** 2
        want, want_flagged = morozov_bisect_oracle(svd.s, beta_abs2, 0.02)
        got = regularized_solve(svd, chunk_rhs, 0.02)
        assert not np.any(want_flagged)
        assert np.array_equal(got.flagged, want_flagged)
        assert np.max(np.abs(got.alpha / want - 1)) < 1e-7

    def test_converged_newton_step_kept(self, svd, chunk_rhs):
        # A Newton iterate that lands on the root makes itself a bracket
        # end; its converged step must be kept, not bisected away.  Every
        # root then agrees with a 1e-13-decade bisection to 1e-10.
        beta_abs2 = np.abs(svd.uhw @ chunk_rhs) ** 2
        want, _ = morozov_bisect_oracle(svd.s, beta_abs2, 0.02, width=1e-13)
        got = regularized_solve(svd, chunk_rhs, 0.02)
        ok = ~got.flagged
        assert np.max(np.abs(got.alpha[ok] / want[ok] - 1)) < 1e-10

    def test_batch_of_one_is_bitwise_its_column(self, svd, chunk_rhs):
        for alpha in (None, 1e-5):
            batch = regularized_solve(svd, chunk_rhs, 0.02, alpha)
            for j in (0, 1, 517, 2047):
                one = regularized_solve(svd, chunk_rhs[:, [j]], 0.02, alpha)
                for name in ("alpha", "flagged", "discrepancy", "g_norm"):
                    assert getattr(one, name)[0] == getattr(batch, name)[j]

    def test_root_off_its_equation_is_flagged(self, svd, chunk_rhs, monkeypatch):
        # A root finder that reports unflagged roots a factor 2 off: every
        # such row misses the discrepancy equation and must come out flagged.
        # The true roots pass the same check unflagged.
        b = chunk_rhs[:, :64]
        good = regularized_solve(svd, b, 0.02)
        assert not np.any(good.flagged)
        miss = good.alpha * np.where(np.arange(64) % 2, 2.0, 1.0)
        monkeypatch.setattr(lsm, "_morozov_root",
                            lambda s2, beta2, h: (miss.copy(), np.zeros(64, bool)))
        bad = regularized_solve(svd, b, 0.02)
        assert np.array_equal(bad.flagged, np.arange(64) % 2 == 1)
        assert np.array_equal(bad.alpha, miss)

    def test_fixed_alpha_matches_tikhonov(self, svd, chunk_rhs):
        b = chunk_rhs[:, :3]
        batch = regularized_solve(svd, b, alpha=1e-4, want_g=True)
        assert not np.any(batch.flagged)
        for j in range(3):
            sol = regularized_solve(svd, b[:, [j]], alpha=1e-4, want_g=True)
            assert np.allclose(batch.g[:, j], sol.g[:, 0], rtol=1e-12, atol=0)
            assert batch.discrepancy[j] == pytest.approx(sol.discrepancy[0], rel=1e-12)

    def test_clamped_at_both_bracket_ends(self, svd, chunk_rhs):
        b = chunk_rhs[:, :16]
        floor = regularized_solve(svd, b, 0.0)
        assert np.all(floor.flagged)
        assert np.all(floor.alpha == ALPHA_LO_FACTOR * svd.s[0]**2)
        ceiling = regularized_solve(svd, b, 1e6)
        assert np.all(ceiling.flagged)
        assert np.all(ceiling.alpha == svd.s[0]**2)

    def test_weighted_norm(self, svd, chunk_rhs):
        sol = regularized_solve(svd, chunk_rhs[:, :4], 0.02, want_g=True)
        direct = np.linalg.norm(svd.root[:, None] * sol.g, axis=0)
        assert np.allclose(sol.g_norm, direct, rtol=1e-12, atol=0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 48),
        st.floats(0.0, 1.0),
        st.floats(1e-4, 0.5),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_root_contract_or_flagged(self, rank, decay, h, n_z, seed):
        # Random unitary U and V, singular values decaying geometrically
        # over up to 15 decades, random coefficients beta of varying scale.
        rng = np.random.default_rng(seed)

        def unitary(n):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return np.linalg.qr(m)[0]

        s = 10.0 ** (rng.uniform(-3, 3) - decay * 15 * np.arange(rank) / rank)
        u = unitary(rank)
        beta = (rng.standard_normal((rank, n_z)) + 1j * rng.standard_normal((rank, n_z)))
        beta *= 10.0 ** rng.uniform(-6, 0, size=(rank, 1))
        svd = SvdFactorization(uhw=u.conj().T, s=s, vh=unitary(rank), root=np.ones(rank))
        b = u @ beta
        sol = regularized_solve(svd, b, h)
        res, gn = spectral_sums(s, np.abs(beta) ** 2, sol.alpha)
        ok = np.abs(res - h * s[0] * gn) < 1e-6 * np.linalg.norm(b, axis=0)
        assert np.all(ok | sol.flagged)


class TestRhs:
    def test_matches_green_tensor(self, sphere):
        # Every node against the dense tensor oracle, at z 1e-6 outside node 13
        # (|z| = rho + 1e-6, one separation 1e-6), off the sphere, at |z| = 40
        # and at |z| = 1e149, where the kernel must stay finite and keep its
        # dyadic term, as green_apply does.
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        for z in (sphere.nodes[13] * (1.0 + 1e-6), np.array([1.9, -0.2, 0.6]),
                  40.0 * direction, 1e149 * direction):
            b = rhs_vector(z, POL, sphere, K)
            gh = green_tensor(sphere.nodes, z, K) @ POL
            want = np.stack([np.sum(sphere.e1 * gh, axis=1),
                             np.sum(sphere.e2 * gh, axis=1)], axis=1).ravel()
            assert np.all(np.isfinite(b))
            assert np.max(np.abs(b - want)) <= 1e-13 * np.max(np.abs(want))
            gh = green_apply(sphere.nodes, z, POL, K)
            applied = np.stack([np.sum(sphere.e1 * gh, axis=1),
                                np.sum(sphere.e2 * gh, axis=1)], axis=1).ravel()
            assert np.max(np.abs(b - applied)) <= 1e-14 * np.max(np.abs(applied))

    def test_batch_matches_single(self, sphere):
        zs = np.array([[1.9, -0.2, 0.6], [0.4, 0.1, 1.4], [2.5, 2.5, 2.5]])
        batch = rhs_matrix(zs, POL, sphere, K)
        for t, z in enumerate(zs):
            assert np.array_equal(batch[:, t], rhs_vector(z, POL, sphere, K))

    def test_column_bits_independent_of_batch_size(self, sphere):
        # One point's column is the same in batches of 1, 7 and 512 (the
        # sweep's chunk), wherever it sits in the batch.
        rng = np.random.default_rng(5)
        zs = rng.standard_normal((512, 3))
        zs *= (rng.uniform(1.05, 4.0, 512) / np.linalg.norm(zs, axis=1))[:, None]
        want = rhs_vector(zs[6], POL, sphere, K)
        assert np.array_equal(rhs_matrix(zs[:7], POL, sphere, K)[:, 6], want)
        assert np.array_equal(rhs_matrix(zs, POL, sphere, K)[:, 6], want)
        assert rhs_matrix(zs, POL, sphere, K).flags.f_contiguous

    def test_linearity_in_polarization(self, sphere):
        z = np.array([1.2, 1.2, 0.0])
        h1 = np.array([1.0, 0.0, 0.0])
        h2 = np.array([0.0, 1.0, 0.0])
        combo = rhs_vector(z, 2 * h1 - 0.5 * h2, sphere, K)
        assert np.allclose(
            combo,
            2 * rhs_vector(z, h1, sphere, K) - 0.5 * rhs_vector(z, h2, sphere, K),
            rtol=1e-13,
        )

    def test_decay_with_distance(self, sphere):
        near = rhs_vector(np.array([1.5, 0, 0]), POL, sphere, K)
        far = rhs_vector(np.array([40.0, 0, 0]), POL, sphere, K)
        assert np.linalg.norm(far) < 0.05 * np.linalg.norm(near)

    def test_point_on_sphere_rejected(self, sphere):
        with pytest.raises(InvalidArgumentError):
            rhs_vector(np.array([1.0, 0.0, 0.0]), POL, sphere, K)


class TestIndicator:
    def test_inside_point_smaller_than_outside(self, noisy, svd, sphere):
        b = rhs_matrix(np.array([[1.2, 0.0, 0.0], [2.0, 0.0, 0.0]]), POL, sphere, K)
        v_in, v_out = 1.0 / regularized_solve(svd, b, 0.02).g_norm
        assert np.log10(v_out) - np.log10(v_in) > 0.5

    def test_scaling_invariance_of_ranking(self, noisy, sphere):
        # Rescaling the data matrix rescales 1/||g|| uniformly, leaving
        # the normalized image unchanged.
        from dataclasses import replace

        scaled = replace(noisy, entries=noisy.entries * 7.5)
        svd1 = svd_factorize(noisy, k=K)
        svd2 = svd_factorize(scaled, k=K)
        b = rhs_matrix(np.array([[1.3, 0.4, 0.0], [2.1, 0.0, 0.3]]), POL, sphere, K)
        vals1 = 1.0 / regularized_solve(svd1, b, 0.02).g_norm
        vals2 = 1.0 / regularized_solve(svd2, b, 0.02).g_norm
        assert vals2[0] / vals2[1] == pytest.approx(vals1[0] / vals1[1], rel=1e-8)


class TestSamplingGrid:
    def test_lattice_shape_and_order(self):
        grid = build_sampling_grid(np.array([[-1, 1], [-1, 1], [-1, 1]]), 0.5, 0.75)
        assert grid.shape == (5, 5, 5)
        assert grid.n_points == 125
        # x varies fastest in storage order
        assert np.allclose(grid.points[1] - grid.points[0], [0.5, 0, 0])
        assert np.allclose(grid.points[5] - grid.points[0], [0, 0.5, 0])
        assert np.allclose(grid.points[25] - grid.points[0], [0, 0, 0.5])

    def test_mask(self):
        grid = build_sampling_grid(np.array([[-1, 1], [-1, 1], [-1, 1]]), 0.5, 0.75)
        r = np.linalg.norm(grid.points, axis=1)
        assert np.array_equal(grid.active, r > 0.75 + 1e-9)
        assert not grid.active[62]  # the origin

    def test_bad_spacing(self):
        with pytest.raises(InvalidArgumentError):
            build_sampling_grid(np.zeros((3, 2)) + [[0, 1]], 0.0, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lattice_cap(self):
        # The count is exact at the cap and is taken before any allocation,
        # also for spans past the double range.
        at_cap = [[0, 9999], [0, 999], [0, 0]]
        assert lattice_shape(at_cap, 1.0) == (10000, 1000, 1)
        assert np.prod(lattice_shape(at_cap, 1.0)) == MAX_SAMPLING_POINTS
        for bounds in ([[0, 10000], [0, 999], [0, 0]], [[-1e6, 1e6], [-3, 3], [-3, 3]],
                       [[-1e308, 1e308], [-3, 3], [-3, 3]]):
            with pytest.raises(InvalidArgumentError, match="cap of 10,000,000"):
                build_sampling_grid(np.array(bounds), 1.0, 0.5)


class TestImagingSweep:
    BOUNDS = np.array([[-2, 2], [-2, 2], [-2, 2]])

    def test_normalization_and_masking(self, noisy):
        grid = build_sampling_grid(self.BOUNDS, 0.5, 1.0)
        field = run_imaging(noisy, grid, POL, 0.02, k=K)
        active = grid.active
        assert np.max(field.indicator[active]) == pytest.approx(1.0, rel=1e-15)
        assert np.all(field.indicator[~active] == 0.0)
        assert np.all(field.log_indicator[~active] == 0.0)
        assert np.all(field.log_indicator[active] <= 0.0)

    def test_thread_count_invariance(self, noisy, monkeypatch):
        grid = build_sampling_grid(self.BOUNDS, 0.5, 1.0)

        def image_with(threads):
            monkeypatch.setenv("NFEM_THREADS", str(threads))
            return run_imaging(noisy, grid, POL, 0.02, k=K)

        f1 = image_with(1)
        f4 = image_with(4)
        assert np.array_equal(f1.indicator, f4.indicator)
        assert np.array_equal(f1.log_indicator, f4.log_indicator)

    def test_empty_active_set_rejected(self, noisy):
        grid = build_sampling_grid(np.array([[-0.2, 0.2]] * 3), 0.1, 1.0)
        with pytest.raises(InvalidArgumentError):
            run_imaging(noisy, grid, POL, 0.02, k=K)


class TestSingleLayer:
    def test_solves_helmholtz_componentwise(self, noisy, svd, sphere):
        # The potential is a superposition of outgoing kernels, so each
        # Cartesian component satisfies (Laplacian + k^2) u = 0 off the sphere.
        z = np.array([1.8, 0.3, -0.4])
        b = rhs_vector(z, POL, sphere, K)[:, None]
        g = regularized_solve(svd, b, 0.02, want_g=True).g[:, 0]
        x = np.array([1.6, 0.9, 0.8])
        eps = 1e-4
        lap = np.zeros(3, dtype=complex)
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            lap += (
                single_layer_eval(g, x + step, sphere, K)
                - 2 * single_layer_eval(g, x, sphere, K)
                + single_layer_eval(g, x - step, sphere, K)
            ) / eps**2
        val = single_layer_eval(g, x, sphere, K)
        resid = np.linalg.norm(lap + K**2 * val)
        assert resid < 1e-3 * max(np.linalg.norm(val), 1e-30) * K**2

    def test_point_on_sphere_rejected(self, svd, sphere):
        g = np.zeros(2 * sphere.n_nodes, dtype=complex)
        with pytest.raises(InvalidArgumentError):
            single_layer_eval(g, np.array([0.0, 1.0, 0.0]), sphere, K)
