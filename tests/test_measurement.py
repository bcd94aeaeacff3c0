"""Sphere quadrature, near-field matrix assembly, noise model, and the
binary data format."""

import contextlib
import dataclasses
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfem.cli import main
from nfem.config import default_config_text
from nfem.errors import DataFormatError, InvalidArgumentError
from nfem import forward, measurement
from nfem import specialfun as sf
from nfem.forward import (
    DATA_SERIES_TOL,
    LayeredCavityConfig,
    ModeCoefficients,
    Shell,
    data_truncation_order,
    scattered_field,
    series_tail,
    solve_modes,
    tail_order,
)
from nfem.measurement import (
    HEADER,
    MAGIC,
    MAX_SPHERE_NODES,
    NearFieldMatrix,
    NoiseSpec,
    SphereGrid,
    add_noise,
    assemble_nearfield,
    block_column,
    build_sphere_grid,
    crc64,
    noise_factor,
    read_nearfield,
    reciprocity_defect,
    ring_size,
    write_nearfield,
)

BALL = LayeredCavityConfig(
    cavity_radius=1.5, shells=(Shell(2.5, 1.0, 2.0),), k=0.75, n_max=16
)


def assemble_nearfield_oracle(modes, grid):
    """The dense assembly that the block-column kernel replaced: project every
    wavefunction on every node's frame and contract both families,
    S = -k^2 (P_TE^T R_TE conj(P_TE) + P_TM^T R_TM conj(P_TM))."""
    config = modes.config
    deg, _ = sf.mode_index(config.n_max)
    m1, n1 = sf.vswf_fields(grid.nodes, config.k, config.n_max, 1)
    frames = np.stack([grid.e1, grid.e2], axis=1)  # (n, 2, 3)
    p_te = np.einsum("qij,ilj->qil", m1, frames).reshape(m1.shape[0], -1)
    p_tm = np.einsum("qij,ilj->qil", n1, frames).reshape(n1.shape[0], -1)
    r_te, r_tm = modes.reflection[:, deg - 1]
    return -(config.k**2) * (
        p_te.T @ (r_te[:, None] * np.conj(p_te))
        + p_tm.T @ (r_tm[:, None] * np.conj(p_tm))
    )


def assert_matches_oracle(config, grid):
    """Block-column entries within 1e-13 of the oracle's largest entry, and
    reciprocity-symmetric to 1e-8 of it."""
    modes = solve_modes(config)
    got = assemble_nearfield(modes, grid).entries
    want = assemble_nearfield_oracle(modes, grid)
    scale = np.max(np.abs(want))
    if scale == 0:  # vacuum shells: both are exact zeros
        assert not np.any(got)
        return
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    assert np.max(np.abs(got - got.T)) < 1e-8 * scale


def grid_at(theta, phi):
    """A unit-sphere grid at the given node angles, in their order."""
    return measurement._grid_from_angles(theta, phi, np.full(theta.size, 1.0), 1.0)


def permuted(grid, order):
    """The same nodes, weights and frames, listed in another order."""
    return SphereGrid(
        grid.radius, *(getattr(grid, f)[order] for f in
                       ("theta", "phi", "weights", "nodes", "e1", "e2"))
    )


@pytest.fixture(scope="module")
def grid():
    return build_sphere_grid(8, 16, 1.0)


@pytest.fixture(scope="module")
def matrix(grid):
    return assemble_nearfield(solve_modes(BALL), grid)


class TestGrid:
    def test_constant_integrates_to_area(self, grid):
        # Gauss-Legendre weights are exact for constants by construction.
        assert np.sum(grid.weights) == pytest.approx(4 * np.pi, rel=1e-15)

    def test_spherical_harmonic_normalization(self, grid):
        # Oracle: integral over the sphere of |Y_2^1|^2 is 1, with
        # Y_2^1 proportional to sin(theta) cos(theta) e^{i phi}.
        norm = np.sqrt(15 / (8 * np.pi))
        y21 = norm * np.sin(grid.theta) * np.cos(grid.theta) * np.exp(1j * grid.phi)
        assert np.sum(grid.weights * np.abs(y21) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_quartic_integrand(self, grid):
        # integral of z^4 over the unit sphere = 4 pi / 5
        z4 = grid.nodes[:, 2] ** 4
        assert np.sum(grid.weights * z4) == pytest.approx(4 * np.pi / 5, rel=1e-13)

    def test_frames_orthonormal_right_handed(self, grid):
        normal = grid.nodes / grid.radius
        for a, b in [(grid.e1, grid.e1), (grid.e2, grid.e2), (normal, normal)]:
            assert np.allclose(np.einsum("ij,ij->i", a, b), 1.0, atol=1e-14)
        assert np.allclose(np.einsum("ij,ij->i", grid.e1, grid.e2), 0.0, atol=1e-14)
        assert np.allclose(np.cross(grid.e1, grid.e2), normal, atol=1e-14)

    def test_nodes_off_poles(self, grid):
        assert np.all(np.sin(grid.theta) > 1e-3)

    def test_bad_sizes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_sphere_grid(1, 16, 1.0)
        with pytest.raises(InvalidArgumentError):
            build_sphere_grid(8, 16, -1.0)

    def test_grid_at_the_node_cap_builds(self):
        assert build_sphere_grid(64, 64, 1.0).n_nodes == MAX_SPHERE_NODES

    @pytest.mark.parametrize("n_theta, n_phi", [(65, 64), (2, 2049), (2, 20000)])
    def test_grid_past_the_node_cap_refused(self, monkeypatch, n_theta, n_phi):
        # Refused before leggauss runs, which would fail here.
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
        with pytest.raises(InvalidArgumentError, match=f"{n_theta * n_phi:,} nodes"):
            build_sphere_grid(n_theta, n_phi, 1.0)


class TestAssembly:
    def test_reciprocity_symmetry(self, matrix):
        defect = np.max(np.abs(matrix.entries - matrix.entries.T))
        assert defect < 1e-8 * np.max(np.abs(matrix.entries))

    def test_entries_match_direct_evaluation(self, grid, matrix):
        # Spot-check the mode-contraction assembly against a pointwise
        # scattered-field evaluation.
        coeffs = solve_modes(BALL)
        i, ell, j, m = 3, 0, 20, 1
        x_i, y_j = grid.nodes[i], grid.nodes[j]
        e_l = (grid.e1, grid.e2)[ell][i]
        e_m = (grid.e1, grid.e2)[m][j]
        field = scattered_field(y_j, x_i, e_l, coeffs)
        want = e_m @ field
        got = matrix.entries[2 * i + ell, 2 * j + m]
        assert got == pytest.approx(want, rel=1e-10)

    def test_vacuum_configuration_is_null(self, grid, matrix):
        vac = LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 1.0),), 0.75, 16)
        null = assemble_nearfield(solve_modes(vac), grid)
        assert np.linalg.norm(null.entries) == 0.0
        assert np.linalg.norm(matrix.entries) > 0.0

    def test_resolution_refinement_stable(self):
        # Top singular values are grid-converged: refining the quadrature
        # changes them by under 1 percent.
        # Symmetrically weighted samples sqrt(w_i) S_ij sqrt(w_j) discretize
        # the operator so its singular values are grid-convergent.
        def top_singular(n_t, n_p):
            g = build_sphere_grid(n_t, n_p, 1.0)
            m = assemble_nearfield(solve_modes(BALL), g)
            sw = np.sqrt(np.repeat(g.weights, 2))
            a = sw[:, None] * m.entries * sw[None, :]
            return np.linalg.svd(a, compute_uv=False)[:10]

        coarse = top_singular(8, 16)
        fine = top_singular(12, 24)
        assert np.max(np.abs(coarse - fine) / fine) < 0.01

    def test_reads_n_max_from_the_modes(self, grid, matrix):
        # Degrees 1..4 of the order-16 solve, labelled n_max = 4, assemble
        # the order-4 data bit for bit.
        modes = solve_modes(BALL)
        low = ModeCoefficients(dataclasses.replace(BALL, n_max=4), modes.table[..., :4])
        entries = assemble_nearfield(low, grid).entries
        assert np.array_equal(entries, assemble_nearfield(solve_modes(low.config), grid).entries)
        assert not np.array_equal(entries, matrix.entries)

    def test_grid_outside_cavity_rejected(self):
        g = build_sphere_grid(4, 8, 2.0)
        with pytest.raises(InvalidArgumentError):
            assemble_nearfield(solve_modes(BALL), g)


# The reference run's series order at rho = 1 (data_truncation_order), and
# two vacuum shells at that order, whose data are exact zeros.  At order 3
# the azimuthal orders -3 ... 3 leave residues mod n_phi > 7 with no mode.
REFERENCE = dataclasses.replace(BALL, n_max=34)
VACUUM = LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 1.0), Shell(3.0, 1.0, 1.0)), 0.75, 34)
LOW_ORDER = dataclasses.replace(BALL, n_max=3)


class TestBlockCirculant:
    @pytest.mark.parametrize("config", [REFERENCE, VACUUM, LOW_ORDER],
                             ids=["reference", "vacuum", "empty_residues"])
    @pytest.mark.parametrize("n_theta, n_phi", [(2, 4), (5, 7), (8, 16), (12, 24)])
    def test_matches_dense_oracle(self, config, n_theta, n_phi):
        assert_matches_oracle(config, build_sphere_grid(n_theta, n_phi, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        n_theta=st.integers(2, 8),
        n_phi=st.integers(4, 16),
        k=st.floats(0.1, 2.0),
        log_n=st.floats(-2.0, 2.0),
        log_a=st.floats(-1.0, 1.0),
        n_max=st.integers(1, 24),
    )
    def test_matches_dense_oracle_everywhere(self, n_theta, n_phi, k, log_n, log_a,
                                             n_max):
        config = LayeredCavityConfig(
            1.5, (Shell(2.5, 10.0**log_a, 10.0**log_n),), k, n_max)
        assert_matches_oracle(config, build_sphere_grid(n_theta, n_phi, 1.0))

    def test_memory_stays_near_the_output(self):
        # Past the matrix itself, the assembly holds a few block columns
        # (the products, their inverse DFT and its doubled copy for the
        # strided window), and no array of modes x nodes or second matrix.
        grid = build_sphere_grid(18, 36, 1.0)
        modes = solve_modes(REFERENCE)
        tracemalloc.start()
        try:
            entries = assemble_nearfield(modes, grid).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * entries.nbytes

    def test_file_grid_keeps_the_layout(self, matrix, tmp_path):
        path = tmp_path / "ring.nfem"
        write_nearfield(matrix, path)
        back, _ = read_nearfield(path)
        assert ring_size(back.grid) == 16
        assert np.array_equal(assemble_nearfield(solve_modes(BALL), back.grid).entries,
                              matrix.entries)


def gather_column(column, n_theta, n_phi):
    """The block-circulant matrix S[(a, p, l), (b, q, m)] =
    C[(a, (p - q) mod n_phi, l), (b, m)] of a block column C."""
    shift = (np.arange(n_phi)[:, None] - np.arange(n_phi)) % n_phi
    blocks = column.reshape(n_theta, n_phi, 2, n_theta, 2)[:, shift]
    return blocks.transpose(0, 1, 3, 4, 2, 5).reshape(column.shape[0], -1)


class TestReciprocityDefect:
    @pytest.mark.parametrize("n_theta, n_phi", [(2, 4), (5, 7), (8, 16)])
    def test_equals_dense_scan_on_assembled_data(self, n_theta, n_phi):
        m = assemble_nearfield(solve_modes(BALL), build_sphere_grid(n_theta, n_phi, 1.0))
        dense = np.max(np.abs(m.entries - m.entries.T))
        assert dense > 0
        assert reciprocity_defect(m) == dense

    @pytest.mark.parametrize("n_theta, n_phi", [(2, 4), (3, 5), (4, 8)])
    def test_equals_dense_scan_on_any_block_column(self, n_theta, n_phi):
        # A random block column is far from reciprocal, and its subtractions
        # are still the dense scan's.
        m = self.gathered(n_theta, n_phi)
        assert reciprocity_defect(m) == np.max(np.abs(m.entries - m.entries.T)) > 0.1

    def test_nan_entry_propagates(self):
        m = self.gathered(3, 5, at=(11, 4))
        assert np.isnan(np.max(np.abs(m.entries - m.entries.T)))
        assert np.isnan(reciprocity_defect(m))

    @pytest.mark.parametrize("n_theta, n_phi", [(2, 4), (3, 5), (4, 8)])
    def test_block_column_is_the_gathered_column(self, n_theta, n_phi):
        m = self.gathered(n_theta, n_phi)
        column = block_column(m)
        assert np.shares_memory(column, m.entries)
        assert np.array_equal(column.reshape(2 * n_theta * n_phi, -1),
                              self.gathered_column(n_theta, n_phi))

    @pytest.mark.parametrize("n_theta, n_phi", [(2, 4), (5, 7), (8, 16)])
    def test_reads_equal_dense_ones_on_assembled_data(self, n_theta, n_phi):
        grid = build_sphere_grid(n_theta, n_phi, 1.0)
        m = assemble_nearfield(solve_modes(BALL), grid)
        ref = assemble_nearfield(solve_modes(dataclasses.replace(BALL, n_max=BALL.n_max + 5)),
                                 grid)
        self.assert_reads_equal(m, ref)

    @pytest.mark.parametrize("at, value", [(None, 0), ((11, 4), np.nan), ((0, 5), np.inf),
                                           ((29, 0), -np.inf), ((7, 2), complex(0, np.inf))])
    def test_reads_equal_dense_ones_on_any_block_column(self, at, value):
        # With a non-finite entry planted, the finiteness test fails and the
        # max goes NaN or inf, on the column as on the dense matrix.
        m = self.gathered(3, 5, at=at, value=value)
        self.assert_reads_equal(m, self.gathered(3, 5, seed=1))
        assert np.all(np.isfinite(block_column(m))) == (at is None)

    @staticmethod
    def assert_reads_equal(m, ref):
        """Scale, finiteness and series difference: column reads == dense ones."""
        column, ref_column = block_column(m), block_column(ref)
        np.testing.assert_array_equal(np.max(np.abs(column)), np.max(np.abs(m.entries)))
        assert np.all(np.isfinite(column)) == np.all(np.isfinite(m.entries))
        np.testing.assert_array_equal(np.max(np.abs(ref_column - column)),
                                      np.max(np.abs(ref.entries - m.entries)))

    @staticmethod
    def gathered_column(n_theta, n_phi, seed=None, at=None, value=np.nan):
        rng = np.random.default_rng(n_theta * n_phi if seed is None else seed)
        shape = (2 * n_theta * n_phi, 2 * n_theta)
        column = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if at is not None:
            column[at] = value
        return column

    @classmethod
    def gathered(cls, n_theta, n_phi, **kwargs):
        column = cls.gathered_column(n_theta, n_phi, **kwargs)
        return NearFieldMatrix(grid=build_sphere_grid(n_theta, n_phi, 1.0),
                               entries=gather_column(column, n_theta, n_phi), k=BALL.k)


class TestSeriesTail:
    @pytest.mark.parametrize("n_theta, n_phi, n_max", [(6, 12, 12), (12, 24, 18), (18, 36, 34)])
    def test_matches_the_dense_difference(self, n_theta, n_phi, n_max):
        # Each degree is solved on its own, and here the R_n share a phase,
        # so the tail is max |C(n_max + 5) - C(n_max)| up to rounding:
        # 2.3e-13, 5.0e-12 and 1.8e-6 apart relative.  At n_max = 34 both read 1.8e-10 of the largest entry,
        # and the gap is about 3e-16 of it.
        grid = build_sphere_grid(n_theta, n_phi, 1.0)
        config = dataclasses.replace(BALL, n_max=n_max)
        ref = block_column(assemble_nearfield(solve_modes(dataclasses.replace(
            config, n_max=n_max + 5)), grid))
        diff = np.max(np.abs(ref - block_column(assemble_nearfield(solve_modes(config), grid))))
        assert series_tail(config, 1.0) == pytest.approx(diff, rel=1e-5, abs=0)

    @staticmethod
    def random_configs(seed, count):
        """(config, rho): k in [0.05, 4], one or two shells, rho/a in [0.2,
        0.9], n_max from 10 below to 2 above the derived order."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            k = rng.uniform(0.05, 4.0)
            radii = 1.0 + np.cumsum(rng.uniform(0.2, 1.0, size=rng.integers(1, 3)))
            shells = tuple(Shell(r, rng.uniform(0.5, 2.0), rng.uniform(0.5, 4.0)) for r in radii)
            rho = rng.uniform(0.2, 0.9)
            n_max = max(1, data_truncation_order(1.0, shells, k, rho) + int(rng.integers(-10, 3)))
            yield LayeredCavityConfig(1.0, shells, k, n_max), rho

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bounds_the_dense_difference(self):
        # The tail bounds every entry that the degrees past n_max add: their
        # contraction alone, and the difference of two assemblies up to the
        # rounding of the subtraction (at most 1.9e-15 of the largest entry
        # on 300 other seeded configs).  Both pass or fail DATA_SERIES_TOL together:
        # here 78 pass, 20 fail and 2 are NaN.
        for config, rho in self.random_configs(19, 100):
            grid = build_sphere_grid(4, 8, rho)
            top = dataclasses.replace(config, n_max=tail_order(config.n_max))
            coeffs = solve_modes(top)
            tail = series_tail(config, rho)
            if np.isnan(tail):
                assert not np.all(np.isfinite(coeffs.reflection[:, config.n_max:]))
                continue
            data = block_column(assemble_nearfield(solve_modes(config), grid))
            scale = np.max(np.abs(data))
            dense = np.max(np.abs(block_column(assemble_nearfield(coeffs, grid)) - data))
            coeffs.table[0, :, 0, :config.n_max] = 0  # R_n of the data's degrees
            alone = np.max(np.abs(block_column(assemble_nearfield(coeffs, grid))))
            assert alone <= tail * (1 + 1e-12)
            assert dense <= tail * (1 + 1e-12) + 1e-14 * scale
            assert (tail / scale < DATA_SERIES_TOL) == (dense / scale < DATA_SERIES_TOL)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_reflection_coefficient_makes_it_nan(self, monkeypatch):
        solve = forward.solve_modes

        def planted(config):
            coeffs = solve(config)
            coeffs.table[0, 1, 0, config.n_max - 2] = np.nan  # TM R_n, n = n_max - 1
            return coeffs

        monkeypatch.setattr(forward, "solve_modes", planted)
        assert np.isnan(series_tail(BALL, 1.0))

    @pytest.mark.filterwarnings("error")
    def test_nan_at_the_order_cap(self):
        # No degree above the cap is left to measure the tail with.
        config = dataclasses.replace(BALL, n_max=sf.ORDER_CAP)
        assert np.isnan(series_tail(config, 1.0))


class TestRingLayoutGuard:
    """A grid whose node a*n_phi + p is not at (theta_a, 2 pi p / n_phi) is
    refused: the cyclic fill would assemble a wrong matrix for it."""

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(32)))
    def test_permuted_nodes_rejected(self, order):
        grid = build_sphere_grid(4, 8, 1.0)
        order = np.array(order)
        if np.array_equal(order, np.arange(32)):
            assert ring_size(permuted(grid, order)) == 8
            return
        with pytest.raises(InvalidArgumentError, match="ring layout"):
            assemble_nearfield(solve_modes(BALL), permuted(grid, order))

    def test_phi_major_order_rejected(self, grid):
        order = np.arange(grid.n_nodes).reshape(8, 16).T.ravel()
        with pytest.raises(InvalidArgumentError, match="ring layout"):
            assemble_nearfield(solve_modes(BALL), permuted(grid, order))

    @pytest.mark.parametrize("phi_1d", [
        2 * np.pi * np.arange(8) / 8 + 0.1,  # uniform, but not from 0
        2 * np.pi * (np.arange(8) / 8) ** 1.2,  # from 0, not uniform
        2 * np.pi * np.arange(8) / 9,  # uniform from 0, one gap left over
        np.r_[2 * np.pi * np.arange(7) / 8, 2 * np.pi * 7 / 8 + 1e-12],
    ], ids=["rotated", "stretched", "short_ring", "one_node_off"])
    def test_non_uniform_phi_rejected(self, phi_1d):
        theta_1d = np.arccos(np.polynomial.legendre.leggauss(4)[0])
        grid = grid_at(np.repeat(theta_1d, 8), np.tile(phi_1d, 4))
        with pytest.raises(InvalidArgumentError, match="ring layout"):
            assemble_nearfield(solve_modes(BALL), grid)

    def test_uneven_rings_rejected(self):
        theta_1d = np.arccos(np.polynomial.legendre.leggauss(3)[0])
        theta = np.r_[np.repeat(theta_1d[:2], 8), np.full(4, theta_1d[2])]
        phi = np.r_[np.tile(2 * np.pi * np.arange(8) / 8, 2), 2 * np.pi * np.arange(4) / 4]
        with pytest.raises(InvalidArgumentError, match="ring layout"):
            assemble_nearfield(solve_modes(BALL), grid_at(theta, phi))

    def test_rebuilt_ring_grid_accepted(self, grid, matrix):
        # grid_at itself keeps a ring grid in the layout.
        same = grid_at(grid.theta, grid.phi)
        assert np.array_equal(assemble_nearfield(solve_modes(BALL), same).entries, matrix.entries)


class TestNoise:
    def test_deterministic_per_seed(self, matrix):
        a = add_noise(matrix, NoiseSpec(0.02, 11))
        b = add_noise(matrix, NoiseSpec(0.02, 11))
        c = add_noise(matrix, NoiseSpec(0.02, 12))
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    @pytest.mark.parametrize("n_theta, n_phi", [(5, 7), (6, 12)])
    def test_product_is_factor_times_entries(self, n_theta, n_phi):
        # numpy's complex multiply rounds a b and b a differently; the noisy
        # entries are factor x entries at every size, below numpy's 256 KiB
        # temporary elision (5x7) and above it (6x12), and drawing the factor
        # ahead gives the same bits.
        clean = assemble_nearfield(solve_modes(BALL), build_sphere_grid(n_theta, n_phi, 1.0))
        spec = NoiseSpec(0.02, 7)
        want = noise_factor(clean.entries.shape, spec) * clean.entries
        assert np.array_equal(add_noise(clean, spec).entries, want)
        drawn = noise_factor(clean.entries.shape, spec)
        assert np.array_equal(add_noise(clean, spec, drawn).entries, want)

    @pytest.mark.parametrize("shape, level, seed", [
        ((70, 70), 0.02, 7), ((144, 144), 0.3, 11), ((1296, 1296), 0.02, 7), ((9, 4), 1e-300, 3),
    ])
    def test_factor_matches_the_complex_expression(self, shape, level, seed):
        # The factor is formed part by part, bit for bit as numpy forms it
        # from a complex zeta.
        rng = np.random.default_rng(seed)
        zeta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = 1.0 + level * zeta / np.sqrt(2.0)
        got = noise_factor(shape, NoiseSpec(level, seed))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_level_is_identity(self, matrix):
        assert add_noise(matrix, NoiseSpec(0.0, 11)).entries is matrix.entries

    def test_relative_level_concentrates(self, matrix):
        # ||E_noisy - E|| / ||E|| estimates h; over many seeds the estimate
        # stays in a narrow band around the nominal level.
        h = 0.02
        base = np.linalg.norm(matrix.entries)
        levels = []
        for seed in range(200):
            noisy = add_noise(matrix, NoiseSpec(h, seed))
            levels.append(np.linalg.norm(noisy.entries - matrix.entries) / base)
        levels = np.array(levels)
        assert np.mean((levels > 0.015) & (levels < 0.025)) >= 0.99

    def test_mean_preserving(self, matrix):
        # E[noisy] = clean: averaging many independent noisy copies recovers
        # the clean matrix to within 3 standard errors.
        h, k_copies = 0.05, 400
        acc = np.zeros_like(matrix.entries)
        for seed in range(k_copies):
            acc += add_noise(matrix, NoiseSpec(h, seed)).entries
        acc /= k_copies
        err = np.linalg.norm(acc - matrix.entries)
        se = h * np.linalg.norm(matrix.entries) / np.sqrt(k_copies)
        assert err < 3 * se

    def test_negative_level_rejected(self):
        # So is a level that is not finite, which would make every entry NaN.
        for level in (-0.01, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError):
                NoiseSpec(level, 0)


def _oracle_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            crc = ((crc << 1) ^ 0x42F0E1EBA9EA3693 if crc & (1 << 63) else crc << 1)
            crc &= 0xFFFFFFFFFFFFFFFF
        table.append(crc)
    return table


_ORACLE_TABLE = _oracle_table()


def crc64_oracle(data: bytes) -> int:
    """Byte-at-a-time CRC-64/ECMA-182: init 0, unreflected, no final xor."""
    crc = 0
    for b in data:
        crc = ((crc << 8) & 0xFFFFFFFFFFFFFFFF) ^ _ORACLE_TABLE[((crc >> 56) ^ b) & 0xFF]
    return crc


def crc64_lanes_oracle(data) -> int:
    """The byte-wide lane CRC-64 that the word-wide kernel replaced: about
    2 sqrt(n) lanes (at most 16384) advance one byte column per table step,
    and a per-lane Horner loop over the byte tables of the zero-lane
    operator folds them.  Fast enough for the benchmark's payload sizes."""
    table = np.array(_ORACLE_TABLE, dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    n = raw.size
    lanes = min(16384, max(1, 2 * math.isqrt(n)))
    width = -(-n // lanes)
    block = np.zeros((lanes + 64, width), dtype=np.uint8)
    block.reshape(-1)[lanes * width - n : lanes * width] = raw
    crc = np.zeros(lanes + 64, dtype="<u8")
    crc[lanes:] = np.uint64(1) << np.arange(64, dtype=np.uint64)
    top = crc.view(np.uint8)[7::8]
    index = np.empty(crc.size, dtype=np.intp)
    step = np.empty_like(crc)
    for column in block.T:
        np.bitwise_xor(top, column, out=index, casting="unsafe")
        np.take(table, index, out=step)
        np.left_shift(crc, np.uint64(8), out=crc)
        np.bitwise_xor(crc, step, out=crc)
    basis = crc[lanes:].reshape(8, 8)
    ops = np.zeros((8, 1), dtype=np.uint64)
    for bit in range(8):
        ops = np.concatenate([ops, ops ^ basis[:, bit : bit + 1]], axis=1)
    ops = ops.tolist()
    total = 0
    for lane_crc in crc[:lanes].tolist():
        shifted = lane_crc
        for k in range(8):
            shifted ^= ops[k][(total >> (8 * k)) & 0xFF]
        total = shifted
    return total


def _lane_rule_steps(top: int, shift: int) -> list[int]:
    """Lengths at -1, 0 and +1 around the steps of the lane rule
    2^min(top, bit_length(n) // 2 + shift) lanes of whole 64-bit words.  The
    lane count doubles to 2^j at n = 2^(2 (j - shift) - 1), and the lane
    width crosses a multiple of 8 bytes where n is a multiple of 8 lanes:
    the first and the last such n at each lane count, and the first two past
    the last doubling."""
    lengths = set()
    for j in range(shift + 1, top + 1):
        lanes = 1 << j
        first = 1 << (2 * (j - shift) - 1)
        end = 1 << (2 * (j - shift) + 1) if j < top else first + 3 * 8 * lanes
        tiles = [t for t in range(8 * lanes, end, 8 * lanes) if t > first]
        for n in [first] + tiles[:1] + tiles[-1:]:
            lengths.update((n - 1, n, n + 1))
    return sorted(lengths)


class TestCrc64:
    def test_oracle_check_value(self):
        assert crc64_oracle(b"123456789") == 0x6C40DF5F0B497347

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=5000))
    def test_matches_oracle(self, data):
        assert crc64(data) == crc64_oracle(data)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 80), st.integers(-1, 1), st.data())
    def test_matches_oracle_at_lane_boundaries(self, root, offset, draw):
        # The lane count steps at perfect squares, and at even squares the
        # lanes tile the input exactly; probe each and its neighbours.
        n = max(0, root * root + offset)
        data = draw.draw(st.binary(min_size=n, max_size=n))
        assert crc64(data) == crc64_oracle(data)
        assert crc64(memoryview(data)) == crc64_oracle(data)

    def test_megabyte_buffer(self):
        data = np.random.default_rng(3).bytes(1 << 20)
        assert crc64(data) == crc64_oracle(data)

    def test_lanes_oracle_matches_oracle(self):
        data = np.random.default_rng(4).bytes(1 << 20)
        assert crc64_lanes_oracle(data) == crc64_oracle(data)

    # crc64's rule, 2^min(14, bit_length(n) // 2 + 2) lanes, and the steps of
    # the 2^min(12, bit_length(n) // 2) rule before it, kept as more lengths.
    @pytest.mark.parametrize(
        "n", sorted(set(_lane_rule_steps(14, 2)) | set(_lane_rule_steps(12, 0))))
    def test_matches_lanes_oracle_around_lane_rule_steps(self, n):
        data = np.random.default_rng(n).bytes(n)
        assert crc64(data) == crc64_lanes_oracle(data)

    # NFEM1 payloads of the benchmark's two grids: 18 x 36 and 12 x 24 nodes.
    @pytest.mark.parametrize("n", [26_889_445, 5_315_365], ids=["n648", "n288"])
    def test_benchmark_payload_sizes(self, n):
        data = np.random.default_rng(n).bytes(n)
        assert crc64(data) == crc64_lanes_oracle(data)

    def test_table16_matches_bit_loop(self):
        # The register after each 16-bit value at the top is shifted
        # through 16 zero bits, one bit at a time.
        table = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
        for _ in range(16):
            carry = np.where(table >> np.uint64(63), np.uint64(0x42F0E1EBA9EA3693),
                             np.uint64(0))
            table = (table << np.uint64(1)) ^ carry
        assert np.array_equal(measurement._CRC_TABLE16, table)


class TestFileFormat:
    def test_crc64_check_value(self):
        # Standard CRC-64/ECMA-182 check value for "123456789".
        assert crc64(b"123456789") == 0x6C40DF5F0B497347

    def test_roundtrip_bitwise(self, matrix, tmp_path):
        path = tmp_path / "data.nfem"
        noisy = add_noise(matrix, NoiseSpec(0.02, 5))
        write_nearfield(noisy, path)
        back, k = read_nearfield(path)
        assert k == BALL.k
        assert np.array_equal(back.entries, noisy.entries)
        assert np.array_equal(back.grid.nodes, noisy.grid.nodes)
        assert np.array_equal(back.grid.weights, noisy.grid.weights)
        assert back.noise_level == 0.02 and back.seed == 5
        # Writing the read-back matrix reproduces the file byte for byte.
        path2 = tmp_path / "data2.nfem"
        write_nearfield(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_roundtrip_clean(self, matrix, tmp_path):
        # A clean matrix reads back as written: level 0, no seed.
        path = tmp_path / "clean.nfem"
        write_nearfield(matrix, path)
        back, _ = read_nearfield(path)
        assert np.array_equal(back.entries, matrix.entries)
        assert (back.noise_level, back.seed) == (0.0, None)
        path2 = tmp_path / "clean2.nfem"
        write_nearfield(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("noise", [None, NoiseSpec(0.02, 5)], ids=["clean", "noisy"])
    def test_bytes_match_layout(self, matrix, tmp_path, noise):
        # The file is the documented layout, built here piece by piece, with
        # the byte-at-a-time CRC of the payload.
        m = matrix if noise is None else add_noise(matrix, noise)
        path = tmp_path / "layout.nfem"
        write_nearfield(m, path)
        g = m.grid
        payload = (
            HEADER.pack(BALL.k, g.radius, g.n_nodes, int(noise is not None), m.noise_level,
                        m.seed if m.seed is not None else 0)
            + np.stack([g.theta, g.phi, g.weights], axis=1).astype("<f8").tobytes()
            + m.entries.astype("<c16").tobytes()
        )
        assert path.read_bytes() == MAGIC + payload + struct.pack("<Q", crc64_oracle(payload))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nfem"
        path.write_bytes(b"GARBAGE" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="bad magic"):
            read_nearfield(path)

    def test_truncation_detected(self, matrix, tmp_path):
        path = tmp_path / "trunc.nfem"
        write_nearfield(matrix, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataFormatError, match="CRC-64 mismatch"):
            read_nearfield(path)

    def test_corruption_detected(self, matrix, tmp_path):
        path = tmp_path / "flip.nfem"
        write_nearfield(matrix, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="CRC-64 mismatch"):
            read_nearfield(path)

    def test_dimension_mismatch_detected(self, matrix, tmp_path):
        path = tmp_path / "dim.nfem"
        write_nearfield(matrix, path)
        blob = bytearray(path.read_bytes())
        # Overstate the node count in the header, then fix the CRC so the
        # size check (not the checksum) reports the problem.
        magic_len = 6
        n_off = magic_len + 16
        struct.pack_into("<I", blob, n_off, matrix.grid.n_nodes + 1)
        payload = bytes(blob[magic_len:-8])
        struct.pack_into("<Q", blob, len(blob) - 8, crc64(payload))
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="payload has"):
            read_nearfield(path)

    def test_non_finite_entries_refused(self, matrix, tmp_path):
        path = tmp_path / "nan.nfem"
        entries = matrix.entries.copy()
        entries[1, 2] = np.inf
        bad = NearFieldMatrix(grid=matrix.grid, entries=entries, k=BALL.k)
        with pytest.raises(DataFormatError, match="non-finite"):
            write_nearfield(bad, path)
        assert not path.exists()

    def test_read_returns_the_written_k(self, matrix, tmp_path):
        # The matrix carries its wavenumber from the assembly through the
        # noise, the file and back; the pair's second item repeats it.
        assert add_noise(matrix, NoiseSpec(0.02, 5)).k == matrix.k == BALL.k
        k = float(np.nextafter(BALL.k, 1.0))
        path = tmp_path / "k.nfem"
        write_nearfield(dataclasses.replace(matrix, k=k), path)
        back, k_back = read_nearfield(path)
        assert struct.pack("<dd", back.k, k_back) == struct.pack("<dd", k, k)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_checked_in_constructor(self, matrix, k):
        with pytest.raises(InvalidArgumentError, match="wavenumber must be positive"):
            NearFieldMatrix(grid=matrix.grid, entries=matrix.entries, k=k)

    def test_entries_shape_validated(self, grid):
        with pytest.raises(DataFormatError, match="does not match grid size"):
            NearFieldMatrix(grid=grid, entries=np.zeros((4, 4), dtype=complex), k=BALL.k)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """A valid NFEM1 file of a 2 x 4 grid (8 nodes, 16 x 16 entries), its
    bytes, and a config whose wavenumber matches it."""
    root = tmp_path_factory.mktemp("corrupt")
    rng = np.random.default_rng(11)
    entries = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    write_nearfield(NearFieldMatrix(build_sphere_grid(2, 4, 1.0), entries, 0.75),
                    root / "small.nfem")
    (root / "run.ini").write_text(default_config_text())
    return root, (root / "small.nfem").read_bytes()


# Byte ranges of an NFEM1 file: magic, header ("<ddIBdQ"), payload, trailer.
_REGIONS = ("magic", "header", "payload", "trailer")


def _region_bounds(size):
    return {"magic": (0, 6), "header": (6, 43), "payload": (43, size - 8),
            "trailer": (size - 8, size)}


def assert_rejected(root, blob):
    """read_nearfield raises a DataFormatError subclass on the bytes, and
    nfem reconstruct exits 3 with one error line and no traceback."""
    path = root / "bad.nfem"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError):
        read_nearfield(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["reconstruct", "--data", str(path), "--config",
                     str(root / "run.ini"), "--out", str(root / "out")])
    assert code == 3
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestCorruption:
    def test_small_file_is_valid(self, small_file):
        root, blob = small_file
        assert len(blob) == 43 + 8 * 3 * 8 + 16 * 16 * 16 + 8
        (root / "ok.nfem").write_bytes(blob)
        matrix, k = read_nearfield(root / "ok.nfem")
        assert k == 0.75 and matrix.entries.shape == (16, 16)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_REGIONS), st.data())
    def test_truncation_at_any_length_rejected(self, small_file, region, data):
        root, blob = small_file
        lo, hi = _region_bounds(len(blob))[region]
        assert_rejected(root, blob[: data.draw(st.integers(lo, hi - 1))])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_REGIONS), st.data())
    def test_any_single_bit_flip_rejected(self, small_file, region, data):
        root, blob = small_file
        lo, hi = _region_bounds(len(blob))[region]
        flipped = bytearray(blob)
        flipped[data.draw(st.integers(lo, hi - 1))] ^= 1 << data.draw(st.integers(0, 7))
        assert_rejected(root, bytes(flipped))
