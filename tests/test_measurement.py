"""Sphere quadrature, near-field matrix assembly, noise model, and the
binary data format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfem.errors import (
    ChecksumError,
    DataFormatError,
    DimensionMismatchError,
    InvalidArgumentError,
    MalformedHeaderError,
)
from nfem.forward import LayeredCavityConfig, Shell, scattered_field, solve_modes
from nfem.measurement import (
    NearFieldMatrix,
    NoiseSpec,
    add_noise,
    assemble_nearfield,
    build_sphere_grid,
    crc64,
    read_nearfield,
    write_nearfield,
)

BALL = LayeredCavityConfig(
    cavity_radius=1.5, shells=(Shell(2.5, 1.0, 2.0),), k=0.75, n_max=16
)


@pytest.fixture(scope="module")
def grid():
    return build_sphere_grid(8, 16, 1.0)


@pytest.fixture(scope="module")
def matrix(grid):
    return assemble_nearfield(BALL, grid)


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
        for a, b in [(grid.e1, grid.e1), (grid.e2, grid.e2), (grid.normal, grid.normal)]:
            assert np.allclose(np.einsum("ij,ij->i", a, b), 1.0, atol=1e-14)
        assert np.allclose(np.einsum("ij,ij->i", grid.e1, grid.e2), 0.0, atol=1e-14)
        assert np.allclose(np.cross(grid.e1, grid.e2), grid.normal, atol=1e-14)

    def test_nodes_off_poles(self, grid):
        assert np.all(np.sin(grid.theta) > 1e-3)

    def test_bad_sizes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_sphere_grid(1, 16, 1.0)
        with pytest.raises(InvalidArgumentError):
            build_sphere_grid(8, 16, -1.0)


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
        field = scattered_field(y_j, x_i, e_l, BALL, coeffs)
        want = e_m @ field
        got = matrix.entries[2 * i + ell, 2 * j + m]
        assert got == pytest.approx(want, rel=1e-10)

    def test_vacuum_configuration_is_null(self, grid, matrix):
        vac = LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 1.0),), 0.75, 16)
        null = assemble_nearfield(vac, grid)
        assert np.linalg.norm(null.entries) == 0.0
        assert np.linalg.norm(matrix.entries) > 0.0

    def test_resolution_refinement_stable(self):
        # Top singular values are grid-converged: refining the quadrature
        # changes them by under 1 percent.
        # Symmetrically weighted samples sqrt(w_i) S_ij sqrt(w_j) discretize
        # the operator so its singular values are grid-convergent.
        def top_singular(n_t, n_p):
            g = build_sphere_grid(n_t, n_p, 1.0)
            m = assemble_nearfield(BALL, g)
            sw = np.sqrt(np.repeat(g.weights, 2))
            a = sw[:, None] * m.entries * sw[None, :]
            return np.linalg.svd(a, compute_uv=False)[:10]

        coarse = top_singular(8, 16)
        fine = top_singular(12, 24)
        assert np.max(np.abs(coarse - fine) / fine) < 0.01

    def test_grid_outside_cavity_rejected(self):
        g = build_sphere_grid(4, 8, 2.0)
        with pytest.raises(InvalidArgumentError):
            assemble_nearfield(BALL, g)


class TestNoise:
    def test_deterministic_per_seed(self, matrix):
        a = add_noise(matrix, NoiseSpec(0.02, 11))
        b = add_noise(matrix, NoiseSpec(0.02, 11))
        c = add_noise(matrix, NoiseSpec(0.02, 12))
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

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
        with pytest.raises(InvalidArgumentError):
            NoiseSpec(-0.01, 0)


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


class TestFileFormat:
    def test_crc64_check_value(self):
        # Standard CRC-64/ECMA-182 check value for "123456789".
        assert crc64(b"123456789") == 0x6C40DF5F0B497347

    def test_roundtrip_bitwise(self, matrix, tmp_path):
        path = tmp_path / "data.nfem"
        noisy = add_noise(matrix, NoiseSpec(0.02, 5))
        write_nearfield(noisy, path, BALL.k)
        back, k = read_nearfield(path)
        assert k == BALL.k
        assert np.array_equal(back.entries, noisy.entries)
        assert np.array_equal(back.grid.nodes, noisy.grid.nodes)
        assert np.array_equal(back.grid.weights, noisy.grid.weights)
        assert back.noisy and back.noise_level == 0.02 and back.seed == 5
        # Writing the read-back matrix reproduces the file byte for byte.
        path2 = tmp_path / "data2.nfem"
        write_nearfield(back, path2, k)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nfem"
        path.write_bytes(b"GARBAGE" + b"\x00" * 64)
        with pytest.raises(MalformedHeaderError):
            read_nearfield(path)

    def test_truncation_detected(self, matrix, tmp_path):
        path = tmp_path / "trunc.nfem"
        write_nearfield(matrix, path, BALL.k)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumError):
            read_nearfield(path)

    def test_corruption_detected(self, matrix, tmp_path):
        path = tmp_path / "flip.nfem"
        write_nearfield(matrix, path, BALL.k)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            read_nearfield(path)

    def test_dimension_mismatch_detected(self, matrix, tmp_path):
        import struct

        path = tmp_path / "dim.nfem"
        write_nearfield(matrix, path, BALL.k)
        blob = bytearray(path.read_bytes())
        # Overstate the node count in the header, then fix the CRC so the
        # size check (not the checksum) reports the problem.
        magic_len = 6
        n_off = magic_len + 16
        struct.pack_into("<I", blob, n_off, matrix.grid.n_nodes + 1)
        payload = bytes(blob[magic_len:-8])
        struct.pack_into("<Q", blob, len(blob) - 8, crc64(payload))
        path.write_bytes(bytes(blob))
        with pytest.raises(DimensionMismatchError):
            read_nearfield(path)

    def test_non_finite_entries_refused(self, matrix, tmp_path):
        path = tmp_path / "nan.nfem"
        entries = matrix.entries.copy()
        entries[1, 2] = np.inf
        bad = NearFieldMatrix(grid=matrix.grid, entries=entries)
        with pytest.raises(DataFormatError, match="non-finite"):
            write_nearfield(bad, path, BALL.k)
        assert not path.exists()

    def test_entries_shape_validated(self, grid):
        with pytest.raises(DimensionMismatchError):
            NearFieldMatrix(grid=grid, entries=np.zeros((4, 4), dtype=complex))
