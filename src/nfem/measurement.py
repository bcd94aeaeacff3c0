"""Measurement geometry on the sphere, near-field matrix assembly, noise
injection, and the NFEM1 near-field data file format.

The raw sample matrix stores

    S[(i, l), (j, m)] = e_m(y_j) . E_s(x_i, y_j, e_l(x_i)),

with row index (i, l) and column index (j, m) laid out row-major (point index
outer, tangent index inner).  Quadrature weights live in the grid and are
applied by the solver, which keeps the raw samples reciprocity-symmetric and
the file format solver-agnostic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import specialfun as sf
from .errors import (
    ChecksumError,
    DataFormatError,
    DimensionMismatchError,
    InvalidArgumentError,
    MalformedHeaderError,
)
from .forward import LayeredCavityConfig, ModeCoefficients, solve_modes
from .green import check_wavenumber

MAGIC = b"NFEM1\x00"
# k, measurement radius, node count, noisy flag, noise level, noise seed.
HEADER = struct.Struct("<ddIBdQ")


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes, weights, and orthonormal tangent frames on a sphere.

    ``e1``/``e2`` are the unit vectors of increasing theta/phi and ``normal``
    is the outward radial direction, so e1 x e2 = normal at every node.
    """

    radius: float
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    nodes: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    normal: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def _grid_from_angles(theta: np.ndarray, phi: np.ndarray, weights: np.ndarray,
                      radius: float) -> SphereGrid:
    """Shared constructor so files round-trip bitwise identical grids."""
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    sin_p, cos_p = np.sin(phi), np.cos(phi)
    normal = np.stack([sin_t * cos_p, sin_t * sin_p, cos_t], axis=1)
    e1 = np.stack([cos_t * cos_p, cos_t * sin_p, -sin_t], axis=1)
    e2 = np.stack([-sin_p, cos_p, np.zeros_like(phi)], axis=1)
    return SphereGrid(
        radius=float(radius),
        theta=theta,
        phi=phi,
        weights=weights,
        nodes=radius * normal,
        e1=e1,
        e2=e2,
        normal=normal,
    )


def build_sphere_grid(n_theta: int, n_phi: int, radius: float) -> SphereGrid:
    """Gauss-Legendre nodes in cos(theta) crossed with a uniform phi grid.

    Weights are (GL weight) * (2 pi / n_phi) * radius^2, so constants integrate
    to the exact sphere area and smooth integrands converge spectrally.  GL
    nodes keep every point off the poles, where the phi tangent is undefined.
    """
    if n_theta < 2 or n_phi < 4:
        raise InvalidArgumentError("need n_theta >= 2 and n_phi >= 4")
    if radius <= 0:
        raise InvalidArgumentError("grid radius must be positive")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(x)
    phi_1d = 2 * np.pi * np.arange(n_phi) / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(w, n_phi) * (2 * np.pi / n_phi) * radius**2
    return _grid_from_angles(theta, phi, weights, radius)


@dataclass(frozen=True)
class NearFieldMatrix:
    """2n x 2n complex matrix of tangential scattered-field samples."""

    grid: SphereGrid
    entries: np.ndarray
    noisy: bool = False
    noise_level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        n2 = 2 * self.grid.n_nodes
        if self.entries.shape != (n2, n2):
            raise DimensionMismatchError(
                f"entries shape {self.entries.shape} does not match grid size {n2}"
            )


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and generator seed."""

    level: float
    seed: int

    def __post_init__(self):
        if self.level < 0:
            raise InvalidArgumentError("noise level must be nonnegative")


def tangential_projections(
    grid: SphereGrid, k: float, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """P[mode, (i, l)] = (regular VSWF at node i) . e_l(node i), both families."""
    m1, n1 = sf.vswf_fields(grid.nodes, k, n_max, 1)
    frames = np.stack([grid.e1, grid.e2], axis=1)  # (n, 2, 3)
    p_te = np.einsum("qij,ilj->qil", m1, frames).reshape(m1.shape[0], -1)
    p_tm = np.einsum("qij,ilj->qil", n1, frames).reshape(n1.shape[0], -1)
    return p_te, p_tm


def assemble_nearfield(
    config: LayeredCavityConfig,
    grid: SphereGrid,
    coeffs: ModeCoefficients | None = None,
) -> NearFieldMatrix:
    """Sample the scattered field for every source/receiver node pair.

    Sources and receivers share the grid, so with c_nm the dipole expansion
    coefficients the whole matrix reduces to two dense mode contractions
    S = -k^2 (P_TE^T R_TE conj(P_TE) + P_TM^T R_TM conj(P_TM)).
    """
    if grid.radius >= config.cavity_radius:
        raise InvalidArgumentError(
            "measurement sphere must lie strictly inside the cavity"
        )
    if coeffs is None:
        coeffs = solve_modes(config)
    deg = sf.mode_degrees(config.n_max)
    p_te, p_tm = tangential_projections(grid, config.k, config.n_max)
    r_te, r_tm = coeffs.reflection[:, deg - 1]
    # Degrees whose R_n overflowed make the entries NaN, which the NFEM1
    # writer and selfcheck report; the warnings on the way say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = -(config.k**2) * (
            p_te.T @ (r_te[:, None] * np.conj(p_te))
            + p_tm.T @ (r_tm[:, None] * np.conj(p_tm))
        )
    return NearFieldMatrix(grid=grid, entries=entries)


def add_noise(matrix: NearFieldMatrix, spec: NoiseSpec) -> NearFieldMatrix:
    """Multiplicative per-entry complex Gaussian noise at relative level h."""
    if spec.level == 0:
        return matrix
    rng = np.random.default_rng(spec.seed)
    shape = matrix.entries.shape
    zeta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    entries = matrix.entries * (1.0 + spec.level * zeta / np.sqrt(2.0))
    return replace(
        matrix, entries=entries, noisy=True, noise_level=spec.level, seed=spec.seed
    )


# CRC-64/ECMA-182 of the payload guards against truncation and bit rot:
# polynomial 0x42F0E1EBA9EA3693, init 0, unreflected, no final xor.
_CRC64_POLY = 0x42F0E1EBA9EA3693
# Cap on the lanes crc64 advances side by side, which bounds its lane state
# whatever the payload size.
_CRC64_MAX_LANES = 16384


def _crc64_table() -> np.ndarray:
    """Register after each top-byte value is shifted through 8 zero bits."""
    table = np.arange(256, dtype=np.uint64) << np.uint64(56)
    for _ in range(8):
        carry = np.where(table >> np.uint64(63), np.uint64(_CRC64_POLY), np.uint64(0))
        table = (table << np.uint64(1)) ^ carry
    return table


_CRC_TABLE = _crc64_table()


def crc64(data: bytes | memoryview) -> int:
    """CRC-64/ECMA-182 of a bytes-like object.

    The input is left-padded with zero bytes, which leaves a CRC with init 0
    unchanged, and cut into equal lanes that advance together, one byte
    column per table step.  64 extra lanes start at the unit registers and
    see only zeros, so they end as the columns of the operator that carries
    a CRC across one lane of zero bytes.  Byte tables of that operator fold
    the lane CRCs into one, as zlib's crc32_combine does.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n = raw.size
    # About 2 sqrt(n) lanes balances the per-step cost of the numpy calls
    # against the per-lane cost of the fold.
    lanes = min(_CRC64_MAX_LANES, max(1, 2 * math.isqrt(n)))
    width = -(-n // lanes)
    block = np.zeros((lanes + 64, width), dtype=np.uint8)
    block.reshape(-1)[lanes * width - n : lanes * width] = raw
    # Little-endian words, so byte 7 of each is the register's top byte.
    crc = np.zeros(lanes + 64, dtype="<u8")
    crc[lanes:] = np.uint64(1) << np.arange(64, dtype=np.uint64)
    top = crc.view(np.uint8)[7::8]
    index = np.empty(crc.size, dtype=np.intp)
    step = np.empty_like(crc)
    for column in block.T:
        np.bitwise_xor(top, column, out=index, casting="unsafe")
        np.take(_CRC_TABLE, index, out=step)
        np.left_shift(crc, np.uint64(8), out=crc)
        np.bitwise_xor(crc, step, out=crc)
    # ops[k][v]: the operator applied to byte value v at bits 8k..8k+7.
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


def write_nearfield(matrix: NearFieldMatrix, path, k: float) -> None:
    """Write the NFEM1 binary format (little-endian, CRC-64 trailer) once the
    matrix passes its checks, creating the parent directory."""
    check_wavenumber(k)
    if not np.all(np.isfinite(matrix.entries)):
        raise DataFormatError(f"{path}: refusing to write non-finite matrix entries")
    grid = matrix.grid
    n = grid.n_nodes
    header = HEADER.pack(
        float(k),
        float(grid.radius),
        n,
        1 if matrix.noisy else 0,
        float(matrix.noise_level),
        matrix.seed if matrix.seed is not None else 0,
    )
    nodes = np.stack([grid.theta, grid.phi, grid.weights], axis=1)
    payload = (
        header
        + nodes.astype("<f8").tobytes()
        + matrix.entries.astype("<c16").tobytes()
    )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(payload)
        f.write(struct.pack("<Q", crc64(payload)))


def read_nearfield(path) -> tuple[NearFieldMatrix, float]:
    """Read an NFEM1 file; returns (matrix, wavenumber)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise MalformedHeaderError(f"{path}: bad magic, not an NFEM1 file")
    if len(blob) < len(MAGIC) + HEADER.size + 8:
        raise MalformedHeaderError(f"{path}: file shorter than header")
    payload, trailer = memoryview(blob)[len(MAGIC) : -8], blob[-8:]
    (stored_crc,) = struct.unpack("<Q", trailer)
    if crc64(payload) != stored_crc:
        raise ChecksumError(f"{path}: CRC-64 mismatch, file truncated or corrupted")
    k, radius, n, noisy, level, seed = HEADER.unpack_from(payload)
    if not (np.isfinite(k) and k > 0 and np.isfinite(radius) and radius > 0 and n > 0):
        raise MalformedHeaderError(f"{path}: invalid header values k={k}, rho={radius}")
    expected = HEADER.size + n * 3 * 8 + (2 * n) * (2 * n) * 16
    if len(payload) != expected:
        raise DimensionMismatchError(
            f"{path}: payload has {len(payload)} bytes, expected {expected} for n={n}"
        )
    nodes = np.frombuffer(payload, dtype="<f8", count=3 * n, offset=HEADER.size)
    nodes = nodes.reshape(n, 3)
    entries = np.frombuffer(
        payload, dtype="<c16", count=4 * n * n, offset=HEADER.size + n * 3 * 8
    ).reshape(2 * n, 2 * n)
    if not np.all(np.isfinite(entries)):
        raise DataFormatError(f"{path}: non-finite matrix entries")
    grid = _grid_from_angles(
        nodes[:, 0].copy(), nodes[:, 1].copy(), nodes[:, 2].copy(), radius
    )
    matrix = NearFieldMatrix(
        grid=grid,
        entries=entries.copy(),
        noisy=bool(noisy),
        noise_level=level,
        seed=seed if noisy else None,
    )
    return matrix, float(k)


def write_manifest(path, pairs: dict) -> None:
    """Sidecar provenance manifest, plain key = value lines."""
    with open(path, "w") as f:
        for key, value in pairs.items():
            f.write(f"{key} = {value}\n")
