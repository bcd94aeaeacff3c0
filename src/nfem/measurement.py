"""Measurement geometry on the sphere, near-field matrix assembly, noise
injection, and the NFEM1 near-field data file format.

The raw sample matrix stores

    S[(i, l), (j, m)] = e_m(y_j) . E_s(x_i, y_j, e_l(x_i)),

with row index (i, l) and column index (j, m) laid out row-major (point index
outer, tangent index inner).  Quadrature weights live in the grid and are
applied by the solver, which keeps the raw samples reciprocity-symmetric and
the file format solver-agnostic.

The grid is a ring grid: node a n_phi + p sits at theta_a and
phi_p = 2 pi p / n_phi.  The layered cavity is spherically symmetric, so a
rotation about the z axis by phi_q maps the grid onto itself and S is
block-circulant in phi (its entries depend on the phi indices only through
(p - q) mod n_phi), hence block-diagonal in the azimuthal Fourier basis.
The assembly forms one product per residue of the azimuthal order mod n_phi
from the wavefunctions on the phi = 0 meridian, turns them into the columns
at phi_q = 0 by one inverse DFT, and copies the whole matrix once out of a
strided window over that column.  Its entries match the dense mode
contraction to 1e-13 of the largest entry.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import specialfun as sf
from .errors import DataFormatError, InvalidArgumentError
from .forward import ModeCoefficients
from .green import check_wavenumber

MAGIC = b"NFEM1\x00"
# k, measurement radius, node count, noisy flag, noise level, noise seed.
HEADER = struct.Struct("<ddIBdQ")


# Most nodes a measurement grid may hold.  The near-field matrix takes 64 n^2
# bytes, 1.07 GB at the cap, and `simulate` peaks at about 4.8 times that.
MAX_SPHERE_NODES = 4096


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes, weights, and orthonormal tangent frames on a sphere.

    ``e1``/``e2`` are the unit vectors of increasing theta/phi, so e1 x e2 is
    the outward normal nodes / radius at every node.
    """

    radius: float
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    nodes: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

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
    )


def build_sphere_grid(n_theta: int, n_phi: int, radius: float) -> SphereGrid:
    """Gauss-Legendre nodes in cos(theta) crossed with a uniform phi grid.

    Weights are (GL weight) * (2 pi / n_phi) * radius^2, so constants integrate
    to the exact sphere area and smooth integrands converge spectrally.  GL
    nodes keep every point off the poles, where the phi tangent is undefined.
    More than ``MAX_SPHERE_NODES`` nodes raise InvalidArgumentError before
    anything is allocated, and so does a radius whose square, in the
    weights, would leave the double range.
    """
    if n_theta < 2 or n_phi < 4:
        raise InvalidArgumentError("need n_theta >= 2 and n_phi >= 4")
    if n_theta * n_phi > MAX_SPHERE_NODES:
        raise InvalidArgumentError(f"the measurement grid would have {n_theta * n_phi:,} "
                                   f"nodes, above the cap of {MAX_SPHERE_NODES:,}")
    if not 0 < radius < 1e154:
        raise InvalidArgumentError(f"grid radius must be positive and below 1e154, got {radius}")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(x)
    phi_1d = 2 * np.pi * np.arange(n_phi) / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(w, n_phi) * (2 * np.pi / n_phi) * radius**2
    return _grid_from_angles(theta, phi, weights, radius)


@dataclass(frozen=True)
class NearFieldMatrix:
    """2n x 2n complex matrix of tangential scattered-field samples at
    wavenumber k, a positive finite number."""

    grid: SphereGrid
    entries: np.ndarray
    k: float
    noise_level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        n2 = 2 * self.grid.n_nodes
        if self.entries.shape != (n2, n2):
            raise DataFormatError(f"entries shape {self.entries.shape} does not match "
                                  f"grid size {n2}")
        object.__setattr__(self, "k", check_wavenumber(self.k))


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and generator seed."""

    level: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.level < np.inf:
            raise InvalidArgumentError(
                f"noise level must be finite and nonnegative, got {self.level}")


# Largest phi offset from the uniform ring that ring_size accepts.  The
# assembly does not read phi, so an accepted grid gets the exact ring's data.
_PHI_TOL = 1e-14


def ring_size(grid: SphereGrid) -> int:
    """n_phi of a grid in ``build_sphere_grid``'s ring layout.

    Node a n_phi + p must sit at theta_a and phi_p = 2 pi p / n_phi, so the
    rings are the theta values and node a n_phi lies on the phi = 0 meridian.
    Any other node order raises InvalidArgumentError.
    """
    # The first ring ends where theta first changes.
    n_phi = int(np.argmax(grid.theta != grid.theta[0])) or grid.n_nodes
    n_theta = grid.n_nodes // n_phi
    ring_phi = 2 * np.pi * np.arange(n_phi) / n_phi
    if (
        n_theta * n_phi != grid.n_nodes
        or np.any(grid.theta.reshape(n_theta, n_phi) != grid.theta[::n_phi, None])
        or np.any(np.abs(grid.phi.reshape(n_theta, n_phi) - ring_phi) > _PHI_TOL)
    ):
        raise InvalidArgumentError(
            "grid is not in the ring layout: node a*n_phi + p must sit at "
            "theta_a and phi = 2 pi p / n_phi"
        )
    return n_phi


def assemble_nearfield(modes: ModeCoefficients, grid: SphereGrid) -> NearFieldMatrix:
    """Sample the scattered field of the solved modes for every source/receiver
    node pair.

    Sources and receivers share the grid, so the matrix is the mode
    contraction S = -k^2 P^T R conj(P) over the TE and TM modes together.
    S depends on the phi indices only through (p - q) mod n_phi, so it is
    the cyclic gather of its block column C at phi_q = 0:
    S[(a, p, l), (b, q, m)] = C[(a, (p - q) mod n_phi, l), (b, m)].
    A mode of azimuthal order mu projects at node (a, p) to P0[mode, a]
    e^{2 pi i mu p / n_phi}, which reads mu only mod n_phi, so the products
    G[nu] = sum_{mu = nu mod n_phi} R conj(P0) P0^T give C = n_phi ifft(G)."""
    config = modes.config
    if grid.radius >= config.cavity_radius:
        raise InvalidArgumentError(
            "measurement sphere must lie strictly inside the cavity"
        )
    n_phi = ring_size(grid)
    n_theta = grid.n_nodes // n_phi
    deg, order = sf.mode_index(config.n_max)
    # p0[(family, mode), a, l] = regular VSWF . e_l at meridian node a; TE, TM.
    meridian = slice(None, None, n_phi)
    fields = np.concatenate(sf.vswf_fields(grid.nodes[meridian], config.k, config.n_max, 1))
    frames = np.stack([grid.e1[meridian], grid.e2[meridian]], axis=1)
    p0 = np.einsum("qaj,alj->qal", fields, frames).reshape(-1, 2 * n_theta)
    residue = np.tile(order, 2) % n_phi
    # Degrees whose R_n overflowed make the entries NaN, which the NFEM1
    # writer and the invariant checks report; the warnings on the way say
    # nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = modes.reflection[:, deg - 1].reshape(-1, 1) * np.conj(p0)
        # products[nu, (b, m), (a, l)]; a residue with no mode gives zeros.
        products = np.stack([weighted[pick].T @ p0[pick]
                             for pick in residue == np.arange(n_phi)[:, None]])
        column = -(config.k**2) * n_phi * np.fft.ifft(products, axis=0)
    # column[d, b, m, a, l] = C[(a, d, l), (b, m)], and twice[e] = column[(e + 1)
    # mod n_phi], so windows[q, b, m, a, l, p] = twice[n_phi - 1 - q + p] =
    # C[(a, (p - q) mod n_phi, l), (b, m)]: a strided view, copied once.
    column = column.reshape(n_phi, n_theta, 2, n_theta, 2)
    twice = np.concatenate([column[1:], column])
    windows = np.lib.stride_tricks.sliding_window_view(twice, n_phi, axis=0)[::-1]
    entries = windows.transpose(3, 5, 4, 1, 0, 2).reshape(2 * grid.n_nodes, -1)
    return NearFieldMatrix(grid=grid, entries=entries, k=config.k)


def block_column(matrix: NearFieldMatrix) -> np.ndarray:
    """The block column at phi_q = 0 of a ring-grid matrix S, as a view:
    column[a, d, l, b, m] = C[(a, d, l), (b, m)] = S[(a, d, l), (b, 0, m)].
    Every entry of a block-circulant S, as ``assemble_nearfield``'s are, is
    an entry of C, so a max or finiteness test over C equals S's bitwise."""
    n_phi = ring_size(matrix.grid)
    n_theta = matrix.grid.n_nodes // n_phi
    return matrix.entries.reshape(n_theta, n_phi, 2, n_theta, n_phi, 2)[:, :, :, :, 0]


def reciprocity_defect(matrix: NearFieldMatrix) -> float:
    """max |S - S^T| of a matrix that is block-circulant in phi, as
    ``assemble_nearfield``'s are, read from its block column at phi_q = 0.

    S[(a, p, l), (b, q, m)] - S[(b, q, m), (a, p, l)] is
    C[(a, d, l), (b, m)] - C[(b, -d, m), (a, l)] with d = p - q, so these
    are the dense scan's subtractions and the max is bitwise equal; a NaN
    entry makes it NaN.
    """
    column = block_column(matrix)
    n_phi = column.shape[1]
    # mirror[a, d, l, b, m] = C[(b, -d, m), (a, l)]
    mirror = column.transpose(3, 1, 4, 0, 2)[:, -np.arange(n_phi) % n_phi]
    return float(np.max(np.abs(column - mirror)))


def noise_factor(shape: tuple[int, ...], spec: NoiseSpec) -> np.ndarray:
    """The multiplicative noise of ``add_noise``: 1 + h zeta / sqrt(2) per
    entry, zeta complex standard normal, drawn from the seed alone.

    The real parts of zeta are drawn first, then the imaginary parts.  Each
    part is scaled in place with the roundings of numpy's complex
    expression 1.0 + h * zeta / np.sqrt(2.0), whose complex division by
    sqrt(2) multiplies by 1/sqrt(2), and added to its part of 1 + 0i: the
    same factor to the bit, without its complex temporaries.
    """
    rng = np.random.default_rng(spec.seed)
    factor = np.empty(shape, dtype=complex)
    draw = np.empty(shape)
    for part, one in ((factor.real, 1.0), (factor.imag, 0.0)):
        rng.standard_normal(out=draw)
        draw *= spec.level
        draw *= 1.0 / np.sqrt(2.0)
        np.add(one, draw, out=part)
    return factor


def add_noise(matrix: NearFieldMatrix, spec: NoiseSpec,
              factor: np.ndarray | None = None) -> NearFieldMatrix:
    """Multiplicative per-entry complex Gaussian noise at relative level h:
    ``noise_factor`` times the entries.  A factor drawn ahead may be passed
    in; it becomes the noisy entries, multiplied in place."""
    if spec.level == 0:
        return matrix
    if factor is None:
        factor = noise_factor(matrix.entries.shape, spec)
    # numpy's SIMD complex multiply rounds a b and b a differently, and its
    # temporary elision turned entries * factor into factor * entries only
    # from 256 KiB on; the one order, at every size, keeps the noisy bytes.
    entries = np.multiply(factor, matrix.entries, out=factor)
    return replace(matrix, entries=entries, noise_level=spec.level, seed=spec.seed)


# CRC-64/ECMA-182 of the payload guards against truncation and bit rot:
# polynomial 0x42F0E1EBA9EA3693, init 0, unreflected, no final xor.
_CRC64_POLY = 0x42F0E1EBA9EA3693


def _crc64_table16() -> np.ndarray:
    """Register after each top 16-bit value hi 256 + lo is shifted through 16
    zero bits.  Two steps of the byte table T8 give it in closed form,
    (T8[hi] << 8) ^ T8[lo ^ (T8[hi] >> 56)], and T8 is linear, so that is
    (T8[hi] << 8) ^ T8[T8[hi] >> 56] ^ T8[lo]."""
    t8 = np.arange(256, dtype=np.uint64) << np.uint64(56)
    for _ in range(8):
        carry = np.where(t8 >> np.uint64(63), np.uint64(_CRC64_POLY), np.uint64(0))
        t8 = (t8 << np.uint64(1)) ^ carry
    hi = (t8 << np.uint64(8)) ^ t8[t8 >> np.uint64(56)]
    return np.bitwise_xor.outer(hi, t8).reshape(-1)


_CRC_TABLE16 = _crc64_table16()


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """ops[k, v]: the GF(2)-linear map on registers whose 64 basis images
    are ``columns``, applied to byte value v at bits 8k..8k+7."""
    basis = columns.reshape(8, 8)
    ops = np.zeros((8, 1), dtype=np.uint64)
    for bit in range(8):
        ops = np.concatenate([ops, ops ^ basis[:, bit : bit + 1]], axis=1)
    return ops


def _apply(ops: np.ndarray, registers: np.ndarray) -> np.ndarray:
    """The map of byte tables ``ops`` applied to every register."""
    octets = registers.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.bitwise_xor.reduce(ops[np.arange(8), octets], axis=1)


def crc64(data: bytes | memoryview) -> int:
    """CRC-64/ECMA-182 of a bytes-like object.

    The input is left-padded with zero bytes, which leaves a CRC with init 0
    unchanged, and cut into equal lanes of whole 64-bit words that advance
    together.  Only the leading lanes that hold padding are copied; the rest
    are read in place.  Each step XORs one big-endian word into every lane's
    register and shifts it through 64 zero bits in four 16-bit table steps.
    64 extra lanes start at the unit registers and see only zeros, so they
    end as the columns of the operator that carries a CRC across one lane of
    zero bytes.  A pairwise tree folds the lane CRCs into one, as zlib's
    crc32_combine does, squaring the operator at each level.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n = raw.size
    # About 4 sqrt(n) lanes, up to 16384: the word steps, n / (8 lanes), are
    # few and each spans enough lanes to amortize numpy's call overhead.  At
    # 27 MB 2^14 lanes run as fast as 2^15 and faster than 2^13.
    lanes = 1 << min(14, n.bit_length() // 2 + 2)
    width = -(-n // (8 * lanes)) * 8
    words = width // 8
    # The last `full` lanes start at or past the padding and are read in
    # place; the `split` lanes before them get the leading `cut` bytes.
    full = n // width if width else 0
    split, cut = lanes - full, n - full * width
    padded = np.zeros(split * width, dtype=np.uint8)
    padded[padded.size - cut :] = raw[:cut]
    lead = padded.view(">u8").reshape(split, words)
    rest = raw[cut:].view(">u8").reshape(full, words)
    reg = np.zeros(lanes + 64, dtype=np.uint64)
    reg[lanes:] = np.uint64(1) << np.arange(64, dtype=np.uint64)
    head = reg[:lanes]
    top = np.empty_like(reg)
    index = top.view(np.intp)
    step = np.empty_like(reg)
    rows = np.empty((64, lanes), dtype=np.uint64)
    # 64 words of every lane at a time, as rows in native byte order.
    for start in range(0, words, 64):
        chunk = rows[: min(64, words - start)]
        chunk[:, :split] = lead[:, start : start + 64].T
        chunk[:, split:] = rest[:, start : start + 64].T
        for word in chunk:
            np.bitwise_xor(head, word, out=head)
            for _ in range(4):
                np.right_shift(reg, np.uint64(48), out=top)
                np.take(_CRC_TABLE16, index, out=step, mode="clip")
                np.left_shift(reg, np.uint64(16), out=reg)
                np.bitwise_xor(reg, step, out=reg)
    crcs, columns = head, reg[lanes:]
    while crcs.size > 1:
        ops = _byte_tables(columns)
        crcs = _apply(ops, crcs[0::2]) ^ crcs[1::2]
        columns = _apply(ops, columns)
    return int(crcs[0])


def write_nearfield(matrix: NearFieldMatrix, path) -> None:
    """Write the NFEM1 binary format (little-endian, CRC-64 trailer), with
    the matrix's k in the header, once its entries are finite, creating the
    parent directory.

    The file is built in one buffer of its exact size: the node table and
    the entries are written through views of it, and the CRC of the payload
    is packed in place before one write."""
    if not np.all(np.isfinite(matrix.entries)):
        raise DataFormatError(f"{path}: refusing to write non-finite matrix entries")
    grid = matrix.grid
    n = grid.n_nodes
    body = len(MAGIC) + HEADER.size
    buf = bytearray(body + n * 3 * 8 + (2 * n) * (2 * n) * 16 + 8)
    buf[: len(MAGIC)] = MAGIC
    HEADER.pack_into(
        buf,
        len(MAGIC),
        matrix.k,
        float(grid.radius),
        n,
        1 if matrix.noise_level > 0 else 0,
        float(matrix.noise_level),
        matrix.seed if matrix.seed is not None else 0,
    )
    nodes = np.frombuffer(buf, dtype="<f8", count=3 * n, offset=body).reshape(n, 3)
    nodes[:, 0], nodes[:, 1], nodes[:, 2] = grid.theta, grid.phi, grid.weights
    entries = np.frombuffer(buf, dtype="<c16", count=4 * n * n, offset=body + n * 3 * 8)
    entries.reshape(2 * n, 2 * n)[...] = matrix.entries
    struct.pack_into("<Q", buf, len(buf) - 8, crc64(memoryview(buf)[len(MAGIC) : -8]))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_whole(path, buf)


def read_nearfield(path) -> tuple[NearFieldMatrix, float]:
    """Read an NFEM1 file; returns (matrix, matrix.k).  The matrix carries
    the header's k; the second item repeats it only because the benchmark's
    ``perfbench/child.py`` unpacks a pair, and goes when that file changes."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise DataFormatError(f"{path}: bad magic, not an NFEM1 file")
    if len(blob) < len(MAGIC) + HEADER.size + 8:
        raise DataFormatError(f"{path}: file shorter than header")
    payload, trailer = memoryview(blob)[len(MAGIC) : -8], blob[-8:]
    (stored_crc,) = struct.unpack("<Q", trailer)
    if crc64(payload) != stored_crc:
        raise DataFormatError(f"{path}: CRC-64 mismatch, file truncated or corrupted")
    k, radius, n, noisy, level, seed = HEADER.unpack_from(payload)
    if not (np.isfinite(k) and k > 0 and np.isfinite(radius) and radius > 0 and n > 0):
        raise DataFormatError(f"{path}: invalid header values k={k}, rho={radius}")
    if noisy > 1 or not 0 <= level < np.inf:
        raise DataFormatError(f"{path}: invalid noise header: flag {noisy}, level {level}")
    if noisy != (level > 0):
        raise DataFormatError(f"{path}: noise flag {noisy} disagrees with noise level {level}")
    expected = HEADER.size + n * 3 * 8 + (2 * n) * (2 * n) * 16
    if len(payload) != expected:
        raise DataFormatError(f"{path}: payload has {len(payload)} bytes, "
                              f"expected {expected} for n={n}")
    nodes = np.frombuffer(payload, dtype="<f8", count=3 * n, offset=HEADER.size)
    theta, phi, weights = nodes.reshape(n, 3).T
    # Comparisons that NaN fails, so a NaN angle or weight is refused too.
    if not np.all((0 <= theta) & (theta <= np.pi) & (np.abs(phi) < np.inf)
                  & (0 < weights) & (weights < np.inf)):
        raise DataFormatError(f"{path}: node table needs theta in [0, pi], a finite phi "
                              "and a finite positive weight at every node")
    entries = np.frombuffer(
        payload, dtype="<c16", count=4 * n * n, offset=HEADER.size + n * 3 * 8
    ).reshape(2 * n, 2 * n)
    if not np.all(np.isfinite(entries)):
        raise DataFormatError(f"{path}: non-finite matrix entries")
    grid = _grid_from_angles(theta.copy(), phi.copy(), weights.copy(), radius)
    matrix = NearFieldMatrix(
        grid=grid,
        entries=entries.copy(),
        k=k,
        noise_level=level,
        seed=seed if level > 0 else None,
    )
    return matrix, matrix.k


def write_manifest(path, pairs: dict) -> None:
    """Sidecar provenance manifest, plain key = value lines."""
    write_whole(path, "".join(f"{key} = {value}\n" for key, value in pairs.items()))


def write_whole(path, data) -> None:
    """Write data (bytes, or text as UTF-8 with its line ends kept) to a
    temporary sibling of path, then rename it over path: path holds its old
    contents or the whole new file, never a part.  A failed write removes
    the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
