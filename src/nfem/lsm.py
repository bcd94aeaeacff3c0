"""Linear sampling engine: near-field right-hand sides, SVD-based Tikhonov
solves with Morozov's discrepancy principle, and the 3D imaging function.

For each sampling point z the discretized near-field equation

    sum_m sum_j w_j g_m(y_j) e_m(y_j) . E_s(x_i, y_j, e_l(x_i))
        = e_l(x_i) . G(x_i, z) h

is solved in regularized form; the imaging function is the normalized
reciprocal of the weighted density norm, large outside the cavity and small
inside, plotted in log scale with points inside the measurement ball masked
to 0.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .green import green_apply
from .measurement import NearFieldMatrix, SphereGrid

# Morozov root bracket relative to sigma_1^2, and the stopping step (or
# bracket width) in log10 units of alpha.  Reaching the tolerance keeps the
# discrepancy equation to far better than 1e-6 relative at the returned root.
ALPHA_LO_FACTOR = 1e-14
ALPHA_LOG10_TOL = 1e-8
ALPHA_MAX_STEPS = 200

_CHUNK = 2048


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD of the quadrature-weighted near-field matrix, with U^H and
    C = diag(sqrt(w2)) V, so that ||C x|| is the weighted norm of g = V x."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    weights2: np.ndarray  # per-column quadrature weight (w_j repeated per tangent)
    grid: SphereGrid
    k: float | None = None
    uh: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "uh", self.u.conj().T)
        object.__setattr__(self, "c", np.sqrt(self.weights2)[:, None] * self.vh.conj().T)

    @property
    def norm2(self) -> float:
        return float(self.s[0])


def svd_factorize(matrix: NearFieldMatrix, k: float | None = None) -> SvdFactorization:
    """SVD of A[(i,l),(j,m)] = w_j S[(i,l),(j,m)]."""
    if not np.all(np.isfinite(matrix.entries)):
        raise InvalidArgumentError("near-field matrix has non-finite entries")
    w2 = np.repeat(matrix.grid.weights, 2)
    a = matrix.entries * w2[None, :]
    u, s, vh = np.linalg.svd(a)
    return SvdFactorization(u=u, s=s, vh=vh, weights2=w2, grid=matrix.grid, k=k)


def rhs_vector(z: np.ndarray, h_pol: np.ndarray, grid: SphereGrid, k: float) -> np.ndarray:
    """b[(i, l)] = e_l(x_i) . G(x_i, z) h for one sampling point."""
    return rhs_matrix(np.asarray(z, dtype=float)[None, :], h_pol, grid, k)[:, 0]


def rhs_matrix(z: np.ndarray, h_pol: np.ndarray, grid: SphereGrid, k: float) -> np.ndarray:
    """Right-hand sides for a batch of sampling points, shape (2n, n_z)."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if np.any(np.abs(np.linalg.norm(z, axis=1) - grid.radius) <= 1e-9):
        raise InvalidArgumentError(
            "sampling point lies on the measurement sphere; rhs is singular"
        )
    # gz[i, t, :] = G(x_i, z_t) h
    gz = green_apply(grid.nodes[:, None, :], z[None, :, :], h_pol, k)
    frames = np.stack([grid.e1, grid.e2], axis=1)  # (n, 2, 3)
    b = np.einsum("ilc,itc->ilt", frames, gz)
    return b.reshape(-1, z.shape[0])


@dataclass(frozen=True)
class RegularizedBatch:
    """Regularized solves of a batch of right-hand sides, one entry per column."""

    alpha: np.ndarray
    flagged: np.ndarray  # Morozov root clamped to a bracket end or unconverged
    discrepancy: np.ndarray  # ||A g - b||
    g_norm: np.ndarray  # weighted density norm ||g||
    g: np.ndarray | None = None  # densities, shape (2n, n_z), on request


def _morozov_root(s2, beta2, h):
    """Morozov alpha and flag per row of beta2 = |U^H b|^2: safeguarded
    Newton in x = ln alpha on the increasing phi(x) = ln res^2 - ln(h^2
    sigma_1^2 ||g||^2), from the regula falsi point of [1e-14 sigma_1^2,
    sigma_1^2], bisecting when a step leaves the bracket.  A row stops when
    its step or bracket is below ALPHA_LOG10_TOL decades.  Rows with no sign
    change are clamped to the end it points at and flagged, as are rows
    still running after ALPHA_MAX_STEPS."""
    n = beta2.shape[0]
    alpha = np.full(n, ALPHA_LO_FACTOR * s2[0])
    if h == 0:
        return alpha, np.ones(n, dtype=bool)

    def phi(x, b2):  # phi and dphi/dx from the fused filter sums, in place
        a = np.exp(x)
        inv = np.reciprocal(np.add.outer(a, s2))
        q = b2 * inv
        q *= inv  # |beta|^2 / (s^2 + a)^2
        res2 = a * a * np.sum(q, axis=1)
        gn2 = np.sum(np.multiply(q, s2, out=q), axis=1)
        p = np.sum(np.multiply(q, inv, out=q), axis=1)
        return np.log(res2 / (h * h * s2[0] * gn2)), 2 * a * p * (a / res2 + 1 / gn2)

    x_lo, x_hi = np.log(alpha[0]), np.log(s2[0])
    f_lo, f_hi = phi(np.full(n, x_lo), beta2)[0], phi(np.full(n, x_hi), beta2)[0]
    alpha[f_hi <= 0] = s2[0]
    flagged = (f_lo >= 0) | (f_hi <= 0)
    rows = np.nonzero(~flagged)[0]
    lo, hi, work = np.full(rows.size, x_lo), np.full(rows.size, x_hi), beta2[rows]
    x = x_lo - f_lo[rows] * (x_hi - x_lo) / (f_hi[rows] - f_lo[rows])
    tol = ALPHA_LOG10_TOL * np.log(10.0)
    for _ in range(ALPHA_MAX_STEPS):
        if rows.size == 0:
            break
        f, df = phi(x, work)
        hi, lo = np.where(f >= 0, x, hi), np.where(f >= 0, lo, x)
        new = x - f / df
        new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
        alpha[rows] = np.exp(new)
        keep = (np.abs(new - x) >= tol) & (hi - lo >= tol)
        rows, lo, hi, x = rows[keep], lo[keep], hi[keep], new[keep]
        if not keep.all():
            work = work[keep]
    flagged[rows] = True
    return alpha, flagged


def regularized_solve(
    svd: SvdFactorization, b: np.ndarray, h_noise: float = 0.0,
    alpha: float | None = None, want_g: bool = False,
) -> RegularizedBatch:
    """Tikhonov solves g = sum_i s_i/(s_i^2 + alpha) (u_i* b) v_i for the
    columns of b (2n, n_z): alpha as given, or else per column the root of
    Morozov's equation ||A g - b|| = h ||A|| ||g|| with h = h_noise.  Each
    column's results depend on that column alone, so a batch of one gives
    the same bits as the same column inside any batch.
    """
    if alpha is not None and not 0 < alpha < np.inf:
        raise InvalidArgumentError(f"alpha must be positive and finite, got {alpha}")
    if h_noise < 0:
        raise InvalidArgumentError("noise level must be nonnegative")
    if not np.all(np.any(b, axis=0)):
        raise InvalidArgumentError("right-hand side is zero")
    beta = _matmul_rows(b.T, svd.uh.T)  # rows are right-hand sides
    beta2 = beta.real**2 + beta.imag**2
    s2 = svd.s**2
    if alpha is None:
        alpha, flagged = _morozov_root(s2, beta2, h_noise)
    else:
        alpha, flagged = np.full(len(beta), float(alpha)), np.zeros(len(beta), bool)
    inv = 1.0 / (s2 + alpha[:, None])
    x = beta * (svd.s * inv)
    y = _matmul_rows(x, svd.c.T)
    disc = alpha * np.sqrt(np.sum(beta2 * inv * inv, axis=1))
    g_norm = np.sqrt(np.sum(y.real**2 + y.imag**2, axis=1))
    g = _matmul_rows(x, svd.vh.conj()).T if want_g else None
    return RegularizedBatch(alpha, flagged, disc, g_norm, g)


def _matmul_rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m with a single row rounded as it would be inside a batch: numpy
    sends a one-row product to gemv, which sums in another order than gemm."""
    return ((a if len(a) > 1 else np.repeat(a, 2, axis=0)) @ m)[: len(a)]


def morozov_alpha(svd: SvdFactorization, b: np.ndarray, h: float) -> tuple[float, bool]:
    """Root of ||A g - b|| = h ||A|| ||g||; returns (alpha, flagged)."""
    sol = regularized_solve(svd, b[:, None], h_noise=h)
    return float(sol.alpha[0]), bool(sol.flagged[0])


@dataclass(frozen=True)
class SamplingGrid:
    """Axis-aligned lattice of sampling points with a spherical mask."""

    bounds: np.ndarray  # (3, 2)
    spacing: float
    mask_radius: float
    points: np.ndarray  # (P, 3), x fastest
    shape: tuple[int, int, int]  # (nx, ny, nz)
    active: np.ndarray  # (P,) bool, True outside the mask

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_sampling_grid(
    bounds, spacing: float, mask_radius: float
) -> SamplingGrid:
    """Lattice over the box; points with |z| <= mask_radius are masked.

    The mask carries a 1e-9 guard band so lattice points that land on the
    measurement sphere to rounding error count as masked rather than hitting
    the singular right-hand side.
    """
    if spacing <= 0:
        raise InvalidArgumentError("spacing must be positive")
    bounds = np.asarray(bounds, dtype=float).reshape(3, 2)
    axes = [
        lo + spacing * np.arange(int(np.floor((hi - lo) / spacing + 0.5)) + 1)
        for lo, hi in bounds
    ]
    nx, ny, nz = (len(a) for a in axes)
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    active = np.linalg.norm(points, axis=1) > mask_radius + 1e-9
    return SamplingGrid(
        bounds=bounds,
        spacing=float(spacing),
        mask_radius=float(mask_radius),
        points=points,
        shape=(nx, ny, nz),
        active=active,
    )


@dataclass(frozen=True)
class ImagingField:
    """Normalized indicator over a sampling grid plus its masked log version,
    with each active point's alpha and Morozov flag (0 and False if masked)."""

    grid: SamplingGrid
    indicator: np.ndarray
    log_indicator: np.ndarray
    alpha: np.ndarray
    flagged: np.ndarray


def _worker_count() -> int:
    try:
        n = int(os.environ.get("NFEM_THREADS", "0"))
    except ValueError:
        n = 0
    return n if n > 0 else min(4, os.cpu_count() or 1)


def run_imaging(
    data: NearFieldMatrix,
    grid: SamplingGrid,
    h_pol: np.ndarray,
    h_noise: float,
    svd: SvdFactorization | None = None,
    k: float | None = None,
    alpha: float | None = None,
) -> ImagingField:
    """Full indicator sweep: I = 1/||g_z|| normalized to max 1 over active
    points, log10(I) with masked points set to 0.  alpha is the Morozov root
    for noise level h_noise, or fixed when given.

    The SVD is computed once and shared by every sampling point; chunks of
    points are independent, so the result is bitwise identical for any
    worker count.
    """
    if svd is None:
        svd = svd_factorize(data, k=k)
    if k is None:
        k = svd.k
    if k is None:
        raise InvalidArgumentError("wavenumber required (pass k or a tagged SVD)")
    active_idx = np.nonzero(grid.active)[0]
    if active_idx.size == 0:
        raise InvalidArgumentError("sampling grid has no active points")
    raw = np.zeros(grid.n_points)
    alphas = np.zeros(grid.n_points)
    flagged = np.zeros(grid.n_points, dtype=bool)
    chunks = [
        active_idx[i : i + _CHUNK] for i in range(0, active_idx.size, _CHUNK)
    ]

    def work(idx):
        b = rhs_matrix(grid.points[idx], h_pol, svd.grid, k)
        return idx, regularized_solve(svd, b, h_noise, alpha)

    n_workers = _worker_count()
    with ThreadPoolExecutor(max_workers=max(1, min(n_workers, len(chunks)))) as pool:
        for idx, sol in pool.map(work, chunks):
            raw[idx], alphas[idx], flagged[idx] = 1.0 / sol.g_norm, sol.alpha, sol.flagged
    peak = np.max(raw[active_idx])
    indicator = raw / peak
    log_ind = np.zeros(grid.n_points)
    log_ind[active_idx] = np.log10(indicator[active_idx])
    return ImagingField(grid, indicator, log_ind, alphas, flagged)


def single_layer_eval(
    g: np.ndarray, x: np.ndarray, grid: SphereGrid, k: float
) -> np.ndarray:
    """Electric single layer potential sum_j w_j G(x, y_j) g(y_j), g tangential."""
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - grid.radius) <= 1e-9:
        raise InvalidArgumentError("evaluation point lies on the measurement sphere")
    g = np.asarray(g).reshape(grid.n_nodes, 2)
    density = g[:, 0, None] * grid.e1 + g[:, 1, None] * grid.e2
    return grid.weights @ green_apply(x, grid.nodes, density, k)
