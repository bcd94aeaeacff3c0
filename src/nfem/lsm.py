"""Linear sampling engine: near-field right-hand sides, SVD-based Tikhonov
solves with Morozov's discrepancy principle, and the 3D imaging function.

For each sampling point z the discretized near-field equation

    sum_m sum_j w_j g_m(y_j) e_m(y_j) . E_s(x_i, y_j, e_l(x_i))
        = e_l(x_i) . G(x_i, z) h

is solved in regularized form in L^2 of the measurement sphere, as
A~ g~ = b~ with A~ = W^1/2 S W^1/2, g~ = W^1/2 g, b~ = W^1/2 b and W the
quadrature weights.  The imaging function is the normalized reciprocal of
||g~||, large outside the cavity and small inside, plotted in log scale with
points inside the measurement ball masked to 0.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidArgumentError
from .green import _green_scalars, green_apply
from .measurement import NearFieldMatrix, SphereGrid

# Morozov root bracket relative to sigma_1^2, and the stopping step (or
# bracket width) in log10 units of alpha.  Reaching the tolerance keeps the
# discrepancy equation to far better than 1e-6 relative at the returned root.
ALPHA_LO_FACTOR = 1e-14
ALPHA_LOG10_TOL = 1e-8
ALPHA_MAX_STEPS = 200
# A Morozov row whose discrepancy misses h sigma_1 ||g~|| by more than this
# fraction of itself is flagged.
MOROZOV_RTOL = 1e-6
# Points of the log-spaced alpha table the Morozov root starts from.
ALPHA_TABLE = 16

# Sampling points per sweep chunk: the (rows x 2n) filter-sum temporaries of
# one chunk stay in a core's L2 (1.2 MB at 288 nodes, against 2 MB).
_CHUNK = 256
# Most bytes of right-hand sides the sweep forms ahead while the SVD runs:
# 42 chunks at 288 nodes, about a third of the reference sweep.
PREFETCH_BYTES = 96 * 2**20

# Largest sampling lattice a run accepts.  Each point holds about 150 bytes
# of lattice, image and writer arrays, and the sweep images a few thousand
# points per second, so the cap means about 1.5 GB and an hour; the
# reference lattice (226,981 points) is 2% of it.
MAX_SAMPLING_POINTS = 10_000_000

# Sampling coordinates must stay below this magnitude: from about 1.3e154 on
# |x - z|^2 leaves the double range and the Green kernel turns to NaN.
MAX_COORDINATE = 1e150

# Points within this distance of the measurement sphere count as on it: the
# right-hand side and the single layer are singular there, and the mask
# (``mask_active``) takes such lattice points in.
SPHERE_GUARD = 1e-9


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD A~ = U diag(s) V^H of the weighted operator W^1/2 S W^1/2,
    kept as uhw = U^H W^1/2, which maps a right-hand side b to beta = U^H b~,
    s, V^H and root = W^1/2 (sqrt(w_j), repeated per tangent)."""

    uhw: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    root: np.ndarray


def svd_factorize(matrix: NearFieldMatrix, *, k: float | None = None) -> SvdFactorization:
    """SVD of A~[(i,l),(j,m)] = sqrt(w_i) S[(i,l),(j,m)] sqrt(w_j).  The
    keyword k is ignored: the benchmark's ``perfbench/child.py`` still
    passes it, and it goes when that file changes."""
    if not np.all(np.isfinite(matrix.entries)):
        raise InvalidArgumentError("near-field matrix has non-finite entries")
    if not np.any(matrix.entries):
        raise DataFormatError("near-field data are all zero: no scattered field")
    root = np.sqrt(np.repeat(matrix.grid.weights, 2))
    u, s, vh = np.linalg.svd(root[:, None] * matrix.entries * root)
    return SvdFactorization(uhw=u.conj().T * root, s=s, vh=vh, root=root)


def rhs_vector(z: np.ndarray, h_pol: np.ndarray, grid: SphereGrid, k: float) -> np.ndarray:
    """b[(i, l)] = e_l(x_i) . G(x_i, z) h for one sampling point."""
    return rhs_matrix(np.asarray(z, dtype=float)[None, :], h_pol, grid, k)[:, 0]


def rhs_matrix(z: np.ndarray, h_pol: np.ndarray, grid: SphereGrid, k: float) -> np.ndarray:
    """Right-hand sides for a batch of sampling points, shape (2n, n_z).

    b[(i, l), t] = a (e_l.h) + b (rhat.h)(e_l.rhat) with rhat = d/r and
    d = x_i - z_t, in real arithmetic on (n_z, n) planes: each entry is
    written once into a row-major (n_z, n, 2) array, returned transposed, so
    a column's bits do not depend on the batch it is in.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if np.any(np.abs(np.linalg.norm(z, axis=1) - grid.radius) <= SPHERE_GUARD):
        raise InvalidArgumentError(
            "sampling point lies on the measurement sphere; rhs is singular"
        )
    # d = x_i - z_t as three real (n_z, n) planes, then r and rhat from them.
    d = np.ascontiguousarray(grid.nodes.T)[:, None, :] - z.T[:, :, None]
    r = d[0] * d[0]
    r += d[1] * d[1]
    r += d[2] * d[2]
    u, _, (a_re, a_im), (b_re, b_im) = _green_scalars(np.sqrt(r, out=r), k)
    d *= u
    rh = h_pol[0] * d[0] + h_pol[1] * d[1] + h_pol[2] * d[2]
    b_re *= rh
    b_im *= rh
    out = np.empty((z.shape[0], grid.n_nodes, 2), dtype=complex)
    parts = out.view(float)  # (n_z, n, 4): re and im of l = 0, then of l = 1
    for l, e in enumerate((grid.e1, grid.e2)):
        eh = e @ h_pol
        e = np.ascontiguousarray(e.T)
        ed = np.multiply(e[0], d[0], out=rh)  # b already holds rh
        ed += e[1] * d[1]
        ed += e[2] * d[2]
        np.add(a_re * eh, b_re * ed, out=parts[..., 2 * l])
        np.add(a_im * eh, b_im * ed, out=parts[..., 2 * l + 1])
    return out.reshape(z.shape[0], -1).T


@dataclass(frozen=True)
class RegularizedBatch:
    """Regularized solves of a batch of right-hand sides, one entry per column."""

    alpha: np.ndarray
    flagged: np.ndarray  # Morozov root clamped, unconverged or off its equation
    discrepancy: np.ndarray  # weighted residual ||A~ g~ - b~||
    g_norm: np.ndarray  # weighted density norm ||g~||
    g: np.ndarray | None = None  # densities, shape (2n, n_z), on request


def _filter_sums(alpha, s2, beta2):
    """Per row of beta2 = |beta|^2, with q = beta2 / (s2 + alpha)^2: r = sum q
    (the discrepancy is alpha sqrt(r)), gn2 = sum s2 q = ||g~||^2 and
    p = sum s2 q / (s2 + alpha) = -(1/2) d gn2 / d alpha."""
    inv = np.reciprocal(np.add.outer(alpha, s2))
    q = beta2 * inv * inv
    r = np.sum(q, axis=1)
    gn2 = np.sum(np.multiply(q, s2, out=q), axis=1)
    return r, gn2, np.sum(np.multiply(q, inv, out=q), axis=1)


def _morozov_root(s2, beta2, h):
    """Morozov alpha and flag per row of beta2 = |U^H b~|^2: safeguarded Newton
    in x = ln alpha on the increasing phi(x) = ln res^2 - (2 ln h + ln sigma_1^2
    + ln ||g~||^2), a difference of logs that stays finite for any finite h.
    phi is first tabulated at ALPHA_TABLE log-spaced alpha over
    [1e-14 sigma_1^2, sigma_1^2], from one product of beta2; Newton starts from
    the regula falsi point of the table interval that holds the row's sign
    change, that interval its bracket, and bisects when an unconverged step
    leaves the bracket, until the step or bracket is below ALPHA_LOG10_TOL
    decades.  Rows with no sign change or a non-finite phi at a table end are
    clamped to the end they point at (else the floor) and flagged, as are rows
    still running after ALPHA_MAX_STEPS."""
    n = beta2.shape[0]
    alpha = np.full(n, ALPHA_LO_FACTOR * s2[0])
    if h == 0:
        return alpha, np.ones(n, dtype=bool)
    ln_h2s2 = 2 * np.log(h) + np.log(s2[0])

    def phi(x, b2):  # phi and dphi/dx
        a = np.exp(x)
        r, gn2, p = _filter_sums(a, s2, b2)
        res2 = a * a * r
        return np.log(res2) - (ln_h2s2 + np.log(gn2)), 2 * a * p * (a / res2 + 1 / gn2)

    # r and gn2 at the table's alpha: one real product, rows kept bitwise.
    xs = np.linspace(np.log(alpha[0]), np.log(s2[0]), ALPHA_TABLE)
    a = np.exp(xs)
    w = np.reciprocal(np.add.outer(s2, a))
    w *= w
    sums = _matmul_rows(beta2, np.concatenate([w, s2[:, None] * w], axis=1))
    table = np.log(a * a * sums[:, :ALPHA_TABLE]) - (ln_h2s2 + np.log(sums[:, ALPHA_TABLE:]))
    f_lo, f_hi = table[:, 0], table[:, -1]
    alpha[f_hi <= 0] = s2[0]
    flagged = ~((f_lo < 0) & (f_hi > 0))
    rows = np.nonzero(~flagged)[0]
    table = table[rows]
    j = np.argmax((table[:, :-1] < 0) & (table[:, 1:] >= 0), axis=1)
    f_lo, f_hi = np.take_along_axis(table, np.stack([j, j + 1], axis=1), axis=1).T
    lo, hi, work = xs[j], xs[j + 1], beta2[rows]
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    tol = ALPHA_LOG10_TOL * np.log(10.0)
    for _ in range(ALPHA_MAX_STEPS):
        if rows.size == 0:
            break
        f, df = phi(x, work)
        hi, lo = np.where(f >= 0, x, hi), np.where(f >= 0, lo, x)
        new = x - f / df  # a converged step stays, even where x is a bracket end
        new = np.where((abs(new - x) < tol) | ((lo < new) & (new < hi)), new, (lo + hi) / 2)
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
    """Tikhonov solves g~ = sum_i s_i/(s_i^2 + alpha) (u_i^H b~) v_i, g = W^-1/2 g~,
    for the columns of b (2n, n_z): alpha as given, or else per column the
    root of Morozov's ||A~ g~ - b~|| = h ||A~|| ||g~|| with h = h_noise,
    flagged where it misses that equation by more than MOROZOV_RTOL.  A
    column's results depend on it alone, so a batch of one gives the same
    bits as that column in any batch.  A zero or non-finite ||g~|| raises.
    """
    if alpha is not None and not 0 < alpha < np.inf:
        raise InvalidArgumentError(f"alpha must be positive and finite, got {alpha}")
    if not 0 <= h_noise < np.inf:
        raise InvalidArgumentError(f"noise level must be finite and nonnegative, got {h_noise}")
    if not np.all(np.any(b, axis=0)):
        raise InvalidArgumentError("right-hand side is zero")
    beta = _matmul_rows(b.T, svd.uhw.T)  # rows are right-hand sides
    beta2 = beta.real**2 + beta.imag**2
    s2 = svd.s**2
    if alpha is None:
        a, flagged = _morozov_root(s2, beta2, h_noise)
    else:
        a, flagged = np.full(len(beta), float(alpha)), np.zeros(len(beta), bool)
    r, gn2, _ = _filter_sums(a, s2, beta2)
    g_norm = np.sqrt(gn2)
    if not np.all(np.isfinite(g_norm) & (g_norm > 0)):
        cause = "the Morozov root" if alpha is None else f"lsm.alpha_fixed = {alpha:g}"
        raise InvalidArgumentError(f"{cause} leaves a density norm zero or not finite")
    discrepancy = a * np.sqrt(r)
    if alpha is None and not flagged.all():
        # Only a root can meet its equation; a clamped row stays flagged, and
        # its h sigma_1 ||g~|| may lie past the double range.
        rows = np.nonzero(~flagged)[0]
        flagged[rows] = (np.abs(discrepancy[rows] - h_noise * svd.s[0] * g_norm[rows])
                         > MOROZOV_RTOL * discrepancy[rows])
    g = None
    if want_g:
        x = beta * (svd.s / (s2 + a[:, None]))
        g = (_matmul_rows(x, svd.vh.conj()) / svd.root).T
    return RegularizedBatch(a, flagged, discrepancy, g_norm, g)


def _matmul_rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m with a single row rounded as it would be inside a batch: numpy
    sends a one-row product to gemv, which sums in another order than gemm."""
    return ((a if len(a) > 1 else np.repeat(a, 2, axis=0)) @ m)[: len(a)]


def morozov_alpha(svd: SvdFactorization, b: np.ndarray, h: float) -> tuple[float, bool]:
    """Root of ||A~ g~ - b~|| = h ||A~|| ||g~||; returns (alpha, flagged)."""
    sol = regularized_solve(svd, b[:, None], h_noise=h)
    return float(sol.alpha[0]), bool(sol.flagged[0])


@dataclass(frozen=True)
class SamplingGrid:
    """Axis-aligned lattice of sampling points with a spherical mask."""

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]  # coordinates along x, y, z
    spacing: float
    points: np.ndarray  # (P, 3), x fastest
    active: np.ndarray  # (P,) bool, True outside the mask

    @property
    def shape(self) -> tuple[int, int, int]:
        """(nx, ny, nz)."""
        return tuple(len(a) for a in self.axes)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def lattice_shape(bounds, spacing: float) -> tuple[int, int, int]:
    """Points per axis of the lattice lo, lo + spacing, ... over each (lo, hi)
    row of bounds (3, 2), its last point nearest hi.  Raises
    InvalidArgumentError when the spacing is not positive, or when the
    lattice has more than MAX_SAMPLING_POINTS points, before anything that
    size is allocated."""
    if not spacing > 0:
        raise InvalidArgumentError("spacing must be positive")
    # Python floats, so a span past the double range is inf without a
    # warning; an axis past the cap on its own stays a float (floor(inf) raises).
    steps = [(hi - lo) / float(spacing)
             for lo, hi in np.reshape(bounds, (3, 2)).tolist()]
    shape = [math.floor(s + 0.5) + 1 if s < MAX_SAMPLING_POINTS else s + 1 for s in steps]
    size = math.prod(shape)
    if not size <= MAX_SAMPLING_POINTS:
        raise InvalidArgumentError(f"the sampling lattice would have {size:.3g} points, "
                                   f"above the cap of {MAX_SAMPLING_POINTS:,}")
    return tuple(shape)


def build_sampling_grid(
    bounds, spacing: float, mask_radius: float
) -> SamplingGrid:
    """Lattice over the box; the points ``mask_active`` rejects are masked."""
    bounds = np.asarray(bounds, dtype=float).reshape(3, 2)
    shape = lattice_shape(bounds, spacing)
    axes = tuple(lo + spacing * np.arange(n) for (lo, _), n in zip(bounds, shape))
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    return SamplingGrid(
        axes=axes,
        spacing=float(spacing),
        points=points,
        active=mask_active(points, mask_radius),
    )


def mask_active(points: np.ndarray, mask_radius: float) -> np.ndarray:
    """True at the points (..., 3) the sweep images, |z| > mask_radius +
    SPHERE_GUARD: the guard band masks lattice points that land on the
    measurement sphere to rounding error rather than let them hit the
    singular right-hand side."""
    return np.linalg.norm(points, axis=-1) > mask_radius + SPHERE_GUARD


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
    """NFEM_THREADS, or by default up to 4, but never more than the CPUs
    this process may run on: each worker beyond them only adds a thread."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    try:
        n = int(os.environ.get("NFEM_THREADS", "0"))
    except ValueError:
        n = 0
    return min(n if n > 0 else 4, usable)


def run_imaging(
    data: NearFieldMatrix, grid: SamplingGrid, h_pol: np.ndarray,
    alpha: float | None = None,
) -> ImagingField:
    """Full indicator sweep at the data's wavenumber: I = 1/||g_z||
    normalized to max 1 over active points, log10(I) with masked points set
    to 0.  alpha is the Morozov root for the data's noise level, or fixed
    when given.

    The SVD is computed once and shared by every sampling point.  With two
    or more workers it runs on one of them while this thread forms the first
    chunks' right-hand sides, up to PREFETCH_BYTES of them; each is dropped
    once its chunk is solved.  Chunks of points are independent and a column
    does not depend on its batch, so the result is bitwise identical for any
    worker count.
    """
    active_idx = np.nonzero(grid.active)[0]
    if active_idx.size == 0:
        raise InvalidArgumentError("sampling grid has no active points")
    raw = np.zeros(grid.n_points)
    alphas = np.zeros(grid.n_points)
    flagged = np.zeros(grid.n_points, dtype=bool)
    chunks = [active_idx[i : i + _CHUNK] for i in range(0, active_idx.size, _CHUNK)]
    ready = [None] * len(chunks)  # right-hand sides formed while the SVD runs

    def rhs(i):
        return rhs_matrix(grid.points[chunks[i]], h_pol, data.grid, data.k)

    def work(i):
        b, ready[i] = ready[i], None
        b = rhs(i) if b is None else b
        return chunks[i], regularized_solve(svd, b, data.noise_level, alpha)

    workers = max(1, min(_worker_count(), len(chunks)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        if workers > 1:
            factoring = pool.submit(svd_factorize, data)
            ahead = PREFETCH_BYTES // (32 * data.grid.n_nodes * _CHUNK)  # complex (2n, chunk)
            for i in range(min(len(chunks), ahead)):
                if factoring.done():
                    break
                ready[i] = rhs(i)
            svd = factoring.result()
        else:
            svd = svd_factorize(data)
        for idx, sol in pool.map(work, range(len(chunks))):
            raw[idx], alphas[idx], flagged[idx] = 1.0 / sol.g_norm, sol.alpha, sol.flagged
    indicator = raw / np.max(raw)  # masked points hold 0, active ones > 0
    log_ind = np.zeros(grid.n_points)
    log_ind[active_idx] = np.log10(indicator[active_idx])
    return ImagingField(grid, indicator, log_ind, alphas, flagged)


def single_layer_eval(
    g: np.ndarray, x: np.ndarray, grid: SphereGrid, k: float
) -> np.ndarray:
    """Electric single layer potential sum_j w_j G(x, y_j) g(y_j), g tangential."""
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - grid.radius) <= SPHERE_GUARD:
        raise InvalidArgumentError("evaluation point lies on the measurement sphere")
    g = np.asarray(g).reshape(grid.n_nodes, 2)
    density = g[:, 0, None] * grid.e1 + g[:, 1, None] * grid.e2
    return grid.weights @ green_apply(x, grid.nodes, density, k)
