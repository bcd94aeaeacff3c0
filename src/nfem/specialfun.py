"""Vector spherical wavefunctions (VSWFs), from array kernels for the radial
functions and the fully normalized associated Legendre functions.

Conventions
-----------
Spherical harmonics are fully normalized,

    Y_nm(theta, phi) = sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!) P_n^m(cos theta) e^{i m phi},

with the Condon-Shortley phase included in P_n^m.  The wavefunctions are

    M_nm = z_n(kr) C_nm,
    N_nm = sqrt(n(n+1)) z_n(kr)/(kr) Y_nm rhat + psi_n'(kr)/(kr) B_nm,

where psi_n(t) = t z_n(t), z_n is the spherical Bessel function j_n
(kind 1, regular) or Hankel function h_n^(1) (kind 3, radiating), and
B_nm, C_nm are the orthonormal tangential vector harmonics

    B_nm = (tau thetahat + i pi phihat) e^{i m phi} / sqrt(n(n+1)),
    C_nm = (i pi thetahat - tau phihat) e^{i m phi} / sqrt(n(n+1)),

with tau = d/dtheta of the normalized Legendre part and
pi = m/(sin theta) times it.  With this choice curl M = k N and
curl N = k M, and both families are divergence free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .green import check_wavenumber

# Largest wavefunction degree.  `spherical_z` matches mpmath to 1e-13 up to
# this degree for t up to 250; y_n of this degree leaves the double range
# below t of about 4.3, and is then -inf.
ORDER_CAP = 200


def unit_vectors(cos_t: np.ndarray, sin_t: np.ndarray, cos_p: np.ndarray,
                 sin_p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rhat, thetahat and phihat, each of shape (points, 3), from the cosines
    and sines of theta and phi at each point."""
    return (np.stack([sin_t * cos_p, sin_t * sin_p, cos_t], axis=1),
            np.stack([cos_t * cos_p, cos_t * sin_p, -sin_t], axis=1),
            np.stack([-sin_p, cos_p, np.zeros_like(sin_p)], axis=1))


def _spherical_frame(points: np.ndarray) -> tuple[np.ndarray, ...]:
    """r, cos/sin theta, cos/sin phi and the local unit vectors at each point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_t = np.where(r > 0, pts[:, 2] / np.where(r > 0, r, 1.0), 1.0)
    sin_t = rho / np.where(r > 0, r, 1.0)
    on_axis = rho < 1e-300
    cos_p = np.where(on_axis, 1.0, pts[:, 0] / np.where(on_axis, 1.0, rho))
    sin_p = np.where(on_axis, 0.0, pts[:, 1] / np.where(on_axis, 1.0, rho))
    rhat, that, phat = unit_vectors(cos_t, sin_t, cos_p, sin_p)
    # On the axis phi = 0 matches the frame above; arctan2 gives pi for x = -0.0.
    phi = np.where(on_axis, 0.0, np.arctan2(pts[:, 1], pts[:, 0]))
    return pts, r, cos_t, sin_t, phi, rhat, that, phat


def mode_index(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(deg, order): the degree n and the order m of every mode, n = 1..n_max,
    m = -n..n.  Mode (n, m) is row n^2 + n + m - 1 of every per-mode array."""
    n = np.arange(1, n_max + 1)
    deg = np.repeat(n, 2 * n + 1)
    return deg, np.arange(deg.size) - deg * deg - deg + 1


def _legendre_table(cos_t: np.ndarray, sin_t: np.ndarray, n_max: int) -> np.ndarray:
    """Fully normalized Legendre functions for 0 <= m <= n <= n_max at every point.

    T[n, 0] = lambda_n0 P_n(cos theta) and, for m >= 1,
    T[n, m] = lambda_nm P_n^m(cos theta) / sin theta, by the upward recurrence
    of Holmes & Featherstone (J. Geodesy 76, 2002).  Dividing the m >= 1
    columns by sin theta keeps them finite, and exact, on the polar axis;
    nothing overflows up to ORDER_CAP.  Entries with m > n are zero.
    """
    table = np.zeros((n_max + 1, n_max + 1, cos_t.size))
    table[0, 0] = 1.0 / np.sqrt(4 * np.pi)
    if n_max >= 1:
        table[1, 1] = -np.sqrt(1.5) * table[0, 0]
    for m in range(2, n_max + 1):
        table[m, m] = -np.sqrt((2 * m + 1) / (2 * m)) * sin_t * table[m - 1, m - 1]
    for n in range(1, n_max + 1):
        table[n, n - 1] = np.sqrt(2 * n + 1) * cos_t * table[n - 1, n - 1]
        m = np.arange(n - 1)[:, None]
        a = np.sqrt((4 * n * n - 1) / (n * n - m * m))
        b = np.sqrt(((n - 1) ** 2 - m * m) / (4 * (n - 1) ** 2 - 1))
        table[n, : n - 1] = a * (cos_t * table[n - 1, : n - 1] - b * table[n - 2, : n - 1])
    return table


def spherical_z(n_max: int, kind: int, t: np.ndarray) -> np.ndarray:
    """Real rows j_n(t) and, for kind 3, y_n(t) of h_n^(1) = j_n + i y_n, for
    n = 0..n_max at every t > 0: shape (1 + (kind == 3), n_max + 1, t.size).

    Both satisfy z_{n+1} = (2n+1)/t z_n - z_{n-1}.  y_n takes it upward from
    y_0 = -cos t/t and y_1, the direction in which it dominates; where it
    leaves the double range it is -inf.  j_n takes it upward from
    j_0 = sin t/t and j_1 up to degree floor(t), where it is not yet the
    minimal solution, and beyond that degree by the ratios j_n/j_{n-1} of
    the downward recurrence (Miller's method in ratio form, as in multilayer
    Mie codes: Wiscombe, Appl. Opt. 19, 1505, 1980).  The ratios lie in
    (0, 1) there, so nothing overflows on the way down, and j_n underflows
    gradually to 0.  The downward start lies 16 + 6 m^(1/3) degrees above
    n_max, m the largest floor(t) up to n_max; 12 + 6 m^(1/3) already gives
    ratios within 5e-16 of mpmath's for every t up to n_max + 1 and n_max
    up to ORDER_CAP.
    """
    t = np.asarray(t, dtype=float)
    # fmin skips a NaN argument, which then stays NaN without a warning.
    last = np.fmin(np.floor(t), n_max)
    m = int(np.max(last, initial=0.0))
    top = n_max + int(6 * np.cbrt(m)) + 16
    # Rows j_n and, for kind 3, y_n, from z_0 = a/t and z_1 = (z_0 - b)/t.
    # j_n is needed upward only to degree m; y_n may overflow on the way.
    up = np.zeros((1 + (kind == 3), n_max + 1, t.size))
    n_up = n_max if kind == 3 else m
    ratio = np.ones((n_max + 1, t.size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coef = np.arange(1, 2 * top + 2, 2)[:, None] / t
        s, c = np.sin(t), np.cos(t)
        for row, (a, b) in zip(up, [(s, c), (-c, s)]):
            row[0] = a / t
            if n_max:
                row[1] = (row[0] - b) / t
        for n in range(1, n_up):
            np.multiply(coef[n], up[:, n], out=up[:, n + 1])
            up[:, n + 1] -= up[:, n - 1]
        r = np.zeros_like(t)
        for n in range(top, 0, -1):
            r = np.divide(1.0, coef[n] - r, out=ratio[n] if n <= n_max else None)
    anchor = last.astype(int)
    down = np.arange(n_max + 1)[:, None] > anchor
    ratio[~down] = 1.0
    up[0] = np.where(down, np.cumprod(ratio, axis=0) * up[0, anchor, np.arange(t.size)],
                     up[0])
    up[1:][np.isnan(up[1:])] = -np.inf  # -inf - (-inf) after the overflow
    return up


def radial_table(n_max: int, kind: int, t: np.ndarray) -> np.ndarray:
    """z_n(t), z_n(t)/t and psi_n'(t)/t for n = 1..n_max, shape (3, n_max, points),
    real for kind 1 and complex for kind 3.

    z_n comes from `spherical_z`, and psi_n'/t = z_{n-1} - n z_n/t.  Real and
    imaginary parts are formed apart, so an overflowed y_n = -inf stays a
    clean infinity (psi_n'/t = +inf, its leading term) instead of turning
    complex arithmetic into NaN.  The regular kind takes its t -> 0 limit
    below t = 1e-6, where z_n/t = t^(n-1)/(2n+1)!!; the radiating kind runs
    the recurrence at every t > 0 (`radial_factors` refuses the origin).
    """
    out = np.empty((3, n_max, t.size), dtype=float if kind == 1 else complex)
    n = np.arange(n_max + 1)[:, None]
    small = (t < 1e-6) & (kind == 1)
    # Every column goes through the kernel; those below 1e-6 are then
    # overwritten by the series.
    t_k = np.where(small, 1.0, t)
    deg = n[1:]
    for part, dest in zip(spherical_z(n_max + 1, kind, t_k), (out.real, out.imag)):
        z_n = part[1:-1]
        dest[0] = z_n
        with np.errstate(over="ignore", invalid="ignore"):
            z_t = np.divide(z_n, t_k, out=dest[1])
            # A subnormal j_n has lost digits that j_n/t may need back; its
            # neighbours, of one sign there, give (j_{n-1} + j_{n+1})/(2n+1).
            sub = np.abs(z_n) < np.finfo(float).tiny
            z_t[sub] = ((part[:-2] + part[2:]) / (2 * deg + 1))[sub]
            dest[2] = np.where(np.isinf(z_n), -z_n, part[:-2] - deg * z_t)
    if np.any(small):
        ts = t[small]
        steps = np.vstack([np.full_like(ts, 1.0 / 3.0), ts / (2 * n[2:] + 1)])
        w = np.cumprod(steps, axis=0)
        out[:, :, small] = [ts * w, w, (n[1:] + 1) * w]
    return out


@dataclass(frozen=True)
class AngularFactors:
    """The per-point frame and the per-mode angular factors of every
    wavefunction of degree 1..n_max, which depend on the points only.

    ``r`` and the unit vectors ``rhat``, ``that``, ``phat`` (points, 3) are
    those of ``_spherical_frame``.  The factors, of shape (n_modes, points) in
    ``mode_index(n_max)`` order, are a = i pi e^{im phi} and b = tau e^{im phi}
    with the Legendre sign on the phase, and ``lam_p`` and ``phase``, whose
    product is lambda_nm P_n^m e^{im phi}.
    """

    r: np.ndarray
    rhat: np.ndarray
    that: np.ndarray
    phat: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lam_p: np.ndarray
    phase: np.ndarray


def angular_factors(points: np.ndarray, n_max: int) -> AngularFactors:
    """The frame and angular factors of every wavefunction up to degree n_max
    at the points, from one Legendre table; both kinds and every wavenumber
    share them."""
    if not 0 <= n_max <= ORDER_CAP:
        raise InvalidArgumentError(f"n_max must be in [0, {ORDER_CAP}], got {n_max}")
    _, r, cos_t, sin_t, phi, rhat, that, phat = _spherical_frame(points)
    table = _legendre_table(cos_t, sin_t, n_max)

    deg, order = mode_index(n_max)
    col, zero, rows = np.abs(order), order == 0, deg - 1
    n, m = deg[:, None].astype(float), order[:, None].astype(float)
    # tau = d/dtheta and pi = m/sin(theta) times lambda_nm P_n^m, from
    # (1-x^2) dP_n^m/dx = (n+m) P_{n-1}^m - n x P_n^m; for m = 0,
    # tau = sqrt(n(n+1)) lambda_n1 P_n^1, which vanishes on the axis.
    t_nm = table[deg, col]
    c = np.sqrt((2 * n + 1) / (2 * n - 1) * (n * n - m * m))
    tau = n * cos_t * t_nm - c * table[rows, col]
    tau[zero] = np.sqrt(n[zero] * (n[zero] + 1)) * sin_t * table[deg[zero], 1]
    lam_p = sin_t * t_nm
    lam_p[zero] = t_nm[zero]
    # lambda_{n,-m} P_n^{-m} = (-1)^m lambda_nm P_n^m: the sign rides on the
    # phase factor, and pi takes its own through m.
    m_range = np.arange(-n_max, n_max + 1)
    sign = np.where((m_range < 0) & (m_range % 2 == 1), -1.0, 1.0)
    phase = (sign[:, None] * np.exp(1j * m_range[:, None] * phi))[order + n_max]
    a = m * t_nm * phase
    a *= 1j
    return AngularFactors(r, rhat, that, phat, a, tau * phase, lam_p, phase)


def radial_factors(n_max: int, kind: int, k: float,
                   r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z_n(t)/s, (psi_n'(t)/t)/s and s z_n(t)/t at t = k r for n = 1..n_max,
    s = sqrt(n(n+1)), each of shape (n_max, points): the factors by which
    M_nm and N_nm scale the angular ones (rows of ``radial_table``)."""
    if kind not in (1, 3):
        raise InvalidArgumentError(f"kind must be 1 or 3, got {kind}")
    check_wavenumber(k)
    if kind == 3 and np.any(r < 1e-12):
        raise InvalidArgumentError("radiating wavefunction evaluated at the origin")
    z, z_over_t, psip_over_t = radial_table(n_max, kind, k * r)
    root = np.sqrt(np.arange(1, n_max + 1) * np.arange(2, n_max + 2))[:, None]
    return z / root, psip_over_t / root, z_over_t * root


def vswf_fields(
    points: np.ndarray, k: float, n_max: int, kind: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all M and N wavefunctions up to degree n_max at many points.

    Returns arrays of shape (n_modes, n_points, 3) in ``mode_index(n_max)``
    order, the Cartesian composition of ``angular_factors`` and
    ``radial_factors`` with the unit vectors.  A call holds a few arrays of
    that size at once; the package passes at most one meridian of the
    measurement grid per call.
    """
    ang = angular_factors(points, n_max)
    z_s, psi_s, z_t = radial_factors(n_max, kind, k, ang.r)
    rows = mode_index(n_max)[0] - 1
    # M = z C and N = sqrt(n(n+1)) z/t Y rhat + psi'/t B, where
    # s e^{im phi} (i pi, tau) = (a, b) give C = a that - b phat and
    # B = b that + a phat, with s = 1/sqrt(n(n+1)).  The per-mode scalars
    # take a trailing axis against the unit vectors.
    a, b = ang.a[..., None], ang.b[..., None]
    y_rad = (z_t[rows] * ang.lam_p * ang.phase)[..., None]
    z_s, psi_s = z_s[rows][..., None], psi_s[rows][..., None]
    return ((a * ang.that - b * ang.phat) * z_s,
            (b * ang.that + a * ang.phat) * psi_s + y_rad * ang.rhat)
