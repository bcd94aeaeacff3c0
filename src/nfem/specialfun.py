"""Spherical Bessel/Hankel functions, Riccati-Bessel pairs, associated
Legendre functions, and vector spherical wavefunctions (VSWFs).

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
from scipy.special import lpmv, spherical_jn, spherical_yn

from .errors import InvalidArgumentError, SingularPointError

# Upward recurrence of y_n overflows silently well before this; keep a hard cap.
ORDER_CAP = 200


def _check_order(order_max: int) -> None:
    if order_max < 0:
        raise InvalidArgumentError(f"order_max must be >= 0, got {order_max}")
    if order_max > ORDER_CAP:
        raise InvalidArgumentError(
            f"order_max {order_max} exceeds the hard cap {ORDER_CAP}"
        )


def _check_argument(t: float) -> None:
    if not np.isfinite(t) or t <= 0:
        raise InvalidArgumentError(f"argument must be positive and finite, got {t}")


@dataclass(frozen=True)
class RadialTable:
    """j_n, y_n and first derivatives for n = 0..order_max at one argument."""

    order_max: int
    argument: float
    j_values: np.ndarray
    y_values: np.ndarray
    j_derivs: np.ndarray
    y_derivs: np.ndarray


def sph_bessel_table(order_max: int, t: float) -> RadialTable:
    """Tabulate spherical Bessel functions of both kinds with derivatives."""
    _check_order(order_max)
    _check_argument(t)
    n = np.arange(order_max + 1)
    return RadialTable(
        order_max=order_max,
        argument=float(t),
        j_values=spherical_jn(n, t),
        y_values=spherical_yn(n, t),
        j_derivs=spherical_jn(n, t, derivative=True),
        y_derivs=spherical_yn(n, t, derivative=True),
    )


def sph_hankel1(order_max: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """h_n^(1) = j_n + i y_n and its derivative for n = 0..order_max."""
    table = sph_bessel_table(order_max, t)
    h = table.j_values + 1j * table.y_values
    hp = table.j_derivs + 1j * table.y_derivs
    return h, hp


def riccati(order_max: int, t: float, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """Riccati functions psi_n(t) = t z_n(t) and psi_n'(t) = z_n + t z_n'."""
    if kind not in (1, 3):
        raise InvalidArgumentError(f"kind must be 1 or 3, got {kind}")
    if kind == 1:
        table = sph_bessel_table(order_max, t)
        z, zp = table.j_values, table.j_derivs
    else:
        z, zp = sph_hankel1(order_max, t)
    return t * z, z + t * zp


def assoc_legendre(n: int, m: int, x: float) -> tuple[float, float]:
    """P_n^m(x) (Condon-Shortley phase included) and d/dtheta P_n^m(cos theta).

    The second return value is the theta-derivative evaluated where
    cos theta = x, not the x-derivative.
    """
    if m < 0 or m > n:
        raise InvalidArgumentError(f"need 0 <= m <= n, got n={n}, m={m}")
    if abs(x) > 1:
        raise InvalidArgumentError(f"|x| must be <= 1, got {x}")
    if abs(x) == 1.0:
        # Analytic pole limits; tangential-harmonic grids never hit the poles.
        sign = 1.0 if x > 0 else (-1.0) ** n
        if m == 0:
            return float(sign if x > 0 else (-1.0) ** n), 0.0
        if m == 1:
            # P_n^1 ~ -sin(theta) n(n+1)/2 near x=1 (CS phase), and
            # P_n^1(-x) = (-1)^(n+1) P_n^1(x) with d/dtheta changing sign.
            dtheta = -n * (n + 1) / 2.0
            return 0.0, float(dtheta if x > 0 else ((-1.0) ** n) * dtheta)
        raise InvalidArgumentError(
            f"theta-derivative undefined at the pole for m={m} >= 2"
        )
    p = float(lpmv(m, n, x))
    sin_t = float(np.sqrt(1.0 - x * x))
    # (1-x^2) dP/dx = (n+m) P_{n-1}^m - n x P_n^m;  d/dtheta = -sin(theta) d/dx.
    p_prev = float(lpmv(m, n - 1, x)) if n - 1 >= m else 0.0
    dtheta = -((n + m) * p_prev - n * x * p) / sin_t
    return p, dtheta


@dataclass(frozen=True)
class VswfValue:
    """One vector spherical wavefunction value in Cartesian components."""

    field: np.ndarray
    kind: int
    family: str
    degree: int
    order: int


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
    rhat = np.stack([sin_t * cos_p, sin_t * sin_p, cos_t], axis=1)
    that = np.stack([cos_t * cos_p, cos_t * sin_p, -sin_t], axis=1)
    phat = np.stack([-sin_p, cos_p, np.zeros_like(sin_p)], axis=1)
    # On the axis phi = 0 matches the frame above; arctan2 gives pi for x = -0.0.
    phi = np.where(on_axis, 0.0, np.arctan2(pts[:, 1], pts[:, 0]))
    return pts, r, cos_t, sin_t, phi, rhat, that, phat


def vswf_modes(n_max: int) -> list[tuple[int, int]]:
    """Mode enumeration (n, m), n = 1..n_max, m = -n..n, in a fixed order."""
    return [(n, m) for n in range(1, n_max + 1) for m in range(-n, n + 1)]


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


def _radial_table(n_max: int, kind: int, t: np.ndarray) -> np.ndarray:
    """z_n(t), z_n(t)/t and psi_n'(t)/t for n = 1..n_max, shape (3, n_max, points).

    psi_n'/t = z_{n-1} - n z_n/t, the recurrence scipy's derivative uses.
    The regular kind takes its t -> 0 limit below t = 1e-6, where
    z_n/t = t^(n-1)/(2n+1)!!; the radiating kind is singular there.
    """
    out = np.empty((3, n_max, t.size), dtype=float if kind == 1 else complex)
    n = np.arange(n_max + 1)[:, None]
    small = t < 1e-6
    if np.any(small):
        if kind == 3:
            raise SingularPointError("radiating wavefunction evaluated at the origin")
        ts = t[small]
        steps = np.vstack([np.full_like(ts, 1.0 / 3.0), ts / (2 * n[2:] + 1)])
        w = np.cumprod(steps, axis=0)
        out[:, :, small] = [ts * w, w, (n[1:] + 1) * w]
    big = ~small
    tb = t[big]
    z = spherical_jn(n, tb)
    if kind == 3:
        z = z + 1j * spherical_yn(n, tb)
    out[0][:, big] = z[1:]
    out[1][:, big] = z[1:] / tb
    out[2][:, big] = z[:-1] - n[1:] * out[1][:, big]
    return out


def vswf_fields(
    points: np.ndarray, k: float, n_max: int, kind: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all M and N wavefunctions up to degree n_max at many points.

    Returns arrays of shape (n_modes, n_points, 3) in the order of
    ``vswf_modes(n_max)``.
    """
    if kind not in (1, 3):
        raise InvalidArgumentError(f"kind must be 1 or 3, got {kind}")
    if k <= 0:
        raise InvalidArgumentError(f"wavenumber must be positive, got {k}")
    _check_order(n_max)
    pts, r, cos_t, sin_t, phi, rhat, that, phat = _spherical_frame(points)
    if kind == 3 and np.any(r < 1e-12):
        raise SingularPointError("radiating wavefunction evaluated at the origin")
    z, z_over_t, psip_over_t = _radial_table(n_max, kind, k * r)
    table = _legendre_table(cos_t, sin_t, n_max)

    # Mode q = (n, m) in vswf_modes order is row n^2 + n + m - 1.
    deg = np.repeat(np.arange(1, n_max + 1), 2 * np.arange(1, n_max + 1) + 1)
    order = np.arange(deg.size) - deg * deg - deg + 1
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
    # M = z C and N = sqrt(n(n+1)) z/t Y rhat + psi'/t B, where
    # s e^{im phi} (i pi, tau) = (a, b) give C = a that - b phat and
    # B = b that + a phat, with s = 1/sqrt(n(n+1)).
    root = np.sqrt(np.arange(1, n_max + 1) * np.arange(2, n_max + 2))[:, None]
    a = m * t_nm * phase
    a *= 1j
    b = tau * phase
    y_rad = (z_over_t * root)[rows] * lam_p * phase
    del t_nm, tau, lam_p, phase  # released before the outputs are allocated
    z_s = (z / root)[rows]
    psi_s = (psip_over_t / root)[rows]
    shape = (deg.size, pts.shape[0], 3)
    m_fields = np.empty(shape, dtype=complex)
    n_fields = np.empty(shape, dtype=complex)
    # One Cartesian component at a time bounds the temporaries to two.
    acc, term = np.empty_like(a), np.empty_like(a)
    for j in range(3):
        np.multiply(a, that[:, j], out=acc)
        acc -= np.multiply(b, phat[:, j], out=term)
        np.multiply(acc, z_s, out=m_fields[:, :, j])
        np.multiply(b, that[:, j], out=acc)
        acc += np.multiply(a, phat[:, j], out=term)
        acc *= psi_s
        np.add(acc, np.multiply(y_rad, rhat[:, j], out=term), out=n_fields[:, :, j])
    return m_fields, n_fields


def vswf_eval(
    family: str, kind: int, n: int, m: int, wavenumber: float, point: np.ndarray
) -> VswfValue:
    """Evaluate one VSWF at one point (Cartesian complex 3-vector)."""
    if family not in ("M", "N"):
        raise InvalidArgumentError(f"family must be 'M' or 'N', got {family!r}")
    if n < 1:
        raise InvalidArgumentError(f"degree must be >= 1, got {n}")
    if abs(m) > n:
        raise InvalidArgumentError(f"|m| must be <= n, got n={n}, m={m}")
    m_f, n_f = vswf_fields(np.asarray(point, dtype=float)[None, :], wavenumber, n, kind)
    idx = vswf_modes(n).index((n, m))
    field = m_f[idx, 0] if family == "M" else n_f[idx, 0]
    return VswfValue(field=field, kind=kind, family=family, degree=n, order=m)
