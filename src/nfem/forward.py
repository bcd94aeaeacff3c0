"""Analytic forward solver for a dipole radiating inside a spherical cavity
surrounded by concentric isotropic shells.

The cavity interior (r < a) and the exterior of the outermost shell are
vacuum with wavenumber k; each shell carries piecewise-constant scalar
material coefficients (A, N) and the effective wavenumber k sqrt(N/A).
Fields are expanded in VSWFs per degree n and family (TE = M-type,
TM = N-type); the transmission conditions

    tangential E continuous,   tangential (A curl E) continuous

at every interface give a small linear system per (n, family) whose
solution yields the interior reflection coefficients R_n used to
synthesize the scattered field

    E_s(x, y, p) = sum_nm  R_n^TE c_nm^TE M^1_nm(x) + R_n^TM c_nm^TM N^1_nm(x),

where c_nm are the radiating-expansion coefficients of the dipole field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn

from .errors import DegenerateConfigError, InvalidArgumentError
from .green import check_wavenumber, incident_field, curl_incident_field, Dipole
from . import specialfun as sf

FAMILIES = ("TE", "TM")

# Condition-number ceiling for a (column-equilibrated) per-mode system.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class Shell:
    """One concentric material shell: outer radius and scalar (A, N)."""

    outer_radius: float
    A: float
    N: float

    def __post_init__(self):
        if self.outer_radius <= 0:
            raise InvalidArgumentError("shell outer_radius must be positive")
        if self.A <= 0 or self.N <= 0:
            raise InvalidArgumentError("shell coefficients A, N must be positive")


@dataclass(frozen=True)
class LayeredCavityConfig:
    """Cavity radius, shells (inner to outer), wavenumber, truncation order."""

    cavity_radius: float
    shells: tuple[Shell, ...]
    k: float
    n_max: int

    def __post_init__(self):
        check_wavenumber(self.k)
        if self.cavity_radius <= 0:
            raise InvalidArgumentError("cavity_radius must be positive")
        if self.n_max < 1:
            raise InvalidArgumentError("truncation order n_max must be >= 1")
        radii = [self.cavity_radius] + [s.outer_radius for s in self.shells]
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise InvalidArgumentError("shell radii must be strictly increasing")
        object.__setattr__(self, "shells", tuple(self.shells))

    @property
    def interface_radii(self) -> np.ndarray:
        return np.array([self.cavity_radius] + [s.outer_radius for s in self.shells])

    @property
    def outer_radius(self) -> float:
        return self.shells[-1].outer_radius if self.shells else self.cavity_radius

    def media(self) -> list[tuple[float, float]]:
        """(effective wavenumber, A) per region: interior, shells, exterior."""
        out = [(self.k, 1.0)]
        out += [(effective_wavenumber(s.A, s.N, self.k), s.A) for s in self.shells]
        out.append((self.k, 1.0))
        return out


def effective_wavenumber(A: float, N: float, k: float) -> float:
    """k sqrt(N/A) for a constant isotropic medium."""
    if A <= 0 or N <= 0:
        raise InvalidArgumentError("A and N must be positive")
    check_wavenumber(k)
    return k * np.sqrt(N / A)


def truncation_order(cavity_radius: float, shells: tuple[Shell, ...], k: float) -> int:
    """Default series order: ceil(max effective wavenumber * outer radius) + 8."""
    k_eff = max([k] + [effective_wavenumber(s.A, s.N, k) for s in shells])
    r_max = shells[-1].outer_radius if shells else cavity_radius
    return int(np.ceil(k_eff * r_max)) + 8


def data_truncation_order(
    cavity_radius: float,
    shells: tuple[Shell, ...],
    k: float,
    measurement_radius: float,
    tol: float = 1e-8,
) -> int:
    """Series order for synthesizing data with sources and receivers at the
    measurement radius rho.

    The reflected field's series converges like (rho^2 / a^2)^n when both the
    source and the evaluation point sit on |x| = rho, so the default rule is
    extended by enough degrees to push the geometric tail below ``tol``.
    """
    base = truncation_order(cavity_radius, shells, k)
    ratio = (measurement_radius / cavity_radius) ** 2
    if ratio >= 1:
        raise InvalidArgumentError("measurement radius must be inside the cavity")
    extra = int(np.ceil(np.log(tol) / np.log(ratio)))
    return base + max(extra, 0)


@dataclass(frozen=True)
class ModeCoefficients:
    """Per-degree reflection/transmission coefficients for both families.

    ``reflection[fam][n-1]`` is the interior regular coefficient relative to a
    unit radiating incident coefficient; ``shell_coeffs[fam][n-1, s]`` holds
    the (regular, radiating) pair of shell s; ``exterior[fam][n-1]`` the
    radiating exterior coefficient.
    """

    config: LayeredCavityConfig
    reflection: dict = field(repr=False)
    shell_coeffs: dict = field(repr=False)
    exterior: dict = field(repr=False)


def _trace_pair(family: str, n, kind: int, k_med: float, A: float, r: float):
    """(tangential E, tangential A curl E) radial factors at radius r, as a
    complex array of shape (2, *n.shape) for an array of degrees n.

    Common geometric factors shared by both sides of an interface are
    dropped; only ratios across the interface matter.
    """
    t = k_med * r
    if kind == 1:
        z = spherical_jn(n, t)
        zp = spherical_jn(n, t, derivative=True)
    else:
        z = spherical_jn(n, t) + 1j * spherical_yn(n, t)
        zp = spherical_jn(n, t, derivative=True) + 1j * spherical_yn(
            n, t, derivative=True
        )
    psip = z + t * zp
    pair = (z, A * psip) if family == "TE" else (psip / k_med, A * k_med * z)
    return np.array(pair, dtype=complex)


def _inv2_apply(t1: np.ndarray, t3: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Solve [t1 t3] x = vec by Cramer's rule (columns are trace 2-vectors),
    elementwise over any trailing axes."""
    det = t1[0] * t3[1] - t3[0] * t1[1]
    num0 = vec[0] * t3[1] - t3[0] * vec[1]
    num1 = t1[0] * vec[1] - vec[0] * t1[1]
    # Where vec coincides with the radiating basis column, keep the
    # zero-contrast cancellation exact instead of round-tripping through
    # complex division.
    exact = (num0 == 0) & (num1 == det)
    return np.array([np.where(exact, 0.0, num0 / det), np.where(exact, 1.0, num1 / det)])


def solve_modes(config: LayeredCavityConfig) -> ModeCoefficients:
    """Solve the transmission problem for every degree and family.

    Per family the tangential trace pairs (E, A curl E) of all degrees are
    propagated across the shells by 2x2 transfer steps; this keeps each step
    well-conditioned (the per-shell basis determinant is a Wronskian) and
    makes the zero-contrast case an exact cancellation, so vacuum
    configurations return R_n = 0 to machine precision.
    """
    media = config.media()
    radii = config.interface_radii
    n_shells = len(config.shells)
    degrees = np.arange(1, config.n_max + 1)
    reflection, shell_coeffs, exterior, singular = {}, {}, {}, []
    for fam in FAMILIES:

        def trace(kind, region, r):
            return _trace_pair(fam, degrees, kind, *media[region], r)

        # y_n overflows at high degree, and the inf and NaN it makes spread
        # through the transfer steps into R_n, where the callers report them.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t1_cav, t3_cav = trace(1, 0, radii[0]), trace(3, 0, radii[0])
            shells = [
                (trace(1, s, radii[s - 1]), trace(3, s, radii[s - 1]),
                 trace(1, s, radii[s]), trace(3, s, radii[s]))
                for s in range(1, n_shells + 1)
            ]
            # Propagate the two interior basis traces (regular, radiating)
            # from the cavity boundary to the outermost interface.
            vec_reg, vec_rad = t1_cav, t3_cav
            for t1_in, t3_in, t1_out, t3_out in shells:
                ab = _inv2_apply(t1_in, t3_in, vec_reg)
                vec_reg = ab[0] * t1_out + ab[1] * t3_out
                ab = _inv2_apply(t1_in, t3_in, vec_rad)
                vec_rad = ab[0] * t1_out + ab[1] * t3_out
            # Exterior carries only the radiating basis: match
            # R vec_reg + vec_rad = gamma t3_ext at the outermost radius.
            t3_ext = trace(3, -1, radii[-1])
            det = vec_reg[0] * (-t3_ext[1]) - (-t3_ext[0]) * vec_reg[1]
            scale = np.maximum(np.abs(vec_reg).max(axis=0), 1e-300) * np.maximum(
                np.abs(t3_ext).max(axis=0), 1e-300
            )
            bad = degrees[np.abs(det) < scale / COND_LIMIT]
            if bad.size:
                singular.append((bad[0], FAMILIES.index(fam), fam))
            rhs = -vec_rad
            reflection[fam] = (rhs[0] * (-t3_ext[1]) - (-t3_ext[0]) * rhs[1]) / det
            exterior[fam] = (vec_reg[0] * rhs[1] - rhs[0] * vec_reg[1]) / det
            # Recover per-shell (regular, radiating) coefficients by forward
            # substitution of the combined interior trace.
            vec = t3_cav + reflection[fam] * t1_cav
            shell_coeffs[fam] = np.zeros((config.n_max, n_shells, 2), dtype=complex)
            for s, (t1_in, t3_in, t1_out, t3_out) in enumerate(shells):
                ab = _inv2_apply(t1_in, t3_in, vec)
                shell_coeffs[fam][:, s] = ab.T
                vec = ab[0] * t1_out + ab[1] * t3_out
    if singular:
        # The lowest failing degree, TE before TM within one degree.
        n, _, fam = min(singular)
        raise DegenerateConfigError(
            f"singular transmission system at degree n={n}, family {fam}"
        )
    return ModeCoefficients(
        config=config,
        reflection=reflection,
        shell_coeffs=shell_coeffs,
        exterior=exterior,
    )


def source_expansion(
    y: np.ndarray,
    p: np.ndarray,
    k: float,
    n_max: int,
    cavity_radius: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Radiating-expansion coefficients of the dipole field, valid for |x| > |y|.

    Returns (c_TE, c_TM) over the modes of ``specialfun.vswf_modes(n_max)``:
    c_nm = -k^2 conj(regular VSWF at y) . p.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    check_wavenumber(k)
    r = np.linalg.norm(y)
    if r < 1e-12:
        raise InvalidArgumentError(
            "source at the expansion center; offset the dipole from the origin"
        )
    if cavity_radius is not None and r >= cavity_radius:
        raise InvalidArgumentError("source must lie strictly inside the cavity")
    m1, n1 = sf.vswf_fields(y[None, :], k, n_max, 1)
    c_te = -(k**2) * (np.conj(m1[:, 0, :]) @ p)
    c_tm = -(k**2) * (np.conj(n1[:, 0, :]) @ p)
    return c_te, c_tm


def _mode_degrees(n_max: int) -> np.ndarray:
    return np.array([n for n, _ in sf.vswf_modes(n_max)])


def scattered_field(
    x: np.ndarray,
    y: np.ndarray,
    p: np.ndarray,
    config: LayeredCavityConfig,
    coeffs: ModeCoefficients | None = None,
) -> np.ndarray:
    """Scattered field E_s(x, y, p) inside the cavity; x may be (..., 3)."""
    if coeffs is None:
        coeffs = solve_modes(config)
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if np.any(np.linalg.norm(pts, axis=1) >= config.cavity_radius):
        raise InvalidArgumentError("evaluation points must lie inside the cavity")
    c_te, c_tm = source_expansion(y, p, config.k, config.n_max, config.cavity_radius)
    deg = _mode_degrees(config.n_max)
    m1, n1 = sf.vswf_fields(pts, config.k, config.n_max, 1)
    # Overflowed degrees make the field NaN; the warnings say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        w_te = coeffs.reflection["TE"][deg - 1] * c_te
        w_tm = coeffs.reflection["TM"][deg - 1] * c_tm
        out = np.einsum("q,qij->ij", w_te, m1) + np.einsum("q,qij->ij", w_tm, n1)
    return out.reshape(x.shape) if x.ndim > 1 else out[0]


def _region_field(
    points: np.ndarray,
    region: int,
    config: LayeredCavityConfig,
    coeffs: ModeCoefficients,
    c_te: np.ndarray,
    c_tm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(E, curl E) of the region's modal field, excluding the closed-form
    incident field in the interior region."""
    deg = _mode_degrees(config.n_max)
    media = config.media()
    k_med = media[region][0]
    n_shells = len(config.shells)

    def accum(kind, r_te, r_tm):
        """Fields of the modes with per-degree coefficients r_te, r_tm."""
        m_f, n_f = sf.vswf_fields(points, k_med, config.n_max, kind)
        # Degrees whose coefficients overflowed make the fields NaN, which
        # the residual reports; the warnings on the way say nothing more.
        with np.errstate(over="ignore", invalid="ignore"):
            w_te, w_tm = r_te[deg - 1] * c_te, r_tm[deg - 1] * c_tm
            e = np.einsum("q,qij->ij", w_te, m_f) + np.einsum("q,qij->ij", w_tm, n_f)
            # curl M = k N, curl N = k M
            c = k_med * (
                np.einsum("q,qij->ij", w_te, n_f) + np.einsum("q,qij->ij", w_tm, m_f)
            )
        return e, c

    if region == 0:
        return accum(1, coeffs.reflection["TE"], coeffs.reflection["TM"])
    if region == n_shells + 1:
        return accum(3, coeffs.exterior["TE"], coeffs.exterior["TM"])
    s = region - 1
    e = np.zeros((points.shape[0], 3), dtype=complex)
    c = np.zeros_like(e)
    for kind, col in ((1, 0), (3, 1)):
        ek, ck = accum(
            kind,
            coeffs.shell_coeffs["TE"][:, s, col],
            coeffs.shell_coeffs["TM"][:, s, col],
        )
        e += ek
        c += ck
    return e, c


def interface_residual(
    config: LayeredCavityConfig,
    y: np.ndarray,
    p: np.ndarray,
    samples: int = 20,
    seed: int = 0,
    coeffs: ModeCoefficients | None = None,
) -> float:
    """Max relative mismatch of tangential E and tangential A curl E across
    every interface, at `samples` random points per interface."""
    if coeffs is None:
        coeffs = solve_modes(config)
    c_te, c_tm = source_expansion(y, p, config.k, config.n_max, config.cavity_radius)
    rng = np.random.default_rng(seed)
    media = config.media()
    dip = Dipole(np.asarray(y, dtype=float), np.asarray(p, dtype=float))
    worst = 0.0
    for q, r in enumerate(config.interface_radii):
        dirs = rng.normal(size=(samples, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = r * dirs
        e_in, curl_in = _region_field(pts, q, config, coeffs, c_te, c_tm)
        if q == 0:
            e_in = e_in + incident_field(pts, dip, config.k)
            curl_in = curl_in + curl_incident_field(pts, dip, config.k)
        e_out, curl_out = _region_field(pts, q + 1, config, coeffs, c_te, c_tm)
        a_in, a_out = media[q][1], media[q + 1][1]
        for f_in, f_out in ((e_in, e_out), (a_in * curl_in, a_out * curl_out)):
            t_in = np.cross(dirs, f_in)
            t_out = np.cross(dirs, f_out)
            scale = max(
                np.max(np.linalg.norm(t_in, axis=1)),
                np.max(np.linalg.norm(t_out, axis=1)),
                1e-300,
            )
            # np.maximum, unlike max, carries a NaN through to the result.
            worst = np.maximum(
                worst, np.max(np.linalg.norm(t_out - t_in, axis=1)) / scale
            )
    return float(worst)


def maxwell_eigenvalue_margin(k: float, ball_radius: float, n_scan: int = 20) -> float:
    """Distance (in t = k rho) from k to the nearest Maxwell eigenvalue of the
    measurement ball of radius rho.

    TE eigenvalues satisfy j_n(k rho) = 0, TM eigenvalues psi_n'(k rho) = 0
    (n >= 1).  Zeros are located by sign-change scan plus root polishing on
    [0, k rho + 2 pi]; if none fall in that window the window half-width is
    returned, so the margin is a continuous, 1-Lipschitz function of k rho.
    """
    check_wavenumber(k)
    if ball_radius <= 0:
        raise InvalidArgumentError("ball_radius must be positive")
    t0 = k * ball_radius
    t_cap = t0 + 2 * np.pi
    grid = np.linspace(1e-6, t_cap, max(64, int(t_cap / 0.02)))
    margin = 2 * np.pi

    def nearest_zero(f):
        nonlocal margin
        vals = f(grid)
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in idx:
            root = brentq(f, grid[i], grid[i + 1], xtol=1e-12)
            margin = min(margin, abs(t0 - root))

    for n in range(1, n_scan + 1):
        if n > t_cap + 2:  # first zero of j_n, psi_n' lies above n
            break
        nearest_zero(lambda t, n=n: spherical_jn(n, t))
        nearest_zero(
            lambda t, n=n: spherical_jn(n, t)
            + t * spherical_jn(n, t, derivative=True)
        )
    return float(margin)
