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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError
from .green import check_wavenumber, incident_field, curl_incident_field, Dipole
from . import specialfun as sf

FAMILIES = ("TE", "TM")

# Condition-number ceiling for a (column-equilibrated) per-mode system.
COND_LIMIT = 1e12
# The series tail `data_truncation_order` leaves, and the seeded points on
# each interface of `interface_residual`.
DATA_SERIES_TOL = 1e-8
RESIDUAL_SAMPLES, RESIDUAL_SEED = 20, 0


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
        if not 1 <= self.n_max <= sf.ORDER_CAP:
            raise InvalidArgumentError(f"series order {self.n_max} is outside [1, {sf.ORDER_CAP}]")
        radii = [self.cavity_radius] + [s.outer_radius for s in self.shells]
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise InvalidArgumentError("shell radii must be strictly increasing")
        object.__setattr__(self, "shells", tuple(self.shells))
        self.media()  # refuses a shell whose effective wavenumber is not finite

    @property
    def interface_radii(self) -> np.ndarray:
        return np.array([self.cavity_radius] + [s.outer_radius for s in self.shells])

    def media(self) -> list[tuple[float, float]]:
        """(effective wavenumber, A) per region: interior, shells, exterior."""
        out = [(self.k, 1.0)]
        out += [(effective_wavenumber(s.A, s.N, self.k), s.A) for s in self.shells]
        out.append((self.k, 1.0))
        return out


def effective_wavenumber(A: float, N: float, k: float) -> float:
    """k sqrt(N/A) for a constant isotropic medium, which must be a positive
    finite number: N/A may overflow to inf or underflow to 0."""
    if A <= 0 or N <= 0:
        raise InvalidArgumentError("A and N must be positive")
    k_eff = check_wavenumber(k) * math.sqrt(N / A)  # Python floats: inf, not a warning
    if not 0 < k_eff < math.inf:
        raise InvalidArgumentError(
            f"k sqrt(N/A) = {k_eff} is not positive and finite at A = {A}, N = {N}")
    return k_eff


def truncation_order(cavity_radius: float, shells: tuple[Shell, ...], k: float) -> int:
    """Default series order: ceil(max effective wavenumber * outer radius) + 8."""
    k_eff = max([k] + [effective_wavenumber(s.A, s.N, k) for s in shells])
    r_max = shells[-1].outer_radius if shells else cavity_radius
    if not math.isfinite(k_eff * r_max):
        raise InvalidArgumentError(f"k sqrt(N/A) r is not finite at r = {r_max}")
    return math.ceil(k_eff * r_max) + 8


def data_truncation_order(
    cavity_radius: float,
    shells: tuple[Shell, ...],
    k: float,
    measurement_radius: float,
) -> int:
    """Series order for synthesizing data with sources and receivers at the
    measurement radius rho.

    The reflected field's series converges like (rho^2 / a^2)^n when both the
    source and the evaluation point sit on |x| = rho, so the default rule is
    extended until the geometric tail falls below ``DATA_SERIES_TOL``.
    """
    base = truncation_order(cavity_radius, shells, k)
    if not 0 < measurement_radius < cavity_radius:
        raise InvalidArgumentError("measurement radius must be inside the cavity")
    # A difference of logs: (rho/a)^2 itself underflows below rho/a ~ 1e-154.
    log_ratio = 2 * (np.log(measurement_radius) - np.log(cavity_radius))
    if log_ratio == 0:
        raise InvalidArgumentError(f"log(rho/a) rounds to 0 at rho = {measurement_radius!r}")
    extra = int(np.ceil(np.log(DATA_SERIES_TOL) / log_ratio))
    return base + max(extra, 0)


def tail_order(n_max: int) -> int:
    """The highest degree ``series_tail`` sums for data of order n_max:
    n_max + 5, clipped to the wavefunction order cap."""
    return min(n_max + 5, sf.ORDER_CAP)


def series_tail(config: LayeredCavityConfig, radius: float) -> float:
    """A bound on every entry that degrees n_max + 1 .. ``tail_order(n_max)``
    add to the data of order n_max, with sources and receivers on |x| = radius.

    Degree n adds -k^2 R_n sum_m (P_nm . e)(x) conj(P_nm . e')(y) per family.
    For every unit tangent e, sum_m |M_nm . e|^2 = (2n+1)/(8 pi) j_n(t)^2 and
    sum_m |N_nm . e|^2 = (2n+1)/(8 pi) (psi_n'(t)/t)^2 at t = k radius, the
    vector form of Unsold's theorem (Ann. Phys. 387, 355, 1927).  So by
    Cauchy-Schwarz no entry exceeds k^2 sum_n (2n+1)/(8 pi) (|R_n^TE| j_n^2 +
    |R_n^TM| (psi_n'/t)^2), the value returned; the diagonal entries reach
    it when the R_n share a phase.  At n_max = ``ORDER_CAP`` no degree is
    left, and the tail is NaN; a tail R_n that is not finite makes it NaN.
    """
    n_max, top = config.n_max, tail_order(config.n_max)
    if top == n_max:
        return float("nan")
    reflection = np.abs(solve_modes(replace(config, n_max=top)).reflection[:, n_max:])
    if not np.all(np.isfinite(reflection)):  # before the sum, which would warn
        return float("nan")
    # Rows 0 and 2 of the radial table, j_n and psi_n'/t, pair with TE and TM.
    # |R_n| z_n first: R_n grows as z_n^2 falls, and z_n^2 alone may underflow.
    z = np.abs(sf._radial_table(top, 1, np.array([config.k * radius]))[::2, n_max:, 0])
    weight = (2 * np.arange(n_max + 1, top + 1) + 1) / (8 * np.pi)
    return float(config.k**2 * np.sum(weight * (reflection * z * z)))


@dataclass(frozen=True)
class ModeCoefficients:
    """Per-degree modal coefficients of every region, for both families.

    ``table[region, family, kind, n-1]`` is the coefficient of the regular
    (kind index 0) or radiating (kind index 1) wavefunction of degree n in
    the region, relative to a unit radiating incident coefficient.  Regions
    run from the cavity, which holds (R_n, 0), through the shells from inner
    to outer, to the exterior, which holds (0, gamma_n); families follow
    ``FAMILIES``.  ``reflection[family, n-1]`` is R_n.  ``config`` is the
    configuration solved, from which every consumer reads k, n_max and the
    radii.
    """

    config: LayeredCavityConfig
    table: np.ndarray = field(repr=False)

    @property
    def reflection(self) -> np.ndarray:
        return self.table[0, :, 0]


def _trace_pair(family: str, kind: int, h: np.ndarray, t: float, k_med: float, A: float):
    """(tangential E, tangential A curl E) radial factors at t = k_med r for
    degrees 1..n_max, as a complex array of shape (2, n_max).  h holds
    h_0..h_{n_max}(t); the regular kind (1) takes its real part, j_n.

    Common geometric factors shared by both sides of an interface are
    dropped; only ratios across the interface matter.
    """
    z = h if kind == 3 else h.real
    n = np.arange(1, z.shape[0])
    zn = z[1:]
    zp = z[:-1] - (n + 1) * zn / t
    psip = zn + t * zp
    pair = (zn, A * psip) if family == "TE" else (psip / k_med, A * k_med * zn)
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

    Per family the exterior's radiating trace (E, A curl E) at the outermost
    radius, with gamma_n = 1, is carried inward by one 2x2 transfer step per
    shell, keeping each shell's (regular, radiating) pair.  Inward is the
    direction in which the radiating solution dominates, and each step's
    basis determinant is a Wronskian, so no step cancels digits.  The wall
    system R_n t1 + t3 = gamma_n vec at the cavity radius then gives
    (R_n, gamma_n), and the shell pairs are scaled by gamma_n.  Zero contrast
    makes every step an exact cancellation, so vacuum configurations return
    R_n = 0 exactly.
    """
    media = config.media()
    radii = config.interface_radii
    n_shells = len(config.shells)
    degrees = np.arange(1, config.n_max + 1)
    table = np.zeros((n_shells + 2, len(FAMILIES), 2, config.n_max), dtype=complex)
    # Region q meets radii q - 1 and q.  One kernel call gives h_n, and with
    # its real part j_n, at every (region, radius) the sweep visits.
    visits = [(q, i) for q in range(n_shells + 2) for i in (q - 1, q)
              if 0 <= i <= n_shells]
    t = np.array([media[q][0] * radii[i] for q, i in visits])
    h = sf.spherical_z(config.n_max, 3, t)
    singular = []
    for f, fam in enumerate(FAMILIES):

        def trace(kind, region, i):
            col = visits.index((region, i))
            return _trace_pair(fam, kind, h[:, col], t[col], *media[region])

        # y_n overflows at high degree, and the inf and NaN it makes spread
        # through the transfer steps into R_n, where the callers report them.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vec = trace(3, n_shells + 1, n_shells)
            for s in range(n_shells, 0, -1):
                ab = _inv2_apply(trace(1, s, s), trace(3, s, s), vec)
                table[s, f] = ab
                vec = ab[0] * trace(1, s, s - 1) + ab[1] * trace(3, s, s - 1)
            # With vec = x0 t1 + x1 t3, R_n = x0 / x1 and gamma_n = 1 / x1.
            # x1 is det over the Wronskian of (t1, t3), so the wall system is
            # singular where det vanishes.
            t1 = trace(1, 0, 0)
            det = t1[0] * vec[1] - vec[0] * t1[1]
            scale = np.maximum(np.abs(t1).max(axis=0), 1e-300) * np.maximum(
                np.abs(vec).max(axis=0), 1e-300
            )
            bad = degrees[np.abs(det) < scale / COND_LIMIT]
            if bad.size:
                singular.append((bad[0], f, fam))
            x = _inv2_apply(t1, trace(3, 0, 0), vec)
            table[0, f, 0] = x[0] / x[1]
            table[-1, f, 1] = 1 / x[1]
            table[1:-1, f] *= table[-1, f, 1]
    if singular:
        # The lowest failing degree, TE before TM within one degree.
        n, _, fam = min(singular)
        raise InvalidArgumentError(
            f"singular transmission system at degree n={n}, family {fam}"
        )
    return ModeCoefficients(config, table)


def source_expansion(
    y: np.ndarray,
    p: np.ndarray,
    k: float,
    n_max: int,
    cavity_radius: float,
) -> np.ndarray:
    """Radiating-expansion coefficients of the dipole field, valid for |x| > |y|.

    Returns c[family] over the modes in ``specialfun.mode_index(n_max)``
    order, an array of shape (2, n_modes) with families in ``FAMILIES`` order:
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
    if r >= cavity_radius:
        raise InvalidArgumentError("source must lie strictly inside the cavity")
    m1, n1 = sf.vswf_fields(y[None, :], k, n_max, 1)
    return -(k**2) * np.array([np.conj(m1[:, 0, :]) @ p, np.conj(n1[:, 0, :]) @ p])


def scattered_field(
    x: np.ndarray, y: np.ndarray, p: np.ndarray, modes: ModeCoefficients
) -> np.ndarray:
    """Scattered field E_s(x, y, p) inside the cavity; x may be (..., 3)."""
    config = modes.config
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    if np.any(np.linalg.norm(pts, axis=1) >= config.cavity_radius):
        raise InvalidArgumentError("evaluation points must lie inside the cavity")
    c = source_expansion(y, p, config.k, config.n_max, config.cavity_radius)
    out = _region_fields(pts, (0,), modes, c)[0][0]
    return out.reshape(x.shape) if x.ndim > 1 else out[0]


def _region_fields(
    points: np.ndarray, regions: tuple[int, ...], modes: ModeCoefficients, c: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(E, curl E) of each region's modal field at the points for source
    coefficients c, excluding the closed-form incident field in the cavity.

    A region's coefficients depend on the degree only, so each field is
    sum_n of its radial factors times the sums over m of the angular ones
    weighted by c, for the unit vectors that, phat and rhat; the regions and
    both kinds share those sums and one Legendre table.  With the sums
    A_f, B_f, Y_f of a, b and lambda P e^{im phi} (``specialfun``) weighted
    by c_f, and family coefficients e_f of one kind,
    sum_m c_f M_nm = z/s (A_f that - B_f phat) and
    sum_m c_f N_nm = psi'/t/s (B_f that + A_f phat) + s z/t Y_f rhat,
    and curl M = k N, curl N = k M.
    """
    n_max = modes.config.n_max
    ang = sf.angular_factors(points, n_max)
    # Degree n holds mode rows n^2 - 1 .. n^2 + 2n - 1.
    starts = np.arange(1, n_max + 1) ** 2 - 1
    angular = np.stack([ang.a, ang.b, ang.lam_p * ang.phase])
    (a_te, b_te, y_te), (a_tm, b_tm, y_tm) = (
        np.add.reduceat(angular * c_f[:, None], starts, axis=1) for c_f in c)
    frame = np.stack([ang.that, ang.phat, ang.rhat], axis=1)
    out = []
    for region in regions:
        k_med = modes.config.media()[region][0]
        e = np.zeros((3, points.shape[0]), dtype=complex)
        curl = np.zeros_like(e)
        for col, kind in enumerate((1, 3)):
            coef = modes.table[region, :, col, :, None]
            if not np.any(coef):
                continue
            te, tm = coef
            # Degrees past y_n's overflow, or whose coefficients overflowed,
            # make the fields NaN, which the callers report; the warnings on
            # the way say nothing more.
            with np.errstate(over="ignore", invalid="ignore"):
                z_s, psi_s, z_t = sf.radial_factors(n_max, kind, k_med, ang.r)
                m_te, n_te = te * z_s, te * psi_s
                m_tm, n_tm = tm * z_s, tm * psi_s
                e += np.sum([m_te * a_te + n_tm * b_tm, n_tm * a_tm - m_te * b_te,
                             tm * z_t * y_tm], axis=1)
                curl += k_med * np.sum([n_te * b_te + m_tm * a_tm, n_te * a_te - m_tm * b_tm,
                                        te * z_t * y_te], axis=1)
        out.append((np.einsum("cp,pcj->pj", e, frame), np.einsum("cp,pcj->pj", curl, frame)))
    return out


def interface_residual(modes: ModeCoefficients, y: np.ndarray, p: np.ndarray) -> float:
    """Max relative mismatch of tangential E and tangential A curl E across
    every interface, at ``RESIDUAL_SAMPLES`` seeded random points on each."""
    config = modes.config
    c = source_expansion(y, p, config.k, config.n_max, config.cavity_radius)
    rng = np.random.default_rng(RESIDUAL_SEED)
    media = config.media()
    dip = Dipole(np.asarray(y, dtype=float), np.asarray(p, dtype=float))
    worst = 0.0
    for q, r in enumerate(config.interface_radii):
        dirs = rng.normal(size=(RESIDUAL_SAMPLES, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = r * dirs
        (e_in, curl_in), (e_out, curl_out) = _region_fields(pts, (q, q + 1), modes, c)
        if q == 0:
            e_in = e_in + incident_field(pts, dip, config.k)
            curl_in = curl_in + curl_incident_field(pts, dip, config.k)
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


def maxwell_eigenvalue_margin(k: float, ball_radius: float) -> float:
    """Distance (in t = k rho) from k to the nearest Maxwell eigenvalue of the
    measurement ball of radius rho, up to 2 pi.

    TE eigenvalues satisfy j_n(k rho) = 0, TM eigenvalues psi_n'(k rho) = 0,
    with psi_n(t) = t j_n(t).  Below t = sqrt(n(n+1)) psi_n'' has the sign
    of psi_n, which starts positive, so neither function has a zero there:
    degrees 1..floor(k rho + 2 pi) (at most ``ORDER_CAP``) hold every zero
    within 2 pi of k rho.  Zeros are located by sign-change scan of j_n and
    psi_n'/t on [k rho - 2 pi, k rho + 2 pi], and the brackets that can hold
    the nearest zero are polished together by bisection; if none fall in
    that window the window half-width is returned, so the margin is a
    continuous, 1-Lipschitz function of k rho.
    """
    check_wavenumber(k)
    if ball_radius <= 0:
        raise InvalidArgumentError("ball_radius must be positive")
    t0 = k * ball_radius
    t_lo, t_hi = max(1e-6, t0 - 2 * np.pi), t0 + 2 * np.pi
    n_max = min(int(t_hi), sf.ORDER_CAP)
    grid = np.linspace(t_lo, t_hi, max(64, int((t_hi - t_lo) / 0.02)))
    # Rows 0 and 2 of the radial table: j_n and psi_n'/t, (2, degrees, points).
    sign = np.sign(sf._radial_table(n_max, 1, grid)[::2])
    fam, deg, i = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
    # A bracket can hold the nearest zero only if its near end is no farther
    # from t0 than the far end of every bracket.
    near = np.maximum(np.maximum(grid[i] - t0, t0 - grid[i + 1]), 0.0)
    far = np.maximum(t0 - grid[i], grid[i + 1] - t0)
    fam, deg, i = (a[near <= np.min(far, initial=np.inf)] for a in (fam, deg, i))
    lo, hi, sign_lo = grid[i], grid[i + 1], sign[fam, deg, i]
    bracket = np.arange(i.size)
    for _ in range(64):  # halves every bracket down to adjacent doubles
        mid = 0.5 * (lo + hi)
        sign_mid = np.sign(sf._radial_table(n_max, 1, mid)[2 * fam, deg, bracket])
        left = sign_mid != sign_lo
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    return float(np.min(np.abs(t0 - lo), initial=2 * np.pi))
