"""Special-function layer: radial functions, normalized Legendre functions,
and vector spherical wavefunctions checked against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, lpmv, spherical_jn, spherical_yn

from nfem import specialfun as sf
from nfem.errors import InvalidArgumentError, SingularPointError


def series_spherical_jn(n: int, t: float, terms: int = 60) -> float:
    """Taylor-series oracle: j_n(t) = t^n sum_m (-t^2/2)^m / (m! (2n+2m+1)!!)."""
    total = 0.0
    term = 1.0
    for m in range(terms):
        dfact = 1.0
        for q in range(2 * n + 2 * m + 1, 0, -2):
            dfact *= q
        total += term / dfact
        term *= -t * t / 2.0 / (m + 1)
    return t**n * total


def mp_spherical_bessel(n_max: int, t: float) -> tuple[list, list]:
    """j_n(t) and y_n(t) for n = 0..n_max as mpmath numbers at 60 digits:
    y_n by its upward recurrence from y_0 = -cos t/t, j_n by Miller's
    downward recurrence from far above n_max and t, normalized on the larger
    of j_0 = sin t/t and j_1.  mpmath's exponent range holds every value."""
    with mp.workdps(60):
        t = mp.mpf(t)
        s, c = mp.sin(t), mp.cos(t)
        y = [-c / t, -c / t**2 - s / t]
        for n in range(1, n_max):
            y.append((2 * n + 1) / t * y[n] - y[n - 1])
        top = n_max + int(t) + 40 + int(20 * mp.cbrt(t + 1))
        f = [mp.mpf(0)] * (top + 2)
        f[top] = mp.mpf(1)
        for n in range(top, 0, -1):
            f[n - 1] = (2 * n + 1) / t * f[n] - f[n + 1]
        j0, j1 = s / t, s / t**2 - c / t
        scale = j0 / f[0] if abs(j0) > abs(j1) else j1 / f[1]
        return [+(v * scale) for v in f[: n_max + 1]], [+v for v in y[: n_max + 1]]


def radial(n_max: int, kind: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """z_n(t) and z_n'(t) for n = 0..n_max read off the kernel's table of
    z_n, z_n/t and psi_n'/t (n >= 1), with z_0 = psi_1'/t + z_1/t, z_0' = -z_1
    and z_n' = psi_n'/t - z_n/t."""
    z, z_t, psip_t = sf._radial_table(n_max, kind, np.array([float(t)]))[..., 0]
    return np.r_[psip_t[0] + z_t[0], z], np.r_[-z[0], psip_t - z_t]


class TestRadial:
    def test_bessel_matches_taylor_series(self):
        j, _ = radial(8, 1, 2.0)
        for n in range(9):
            assert j[n] == pytest.approx(series_spherical_jn(n, 2.0), rel=1e-12)

    def test_hankel_low_order_closed_forms(self):
        t = 1.7
        h, hp = radial(1, 3, t)
        # h_0(t) = -i e^{it}/t, h_1(t) = -(1 + i/t) e^{it}/t
        assert h[0] == pytest.approx(-1j * np.exp(1j * t) / t, rel=1e-14)
        assert h[1] == pytest.approx(
            -(1 + 1j / t) * np.exp(1j * t) / t, rel=1e-14
        )
        # d/dt h_1 = -(i/t - 2/t^2 - 2i/t^3) e^{it}
        assert hp[1] == pytest.approx(
            -(1j / t - 2 / t**2 - 2j / t**3) * np.exp(1j * t), rel=1e-14
        )

    def test_wronskian_identity(self):
        # j_n(t) y_n'(t) - j_n'(t) y_n(t) = 1/t^2, with y_n = Im h_n.
        for t in (0.3, 1.0, 4.7, 21.0):
            j, jp = radial(12, 1, t)
            h, hp = radial(12, 3, t)
            w = j * hp.imag - jp * h.imag
            assert np.max(np.abs(w - 1.0 / t**2)) < 1e-10 / t**2

    def test_recurrence_residual(self):
        # (2n+1) z_n(t) = t (z_{n-1}(t) + z_{n+1}(t))
        t = 3.1
        n = np.arange(1, 15)
        for kind in (1, 3):
            z, _ = radial(15, kind, t)
            lhs = (2 * n + 1) * z[n]
            rhs = t * (z[n - 1] + z[n + 1])
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))

    def test_riccati_consistency(self):
        # psi_n(t) = t z_n(t) and psi_n'(t) = z_n(t) + t z_n'(t), against
        # scipy's functions and derivatives.
        t = 2.6
        n = np.arange(1, 7)
        for kind in (1, 3):
            z, z_t, psip_t = sf._radial_table(6, kind, np.array([t]))[..., 0]
            i_y = 1j if kind == 3 else 0.0
            want = spherical_jn(n, t) + i_y * spherical_yn(n, t)
            want_p = (spherical_jn(n, t, derivative=True)
                      + i_y * spherical_yn(n, t, derivative=True))
            assert np.allclose(t * z, t * want, rtol=1e-14)
            assert np.allclose(t * z_t, z, rtol=1e-14)
            assert np.allclose(t * psip_t, want + t * want_p, rtol=1e-13)

    def test_order_cap(self):
        with pytest.raises(InvalidArgumentError):
            sf.vswf_fields(np.ones((1, 3)), 1.0, sf.ORDER_CAP + 1, 1)


# A log grid over the arguments the kernel promises to cover.
KERNEL_T = np.geomspace(1e-6, 250.0, 97)


def _mp_doubles(rows) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows])


@pytest.fixture(scope="module")
def mp_radial():
    """mpmath's z_n, z_n/t and psi_n'/t on KERNEL_T up to ORDER_CAP, for
    z = j and z = y, each formed at 60 digits and rounded once; with the
    moduli |h_n|, |h_n|/t and |h_{n-1} - n h_n/t| of the same three."""
    n_cap = sf.ORDER_CAP
    values = {"j": [[], [], []], "y": [[], [], []]}
    moduli = [[], [], []]
    for t in KERNEL_T:
        j, y = mp_spherical_bessel(n_cap, t)
        with mp.workdps(60):
            t = mp.mpf(t)
            for name, z in (("j", j), ("y", y)):
                rows = values[name]
                rows[0].append(z)
                rows[1].append([z[n] / t for n in range(1, n_cap + 1)])
                rows[2].append([z[n - 1] - n * z[n] / t for n in range(1, n_cap + 1)])
            h = [mp.mpc(a, b) for a, b in zip(j, y)]
            moduli[0].append([abs(v) for v in h])
            moduli[1].append([abs(h[n]) / t for n in range(1, n_cap + 1)])
            moduli[2].append([abs(h[n - 1] - n * h[n] / t) for n in range(1, n_cap + 1)])
    values = {name: [_mp_doubles(r).T for r in rows] for name, rows in values.items()}
    return values, [_mp_doubles(r).T for r in moduli]


def assert_matches_mpmath(got, want, modulus, z_n, first_degree):
    """got against mpmath's want, rows of degree first_degree.. over KERNEL_T.

    Below degree t none of j_n, y_n, psi_n' and chi_n' has a zero (the first
    lies above n + 1/2), so the error is taken relative to the value.  From
    t = n on they oscillate, and near a zero any value formed in double
    precision is off by a few ulps of the modulus, so there the scale is the
    larger of the value and the modulus.  Where mpmath puts the value, or the
    z_n it is formed from, outside the double range, got must be the
    infinity of the value's sign; nowhere may it be NaN.
    """
    degree = np.arange(first_degree, first_degree + len(want))[:, None]
    assert not np.any(np.isnan(got))
    finite = np.isfinite(want) & np.isfinite(z_n)
    assert np.all(np.isfinite(got[finite]))
    assert np.array_equal(got[~finite], np.copysign(np.inf, want[~finite]))
    normal = finite & (np.abs(want) >= np.finfo(float).tiny)
    scale = np.where(KERNEL_T >= degree, np.maximum(np.abs(want), modulus), np.abs(want))
    err = np.abs(got[normal] - want[normal]) / scale[normal]
    assert np.max(err) <= 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRadialKernel:
    """spherical_z and the radial table against mpmath, at every degree up to
    ORDER_CAP and t from 1e-6 to 250, without a numpy warning."""

    def test_oracle_matches_mpmath_bessel(self):
        # The recurrence oracle against mpmath's Bessel functions of
        # half-integer order, including a deep underflow and a zero of j_0.
        for n, t in [(0, 3.141592653589793), (1, 4.4934094579), (37, 40.1),
                     (150, 120.0), (200, 1e-6), (200, 250.0)]:
            j, y = mp_spherical_bessel(200, t)
            with mp.workdps(60):
                pre = mp.sqrt(mp.pi / (2 * mp.mpf(t)))
                want_j = pre * mp.besselj(n + mp.mpf(1) / 2, t)
                want_y = pre * mp.bessely(n + mp.mpf(1) / 2, t)
                assert abs(j[n] - want_j) <= mp.mpf(10) ** -45 * abs(want_j)
                assert abs(y[n] - want_y) <= mp.mpf(10) ** -45 * abs(want_y)

    def test_kernel_matches_mpmath(self, mp_radial):
        values, moduli = mp_radial
        h = sf.spherical_z(sf.ORDER_CAP, 3, KERNEL_T)
        assert np.array_equal(sf.spherical_z(sf.ORDER_CAP, 1, KERNEL_T), h.real)
        assert_matches_mpmath(h.real, values["j"][0], moduli[0], values["j"][0], 0)
        assert_matches_mpmath(h.imag, values["y"][0], moduli[0], values["y"][0], 0)

    @pytest.mark.parametrize("kind", [1, 3])
    def test_radial_table_matches_mpmath(self, mp_radial, kind):
        # z_n, z_n/t and psi_n'/t: the real part from j_n, the imaginary part
        # of the radiating kind from y_n.
        values, moduli = mp_radial
        table = sf._radial_table(sf.ORDER_CAP, kind, KERNEL_T)
        parts = [("j", table.real)] + ([("y", table.imag)] if kind == 3 else [])
        for name, got in parts:
            z_n = values[name][0][1:]
            for row in range(3):
                want = z_n if row == 0 else values[name][row]
                modulus = moduli[row][1:] if row == 0 else moduli[row]
                assert_matches_mpmath(got[row], want, modulus, z_n, 1)


def legendre_recurrence(n_max: int, m: int, x: float) -> list[float]:
    """Unnormalized P_n^m(x) by the standard upward recurrence (with the
    Condon-Shortley phase), an oracle independent of the library path."""
    pmm = 1.0
    somx2 = math.sqrt((1.0 - x) * (1.0 + x))
    fact = 1.0
    for _ in range(m):
        pmm *= -fact * somx2
        fact += 2.0
    out = {m: pmm}
    if n_max > m:
        out[m + 1] = x * (2 * m + 1) * pmm
    for n in range(m + 2, n_max + 1):
        out[n] = ((2 * n - 1) * x * out[n - 1] - (n + m - 1) * out[n - 2]) / (n - m)
    return [out[n] for n in range(m, n_max + 1)]


def norm_factor(n: int, m: int) -> float:
    return math.sqrt(
        (2 * n + 1) / (4 * math.pi) * math.factorial(n - m) / math.factorial(n + m)
    )


def legendre(n_max: int, x) -> np.ndarray:
    """Unnormalized P_n^m(x) for 0 <= m <= n <= n_max, shape (n_max+1, n_max+1,
    len(x)), from the kernel's table of lambda_nm P_n^m (over sin theta, m >= 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sin_t = np.sqrt((1.0 - x) * (1.0 + x))
    lam = np.array([[norm_factor(n, m) if m <= n else 1.0 for m in range(n_max + 1)]
                    for n in range(n_max + 1)])
    scale = np.where(np.arange(n_max + 1)[:, None] >= 1, sin_t, 1.0)
    return sf._legendre_table(x, sin_t, n_max) * scale / lam[:, :, None]


def vswf_modes(n_max: int) -> list[tuple[int, int]]:
    """Mode enumeration (n, m), n = 1..n_max, m = -n..n: the list that
    ``sf.mode_index`` replaced, kept as its oracle."""
    return [(n, m) for n in range(1, n_max + 1) for m in range(-n, n + 1)]


def tau_pi(n: int, m: int, theta: np.ndarray, k: float = 0.9, r: float = 0.8):
    """tau = lambda_nm dP_n^m/dtheta and pi = lambda_nm m P_n^m / sin theta
    (m >= 0) at polar angles theta, read off M_nm = z s (i pi that - tau phat)
    e^{i m phi} at phi = 0, where phat = (0, 1, 0)."""
    q = vswf_modes(n).index((n, m))
    zs = spherical_jn(n, k * r) / math.sqrt(n * (n + 1))
    pts = r * np.stack([np.sin(theta), 0 * theta, np.cos(theta)], axis=1)
    m_f = sf.vswf_fields(pts, k, n, 1)[0][q]
    that = np.stack([np.cos(theta), 0 * theta, -np.sin(theta)], axis=1)
    return -m_f[:, 1] / zs, np.sum(m_f * that, axis=1) / (1j * zs)


class TestLegendre:
    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_matches_recurrence_oracle(self, m):
        xs = np.linspace(-0.999, 0.999, 100)
        table = legendre(12, xs)
        for n in range(max(m, 1), 13):
            got = table[n, m]
            want = np.array(
                [legendre_recurrence(n, m, x)[n - m] for x in xs]
            )
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got - want)) < 1e-11 * scale

    def test_theta_derivative_finite_difference(self):
        # tau / lambda from the wavefunctions against a central difference
        # of the table's P_n^m.
        eps = 1e-6
        thetas = np.array([0.4, 1.1, 2.3])
        for n, m in [(1, 0), (3, 1), (5, 2), (8, 4)]:
            dp = tau_pi(n, m, thetas)[0] / norm_factor(n, m)
            fd = (legendre(n, np.cos(thetas + eps))[n, m]
                  - legendre(n, np.cos(thetas - eps))[n, m]) / (2 * eps)
            for got, want in zip(dp, fd):
                assert got.real == pytest.approx(want, rel=1e-7, abs=1e-9)
                assert got.imag == 0.0

    def test_pole_values(self):
        # m = 0 is regular at the poles; m >= 2 vanishes together with its
        # theta-derivative, so tau and pi vanish on the axis.
        assert legendre(3, 1.0)[3, 0, 0] == pytest.approx(1.0, rel=1e-14)  # P_n(1) = 1
        assert tau_pi(3, 0, np.zeros(1))[0][0] == pytest.approx(0.0, abs=1e-14)
        for f in tau_pi(3, 2, np.zeros(1)):
            assert f[0] == pytest.approx(0.0, abs=1e-14)
        # m = 1 at either pole: the central difference just inside it.
        eps = 1e-6
        for n in (1, 2, 3, 6):
            for theta in (0.0, math.pi):
                inner = theta - eps if theta else theta + eps
                fd = (legendre(n, math.cos(inner + eps))[n, 1, 0]
                      - legendre(n, math.cos(inner - eps))[n, 1, 0]) / (2 * eps)
                dp = tau_pi(n, 1, np.array([theta]))[0][0] / norm_factor(n, 1)
                assert dp == pytest.approx(fd, rel=1e-4)

    def test_tangential_functions_pole_limits(self):
        # For m = 1 both tau and pi tend to -lambda n(n+1)/2 at the north pole
        # (and to -/+ (-1)^n times that at the south pole); read them off M_{n,1}
        # on the axis and 1e-4 off it.
        eps = 1e-4
        for n in (3, 10):
            lam = math.sqrt((2 * n + 1) / (4 * math.pi * n * (n + 1)))
            for pole in (1.0, -1.0):
                theta = np.array([0.0, eps]) if pole > 0 else np.array([np.pi, np.pi - eps])
                tau, pi_f = tau_pi(n, 1, theta)
                assert tau[0] == pytest.approx(tau[1], rel=1e-6)
                assert pi_f[0] == pytest.approx(pi_f[1], rel=1e-6)
                base = -lam * n * (n + 1) / 2.0
                sign = 1.0 if pole > 0 else (-1.0) ** n
                assert tau[0] == pytest.approx(sign * base, rel=1e-13)
                assert pi_f[0] == pytest.approx(sign * pole * base, rel=1e-13)


def fd_curl(f, x, eps=1e-5):
    """Second-order finite-difference curl of a vector field f: R^3 -> C^3."""
    jac = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        step = np.zeros(3)
        step[j] = eps
        jac[:, j] = (f(x + step) - f(x - step)) / (2 * eps)
    return np.array(
        [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]
    )


def fd_div(f, x, eps=1e-5):
    out = 0.0
    for j in range(3):
        step = np.zeros(3)
        step[j] = eps
        out += (f(x + step)[j] - f(x - step)[j]) / (2 * eps)
    return out


def wavefunction(which: str, kind: int, n: int, m: int, k: float):
    """x -> M_nm(x) or N_nm(x) (which = "M" or "N") at one point, by vswf_fields."""
    q, family = vswf_modes(n).index((n, m)), "MN".index(which)
    return lambda x: sf.vswf_fields(np.asarray(x)[None, :], k, n, kind)[family][q, 0]


class TestVswf:
    K = 0.9
    POINTS = [np.array(p) for p in [(0.7, -0.4, 0.9), (1.3, 0.2, -0.5)]]

    def field(self, which, n, m, kind):
        return wavefunction(which, kind, n, m, self.K)

    @pytest.mark.parametrize("kind", [1, 3])
    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, -2), (4, 4)])
    def test_divergence_free(self, n, m, kind):
        for x in self.POINTS:
            for which in ("M", "N"):
                f = self.field(which, n, m, kind)
                scale = max(np.max(np.abs(f(x))), 1e-12)
                assert abs(fd_div(f, x)) < 5e-6 * self.K * scale

    @pytest.mark.parametrize("kind", [1, 3])
    @pytest.mark.parametrize("n,m", [(1, 1), (2, -1), (3, 2)])
    def test_curl_relations(self, n, m, kind):
        # curl M = k N and curl N = k M
        for x in self.POINTS:
            fm = self.field("M", n, m, kind)
            fn = self.field("N", n, m, kind)
            scale = max(np.max(np.abs(fn(x))), np.max(np.abs(fm(x))), 1e-12)
            assert np.max(np.abs(fd_curl(fm, x) - self.K * fn(x))) < 1e-5 * scale
            assert np.max(np.abs(fd_curl(fn, x) - self.K * fm(x))) < 1e-5 * scale

    def test_curl_curl_eigenrelation(self):
        # curl curl M = k^2 M via the two first-order relations; checked
        # directly with a nested finite difference at looser tolerance.
        n, m, kind = 2, 1, 1
        fm = self.field("M", n, m, kind)
        x = self.POINTS[0]
        cc = fd_curl(lambda p: fd_curl(fm, p, eps=1e-4), x, eps=1e-4)
        want = self.K**2 * fm(x)
        assert np.max(np.abs(cc - want)) < 1e-4 * max(np.max(np.abs(want)), 1e-12)

    def test_m_field_tangential(self):
        for x in self.POINTS:
            for n, m in [(1, 0), (3, 2)]:
                val = self.field("M", n, m, 1)(x)
                assert abs(val @ x) < 1e-13 * np.linalg.norm(x)

    def test_conjugation_symmetry(self):
        # Regular VSWFs obey conj(F_{n,m}) = (-1)^m F_{n,-m}.
        x = self.POINTS[0]
        for n, m in [(2, 1), (3, 3), (4, 2)]:
            sign = (-1.0) ** m
            for fam in ("M", "N"):
                a = self.field(fam, n, m, 1)(x)
                b = self.field(fam, n, -m, 1)(x)
                assert np.allclose(np.conj(a), sign * b, atol=1e-14)

    def test_batch_matches_single(self):
        pts = np.array(self.POINTS)
        m_all, n_all = sf.vswf_fields(pts, self.K, 3, 1)
        modes = vswf_modes(3)
        for q, (n, m) in enumerate(modes):
            for i, x in enumerate(self.POINTS):
                assert np.allclose(m_all[q, i], self.field("M", n, m, 1)(x), atol=1e-15)
                assert np.allclose(n_all[q, i], self.field("N", n, m, 1)(x), atol=1e-15)

    def test_mode_ordering(self):
        modes = vswf_modes(2)
        assert modes == [(1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]

    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, sf.ORDER_CAP])
    def test_mode_index_matches_enumeration(self, n_max):
        deg, order = sf.mode_index(n_max)
        assert list(zip(deg.tolist(), order.tolist())) == vswf_modes(n_max)

    def test_origin_rejected_for_radiating(self):
        with pytest.raises(SingularPointError):
            sf.vswf_fields(np.zeros((1, 3)), self.K, 1, 3)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_not_positive_and_finite_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match="wavenumber"):
            sf.vswf_fields(np.ones((1, 3)), k, 1, 1)


def _norm_factor(n, m):
    """sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!)."""
    return np.sqrt((2 * n + 1) / (4 * np.pi) * np.exp(gammaln(n - m + 1) - gammaln(n + m + 1)))


def _tau_pi(n, m, cos_t, sin_t):
    """lambda_nm d/dtheta P_n^m and lambda_nm m P_n^m / sin theta for m >= 0,
    from lpmv, with the analytic limits on the polar axis."""
    lam = _norm_factor(n, m)
    tau = np.zeros_like(cos_t)
    pi_f = np.zeros_like(cos_t)
    on_pole = sin_t < 1e-13
    off = ~on_pole
    if np.any(off):
        x, s = cos_t[off], sin_t[off]
        p = lpmv(m, n, x)
        p_prev = lpmv(m, n - 1, x) if n - 1 >= m else np.zeros_like(x)
        tau[off] = -lam * ((n + m) * p_prev - n * x * p) / s
        pi_f[off] = lam * m * p / s
    if np.any(on_pole) and m == 1:
        north = on_pole & (cos_t > 0)
        south = on_pole & (cos_t < 0)
        base = -lam * n * (n + 1) / 2.0
        tau[north] = base
        pi_f[north] = base
        # P_n^1(-x) = (-1)^(n+1) P_n^1(x), and d/dtheta changes sign.
        tau[south] = ((-1.0) ** n) * base
        pi_f[south] = -((-1.0) ** n) * base
    # m = 0 and m >= 2: both limits vanish on the axis.
    return tau, pi_f


def _radial_parts(n, kind, t):
    """z_n(t), z_n(t)/t and psi_n'(t)/t with the regular t->0 limit for kind 1."""
    z_over_t = np.empty_like(t, dtype=complex)
    psip_over_t = np.empty_like(t, dtype=complex)
    z = np.empty_like(t, dtype=complex)
    small = t < 1e-6
    big = ~small
    if np.any(big):
        tb = t[big]
        if kind == 1:
            zb = spherical_jn(n, tb)
            zpb = spherical_jn(n, tb, derivative=True)
        else:
            zb = spherical_jn(n, tb) + 1j * spherical_yn(n, tb)
            zpb = spherical_jn(n, tb, derivative=True) + 1j * spherical_yn(
                n, tb, derivative=True
            )
        z[big] = zb
        z_over_t[big] = zb / tb
        psip_over_t[big] = (zb + tb * zpb) / tb
    if np.any(small):
        ts = t[small]
        # j_n(t) ~ t^n / (2n+1)!!
        dfact = float(math.prod(range(2 * n + 1, 0, -2)))
        z[small] = ts**n / dfact
        z_over_t[small] = ts ** (n - 1) / dfact
        psip_over_t[small] = (n + 1) * ts ** (n - 1) / dfact
    return z, z_over_t, psip_over_t


def vswf_fields_oracle(points, k, n_max, kind):
    """All M and N wavefunctions, one (n, m) at a time from lpmv: the
    per-mode construction that vswf_fields replaced."""
    pts, r, cos_t, sin_t, phi, rhat, that, phat = sf._spherical_frame(points)
    modes = vswf_modes(n_max)
    m_fields = np.zeros((len(modes), pts.shape[0], 3), dtype=complex)
    n_fields = np.zeros_like(m_fields)
    for idx, (n, m) in enumerate(modes):
        z, z_over_t, psip_over_t = _radial_parts(n, kind, k * r)
        s = 1.0 / np.sqrt(n * (n + 1))
        ma = abs(m)
        tau, pi_f = _tau_pi(n, ma, cos_t, sin_t)
        lam_p = _norm_factor(n, ma) * lpmv(ma, n, cos_t)
        if m < 0:
            # lambda_{n,-m} P_n^{-m} = (-1)^m lambda_nm P_n^m flips pi's sign
            # through the factor m.
            sgn = (-1.0) ** ma
            tau, pi_f, lam_p = sgn * tau, -sgn * pi_f, sgn * lam_p
        e_imphi = np.exp(1j * m * phi)
        b_t = s * tau * e_imphi
        b_p = 1j * s * pi_f * e_imphi
        y_nm = lam_p * e_imphi
        m_fields[idx] = z[:, None] * (b_p[:, None] * that - b_t[:, None] * phat)
        n_fields[idx] = (
            (np.sqrt(n * (n + 1)) * z_over_t * y_nm)[:, None] * rhat
            + psip_over_t[:, None] * (b_t[:, None] * that + b_p[:, None] * phat)
        )
    return m_fields, n_fields


class TestVswfKernel:
    """The all-(n, m) recurrence kernel against the per-mode lpmv oracle, and
    its identities at degrees where lpmv overflows."""

    @pytest.mark.parametrize("kind", [1, 3])
    @pytest.mark.parametrize("n_max", [1, 6, 40])
    def test_matches_lpmv_oracle(self, n_max, kind):
        rng = np.random.default_rng(n_max + 10 * kind)
        dirs = rng.normal(size=(24, 3))
        pts = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        pts *= rng.uniform(0.2, 2.5, size=(24, 1))
        axis = [[0.0, 0.0, 0.9], [0.0, 0.0, -1.7]]
        pts = np.vstack([pts, axis] + ([[[0.0, 0.0, 0.0]]] if kind == 1 else []))
        got = sf.vswf_fields(pts, 0.9, n_max, kind)
        want = vswf_fields_oracle(pts, 0.9, n_max, kind)
        for g, w in zip(got, want):
            err = np.abs(g - w).reshape(len(g), -1).max(axis=1)
            scale = np.abs(w).reshape(len(w), -1).max(axis=1)
            assert np.all(err <= 1e-12 * scale)

    def test_axis_point_ignores_sign_of_zero(self):
        # (-0.0, 0, z) is the same point as (0, 0, z).
        pts = np.array([[0.0, 0.0, 0.8], [-0.0, 0.0, 0.8], [-0.0, -0.0, -0.8], [0.0, 0.0, -0.8]])
        m_f, n_f = sf.vswf_fields(pts, 0.9, 4, 1)
        for f in (m_f, n_f):
            assert np.array_equal(f[:, 0], f[:, 1]) and np.array_equal(f[:, 2], f[:, 3])

    @pytest.mark.parametrize("kind", [1, 3])
    def test_finite_at_order_cap(self, kind):
        # j_n underflows gracefully, down to the origin; h_n of degree
        # ORDER_CAP exceeds the double range below t of about 4.3, so kind 3
        # is sampled beyond that.
        rng = np.random.default_rng(kind)
        dirs = rng.normal(size=(12, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        low = 0.05 if kind == 1 else 6.0
        radii = np.exp(rng.uniform(np.log(low), np.log(250.0), size=(12, 1)))
        pts = np.vstack([dirs * radii, [[0.0, 0.0, 7.0], [0.0, 0.0, -240.0]]]
                        + ([[[0.0, 0.0, 0.0]]] if kind == 1 else []))
        m_f, n_f = sf.vswf_fields(pts, 0.9, sf.ORDER_CAP, kind)
        assert np.all(np.isfinite(m_f)) and np.all(np.isfinite(n_f))
        assert np.max(np.abs(m_f[-1])) > 0 and np.max(np.abs(n_f[-1])) > 0

    # Points with k|x| near the degree, where the wavefunctions vary on a
    # unit length scale and the finite differences resolve them.
    K = 0.9
    FAR = [np.array(p) for p in [(80.0, -60.0, 90.0), (-100.0, 70.0, -55.0)]]

    def field(self, which, n, m, kind):
        return wavefunction(which, kind, n, m, self.K)

    @pytest.mark.parametrize("kind", [1, 3])
    @pytest.mark.parametrize("n,m", [(120, 0), (121, -7), (125, 125)])
    def test_high_degree_divergence_free(self, n, m, kind):
        for x in self.FAR:
            for which in ("M", "N"):
                f = self.field(which, n, m, kind)
                scale = max(np.max(np.abs(f(x))), 1e-300)
                assert abs(fd_div(f, x)) < 5e-6 * self.K * scale

    @pytest.mark.parametrize("kind", [1, 3])
    @pytest.mark.parametrize("n,m", [(120, 1), (123, -60)])
    def test_high_degree_curl_relations(self, n, m, kind):
        for x in self.FAR:
            fm = self.field("M", n, m, kind)
            fn = self.field("N", n, m, kind)
            scale = max(np.max(np.abs(fn(x))), np.max(np.abs(fm(x))), 1e-300)
            assert np.max(np.abs(fd_curl(fm, x) - self.K * fn(x))) < 1e-5 * scale
            assert np.max(np.abs(fd_curl(fn, x) - self.K * fm(x))) < 1e-5 * scale

    def test_high_degree_conjugation_symmetry(self):
        n_max = 130
        pts = np.vstack([np.array(self.FAR), [[0.3, -0.2, 0.5]]])
        m_f, n_f = sf.vswf_fields(pts, self.K, n_max, 1)
        modes = vswf_modes(n_max)
        for n, m in [(120, 1), (124, 77), (130, 130)]:
            a, b = modes.index((n, m)), modes.index((n, -m))
            for f in (m_f, n_f):
                scale = np.max(np.abs(f[a]))
                assert scale > 0
                assert np.max(np.abs(np.conj(f[a]) - (-1.0) ** m * f[b])) <= 1e-14 * scale


class TestUnsoldIdentity:
    """The vector form of Unsold's theorem, on which ``forward.series_tail``
    rests: for every unit tangent e, sum_m |M_nm . e|^2 = (2n+1)/(8 pi) j_n^2
    and sum_m |N_nm . e|^2 = (2n+1)/(8 pi) (psi_n'/t)^2."""

    def test_sums_over_orders(self):
        n_max, k = 60, 0.9
        rng = np.random.default_rng(19)
        dirs = rng.normal(size=(16, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * rng.uniform(0.1 / k, 4.0 / k, size=(16, 1))
        _, r, *_, that, phat = sf._spherical_frame(pts)
        # j_n and psi_n'/t at the t = k|x| that vswf_fields takes.
        radial = sf._radial_table(n_max, 1, k * r)[::2]
        deg, _ = sf.mode_index(n_max)
        first = np.arange(1, n_max + 1) ** 2 - 1  # the row of mode (n, -n)
        want = (2 * np.arange(1, n_max + 1) + 1) / (8 * np.pi)
        for e in (that, phat, (that + phat) / np.sqrt(2)):
            for fields, z in zip(sf.vswf_fields(pts, k, n_max, 1), radial):
                # Divided by the radial factor, the squares stay in the double
                # range: j_60(0.1)^2 is about 1e-320.
                proj = np.einsum("qij,ij->qi", fields, e) / z[deg - 1]
                sums = np.add.reduceat(np.abs(proj) ** 2, first, axis=0)
                assert np.max(np.abs(sums / want[:, None] - 1)) < 1e-12
