"""Green's-tensor and dipole-field layer, checked against the dense tensor
oracle, finite differences and closed-form limits."""

import numpy as np
import pytest

from nfem.errors import InvalidArgumentError, SingularPointError
from nfem.green import (
    Dipole,
    _green_scalars,
    _separation,
    check_wavenumber,
    curl_incident_field,
    green_apply,
    incident_field,
)

K = 1.3
X = np.array([0.9, -0.3, 0.5])
Y = np.array([-0.2, 0.4, -0.1])
P = np.array([0.6, -1.0, 0.8])


def fd_grad(f, x, eps=1e-6):
    out = np.zeros(3, dtype=complex)
    for j in range(3):
        step = np.zeros(3)
        step[j] = eps
        out[j] = (f(x + step) - f(x - step)) / (2 * eps)
    return out


def fd_curl(f, x, eps=1e-5):
    jac = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        step = np.zeros(3)
        step[j] = eps
        jac[:, j] = (f(x + step) - f(x - step)) / (2 * eps)
    return np.array(
        [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]
    )


def phi(x: np.ndarray, y: np.ndarray, k: float) -> complex | np.ndarray:
    """Outgoing Helmholtz fundamental solution e^{ikr}/(4 pi r)."""
    k = check_wavenumber(k)
    _, r = _separation(x, y)
    out = np.exp(1j * k * r) / (4 * np.pi * r)
    return out if out.ndim else complex(out)


def green_tensor(x: np.ndarray, y: np.ndarray, k: float) -> np.ndarray:
    """Dyadic kernel G with G p = (i/k)(k^2 Phi p + grad(grad Phi . p)).

    Hessian of Phi in closed form: H = f2 rhat rhat^T + f1/r (I - rhat rhat^T)
    with f1 = Phi'(r), f2 = Phi''(r).
    """
    k = check_wavenumber(k)
    d, r = _separation(x, y)
    r = r[..., None, None] if np.ndim(r) else r
    p = np.exp(1j * k * r) / (4 * np.pi * r)
    f1 = (1j * k - 1.0 / r) * p
    f2 = ((1j * k - 1.0 / r) ** 2 + 1.0 / r**2) * p
    rhat = d / np.linalg.norm(d, axis=-1, keepdims=True)
    outer = rhat[..., :, None] * rhat[..., None, :]
    eye = np.eye(3)
    hess = f2 * outer + (f1 / r) * (eye - outer)
    return (1j / k) * (k**2 * p * eye + hess)


def complex_green_scalars(r: np.ndarray, k: float):
    """(Phi, Phi', a, b) of G h = a h + b (rhat.h) rhat in complex arithmetic:
    a = (i/k)(k^2 Phi + Phi'/r) and b = (i/k)(Phi'' - Phi'/r), from Phi and
    its radial derivatives as the kernel formed them before its real form."""
    p = np.exp(1j * k * r) / (4 * np.pi * r)
    f1_r = (1j * k - 1.0 / r) * p / r
    f2 = ((1j * k - 1.0 / r) ** 2 + 1.0 / r**2) * p
    return p, f1_r * r, (1j / k) * (k**2 * p + f1_r), (1j / k) * (f2 - f1_r)


def green_matrix(x, y, k):
    """G(x, y) as a 3 x 3 matrix, one column G e_j per call of green_apply."""
    return green_apply(x, y, np.eye(3), k).T


class TestPhi:
    def test_closed_form(self):
        r = np.linalg.norm(X - Y)
        assert phi(X, Y, K) == pytest.approx(
            np.exp(1j * K * r) / (4 * np.pi * r), rel=1e-15
        )

    def test_gradient_matches_finite_difference(self):
        # grad Phi read off curl E = i k grad Phi x p with p = e_j:
        # sum_j e_j x (grad Phi x e_j) = 2 grad Phi.
        eye = np.eye(3)
        curls = [curl_incident_field(X, Dipole(Y, e), K) for e in eye]
        got = sum(np.cross(e, c) for e, c in zip(eye, curls)) / (2j * K)
        want = fd_grad(lambda x: phi(x, Y, K), X)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(got))

    def test_helmholtz_residual(self):
        # (Laplacian + k^2) Phi = 0 away from the source.
        eps = 1e-4
        lap = 0.0
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            lap += (phi(X + step, Y, K) - 2 * phi(X, Y, K) + phi(X - step, Y, K)) / eps**2
        assert abs(lap + K**2 * phi(X, Y, K)) < 1e-6 * abs(phi(X, Y, K))

    def test_coincident_points_rejected(self):
        with pytest.raises(SingularPointError):
            green_apply(X, X, P, K)
        with pytest.raises(SingularPointError):
            curl_incident_field(X, Dipole(X + 1e-12, P), K)

    def test_bad_wavenumber_rejected(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidArgumentError):
                green_apply(X, Y, P, bad)
            with pytest.raises(InvalidArgumentError):
                curl_incident_field(X, Dipole(Y, P), bad)


class TestGreenScalars:
    @pytest.mark.parametrize("k", [1e-3, 0.3, K, 5.0, 100.0])
    def test_real_form_matches_complex_oracle(self, k):
        r = np.logspace(-6, 3, 4001)
        u, p, a, b = _green_scalars(r, k)
        want_p, want_phi1, want_a, want_b = complex_green_scalars(r, k)
        assert np.array_equal(u, 1 / r)
        for (re, im), want in ((p, want_p), (a, want_a), (b, want_b)):
            assert np.max(np.abs(re + 1j * im - want) / np.abs(want)) <= 1e-15
        phi1 = (p[0] + 1j * p[1]) * (1j * k - u)
        assert np.max(np.abs(phi1 - want_phi1) / np.abs(want_phi1)) <= 1e-15


class TestGreenTensor:
    def test_symmetry_in_arguments(self):
        # G(x, y) = G(y, x)^T, and here G is itself complex-symmetric.
        gxy = green_matrix(X, Y, K)
        gyx = green_matrix(Y, X, K)
        assert np.allclose(gxy, gyx.T, rtol=0, atol=1e-16)
        assert np.allclose(gxy, gxy.T, rtol=0, atol=1e-16)

    def test_matches_curl_curl_definition(self):
        # G p = (i/k) curl curl (Phi p), checked by nested finite differences.
        def field(x):
            return phi(x, Y, K) * P

        cc = fd_curl(lambda z: fd_curl(field, z, eps=1e-4), X, eps=1e-4)
        want = (1j / K) * cc
        got = green_apply(X, Y, P, K)
        assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(got))

    def test_linearity_in_polarization(self):
        p2 = np.array([0.1, 0.2, -0.5])
        lhs = green_apply(X, Y, 2.0 * P - 3.0 * p2, K)
        rhs = 2.0 * green_apply(X, Y, P, K) - 3.0 * green_apply(X, Y, p2, K)
        assert np.allclose(lhs, rhs, rtol=1e-14)

    def test_far_field_decay(self):
        # Radiating fields decay like 1/r: doubling a large radius halves
        # the magnitude to within a 1/r^2 correction.
        direction = np.array([1.0, 2.0, 2.0]) / 3.0
        wavelength = 2 * np.pi / K
        e50 = incident_field(50 * wavelength * direction, Dipole(Y, P), K)
        e100 = incident_field(100 * wavelength * direction, Dipole(Y, P), K)
        ratio = np.linalg.norm(e100) / np.linalg.norm(e50)
        assert ratio == pytest.approx(0.5, rel=0.02)

    def test_green_apply_matches_tensor(self):
        # Near and at |y| = 1e149, where b/r^2 would underflow and drop the
        # (rhat.h) rhat term.
        pts = np.array([X, X + 0.3, X - 0.2])
        for y in (Y, 1e149 * np.array([2.0, -1.0, 2.0]) / 3.0):
            got = green_apply(pts, y, P, K)
            want = np.array([green_tensor(x, y, K) @ P for x in pts])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestDipoleField:
    def test_curl_matches_finite_difference(self):
        d = Dipole(Y, P)
        got = curl_incident_field(X, d, K)
        want = fd_curl(lambda x: incident_field(x, d, K), X)
        assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(got))

    def test_field_solves_maxwell(self):
        # curl curl E = k^2 E away from the source.
        d = Dipole(Y, P)
        cc = fd_curl(
            lambda z: fd_curl(lambda x: incident_field(x, d, K), z, eps=1e-4),
            X,
            eps=1e-4,
        )
        want = K**2 * incident_field(X, d, K)
        assert np.max(np.abs(cc - want)) < 1e-4 * np.max(np.abs(want))

    def test_dipole_validation(self):
        with pytest.raises(InvalidArgumentError):
            Dipole(np.zeros(2), P)
        with pytest.raises(InvalidArgumentError):
            Dipole(Y, np.array([np.inf, 0, 0]))
