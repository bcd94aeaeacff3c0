"""Free-space Helmholtz kernel, dyadic Green's tensor, and dipole fields.

The incident field of an electric dipole at y with polarization p is

    E_i(x) = (i/k) curl curl (Phi(x, y) p),   Phi(x, y) = e^{ik|x-y|} / (4 pi |x-y|).

All gradients and Hessians of Phi are closed forms; finite differences are
used only in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularPointError

# Below this separation the kernel is treated as singular; no regularized
# evaluation is attempted.
MIN_SEPARATION = 1e-8


@dataclass(frozen=True)
class Dipole:
    """Point electric dipole: location and (real) polarization vector."""

    location: np.ndarray
    polarization: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float)
        pol = np.asarray(self.polarization, dtype=float)
        if loc.shape != (3,) or pol.shape != (3,):
            raise InvalidArgumentError("dipole location/polarization must be 3-vectors")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(pol))):
            raise InvalidArgumentError("dipole location/polarization must be finite")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "polarization", pol)


def check_wavenumber(k: float) -> float:
    if not np.isfinite(k) or k <= 0:
        raise InvalidArgumentError(f"wavenumber must be positive, got {k}")
    return float(k)


def _separation(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r < MIN_SEPARATION):
        raise SingularPointError("evaluation point coincides with the source point")
    return d, r


def phi(x: np.ndarray, y: np.ndarray, k: float) -> complex | np.ndarray:
    """Outgoing Helmholtz fundamental solution e^{ikr}/(4 pi r)."""
    k = check_wavenumber(k)
    _, r = _separation(x, y)
    out = np.exp(1j * k * r) / (4 * np.pi * r)
    return out if out.ndim else complex(out)


def grad_phi(x: np.ndarray, y: np.ndarray, k: float) -> np.ndarray:
    """Gradient of Phi with respect to x."""
    k = check_wavenumber(k)
    d, r = _separation(x, y)
    p = np.exp(1j * k * r) / (4 * np.pi * r)
    return ((1j * k - 1.0 / r) * p / r)[..., None] * d


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


def incident_field(x: np.ndarray, d: Dipole, k: float) -> np.ndarray:
    """Electric dipole field G(x, y) p."""
    return green_tensor(x, d.location, k) @ d.polarization


def curl_incident_field(x: np.ndarray, d: Dipole, k: float) -> np.ndarray:
    """curl_x of the dipole field: i k grad Phi x p (closed form)."""
    g = grad_phi(x, d.location, k)
    return 1j * k * np.cross(g, d.polarization)


def green_apply(x: np.ndarray, z: np.ndarray, h_pol: np.ndarray, k: float) -> np.ndarray:
    """G(x, z) h for broadcast batches of x, z and h, each of shape (..., 3).

    Two-scalar form of ``green_tensor(x, z, k) @ h`` with d = x - z:
    G h = a h + c d, a = (i/k)(k^2 Phi + Phi'/r), c = (i/k)(Phi'' - Phi'/r)(d.h)/r^2.
    """
    k = check_wavenumber(k)
    d, r = _separation(x, z)
    h = np.asarray(h_pol)
    p = np.exp(1j * k * r) / (4 * np.pi * r)
    f1_r = (1j * k - 1.0 / r) * p / r
    f2 = ((1j * k - 1.0 / r) ** 2 + 1.0 / r**2) * p
    a = (1j / k) * (k**2 * p + f1_r)
    c = (1j / k) * (f2 - f1_r) * np.einsum("...c,...c->...", d, h) / r**2
    return a[..., None] * h + c[..., None] * d
