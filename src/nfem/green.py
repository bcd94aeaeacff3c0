"""Free-space dyadic Green's tensor applied to a vector, and dipole fields.

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
        raise InvalidArgumentError(f"wavenumber must be positive and finite, got {k}")
    return float(k)


def _separation(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return d, np.linalg.norm(d, axis=-1)


def _times(p_re, p_im, x, y):
    """Real and imaginary planes of (p_re + i p_im)(x + i y)."""
    return p_re * x - p_im * y, p_re * y + p_im * x


def _green_scalars(r: np.ndarray, k: float):
    """u = 1/r and the real and imaginary planes of p = Phi(r), a and b at
    separations r, with G(x, z) h = a h + b (rhat.h) rhat for rhat = d/r,
    d = x - z: a = (i/k)(k^2 Phi + Phi'/r) = p(-u + i(k - u^2/k)) and
    b = (i/k)(Phi'' - Phi'/r) = p(3u + i(3u^2/k - k)).  The one place Phi is
    formed, and the one home of the MIN_SEPARATION guard.  No complex array
    and no 1/r^2 factor: b/r^2 underflows past |d| of about 1e102, while b
    and the dyadic term stay in range out to the coordinate cap of 1e150."""
    k = check_wavenumber(k)
    if np.any(r < MIN_SEPARATION):
        raise SingularPointError("evaluation point coincides with the source point")
    u = np.reciprocal(r)
    kr = r * k
    q = u * (1 / (4 * np.pi))
    p_re = np.cos(kr)
    p_re *= q
    p_im = np.sin(kr)
    p_im *= q
    t = u * u
    t *= 1 / k
    a = _times(p_re, p_im, -u, k - t)
    b = _times(p_re, p_im, 3 * u, 3 * t - k)
    return u, (p_re, p_im), a, b


def green_apply(x: np.ndarray, z: np.ndarray, h_pol: np.ndarray, k: float) -> np.ndarray:
    """G(x, z) h for broadcast batches of x, z and h, each of shape (..., 3).

    G h = (i/k)(k^2 Phi h + grad(grad Phi . h)) in the two-scalar form
    G h = a h + b (rhat.h) rhat of ``_green_scalars``.
    """
    d, r = _separation(x, z)
    u, _, (a_re, a_im), (b_re, b_im) = _green_scalars(r, k)
    rhat = d * u[..., None]
    a, b = a_re + 1j * a_im, b_re + 1j * b_im
    return a[..., None] * h_pol + (b * np.einsum("...c,...c->...", rhat, h_pol))[..., None] * rhat


def incident_field(x: np.ndarray, d: Dipole, k: float) -> np.ndarray:
    """Electric dipole field G(x, y) p at x of shape (..., 3)."""
    return green_apply(x, d.location, d.polarization, k)


def curl_incident_field(x: np.ndarray, d: Dipole, k: float) -> np.ndarray:
    """curl_x of the dipole field, i k grad Phi x p = i k Phi' (rhat x p), at x
    of shape (..., 3)."""
    diff, r = _separation(x, d.location)
    u, (p_re, p_im), _, _ = _green_scalars(r, k)
    phi1 = (p_re + 1j * p_im) * (1j * k - u)  # Phi'(r)
    return 1j * k * np.cross(phi1[..., None] * (diff * u[..., None]), d.polarization)
