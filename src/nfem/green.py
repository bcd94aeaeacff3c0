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
        raise InvalidArgumentError(f"wavenumber must be positive, got {k}")
    return float(k)


def _separation(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r < MIN_SEPARATION):
        raise SingularPointError("evaluation point coincides with the source point")
    return d, r


def _green_scalars(r: np.ndarray, k: float):
    """(Phi'/r, a, b) at separations r, with G(x, z) h = a h + b (d.h) d for
    d = x - z and r = |d|: a = (i/k)(k^2 Phi + Phi'/r) and
    b = (i/k)(Phi'' - Phi'/r) / r^2.  The one place Phi and its radial
    derivatives are formed."""
    k = check_wavenumber(k)
    p = np.exp(1j * k * r) / (4 * np.pi * r)
    f1_r = (1j * k - 1.0 / r) * p / r
    f2 = ((1j * k - 1.0 / r) ** 2 + 1.0 / r**2) * p
    return f1_r, (1j / k) * (k**2 * p + f1_r), (1j / k) * (f2 - f1_r) / r**2


def green_apply(x: np.ndarray, z: np.ndarray, h_pol: np.ndarray, k: float) -> np.ndarray:
    """G(x, z) h for broadcast batches of x, z and h, each of shape (..., 3).

    G h = (i/k)(k^2 Phi h + grad(grad Phi . h)) in the two-scalar form
    G h = a h + b (d.h) d of ``_green_scalars``.
    """
    d, r = _separation(x, z)
    _, a, b = _green_scalars(r, k)
    return a[..., None] * h_pol + (b * np.einsum("...c,...c->...", d, h_pol))[..., None] * d


def incident_field(x: np.ndarray, d: Dipole, k: float) -> np.ndarray:
    """Electric dipole field G(x, y) p at x of shape (..., 3)."""
    return green_apply(x, d.location, d.polarization, k)


def curl_incident_field(x: np.ndarray, d: Dipole, k: float) -> np.ndarray:
    """curl_x of the dipole field, i k grad Phi x p, at x of shape (..., 3)."""
    diff, r = _separation(x, d.location)
    f1_r, _, _ = _green_scalars(r, k)
    return 1j * k * np.cross(f1_r[..., None] * diff, d.polarization)
