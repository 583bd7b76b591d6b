"""Guided-mode solver for circular step-index fibres.

Solves the exact vector characteristic equation of the fundamental HE11 mode
(azimuthal order 1) of a two-layer step-index profile.  No weak-guidance
approximation is made, so high-contrast geometries (e.g. an air-clad
sub-micron glass rod) are handled correctly.

With core radius a, free-space wavenumber k = 2 pi / lambda and transverse
parameters u = k a sqrt(n_co^2 - n^2), w = k a sqrt(n^2 - n_cl^2), the
eigenvalue condition for azimuthal order 1 reads

    (A + B) (A + rho B) = R^2,
    A = J1'(u) / (u J1(u)),   B = K1'(w) / (w K1(w)),
    rho = (n_cl / n_co)^2,    R = (n / n_co) (1/u^2 + 1/w^2),

and the HE11 effective index is its largest root in (n_cl, n_co).  The
residual is evaluated in a pole-free form (multiplied through by (u J1)^2)
and the modified-Bessel ratio uses exponentially scaled functions, so the
solver stays well conditioned from near-cutoff to the heavily multimode
regime.  Every wavelength's residual is scanned on 400 indices at once; the
last sign change brackets the root, and all brackets are refined together
by bisection to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv, kve

from .errors import ConfigError, ModeSolveError
from .materials import Material, refractive_index
from .units import c as c_nm_fs

_GRID_POINTS = 400
_EDGE_INSET = 1e-9


@dataclass(frozen=True)
class FiberSpec:
    """Step-index fibre geometry: core and cladding media plus core radius."""

    core: Material
    cladding: Material
    radius_um: float

    def __post_init__(self):
        if self.radius_um <= 0:
            raise ConfigError(f"core radius must be positive, got {self.radius_um}")

    @property
    def radius_nm(self) -> float:
        return self.radius_um * 1000.0


def _he11_residual(neff, n_co, n_cl, ka):
    """Pole-free residual of the order-1 vector eigenvalue equation.

    Zeros coincide with the true roots: multiplying through by (u J1)^2
    removes the poles at J1 zeros, where the residual becomes J1'^2 > 0.
    """
    neff = np.asarray(neff, dtype=float)
    u = ka * np.sqrt(n_co**2 - neff**2)
    w = ka * np.sqrt(neff**2 - n_cl**2)
    j0, j1, j2 = jv(0, u), jv(1, u), jv(2, u)
    j1p = 0.5 * (j0 - j2)
    # K1'(w)/(w K1 w) via scaled Bessels; the e^w factors cancel in the ratio.
    b = -(kve(0, w) + kve(2, w)) / (2.0 * w * kve(1, w))
    rho = (n_cl / n_co) ** 2
    r = (neff / n_co) * (1.0 / u**2 + 1.0 / w**2)
    uj1 = u * j1
    return (j1p + b * uj1) * (j1p + rho * b * uj1) - (r * uj1) ** 2


def bisect(f, a, b):
    """Elementwise root of a vectorised f between arrays a and b.

    f(a) and f(b) differ in sign elementwise (zero counts as either sign).
    Halving stops when no midpoint differs from its bracket ends, so each
    bracket is closed to one ulp.
    """
    sign_a = np.sign(f(a))
    while True:
        m = 0.5 * (a + b)
        if not np.any((m != a) & (m != b)):
            return m
        right = np.sign(f(m)) == sign_a
        a, b = np.where(right, m, a), np.where(right, b, m)


def _solve_he11(n_co, n_cl, ka):
    """HE11 indices for arrays of core and cladding indices and of k a."""
    span = n_co - n_cl
    grid = np.linspace(
        n_cl + _EDGE_INSET * span, n_co - _EDGE_INSET * span, _GRID_POINTS, axis=-1
    )
    vals = _he11_residual(grid, n_co[:, None], n_cl[:, None], ka[:, None])
    if not np.all(np.isfinite(vals)):
        raise ModeSolveError("characteristic function not finite on search grid")
    flips = np.diff(np.sign(vals), axis=1) != 0
    if not np.all(np.any(flips, axis=1)):
        raise ModeSolveError(
            "no root of the HE11 characteristic equation found; geometry may "
            "not guide at this wavelength"
        )
    i = _GRID_POINTS - 2 - np.argmax(flips[:, ::-1], axis=1)
    rows = np.arange(grid.shape[0])
    return bisect(
        lambda n: _he11_residual(n, n_co, n_cl, ka), grid[rows, i], grid[rows, i + 1]
    )


def effective_index(fiber: FiberSpec, lambda_nm):
    """HE11 effective index at vacuum wavelength(s) in nm.

    Accepts a scalar or array; each wavelength is solved to machine
    precision.  Raises ModeSolveError if no guided root exists and
    ConfigError if the core index does not exceed the cladding index.
    """
    lam = np.asarray(lambda_nm, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    n_co = refractive_index(fiber.core, lam)
    n_cl = refractive_index(fiber.cladding, lam)
    inverted = np.nonzero(n_co < n_cl)[0]
    if inverted.size:
        j = inverted[0]
        raise ConfigError(
            f"core index {n_co[j]:.6f} below cladding index {n_cl[j]:.6f} at "
            f"{lam[j]} nm"
        )
    # Equal indices mean a homogeneous medium: plane-wave propagation.
    out = n_co.copy()
    guided = n_co > n_cl
    if np.any(guided):
        ka = (2.0 * np.pi / lam[guided]) * fiber.radius_nm
        out[guided] = _solve_he11(n_co[guided], n_cl[guided], ka)
    return out[0] if scalar else out


def propagation_constant_from_omega(fiber: FiberSpec, omega):
    """HE11 propagation constant k = n_eff omega / c in rad/nm at omega in rad/fs."""
    om = np.asarray(omega, dtype=float)
    lam = 2.0 * np.pi * c_nm_fs / om
    return effective_index(fiber, lam) * om / c_nm_fs
