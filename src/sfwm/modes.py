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
regime.  Its roots lie about pi apart in u (Snyder & Love, 1983), so scanning
8 + 4 ceil(max V) indices uniform in u (V^2 = u^2 + w^2, steps below 1/4)
brackets HE11 at the first sign change from n_co down; bisection closes it.

The Bessel functions are computed here with numpy alone, each by the
trapezoid rule on an integral representation, which converges exponentially
(Trefethen & Weideman, SIAM Rev. 56 (2014) 385): J0 and J1 from Bessel's
integrals over a period, to 2e-15 absolute for u <= 60, and e^w K0, e^w K1
from integrals over [0, inf) whose terms are all positive, to 5e-15 relative
for 1e-12 <= w <= 1e4.  Both rules add their nodes _NODE_BLOCK at a time, in
node order within a block and block sums in block order.  J1' = J0 - J1/u and
K1' = -K0 - K1/w, so no order-2 function is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModeSolveError
from .materials import Material, refractive_index
from .units import c as c_nm_fs

_EDGE_INSET = 1e-9
# Trapezoid rules for the Bessel functions (see _node_sums, _bessel_j01, _bessel_k01e).
_K_TAIL = 40.0
_NODE_BLOCK = 32


@dataclass(frozen=True)
class FiberSpec:
    """Step-index fibre geometry: core and cladding media plus core radius."""

    core: Material
    cladding: Material
    radius_um: float

    def __post_init__(self):
        if not self.radius_um > 0:
            raise ConfigError(f"core radius must be positive, got {self.radius_um}")

    @property
    def radius_nm(self) -> float:
        return self.radius_um * 1000.0


def _node_sums(terms, x, start, *weights):
    """Running sums, from start, of the pair of arrays terms(x, *weights) over the nodes.

    Weights hold one value a node.  _NODE_BLOCK nodes at a time go on a leading axis and are
    added up in node order (accumulate: numpy's sum pairs them up when x has one element);
    block sums join the running sums in block order, keeping the roundoff at a few ulps.
    """
    sums = np.full((2,) + np.shape(x), start)
    for lo in range(0, len(weights[0]), _NODE_BLOCK):
        block = [np.reshape(v[lo : lo + _NODE_BLOCK], (-1,) + (1,) * np.ndim(x)) for v in weights]
        for total, t in zip(sums, terms(x, *block)):
            total += np.add.accumulate(t, axis=0, out=t)[-1]
    return sums


def _bessel_j01(u):
    """J0(u) and J1(u) for real u >= 0.

    J0 = (1/pi) int_0^pi cos(u sin t) dt and J1 = (1/pi) int_0^pi sin t
    sin(u sin t) dt have integrands of period pi, so the n-node midpoint rule
    on [0, pi) errs by about J_2n(u); an even n of about 0.8 max(u) + 24
    puts that far below roundoff.  The integrands are even about pi/2, so
    the n/2 nodes in [0, pi/2) are summed twice, in blocks by _node_sums.
    """
    n = 2 * (int(0.4 * float(np.max(u))) + 12)
    s = np.array([math.sin(math.pi * (i + 0.5) / n) for i in range(n // 2)])
    j0, j1 = _node_sums(lambda u, s: (np.cos(u * s), s * np.sin(u * s)), u, 0.0, s)
    return j0 * (2.0 / n), j1 * (2.0 / n)


def _bessel_k01e(w):
    """e^w K0(w) and e^w K1(w) for real w > 0.

    e^w K_nu(w) = int_0^inf exp(-w (cosh t - 1)) cosh(nu t) dt, and the
    trapezoid rule with step h = min(1/4, 0.6 / sqrt(max w)) errs by less
    than e^-37 relative (e^(-pi^2/h) for small w, e^(-2 pi^2/(w h^2)) for
    large).  The sum stops where w (cosh t - 1) passes 40 for the smallest
    w, so the node count grows like ln(1/w).  Every term is positive; the
    nodes t = j h > 0 join the half-weight term at t = 0 in _node_sums.
    """
    w_min = float(np.min(w))
    if not w_min > 0.0:
        raise ModeSolveError(
            "cladding parameter w vanishes on the search grid; core and cladding "
            "indices are too close to resolve a guided mode"
        )
    h = min(0.25, 0.6 / math.sqrt(float(np.max(w))))
    j = range(1, math.ceil(math.acosh(1.0 + _K_TAIL / w_min) / h) + 1)
    x, c = np.array([(-2.0 * math.sinh(0.5 * i * h) ** 2, math.cosh(i * h)) for i in j]).T
    k0, k1 = _node_sums(lambda w, x, c: (e := np.exp(w * x), c * e), w, 0.5, x, c)  # x = 1 - c
    return h * k0, h * k1


def _he11_residual(neff, n_co, n_cl, ka):
    """Pole-free residual of the order-1 vector eigenvalue equation.

    Zeros coincide with the true roots: multiplying through by (u J1)^2
    removes the poles at J1 zeros, where the residual becomes J1'^2 > 0.
    """
    u = ka * np.sqrt(n_co**2 - neff**2)
    w = ka * np.sqrt(neff**2 - n_cl**2)
    # K1'(w)/(w K1(w)) via scaled Bessels; the e^w factors cancel in the ratio.
    k0, k1 = _bessel_k01e(w)
    b = -k0 / (w * k1) - 1.0 / w**2
    j0, j1 = _bessel_j01(u)
    j1p = j0 - j1 / u
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
    hi, lo = n_co - _EDGE_INSET * (n_co - n_cl), n_cl + _EDGE_INSET * (n_co - n_cl)
    points = 8 + 4 * math.ceil(float(np.max(ka * np.sqrt(n_co**2 - n_cl**2))))
    t = np.linspace(np.sqrt(n_co**2 - hi**2), np.sqrt(n_co**2 - lo**2), points, axis=-1)
    grid = np.sqrt(n_co[:, None] ** 2 - t**2)  # u = ka t, from the core index down
    grid[:, 0], grid[:, -1] = hi, lo  # ends exact: the round trip through t is not
    vals = _he11_residual(grid, n_co[:, None], n_cl[:, None], ka[:, None])
    if not np.all(np.isfinite(vals)):
        raise ModeSolveError("characteristic function not finite on search grid")
    flips = np.diff(np.sign(vals), axis=1) != 0
    if not np.all(np.any(flips, axis=1)):
        raise ModeSolveError(
            "no root of the HE11 characteristic equation found; geometry may "
            "not guide at this wavelength"
        )
    i = np.argmax(flips, axis=1)
    rows = np.arange(grid.shape[0])
    return bisect(
        lambda n: _he11_residual(n, n_co, n_cl, ka), grid[rows, i + 1], grid[rows, i]
    )


def effective_index(fiber: FiberSpec, lambda_nm):
    """HE11 effective index at vacuum wavelength(s) in nm.

    Accepts a scalar or array; n_eff (and k) are within ~2-3e-16 relative (~2 ulp) of a
    45-digit solve of the same equation (`tests/test_reference.py` holds k to 4 ulp).  Raises
    ModeSolveError if no guided root exists and ConfigError if the core index is below the
    cladding index.
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
