"""Dispersion proxies, zero-dispersion finding and group-velocity matching.

The mode solver gives k(omega) pointwise but root-finding on derivatives
needs a smooth, cheap representation.  A Chebyshev interpolant over the
working window is that proxy: the solver's Chebyshev coefficients decay
spectrally to a roundoff plateau, so the degree doubles until the plateau
shows and the series is chopped where it starts (Aurentz & Trefethen, ACM
TOMS 43 (2017)).  All downstream quantities (zero-dispersion frequencies,
matching points, Taylor coefficients) are defined on the exact derivatives
of the proxy, and the roots among them are roots of its polynomials: zero
dispersion from the companion matrix of k'', full group-velocity matches by
bisection on the monotone pieces of k'.

Frequencies are rad/fs, propagation constants rad/nm, so k' is fs/nm and
k'' is fs^2/nm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial.chebyshev import chebval

from .errors import ConfigError, EvaluationError, RangeError
from .modes import FiberSpec, bisect, propagation_constant_from_omega
from .units import nonlinear_mismatch, omega_from_wavelength, wavelength_from_omega

_QUERY_INSET = 0.02
# Interpolation degrees tried, the chopping floor relative to the largest
# coefficient (above the mode solver's roundoff plateau of ~1e-15), and how
# many trailing coefficients must sit below it.
_DEGREES = (16, 32, 64, 128)
_CHOP_TOL = 1e-14
_PLATEAU = 8
_BAND_SAMPLES = 65  # group-delay samples per band in the full-GVM search


@dataclass(frozen=True)
class DispersionProfile:
    """Chebyshev proxy for k(omega) with analytic derivatives.

    `window` is the interpolated frequency interval; queries are restricted
    to `query_window`, the interval shrunk by 2% per edge.  `residual` is the
    sum of the magnitudes of the chopped Chebyshev coefficients in rad/nm,
    which bounds how far the proxy departs from the full interpolant.
    """

    fit: Chebyshev
    window: tuple[float, float]
    residual: float

    def __post_init__(self):
        # Column j: Chebyshev coefficients of d^j k / d omega^j, j = 0..3 at least.
        n = self.fit.degree() + 1
        table = np.zeros((n, max(n, 4)))
        for j in range(table.shape[1]):
            d = self.fit.deriv(j).coef
            table[: d.size, j] = d
        object.__setattr__(self, "_deriv_table", table)

    @classmethod
    def interpolate(cls, func, window: tuple[float, float]) -> "DispersionProfile":
        """Chopped Chebyshev interpolant of the vectorised func over window.

        func is interpolated at degree 16, 32, ... until at least 8 trailing
        coefficients lie below 1e-14 of the largest; the series is chopped
        after the last coefficient above that floor.  Raises EvaluationError
        when degree 128 does not get there.
        """
        for degree in _DEGREES:
            fit = Chebyshev.interpolate(func, degree, domain=window)
            mag = np.abs(fit.coef)
            keep = 1 + max(np.flatnonzero(mag > _CHOP_TOL * mag.max()), default=0)
            if mag.size - keep >= _PLATEAU:
                residual = float(mag[keep:].sum())
                return cls(fit=fit.truncate(keep), window=window, residual=residual)
        raise EvaluationError(
            f"dispersion proxy not converged to {_CHOP_TOL:g} of its largest "
            f"Chebyshev coefficient by degree {_DEGREES[-1]}"
        )

    @property
    def query_window(self) -> tuple[float, float]:
        lo, hi = self.window
        inset = _QUERY_INSET * (hi - lo)
        return (lo + inset, hi - inset)

    def check_window(self, omega):
        """Raise RangeError unless every omega lies in query_window."""
        lo, hi = self.query_window
        slack = 1e-9 * (hi - lo)
        if np.any(omega < lo - slack) or np.any(omega > hi + slack):
            raise RangeError(
                f"frequency outside query window [{lo:.6f}, {hi:.6f}] rad/fs"
            )

    def k_derivative(self, omega, order: int = 0):
        """d^order k / d omega^order at omega (rad/fs), order 0..3."""
        if not 0 <= order <= 3:
            raise ConfigError(f"derivative order must be 0..3, got {order}")
        om = np.asarray(omega, dtype=float)
        self.check_window(om)
        off, scl = self.fit.mapparms()
        val = chebval(off + scl * om, self._deriv_table[:, order])
        return float(val) if om.ndim == 0 else val

    def k(self, omega):
        return self.k_derivative(omega, 0)

    def taylor(self, omega_p):
        """Taylor coefficients of the proxy about omega_p, and their scale h.

        a[j] = k^(j)(omega_p) h^j / j! for j = 0..max(degree, 3), so that
        k(omega) = sum_j a[j] ((omega - omega_p) / h)^j exactly, with h half
        the interpolated window.  omega_p may be an array; a then has shape
        (max(degree, 3) + 1,) + omega_p.shape.
        """
        h = 0.5 * (self.window[1] - self.window[0])
        off, scl = self.fit.mapparms()
        om = np.asarray(omega_p, dtype=float)
        derivs = chebval(off + scl * om, self._deriv_table)
        n = derivs.shape[0]
        scale = np.array([h**j / math.factorial(j) for j in range(n)])
        return derivs * scale.reshape((n,) + (1,) * om.ndim), h


def build_profile(fiber: FiberSpec, window_nm: tuple[float, float]) -> DispersionProfile:
    """Dispersion proxy for `fiber` over a vacuum-wavelength window.

    The mode solver's k(omega) interpolated at Chebyshev points of the
    frequency window and chopped at its roundoff plateau
    (`DispersionProfile.interpolate`).
    """
    lo_nm, hi_nm = window_nm
    if not 0 < lo_nm < hi_nm:
        raise ConfigError(f"bad wavelength window {window_nm}")
    window = (omega_from_wavelength(hi_nm), omega_from_wavelength(lo_nm))
    return DispersionProfile.interpolate(
        partial(propagation_constant_from_omega, fiber), window
    )


def mismatch_coefficients(profile: DispersionProfile, omega_p, gp: float = 0.0):
    """Coefficients c and scale h of the CW mismatch as a polynomial in s = (delta / h)^2.

    2 k(omega_p) - k(omega_p + delta) - k(omega_p - delta) - 2 gp is exactly
    -2 gp - 2 sum_{m >= 1} a_{2m} s^m, with a_j the Taylor coefficients of
    `DispersionProfile.taylor` and gp = gamma P in rad/nm; c holds these
    coefficients, lowest power first, with one trailing axis per axis of
    omega_p.
    """
    a, h = profile.taylor(omega_p)
    return np.concatenate((np.full((1,) + a.shape[1:], -2.0 * gp), -2.0 * a[2::2])), h


def pair_mismatch(
    profile: DispersionProfile, omega_p: float, detuning: float, gp: float = 0.0
) -> tuple[Polynomial, float]:
    """The CW mismatch at omega_p as a Polynomial in s = (delta / h)^2, and h.

    The polynomial of `mismatch_coefficients`.  Both sidebands at `detuning`
    must lie in the query window.
    """
    lo, hi = profile.query_window
    if omega_p - abs(detuning) < lo or omega_p + abs(detuning) > hi:
        raise RangeError(f"detunings up to {detuning:.6g} rad/fs leave the query window")
    coef, h = mismatch_coefficients(profile, omega_p, gp)
    return Polynomial(coef), h


def sign_change_roots(series, lo: float, hi: float) -> np.ndarray:
    """Ascending points in (lo, hi) where a numpy polynomial series changes sign.

    The real parts of its companion-matrix roots are candidates.  Where the
    series has opposite signs at the midpoints between a candidate and its
    neighbours, the root is bisected between those midpoints, so its accuracy
    does not depend on the conditioning of the eigenvalue problem; complex
    pairs and roots of even multiplicity drop out.
    """
    cand = np.unique(series.roots().real)
    cand = cand[(lo < cand) & (cand < hi)]
    edges = np.concatenate(([lo], cand, [hi]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    side = np.sign(series(mids))
    flip = side[:-1] != side[1:]
    return bisect(series, mids[:-1][flip], mids[1:][flip])


def find_zdfs(profile: DispersionProfile) -> np.ndarray:
    """Zero-dispersion frequencies in rad/fs, ascending (possibly empty).

    These are the sign changes of k'' in the query window, taken from the
    roots of the proxy's second-derivative series.
    """
    lo, hi = profile.query_window
    return sign_change_roots(profile.fit.deriv(2), lo, hi)


def zero_dispersion_wavelengths(profile: DispersionProfile) -> np.ndarray:
    """Zero-dispersion wavelengths in nm, ascending."""
    return np.sort(wavelength_from_omega(find_zdfs(profile)))


@dataclass(frozen=True)
class FgvmPoint:
    """Pump frequency and half-separation of a full group-velocity match.

    At such a point the signal at omega_p + delta, the idler at
    omega_p - delta and the pump itself share one group velocity.  delta = 0
    marks the degenerate matches sitting at zero-dispersion frequencies;
    nondegenerate matches come in +/- delta pairs.
    """

    omega_p: float
    delta: float

    @property
    def degenerate(self) -> bool:
        return self.delta == 0.0

    @property
    def omega_s(self) -> float:
        return self.omega_p + self.delta

    @property
    def omega_i(self) -> float:
        return self.omega_p - self.delta


def _bisect_matches(k1, r0, r1, v0, v1):
    """Bisect group-delay brackets [v0, v1] to zeros of r_a + r_c - 2 r_b.

    r0 and r1 (3, n) are the roots of k' = v0 and k' = v1 on three monotone
    pieces.  A root for any v in between lies between them, so each new
    root is bisected inside that shrinking bracket.
    """
    s0 = np.sign(r0[0] + r0[2] - 2.0 * r0[1])
    while True:
        v = 0.5 * (v0 + v1)
        if not np.any((v0 < v) & (v < v1)):
            return r0
        r = bisect(lambda om: k1(om) - v, r0, r1)
        right = np.sign(r[0] + r[2] - 2.0 * r[1]) == s0
        v0, r0 = np.where(right, v, v0), np.where(right, r, r0)
        v1, r1 = np.where(right, v1, v), np.where(right, r1, r)


def find_fgvm_points(profile: DispersionProfile) -> list[FgvmPoint]:
    """All full group-velocity matching points in the query window.

    Degenerate points (delta = 0) sit exactly at the zero-dispersion
    frequencies.  A nondegenerate match is a group delay v at which three
    roots r_a < r_b < r_c of k' = v satisfy r_b = (r_a + r_c) / 2, with the
    pump at r_b.  The window ends and the zero-dispersion frequencies cut k'
    into monotone pieces; between consecutive values of k' at the cuts each
    piece holds at most one root, which moves smoothly with v.  Every band
    of v is sampled, every triple of pieces checked for a sign change of
    r_a + r_c - 2 r_b, and each change bisected in v.  A match contributes
    entries at +delta and -delta.
    """
    zdfs = find_zdfs(profile)
    points = [FgvmPoint(omega_p=float(z), delta=0.0) for z in zdfs]
    lo, hi = profile.query_window
    k1 = profile.fit.deriv(1)
    edges = np.concatenate(([lo], zdfs, [hi]))
    ends = k1(edges)
    v_lo, v_hi = np.sort([ends[:-1], ends[1:]], axis=0)
    # Cosine spacing resolves the square-root behaviour of roots at band ends.
    theta = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, _BAND_SAMPLES)))
    levels = np.unique(ends)
    found = []
    for v0, v1 in zip(levels[:-1], levels[1:]):
        live = np.nonzero((v_lo <= v0) & (v_hi >= v1))[0]
        if live.size < 3:
            continue
        v = v0 + (v1 - v0) * theta
        r = bisect(lambda om: k1(om) - v, edges[live, None], edges[live + 1, None])
        for a, b, c in combinations(range(live.size), 3):
            side = np.sign(r[a] + r[c] - 2.0 * r[b])
            for m in np.nonzero(side[:-1] != side[1:])[0]:
                found.append((r[[a, b, c], m], r[[a, b, c], m + 1], v[m], v[m + 1]))
    if found:
        r0, r1, v0, v1 = (np.array(x) for x in zip(*found))
        r_a, r_b, r_c = _bisect_matches(k1, r0.T, r1.T, v0, v1)
        for op, d in zip(r_b, 0.5 * (r_c - r_a)):
            points.append(FgvmPoint(omega_p=float(op), delta=float(d)))
            points.append(FgvmPoint(omega_p=float(op), delta=float(-d)))
    return sorted(points, key=lambda p: (p.omega_p, p.delta))


@dataclass(frozen=True)
class TauSet:
    """Second-order local description of phase matching at a working point.

    Taylor data of L k(omega) around pump omega_p and central signal/idler
    omega_s0, omega_i0:

        tau_s1 = L [k'(omega_p) - k'(omega_s0)]          (fs)
        tau_s2 = L [k''(omega_p) - k''(omega_s0)] / 2    (fs^2)
        tau_p2 = L k''(omega_p)                          (fs^2)

    (same for the idler) plus the constant mismatch

        delta_k0 = L [2 k(omega_p) - k(omega_p + d) - k(omega_p - d) - 2 gamma P]

    in radians, with d = (omega_s0 - omega_i0) / 2 (energy conservation puts
    the pair symmetrically about the pump).  Together these determine the
    low-order phase mismatch

        beta(nu_s, nu_i) = delta_k0 + tau_s1 nu_s + tau_i1 nu_i
                           + tau_s2 nu_s^2 + tau_i2 nu_i^2 + tau_p2 nu_s nu_i

    for detunings nu from the central frequencies.
    """

    omega_p: float
    omega_s0: float
    omega_i0: float
    length_nm: float
    delta_k0: float
    tau_s1: float
    tau_i1: float
    tau_s2: float
    tau_i2: float
    tau_p2: float

    def beta(self, nu_s, nu_i):
        """Quadratic phase mismatch at detunings nu_s, nu_i in rad/fs."""
        nu_s = np.asarray(nu_s, dtype=float)
        nu_i = np.asarray(nu_i, dtype=float)
        return (
            self.delta_k0
            + self.tau_s1 * nu_s
            + self.tau_i1 * nu_i
            + self.tau_s2 * nu_s**2
            + self.tau_i2 * nu_i**2
            + self.tau_p2 * nu_s * nu_i
        )


def tau_coefficients(
    profile: DispersionProfile,
    omega_p: float,
    omega_s0: float,
    omega_i0: float,
    length_nm: float,
    gamma: float = 0.0,
    power: float = 0.0,
) -> TauSet:
    """Taylor coefficients of the phase mismatch for a chosen working point.

    gamma is the nonlinear parameter in 1/(W km) and power the peak pump
    power in W; they only shift the constant term.  The walk-offs come from
    the proxy's Taylor series about the pump with its terms up to first
    (tau_s1, tau_i1) or second order (tau_s2, tau_i2) dropped, so they never
    subtract values of k' or k'' at two frequencies.
    """
    if length_nm <= 0:
        raise ConfigError(f"fibre length must be positive, got {length_nm}")
    half = 0.5 * (omega_s0 - omega_i0)
    mismatch, h = pair_mismatch(profile, omega_p, half, nonlinear_mismatch(gamma, power))
    dk0 = length_nm * mismatch((half / h) ** 2)
    a, _ = profile.taylor(omega_p)
    # h (k'(omega) - k'(omega_p)) and h^2 (k''(omega) - k''(omega_p)) at
    # x = (omega - omega_p) / h.
    d1 = Polynomial(np.append([0.0, 0.0], a[2:])).deriv(1)
    d2 = Polynomial(np.append([0.0, 0.0, 0.0], a[3:])).deriv(2)
    x_s, x_i = (omega_s0 - omega_p) / h, (omega_i0 - omega_p) / h
    return TauSet(
        omega_p=omega_p,
        omega_s0=omega_s0,
        omega_i0=omega_i0,
        length_nm=length_nm,
        delta_k0=float(dk0),
        tau_s1=float(-length_nm * d1(x_s) / h),
        tau_i1=float(-length_nm * d1(x_i) / h),
        tau_s2=float(-length_nm * d2(x_s) / (2.0 * h * h)),
        tau_i2=float(-length_nm * d2(x_i) / (2.0 * h * h)),
        tau_p2=float(length_nm * profile.k_derivative(omega_p, 2)),
    )


def theta_pm(tau: TauSet) -> float:
    """Orientation of the phase-matching stripe in the (nu_s, nu_i) plane.

    Angle in degrees of the line tau_s1 nu_s + tau_i1 nu_i = const, measured
    from the nu_s axis and folded into (-90, 90].  Zero tau_s1 gives a stripe
    along the signal axis (0 deg), zero tau_i1 one along the idler axis
    (90 deg); group-velocity-matched points give -45 deg.
    """
    if tau.tau_s1 == 0.0 and tau.tau_i1 == 0.0:
        raise EvaluationError(
            "stripe orientation undefined: both first-order walk-offs vanish"
        )
    theta = np.degrees(np.arctan2(-tau.tau_s1, tau.tau_i1))
    if theta <= -90.0:
        theta += 180.0
    elif theta > 90.0:
        theta -= 180.0
    return float(theta)
