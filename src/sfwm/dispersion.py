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
Newton on the pump-centred series of k' - k'(omega_p), started from samples
of the monotone pieces of k'.  Energy conservation cancels k's tangent line
at the pump in every mismatch, so `DispersionProfile.pump_series` drops it
once: the CW mismatch, the walk-offs and the JSA phase all read that series.

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
from numpy.polynomial.polynomial import polyval

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
_POLISH_STEPS = 20  # Newton steps allowed per full-GVM match
_ROUNDOFF = 1e-12  # largest non-shrinking Newton step, in units of h, taken as roundoff


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

    def pump_series(self, omega_p):
        """Series of k minus its tangent line at omega_p, and its scale h.

        a[0] = a[1] = 0 and a[j] = k^(j)(omega_p) h^j / j! for 2 <= j <=
        max(degree, 3), so that k(omega) - k(omega_p) - k'(omega_p) (omega -
        omega_p) = sum_j a[j] ((omega - omega_p) / h)^j exactly, with h half
        the interpolated window.  omega_p may be an array; a then has shape
        (max(degree, 3) + 1,) + omega_p.shape.
        """
        h = 0.5 * (self.window[1] - self.window[0])
        off, scl = self.fit.mapparms()
        om = np.asarray(omega_p, dtype=float)
        derivs = chebval(off + scl * om, self._deriv_table)
        n = derivs.shape[0]
        scale = np.array([h**j / math.factorial(j) for j in range(n)])
        a = derivs * scale.reshape((n,) + (1,) * om.ndim)
        a[:2] = 0.0
        return a, h


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
    -2 gp - 2 sum_{m >= 1} a_{2m} s^m, with a_j the coefficients of
    `DispersionProfile.pump_series` and gp = gamma P in rad/nm; c holds these
    coefficients, lowest power first, with one trailing axis per axis of
    omega_p.
    """
    a, h = profile.pump_series(omega_p)
    return np.concatenate((np.full((1,) + a.shape[1:], -2.0 * gp), -2.0 * a[2::2])), h


def distinct_sorted(x: np.ndarray) -> np.ndarray:
    """np.unique(x) of ascending 1-D x by neighbour comparison, without numpy.ma; NaNs all stay."""
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def sign_change_roots(series, lo: float, hi: float) -> np.ndarray:
    """Ascending points in (lo, hi) where a numpy polynomial series changes sign.

    The real parts of its companion-matrix roots are candidates.  Where the
    series has opposite signs at the midpoints between a candidate and its
    neighbours, the root is bisected between those midpoints, so its accuracy
    does not depend on the conditioning of the eigenvalue problem; complex
    pairs and roots of even multiplicity drop out.
    """
    cand = distinct_sorted(np.sort(series.roots().real))
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


class Pair:
    """Signal and idler of a degenerate pump omega_p at half-separation delta.

    Energy conservation puts the signal at omega_p + delta and the idler at
    omega_p - delta; subclasses provide omega_p and delta.
    """

    @property
    def omega_s(self) -> float:
        return self.omega_p + self.delta

    @property
    def omega_i(self) -> float:
        return self.omega_p - self.delta


@dataclass(frozen=True)
class FgvmPoint(Pair):
    """Pump frequency and half-separation of a full group-velocity match.

    At such a point the signal, the idler and the pump itself share one
    group velocity, with delta > 0: swapping signal and idler gives the
    same pair.
    """

    omega_p: float
    delta: float


def _walk_off_series(profile: DispersionProfile, omega_p):
    """Walk-off series about omega_p in x = (omega - omega_p) / h, and h.

    d1 = h (k'(omega) - k'(omega_p)) and d2 = h^2 (k''(omega) - k''(omega_p)):
    the derivatives of `DispersionProfile.pump_series`, d2 less its constant
    term 2 a[2].
    """
    a, h = profile.pump_series(omega_p)
    d1 = Polynomial(a).deriv(1)
    return d1, d1.deriv(1) - 2.0 * a[2], h


def _polish_match(profile: DispersionProfile, r0, r1) -> FgvmPoint:
    """Newton in (omega_p, delta) on d1(delta / h) = d1(-delta / h) = 0.

    r0 and r1 hold r_a < r_b < r_c at the group-delay samples around a match;
    Newton starts at r0 with d2 as the omega_p column of the Jacobian.  When
    a step fails to shrink, the match is accepted if that step is at roundoff
    and omega_p - delta, omega_p, omega_p + delta lie between r0 and r1.
    """
    omega_p, delta, last = r0[1], 0.5 * (r0[2] - r0[0]), math.inf
    for _ in range(_POLISH_STEPS):
        d1, d2, h = _walk_off_series(profile, omega_p)
        x = np.array([delta, -delta]) / h
        f, j_p, j_x = d1(x), d2(x), d1.deriv()(x) * [1.0, -1.0]
        det = j_p[0] * j_x[1] - j_x[0] * j_p[1]
        step = np.array([f[1] * j_x[0] - f[0] * j_x[1], f[0] * j_p[1] - f[1] * j_p[0]]) / det
        size = np.abs(step).max()
        if size >= last:
            r = omega_p + np.array([-delta, 0.0, delta])
            if size <= _ROUNDOFF and np.all((r - r0) * (r - r1) <= 0.0):
                return FgvmPoint(float(omega_p), float(abs(delta)))
            break
        omega_p, delta, last = omega_p + h * step[0], delta + h * step[1], size
    raise EvaluationError(f"full group-velocity match near pump {omega_p:.9g} rad/fs did not converge")


def find_fgvm_points(profile: DispersionProfile) -> list[FgvmPoint]:
    """Every full group-velocity match in the query window, once, with delta > 0.

    A match has k'(omega_p + delta) = k'(omega_p) = k'(omega_p - delta); the
    zero-dispersion frequencies (`find_zdfs`) are no matches.  They and the
    window ends cut k' into monotone pieces, each holding at most one root of
    k' = v in a band of v between their end values.  Every band is sampled,
    and where r_a + r_c - 2 r_b of three roots r_a < r_b < r_c changes sign
    between samples, Newton polishes the match on the pump-centred walk-off
    series.
    """
    zdfs = find_zdfs(profile)
    points = []
    lo, hi = profile.query_window
    k1 = profile.fit.deriv(1)
    edges = np.concatenate(([lo], zdfs, [hi]))
    ends = k1(edges)
    v_lo, v_hi = np.sort([ends[:-1], ends[1:]], axis=0)
    # Cosine spacing resolves the square-root behaviour of roots at band ends.
    theta = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, _BAND_SAMPLES)))
    levels = distinct_sorted(np.sort(ends))
    for v0, v1 in zip(levels[:-1], levels[1:]):
        live = np.nonzero((v_lo <= v0) & (v_hi >= v1))[0]
        if live.size < 3:
            continue
        v = v0 + (v1 - v0) * theta
        r = bisect(lambda om: k1(om) - v, edges[live, None], edges[live + 1, None])
        for a, b, c in combinations(range(live.size), 3):
            side = np.sign(r[a] + r[c] - 2.0 * r[b])
            for m in np.nonzero(side[:-1] != side[1:])[0]:
                points.append(_polish_match(profile, r[[a, b, c], m], r[[a, b, c], m + 1]))
    return sorted(points, key=lambda p: (p.omega_p, p.delta))


@dataclass(frozen=True)
class TauSet(Pair):
    """Second-order local description of phase matching at a working point.

    Taylor data of L k(omega) around pump omega_p and the pair omega_s,
    omega_i at half-separation delta:

        tau_s1 = L [k'(omega_p) - k'(omega_s)]          (fs)
        tau_s2 = L [k''(omega_p) - k''(omega_s)] / 2    (fs^2)
        tau_p2 = L k''(omega_p)                         (fs^2)

    (same for the idler) plus the constant mismatch

        delta_k0 = L [2 k(omega_p) - k(omega_s) - k(omega_i) - 2 gamma P]

    in radians.  Together these determine the low-order phase mismatch

        beta(nu_s, nu_i) = delta_k0 + tau_s1 nu_s + tau_i1 nu_i
                           + tau_s2 nu_s^2 + tau_i2 nu_i^2 + tau_p2 nu_s nu_i

    for detunings nu from the pair's frequencies.
    """

    omega_p: float
    delta: float
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
    delta: float,
    length_nm: float,
    gamma: float = 0.0,
    power: float = 0.0,
) -> TauSet:
    """Taylor coefficients of the phase mismatch at the pair omega_p +- delta.

    gamma is the nonlinear parameter in 1/(W km) and power the peak pump
    power in W; they only shift the constant term.  The walk-offs come from
    the derivatives of `DispersionProfile.pump_series` (`_walk_off_series`),
    so they never subtract values of k' or k'' at two frequencies.
    """
    if not length_nm > 0:
        raise ConfigError(f"fibre length must be positive, got {length_nm}")
    # Expanded at the pair as rounded, tau.omega_s and tau.omega_i, where JSA axes centre.
    omega_s0, omega_i0 = omega_p + delta, omega_p - delta
    profile.check_window(np.array([omega_s0, omega_i0]))
    coef, h = mismatch_coefficients(profile, omega_p, nonlinear_mismatch(gamma, power))
    dk0 = length_nm * polyval((0.5 * (omega_s0 - omega_i0) / h) ** 2, coef)
    d1, d2, _ = _walk_off_series(profile, omega_p)
    x_s, x_i = (omega_s0 - omega_p) / h, (omega_i0 - omega_p) / h
    return TauSet(
        omega_p=omega_p,
        delta=delta,
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
    (90 deg); group-velocity-matched points give -45 deg.  Raises
    EvaluationError when both walk-offs are below 1e-3 fs.
    """
    # Below a millifemtosecond the walk-offs are solver roundoff, not physics,
    # and the angle they imply is arbitrary.
    if max(abs(tau.tau_s1), abs(tau.tau_i1)) < 1e-3:
        raise EvaluationError("stripe orientation undefined: both walk-offs are below 1e-3 fs")
    theta = np.degrees(np.arctan2(-tau.tau_s1, tau.tau_i1))
    if theta <= -90.0:
        theta += 180.0
    elif theta > 90.0:
        theta -= 180.0
    return float(theta)
