"""Synthetic dispersion profiles with hand-prescribed Taylor data.

A degree-8 polynomial k(omega) is uniquely fixed by value, slope and
curvature at the pump and at the two central sideband frequencies (nine
Hermite conditions).  Prescribing those from a target set of walk-off
coefficients gives a profile whose exact Taylor data is known in advance,
independent of the mode solver, against which the package's coefficients
can be checked to machine precision.
"""

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial

from sfwm.dispersion import DispersionProfile


def hermite_polynomial_profile(
    omega_p,
    delta,
    length_nm,
    tau_s1,
    tau_i1,
    tau_s2,
    tau_i2,
    tau_p2,
    k0=5.0e-3,
    g0=4.9e-3,
    d_value=0.0,
    d_skew=0.0,
    window_factor=1.3,
):
    """Profile matching the requested walk-off set at omega_p +/- delta.

    Returns (profile, expected) where expected is a dict with the exact
    Taylor quantities implied by the construction, including the constant
    mismatch length_nm * (2 k(p) - k(s0) - k(i0)) = -2 * d_value * length_nm.
    d_skew offsets the two sideband values in opposite directions; it drops
    out of that constant but lets odd-order profiles be represented.
    """
    scale = delta
    centers_u = (0.0, 1.0, -1.0)
    length = float(length_nm)

    # Target k-derivative values at pump, signal and idler centres.
    targets = {
        (0.0, 0): k0,
        (1.0, 0): k0 + d_value + d_skew,
        (-1.0, 0): k0 + d_value - d_skew,
        (0.0, 1): g0,
        (1.0, 1): g0 - tau_s1 / length,
        (-1.0, 1): g0 - tau_i1 / length,
        (0.0, 2): tau_p2 / length,
        (1.0, 2): (tau_p2 - 2.0 * tau_s2) / length,
        (-1.0, 2): (tau_p2 - 2.0 * tau_i2) / length,
    }

    rows = []
    rhs = []
    n_coef = 9
    for u0, order in targets:
        row = np.zeros(n_coef)
        for n in range(order, n_coef):
            fac = 1.0
            for m in range(order):
                fac *= n - m
            row[n] = fac * u0 ** (n - order)
        rows.append(row)
        rhs.append(targets[(u0, order)] * scale**order)
    coef = np.linalg.solve(np.array(rows), np.array(rhs))
    poly = Polynomial(coef)

    window = (omega_p - window_factor * scale, omega_p + window_factor * scale)
    profile = DispersionProfile.interpolate(lambda om: poly((om - omega_p) / scale), window)

    expected = {
        "omega_p": omega_p,
        "omega_s0": omega_p + delta,
        "omega_i0": omega_p - delta,
        "delta": delta,
        "length_nm": length,
        "tau_s1": tau_s1,
        "tau_i1": tau_i1,
        "tau_s2": tau_s2,
        "tau_i2": tau_i2,
        "tau_p2": tau_p2,
        "delta_k0": -2.0 * d_value * length,
    }
    return profile, expected


def quadratic_profile(omega_p, delta, length_nm, tau_p2, k0=5.0e-3, g0=4.9e-3):
    """Globally quadratic k: the quadratic mismatch model is exact for it.

    k'' is constant, so tau_s2 = tau_i2 = 0 and tau_s1 = -tau_i1 =
    -tau_p2 * delta / ... follows from the single curvature; returns
    (profile, expected) like hermite_polynomial_profile.
    """
    length = float(length_nm)
    k2 = tau_p2 / length
    window = (omega_p - 1.4 * delta, omega_p + 1.4 * delta)
    profile = DispersionProfile.interpolate(
        lambda om: k0 + g0 * (om - omega_p) + 0.5 * k2 * (om - omega_p) ** 2, window
    )
    expected = {
        "omega_p": omega_p,
        "omega_s0": omega_p + delta,
        "omega_i0": omega_p - delta,
        "delta": delta,
        "length_nm": length,
        "tau_s1": -tau_p2 * delta,
        "tau_i1": tau_p2 * delta,
        "tau_s2": 0.0,
        "tau_i2": 0.0,
        "tau_p2": tau_p2,
        "delta_k0": -tau_p2 * delta**2,
    }
    return profile, expected


def with_line(profile):
    """profile with 10 + 3 omega added to k.

    Energy conservation cancels any affine part of k exactly, so every
    mismatch and walk-off must come out unchanged.  The line is ~1e3 times
    k' and ~2e3 times k of a fibre, so forming them from differences of k or
    k' values would show its roundoff.
    """
    line = 10.0 + 3.0 * Chebyshev.identity(domain=profile.fit.domain)
    return DispersionProfile(fit=profile.fit + line, window=profile.window, residual=0.0)


def matched_quartic_profile(omega_p, delta, c, beta, k0=5.0e-3, g0=4.9e-3):
    """Exact profile with k' - g0 = beta x (x^2 - delta^2) (x - c), x = omega - omega_p.

    The group delay is g0 at omega_p and omega_p +/- delta, so (omega_p, delta)
    is a full group-velocity match; with c outside the window it is the only
    nondegenerate one.  k itself is the degree-5 antiderivative.
    """
    k = Polynomial(
        [k0, g0, beta * c * delta**2 / 2, -beta * delta**2 / 3, -beta * c / 4, beta / 5]
    )
    window = (omega_p - 1.3 * delta, omega_p + 1.3 * delta)
    return DispersionProfile.interpolate(lambda om: k(om - omega_p), window)
