"""Acceptance gate: the headline numbers and behaviours, one test each.

Every test here checks one externally meaningful claim about the package at
a fixed tolerance, so the verbose pytest report reads as a pass/fail line
per criterion.  Module tests cover the internals; these cover the results.
"""

import time

import numpy as np
import pytest

from sfwm.biphoton import PumpSpec, jsa_analytic, jsa_numeric, schmidt_metrics
from sfwm.cli import main
from sfwm.config import parse_config
from sfwm.dispersion import (
    TauSet,
    build_profile,
    find_fgvm_points,
    tau_coefficients,
    zero_dispersion_wavelengths,
)
from sfwm.errors import ConfigError
from sfwm.materials import ConstantIndex, ScaledIndex, get_material
from sfwm.modes import FiberSpec, effective_index
from sfwm.phasematching import (
    critical_power,
    pm_map,
    singles_spectrum,
    trace_contours,
)
from sfwm.units import omega_from_wavelength, wavelength_from_omega

from oracles import half_max_crossings, lp01_effective_index
from synthetic import hermite_polynomial_profile, quadratic_profile

GAMMA = 70.0
LENGTH_NM = 5.0e8


def _gvm(profile):
    points = [p for p in find_fgvm_points(profile) if p.delta > 0]
    assert points, "no nondegenerate group-velocity match found"
    return min(points, key=lambda p: p.delta)


def _fwhm_nm(profile, omega_p, length_nm, gamma, power, points=2001):
    lo, hi = profile.query_window
    axis = np.linspace(
        max(lo, 2.0 * omega_p - hi), min(hi, 2.0 * omega_p - lo), points
    )
    spec = singles_spectrum(profile, omega_p, axis, length_nm, gamma, power)
    lo_om, hi_om = half_max_crossings(axis, spec)
    return wavelength_from_omega(lo_om) - wavelength_from_omega(hi_om)


def test_criterion_1_three_zero_dispersion_wavelengths(fiber_1652):
    """A 1.652 um silica strand shows ZDWs at 1434/1734/2224 nm (+-15 nm),
    from a cold start in well under two minutes."""
    start = time.perf_counter()
    profile = build_profile(fiber_1652, (1250.0, 2500.0))
    zdws = zero_dispersion_wavelengths(profile)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert zdws.size == 3
    for got, expected in zip(zdws, (1434.0, 1734.0, 2224.0)):
        assert abs(got - expected) <= 15.0


def test_criterion_2_group_velocity_matched_pump(profile_1644):
    """The 1.644 um strand has a full group-velocity match pumped near
    1552 nm with sidebands near 1481 and 1630 nm (+-15 nm each)."""
    gvm = _gvm(profile_1644)
    assert abs(wavelength_from_omega(gvm.omega_p) - 1552.1) <= 15.0
    assert abs(wavelength_from_omega(gvm.omega_s) - 1481.1) <= 15.0
    assert abs(wavelength_from_omega(gvm.omega_i) - 1630.3) <= 15.0


def test_criterion_3_critical_power_and_loop_collapse(profile_1644):
    """The matching loop survives at 0.9 of the ~0.95 W critical power
    (+-20%) and is gone at 1.1 of it."""
    gvm = _gvm(profile_1644)
    p_star = critical_power(profile_1644, gvm.omega_p, gvm.delta, GAMMA)
    assert 0.76 <= p_star <= 1.14
    lo, hi = profile_1644.query_window
    dmax = 0.12
    pump_axis = np.linspace(lo + dmax, hi - dmax, 161)
    det_axis = np.linspace(-dmax, dmax, 161)
    closed = {}
    for factor in (0.9, 1.1):
        pm = pm_map(
            profile_1644, pump_axis, det_axis, gamma=GAMMA, power=factor * p_star
        )
        closed[factor] = sum(1 for c in trace_contours(pm, pump_axis, det_axis) if c.closed)
    assert closed[0.9] >= 1
    assert closed[1.1] == 0


def test_criterion_4_broadband_spectrum_across_pump_tuning(profile_1644):
    """At the critical power the singles spectrum is ~416 nm wide (+-15%)
    at the matched pump, and stays above half its maximum width while the
    pump tunes from about 1436 to about 1750 nm (+-15 nm endpoints)."""
    gvm = _gvm(profile_1644)
    p_star = critical_power(profile_1644, gvm.omega_p, gvm.delta, GAMMA)

    def width(lambda_p):
        return _fwhm_nm(
            profile_1644, omega_from_wavelength(lambda_p), LENGTH_NM, GAMMA, p_star
        )

    at_match = width(wavelength_from_omega(gvm.omega_p))
    assert abs(at_match - 415.6) <= 0.15 * 415.6

    scan = np.arange(1440.0, 1751.0, 10.0)
    widths = np.array([width(lp) for lp in scan])
    half_of_max = widths.max() / 2.0
    for lam in np.linspace(1436.0, 1750.0, 12)[1:-1]:
        assert width(lam) >= half_of_max

    def crossing(lo, hi):
        f_lo = width(lo) - half_of_max
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            f_mid = width(mid) - half_of_max
            if (f_lo > 0) == (f_mid > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    assert abs(crossing(1410.0, 1460.0) - 1436.0) <= 15.0
    assert abs(crossing(1775.0, 1725.0) - 1750.0) <= 15.0


def _model_vs_numeric(profile, expected, sigma, span, points=64):
    tau = tau_coefficients(
        profile,
        expected["omega_p"],
        expected["delta"],
        expected["length_nm"],
    )
    pump = PumpSpec(omega_p=expected["omega_p"], sigma=sigma)
    s_axis = np.linspace(
        expected["omega_s0"] - span, expected["omega_s0"] + span, points
    )
    i_axis = np.linspace(
        expected["omega_i0"] - span, expected["omega_i0"] + span, points
    )
    analytic = jsa_analytic(tau, pump, s_axis, i_axis)
    numeric = jsa_numeric(profile, pump, s_axis, i_axis, expected["length_nm"])
    scale = np.abs(analytic.amplitude).max()
    return np.abs(analytic.amplitude - numeric.amplitude).max() / scale


def test_criterion_5_closed_form_matches_quadrature():
    """The closed-form JSA agrees with direct numeric quadrature to an
    L-infinity error below 0.05 of peak on both synthetic profiles."""
    start = time.perf_counter()
    # Globally quadratic k: the model is exact, and the long fibre puts the
    # pump-chirp parameter at order one so the Faddeeva branch is exercised.
    profile, expected = quadratic_profile(1.2, 0.06, 1.0e8, 2.0e4)
    err_quadratic = _model_vs_numeric(profile, expected, sigma=0.008, span=0.010)
    assert err_quadratic < 0.05

    # Nine-condition interpolant with a mutually consistent walk-off set
    # (the Taylor data of a smooth quartic, k''' = 0.5 and k'''' = 5 at the
    # pump): an inconsistent set would force huge high-order coefficients
    # and test interpolation wiggle, not the model.
    profile, expected = hermite_polynomial_profile(
        1.2,
        0.06,
        1.0e6,
        tau_s1=-1116.0,
        tau_i1=-684.0,
        tau_s2=-19500.0,
        tau_i2=10500.0,
        tau_p2=600.0,
        g0=0.0,
        d_value=3.78e-6,
        d_skew=1.8e-5,
    )
    err_hermite = _model_vs_numeric(profile, expected, sigma=0.001, span=0.004)
    assert err_hermite < 0.05
    assert time.perf_counter() - start < 300.0


def _purity_of(tau_s2, tau_i2, tau_p2=20.0, sigma=1.0, span=0.12, points=181):
    tau = TauSet(
        omega_p=1.2,
        delta=0.06,
        delta_k0=0.0,
        tau_s1=0.0,
        tau_i1=0.0,
        tau_s2=tau_s2,
        tau_i2=tau_i2,
        tau_p2=tau_p2,
    )
    pump = PumpSpec(omega_p=1.2, sigma=sigma)
    s_axis = np.linspace(1.26 - span, 1.26 + span, points)
    i_axis = np.linspace(1.14 - span, 1.14 + span, points)
    return schmidt_metrics(jsa_analytic(tau, pump, s_axis, i_axis)).purity


def test_criterion_6_factorability_follows_curvature_signs():
    """With a broad pump, matched walk-off curvatures (100x the pump term)
    give a near-factorable state; opposite curvatures do not."""
    assert _purity_of(2000.0, 2000.0) >= 0.85
    assert _purity_of(2000.0, -2000.0) < 0.5


def test_criterion_7_nanowire_heralded_purity_and_peak(profile_bismuth):
    """The air-clad nanowire source peaks within a grid cell of
    607.2/651.3 nm and heralds at purity 0.83 to 0.93.

    The core index is an approximate two-term model, so this check rides
    on a reconstruction rather than measured dispersion data.
    """
    gvm = _gvm(profile_bismuth)
    p_star = critical_power(profile_bismuth, gvm.omega_p, gvm.delta, 550.0)
    lambda_p = wavelength_from_omega(gvm.omega_p)
    from sfwm.units import pump_sigma_from_fwhm

    pump = PumpSpec(
        omega_p=gvm.omega_p,
        sigma=pump_sigma_from_fwhm(6.29, lambda_p),
        power=p_star,
    )
    span, points = 0.03, 256
    s_axis = np.linspace(gvm.omega_s - span, gvm.omega_s + span, points)
    i_axis = np.linspace(gvm.omega_i - span, gvm.omega_i + span, points)
    jsa = jsa_numeric(profile_bismuth, pump, s_axis, i_axis, 1.0e11, gamma=550.0)
    result = schmidt_metrics(jsa)
    assert 0.83 <= result.purity <= 0.93

    m, n = np.unravel_index(np.argmax(jsa.intensity()), jsa.amplitude.shape)
    peak_s = wavelength_from_omega(jsa.signal_axis[m])
    peak_i = wavelength_from_omega(jsa.idler_axis[n])
    cell_s = abs(
        wavelength_from_omega(jsa.signal_axis[m])
        - wavelength_from_omega(jsa.signal_axis[m - 1])
    )
    cell_i = abs(
        wavelength_from_omega(jsa.idler_axis[n])
        - wavelength_from_omega(jsa.idler_axis[n - 1])
    )
    assert abs(peak_s - 607.2) <= cell_s
    assert abs(peak_i - 651.3) <= cell_i


def test_criterion_8_vector_solver_matches_weak_guidance():
    """The exact vector mode agrees with the scalar LP01 oracle to 1e-5 at
    index contrasts below 1e-3, and to 2e-4 for a 50 um silica core."""
    weak = FiberSpec(
        core=ConstantIndex(name="a", value=1.450),
        cladding=ConstantIndex(name="b", value=1.449),
        radius_um=4.0,
    )
    got = effective_index(weak, 1550.0)
    oracle = lp01_effective_index(1.450, 1.449, 4000.0, 1550.0)
    assert abs(got - oracle) <= 1e-5

    silica = get_material("silica")
    big = FiberSpec(
        core=ScaledIndex(base=silica, contrast=0.0274),
        cladding=silica,
        radius_um=50.0,
    )
    n_co = float(big.core.index(1550.0))
    n_cl = float(big.cladding.index(1550.0))
    got = effective_index(big, 1550.0)
    oracle = lp01_effective_index(n_co, n_cl, 50000.0, 1550.0)
    assert abs(got - oracle) <= 2e-4


FAST_RUN = """
[fiber]
core = scaled:silica:0.0274
cladding = silica
radius_um = 1.644
length_m = 0.5
gamma_w_km = 70.0

[pump]
wavelength_nm = auto-gvm
fwhm_nm = 2.0
power_w = auto-critical

[grids]
window_nm = 1400 1700
spectrum_points = 301
"""


def test_criterion_9_cli_determinism_and_validation(tmp_path, capsys):
    """Repeated CLI runs are byte-identical and an empty run file fails
    naming the first missing field."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()

    with pytest.raises(ConfigError, match=r"fiber\.core"):
        parse_config("")
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert main(["spectrum", "--config", str(empty), "--out", str(tmp_path)]) == 2
    assert "fiber.core" in capsys.readouterr().err
