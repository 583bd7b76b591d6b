import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.polynomial import Polynomial

from sfwm import dispersion
from sfwm.config import PHASE_BUDGET_RAD, load_preset, working_point
from sfwm.dispersion import (
    DispersionProfile,
    build_profile,
    distinct_sorted,
    find_fgvm_points,
    find_zdfs,
    sign_change_roots,
    tau_coefficients,
    theta_pm,
    zero_dispersion_wavelengths,
)
from sfwm.errors import ConfigError, EvaluationError, RangeError
from sfwm.materials import FUSED_SILICA
from sfwm.modes import FiberSpec, propagation_constant_from_omega
from sfwm.units import omega_from_wavelength, wavelength_from_omega

from oracles import bulk_silica_zdw_sympy, proxy_fgvm_point
from synthetic import (
    hermite_polynomial_profile,
    matched_quartic_profile,
    quadratic_profile,
    with_line,
)


def test_fit_residual_bounds_error_between_nodes(
    profile_1652, fiber_1652, profile_1644, fiber_1644, profile_bismuth, fiber_bismuth
):
    # The chopped tail bounds the error at frequencies that were never
    # interpolation nodes, and for the 100 m nanowire it stays within the
    # phase budget over the fibre.
    for prof, fiber in (
        (profile_1652, fiber_1652),
        (profile_1644, fiber_1644),
        (profile_bismuth, fiber_bismuth),
    ):
        omega = np.linspace(*prof.query_window, 100)
        err = np.abs(prof.k_derivative(omega, 0) - propagation_constant_from_omega(fiber, omega))
        assert np.max(err) <= prof.residual
    assert profile_bismuth.residual * 1e11 <= PHASE_BUDGET_RAD


def test_interpolation_degree_ceiling(monkeypatch, fiber_bismuth):
    # Below the degree the nanowire needs, the ceiling stops the doubling
    # with an error instead of returning an unconverged proxy.
    monkeypatch.setattr(dispersion, "_DEGREES", (16,))
    with pytest.raises(EvaluationError, match="not converged"):
        build_profile(fiber_bismuth, (450.0, 900.0))


def test_wide_window_settles_above_solver_noise(fiber_bismuth):
    # The nanowire over nearly all of its core model's range keeps more
    # coefficients than a degree-64 interpolant can with its 8-coefficient
    # plateau, so only degree 128 settles; the mode solver's noise stays
    # below the chopping floor there, and the tail within the phase budget.
    prof = build_profile(fiber_bismuth, (405.0, 2450.0))
    assert prof.fit.degree() + 1 > 65 - dispersion._PLATEAU
    assert prof.residual * 1e11 <= PHASE_BUDGET_RAD


def test_profile_matches_quadratic_exactly():
    prof = DispersionProfile.interpolate(
        lambda om: 3e-3 + 4.9e-3 * (om - 1.2) - 2e-5 * (om - 1.2) ** 2, (1.0, 1.4)
    )
    # Chopped to the quadratic; the dropped tail is interpolation roundoff.
    assert prof.fit.degree() == 2
    assert prof.residual < 1e-16
    om = 1.17
    assert prof.k_derivative(om, 0) == pytest.approx(
        3e-3 + 4.9e-3 * (om - 1.2) - 2e-5 * (om - 1.2) ** 2, rel=1e-12
    )
    assert prof.k_derivative(om, 1) == pytest.approx(
        4.9e-3 - 4e-5 * (om - 1.2), rel=1e-10
    )
    assert prof.k_derivative(om, 2) == pytest.approx(-4e-5, rel=1e-10)


def test_query_window_guard():
    prof = DispersionProfile.interpolate(lambda om: 5e-3 + 1e-3 * om, (1.0, 1.4))
    lo, hi = prof.query_window
    assert lo == pytest.approx(1.0 + 0.02 * 0.4)
    assert hi == pytest.approx(1.4 - 0.02 * 0.4)
    prof.k_derivative(lo, 0)
    prof.k_derivative(hi, 0)
    with pytest.raises(RangeError):
        prof.k_derivative(1.0, 0)
    with pytest.raises(RangeError):
        prof.k_derivative(1.5, 0)
    with pytest.raises(ConfigError):
        prof.k_derivative(1.2, 4)


def test_bulk_silica_zero_dispersion(silica_core):
    # Homogeneous silica (no waveguide contribution): the classic material
    # zero-dispersion point, cross-checked against a symbolic solve.
    fiber = FiberSpec(core=FUSED_SILICA, cladding=FUSED_SILICA, radius_um=1.0)
    prof = build_profile(fiber, (1000.0, 1600.0))
    zdws = zero_dispersion_wavelengths(prof)
    assert zdws.size == 1
    oracle = bulk_silica_zdw_sympy()
    assert oracle == pytest.approx(1273.0, abs=5.0)
    assert zdws[0] == pytest.approx(oracle, abs=0.05)


def test_three_zdws_frozen(profile_1652):
    zdws = zero_dispersion_wavelengths(profile_1652)
    assert zdws.size == 3
    assert zdws[0] == pytest.approx(1434.0347, abs=0.05)
    assert zdws[1] == pytest.approx(1734.0387, abs=0.05)
    assert zdws[2] == pytest.approx(2224.0280, abs=0.05)


def test_two_zdws_frozen(profile_1644):
    zdws = zero_dispersion_wavelengths(profile_1644)
    assert zdws.size == 2
    assert zdws[0] == pytest.approx(1510.5770, abs=0.05)
    assert zdws[1] == pytest.approx(1596.5230, abs=0.05)


def test_fgvm_points_structure(profile_1644):
    # One match, listed once with delta > 0; the two zero-dispersion
    # frequencies are no matches.
    (p,) = find_fgvm_points(profile_1644)
    assert p.delta > 0
    assert np.all(np.abs(find_zdfs(profile_1644) - p.omega_p) > 1e-3)
    assert p.omega_s == pytest.approx(p.omega_p + p.delta)
    assert p.omega_i == pytest.approx(p.omega_p - p.delta)


def test_fgvm_frozen_values(profile_1644):
    p = find_fgvm_points(profile_1644)[0]
    assert wavelength_from_omega(p.omega_p) == pytest.approx(1552.1032, abs=0.05)
    assert p.delta == pytest.approx(0.0581828, abs=1e-5)
    assert wavelength_from_omega(p.omega_s) == pytest.approx(1481.0967, abs=0.05)
    assert wavelength_from_omega(p.omega_i) == pytest.approx(1630.2609, abs=0.05)


def test_fgvm_group_velocities_equal(profile_1644):
    p = find_fgvm_points(profile_1644)[0]
    k1 = profile_1644.k_derivative
    assert k1(p.omega_s, 1) == pytest.approx(k1(p.omega_p, 1), abs=1e-12)
    assert k1(p.omega_i, 1) == pytest.approx(k1(p.omega_p, 1), abs=1e-12)


def test_fgvm_three_matches_frozen(profile_1652):
    # The 1.652 um strand matches at three pumps.  The middle match puts its
    # idler below the first zero-dispersion frequency and its signal above
    # the third, so it pairs non-adjacent monotone pieces of k'.
    pts = find_fgvm_points(profile_1652)
    expected = [(0.99581, 0.21449), (1.10500, 0.32930), (1.20067, 0.19999)]
    assert len(pts) == len(expected)
    k1 = profile_1652.k_derivative
    for p, (omega_p, delta) in zip(pts, expected):
        assert p.omega_p == pytest.approx(omega_p, abs=1e-5)
        assert p.delta == pytest.approx(delta, abs=1e-5)
        assert k1(p.omega_s, 1) == pytest.approx(k1(p.omega_p, 1), rel=0, abs=1e-12)
        assert k1(p.omega_i, 1) == pytest.approx(k1(p.omega_p, 1), rel=0, abs=1e-12)


def test_fgvm_bismuth_frozen(profile_bismuth):
    pts = find_fgvm_points(profile_bismuth)
    assert len(pts) == 1
    p = pts[0]
    assert wavelength_from_omega(p.omega_p) == pytest.approx(628.448, abs=0.05)
    assert wavelength_from_omega(p.omega_s) == pytest.approx(607.147, abs=0.05)
    assert wavelength_from_omega(p.omega_i) == pytest.approx(651.299, abs=0.05)


def test_fgvm_points_match_50_digit_oracle(profile_1644, profile_1652, profile_bismuth):
    # Newton on the pump-centred walk-off series lands on the proxy's match
    # as a 50-digit solve of the same proxy finds it.
    for prof in (profile_1644, profile_1652, profile_bismuth):
        pts = find_fgvm_points(prof)
        assert pts
        for p in pts:
            omega_p, delta = proxy_fgvm_point(prof.fit, p.omega_p, p.delta)
            assert abs(p.omega_p - omega_p) <= 1e-14
            assert abs(p.delta - delta) <= 1e-14


def test_fgvm_points_ignore_affine_part_of_k():
    # The walk-off series drop the line 10 + 3 omega, which is ~600 times k',
    # so the match neither moves with it nor leaves its exact place.
    prof = matched_quartic_profile(1.2, 0.06, c=0.2, beta=0.05)
    base = find_fgvm_points(prof)
    line = find_fgvm_points(with_line(prof))
    assert len(base) == len(line) == 1
    assert abs(base[0].omega_p - line[0].omega_p) <= 1e-14
    assert abs(base[0].delta - line[0].delta) <= 1e-14
    assert abs(base[0].omega_p - 1.2) <= 1e-11
    assert abs(base[0].delta - 0.06) <= 1e-11


def test_walk_offs_vanish_at_the_nanowire_match():
    # fig4 pumps at its match, where the proxy's walk-offs are zero; over
    # L = 1e11 nm a few ulps of k' would read ~1e-7 fs.
    config = load_preset("fig4")
    profile = config.profile()
    wp = working_point(config, profile)
    tau = tau_coefficients(profile, wp.omega_p, wp.delta, config.length_nm)
    assert abs(tau.tau_s1) <= 1e-9
    assert abs(tau.tau_i1) <= 1e-9


def test_tau_set_pair_is_the_working_points(profile_bismuth):
    # One definition of the pair: the expansion's signal and idler are the
    # working point's to the bit, so jsa_analytic centres on the matched pair.
    config = load_preset("fig4")
    wp = working_point(config, profile_bismuth)
    tau = tau_coefficients(profile_bismuth, wp.omega_p, wp.delta, config.length_nm)
    assert (tau.omega_s, tau.omega_i) == (wp.omega_s, wp.omega_i)


@pytest.mark.parametrize("radius_um", [0.205, 0.20500000000000002, 0.21])
def test_one_match_near_the_nanowire_radius(radius_um):
    # Guards the polish's stopping rule: at these radii the last Newton steps
    # sit at roundoff without shrinking further.
    config = dataclasses.replace(load_preset("fig4"), radius_um=radius_um)
    (p,) = find_fgvm_points(config.profile())
    assert p.delta > 0


def test_fgvm_polish_step_ceiling(monkeypatch, profile_bismuth):
    # One Newton step cannot show that the steps stopped shrinking, so the
    # polish raises instead of returning an unconverged match.
    monkeypatch.setattr(dispersion, "_POLISH_STEPS", 1)
    with pytest.raises(EvaluationError, match="did not converge"):
        find_fgvm_points(profile_bismuth)


# Few distinct values, so draws repeat; -0.0 and 0.0 compare equal but differ in bits.
_REPEATING_FLOATS = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-300]) | st.floats(allow_nan=False)


@settings(deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9),
              elements=_REPEATING_FLOATS))
@example(np.array([]))
@example(np.array([3.5]))
@example(np.array([0.0, -0.0, 0.0, 2.0, 2.0]))
@example(np.array([[-0.0, 1.0], [0.0, 1.0]]))
def test_distinct_sorted_matches_np_unique(x):
    # Same sort as np.unique's, so even the sign of a kept zero agrees.
    got, want = distinct_sorted(np.sort(x, axis=None)), np.unique(x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_distinct_sorted_keeps_every_nan():
    # np.unique folds NaNs into one; no caller passes NaN, so the helper leaves them.
    assert distinct_sorted(np.array([1.0, 1.0, np.nan, np.nan])).size == 3


@pytest.mark.parametrize("series", [
    Polynomial([2.0]),                                             # no roots at all
    Polynomial([1.0, 0.0, 1.0]) * Polynomial([4.25, -1.0, 1.0]),  # two complex pairs
    Polynomial([1.09, -0.6, 1.0]),                                 # 0.3 +- 1i: one real part twice
])
def test_sign_change_roots_empty_without_real_roots(series):
    roots = sign_change_roots(series, -2.0, 2.0)
    assert roots.shape == (0,)


def test_no_nondegenerate_match_for_quadratic():
    # Constant curvature never equalises the three group velocities off axis.
    prof, _ = quadratic_profile(1.2, 0.06, 1e6, tau_p2=60.0)
    assert find_fgvm_points(prof) == []


def test_zdw_pair_merges_below_critical_radius(silica_core):
    # The close zero-dispersion pair of the 1.644 um strand coalesces and
    # vanishes when the core shrinks a little further.
    from sfwm.materials import FUSED_SILICA as clad

    def n_zdws(radius):
        fiber = FiberSpec(core=silica_core, cladding=clad, radius_um=radius)
        return find_zdfs(build_profile(fiber, (1300.0, 2000.0))).size

    assert n_zdws(1.652) >= 2
    assert n_zdws(1.630) == 0
    lo, hi = 1.630, 1.652
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if n_zdws(mid) == 0:
            lo = mid
        else:
            hi = mid
    merge_radius = 0.5 * (lo + hi)
    assert merge_radius == pytest.approx(1.643, abs=0.005)


def test_tau_coefficients_against_construction():
    prof, exp = hermite_polynomial_profile(
        omega_p=1.2136,
        delta=0.0582,
        length_nm=5e8,
        tau_s1=130.0,
        tau_i1=-90.0,
        tau_s2=4.0e4,
        tau_i2=-2.5e4,
        tau_p2=6.0e4,
        d_value=2.0e-7,
    )
    tau = tau_coefficients(
        prof, exp["omega_p"], exp["delta"], exp["length_nm"]
    )
    assert tau.tau_s1 == pytest.approx(exp["tau_s1"], rel=1e-8)
    assert tau.tau_i1 == pytest.approx(exp["tau_i1"], rel=1e-8)
    assert tau.tau_s2 == pytest.approx(exp["tau_s2"], rel=1e-8)
    assert tau.tau_i2 == pytest.approx(exp["tau_i2"], rel=1e-8)
    assert tau.tau_p2 == pytest.approx(exp["tau_p2"], rel=1e-8)
    assert tau.delta_k0 == pytest.approx(exp["delta_k0"], rel=1e-6)


def test_tau_coefficients_ignore_affine_part_of_k():
    # Differences of k' values of ~3 fs/nm over L = 1e8 nm would leave
    # ~1e-7 fs of roundoff in the walk-offs; the Taylor series about the pump
    # with its tangent dropped never sees the line.
    prof, exp = hermite_polynomial_profile(
        1.2, 0.06, 1e8, tau_s1=20.0, tau_i1=35.0, tau_s2=1e3, tau_i2=2e3, tau_p2=4e3
    )
    args = (exp["omega_p"], exp["delta"], exp["length_nm"])
    base = tau_coefficients(prof, *args)
    assert dataclasses.asdict(tau_coefficients(with_line(prof), *args)) == (
        dataclasses.asdict(base)
    )


def test_taylor_reexpands_the_proxy(profile_1644):
    # pump_series is k's Taylor series about the pump less its tangent line.
    pumps = np.array([1.1, 1.21, 1.3])
    a, h = profile_1644.pump_series(pumps)
    assert a.shape == (profile_1644.fit.degree() + 1, 3)
    assert not np.any(a[:2])
    for j, op in enumerate(pumps):
        scalar, _ = profile_1644.pump_series(op)
        assert np.array_equal(scalar, a[:, j])
        for order in (2, 3):
            assert a[order, j] * math.factorial(order) / h**order == pytest.approx(
                profile_1644.k_derivative(op, order), rel=1e-14
            )
        om = np.linspace(op - 0.1, op + 0.1, 11)
        k0, k1 = profile_1644.k_derivative(op, 0), profile_1644.k_derivative(op, 1)
        tangent = k0 + k1 * (om - op)
        assert Polynomial(a[:, j])((om - op) / h) + tangent == pytest.approx(
            profile_1644.k_derivative(om, 0), rel=1e-14
        )


def test_tau_nonlinear_term():
    prof, exp = quadratic_profile(1.2, 0.06, 1e6, tau_p2=60.0)
    base = tau_coefficients(prof, 1.2, 0.06, 1e6)
    shifted = tau_coefficients(prof, 1.2, 0.06, 1e6, gamma=70.0, power=1.0)
    # 2 gamma P L with gamma P = 70e-12 rad/nm over 1e6 nm.
    assert base.delta_k0 - shifted.delta_k0 == pytest.approx(2.0 * 70e-12 * 1e6, rel=1e-9)
    assert shifted.tau_s1 == base.tau_s1
    assert shifted.tau_p2 == base.tau_p2


def test_beta_quadratic_form():
    prof, exp = hermite_polynomial_profile(
        omega_p=1.2,
        delta=0.06,
        length_nm=1e8,
        tau_s1=50.0,
        tau_i1=80.0,
        tau_s2=1.0e4,
        tau_i2=2.0e4,
        tau_p2=-3.0e4,
    )
    tau = tau_coefficients(prof, 1.2, 0.06, 1e8)
    nu_s, nu_i = 0.003, -0.002
    expected = (
        tau.delta_k0
        + tau.tau_s1 * nu_s
        + tau.tau_i1 * nu_i
        + tau.tau_s2 * nu_s**2
        + tau.tau_i2 * nu_i**2
        + tau.tau_p2 * nu_s * nu_i
    )
    assert tau.beta(nu_s, nu_i) == pytest.approx(expected, rel=1e-12)


def test_tau_length_validation():
    prof, _ = quadratic_profile(1.2, 0.06, 1e6, tau_p2=60.0)
    for length_nm in (0.0, math.nan):
        with pytest.raises(ConfigError):
            tau_coefficients(prof, 1.2, 0.06, length_nm)


def _tau_with_walkoffs(tau_s1, tau_i1):
    prof, _ = hermite_polynomial_profile(
        omega_p=1.2,
        delta=0.06,
        length_nm=1e8,
        tau_s1=tau_s1,
        tau_i1=tau_i1,
        tau_s2=1e3,
        tau_i2=2e3,
        tau_p2=4e3,
    )
    return tau_coefficients(prof, 1.2, 0.06, 1e8)


def test_theta_pm_cardinal_cases():
    assert theta_pm(_tau_with_walkoffs(0.0, 150.0)) == pytest.approx(0.0, abs=1e-4)
    assert abs(theta_pm(_tau_with_walkoffs(150.0, 0.0))) == pytest.approx(90.0, abs=1e-4)
    assert theta_pm(_tau_with_walkoffs(120.0, 120.0)) == pytest.approx(-45.0, abs=1e-4)
    th = theta_pm(_tau_with_walkoffs(-80.0, 45.0))
    assert -90.0 < th <= 90.0


def test_theta_pm_undefined_below_walk_off_floor():
    # Walk-offs of a femtosecond's thousandth are solver roundoff at a
    # group-velocity match; the angle they would give is arbitrary.
    with pytest.raises(EvaluationError, match="stripe orientation undefined"):
        theta_pm(_tau_with_walkoffs(1e-4, -1e-4))


def test_zdf_precision(profile_1644):
    zdfs = find_zdfs(profile_1644)
    for z in zdfs:
        assert abs(profile_1644.k_derivative(z, 2)) < 1e-16


def test_window_conversion():
    om = omega_from_wavelength(1552.1)
    assert wavelength_from_omega(om) == pytest.approx(1552.1, rel=1e-14)
