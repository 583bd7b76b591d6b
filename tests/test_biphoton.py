import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from sfwm import biphoton
from sfwm.biphoton import (
    JsaGrid,
    PumpQuadrature,
    PumpSpec,
    jsa_analytic,
    heralded_purity,
    jsa_numeric,
    phi_function,
    schmidt_metrics,
)
from sfwm.config import load_preset, working_point
from sfwm.dispersion import TauSet, tau_coefficients
from sfwm.errors import ConfigError, EvaluationError
from sfwm.phasematching import sinc_phase
from sfwm.units import nonlinear_mismatch, omega_from_wavelength, pump_sigma_from_fwhm

from oracles import (
    faddeeva_mp,
    folded_gauss_legendre_rule,
    jsa_pump_sum_per_point,
    pair_integral_quadrature,
    schmidt_coefficients_one_expression,
    schmidt_purity_by_svd,
)
from synthetic import hermite_polynomial_profile, quadratic_profile, with_line

SQRT_PI = np.sqrt(np.pi)


# --------------------------------------------------------------- phi_function


def test_phi_zero_chirp_limit():
    for x in (0.0, 0.5, 3.0, 2.0j):
        assert phi_function(0.0, x) == pytest.approx(1.0 / SQRT_PI, rel=1e-12)
    assert phi_function(1e-9, 1.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-6)


def test_phi_against_quadrature_box():
    for a in (0.5, 2.0, 10.0):
        for x in (0.3, 1.0, 3.0):
            want = pair_integral_quadrature(a, x)
            got = phi_function(a, x)
            assert abs(got - want) / abs(want) < 1e-6, (a, x)


def test_phi_against_quadrature_negative_chirp_and_imaginary():
    # Below the real axis phi_function takes -x, so the lower-half cases
    # check the fold against the oracle on both of its branches: u = x rt
    # (rt = sqrt(1 - i a)) falls below the real axis for (2.0, -1 - 0.1j),
    # (0.5, -0.3 - 0.05j) and (-2.0, 1 - 0.2j), and stays above it for the rest.
    cases = [(-2.0, 1.0), (-0.5, 0.3), (2.0, 1.0j), (-10.0, 3.0j), (0.5, 6.0j),
             (2.0, -1.0 - 0.1j), (0.5, -0.3 - 0.05j), (-2.0, 1.0 - 0.2j),
             (0.5, 0.8 - 0.6j), (-3.0, -0.5 - 2.0j), (-10.0, -3.0j)]
    for a, x in cases:
        want = pair_integral_quadrature(a, x)
        got = phi_function(a, x)
        assert abs(got - want) / abs(want) < 1e-6, (a, x)


def test_phi_branch_overlap_at_series_cut():
    # Continuity across the small-x series boundary.
    for a in (0.5, -3.0, 12.0):
        for base in (1e-4, 1e-4j):
            below = phi_function(a, base * 0.999999)
            above = phi_function(a, base * 1.000001)
            assert abs(below - above) < 1e-8, (a, base)


def test_phi_even_in_x():
    for a in (0.7, -4.0):
        for x in (0.8, 2.0j, 1.0 + 0j):
            assert phi_function(a, x) == pytest.approx(phi_function(a, -x), rel=1e-12)


def test_faddeeva_against_mpmath():
    # The closed upper half-plane phi_function uses: rays from the real axis
    # to the imaginary one at moduli up to 1e4, the real axis itself and
    # lines at Im z = 1e-6.
    r = np.geomspace(1e-3, 1e4, 29)
    theta = np.linspace(0.0, np.pi, 17)
    x = np.geomspace(1e-3, 1e4, 29)
    z = np.concatenate([
        (r[:, None] * np.exp(1j * theta[None, :])).ravel(),
        x + 1e-6j, -x + 1e-6j, np.linspace(-9.0, 9.0, 37) + 0j,
    ])
    z = z.real + 1j * np.abs(z.imag)
    want = np.array([faddeeva_mp(v) for v in z])
    assert np.max(np.abs(biphoton._faddeeva(z) / want - 1.0)) <= 5e-14


def test_phi_vectorized_matches_scalar():
    xs = np.array([0.0, 1e-5, 0.3, 2.0, 1.0j, 4.0j], dtype=complex)
    vec = phi_function(1.7, xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(phi_function(1.7, x), rel=1e-13)


# ------------------------------------------------------------------- PumpSpec


def test_pump_spec():
    pump = PumpSpec(
        omega_p=omega_from_wavelength(628.5),
        sigma=pump_sigma_from_fwhm(6.29, 628.5),
        power=9.0,
    )
    assert pump.power == 9.0
    assert pump.sigma == pytest.approx(0.018013, rel=1e-4)
    for sigma in (0.0, math.nan):
        with pytest.raises(ConfigError):
            PumpSpec(omega_p=1.0, sigma=sigma)
    for power in (-1.0, math.nan):
        with pytest.raises(ConfigError):
            PumpSpec(omega_p=1.0, sigma=0.01, power=power)


# -------------------------------------------------------------------- JsaGrid


def test_jsa_grid_normalize():
    s_axis = np.linspace(-1.0, 1.0, 101)
    i_axis = np.linspace(-1.0, 1.0, 101)
    amp = np.exp(-(s_axis[:, None] ** 2) - i_axis[None, :] ** 2).astype(complex)
    grid = JsaGrid(signal_axis=s_axis, idler_axis=i_axis, amplitude=amp)
    norm = grid.normalize()
    total = np.sum(norm.intensity()) * 0.02 * 0.02
    assert total == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ConfigError):
        JsaGrid(signal_axis=s_axis, idler_axis=i_axis, amplitude=amp[:50])
    with pytest.raises(EvaluationError, match="identically zero"):
        JsaGrid(signal_axis=s_axis, idler_axis=i_axis, amplitude=0.0 * amp).normalize()


def test_jsa_grid_rejects_unequal_steps():
    # Cell areas use the mean step, so a stretched axis would bias the norm
    # and the Schmidt weights without any error.
    axis = np.linspace(-1.0, 1.0, 101)
    amp = np.exp(-(axis[:, None] ** 2) - axis[None, :] ** 2).astype(complex)
    stretched = np.sinh(axis)
    with pytest.raises(ConfigError, match="signal axis is not equally spaced"):
        JsaGrid(signal_axis=stretched, idler_axis=axis, amplitude=amp)
    with pytest.raises(ConfigError, match="idler axis is not equally spaced"):
        JsaGrid(signal_axis=axis, idler_axis=stretched, amplitude=amp)
    nudged = axis.copy()
    nudged[50] += 1e-9 * (axis[1] - axis[0])  # far below the 1e-6 bound
    JsaGrid(signal_axis=nudged, idler_axis=nudged[::-1], amplitude=amp)
    # A constant axis has mean step 0, which no step differs from.
    with pytest.raises(ConfigError, match="signal axis step is zero"):
        JsaGrid(np.array([1.0, 1.0]), np.array([1.0, 2.0]), np.ones((2, 2), dtype=complex))


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (0, 5)])
def test_jsa_grid_rejects_axes_of_fewer_than_two_points(shape):
    # One point has no step: its outer rows (or columns) are the same cells,
    # which border_mass would count twice, and the trapezoid weights are empty.
    axes = [np.linspace(1.0, 1.1, n) for n in shape]
    with pytest.raises(ConfigError, match="axis needs at least 2 points"):
        JsaGrid(*axes, amplitude=np.ones(shape, dtype=complex))


@pytest.mark.parametrize("kernel", ["analytic", "numeric"])
def test_jsa_with_a_descending_idler_axis(kernel):
    # A descending axis has a negative step, so the signed cell area ds di is
    # negative; the norm takes its size, and the grid is the ascending one
    # with its columns reversed.
    if kernel == "analytic":
        nu = np.linspace(-0.03, 0.03, 41)
        signal, idler = 1.26 + nu, 1.14 + nu
        pump = PumpSpec(omega_p=1.2, sigma=0.02)
        run = partial(jsa_analytic, _symmetric_tau(), pump)
    else:
        prof, signal, idler = _cw_setup()
        pump = PumpSpec(omega_p=1.2, sigma=0.004)

        def run(s, i):
            return jsa_numeric(prof, pump, s, i, 1e6)

    up = run(signal, idler)
    down = run(signal, idler[::-1])
    assert np.all(np.isfinite(down.amplitude))
    peak = np.max(np.abs(up.amplitude))
    assert np.max(np.abs(down.amplitude - up.amplitude[:, ::-1])) < 1e-12 * peak
    assert schmidt_metrics(down).purity == pytest.approx(schmidt_metrics(up).purity, rel=1e-12)


# ----------------------------------------------------------------- analytic JSA


def _symmetric_tau(tau_s2=1.0e3, tau_i2=None, tau_p2=10.0):
    tau_i2 = tau_s2 if tau_i2 is None else tau_i2
    return TauSet(
        omega_p=1.2,
        delta=0.06,
        delta_k0=2.0,
        tau_s1=55.0,
        tau_i1=55.0,
        tau_s2=tau_s2,
        tau_i2=tau_i2,
        tau_p2=tau_p2,
    )


def test_jsa_analytic_signal_idler_symmetry():
    tau = _symmetric_tau()
    pump = PumpSpec(omega_p=1.2, sigma=0.02)
    nu = np.linspace(-0.03, 0.03, 41)
    grid = jsa_analytic(tau, pump, 1.26 + nu, 1.14 + nu)
    asym = np.max(np.abs(grid.amplitude - grid.amplitude.T))
    assert asym < 1e-10 * np.max(np.abs(grid.amplitude))


def test_jsa_analytic_near_circular_contour():
    # Symmetric quadratic walk-off, no linear walk-off, negligible
    # cross-coupling, flat pump envelope: the half-max intensity contour in
    # the detuning plane is nearly a circle.
    tau = TauSet(
        omega_p=1.2, delta=0.06,
        delta_k0=0.0, tau_s1=0.0, tau_i1=0.0,
        tau_s2=2.0e3, tau_i2=2.0e3, tau_p2=1e-6,
    )
    pump = PumpSpec(omega_p=1.2, sigma=1.0)
    nu = np.linspace(-0.05, 0.05, 201)
    grid = jsa_analytic(tau, pump, 1.26 + nu, 1.14 + nu)
    inten = grid.intensity()
    mid = 100
    ks = np.arange(-100, 101)
    diag_plus = inten[mid + ks, mid + ks]
    diag_minus = inten[mid + ks, mid - ks]
    from oracles import half_max_crossings

    lo, hi = half_max_crossings(nu[mid + ks], diag_plus)
    w_plus = hi - lo
    lo, hi = half_max_crossings(nu[mid + ks], diag_minus)
    w_minus = hi - lo
    ratio = min(w_plus, w_minus) / max(w_plus, w_minus)
    ecc = np.sqrt(1.0 - ratio**2)
    assert ecc < 0.1


def test_jsa_analytic_pump_carrier_enforced():
    # The TauSet fixes the pair about its own pump; another carrier is refused.
    tau = _symmetric_tau()
    pump = PumpSpec(omega_p=1.2, sigma=0.02)
    bad = PumpSpec(omega_p=1.21, sigma=0.02)
    nu = np.linspace(-0.01, 0.01, 11)
    with pytest.raises(ConfigError):
        jsa_analytic(tau, bad, 1.26 + nu, 1.14 + nu)


def test_jsa_analytic_zero_tau_p2_limit():
    # tau_p2 = 0 reduces the pair profile to the plain sinc envelope; check
    # continuity against tiny but finite tau_p2, the gap shrinking with it.
    # The proxy leaves tau_p2 ~ 5e-6 fs^2 of roundoff, so zero is set exactly.
    prof, _ = hermite_polynomial_profile(
        1.2, 0.06, 1e8, tau_s1=40.0, tau_i1=-25.0, tau_s2=800.0, tau_i2=500.0,
        tau_p2=0.0,
    )
    tau0 = dataclasses.replace(tau_coefficients(prof, 1.2, 0.06, 1e8), tau_p2=0.0)
    pump = PumpSpec(omega_p=1.2, sigma=0.02)
    nu = np.linspace(-0.02, 0.02, 31)
    g0 = jsa_analytic(tau0, pump, 1.26 + nu, 1.14 + nu)
    scale = np.max(np.abs(g0.amplitude))
    for tau_p2, bound in ((1e-4, 1e-7), (1e-6, 1e-9)):
        g1 = jsa_analytic(dataclasses.replace(tau0, tau_p2=tau_p2), pump, 1.26 + nu, 1.14 + nu)
        assert np.max(np.abs(g0.amplitude - g1.amplitude)) < bound * scale


# ------------------------------------------------------------------ numeric JSA


def _cw_setup():
    prof, _ = quadratic_profile(1.2, 0.06, 1e6, tau_p2=60.0)
    signal = np.linspace(1.245, 1.275, 21)
    idler = (2.4 - signal)[::-1]
    return prof, signal, idler


def _cw_line(prof, signal):
    """Monochromatic-pump amplitude along the energy-conservation line.

    The mismatch comes from the proxy's Taylor series about the pump, so no
    k values of ~5e-3 rad/nm cancel in L delta_k.
    """
    a, h = prof.pump_series(1.2)
    p = Polynomial(a)
    t = (signal - 1.2) / h
    return sinc_phase(-1e6 * (p(t) + p(-t)))


def test_jsa_numeric_single_node_equals_cw():
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    grid = jsa_numeric(prof, pump, signal, idler, 1e6, nodes=1, check=False)
    assert grid.quadrature == PumpQuadrature(1, None, math.erfc(3.0 * math.sqrt(2.0)))
    line = _cw_line(prof, signal)
    diag = np.array([grid.amplitude[m, signal.size - 1 - m] for m in range(signal.size)])
    ratio = diag / line
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12 * np.abs(ratio[0])


def test_jsa_numeric_cw_limit():
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=1e-4)
    grid = jsa_numeric(prof, pump, signal, idler, 1e6, nodes=31, check=False)
    line = _cw_line(prof, signal)
    diag = np.array([grid.amplitude[m, signal.size - 1 - m] for m in range(signal.size)])
    a = np.abs(diag) / np.abs(diag).max()
    b = np.abs(line) / np.abs(line).max()
    assert np.max(np.abs(a - b)) < 0.01


def test_jsa_numeric_convergence_guard(monkeypatch):
    # From one node the check grows the rule until the subgrid settles, and
    # the result is the well-resolved integral.  Below what the case needs,
    # the ceiling stops the growth with an error instead.
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    grown = jsa_numeric(prof, pump, signal, idler, 1e6, nodes=1, check=True)
    fine = jsa_numeric(prof, pump, signal, idler, 1e6, nodes=255, check=False)
    assert np.max(np.abs(grown.amplitude - fine.amplitude)) < 1e-6 * np.max(
        np.abs(fine.amplitude)
    )
    monkeypatch.setattr(biphoton, "_MAX_NODES", 3)
    with pytest.raises(EvaluationError, match="not converged"):
        jsa_numeric(prof, pump, signal, idler, 1e6, nodes=1, check=True)


def test_jsa_numeric_rules_nest(monkeypatch):
    # From one point the check doubles the interval count (1, 2, 3, 5, 9, ...
    # points), so each rule's nodes are a subset of the next rule's, and the
    # grid reuses the rule the check settled on instead of building it again.
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    pump_rule, rules = biphoton._pump_rule, []

    def recording(points, sigma):
        rules.append(pump_rule(points, sigma))
        return rules[-1]

    monkeypatch.setattr(biphoton, "_pump_rule", recording)
    grid = jsa_numeric(prof, pump, signal, idler, 1e6, nodes=1, check=True)
    sizes = [u.size for u, _ in rules]
    assert len(sizes) >= 4
    assert sizes == [1] + [2**k + 1 for k in range(len(sizes) - 1)]
    assert grid.quadrature.points == sizes[-2]
    assert grid.quadrature.drift <= 1e-6
    for (u, _), (v, _) in zip(rules, rules[1:]):
        assert np.isin(u, v).all()


def test_jsa_numeric_ignores_affine_part_of_k():
    # Energy conservation cancels any A + B omega added to k.  With
    # L A ~ 1e9 rad, forming L delta_k from k values would leave ~1e-7 rad
    # of roundoff; dropping the tangent line from the proxy's Taylor
    # coefficients about the pump leaves none of it.
    prof, exp = quadratic_profile(1.2, 0.06, 1e8, tau_p2=-2.0e4)
    shifted = with_line(prof)
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    nu = np.linspace(-0.008, 0.008, 17)
    args = (pump, exp["omega_s0"] + nu, exp["omega_i0"] + nu, 1e8)
    base = jsa_numeric(prof, *args)
    moved = jsa_numeric(shifted, *args)
    peak = np.max(np.abs(base.amplitude))
    assert np.max(np.abs(moved.amplitude - base.amplitude)) < 1e-9 * peak


def _shared_rule_jsa(prof, pump, signal, idler, length_nm, nodes):
    """Brute-force pump integral: one Gauss-Legendre rule in omega for all
    cells, spanning every sum-frequency midpoint padded by five pump widths."""
    t_lo = 0.5 * (signal.min() + idler.min()) - pump.omega_p - 5.0 * pump.sigma
    t_hi = 0.5 * (signal.max() + idler.max()) - pump.omega_p + 5.0 * pump.sigma
    q, w = np.polynomial.legendre.leggauss(nodes)
    om = pump.omega_p + 0.5 * (t_lo + t_hi) + 0.5 * (t_hi - t_lo) * q
    conj = signal[:, None, None] + idler[None, :, None] - om
    k = prof.k_derivative
    dk = k(om, 0) + k(conj, 0) - k(signal, 0)[:, None, None] - k(idler, 0)[None, :, None]
    envelope = np.exp(-(((om - pump.omega_p) ** 2 + (conj - pump.omega_p) ** 2) / pump.sigma**2))
    integrand = envelope * sinc_phase(length_nm * dk)
    return integrand @ (0.5 * (t_hi - t_lo) * w)


def test_jsa_numeric_unequal_axes_match_shared_rule():
    # Different steps, spans and offsets: few sum frequencies repeat.
    prof, exp = hermite_polynomial_profile(
        1.2, 0.06, 1e7, tau_s1=400.0, tau_i1=-250.0, tau_s2=8000.0,
        tau_i2=5000.0, tau_p2=1e3, window_factor=1.5,
    )
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    signal = exp["omega_s0"] + np.linspace(-0.010, 0.012, 13)
    idler = exp["omega_i0"] + np.linspace(-0.015, 0.009, 17)
    got = jsa_numeric(prof, pump, signal, idler, 1e7)
    want = JsaGrid(signal, idler, _shared_rule_jsa(prof, pump, signal, idler, 1e7, 1601))
    want = want.normalize().amplitude
    assert np.max(np.abs(got.amplitude - want)) < 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("kernel", ["analytic", "numeric"])
@pytest.mark.parametrize("axes, message", [
    ((np.geomspace(1.245, 1.275, 21), np.linspace(1.125, 1.155, 21)),
     "signal axis is not equally spaced"),
    ((np.linspace(1.245, 1.275, 21), np.array([1.14])),
     "idler axis needs at least 2 points, got 1"),
    ((np.full(21, 1.26), np.linspace(1.125, 1.155, 21)),
     "signal axis step is zero or not finite"),
], ids=["unequal", "one-point", "constant"])
def test_jsa_kernels_check_axes_before_integrating(monkeypatch, kernel, axes, message):
    # JsaGrid's axis rules run before either kernel fills a grid, so a grid
    # that could not be returned is never integrated.
    def fail(*args):
        raise AssertionError("the kernel integrated a grid it rejects")

    monkeypatch.setattr(biphoton, "_jsa_numeric_raw", fail)
    monkeypatch.setattr(biphoton, "phi_function", fail)
    with pytest.raises(ConfigError, match=message):
        if kernel == "numeric":
            jsa_numeric(_cw_setup()[0], PumpSpec(omega_p=1.2, sigma=0.004), *axes, 1e6)
        else:
            jsa_analytic(_symmetric_tau(), PumpSpec(omega_p=1.2, sigma=0.02), *axes)


def test_jsa_numeric_validation():
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    for length_nm in (0.0, math.nan):
        with pytest.raises(ConfigError):
            jsa_numeric(prof, pump, signal, idler, length_nm)
    with pytest.raises(ConfigError):
        jsa_numeric(prof, pump, signal, idler, 1e6, nodes=0)


def test_jsa_numeric_matches_analytic_quadratic():
    # For a globally quadratic k the closed form is exact; quadrature and
    # formula must agree tightly on a normalized grid.
    prof, exp = quadratic_profile(1.2136, 0.0582, 5e8, tau_p2=-2.0e4)
    tau = tau_coefficients(prof, exp["omega_p"], exp["delta"],
                           exp["length_nm"])
    pump = PumpSpec(omega_p=exp["omega_p"], sigma=0.004)
    nu = np.linspace(-0.008, 0.008, 41)
    signal = exp["omega_s0"] + nu
    idler = exp["omega_i0"] + nu
    ana = jsa_analytic(tau, pump, signal, idler)
    num = jsa_numeric(prof, pump, signal, idler, exp["length_nm"], nodes=201)
    scale = np.max(np.abs(num.amplitude))
    # Global phase may differ; align on the largest element.
    m = np.unravel_index(np.argmax(np.abs(num.amplitude)), num.amplitude.shape)
    phase = num.amplitude[m] / ana.amplitude[m]
    assert abs(abs(phase) - 1.0) < 1e-6
    diff = np.max(np.abs(num.amplitude - ana.amplitude * phase)) / scale
    assert diff < 1e-6


def _fig4_jsa_inputs(profile):
    config = load_preset("fig4")
    wp = working_point(config, profile)
    axes = wp.axes(profile, config.jsa_span, config.jsa_points)
    return config, wp.pump, axes


def test_jsa_numeric_fig4_integrand_points(monkeypatch, profile_bismuth):
    # jsa fig4, the 100 m nanowire, settles at 129 trapezoid points.  Its
    # phases span ~1000 rad, so the pump sum factors almost everywhere and
    # only points with |L dk| below the split cut reach sinc_phase (10 with
    # the check's, 1.2e-6 of the grid's 256^2 x 129).  Phases formed per
    # point again would send all of them.
    config, pump, axes = _fig4_jsa_inputs(profile_bismuth)
    points = []

    def counting(y):
        points.append(np.size(y))
        return sinc_phase(y)

    monkeypatch.setattr(biphoton, "sinc_phase", counting)
    grid = jsa_numeric(profile_bismuth, pump, *axes, config.length_nm, gamma=config.gamma)
    assert grid.quadrature.points == 129
    assert sum(points) <= 1e-3 * 256**2 * 129


def _per_point_error(profile, pump, axes, length_nm, gp, rule):
    """Largest gap of the factored pump sum to per-point phases, per peak."""
    got = biphoton._jsa_numeric_raw(profile, pump, *axes, length_nm, gp, rule)
    want = jsa_pump_sum_per_point(profile, pump, *axes, length_nm, gp, rule)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("name, fixture, points", [
    ("fig3", "profile_1644", 9),
    ("fig4", "profile_bismuth", 129),
])
def test_pump_sum_matches_per_point_oracle_on_presets(request, name, fixture, points):
    # The full 256^2 jsa grids at the rules the check settles on.  fig3's
    # phases stay below 0.5 rad, so a fifth of its points fall back to
    # sinc_phase and the split sums' roundoff is largest there.
    profile = request.getfixturevalue(fixture)
    config = load_preset(name)
    wp = working_point(config, profile)
    pump = wp.pump
    axes = wp.axes(profile, config.jsa_span, config.jsa_points)
    gp = nonlinear_mismatch(config.gamma, pump.power)
    rule = biphoton._pump_rule(points, pump.sigma)
    assert _per_point_error(profile, pump, axes, config.length_nm, gp, rule) <= 1e-12


def test_pump_sum_matches_per_point_oracle_on_synthetic_profiles():
    # A chirped synthetic profile on equal axes with the folded
    # Gauss-Legendre rule, and the unequal axes whose sums rarely repeat.
    prof, exp = hermite_polynomial_profile(
        1.2, 0.06, 1e7, tau_s1=400.0, tau_i1=-250.0, tau_s2=8000.0,
        tau_i2=5000.0, tau_p2=1e3, window_factor=1.5,
    )
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    nu = np.linspace(-0.012, 0.012, 64)
    equal = (exp["omega_s0"] + nu, exp["omega_i0"] + nu)
    rule = folded_gauss_legendre_rule(255, pump.sigma)
    assert _per_point_error(prof, pump, equal, 1e7, 0.0, rule) <= 1e-12
    unequal = (
        exp["omega_s0"] + np.linspace(-0.010, 0.012, 13),
        exp["omega_i0"] + np.linspace(-0.015, 0.009, 17),
    )
    rule = biphoton._pump_rule(65, pump.sigma)
    assert _per_point_error(prof, pump, unequal, 1e7, 1e-9, rule) <= 1e-12
    # The CW rule's node u = 0 puts L dk exactly at 0 in the degenerate cell.
    axis = np.linspace(1.19, 1.21, 5)
    rule = biphoton._pump_rule(1, pump.sigma)
    assert _per_point_error(prof, pump, (axis, axis), 1e7, 0.0, rule) <= 1e-12


def test_jsa_numeric_fig4_matches_gauss_legendre(profile_bismuth):
    # On a 16x16 subgrid of jsa fig4 the settled trapezoid rule on 3 sigma
    # agrees with a 1023-node folded Gauss-Legendre rule on 4 sigma.
    config, pump, axes = _fig4_jsa_inputs(profile_bismuth)
    sub = [a[::16] for a in axes]
    got = jsa_numeric(profile_bismuth, pump, *sub, config.length_nm, gamma=config.gamma)
    gp = nonlinear_mismatch(config.gamma, pump.power)
    rule = folded_gauss_legendre_rule(1023, pump.sigma)
    want = biphoton._jsa_numeric_raw(profile_bismuth, pump, *sub, config.length_nm, gp, rule)
    want = JsaGrid(*sub, want).normalize().amplitude
    assert np.max(np.abs(got.amplitude - want)) <= 1e-9 * np.max(np.abs(want))


def _preset_kernel(request, name, fixture, kernel):
    """A zero-argument call of the preset's 256^2 analytic or numeric JSA."""
    profile = request.getfixturevalue(fixture)
    config = load_preset(name)
    wp = working_point(config, profile)
    axes = wp.axes(profile, config.jsa_span, config.jsa_points)
    if kernel == "numeric":
        return lambda: jsa_numeric(profile, wp.pump, *axes, config.length_nm, gamma=config.gamma)
    tau = tau_coefficients(profile, wp.omega_p, wp.delta,
                           config.length_nm, gamma=config.gamma, power=wp.pump.power)
    return lambda: jsa_analytic(tau, wp.pump, *axes)


@pytest.mark.parametrize("kernel", ["analytic", "numeric"])
@pytest.mark.parametrize("name, fixture", [("fig3", "profile_1644"), ("fig4", "profile_bismuth")])
def test_jsa_kernels_work_in_bounded_memory(request, name, fixture, kernel):
    # The kernel holds the amplitude, its normalised copy and block-sized
    # temporaries; a full-grid phi_function or L C array would show here.
    run = _preset_kernel(request, name, fixture, kernel)
    run()  # caches filled outside the trace
    tracemalloc.start()
    try:
        grid = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.amplitude.shape == (256, 256)
    assert peak <= 4 * grid.amplitude.nbytes


@pytest.mark.parametrize("name, fixture", [("fig3", "profile_1644"), ("fig4", "profile_bismuth")])
def test_schmidt_metrics_holds_one_weighted_copy(request, name, fixture):
    # One weighted copy of the amplitude, weighted in place; a second
    # full-grid temporary (ws * F before * wi) would read 2.13x here.
    # tracemalloc does not see the copy numpy.linalg makes for LAPACK, so this
    # bounds only what sfwm allocates.
    grid = _preset_kernel(request, name, fixture, "analytic")()
    schmidt_metrics(grid)  # caches filled outside the trace
    tracemalloc.start()
    try:
        schmidt_metrics(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.amplitude.shape == (256, 256)
    assert peak <= 1.5 * grid.amplitude.nbytes


def test_jsa_numeric_memory_when_no_sums_repeat():
    # Axis steps in the ratio 1/sqrt(2): every one of the 256^2 cells has its
    # own sum, so a table of L K_S over all sums would hold cells x nodes
    # (34 MB at 65 points).  The windowed table stays block-sized.
    prof, exp = hermite_polynomial_profile(
        1.2, 0.06, 1e7, tau_s1=400.0, tau_i1=-250.0, tau_s2=8000.0,
        tau_i2=5000.0, tau_p2=1e3, window_factor=1.5,
    )
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    signal = exp["omega_s0"] + np.linspace(-0.010, 0.012, 256)
    idler = exp["omega_i0"] + np.linspace(-0.015, -0.015 + 0.024 / math.sqrt(2.0), 256)
    assert np.unique(signal[:, None] + idler).size == 256**2
    tracemalloc.start()
    try:
        grid = jsa_numeric(prof, pump, signal, idler, 1e7, nodes=65, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid.amplitude.nbytes


def test_jsa_kernels_do_not_depend_on_block_size(monkeypatch, profile_bismuth):
    # Blocks of a few cells (or three rows), so that a sum frequency's cells
    # span several blocks and the last block is short, give the default
    # blocks' result bit for bit.  Rules reach 129 points here (the check's
    # finer rule on the unequal axes), so 387 points are 3 to 24 cells.
    prof, exp = hermite_polynomial_profile(
        1.2, 0.06, 1e7, tau_s1=400.0, tau_i1=-250.0, tau_s2=8000.0,
        tau_i2=5000.0, tau_p2=1e3, window_factor=1.5,
    )
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    unequal = (exp["omega_s0"] + np.linspace(-0.010, 0.012, 13),
               exp["omega_i0"] + np.linspace(-0.015, 0.009, 17))
    config, fig4_pump, axes = _fig4_jsa_inputs(profile_bismuth)
    sub = [a[::8] for a in axes]
    _, counts = np.unique(sub[0][:, None] + sub[1], return_counts=True)
    assert sub[0].size == 32 and counts.max() > 3
    wp = working_point(config, profile_bismuth)
    tau = tau_coefficients(profile_bismuth, wp.omega_p, wp.delta,
                           config.length_nm, gamma=config.gamma, power=wp.pump.power)
    rows = (axes[0][::7], axes[1][::9])
    assert rows[0].size % 3 != 0
    cases = [
        (3 * 129, lambda: jsa_numeric(prof, pump, *unequal, 1e7)),
        (3 * 129, lambda: jsa_numeric(profile_bismuth, fig4_pump, *sub, config.length_nm,
                                      gamma=config.gamma, nodes=129, check=False)),
        (4 * 3 * rows[1].size, lambda: jsa_analytic(tau, wp.pump, *rows)),
    ]
    for points, kernel in cases:
        default = kernel()
        with monkeypatch.context() as m:
            m.setattr(biphoton, "_BLOCK_POINTS", points)
            small = kernel()
        assert np.array_equal(small.amplitude, default.amplitude)
        assert small.quadrature == default.quadrature


# ---------------------------------------------------------------- Schmidt modes


def test_schmidt_product_state():
    x = np.linspace(-5.0, 5.0, 201)
    amp = np.exp(-(x[:, None] ** 2) / 0.8) * np.exp(-(x[None, :] ** 2) / 2.6)
    grid = JsaGrid(signal_axis=x, idler_axis=x, amplitude=amp.astype(complex))
    res = schmidt_metrics(grid)
    assert res.purity == pytest.approx(1.0, abs=1e-10)
    assert res.schmidt_number == pytest.approx(1.0, abs=1e-10)
    assert res.coefficients[0] == pytest.approx(1.0, abs=1e-10)


def test_schmidt_two_equal_modes():
    x = np.linspace(-8.0, 8.0, 401)
    h0 = np.exp(-(x**2) / 2.0)
    h1 = x * np.exp(-(x**2) / 2.0)
    h0 /= np.sqrt(np.trapezoid(h0**2, x))
    h1 /= np.sqrt(np.trapezoid(h1**2, x))
    amp = np.outer(h0, h0) + np.outer(h1, h1)
    grid = JsaGrid(signal_axis=x, idler_axis=x, amplitude=amp.astype(complex))
    res = schmidt_metrics(grid)
    assert res.purity == pytest.approx(0.5, abs=1e-10)
    assert res.schmidt_number == pytest.approx(2.0, abs=1e-9)
    assert res.coefficients[0] == pytest.approx(0.5, abs=1e-10)
    assert res.coefficients[1] == pytest.approx(0.5, abs=1e-10)


def test_schmidt_gaussian_cross_term():
    # exp(-x^2 - y^2 - xy) has closed-form purity sqrt(3)/2.
    x = np.linspace(-6.0, 6.0, 301)
    amp = np.exp(-(x[:, None] ** 2) - x[None, :] ** 2 - x[:, None] * x[None, :])
    grid = JsaGrid(signal_axis=x, idler_axis=x, amplitude=amp.astype(complex))
    res = schmidt_metrics(grid)
    assert res.purity == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-4)


def test_schmidt_trapezoid_weights_exact_on_periodic_modes():
    # 1 and cos are orthogonal under the trapezoid rule with both ends of
    # [0, 2 pi], so the Nystroem weights see two equal Schmidt modes exactly;
    # equal cell weights count the two end samples twice and do not.
    x = np.linspace(0.0, 2.0 * np.pi, 33)
    amp = 1.0 / (2.0 * np.pi) + np.outer(np.cos(x), np.cos(x)) / np.pi
    grid = JsaGrid(signal_axis=x, idler_axis=x, amplitude=amp.astype(complex))
    res = schmidt_metrics(grid)
    assert res.purity == pytest.approx(0.5, abs=1e-12)
    assert res.coefficients[:2] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_purity_converges_in_step(profile_bismuth):
    # fig4's working point and span: halving the step must leave the
    # purity unchanged to 1e-6 (the rectangle rule moves it by 1.9e-5).
    config = load_preset("fig4")
    wp = working_point(config, profile_bismuth)
    tau = tau_coefficients(
        profile_bismuth, wp.omega_p, wp.delta, config.length_nm,
        gamma=config.gamma, power=wp.pump.power,
    )
    coarse, fine = (
        schmidt_metrics(
            jsa_analytic(tau, wp.pump, *wp.axes(profile_bismuth, config.jsa_span, points))
        ).purity
        for points in (256, 511)
    )
    assert coarse == pytest.approx(fine, abs=1e-6)


def test_border_mass_counts_each_edge_cell_once():
    x = np.linspace(0.0, 1.0, 5)
    y = np.linspace(0.0, 1.0, 4)
    amp = np.ones((5, 4), dtype=complex)
    amp[2, 1] = 3.0  # interior: 9 of a total 19 + 9 = 28
    grid = JsaGrid(signal_axis=x, idler_axis=y, amplitude=amp)
    # 2 * 4 + 2 * 3 = 14 border cells of 20, each |F|^2 = 1.
    assert grid.border_mass() == pytest.approx(14.0 / 28.0, rel=1e-15)
    assert grid.normalize().border_mass() == pytest.approx(14.0 / 28.0, rel=1e-15)


def test_schmidt_weighting_order_matches_one_expression(profile_bismuth):
    # purity.txt and design_report.txt stay byte-identical only while ws
    # multiplies before wi, as in the one-expression product.
    config = load_preset("fig4")
    wp = working_point(config, profile_bismuth)
    tau = tau_coefficients(profile_bismuth, wp.omega_p, wp.delta,
                           config.length_nm, gamma=config.gamma, power=wp.pump.power)
    rng = np.random.default_rng(3)
    grids = [
        jsa_analytic(tau, wp.pump, *wp.axes(profile_bismuth, config.jsa_span, config.jsa_points)),
        JsaGrid(np.linspace(1.20, 1.23, 13), np.linspace(1.34, 1.30, 17),
                rng.standard_normal((13, 17)) + 1j * rng.standard_normal((13, 17))),
    ]
    for grid in grids:
        assert np.array_equal(schmidt_metrics(grid).coefficients,
                              schmidt_coefficients_one_expression(grid))


def test_schmidt_metrics_takes_purity_from_its_own_svd(monkeypatch, request):
    # One decomposition per call: the purity is sum lambda^2 of the
    # coefficients, not a second pass through heralded_purity.
    grids = [_preset_kernel(request, "fig4", "profile_bismuth", "analytic")(),
             _unequal_random_grid()]
    want = [schmidt_metrics(grid) for grid in grids]

    def fail(jsa):
        raise AssertionError("schmidt_metrics called heralded_purity")

    monkeypatch.setattr(biphoton, "heralded_purity", fail)
    for grid, before in zip(grids, want):
        got = schmidt_metrics(grid)
        assert np.array_equal(got.coefficients, before.coefficients)
        assert (got.purity, got.schmidt_number) == (before.purity, before.schmidt_number)
        assert got.purity == float(np.sum(got.coefficients**2))


def test_schmidt_scale_invariance():
    x = np.linspace(-6.0, 6.0, 121)
    amp = np.exp(-(x[:, None] ** 2) - x[None, :] ** 2 - 0.6 * x[:, None] * x[None, :])
    grid = JsaGrid(signal_axis=x, idler_axis=x, amplitude=amp.astype(complex))
    scaled = JsaGrid(signal_axis=x, idler_axis=x, amplitude=3.7j * amp)
    assert schmidt_metrics(grid).purity == pytest.approx(
        schmidt_metrics(scaled).purity, rel=1e-12
    )


def _unequal_random_grid():
    # 13 x 17 with unequal steps, the idler axis descending.
    rng = np.random.default_rng(3)
    return JsaGrid(np.linspace(1.20, 1.23, 13), np.linspace(1.34, 1.30, 17),
                   rng.standard_normal((13, 17)) + 1j * rng.standard_normal((13, 17)))


PRESET_PROFILES = [("fig1", "profile_1652"), ("fig2b", "profile_1644"),
                   ("fig3", "profile_1644"), ("fig4", "profile_bismuth")]


@pytest.mark.parametrize("kernel", ["analytic", "numeric"])
@pytest.mark.parametrize("name, fixture", PRESET_PROFILES)
def test_heralded_purity_matches_svd(request, name, fixture, kernel):
    grid = _preset_kernel(request, name, fixture, kernel)()
    assert heralded_purity(grid) == pytest.approx(schmidt_purity_by_svd(grid), rel=1e-13)


def test_heralded_purity_matches_svd_on_unequal_steps():
    grid = _unequal_random_grid()
    assert heralded_purity(grid) == pytest.approx(schmidt_purity_by_svd(grid), rel=1e-13)


def test_heralded_purity_exact_values():
    # A product state has one Schmidt mode; 1 and cos are orthogonal under the
    # trapezoid rule with both ends of [0, 2 pi], so they are two equal modes.
    s, i = np.linspace(-3.0, 3.0, 41), np.linspace(-4.0, 5.0, 23)
    product = np.outer(np.exp(-s**2), np.exp(-(i - 0.5) ** 2 + 0.3j * i))
    assert heralded_purity(JsaGrid(s, i, product)) == pytest.approx(1.0, abs=1e-14)
    x = np.linspace(0.0, 2.0 * np.pi, 33)
    two = (1.0 / (2.0 * np.pi) + np.outer(np.cos(x), np.cos(x)) / np.pi).astype(complex)
    assert heralded_purity(JsaGrid(x, x, two)) == pytest.approx(0.5, abs=1e-14)


def test_heralded_purity_does_not_depend_on_block_size(monkeypatch, request):
    # One column per block, and blocks of 3 or 5 columns that leave a short last one.
    grids = [_preset_kernel(request, "fig4", "profile_bismuth", "analytic")(),
             _unequal_random_grid()]
    for grid in grids:
        rows = grid.amplitude.shape[0]
        default = heralded_purity(grid)
        for cols in (1, 3, 5):
            with monkeypatch.context() as m:
                m.setattr(biphoton, "_BLOCK_POINTS", 4 * rows * cols)
                assert heralded_purity(grid) == pytest.approx(default, rel=1e-14)


@pytest.mark.parametrize("name, fixture", [("fig3", "profile_1644"), ("fig4", "profile_bismuth")])
def test_heralded_purity_holds_no_full_grid_temporary(request, name, fixture):
    # Block-sized temporaries only: 0.51x on 256^2.  The SVD route's weighted
    # copy alone is 1x (schmidt_metrics reads 1.13x).
    grid = _preset_kernel(request, name, fixture, "analytic")()
    heralded_purity(grid)  # caches filled outside the trace
    tracemalloc.start()
    try:
        heralded_purity(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.amplitude.shape == (256, 256)
    assert peak <= 0.6 * grid.amplitude.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_amplitude_rejected(bad):
    x = np.linspace(1.0, 1.1, 8)
    amplitude = np.ones((8, 8), dtype=complex)
    amplitude[3, 4] = bad
    with pytest.raises(EvaluationError, match="non-finite"):
        JsaGrid(x, x, amplitude)
    # A grid whose amplitude changed after its checks passed.
    grid = JsaGrid(x, x, np.ones((8, 8), dtype=complex))
    grid.amplitude[3, 4] = bad
    for metric in (schmidt_metrics, heralded_purity):
        with pytest.raises(EvaluationError, match="non-finite"):
            metric(grid)
