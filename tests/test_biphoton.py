import numpy as np
import pytest
from numpy.polynomial import Polynomial

from sfwm import biphoton
from sfwm.biphoton import (
    JsaGrid,
    PumpSpec,
    jsa_analytic,
    jsa_numeric,
    phi_function,
    schmidt_metrics,
)
from sfwm.dispersion import TauSet, tau_coefficients
from sfwm.errors import ConfigError, EvaluationError
from sfwm.phasematching import sinc_phase
from sfwm.units import omega_from_wavelength, pump_sigma_from_fwhm

from oracles import faddeeva_mp, pair_integral_quadrature
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
    cases = [(-2.0, 1.0), (-0.5, 0.3), (2.0, 1.0j), (-10.0, 3.0j), (0.5, 6.0j)]
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
    with pytest.raises(ConfigError):
        PumpSpec(omega_p=1.0, sigma=0.0)
    with pytest.raises(ConfigError):
        PumpSpec(omega_p=1.0, sigma=0.01, power=-1.0)


# -------------------------------------------------------------------- JsaGrid


def test_jsa_grid_normalize():
    s_axis = np.linspace(-1.0, 1.0, 101)
    i_axis = np.linspace(-1.0, 1.0, 101)
    amp = np.exp(-(s_axis[:, None] ** 2) - i_axis[None, :] ** 2).astype(complex)
    grid = JsaGrid(signal_axis=s_axis, idler_axis=i_axis, amplitude=amp)
    norm = grid.normalize()
    assert norm.normalized
    total = np.sum(norm.intensity()) * norm.d_signal * norm.d_idler
    assert total == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ConfigError):
        JsaGrid(signal_axis=s_axis, idler_axis=i_axis, amplitude=amp[:50])


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


# ----------------------------------------------------------------- analytic JSA


def _symmetric_tau(tau_s2=1.0e3, tau_i2=None, tau_p2=10.0, length=1e8):
    tau_i2 = tau_s2 if tau_i2 is None else tau_i2
    return TauSet(
        omega_p=1.2,
        omega_s0=1.26,
        omega_i0=1.14,
        length_nm=length,
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
        omega_p=1.2, omega_s0=1.26, omega_i0=1.14, length_nm=1e8,
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
    from sfwm.phasematching import fwhm

    w_plus = fwhm(nu[mid + ks], diag_plus)
    w_minus = fwhm(nu[mid + ks], diag_minus)
    ratio = min(w_plus, w_minus) / max(w_plus, w_minus)
    ecc = np.sqrt(1.0 - ratio**2)
    assert ecc < 0.1


def test_jsa_analytic_energy_conservation_enforced():
    tau = _symmetric_tau()
    pump = PumpSpec(omega_p=1.2, sigma=0.02)
    bad = PumpSpec(omega_p=1.21, sigma=0.02)
    nu = np.linspace(-0.01, 0.01, 11)
    with pytest.raises(ConfigError):
        jsa_analytic(tau, bad, 1.26 + nu, 1.14 + nu)


def test_jsa_analytic_zero_tau_p2_limit():
    # tau_p2 -> 0 reduces the pair profile to the plain sinc envelope; check
    # continuity against a tiny but finite tau_p2.
    prof0, _ = hermite_polynomial_profile(
        1.2, 0.06, 1e8, tau_s1=40.0, tau_i1=-25.0, tau_s2=800.0, tau_i2=500.0,
        tau_p2=0.0,
    )
    tau0 = tau_coefficients(prof0, 1.2, 1.26, 1.14, 1e8)
    prof1, _ = hermite_polynomial_profile(
        1.2, 0.06, 1e8, tau_s1=40.0, tau_i1=-25.0, tau_s2=800.0, tau_i2=500.0,
        tau_p2=1e-4,
    )
    tau1 = tau_coefficients(prof1, 1.2, 1.26, 1.14, 1e8)
    pump = PumpSpec(omega_p=1.2, sigma=0.02)
    nu = np.linspace(-0.02, 0.02, 31)
    g0 = jsa_analytic(tau0, pump, 1.26 + nu, 1.14 + nu)
    g1 = jsa_analytic(tau1, pump, 1.26 + nu, 1.14 + nu)
    scale = np.max(np.abs(g0.amplitude))
    assert np.max(np.abs(g0.amplitude - g1.amplitude)) < 1e-6 * scale


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
    a, h = prof.taylor(1.2)
    p = Polynomial(np.append(0.0, a[1:]))
    t = (signal - 1.2) / h
    return sinc_phase(-1e6 * (p(t) + p(-t)))


def test_jsa_numeric_single_node_equals_cw():
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    grid = jsa_numeric(prof, pump, signal, idler, 1e6, nodes=1, check=False,
                       normalize=False)
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


def test_jsa_numeric_builds_each_rule_once(monkeypatch):
    # The grid reuses the rule the check settled on.
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    calls = []

    def counting(n):
        calls.append(n)
        return np.polynomial.legendre.leggauss(n)

    monkeypatch.setattr(biphoton, "leggauss", counting)
    jsa_numeric(prof, pump, signal, idler, 1e6, nodes=1, check=True)
    assert len(calls) >= 3
    assert calls == sorted(set(calls))


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
    base = jsa_numeric(prof, *args, normalize=False)
    moved = jsa_numeric(shifted, *args, normalize=False)
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
    dk = (prof.k(om) + prof.k(conj) - prof.k(signal)[:, None, None]
          - prof.k(idler)[None, :, None])
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
    got = jsa_numeric(prof, pump, signal, idler, 1e7, normalize=False)
    want = _shared_rule_jsa(prof, pump, signal, idler, 1e7, 1601)
    assert np.max(np.abs(got.amplitude - want)) < 1e-6 * np.max(np.abs(want))


def test_jsa_numeric_validation():
    prof, signal, idler = _cw_setup()
    pump = PumpSpec(omega_p=1.2, sigma=0.004)
    with pytest.raises(ConfigError):
        jsa_numeric(prof, pump, signal, idler, 0.0)
    with pytest.raises(ConfigError):
        jsa_numeric(prof, pump, signal, idler, 1e6, nodes=0)


def test_jsa_numeric_matches_analytic_quadratic():
    # For a globally quadratic k the closed form is exact; quadrature and
    # formula must agree tightly on a normalized grid.
    prof, exp = quadratic_profile(1.2136, 0.0582, 5e8, tau_p2=-2.0e4)
    tau = tau_coefficients(prof, exp["omega_p"], exp["omega_s0"], exp["omega_i0"],
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


def test_schmidt_scale_invariance():
    x = np.linspace(-6.0, 6.0, 121)
    amp = np.exp(-(x[:, None] ** 2) - x[None, :] ** 2 - 0.6 * x[:, None] * x[None, :])
    grid = JsaGrid(signal_axis=x, idler_axis=x, amplitude=amp.astype(complex))
    scaled = JsaGrid(signal_axis=x, idler_axis=x, amplitude=3.7j * amp)
    assert schmidt_metrics(grid).purity == pytest.approx(
        schmidt_metrics(scaled).purity, rel=1e-12
    )
