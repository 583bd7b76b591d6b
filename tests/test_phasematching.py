import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.optimize import brentq

from sfwm.config import load_preset, resolve_pump
from sfwm.dispersion import find_fgvm_points, mismatch_coefficients
from sfwm.errors import ConfigError, EvaluationError, RangeError
from sfwm.phasematching import (
    at_critical_power,
    critical_power,
    delta_k_cw,
    half_max_edges,
    matched_detunings,
    mi_sideband_detuning,
    pm_contours,
    pm_map,
    sinc_phase,
    singles_spectrum,
    trace_contours,
    zero_contours,
)

from sfwm.units import nonlinear_mismatch

from oracles import half_max_crossings, proxy_mismatch, trace_contours_per_cell
from synthetic import quadratic_profile, with_line

GAMMA = 70.0


@pytest.fixture(scope="module")
def gvm_point(profile_1644):
    return find_fgvm_points(profile_1644)[0]


@pytest.fixture(scope="module")
def p_star(profile_1644, gvm_point):
    return critical_power(profile_1644, gvm_point.omega_p, gvm_point.delta, GAMMA)


def _loop_map(profile, gamma, power, n=161, dmax=0.12):
    lo, hi = profile.query_window
    pump = np.linspace(lo + dmax, hi - dmax, n)
    det = np.linspace(-dmax, dmax, n)
    return pm_map(profile, pump, det, gamma=gamma, power=power), pump, det


def test_sinc_phase_values():
    assert sinc_phase(0.0) == pytest.approx(1.0)
    for y in (0.3, -1.7, 4.0):
        assert sinc_phase(y) == pytest.approx((np.exp(1j * y) - 1.0) / (1j * y), rel=1e-13)


def test_delta_k_symmetric_in_detuning(profile_1644):
    op = 1.21
    for d in (0.01, 0.05, 0.09):
        assert delta_k_cw(profile_1644, op, d) == pytest.approx(
            delta_k_cw(profile_1644, op, -d), rel=1e-14
        )


def test_delta_k_power_linearity(profile_1644):
    op, d = 1.21, 0.05
    base = delta_k_cw(profile_1644, op, d)
    shifted = delta_k_cw(profile_1644, op, d, gamma=GAMMA, power=0.5)
    assert base - shifted == pytest.approx(2.0 * GAMMA * 0.5 * 1e-12, rel=1e-12)


def test_delta_k_ignores_affine_part_of_k():
    # 10 + 3 omega added to k cancels exactly in the mismatch.
    prof, _ = quadratic_profile(1.2, 0.06, 1e6, tau_p2=-60.0)
    pump = np.linspace(1.19, 1.21, 9)
    det = np.linspace(-0.04, 0.04, 11)
    assert np.array_equal(pm_map(with_line(prof), pump, det), pm_map(prof, pump, det))
    for func, args in (
        (critical_power, (1.2, 0.03, GAMMA)),
        (matched_detunings, (1.2, 0.05, GAMMA, 0.5)),
    ):
        assert np.array_equal(func(with_line(prof), *args), func(prof, *args))
    with pytest.raises(RangeError):
        delta_k_cw(prof, 1.2, 0.09)


def test_mismatch_readers_share_one_polynomial(profile_1644, gvm_point, p_star):
    # delta_k_cw, critical_power and matched_detunings all read the polynomial
    # of mismatch_coefficients.
    op, power = gvm_point.omega_p, 0.5 * p_star
    coef, h = mismatch_coefficients(profile_1644, op, 0.0, GAMMA, power)
    mismatch = Polynomial(coef)
    d = np.linspace(-0.12, 0.12, 41)
    assert np.array_equal(delta_k_cw(profile_1644, op, d, GAMMA, power), mismatch((d / h) ** 2))
    dk = float(delta_k_cw(profile_1644, op, gvm_point.delta))
    assert critical_power(profile_1644, op, gvm_point.delta, GAMMA) == dk / (2.0 * GAMMA * 1e-12)
    roots = matched_detunings(profile_1644, op, 0.12, GAMMA, power)
    assert roots.size == 2
    sides = np.sign(mismatch((np.outer(roots, [1.0 - 1e-12, 1.0 + 1e-12]) / h) ** 2))
    assert np.array_equal(sides[:, 0], -sides[:, 1])


def test_map_shape(profile_1644):
    pump = np.linspace(1.19, 1.23, 11)
    det = np.linspace(-0.08, 0.08, 7)
    m = pm_map(profile_1644, pump, det)
    assert m.shape == (7, 11)
    assert m[3, 5] == delta_k_cw(profile_1644, pump[5], det[3])
    with pytest.raises(ConfigError):
        trace_contours(np.zeros((3, 3)), pump, det)
    with pytest.raises(ConfigError):
        trace_contours(m.T, pump, det)


def test_circle_contour_accuracy():
    # A disc's boundary must come back as one closed loop with every vertex
    # within a fraction of a cell diagonal of the true circle.
    x = np.linspace(-2.0, 2.0, 101)
    y = np.linspace(-2.0, 2.0, 101)
    xx, yy = np.meshgrid(x, y)
    values = 1.0 - (xx**2 + yy**2)  # level 0 is the unit circle
    contours = trace_contours(values, x, y)
    assert len(contours) == 1
    c = contours[0]
    assert c.closed
    radii = np.hypot(c.points[:, 0], c.points[:, 1])
    cell_diag = np.hypot(x[1] - x[0], y[1] - y[0])
    assert np.max(np.abs(radii - 1.0)) < 1.5 * cell_diag
    assert len(c.points) > 50


def test_open_contour_hits_boundary():
    x = np.linspace(0.0, 1.0, 21)
    y = np.linspace(0.0, 1.0, 21)
    xx, yy = np.meshgrid(x, y)
    contours = trace_contours(yy - xx, x, y)
    assert len(contours) == 1
    c = contours[0]
    assert not c.closed
    # The diagonal line y = x, ends on the domain boundary.
    assert np.allclose(c.points[:, 0], c.points[:, 1], atol=1e-12)
    ends = {tuple(np.round(c.points[0], 6)), tuple(np.round(c.points[-1], 6))}
    assert ends == {(0.0, 0.0), (1.0, 1.0)}


def test_saddle_disambiguation():
    # Two-by-two checkerboard: the centre average decides the pairing and
    # yields two segments, not crossing ones.
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    values = np.array([[1.0, -0.8], [-0.8, 1.0]])
    contours = trace_contours(values, x, y)
    assert len(contours) == 2
    assert all(not c.closed and len(c.points) == 2 for c in contours)


def _random_map(rng, kind, ny, nx):
    """Gaussian noise, small integers (corners exactly on the level) or a
    smooth field of several loops, saddles and open paths."""
    if kind == "noise":
        return rng.standard_normal((ny, nx))
    if kind == "integers":
        return rng.integers(-2, 3, size=(ny, nx)).astype(float)
    yy, xx = np.meshgrid(np.linspace(0, 1, ny), np.linspace(0, 1, nx), indexing="ij")
    f = rng.uniform(2.0, 12.0, size=(3, 2))
    phase = rng.uniform(0.0, 6.0, size=3)
    return sum(np.sin(a * xx + p) * np.cos(b * yy) for (a, b), p in zip(f, phase))


@pytest.mark.parametrize("kind", ["noise", "integers", "smooth"])
@pytest.mark.parametrize("level", [0.0, 0.5])
def test_trace_contours_matches_per_cell_oracle(kind, level):
    # Same contours, order, closed flags and bitwise points as the per-cell
    # tracer, on maps from 2x2 to 40x40 with uniform and sorted random axes.
    # The tracers follow the zero level, so the maps are shifted by `level`:
    # v - level >= 0 exactly when v >= level, so every corner is classified
    # as a tracer of that level would.
    rng = np.random.default_rng(7)
    flags = set()
    for n in range(60):
        ny, nx = (2, 2) if n == 0 else rng.integers(2, 41, size=2)
        if n % 2:
            x, y = np.sort(rng.uniform(-3.0, 3.0, nx)), np.sort(rng.uniform(-3.0, 3.0, ny))
        else:
            x, y = np.linspace(-1.0, 1.0, nx), np.linspace(0.0, 2.0, ny)
        v = _random_map(rng, kind, ny, nx) - level
        got, want = trace_contours(v, x, y), trace_contours_per_cell(v, x, y)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.closed == b.closed
            assert np.array_equal(a.points, b.points)
            flags.add(a.closed)
    assert flags == {False, True}  # both open paths and loops were compared


def test_trace_contours_empty_and_flat_maps():
    x, y = np.arange(3.0), np.arange(4.0)
    for values in (np.ones((4, 3)), -np.ones((4, 3)), np.zeros((4, 3))):
        assert trace_contours(values, x, y) == []


def test_two_loops_one_per_halfplane(profile_1644, p_star):
    for frac in (0.10, 0.40, 0.70, 0.90, 0.95):
        m = _loop_map(profile_1644, GAMMA, frac * p_star)
        closed = [c for c in trace_contours(*m) if c.closed]
        assert len(closed) == 2, f"at {frac} P*"
        sides = sorted(np.sign(c.points[:, 1].mean()) for c in closed)
        assert sides == [-1.0, 1.0]
        for c in closed:
            det = c.points[:, 1]
            assert np.all(det > 0) or np.all(det < 0)


def test_loops_nested_and_collapsing(profile_1644, gvm_point, p_star):
    prev_up = None
    for frac in (0.10, 0.40, 0.70, 0.90, 0.95):
        m = _loop_map(profile_1644, GAMMA, frac * p_star)
        closed = [c for c in trace_contours(*m) if c.closed]
        up = [c for c in closed if c.points[:, 1].mean() > 0][0]
        box = (
            up.points[:, 0].min(),
            up.points[:, 0].max(),
            up.points[:, 1].min(),
            up.points[:, 1].max(),
        )
        # Matching point stays inside every loop's bounding box.
        assert box[0] < gvm_point.omega_p < box[1]
        assert box[2] < gvm_point.delta < box[3]
        if prev_up is not None:
            assert box[0] > prev_up[0] and box[1] < prev_up[1]
            assert box[2] > prev_up[2] and box[3] < prev_up[3]
        prev_up = box
    m = _loop_map(profile_1644, GAMMA, 1.1 * p_star)
    assert [c for c in trace_contours(*m) if c.closed] == []


def test_mismatch_sign_at_matching_point(profile_1644, gvm_point, p_star):
    op, d = gvm_point.omega_p, gvm_point.delta
    assert delta_k_cw(profile_1644, op, d, GAMMA, 0.9 * p_star) > 0
    assert delta_k_cw(profile_1644, op, d, GAMMA, 1.1 * p_star) < 0
    # At P* the mismatch vanishes to the precision of P* itself: 2 gamma P* is
    # ~1.3e-10 rad/nm, so 1e-22 is ~1e-12 relative.  Subtracting k values of
    # ~6e-3 rad/nm would leave ~3e-18 here; the 50-digit sum and delta_k_cw's
    # Taylor series about the pump both avoid that.
    gp = nonlinear_mismatch(GAMMA, p_star)
    assert abs(proxy_mismatch(profile_1644.fit, op, gp, d)) < 1e-22
    assert abs(delta_k_cw(profile_1644, op, d, GAMMA, p_star)) < 1e-22


def test_critical_power_frozen(p_star):
    assert p_star == pytest.approx(0.949625, abs=1e-4)


def test_at_critical_power(profile_1644, gvm_point, p_star):
    # p_star is what auto-critical resolves to.  The test is in mismatch
    # form, so it never holds at gamma = 0, where every power would be "P*".
    assert at_critical_power(profile_1644, gvm_point, GAMMA, p_star)
    assert not at_critical_power(profile_1644, gvm_point, 0.0, p_star)
    assert not at_critical_power(profile_1644, gvm_point, 0.0, 0.0)
    # P* pasted back from a %.9g echo is still P*; 1e-7 away it is not.
    pasted = float(f"{p_star:.9g}")
    assert pasted != p_star and at_critical_power(profile_1644, gvm_point, GAMMA, pasted)
    for off in (-1e-7, 1e-7):
        assert not at_critical_power(profile_1644, gvm_point, GAMMA, p_star * (1.0 + off))


def test_critical_power_validation(profile_1644, gvm_point):
    for gamma in (0.0, np.nan):
        with pytest.raises(ConfigError):
            critical_power(profile_1644, gvm_point.omega_p, gvm_point.delta, gamma)


def test_mi_detuning_against_matched_sideband(profile_1644, gvm_point):
    # At low power the inner matched sideband approaches the
    # modulation-instability detuning.
    op = gvm_point.omega_p
    power = 0.05
    mi = mi_sideband_detuning(profile_1644, op, GAMMA, power)

    def f(d):
        return float(delta_k_cw(profile_1644, op, d, GAMMA, power))

    d_match = brentq(f, 1e-4, 0.02)
    assert mi == pytest.approx(d_match, rel=0.10)


def test_matched_detunings_quadratic_exact():
    # Constant anomalous curvature: delta_k = -k'' delta^2 - 2 gamma P has the
    # single root sqrt(2 gamma P / |k''|), the modulation-instability detuning.
    prof, _ = quadratic_profile(1.2, 0.06, 1e6, tau_p2=-60.0)
    expected = mi_sideband_detuning(prof, 1.2, GAMMA, 0.5)
    assert matched_detunings(prof, 1.2, 0.08, GAMMA, 0.5) == pytest.approx(
        [expected], rel=1e-12
    )
    assert matched_detunings(prof, 1.2, 0.5 * expected, GAMMA, 0.5).size == 0
    with pytest.raises(RangeError):
        matched_detunings(prof, 1.2, 0.09, GAMMA, 0.5)


def test_matched_detunings_cross_the_loop(profile_1644, gvm_point, p_star):
    # Half the critical power: the pump line crosses the closed loop twice.
    power = 0.5 * p_star
    roots = matched_detunings(profile_1644, gvm_point.omega_p, 0.12, GAMMA, power)
    grid = np.linspace(1e-3, 0.12, 20001)
    vals = delta_k_cw(profile_1644, gvm_point.omega_p, grid, GAMMA, power)
    flips = grid[np.nonzero(np.diff(np.sign(vals)) != 0)[0]]
    assert roots == pytest.approx(flips, abs=1e-5)
    assert roots[0] < gvm_point.delta < roots[1]


def test_mi_detuning_requires_anomalous(profile_1644, profile_1652):
    # Normal-dispersion pump: no MI sidebands.
    with pytest.raises(EvaluationError):
        mi_sideband_detuning(profile_1644, 1.40, GAMMA, 1.0)
    with pytest.raises(ConfigError):
        mi_sideband_detuning(profile_1644, 1.21, GAMMA, 0.0)


def test_singles_between_zero_and_one(profile_1644, gvm_point):
    om_s = np.linspace(gvm_point.omega_p + 0.005, gvm_point.omega_p + 0.11, 400)
    s = singles_spectrum(profile_1644, gvm_point.omega_p, om_s, 5e8, GAMMA, 0.9)
    assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)


def test_singles_peak_at_matched_detuning(profile_1644, gvm_point, p_star):
    op = gvm_point.omega_p
    om_s = np.linspace(op + 0.02, op + 0.10, 2000)
    s = singles_spectrum(profile_1644, op, om_s, 5e8, GAMMA, p_star)
    # At P* the matched detuning is the group-velocity matched one.
    peak = om_s[np.argmax(s)]
    assert peak == pytest.approx(op + gvm_point.delta, abs=5e-4)
    assert s.max() > 0.99


def test_singles_matches_spectrum_map(profile_1644):
    op = 1.2136
    det = np.linspace(0.01, 0.1, 50)
    m = pm_map(profile_1644, np.array([op]), det, GAMMA, 0.5)
    s = singles_spectrum(profile_1644, op, op + det, 5e8, GAMMA, 0.5)
    expected = np.abs(sinc_phase(5e8 * m[:, 0])) ** 2
    assert np.allclose(expected, s, rtol=0, atol=1e-14)


def test_fwhm_gaussian():
    sigma = 1.7
    x = np.linspace(-10.0, 10.0, 801)
    y = np.exp(-(x**2) / (2.0 * sigma**2))
    expected = 2.0 * sigma * np.sqrt(2.0 * np.log(2.0))
    lo, hi = half_max_crossings(x, y)
    assert hi - lo == pytest.approx(expected, rel=5e-3)
    assert lo == pytest.approx(-expected / 2.0, rel=5e-3)
    assert hi == pytest.approx(expected / 2.0, rel=5e-3)


def test_fwhm_outermost_crossings():
    # Double-humped spectrum: the width spans the outer flanks.
    x = np.linspace(-6.0, 6.0, 1201)
    y = np.exp(-((x - 2.0) ** 2)) + np.exp(-((x + 2.0) ** 2))
    lo, hi = half_max_crossings(x, y)
    assert lo < -2.0 and hi > 2.0
    assert lo == pytest.approx(-hi)


def test_fwhm_unresolved_raises():
    x = np.linspace(-0.5, 0.5, 101)
    with pytest.raises(EvaluationError):
        half_max_crossings(x, np.exp(-(x**2)))  # never falls below half inside range
    with pytest.raises(EvaluationError):
        half_max_crossings(x, np.zeros_like(x))
    with pytest.raises(ConfigError):
        half_max_crossings(x, np.ones(5))


def _preset_edges(request, name):
    """half_max_edges on a preset over its signal range, and the arguments it took."""
    config = load_preset(name)
    profile = request.getfixturevalue({"fig3": "profile_1644", "fig4": "profile_bismuth"}[name])
    rp = resolve_pump(config, profile)
    dmax = config.signal_axis(profile, rp.omega_p)[-1] - rp.omega_p
    args = (profile, rp.omega_p, dmax, config.length_nm, config.gamma, rp.power)
    return args, half_max_edges(*args)


@pytest.mark.parametrize("name, n_edges", [("fig3", 1), ("fig4", 2)])
def test_half_max_edges_match_mpmath_roots(name, n_edges, request):
    # Every real root in (0, end) of the same polynomial L dk -/+ x_h, at 50 digits.
    (profile, omega_p, dmax, length_nm, gamma, power), edges = _preset_edges(request, name)
    coef, h = mismatch_coefficients(profile, omega_p, 0.0, gamma, power)
    with mpmath.workdps(50):
        x_h = mpmath.findroot(lambda y: (mpmath.sin(y / 2) / (y / 2)) ** 2 - 0.5, 2.78)
        x = [mpmath.mpf(c) for c in length_nm * coef]
        end = mpmath.mpf((dmax / h) ** 2)
        roots = [
            r
            for level in (-x_h, x_h)
            for r in mpmath.polyroots(x[:0:-1] + [x[0] + level], maxsteps=500, extraprec=500)
            if abs(mpmath.im(r)) < 1e-30 and 0 < mpmath.re(r) < end
        ]
        expected = sorted(float(h * mpmath.sqrt(mpmath.re(r))) for r in roots)
    assert edges.size == n_edges == len(expected)
    assert edges == pytest.approx(expected, rel=1e-12, abs=0)
    spectrum = singles_spectrum(profile, omega_p, omega_p + edges, length_nm, gamma, power)
    assert spectrum == pytest.approx(0.5, abs=1e-12)
    # Above half maximum inside a lone edge; with two, only between them (a dip at
    # the pump); never beyond the last.
    probes = np.concatenate(([0.5 * edges[0]], 0.5 * (edges[:-1] + edges[1:]), [1.01 * edges[-1]]))
    above = singles_spectrum(profile, omega_p, omega_p + probes, length_nm, gamma, power) > 0.5
    assert above.tolist() == [n_edges == 1] + [True] * (n_edges - 1) + [False]


@pytest.mark.parametrize(
    "tau_p2, power, x_peak, x_0",
    [(600.0, 750.0, 1.5, -1.5), (-600.0, 250.0, 0.0, -0.5)],
    ids=["normal", "anomalous"],
)
def test_half_max_edges_on_quadratic_profiles(tau_p2, power, x_peak, x_0):
    # L dk = -tau_p2 delta^2 + x_0.  Normal dispersion keeps it <= -1.5, so the peak
    # is sinc^2(0.75) < 1 at delta = 0; anomalous dispersion takes it through zero, so
    # the peak is 1.  Either way the one edge is where |L dk| = x_h.
    prof, _ = quadratic_profile(1.2, 0.06, 1e6, tau_p2=tau_p2)
    omega_p, length_nm, gamma = 1.2, 1e6, 1000.0
    assert -2.0 * length_nm * nonlinear_mismatch(gamma, power) == pytest.approx(x_0)
    edges = half_max_edges(prof, omega_p, 0.08, length_nm, gamma, power)
    axis = np.linspace(omega_p - 0.08, omega_p + 0.08, 20001)
    spectrum = singles_spectrum(prof, omega_p, axis, length_nm, gamma, power)
    peak = np.sinc(x_peak / (2 * np.pi)) ** 2
    assert spectrum.max() == pytest.approx(peak, rel=1e-6)
    lo, hi = half_max_crossings(axis, spectrum)
    assert edges.size == 1
    assert edges[0] == pytest.approx(hi - omega_p, rel=1e-7)
    assert edges[0] == pytest.approx(omega_p - lo, rel=1e-7)
    half = 0.5 * peak
    x_h = brentq(lambda y: np.sinc(y / (2 * np.pi)) ** 2 - half, x_peak, 2 * np.pi, xtol=1e-15)
    expected = np.sqrt((x_h + np.sign(tau_p2) * x_0) / abs(tau_p2))
    assert edges[0] == pytest.approx(expected, rel=1e-12)


def test_half_max_edges_unresolved():
    prof, _ = quadratic_profile(1.2, 0.06, 1e6, tau_p2=600.0)
    # Still above half maximum at the end of a short range.
    with pytest.raises(EvaluationError, match="still above half maximum"):
        half_max_edges(prof, 1.2, 0.04, 1e6, 1000.0, 750.0)
    # L dk <= -6 everywhere: the peak sinc^2(3) = 2e-3 is below a side lobe's 0.047.
    with pytest.raises(EvaluationError, match="below 0.1"):
        half_max_edges(prof, 1.2, 0.08, 1e6, 1000.0, 3000.0)


def test_length_validation(profile_1644):
    for length_nm in (0.0, np.nan):
        with pytest.raises(ConfigError):
            singles_spectrum(profile_1644, 1.21, np.array([1.25]), length_nm)


def test_zero_contours_put_every_vertex_on_the_zero_set():
    # fig2b at its five powers: marching squares leaves vertices up to 5.8e-5
    # rad/fs in delta and 2.5e-4 in omega_p off the zero set, |L dk| up to
    # ~5e-5 rad.  Each polished vertex keeps one coordinate of its traced
    # twin bit for bit, moves less than a map step along the other, and has
    # |L dk| at roundoff; so do the loops seeded at 0.9999 P*.  It is also
    # within one ulp of a sign change of delta_k_cw along its edge: the
    # mismatch itself is bisected, not a series standing in for it.
    config = load_preset("fig2b")
    profile = config.profile()
    rp = resolve_pump(config, profile)
    axes = config.map_axes(profile)
    steps = [np.diff(ax)[0] for ax in axes]
    for power in rp.powers:
        traced = trace_contours(pm_map(profile, *axes, config.gamma, power), *axes)
        polished = zero_contours(profile, *axes, config.gamma, power)
        assert [c.closed for c in polished] == [c.closed for c in traced]
        a, b = (np.concatenate([c.points for c in cs]) for cs in (traced, polished))
        assert np.all(np.sum(a == b, axis=1) >= 1) and np.all(np.abs(b - a) < steps)
        phase = config.length_nm * delta_k_cw(profile, b[:, 0], b[:, 1], config.gamma, power)
        assert np.abs(phase).max() <= 1e-12
        rows, free = np.arange(len(b)), np.isin(b[:, 0], axes[0]) * 1  # on a pump column: in delta
        own, flips = np.sign(phase), False
        for step in (-np.inf, np.inf):
            n = b.copy()
            n[rows, free] = np.nextafter(b[rows, free], step)
            flips |= np.sign(delta_k_cw(profile, *n.T, config.gamma, power)) != own
        assert np.all(flips | (own == 0))
    near = 0.9999 * rp.p_star
    contours, seeded = pm_contours(profile, *axes, config.gamma, near)
    assert seeded == len(contours) == 2
    b = np.concatenate([c.points for c in contours])
    assert np.abs(config.length_nm * delta_k_cw(profile, *b.T, config.gamma, near)).max() <= 1e-12
    # No crossing, no contour.
    assert zero_contours(profile, axes[0], np.linspace(-1e-3, 1e-3, 5), config.gamma, near) == []


def test_pm_contours_trace_delta_above_0_and_mirror_it():
    # fig2b at its five powers: delta_k is even in delta and -2 gamma P on delta = 0, so the
    # +delta contours are bit for bit those `zero_contours` traces on the whole detuning axis,
    # and each one listed before them is the exact mirror of one of them.
    config = load_preset("fig2b")
    profile = config.profile()
    axes = config.map_axes(profile)
    for power in resolve_pump(config, profile).powers:
        full = zero_contours(profile, *axes, config.gamma, power)
        upper = [c for c in full if np.all(c.points[:, 1] > 0)]
        contours, seeded = pm_contours(profile, *axes, config.gamma, power)
        assert seeded == 0 and len(contours) == 2 * len(upper) == len(full) == 2
        for got, want in zip(contours[len(upper):], upper):
            assert got.closed == want.closed and np.array_equal(got.points, want.points)
        for mirror, c in zip(contours, contours[len(upper):]):
            assert mirror.closed == c.closed and np.all(mirror.points[:, 1] < 0)
            assert sorted(map(tuple, mirror.points * (1.0, -1.0))) == sorted(map(tuple, c.points))


def test_contours_compare_by_identity(profile_1644, p_star):
    # A Contour holds an ndarray, so field-wise == and hash would raise; pm_contours' own loops
    # go into lists and sets and compare by identity.
    axes = np.linspace(1.08, 1.31, 161), np.linspace(-0.12, 0.12, 161)
    contours, _ = pm_contours(profile_1644, *axes, GAMMA, 0.5 * p_star)
    assert len(contours) == 2 and contours[0] in contours and contours[0] not in contours[1:]
    assert len(set(contours)) == len(contours)
    assert contours[0] != contours[1]


@pytest.mark.parametrize("name, sizes, closed", [("fig1", [266, 266], False), ("fig2b", [486], True)])
def test_pm_contours_join_halves_at_zero_power(name, sizes, closed):
    # At P = 0 delta_k vanishes on delta = 0, so that row is left out; each contour crosses it at
    # a zero-dispersion pump, and its half on delta > 0 joins its mirror at the lowest row: fig2b's
    # one loop ends there twice, fig1's two open contours once each.  The joined contours hold
    # the vertices a map over both halves traces, which differ from exact mirrors by a few ulps.
    config = load_preset(name)
    profile = config.profile()
    axes = config.map_axes(profile)
    full = zero_contours(profile, *axes, config.gamma, 0.0)
    contours, seeded = pm_contours(profile, *axes, config.gamma, 0.0)
    assert seeded == 0 and [len(c.points) for c in contours] == [len(c.points) for c in full] == sizes
    for got, want in zip(contours, full):
        assert got.closed == want.closed == closed
        gap = np.abs(got.points[:, None] - want.points[None]).max(axis=2)
        assert gap.min(axis=1).max() <= 1e-15 and gap.min(axis=0).max() <= 1e-15
