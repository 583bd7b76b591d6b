"""Independent reference implementations used only by the test suite.

Everything here is written against textbook formulas with none of the
package's numerics shared, so agreement is meaningful: a scalar weak-guidance
mode solver, the vector HE11 residual on scipy's Bessel functions and the
HE11 index from a dense scan of it, the one-node-at-a-time loops the
Bessel rules of `sfwm.modes` once ran, a 30-digit Faddeeva function, a
brute-force quadrature for the pair-generation pump integral, the folded
Gauss-Legendre pump rule `jsa_numeric` once used, a symbolic zero-dispersion
solve for bulk silica, 50-digit roots of the phase mismatch and of the full
group-velocity match on a Chebyshev proxy, a marching-squares tracer that
visits the map one cell at a time, the pump sum `jsa_numeric` once formed
with a phase and `sinc_phase` per point, the jsa.csv formatter that
printed every grid cell's four numbers anew, the Schmidt coefficients
of the weighted SVD written as one expression and the purity summed from them,
a 45-digit chain from the Sellmeier index through the HE11 root to the
full group-velocity match, the zero-dispersion frequencies and P*, and the
outermost half-maximum crossings of a sampled spectrum.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.special import j0, j1, jv, k0, k1, kve

from sfwm.errors import ConfigError, EvaluationError
from sfwm.materials import ConstantIndex, ScaledIndex
from sfwm.modes import effective_index
from sfwm.phasematching import Contour, sinc_phase
from sfwm.units import c as C_NM_FS


def lp01_effective_index(n_co, n_cl, radius_nm, lambda_nm):
    """Weak-guidance LP01 index from u J1(u)/J0(u) = w K1(w)/K0(w).

    Root-finds the pole-free form u J1 K0 - w K1 J0 = 0 by bisection on a
    fine grid of effective indices.
    """
    ka = 2.0 * math.pi / lambda_nm * radius_nm

    def g(neff):
        u = ka * math.sqrt(n_co**2 - neff**2)
        w = ka * math.sqrt(neff**2 - n_cl**2)
        return u * j1(u) * k0(w) - w * k1(w) * j0(u)

    span = n_co - n_cl
    lo, hi = n_cl + 1e-9 * span, n_co - 1e-9 * span
    grid = np.linspace(lo, hi, 2000)
    vals = np.array([g(x) for x in grid])
    flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if flips.size == 0:
        raise RuntimeError("no LP01 root")
    a, b = grid[flips[-1]], grid[flips[-1] + 1]
    for _ in range(200):
        m = 0.5 * (a + b)
        if g(a) * g(m) <= 0:
            b = m
        else:
            a = m
        if b - a < 1e-15:
            break
    return 0.5 * (a + b)


def he11_residual_scipy(neff, n_co, n_cl, ka):
    """The HE11 residual of `sfwm.modes` with scipy's J0-J2 and scaled K0-K2.

    J1' = (J0 - J2)/2 and K1'/(w K1) = -(K0 + K2)/(2 w K1).
    """
    neff = np.asarray(neff, dtype=float)
    u = ka * np.sqrt(n_co**2 - neff**2)
    w = ka * np.sqrt(neff**2 - n_cl**2)
    j1p = 0.5 * (jv(0, u) - jv(2, u))
    b = -(kve(0, w) + kve(2, w)) / (2.0 * w * kve(1, w))
    rho = (n_cl / n_co) ** 2
    r = (neff / n_co) * (1.0 / u**2 + 1.0 / w**2)
    uj1 = u * jv(1, u)
    return (j1p + b * uj1) * (j1p + rho * b * uj1) - (r * uj1) ** 2


def he11_index_dense_scan(n_co, n_cl, ka):
    """HE11 index from `he11_residual_scipy` scanned densely in u.

    The order-1 roots lie about pi apart in u, so 32 points per pi of u
    across n_cl + 1e-9 span .. n_co - 1e-9 span cannot miss one.  The first
    sign change from the core index down (smallest u) is HE11; it is
    bisected one index at a time until no midpoint lies between the ends.
    """
    span = n_co - n_cl
    hi, lo = n_co - 1e-9 * span, n_cl + 1e-9 * span
    u_hi, u_lo = ka * math.sqrt(n_co**2 - hi**2), ka * math.sqrt(n_co**2 - lo**2)
    u = np.linspace(u_hi, u_lo, math.ceil(32.0 * (u_lo - u_hi) / math.pi) + 2)
    n = np.sqrt(n_co**2 - (u / ka) ** 2)
    n[0], n[-1] = hi, lo

    def sign(x):
        return np.sign(he11_residual_scipy(x, n_co, n_cl, ka))

    i = np.nonzero(np.diff(sign(n)))[0][0]
    a, b = n[i + 1], n[i]
    sign_a = sign(a)
    while a < 0.5 * (a + b) < b:
        m = 0.5 * (a + b)
        if sign(m) == sign_a:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def bessel_j01_node_loop(u):
    """J0(u) and J1(u) by the midpoint rule `sfwm.modes` uses, one node at a time.

    The n/2 nodes of [0, pi/2) are added into one running sum each, in node
    order, as `modes._bessel_j01` did before its nodes were summed in blocks.
    """
    n = 2 * (int(0.4 * float(np.max(u))) + 12)
    j0 = np.zeros_like(u)
    j1 = np.zeros_like(u)
    for i in range(n // 2):
        s = math.sin(math.pi * (i + 0.5) / n)
        us = u * s
        j0 += np.cos(us)
        j1 += s * np.sin(us)
    return j0 * (2.0 / n), j1 * (2.0 / n)


def bessel_k01e_node_loop(w, tail=40.0, block=32):
    """e^w K0(w) and e^w K1(w) by the trapezoid rule `sfwm.modes` uses, one node at a time.

    Each node is added into partial sums that join the running sums, which
    start at the half-weight term 0.5, after every `block` nodes and at the
    last, as `modes._bessel_k01e` did before its nodes were summed in blocks.
    """
    h = min(0.25, 0.6 / math.sqrt(float(np.max(w))))
    m = math.ceil(math.acosh(1.0 + tail / float(np.min(w))) / h)
    k0, k1 = np.full_like(w, 0.5), np.full_like(w, 0.5)
    p0, p1 = np.zeros_like(w), np.zeros_like(w)
    for j in range(1, m + 1):
        e = np.exp(w * (-2.0 * math.sinh(0.5 * j * h) ** 2))
        p0 += e
        p1 += math.cosh(j * h) * e
        if j % block == 0 or j == m:
            k0 += p0
            k1 += p1
            p0[:] = 0.0
            p1[:] = 0.0
    return h * k0, h * k1


def faddeeva_mp(z):
    """w(z) = e^{-z^2} erfc(-i z) at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        z = mp.mpc(z.real, z.imag)
        return complex(mp.exp(-z * z) * mp.erfc(-1j * z))


def pair_integral_quadrature(a, x, limit=400):
    """Direct quadrature of I(a; x) = (1/pi) Int dq e^{-q^2} g(a (q^2 - x^2))
    with g(y) = (e^{i y} - 1)/(i y), over the real line.

    x may be any complex number.  A short series replaces g near y = 0.
    """
    a = float(a)
    x2 = complex(x) ** 2

    def g(y):
        if abs(y) < 1e-6:
            return 1.0 + 1j * y / 2.0 - y**2 / 6.0
        return (np.exp(1j * y) - 1.0) / (1j * y)

    def integrand(q, part):
        val = math.exp(-q * q) * g(a * (q * q - x2))
        return val.real if part == "re" else val.imag

    span = 10.0
    re = quad(integrand, -span, span, args=("re",), limit=limit, epsabs=1e-13)[0]
    im = quad(integrand, -span, span, args=("im",), limit=limit, epsabs=1e-13)[0]
    return (re + 1j * im) / math.pi


def folded_gauss_legendre_rule(nodes, sigma, span=4.0):
    """Pump rule (u, w) of `biphoton._jsa_numeric_raw` by Gauss-Legendre.

    leggauss(nodes) on |u| <= span sigma, folded onto u >= 0 (the node u = 0
    of an odd rule is its own mirror, the others count twice); the weights
    carry exp(-2 u^2 / sigma^2).  At 4 sigma the dropped weight is e^-32.
    """
    half = nodes // 2
    q, w = np.polynomial.legendre.leggauss(nodes)
    q, w = q[half:], w[half:] * np.where(q[half:] > 0, 2.0, 1.0)
    return span * sigma * q, span * sigma * w * np.exp(-2.0 * (span * q) ** 2)


def jsa_pump_sum_per_point(profile, pump, signal_axis, idler_axis, length_nm, gp, rule):
    """`biphoton._jsa_numeric_raw` with L dk and `sinc_phase` formed per point.

    The unnormalised JSA on the pump rule (u, w), as the package computed it
    before the pump phase was factored out of the integrand: every cell and
    node gets its own complex exponential.  Cells go in order of their sum
    frequency, in blocks, so k is evaluated once per distinct sum and block.
    """
    u, w = rule
    a, h = profile.pump_series(pump.omega_p)
    p = Polynomial(a)  # k minus its tangent at the pump

    def k(omega):
        profile.check_window(omega)
        return p((omega - pump.omega_p) / h)

    k_s, k_i = k(signal_axis), k(idler_axis)
    sums = (signal_axis[:, np.newaxis] + idler_axis[np.newaxis, :]).ravel()
    order = np.argsort(sums, kind="stable")
    out = np.empty(sums.size, dtype=complex)
    block = (1 << 18) // max(u.size, 16)
    for start in range(0, sums.size, block):
        cells = order[start : start + block]
        distinct, inv = np.unique(sums[cells], return_inverse=True)
        mid = 0.5 * distinct[:, np.newaxis]
        m, n = np.divmod(cells, idler_axis.size)
        dk = (k(mid + u) + k(mid - u))[inv] - (k_s[m] + k_i[n] + 2.0 * gp)[:, np.newaxis]
        envelope = np.exp(-((distinct - 2.0 * pump.omega_p) ** 2) / (2.0 * pump.sigma**2))
        out[cells] = envelope[inv] * (sinc_phase(length_nm * dk) @ w)
    return out.reshape(signal_axis.size, idler_axis.size)


def schmidt_coefficients_one_expression(jsa):
    """`biphoton.schmidt_metrics`' coefficients, weighted in a single expression.

    The SVD of ws[:, None] * F * wi (ws, wi the square roots of each axis'
    trapezoid weights), as the package formed it before it weighted one copy
    in place; numpy evaluates the product left to right, ws first.
    """
    ws, wi = (
        np.sqrt(np.convolve(np.abs(np.diff(x)), [0.5, 0.5]))
        for x in (jsa.signal_axis, jsa.idler_axis)
    )
    s = np.linalg.svd(ws[:, np.newaxis] * jsa.amplitude * wi, compute_uv=False)
    return s**2 / np.sum(s**2)


def schmidt_purity_by_svd(jsa):
    """Heralded purity sum lambda_n^2 from the singular values of the weighted SVD.

    The route `biphoton.schmidt_metrics` took before `heralded_purity`
    summed the Gram matrix instead.
    """
    lam = schmidt_coefficients_one_expression(jsa)
    return float(np.sum(lam**2))


def jsa_csv_rows_per_cell(jsa):
    """jsa.csv's data lines for the `JsaGrid` jsa, formatted one cell at a time.

    Each line is "omega_s,omega_i,re,im" in %.9g, signal-major; the axes are
    spread over the grid with meshgrid and each cell's numbers are formatted
    on their own, as `sfwm jsa` wrote them before it streamed its rows.
    """
    om_s, om_i = np.meshgrid(jsa.signal_axis, jsa.idler_axis, indexing="ij")
    rows = zip(*(c.ravel() for c in (om_s, om_i, jsa.amplitude.real, jsa.amplitude.imag)))
    return ["%.9g,%.9g,%.9g,%.9g" % row for row in rows]


def bulk_silica_zdw_sympy():
    """Zero-dispersion wavelength of bulk fused silica, solved symbolically.

    k''(omega) is proportional to d^2 n / d lambda^2, so the zero of the
    second derivative of the Sellmeier index locates the ZDW.
    """
    import sympy as sp

    lam = sp.symbols("lam", positive=True)  # micrometres
    b = (sp.Rational("0.6961663"), sp.Rational("0.4079426"), sp.Rational("0.8974794"))
    c = (
        sp.Rational("0.0684043") ** 2,
        sp.Rational("0.1162414") ** 2,
        sp.Rational("9.896161") ** 2,
    )
    n = sp.sqrt(1 + sum(bj * lam**2 / (lam**2 - cj) for bj, cj in zip(b, c)))
    d2 = sp.diff(n, lam, 2)
    root = sp.nsolve(d2, lam, sp.Rational("1.27"), prec=30)
    return float(root) * 1000.0  # nm


def _mp_chebyshev(series):
    """omega -> the numpy Chebyshev series at omega, at the working precision.

    The coefficients and domain are taken exactly and summed by Clenshaw's
    recurrence in mpmath.
    """
    import mpmath as mp

    a, b = (mp.mpf(float(x)) for x in series.domain)
    coef = [mp.mpf(float(c)) for c in series.coef]

    def value(omega):
        x = (2 * omega - (a + b)) / (b - a)
        b1 = b2 = mp.mpf(0)
        for c in coef[:0:-1]:
            b1, b2 = 2 * x * b1 - b2 + c, b1
        return x * b1 - b2 + coef[0]

    return value


def _mp_mismatch(fit, omega_p, gamma_p):
    """d -> 2 k(w_p) - k(w_p + d) - k(w_p - d) - 2 gamma P at the working precision.

    k is the Chebyshev series `fit`, so at 50 digits the cancellation of the
    k values costs nothing.  gamma_p is gamma P in rad/nm.
    """
    import mpmath as mp

    k = _mp_chebyshev(fit)
    op = mp.mpf(float(omega_p))
    return lambda d: 2 * k(op) - k(op + d) - k(op - d) - 2 * mp.mpf(float(gamma_p))


def proxy_mismatch(fit, omega_p, gamma_p, delta):
    """The mismatch of `_mp_mismatch` at half-separation delta, from 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        return float(_mp_mismatch(fit, omega_p, gamma_p)(mp.mpf(float(delta))))


def proxy_mismatch_root(fit, omega_p, gamma_p, delta0):
    """Root near delta0 of the mismatch of `_mp_mismatch`, found at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        mismatch = _mp_mismatch(fit, omega_p, gamma_p)
        return float(mp.findroot(mismatch, mp.mpf(float(delta0))))


def proxy_fgvm_point(fit, omega_p, delta):
    """Full group-velocity match of the Chebyshev proxy `fit` near (omega_p, delta).

    Solves (k'(w + d) - k'(w - d)) / d = 0 and
    (k'(w + d) + k'(w - d) - 2 k'(w)) / d^2 = 0 at 50 digits, with k' the
    series `fit.deriv(1)`; the divisions remove the trivial root d = 0.
    Returns (omega_p, delta) as floats.
    """
    import mpmath as mp

    with mp.workdps(50):
        k1 = _mp_chebyshev(fit.deriv(1))

        def equations(w, d):
            return [(k1(w + d) - k1(w - d)) / d, (k1(w + d) + k1(w - d) - 2 * k1(w)) / d**2]

        w, d = mp.findroot(equations, (mp.mpf(float(omega_p)), mp.mpf(float(delta))))
        return float(w), float(d)


def _edge_point(kind, i, j, axes, values):
    """Crossing position on grid edge ('h': V[i,j]-V[i,j+1], 'v': V[i,j]-V[i+1,j])."""
    x, y = axes
    if kind == "h":
        va, vb = values[i, j], values[i, j + 1]
        pa = (x[j], y[i])
        pb = (x[j + 1], y[i])
    else:
        va, vb = values[i, j], values[i + 1, j]
        pa = (x[j], y[i])
        pb = (x[j], y[i + 1])
    t = -va / (vb - va)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


_SEGMENT_TABLE = {
    1: [("l", "b")],
    2: [("b", "r")],
    3: [("l", "r")],
    4: [("r", "t")],
    6: [("b", "t")],
    7: [("l", "t")],
    8: [("l", "t")],
    9: [("b", "t")],
    11: [("r", "t")],
    12: [("l", "r")],
    13: [("b", "r")],
    14: [("l", "b")],
}


def _cell_segments(case, center_inside):
    if case == 5:
        return [("b", "r"), ("t", "l")] if center_inside else [("b", "l"), ("r", "t")]
    if case == 10:
        return [("l", "b"), ("r", "t")] if center_inside else [("b", "r"), ("t", "l")]
    return _SEGMENT_TABLE.get(case, [])


def trace_contours_per_cell(v, x, y):
    """`trace_contours` one cell at a time, with tuple-named edges.

    The package's array tracer must reproduce these contours exactly: count,
    order, closed flags and every point.  v[i, j] is the map at x[j], y[i].

    Returns contours as (N, 2) point arrays in (pump, detuning) coordinates.
    Open paths terminate on the map boundary; closed ones are loops (first
    point not repeated).  A corner exactly at zero counts as inside.
    """
    ny, nx = v.shape
    inside = v >= 0

    # Edge name -> global edge id for a given cell (i, j): bottom/top are
    # horizontal edges at rows i / i+1, left/right vertical edges at cols
    # j / j+1.  Shared ids make segment endpoints match across cells exactly.
    def edge_id(name, i, j):
        if name == "b":
            return ("h", i, j)
        if name == "t":
            return ("h", i + 1, j)
        if name == "l":
            return ("v", i, j)
        return ("v", i, j + 1)

    segments = []
    for i in range(ny - 1):
        for j in range(nx - 1):
            case = (
                int(inside[i, j])
                | (int(inside[i, j + 1]) << 1)
                | (int(inside[i + 1, j + 1]) << 2)
                | (int(inside[i + 1, j]) << 3)
            )
            if case in (0, 15):
                continue
            center = 0.25 * (v[i, j] + v[i, j + 1] + v[i + 1, j] + v[i + 1, j + 1])
            for ea, eb in _cell_segments(case, center >= 0):
                segments.append((edge_id(ea, i, j), edge_id(eb, i, j)))

    if not segments:
        return []

    points = {}
    for ea, eb in segments:
        for kind, i, j in (ea, eb):
            if (kind, i, j) not in points:
                points[(kind, i, j)] = _edge_point(kind, i, j, (x, y), v)

    adj: dict[tuple, list[int]] = {}
    for idx, (ea, eb) in enumerate(segments):
        adj.setdefault(ea, []).append(idx)
        adj.setdefault(eb, []).append(idx)

    used = [False] * len(segments)

    def walk(start_edge):
        """Consume unused segments from start_edge; True when a loop closes."""
        chain = [start_edge]
        current = start_edge
        while True:
            nxt = None
            for idx in adj[current]:
                if not used[idx]:
                    nxt = idx
                    break
            if nxt is None:
                return chain, False
            used[nxt] = True
            ea, eb = segments[nxt]
            current = eb if ea == current else ea
            if current == start_edge:
                return chain, True
            chain.append(current)

    contours = []
    # Open paths first: their ends are edges used by exactly one segment.
    for edge, seg_ids in adj.items():
        if len(seg_ids) == 1 and not used[seg_ids[0]]:
            contours.append(walk(edge))
    # Whatever remains sits on closed loops; walking any member edge of one
    # comes back around to it.
    for idx in range(len(segments)):
        if not used[idx]:
            contours.append(walk(segments[idx][0]))

    out = []
    for chain, closed in contours:
        pts = np.array([points[e] for e in chain], dtype=float)
        out.append(Contour(points=pts, closed=bool(closed)))
    return out


# The 45-digit reference chain.  Every constant is the float64 that sfwm holds (the Sellmeier
# B_j and C_j, a core contrast, the radius in nm, c, gamma and the 1e-12 of 1/km in 1/nm), taken
# exactly by mp.mpf, so the chain measures sfwm's numerics and not how its constants round.
CHAIN_DPS = 45


def mp_index(material, lambda_nm):
    """Index of a `sfwm.materials` medium at the mpf wavelength lambda_nm, at the working precision."""
    import mpmath as mp

    if isinstance(material, ScaledIndex):
        return mp_index(material.base, lambda_nm) / (1 - mp.mpf(material.contrast))
    if isinstance(material, ConstantIndex):
        return mp.mpf(material.value)
    x = (lambda_nm / 1000) ** 2
    return mp.sqrt(1 + mp.fsum(mp.mpf(b) * x / (x - mp.mpf(c)) for b, c in zip(material.b, material.c)))


def mp_he11_residual(neff, n_co, n_cl, ka):
    """The pole-free HE11 residual of `sfwm.modes`, on mpmath's J0, J1, K0 and K1."""
    import mpmath as mp

    u, w = ka * mp.sqrt(n_co**2 - neff**2), ka * mp.sqrt(neff**2 - n_cl**2)
    j1p, uj1 = mp.besselj(0, u) - mp.besselj(1, u) / u, u * mp.besselj(1, u)
    b = -mp.besselk(0, w) / (w * mp.besselk(1, w)) - 1 / w**2
    r = (neff / n_co) * (1 / u**2 + 1 / w**2)
    return (j1p + b * uj1) * (j1p + (n_cl / n_co) ** 2 * b * uj1) - (r * uj1) ** 2


def mp_propagation_constant(fiber, omega):
    """HE11 k = n_eff omega / c in rad/nm at the mpf omega (rad/fs), at the working precision.

    n_eff is `findroot` on `mp_he11_residual`, started from the root sfwm's own solver finds.
    """
    import mpmath as mp

    c = mp.mpf(C_NM_FS)
    lam = 2 * mp.pi * c / omega
    n_co, n_cl = mp_index(fiber.core, lam), mp_index(fiber.cladding, lam)
    ka = omega / c * mp.mpf(fiber.radius_nm)
    start = mp.mpf(float(effective_index(fiber, float(lam))))
    neff = mp.findroot(lambda n: mp_he11_residual(n, n_co, n_cl, ka), (start, start + 1e-12))
    return neff * omega / c


def mp_k_derivative(fiber, omega, order):
    """d^order k / d omega^order at the mpf omega by `mp.diff` of `mp_propagation_constant`."""
    import mpmath as mp

    return mp.diff(lambda w: mp_propagation_constant(fiber, w), omega, order)


def mp_fgvm_point(fiber, omega_p, delta):
    """Full group-velocity match near (omega_p, delta) at the working precision, as mpf.

    Newton on k'(omega_p + delta) - k'(omega_p) = 0 = k'(omega_p - delta) - k'(omega_p), with
    the Jacobian from k'', until a step is below 1e-(dps - 8) of omega_p.
    """
    import mpmath as mp

    w, d = mp.mpf(omega_p), mp.mpf(delta)
    for _ in range(10):
        k1, k2 = ([mp_k_derivative(fiber, x, n) for x in (w, w + d, w - d)] for n in (1, 2))
        jac = mp.matrix([[k2[1] - k2[0], k2[1]], [k2[2] - k2[0], -k2[2]]])
        step = mp.lu_solve(jac, mp.matrix([k1[1] - k1[0], k1[2] - k1[0]]))
        w, d = w - step[0], d - step[1]
        if max(abs(step[0]), abs(step[1])) < abs(w) * mp.mpf(10) ** (8 - mp.mp.dps):
            return w, d
    raise AssertionError(f"reference match near omega_p = {omega_p} did not converge")


def mp_zero_dispersion_frequency(fiber, omega):
    """Root of k'' near the float omega (rad/fs), by `findroot` at the working precision."""
    import mpmath as mp

    w = mp.mpf(omega)
    return mp.findroot(lambda x: mp_k_derivative(fiber, x, 2), (w, w * (1 + mp.mpf(1e-9))))


def mp_critical_power(fiber, omega_p, delta, gamma):
    """P* = (2 k(omega_p) - k(omega_p + delta) - k(omega_p - delta)) / (2 gamma), in W."""
    import mpmath as mp

    k = [mp_propagation_constant(fiber, x) for x in (omega_p, omega_p + delta, omega_p - delta)]
    return (2 * k[0] - k[1] - k[2]) / (2 * mp.mpf(gamma) * mp.mpf(1e-12))


def mp_wavelength(omega):
    """Vacuum wavelength 2 pi c / omega in nm of the mpf omega (rad/fs)."""
    import mpmath as mp

    return 2 * mp.pi * mp.mpf(C_NM_FS) / omega


def reference_roots(config):
    """The chain's roots for a run config, as floats: (pump nm, delta rad/fs, P* W) of each full
    group-velocity match sfwm finds, started from sfwm's, and the zero-dispersion wavelengths (nm).

    Slow, ~35 s a match and ~20 s a wavelength: the test module holds its output frozen.
    """
    import mpmath as mp

    from sfwm.dispersion import find_zdfs

    profile, fiber = config.profile(), config.fiber()
    with mp.workdps(CHAIN_DPS):
        matches = []
        for m in profile.matches:
            w, d = mp_fgvm_point(fiber, m.omega_p, m.delta)
            p_star = mp_critical_power(fiber, w, d, config.gamma)
            matches.append((float(mp_wavelength(w)), float(d), float(p_star)))
        zdfs = [mp_zero_dispersion_frequency(fiber, z) for z in find_zdfs(profile)]
        return matches, sorted(float(mp_wavelength(z)) for z in zdfs)


def half_max_crossings(x, y) -> tuple[float, float]:
    """Outermost crossings of half the global maximum, linearly interpolated.

    Returns (x_lo, x_hi).  Raises EvaluationError when a flank never falls
    below half maximum inside the sampled range, i.e. the width is not
    resolved.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.size != y.size or x.size < 3:
        raise ConfigError("need matching 1-d arrays of at least 3 samples")
    ymax = float(y.max())
    if not ymax > 0:
        raise EvaluationError("spectrum is nonpositive; no width to measure")
    half = 0.5 * ymax
    above = y >= half
    idx = np.nonzero(above)[0]
    if idx[0] == 0 or idx[-1] == y.size - 1:
        raise EvaluationError(
            "half-maximum level not bracketed inside the sampled range"
        )
    i = idx[0]
    x_lo = x[i - 1] + (half - y[i - 1]) / (y[i] - y[i - 1]) * (x[i] - x[i - 1])
    i = idx[-1]
    x_hi = x[i] + (half - y[i]) / (y[i + 1] - y[i]) * (x[i + 1] - x[i])
    return (float(x_lo), float(x_hi))
