"""Joint spectral amplitudes of photon pairs and their mode structure.

Two routes to the JSA of a degenerate-pump pair source:

* `jsa_numeric`: direct quadrature of the pump-envelope integral against the
  full dispersion proxy; the reference, no expansion involved.  A nested
  trapezoid rule on three pump widths halves its step until a check settles;
  the pump phase is factored out, so exponentials go per sum and per cell.
* `jsa_analytic`: closed form for the quadratic (Taylor) phase mismatch of a
  `TauSet`, built on the pair-production profile function `phi_function`.

The closed form reduces the pump integral to

    Int dq e^{-q^2} (e^{i a (q^2 - x^2)} - 1) / (i a (q^2 - x^2))
        = pi * phi_function(a, x),

with a the pump-chirp-like parameter tau_p2 sigma^2 / 2 and x the scaled
distance from perfect matching; x is real or purely imaginary for real
quadratic mismatch.  phi_function evaluates this through the Faddeeva
function in a form that never forms the catastrophically cancelling
difference of exponentially large terms.  The Faddeeva function itself is
Weideman's rational expansion with N = 40 terms (SIAM J. Numer. Anal. 31
(1994) 1497), whose coefficients come from one FFT at import; on the closed
upper half-plane, the only one phi_function needs, its relative error stays
below 5e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Polynomial
# Only perfbench's trace hooks read leggauss; it goes with ROADMAP item 1's library trace.
from numpy.polynomial.legendre import leggauss  # noqa: F401

from .dispersion import DispersionProfile, TauSet, distinct_sorted
from .errors import ConfigError, EvaluationError
from .phasematching import sinc_phase
from .units import nonlinear_mismatch

_PHI_TAYLOR_CUT = 1e-4
_PHI_SERIES_CUT = 1e-4
# Cell areas come from the mean axis step, so every step must match it.
_AXIS_STEP_RTOL = 1e-6
# Pump quadrature (see jsa_numeric): the span is the fewest whole pump widths
# s whose truncation bound erfc(sqrt(2) s) is below _DRIFT_TOL, i.e. 3.
_DRIFT_TOL = 1e-6
_PUMP_SPAN = next(s for s in range(1, 10) if math.erfc(math.sqrt(2.0) * s) < _DRIFT_TOL)
_MAX_NODES = 2049
# JSA blocks: jsa_numeric's hold ~_BLOCK_POINTS integrand points (cells x nodes,
# 256 kB per real temporary), jsa_analytic's _BLOCK_POINTS / 8 cells (64 kB each).
_BLOCK_POINTS = 1 << 15
# Pump-sum points with |L dk| below the cut take sinc_phase.  Phase roundoff and
# the cancelling split sums err by ~eps (1 + max|L K| + max|L C|) / cut per weight
# on the rest: 5e-14 on fig1-fig3 (phases < 1 rad), 2e-11 on fig4 (~950 rad).
_SPLIT_CUT = 1e-2


def _weideman_coefficients(n):
    """Scale L and Horner coefficients (highest power first) of the expansion."""
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(0.5 * np.pi * np.arange(1 - m, m) / m)
    f = np.append(0.0, np.exp(-t * t) * (scale * scale + t * t))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, a[n:0:-1]


_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coefficients(40)


def _faddeeva(z):
    """Faddeeva function w(z) = e^{-z^2} erfc(-i z), valid only for Im z >= 0.

    Weideman's expansion w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z))
    with Z = (L + i z) / (L - i z) and p a polynomial of degree 39; its
    relative error is below 5e-14 on the closed upper half-plane.  Below it
    the expansion is wrong; phi_function folds x onto the upper half-plane
    and passes x and whichever of u, -u has Im >= 0, which is the
    precondition here.
    """
    lz = _WEIDEMAN_L - 1j * z
    zz = (_WEIDEMAN_L + 1j * z) / lz
    p = np.full_like(zz, _WEIDEMAN_A[0])
    for a in _WEIDEMAN_A[1:]:
        p *= zz
        p += a
    return 2.0 * p / (lz * lz) + 1.0 / (math.sqrt(math.pi) * lz)


def phi_function(a: float, x):
    """Pair-production profile Phi(a; x), vectorised over x.

    Defined by Int dq e^{-q^2} g(a (q^2 - x^2)) = pi Phi(a; x) with
    g(y) = (e^{iy} - 1)/(iy).  Phi(0; x) = 1/sqrt(pi) for every x.  x may be
    real or purely imaginary (any complex x is accepted).

    Three regimes keep full accuracy: a Taylor expansion in a when
    |a| (1 + |x|^2) is tiny, a short series in x near x = 0 where the closed
    form divides 0 by 0, and otherwise a Faddeeva form in which the
    exponentially large pieces cancel analytically instead of numerically.
    Phi is even in x, so that form takes x on the upper half-plane and
    branches only on the half-plane of u = x sqrt(1 - i a).
    """
    a = float(a)
    x = np.asarray(x, dtype=complex)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    taylor = np.abs(a) * (1.0 + np.abs(x) ** 2) < _PHI_TAYLOR_CUT
    if np.any(taylor):
        x2 = x[taylor] ** 2
        m2 = 0.5 - x2
        m4 = 0.75 - x2 + x2 * x2
        out[taylor] = (1.0 + 0.5j * a * m2 - a * a * m4 / 6.0) / np.sqrt(np.pi)

    rt = np.sqrt(1.0 - 1j * a)
    small = (~taylor) & (np.abs(x) < _PHI_SERIES_CUT)
    if np.any(small):
        def cn(n):
            return (rt ** (2 * n + 1) - 1.0) / (math.factorial(n) * (2 * n + 1))

        c0, c1, c2 = cn(0), cn(1), cn(2)
        xs = x[small]
        out[small] = (2j / (a * np.sqrt(np.pi))) * (
            c0 + xs**2 * (c1 - c0) + xs**4 * (c2 - c1 + 0.5 * c0)
        )

    rest = ~(taylor | small)
    if np.any(rest):
        xl = x[rest]
        xl[xl.imag < 0] *= -1  # Phi is even in x
        ul = xl * rt
        ph = np.exp(-1j * a * xl * xl)
        up = ul.imag >= 0
        diff = np.empty_like(xl)
        # Same half-plane: the e^{-x^2} constants cancel exactly in the
        # difference of scaled Faddeeva values.
        diff[up] = ph[up] * _faddeeva(ul[up]) - _faddeeva(xl[up])
        # u below the real axis needs x near it, where the remaining
        # 2 e^{-x^2} term is bounded.
        lo = ~up
        diff[lo] = 2.0 * np.exp(-xl[lo] ** 2) - ph[lo] * _faddeeva(-ul[lo]) - _faddeeva(xl[lo])
        out[rest] = diff / (a * xl)

    if not np.all(np.isfinite(out)):
        raise EvaluationError("phi_function overflowed double precision")
    return out[0] if scalar else out


@dataclass(frozen=True)
class PumpSpec:
    """Degenerate Gaussian pump: carrier, amplitude width, peak power.

    sigma is the 1/e half-width of the *amplitude* envelope
    exp(-(omega - omega_p)^2 / sigma^2), in rad/fs.
    """

    omega_p: float
    sigma: float
    power: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError(f"pump sigma must be positive, got {self.sigma}")
        if not self.power >= 0:
            raise ConfigError(f"pump power must be nonnegative, got {self.power}")


@dataclass(frozen=True)
class PumpQuadrature:
    """`jsa_numeric`'s pump rule: points, drift (None unchecked), truncation."""

    points: int
    drift: float | None
    truncation: float = math.erfc(math.sqrt(2.0) * _PUMP_SPAN)


def _jsa_axes(signal_axis, idler_axis):
    """Both JSA axes as floats; ConfigError unless each has >= 2 points, one nonzero step."""
    axes = tuple(np.asarray(x, dtype=float) for x in (signal_axis, idler_axis))
    for name, axis in zip(("signal", "idler"), axes):
        if axis.size < 2:
            raise ConfigError(f"JSA {name} axis needs at least 2 points, got {axis.size}")
        steps = np.diff(axis)
        mean = steps.mean()
        if not 0.0 < abs(mean) < math.inf:
            raise ConfigError(f"JSA {name} axis step is zero or not finite")
        if np.any(np.abs(steps - mean) > _AXIS_STEP_RTOL * abs(mean)):
            raise ConfigError(f"JSA {name} axis is not equally spaced")
    return axes


@dataclass(frozen=True)
class JsaGrid:
    """Joint spectral amplitude sampled on a rectangular frequency grid.

    amplitude[m, n] belongs to signal_axis[m], idler_axis[n] (rad/fs), both
    equally spaced, at least 2 points each.  `normalize` keeps the rectangle norm
    sum |F|^2 |ds di| = 1 (ds, di the axis steps), which readers recompute from jsa.csv.
    """

    signal_axis: np.ndarray
    idler_axis: np.ndarray
    amplitude: np.ndarray
    quadrature: PumpQuadrature | None = None

    def __post_init__(self):
        if self.amplitude.shape != (self.signal_axis.size, self.idler_axis.size):
            raise ConfigError(
                f"amplitude shape {self.amplitude.shape} does not match axes "
                f"({self.signal_axis.size}, {self.idler_axis.size})"
            )
        _jsa_axes(self.signal_axis, self.idler_axis)
        if not np.all(np.isfinite(self.amplitude)):
            raise EvaluationError("JSA amplitude has a non-finite entry")

    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2

    def normalize(self) -> "JsaGrid":
        ds, di = (np.mean(np.diff(x)) for x in (self.signal_axis, self.idler_axis))
        norm = np.sqrt(np.vdot(self.amplitude, self.amplitude).real * abs(ds * di))
        if norm == 0:
            raise EvaluationError("cannot normalize an identically zero amplitude")
        return replace(self, amplitude=self.amplitude / norm)

    def border_mass(self) -> float:
        """Share of sum |F|^2 on the outermost rows and columns, each cell once."""
        a = self.amplitude
        edges = (a[0], a[-1], a[1:-1, 0], a[1:-1, -1])
        return float(sum(np.vdot(e, e).real for e in edges) / np.vdot(a, a).real)


def jsa_analytic(tau: TauSet, pump: PumpSpec, signal_axis, idler_axis) -> JsaGrid:
    """Closed-form JSA of the quadratic mismatch model on a frequency grid, normalised.

    Valid wherever the TauSet's second-order expansion of the mismatch is;
    axes are absolute frequencies in rad/fs centred near tau.omega_s and
    tau.omega_i.  The pump carrier must be tau.omega_p (ConfigError otherwise).
    """
    if abs(pump.omega_p - tau.omega_p) > 1e-9 * abs(tau.omega_p):
        raise ConfigError("pump carrier differs from the TauSet pump frequency")
    signal_axis, idler_axis = _jsa_axes(signal_axis, idler_axis)
    nu_i = (idler_axis - tau.omega_i)[np.newaxis, :]
    a = 0.5 * tau.tau_p2 * pump.sigma**2
    amplitude = np.empty((signal_axis.size, idler_axis.size), dtype=complex)
    rows = max(1, _BLOCK_POINTS // (8 * idler_axis.size))
    for start in range(0, signal_axis.size, rows):
        nu_s = (signal_axis[start : start + rows] - tau.omega_s)[:, np.newaxis]
        nu = nu_s + nu_i
        beta = tau.beta(nu_s, nu_i)
        envelope = np.exp(-(nu**2) / (2.0 * pump.sigma**2))
        if tau.tau_p2 == 0.0:
            profile_factor = sinc_phase(beta) / np.sqrt(np.pi)
        else:
            radicand = (nu**2 - 4.0 * beta / tau.tau_p2).astype(complex)
            x = np.sqrt(radicand) / (np.sqrt(2.0) * pump.sigma)
            profile_factor = phi_function(a, x)
        np.multiply(envelope, profile_factor, out=amplitude[start : start + rows])
    return JsaGrid(signal_axis=signal_axis, idler_axis=idler_axis, amplitude=amplitude).normalize()


def _pump_rule(points, sigma):
    """Nodes u >= 0 and weights (times exp(-2 u^2 / sigma^2)) of the trapezoid
    rule of step h on |u| <= _PUMP_SPAN sigma, folded: h at u = 0, 2h beyond.
    One point is the CW limit, h = sigma sqrt(pi / 2) (all of the weight):
    h = _PUMP_SPAN sigma would match two points, whose new node is at e^-18.
    """
    h = _PUMP_SPAN * sigma / (points - 1) if points > 1 else math.sqrt(0.5 * math.pi) * sigma
    u = h * np.arange(points)
    return u, np.where(u > 0, 2.0 * h, h) * np.exp(-2.0 * (u / sigma) ** 2)


def _jsa_numeric_raw(profile, pump, signal_axis, idler_axis, length_nm, gp, rule):
    u, w = rule
    a, h = profile.pump_series(pump.omega_p)
    p = Polynomial(a)  # k minus its tangent at the pump

    def k(omega):
        profile.check_window(omega)
        return p((omega - pump.omega_p) / h)

    k_s, k_i = k(signal_axis), k(idler_axis)
    distinct = (signal_axis[:, np.newaxis] + idler_axis).ravel()  # every sum until sorted
    order = np.argsort(distinct, kind="stable")
    distinct = distinct_sorted(distinct[order])
    envelope = np.exp(-((distinct - 2.0 * pump.omega_p) ** 2) / (2.0 * pump.sigma**2))
    out = np.empty(order.size, dtype=complex)
    # Cells by sum S in blocks of ~_BLOCK_POINTS points.  L K_S is tabulated over a
    # window of >= block // 4 distinct sums at a time, so that for any axes k's
    # temporaries stay under a block's and its per-call cost is shared by many blocks.
    block = _BLOCK_POINTS // max(u.size, 16)
    first = end = 0  # the window holds distinct[first:end]
    for start in range(0, order.size, block):
        cells = order[start : start + block]
        row, col = np.divmod(cells, idler_axis.size)
        # The same additions as `distinct`'s, so each finds its own entry exactly.
        inv = np.searchsorted(distinct, signal_axis[row] + idler_axis[col])
        if inv[-1] >= end:
            first, end = inv[0], max(inv[-1] + 1, inv[0] + block // 4)
            mid = 0.5 * distinct[first:end, np.newaxis]
            lks = length_nm * (k(mid + u) + k(mid - u))
        at = inv - first
        lc = length_nm * (k_s[row] + k_i[col] + 2.0 * gp)
        x = lks[at]
        x -= lc[:, np.newaxis]
        rows, cols = np.divmod(np.flatnonzero((x < _SPLIT_CUT) & (x > -_SPLIT_CUT)), u.size)
        direct = w[cols] * sinc_phase(x[rows, cols])
        x[rows, cols] = np.inf
        r = np.reciprocal(x, out=x)
        e = w * np.exp(1j * lks[at[0] : at[-1] + 1])
        at -= at[0]  # into e; each einsum gathers its own part, one at a time
        split = np.einsum("cu,cu->c", r, e.real[at]) + 1j * np.einsum("cu,cu->c", r, e.imag[at])
        # einsum sums each row alone; BLAS r @ w rounds by the row's place in the block.
        total = -1j * (np.exp(-1j * lc) * split - np.einsum("cu,u->c", r, w))
        np.add.at(total, rows, direct)
        out[cells] = envelope[inv] * total + 0j  # cells the envelope underflows hold +0, not -0
    return out.reshape(signal_axis.size, idler_axis.size)


def jsa_numeric(
    profile: DispersionProfile,
    pump: PumpSpec,
    signal_axis,
    idler_axis,
    length_nm: float,
    gamma: float = 0.0,
    nodes: int = 9,
    check: bool = True,
) -> JsaGrid:
    """JSA by direct quadrature of the pump integral against the full proxy.

    A cell of sum frequency S integrates over pump frequencies S/2 + u: the
    pump product is exp(-(S - 2 omega_p)^2 / (2 sigma^2)) exp(-2 u^2 / sigma^2)
    and the mismatch is even in u, so one trapezoid rule of `nodes` points on
    0 <= u <= 3 sigma, geometric for this weight (Trefethen & Weideman, SIAM
    Rev. 56 (2014) 385), serves every cell, and k is evaluated per distinct
    S, not per cell.  k is the proxy's Taylor series about the pump with its
    tangent line dropped; energy conservation cancels that line exactly, so
    L times the mismatch never subtracts terms of L k (~1e9 rad on 100 m).

    With K_S(u) = k(S/2 + u) + k(S/2 - u), C = k_s + k_i + 2 gamma P and
    x_u = L K_S(u) - L C, a cell's sum over (e^{i x_u} - 1) / (i x_u) is
    -i [e^{-i L C} sum_u r_u w_u e^{i L K_S(u)} - sum_u r_u w_u], r_u = 1/x_u:
    exponentials per (S, u) and per cell, and per point one reciprocal and
    three real dot products.  |x_u| < 1e-2 takes w_u sinc_phase(x_u), r_u = 0.

    With check=True an 8x8 subgrid is evaluated at n and 2n - 1 points (half
    the step; 1 grows to 2) from n = nodes, n growing until the two agree to
    1e-6 of the subgrid peak; the grid is then computed at n, and a rule past
    _MAX_NODES points raises EvaluationError.  The result's `quadrature`
    holds n, that drift and the share of the pump weight the span drops,
    erfc(3 sqrt 2) = 2e-9.  check=False uses exactly `nodes`.  The pump
    power enters through pump.power and gamma (1/(W km)); all frequencies
    the integrand touches must lie inside the profile's query window.  The
    axes are checked before any integration; the grid comes back normalised.
    """
    if not length_nm > 0:
        raise ConfigError(f"fibre length must be positive, got {length_nm}")
    if nodes < 1:
        raise ConfigError(f"need at least one quadrature node, got {nodes}")
    signal_axis, idler_axis = _jsa_axes(signal_axis, idler_axis)
    gp = nonlinear_mismatch(gamma, pump.power)
    rule, drift = _pump_rule(nodes, pump.sigma), None
    if check:
        sub_s, sub_i = (x[:: max(1, x.size // 8)] for x in (signal_axis, idler_axis))
        coarse = _jsa_numeric_raw(profile, pump, sub_s, sub_i, length_nm, gp, rule)
        while True:
            finer = max(2 * nodes - 1, 2)
            fine_rule = _pump_rule(finer, pump.sigma)
            fine = _jsa_numeric_raw(profile, pump, sub_s, sub_i, length_nm, gp, fine_rule)
            peak = max(np.max(np.abs(fine)), np.finfo(float).tiny)
            drift = float(np.max(np.abs(coarse - fine)) / peak)
            if drift <= _DRIFT_TOL:
                break
            if finer > _MAX_NODES:
                raise EvaluationError(
                    f"pump integral not converged: subgrid drift {drift:.2e} at "
                    f"{nodes} trapezoid points, and the rule stops at {_MAX_NODES}"
                )
            nodes, rule, coarse = finer, fine_rule, fine
    amp = _jsa_numeric_raw(profile, pump, signal_axis, idler_axis, length_nm, gp, rule)
    return JsaGrid(signal_axis, idler_axis, amp, PumpQuadrature(nodes, drift)).normalize()


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt decomposition summary of a JSA grid."""

    coefficients: np.ndarray
    purity: float
    schmidt_number: float


def _trapezoid_weights(jsa: JsaGrid):
    return (np.convolve(np.abs(np.diff(x)), [0.5, 0.5]) for x in (jsa.signal_axis, jsa.idler_axis))


def heralded_purity(jsa: JsaGrid) -> float:
    """Heralded-state purity sum lambda_n^2 of `schmidt_metrics`, with no SVD.

    lambda_n are the eigenvalues of G / tr G, G = W^H W, W = sqrt(w_s) F sqrt(w_i),
    so the purity is ||G||_F^2 / (tr G)^2.  G is built _BLOCK_POINTS / 4 entries
    at a time, one matmul per block of F's columns, and never held whole.
    """
    ws, wi = _trapezoid_weights(jsa)
    f, wi = jsa.amplitude, np.sqrt(wi)
    cols = max(1, _BLOCK_POINTS // (4 * f.shape[0]))
    frobenius = trace = 0.0
    with np.errstate(invalid="ignore"):  # a non-finite entry fails the trace test below
        for start in range(0, f.shape[1], cols):
            g = np.conj(ws[:, np.newaxis] * f[:, start : start + cols]).T @ f
            g *= wi[start : start + cols, np.newaxis] * wi
            frobenius += np.vdot(g, g).real
            trace += np.diagonal(g, offset=start).real.sum()
    if not 0.0 < trace < math.inf:
        raise EvaluationError("cannot decompose an identically zero or non-finite amplitude")
    return float(frobenius / trace**2)


def schmidt_metrics(jsa: JsaGrid) -> SchmidtResult:
    """Schmidt coefficients, heralded-state purity and Schmidt number.

    Nystroem discretisation (Bornemann, Math. Comp. 79 (2010) 871): singular
    values s_n of W = sqrt(w_s) F sqrt(w_i), w each axis' trapezoid weights, give
    lambda_n = s_n^2 / sum s^2, spectrally accurate in the step for a JSA that
    decays to the border; the purity is sum lambda_n^2, the Schmidt number 1/purity.
    Working memory is one weighted copy of the amplitude, plus numpy.linalg's own.
    """
    ws, wi = (np.sqrt(w) for w in _trapezoid_weights(jsa))
    with np.errstate(invalid="ignore"):  # a non-finite entry fails the norm test below
        weighted = ws[:, np.newaxis] * jsa.amplitude
        weighted *= wi
    if not 0.0 < np.vdot(weighted, weighted).real < math.inf:
        raise EvaluationError("cannot decompose an identically zero or non-finite amplitude")
    s2 = np.linalg.svd(weighted, compute_uv=False) ** 2
    coefficients = s2 / np.sum(s2)
    purity = float(np.sum(coefficients**2))
    return SchmidtResult(coefficients=coefficients, purity=purity, schmidt_number=1.0 / purity)
