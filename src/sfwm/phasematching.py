"""Continuous-wave phase matching: mismatch maps, contours and spectra.

Working coordinates are the pump frequency omega_p and the signal-idler
half-separation delta, both rad/fs: a degenerate pump at omega_p feeds a
signal at omega_p + delta and an idler at omega_p - delta, with phase
mismatch

    delta_k = 2 k(omega_p) - k(omega_p + delta) - k(omega_p - delta)
              - 2 gamma P.

It is evaluated as the even Taylor polynomial in delta about each pump
frequency (`dispersion.mismatch_coefficients`), so the k values never
cancel.  Matched pairs live on the delta_k = 0 level set; `trace_contours`
extracts it from a sampled map by marching squares (linear interpolation on
cell edges, saddles resolved by the cell-centre value; only the chaining runs
in Python), and `zero_contours` then bisects each vertex onto it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from .dispersion import DispersionProfile, _walk_off_series, mismatch_coefficients, sign_change_roots
from .errors import ConfigError, EvaluationError
from .modes import bisect
from .units import nonlinear_mismatch

# Powers this close to P* count as the critical power.  Run files may hold
# P* pasted from an output echo, whose %.9g rounding is up to 5e-9 relative.
_CRITICAL_POWER_RTOL = 1e-8


def sinc_phase(y):
    """(e^{iy} - 1)/(i y): the field envelope factor of a uniform medium.

    Equals sinc(y/2) e^{i y/2} with the numerics-safe numpy sinc; finite and
    smooth through y = 0.
    """
    y = np.asarray(y, dtype=float)
    return np.sinc(y / (2.0 * np.pi)) * np.exp(0.5j * y)


def delta_k_cw(
    profile: DispersionProfile,
    omega_p,
    delta,
    gamma: float = 0.0,
    power: float = 0.0,
):
    """Degenerate-pump phase mismatch in rad/nm, broadcasting over inputs.

    The even polynomial in delta of `mismatch_coefficients`, expanded about
    each pump frequency, so no k values are subtracted.  Every sideband
    omega_p +/- delta must lie in the profile's query window.
    """
    omega_p = np.asarray(omega_p, dtype=float)
    delta = np.abs(np.asarray(delta, dtype=float))
    profile.check_window(omega_p - delta)
    profile.check_window(omega_p + delta)
    coef, h = mismatch_coefficients(profile, omega_p, nonlinear_mismatch(gamma, power))
    x = (delta / h) ** 2
    out = coef[-1] + x * 0.0  # polyval(tensor=False) in place: one map-sized array, not three
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def matched_detunings(
    profile: DispersionProfile,
    omega_p: float,
    detuning_max: float,
    gamma: float = 0.0,
    power: float = 0.0,
) -> np.ndarray:
    """Half-separations in (0, detuning_max) where delta_k_cw changes sign.

    Roots of the polynomial of `mismatch_coefficients`: no scan, no trivial
    root at delta = 0 and no cancelling k values.  Both sidebands at
    detuning_max must lie in the query window.  Ascending, in rad/fs.
    """
    profile.check_window(omega_p + np.array([-detuning_max, detuning_max]))
    coef, h = mismatch_coefficients(profile, omega_p, nonlinear_mismatch(gamma, power))
    return h * np.sqrt(sign_change_roots(Polynomial(coef), 0.0, (detuning_max / h) ** 2))


@dataclass(frozen=True)
class PmMap:
    """Mismatch delta_k (rad/nm) over pump frequency and half-separation.

    values[i, j] belongs to pump_axis[j] (columns) and detuning_axis[i]
    (rows).
    """

    pump_axis: np.ndarray
    detuning_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.detuning_axis.size, self.pump_axis.size):
            raise ConfigError(
                f"map shape {self.values.shape} does not match axes "
                f"({self.detuning_axis.size}, {self.pump_axis.size})"
            )


def pm_map(
    profile: DispersionProfile,
    pump_axis,
    detuning_axis,
    gamma: float = 0.0,
    power: float = 0.0,
) -> PmMap:
    """Evaluate the mismatch on a rectangular grid.

    Every sampled sideband omega_p +/- delta must lie inside the profile's
    query window; choose the axes accordingly.
    """
    pump_axis = np.asarray(pump_axis, dtype=float)
    detuning_axis = np.asarray(detuning_axis, dtype=float)
    op = pump_axis[np.newaxis, :]
    dd = detuning_axis[:, np.newaxis]
    values = delta_k_cw(profile, op, dd, gamma=gamma, power=power)
    return PmMap(pump_axis=pump_axis, detuning_axis=detuning_axis, values=values)


@dataclass(frozen=True)
class Contour:
    """Polyline in (pump, detuning) coordinates; closed ones are loops."""

    points: np.ndarray
    closed: bool


# Segments of each cell case between the edges b(ottom), l(eft), t(op) and
# r(ight).  Bit 0 of the case is the lower-left corner, bits 1-3 follow
# counter-clockwise; the saddles 5 and 10 list their pairing for a cell
# centre below zero, then "|" and the pairing for one at or above it.
_CASES = (
    "", "lb", "br", "lr", "rt", "bl rt|br tl", "bt", "lt",
    "lt", "bt", "br tl|lb rt", "rt", "lr", "br", "lb", "",
)


def _segment_table() -> np.ndarray:
    """Edges by [case, centre >= 0, segment, end], padded with -1."""
    table = np.full((16, 2, 2, 2), -1)
    for case, spec in enumerate(_CASES):
        below, _, above = spec.partition("|")
        for centre, segments in enumerate((below, above or below)):
            for s, pair in enumerate(segments.split()):
                table[case, centre, s] = ["bltr".index(e) for e in pair]
    return table


_SEGMENTS = _segment_table()


def trace_contours(pm: PmMap) -> list[Contour]:
    """March the zero level set of a map into polylines.

    Returns contours as (N, 2) point arrays in (pump, detuning) coordinates.
    Open paths terminate on the map boundary; closed ones are loops (first
    point not repeated).  A corner exactly at zero counts as inside.

    Cell cases, segments and edge crossings are array operations; an edge is
    named 2 c + vertical, c the flat index of its lower-left grid point, so
    both cells sharing it agree.  Only the chaining runs in Python: open paths
    from edges used once, in order of first use, then loops in segment order.
    """
    v = pm.values
    x, y = pm.pump_axis, pm.detuning_axis
    nx = v.shape[1]
    inside = (v >= 0).astype(np.uint8)
    case = inside[:-1, :-1] | inside[:-1, 1:] << 1
    case |= inside[1:, 1:] << 2 | inside[1:, :-1] << 3
    i, j = np.nonzero((case > 0) & (case < 15))
    centre = 0.25 * (v[i, j] + v[i, j + 1] + v[i + 1, j] + v[i + 1, j + 1])
    segments = _SEGMENTS[case[i, j], (centre >= 0).astype(np.uint8)]
    offsets = np.array([0, 1, 2 * nx, 3])  # ids of edges b, l, t, r minus 2 c
    ends = (2 * (i * nx + j))[:, np.newaxis, np.newaxis] + offsets[segments]
    ends = ends[segments[:, :, 0] >= 0].ravel()

    edges, inv = np.unique(ends, return_inverse=True)
    c, vertical = np.divmod(edges, 2)
    ia, ja = np.divmod(c, nx)
    ib, jb = ia + vertical, ja + 1 - vertical
    t = -v[ia, ja] / (v[ib, jb] - v[ia, ja])
    xy = np.column_stack((x[ja] + t * (x[jb] - x[ja]), y[ia] + t * (y[ib] - y[ia])))

    seg_edges = inv.reshape(-1, 2).tolist()
    adj = [[] for _ in range(edges.size)]  # segments at each edge, ascending
    for s, (a, b) in enumerate(seg_edges):
        adj[a].append(s)
        adj[b].append(s)
    used = [False] * len(seg_edges)

    def walk(start):
        """Consume unused segments from edge start; True when a loop closes."""
        chain = [start]
        current = start
        while True:
            s = next((s for s in adj[current] if not used[s]), None)
            if s is None:
                return chain, False
            used[s] = True
            a, b = seg_edges[s]
            current = b if a == current else a
            if current == start:
                return chain, True
            chain.append(current)

    # Open paths first, from the edges used once, in order of first use.
    first_use = dict.fromkeys(inv.tolist())
    walks = [walk(e) for e in first_use if len(adj[e]) == 1 and not used[adj[e][0]]]
    # Whatever remains sits on closed loops; walking any member edge of one
    # comes back around to it.
    walks += [walk(seg_edges[s][0]) for s in range(len(used)) if not used[s]]
    return [Contour(points=xy[chain], closed=closed) for chain, closed in walks]


def zero_contours(profile, pump_axis, detuning_axis, gamma=0.0, power=0.0) -> list[Contour]:
    """`trace_contours` of the `pm_map` on these array axes, each vertex then on delta_k = 0.

    A vertex keeps its edge's fixed coordinate bit for bit; `bisect` closes the edge to one ulp
    on a series built once at its pump op from `pump_series`' a_j, h: on a pump column the
    polynomial of `mismatch_coefficients` in (delta / h)^2, on a detuning row 2 G(x) - G(x + d)
    - G(x - d) - 2 gamma P in x = (omega_p - op) / h, for G = sum_j a_j x^j and d = delta / h.
    """
    contours = trace_contours(pm_map(profile, pump_axis, detuning_axis, gamma, power))
    pts = np.concatenate([c.points for c in contours] or [np.empty((0, 2))])
    (p0, p1), (d0, d1) = ((ax[np.searchsorted(ax, c, "right") - 1], ax[np.searchsorted(ax, c)])
                          for ax, c in zip((pump_axis, detuning_axis), pts.T))
    (op, dp), col, (a, h) = pts.T, p0 == p1, profile.pump_series(pts[:, 0])  # col: in delta
    n, f, gp2 = len(a), np.cumprod(np.r_[1.0, 1:len(a)]), 2.0 * nonlinear_mismatch(gamma, power)
    b = np.concatenate((-2.0 * a[::2] * col, np.zeros_like(a[: n // 2])))
    for k in range(2, n, 2):  # b_r = -2 sum C(r + k, k) a_(r+k) d^k over even k > 0 on a row
        b[: n - k] -= 2.0 * (f[k:] / f[: n - k] / f[k])[:, None] * a[k:] * (dp / h) ** k * ~col
    pts[np.arange(len(pts)), col * 1] = bisect(
        lambda z: polyval(np.where(col, (z / h) ** 2, (z - op) / h), b, tensor=False) - gp2,
        np.where(col, d0, p0), np.where(col, d1, p1))
    ends = np.cumsum([len(c.points) for c in contours[:-1]], dtype=int)
    return [Contour(points=p, closed=c.closed) for p, c in zip(np.split(pts, ends), contours)]


def seed_loops(profile, axes, contours, matches, gamma=0.0, power=0.0) -> list[Contour]:
    """Closed loops around full group-velocity matches that the contours on the map's axes miss.

    Both slopes of delta_k vanish at a match (omega_p, +-delta) on the map, so a loop
    delta_k0 + x^T H x / 2 = 0 surrounds it where the Hessian H (from the walk-off series, no
    differences of k) is definite, delta_k0 has the opposite sign and P is not P*.  Where no
    closed contour winds around such a point, `zero_contours` on axes of the same size over
    twice the ellipse's extents, clipped to the map's, supplies its loops.
    """
    seeded, (px, dx) = [], axes
    for m in (m for m in matches if px[0] <= m.omega_p <= px[-1] and m.delta < dx[-1]):
        d1, d2, h = _walk_off_series(profile, m.omega_p)
        # k'' at omega_p +- delta, and the same less k''(omega_p).
        k2, w2 = (f(np.array([m.delta, -m.delta]) / h) / h**2 for f in (d1.deriv(), d2))
        hess = -np.array([[w2.sum(), k2[0] - k2[1]], [k2[0] - k2[1], k2.sum()]])
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
        dk0 = float(delta_k_cw(profile, m.omega_p, m.delta, gamma, power))
        if det <= 0 or dk0 * hess[0, 0] >= 0 or at_critical_power(profile, m, gamma, power):
            continue
        half = 2.0 * np.sqrt(-2.0 * dk0 * np.diag(hess)[::-1] / det)
        for centre in ((m.omega_p, m.delta), (m.omega_p, -m.delta)):
            # A closed contour's winding number about centre is +-1 inside, 0 outside.
            z = [c.points[:, 0] - centre[0] + 1j * (c.points[:, 1] - centre[1])
                 for c in contours + seeded if c.closed]
            if not any(abs(np.angle(np.roll(w, -1) / w).sum()) > np.pi for w in z):
                local = [np.linspace(max(c - r, a[0]), min(c + r, a[-1]), a.size)
                         for c, r, a in zip(centre, half, (px, dx))]
                seeded += [c for c in zero_contours(profile, *local, gamma, power) if c.closed]
    return seeded


def critical_power(
    profile: DispersionProfile,
    omega_p: float,
    delta: float,
    gamma: float,
) -> float:
    """Pump power that cancels the linear mismatch at (omega_p, delta), in W.

    At the loop's interior matching point this is the power where the closed
    phase-matching loop collapses; above it no matched pair remains nearby.
    """
    if not gamma > 0:
        raise ConfigError(f"nonlinear parameter must be positive, got {gamma}")
    return float(delta_k_cw(profile, omega_p, delta)) / (2.0 * nonlinear_mismatch(gamma, 1.0))


def at_critical_power(profile: DispersionProfile, match, gamma: float, power: float) -> bool:
    """Whether power is P* at match (omega_p, delta), in mismatch form: never at gamma = 0."""
    dk0 = float(delta_k_cw(profile, match.omega_p, match.delta, gamma, power))
    return abs(dk0) < _CRITICAL_POWER_RTOL * abs(dk0 + 2.0 * nonlinear_mismatch(gamma, power))


def mi_sideband_detuning(
    profile: DispersionProfile,
    omega_p: float,
    gamma: float,
    power: float,
) -> float:
    """Modulation-instability peak-gain detuning sqrt(2 gamma P / |k''|), rad/fs.

    Defined only for anomalous dispersion at the pump (k'' < 0).
    """
    k2 = profile.k_derivative(omega_p, 2)
    if k2 >= 0:
        raise EvaluationError(
            f"no modulation-instability sidebands: k'' = {k2:.3e} fs^2/nm >= 0 "
            f"at the pump"
        )
    gp = nonlinear_mismatch(gamma, power)
    if gp <= 0:
        raise ConfigError("modulation instability needs positive gamma and power")
    return float(np.sqrt(2.0 * gp / (-k2)))


def singles_spectrum(
    profile: DispersionProfile,
    omega_p: float,
    omega_signal,
    length_nm: float,
    gamma: float = 0.0,
    power: float = 0.0,
):
    """Monochromatic-pump signal spectrum sinc^2(L delta_k / 2), in [0, 1].

    The idler is pinned by energy conservation at 2 omega_p - omega_signal,
    which must stay inside the profile's query window.
    """
    if not length_nm > 0:
        raise ConfigError(f"fibre length must be positive, got {length_nm}")
    om_s = np.asarray(omega_signal, dtype=float)
    dk = delta_k_cw(profile, omega_p, om_s - omega_p, gamma=gamma, power=power)
    return np.abs(sinc_phase(length_nm * dk)) ** 2


def half_max_edges(
    profile: DispersionProfile, omega_p, detuning_max, length_nm, gamma=0.0, power=0.0
) -> np.ndarray:
    """Ascending half-separations in (0, detuning_max) where singles_spectrum is half its peak.

    That spectrum is sinc^2(x / 2), x = L delta_k the polynomial of `mismatch_coefficients` in
    s = (delta / h)^2.  Its peak has the least |x| on the range: 0 where x changes sign, else the
    least |x| at the ends and the roots of x'.  A peak >= 0.1 tops every side lobe, so the edges
    are the roots of x -/+ x_h, sinc^2(x_h / 2) being half the peak.  Raises EvaluationError for
    a lower peak or where |x| < x_h at detuning_max (the width is unresolved).
    """
    profile.check_window(omega_p + np.array([-detuning_max, detuning_max]))
    coef, h = mismatch_coefficients(profile, omega_p, nonlinear_mismatch(gamma, power))
    x, end = Polynomial(length_nm * coef), (detuning_max / h) ** 2
    xs = x(np.concatenate(([0.0, end], sign_change_roots(x.deriv(), 0.0, end))))
    peak = 0.0 if xs.min() < 0 < xs.max() else np.abs(xs).min()
    half = 0.5 * np.sinc(peak / (2 * np.pi)) ** 2
    if not half >= 0.05:
        raise EvaluationError(f"spectrum peak {2 * half:.3g} is below 0.1; no main lobe")
    x_h = bisect(lambda y: np.sinc(y / (2 * np.pi)) ** 2 - half, peak, 2 * np.pi)
    if not abs(xs[1]) > x_h:
        raise EvaluationError("spectrum still above half maximum at the end of the range")
    roots = np.concatenate([sign_change_roots(x + d, 0.0, end) for d in (-x_h, x_h)])
    return h * np.sqrt(np.sort(roots))


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
