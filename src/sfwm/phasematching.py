"""Continuous-wave phase matching: mismatch maps, contours and spectra.

Working coordinates are the pump frequency omega_p and the signal-idler
half-separation delta, both rad/fs: a degenerate pump at omega_p feeds a
signal at omega_p + delta and an idler at omega_p - delta, with phase
mismatch

    delta_k = 2 k(omega_p) - k(omega_p + delta) - k(omega_p - delta)
              - 2 gamma P.

It is evaluated by `dispersion.delta_k_cw` as the even Taylor polynomial in
delta about each pump frequency (`dispersion.mismatch_coefficients`), so the
k values never cancel.  Matched pairs live on its zero set, which
`pm_contours` traces by one path on the map and on each seed's box: rows
delta >= 0 (delta_k is even in delta), then a join and mirror to delta < 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .dispersion import (DispersionProfile, delta_k_cw, mismatch_coefficients, sign_change_roots,
                         tau_coefficients)
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
    coef, h = mismatch_coefficients(profile, omega_p, detuning_max, gamma, power)
    return h * np.sqrt(sign_change_roots(Polynomial(coef), 0.0, (detuning_max / h) ** 2))


def pm_map(
    profile: DispersionProfile,
    pump_axis,
    detuning_axis,
    gamma: float = 0.0,
    power: float = 0.0,
) -> np.ndarray:
    """Mismatch delta_k (rad/nm) on a rectangular grid: [i, j] at detuning_axis[i], pump_axis[j].

    Every sampled sideband omega_p +/- delta must lie inside the profile's
    query window; choose the axes accordingly.
    """
    op = np.asarray(pump_axis, dtype=float)[np.newaxis, :]
    dd = np.asarray(detuning_axis, dtype=float)[:, np.newaxis]
    return delta_k_cw(profile, op, dd, gamma=gamma, power=power)


@dataclass(frozen=True, eq=False)
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


def trace_contours(values, pump_axis, detuning_axis) -> list[Contour]:
    """March the zero level set of a map into polylines.

    values[i, j] is the map at pump_axis[j], detuning_axis[i], as `pm_map`
    returns it (ConfigError for another shape).  Returns contours as (N, 2)
    point arrays in (pump, detuning) coordinates.  Open paths terminate on
    the map boundary; closed ones are loops (first point not repeated).  A
    corner exactly at zero counts as inside.

    Cell cases, segments and edge crossings are array operations; an edge is
    named 2 c + vertical, c the flat index of its lower-left grid point, so
    both cells sharing it agree.  Only the chaining runs in Python: open paths
    from edges used once, in order of first use, then loops in segment order.
    """
    v, x, y = values, pump_axis, detuning_axis
    if v.shape != (y.size, x.size):
        raise ConfigError(f"map shape {v.shape} does not match axes ({y.size}, {x.size})")
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
    along the other on `delta_k_cw`, the function the map samples, so each vertex lies within
    one ulp of a sign change of the mismatch every other caller evaluates.
    """
    contours = trace_contours(pm_map(profile, pump_axis, detuning_axis, gamma, power),
                              pump_axis, detuning_axis)
    pts = np.concatenate([c.points for c in contours] or [np.empty((0, 2))])
    (p0, p1), (d0, d1) = ((ax[np.searchsorted(ax, c, "right") - 1], ax[np.searchsorted(ax, c)])
                          for ax, c in zip((pump_axis, detuning_axis), pts.T))
    (op, dp), col = pts.T, p0 == p1  # col: on a pump column, so free in delta
    pts[np.arange(len(pts)), col * 1] = bisect(
        lambda z: delta_k_cw(profile, np.where(col, op, z), np.where(col, z, dp), gamma, power),
        np.where(col, d0, p0), np.where(col, d1, p1))
    ends = np.cumsum([len(c.points) for c in contours[:-1]], dtype=int)
    return [Contour(points=p, closed=c.closed) for p, c in zip(np.split(pts, ends), contours)]


def _half_map(profile, px, dx, gamma, power) -> list[Contour]:
    """`zero_contours` on the rows delta >= 0 of px, dx, each mirrored or joined; mirrors first."""
    floor, mirrors, upper = dx[0] <= 0, [], []  # floor: dx reaches delta = 0, where dk = -2 gamma P
    rows = np.r_[0.0, dx[dx > 0]] if floor and nonlinear_mismatch(gamma, power) else dx[dx > 0]
    for c in zero_contours(profile, px, rows, gamma, power):
        p, r, cut = c.points, c.points[::-1] * (1.0, -1.0), floor & (c.points[[0, -1], 1] == rows[0])
        if cut.any():  # it ends on the floor's lowest row: join it to its mirror there
            upper.append(Contour(np.r_[r, p] if cut[0] > cut[1] else np.r_[p, r], bool(cut.all())))
        else:
            mirrors, upper = mirrors + [Contour(r, c.closed)], upper + [c]
    return mirrors + upper


def pm_contours(profile, px, dx, gamma=0.0, power=0.0) -> tuple[list[Contour], int]:
    """Zero contours of `delta_k_cw` on pump axis px and detuning axis dx, and the count seeded.

    `_half_map` traces the map; each vertex is within one ulp of a sign change.  Where no closed
    contour has a vertex in the box of twice the extents of a match's loop dk0 + x^T H x / 2 = 0
    (`tau_coefficients`' model; H definite, dk0 of opposite sign, P not P*), `_half_map` of that
    box (same axis sizes, clipped to the map's delta >= 0) seeds its closed contours after them.
    """
    traced = len(contours := _half_map(profile, px, dx, gamma, power))
    for m in (m for m in profile.matches if px[0] <= m.omega_p <= px[-1] and m.delta < dx[-1]):
        t = tau_coefficients(profile, m.omega_p, m.delta, 1.0, gamma, power)  # per nm of fibre
        s, d = t.tau_s2 + t.tau_i2, t.tau_s2 - t.tau_i2
        hess, dk0 = 2.0 * np.array([[s, d], [d, s - t.tau_p2]]), t.delta_k0
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
        if det <= 0 or dk0 * hess[0, 0] >= 0 or at_critical_power(profile, m, gamma, power):
            continue
        centre = np.array([m.omega_p, m.delta])
        half = 2.0 * np.sqrt(-2.0 * dk0 * np.diag(hess)[::-1] / det)
        if not any(c.closed and (np.abs(c.points - centre) <= half).all(1).any() for c in contours):
            box = np.clip([centre - half, centre + half], (px[0], max(dx[0], 0.0)), (px[-1], dx[-1]))
            local = [np.linspace(*ends, ax.size) for ends, ax in zip(box.T, (px, dx))]
            contours += [c for c in _half_map(profile, *local, gamma, power) if c.closed]
    return contours, len(contours) - traced


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
    coef, h = mismatch_coefficients(profile, omega_p, detuning_max, gamma, power)
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
