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
cell edges, saddles resolved by the cell-centre value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .dispersion import (
    DispersionProfile,
    mismatch_coefficients,
    pair_mismatch,
    sign_change_roots,
)
from .errors import ConfigError, EvaluationError
from .units import nonlinear_mismatch


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
    each pump frequency, so no k values are subtracted; at a scalar pump it
    equals `pair_mismatch` exactly.  Every sideband omega_p +/- delta must
    lie in the profile's query window.
    """
    omega_p = np.asarray(omega_p, dtype=float)
    delta = np.abs(np.asarray(delta, dtype=float))
    profile.check_window(omega_p - delta)
    profile.check_window(omega_p + delta)
    coef, h = mismatch_coefficients(profile, omega_p, nonlinear_mismatch(gamma, power))
    return polyval((delta / h) ** 2, coef, tensor=False)


def matched_detunings(
    profile: DispersionProfile,
    omega_p: float,
    detuning_max: float,
    gamma: float = 0.0,
    power: float = 0.0,
) -> np.ndarray:
    """Half-separations in (0, detuning_max) where delta_k_cw changes sign.

    Roots of the polynomial of `pair_mismatch`: no scan, no trivial root at
    delta = 0 and no cancelling k values.  Ascending, in rad/fs.
    """
    gp = nonlinear_mismatch(gamma, power)
    mismatch, h = pair_mismatch(profile, omega_p, detuning_max, gp)
    return h * np.sqrt(sign_change_roots(mismatch, 0.0, (detuning_max / h) ** 2))


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


def _edge_point(kind, i, j, axes, values, level):
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
    t = (level - va) / (vb - va)
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


def trace_contours(pm: PmMap, level: float = 0.0) -> list[Contour]:
    """March the level set of a map into polylines.

    Returns contours as (N, 2) point arrays in (pump, detuning) coordinates.
    Open paths terminate on the map boundary; closed ones are loops (first
    point not repeated).  A corner exactly at `level` counts as inside.
    """
    v = pm.values
    x, y = pm.pump_axis, pm.detuning_axis
    ny, nx = v.shape
    inside = v >= level

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
            for ea, eb in _cell_segments(case, center >= level):
                segments.append((edge_id(ea, i, j), edge_id(eb, i, j)))

    if not segments:
        return []

    points = {}
    for ea, eb in segments:
        for kind, i, j in (ea, eb):
            if (kind, i, j) not in points:
                points[(kind, i, j)] = _edge_point(kind, i, j, (x, y), v, level)

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
    if gamma <= 0:
        raise ConfigError(f"nonlinear parameter must be positive, got {gamma}")
    mismatch, h = pair_mismatch(profile, omega_p, delta)
    return float(mismatch((delta / h) ** 2)) / (2.0 * gamma * 1e-12)


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
    if length_nm <= 0:
        raise ConfigError(f"fibre length must be positive, got {length_nm}")
    om_s = np.asarray(omega_signal, dtype=float)
    dk = delta_k_cw(profile, omega_p, om_s - omega_p, gamma=gamma, power=power)
    return np.abs(sinc_phase(length_nm * dk)) ** 2


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
    if ymax <= 0:
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


def fwhm(x, y) -> float:
    """Full width at half maximum in the units of x."""
    lo, hi = half_max_crossings(x, y)
    return hi - lo
