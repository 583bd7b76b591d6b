"""Command-line front end producing deterministic text outputs.

Every subcommand reads one run file (--config PATH or --preset NAME), gets
its numbers from the library (RunConfig.profile, resolve_pump or
working_point, then the physics modules) and only formats them: results go
under --out, each file headed by the resolved configuration as '#' lines and
streamed into a temporary file that is then renamed over the result.
Outputs carry no timestamps and floats are printed with %.9g, so repeated
runs are byte-identical.

Exit codes: 0 success, 2 configuration errors, 3 numerical failures,
4 I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import __version__
from .biphoton import JsaGrid, heralded_purity, jsa_analytic, jsa_numeric, schmidt_metrics
from .config import (
    ResolvedPump,
    RunConfig,
    WorkingPoint,
    load_config,
    load_preset,
    resolve_pump,
    working_point,
)
from .dispersion import (
    find_fgvm_points,
    tau_coefficients,
    theta_pm,
    zero_dispersion_wavelengths,
)
from .errors import ConfigError, EvaluationError, NumericsError
from .materials import approximate_models
from .phasematching import (
    critical_power,
    half_max_edges,
    mi_sideband_detuning,
    seed_loops,
    singles_spectrum,
    zero_contours,
)
from .units import wavelength_from_omega


def _f(x) -> str:
    return "%.9g" % float(x)


def _nm(omega) -> str:
    """A frequency in rad/fs, printed as its vacuum wavelength in nm."""
    return _f(wavelength_from_omega(omega))


def _header(command: str, args, config: RunConfig, resolved=()) -> list[str]:
    lines = [f"# sfwm {command}", f"# version = {__version__}"]
    source = f"preset {args.preset}" if args.preset else f"config {args.config}"
    lines.append(f"# source = {source}")
    for key, value in config.echo_items():
        lines.append(f"# {key} = {value}")
    for key, value in resolved:
        lines.append(f"# resolved.{key} = {value}")
    return lines


def _approximate(config: RunConfig) -> str:
    """The approximate material models the fibre uses, or 'none'."""
    fiber = config.fiber()
    return " ".join(approximate_models(fiber.core, fiber.cladding)) or "none"


def _write(args, name: str, lines: Iterable[str]):
    """Stream `lines` into a temporary file, then rename it over `name`.

    On any failure the temporary file goes and an earlier `name` stays as it was.
    """
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _pump_resolution_echo(rp: ResolvedPump) -> list[tuple[str, str]]:
    out = [
        ("pump_wavelength_nm", _f(rp.lambda_nm)),
        ("pump_omega_rad_fs", _f(rp.omega_p)),
        ("pump_sigma_rad_fs", _f(rp.sigma)),
        ("pump_power_w", _f(rp.power)),
    ]
    if len(rp.powers) > 1:
        out.append(("pump_powers_w", " ".join(_f(p) for p in rp.powers)))
    if rp.p_star is not None:
        out.append(("critical_power_w", _f(rp.p_star)))
    if rp.gvm is not None:
        out.append(("gvm_pump_nm", _nm(rp.gvm.omega_p)))
        out.append(("gvm_half_separation_rad_fs", _f(rp.gvm.delta)))
    return out


def _cmd_dispersion(args, config: RunConfig, profile) -> int:
    zdws = zero_dispersion_wavelengths(profile)
    points = find_fgvm_points(profile)

    approximate = _approximate(config)
    lo, hi = profile.query_window
    omega = np.linspace(lo, hi, config.map_points)
    lines = _header("dispersion", args, config)
    lines.append(f"# fit_residual_rad_nm = {_f(profile.residual)}")
    lines.append(f"# approximate_materials = {approximate}")
    lines.append(
        "omega_rad_fs,wavelength_nm,k_rad_nm,k1_fs_nm,k2_fs2_nm,k3_fs3_nm"
    )
    cols = [profile.k_derivative(omega, n) for n in range(4)]
    for j, om in enumerate(omega):
        lines.append(",".join([_f(om), _nm(om)] + [_f(c[j]) for c in cols]))
    _write(args, "dispersion.csv", lines)

    zdw_text = " ".join(_f(z) for z in zdws) or "none"
    lines = _header("dispersion", args, config)
    lines.append(f"# approximate_materials = {approximate}")
    lines.append(f"# zero_dispersion_nm = {zdw_text}")
    lines.append("omega_p_rad_fs,delta_rad_fs,pump_nm,signal_nm,idler_nm")
    lines.extend(
        f"{_f(p.omega_p)},{_f(p.delta)},{_nm(p.omega_p)},{_nm(p.omega_s)},{_nm(p.omega_i)}"
        for p in points
    )
    _write(args, "fgvm_points.csv", lines)

    print(f"zero-dispersion wavelengths (nm): {zdw_text}")
    if approximate != "none":
        print(f"approximate material models: {approximate}")
    for p in points:
        msg = (
            f"group-velocity match: pump {_nm(p.omega_p)} nm, "
            f"signal {_nm(p.omega_s)} nm, idler {_nm(p.omega_i)} nm"
        )
        if config.gamma > 0:
            pc = critical_power(profile, p.omega_p, p.delta, config.gamma)
            msg += ", critical power " + (f"{_f(pc)} W" if pc > 0 else "none")
        print(msg)
    return 0


def _cmd_contours(args, config: RunConfig, profile) -> int:
    rp = resolve_pump(config, profile)
    axes = config.map_axes(profile)

    lines = _header("contours", args, config, _pump_resolution_echo(rp))
    lines.append("power_w,contour_index,closed,omega_p_rad_fs,delta_rad_fs")
    matches = rp.matches or find_fgvm_points(profile)
    for power in rp.powers:
        contours = zero_contours(profile, *axes, config.gamma, power)
        seeded = seed_loops(profile, axes, contours, matches, config.gamma, power)
        contours += seeded
        closed = sum(1 for c in contours if c.closed)
        for idx, contour in enumerate(contours):
            head = f"{_f(power)},{idx},{int(contour.closed)}"
            lines.extend(f"{head},{_f(op)},{_f(dd)}" for op, dd in contour.points)
        note = f", {len(seeded)} seeded" if seeded else ""
        print(f"P = {_f(power)} W: {len(contours)} contour(s), {closed} closed{note}")
    _write(args, "contours.csv", lines)
    return 0


def _singles_width(config: RunConfig, profile, rp: ResolvedPump):
    """Rows of the singles spectrum's outer half-maximum width and edges, and why unresolved."""
    dmax = config.signal_axis(profile, rp.omega_p)[-1] - rp.omega_p
    try:
        edges = half_max_edges(profile, rp.omega_p, dmax, config.length_nm, config.gamma, rp.power)
    except EvaluationError as exc:
        return {"fwhm_rad_fs": "unresolved"}, str(exc)
    lam = wavelength_from_omega(rp.omega_p + np.array([-1.0, 1.0]) * edges[-1])
    return {"fwhm_rad_fs": _f(2.0 * edges[-1]), "fwhm_nm": _f(lam[0] - lam[1]),
            "half_max_edges_rad_fs": " ".join(_f(e) for e in edges)}, None


def _cmd_spectrum(args, config: RunConfig, profile) -> int:
    rp = resolve_pump(config, profile)
    axis = config.signal_axis(profile, rp.omega_p)
    spectrum = singles_spectrum(
        profile, rp.omega_p, axis, config.length_nm, gamma=config.gamma, power=rp.power
    )
    width, note = _singles_width(config, profile, rp)
    message = f"singles spectrum FWHM unresolved: {note}" if note else (
        f"singles spectrum FWHM: {width['fwhm_rad_fs']} rad/fs ({width['fwhm_nm']} nm)")

    lines = _header("spectrum", args, config, _pump_resolution_echo(rp) + list(width.items()))
    lines.append("omega_s_rad_fs,wavelength_nm,intensity")
    for om, value in zip(axis, spectrum):
        lines.append(",".join([_f(om), _nm(om), _f(value)]))
    _write(args, "spectrum.csv", lines)
    print(message)
    return 0


def _working_point_echo(wp: WorkingPoint) -> list[tuple[str, str]]:
    return _pump_resolution_echo(wp.pump) + [
        ("matched_half_separation_rad_fs", _f(wp.delta)),
        ("signal_center_nm", _nm(wp.omega_s)),
        ("idler_center_nm", _nm(wp.omega_i)),
    ]


def _numeric_jsa(command: str, args, config: RunConfig, profile) -> tuple[list[str], JsaGrid]:
    """The run's numeric JSA, and its file header with how the pump rule settled."""
    wp = working_point(config, profile)
    s_axis, i_axis = wp.axes(profile, config.jsa_span, config.jsa_points)
    jsa = jsa_numeric(profile, wp.pump, s_axis, i_axis, config.length_nm, gamma=config.gamma)
    lines = _header(command, args, config, _working_point_echo(wp))
    lines.extend(f"# pump_rule_{key} = {_f(val)}" for key, val in vars(jsa.quadrature).items())
    return lines, jsa


def _jsa_rows(jsa: JsaGrid) -> Iterable[str]:
    """jsa.csv's data lines, one block per signal frequency, each number formatted once.

    The idler axis goes into a '%' template (no %.9g text holds '%') that
    each signal row fills from its own lists; the grid is never all text.
    """
    template = "\n".join("%s," + _f(x) + ",%.9g,%.9g" for x in jsa.idler_axis)
    for omega_s, amp in zip(jsa.signal_axis.tolist(), jsa.amplitude):
        fields = [_f(omega_s)] * (3 * amp.size)
        fields[1::3], fields[2::3] = amp.real.tolist(), amp.imag.tolist()
        yield template % tuple(fields)


def _cmd_jsa(args, config: RunConfig, profile) -> int:
    lines, jsa = _numeric_jsa("jsa", args, config, profile)
    lines.append(f"# border_mass = {_f(jsa.border_mass())}")
    lines.append("omega_s_rad_fs,omega_i_rad_fs,re_amplitude,im_amplitude")
    _write(args, "jsa.csv", itertools.chain(lines, _jsa_rows(jsa)))

    peak = np.unravel_index(np.argmax(jsa.intensity()), jsa.amplitude.shape)
    print(
        f"JSA grid {config.jsa_points}x{config.jsa_points}; intensity peak at "
        f"signal {_nm(jsa.signal_axis[peak[0]])} nm, "
        f"idler {_nm(jsa.idler_axis[peak[1]])} nm"
    )
    return 0


def _cmd_purity(args, config: RunConfig, profile) -> int:
    lines, jsa = _numeric_jsa("purity", args, config, profile)
    result = schmidt_metrics(jsa)
    lines.append(f"purity = {_f(result.purity)}")
    lines.append(f"schmidt_number = {_f(result.schmidt_number)}")
    lines.append(f"grid_points = {config.jsa_points}")
    lines.append(f"border_mass = {_f(jsa.border_mass())}")
    for n, lam in enumerate(result.coefficients[:16]):
        lines.append(f"coefficient_{n:02d} = {_f(lam)}")
    _write(args, "purity.txt", lines)

    print(
        f"heralded purity {_f(result.purity)} "
        f"(Schmidt number {_f(result.schmidt_number)})"
    )
    return 0


def _section(title: str, **rows) -> list[str]:
    """A design-report section: its title, then '  key = value' (numbers %.9g)."""
    return [title] + [f"  {k} = {v if isinstance(v, str) else _f(v)}" for k, v in rows.items()]


def _cmd_design_report(args, config: RunConfig, profile) -> int:
    zdws = zero_dispersion_wavelengths(profile)
    wp = working_point(config, profile)
    rp = wp.pump
    tau = tau_coefficients(
        profile, rp.omega_p, wp.delta, config.length_nm, gamma=config.gamma, power=rp.power
    )

    try:
        mi = mi_sideband_detuning(profile, rp.omega_p, config.gamma, rp.power)
    except (ConfigError, EvaluationError):
        mi = "none"
    try:
        angle = theta_pm(tau)
    except EvaluationError:
        angle = "undefined (no first-order walk-off)"
    gvm = rp.gvm
    matches = {} if gvm is None else {
        "gvm_pump_nm": _nm(gvm.omega_p), "gvm_signal_nm": _nm(gvm.omega_s),
        "gvm_idler_nm": _nm(gvm.omega_i),
    }
    critical = {} if rp.p_star is None else {"critical_power_w": rp.p_star}
    spectrum, note = _singles_width(config, profile, rp)
    spectrum = {"fwhm_rad_fs": "unresolved within the window"} if note else spectrum
    s_axis, i_axis = wp.axes(profile, config.jsa_span, config.jsa_points)
    purity = heralded_purity(jsa_analytic(tau, wp.pump, s_axis, i_axis))

    body = [
        *_section(
            "fibre", core=config.core, cladding=config.cladding, radius_um=config.radius_um,
            length_m=config.length_m, gamma_w_km=config.gamma,
            approximate_materials=_approximate(config), fit_residual_rad_nm=profile.residual,
            fit_phase_error_rad=profile.residual * config.length_nm,
        ),
        *_section("dispersion", zero_dispersion_nm=" ".join(_f(z) for z in zdws) or "none",
                  **matches),
        *_section("pump", wavelength_nm=rp.lambda_nm, sigma_rad_fs=rp.sigma, power_w=rp.power,
                  **critical, mi_sideband_rad_fs=mi),
        *_section(
            "working point", signal_nm=_nm(wp.omega_s), idler_nm=_nm(wp.omega_i),
            delta_k0=tau.delta_k0, tau_s1_fs=tau.tau_s1, tau_i1_fs=tau.tau_i1,
            tau_s2_fs2=tau.tau_s2, tau_i2_fs2=tau.tau_i2, tau_p2_fs2=tau.tau_p2,
            stripe_angle_deg=angle,
        ),
        *_section("singles spectrum", **spectrum),
        *_section("biphoton (quadratic model)", purity=purity, schmidt_number=1.0 / purity),
    ]
    lines = _header("design-report", args, config, _working_point_echo(wp))
    lines.extend(body)
    _write(args, "design_report.txt", lines)
    print("\n".join(body))
    return 0


_COMMANDS = {
    "dispersion": (
        _cmd_dispersion,
        "fit the dispersion proxy; write k(omega) samples, zero-dispersion "
        "wavelengths and group-velocity matches",
    ),
    "contours": (
        _cmd_contours,
        "trace phase-matching contours in the pump/half-separation plane at "
        "each configured power",
    ),
    "spectrum": (
        _cmd_spectrum,
        "monochromatic-pump singles spectrum over the window, with its FWHM",
    ),
    "jsa": (
        _cmd_jsa,
        "joint spectral amplitude on a grid around the matched pair, by "
        "pump-envelope quadrature",
    ),
    "purity": (
        _cmd_purity,
        "Schmidt decomposition of the numeric JSA: heralded purity and "
        "Schmidt number",
    ),
    "design-report": (
        _cmd_design_report,
        "one-file summary: dispersion, matches, critical power, local "
        "mismatch expansion, spectral widths and model purity",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfwm",
        description="Design studies of spontaneous four-wave mixing in "
        "step-index fibres.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", metavar="PATH", help="run file to read")
        group.add_argument(
            "--preset", metavar="NAME", help="packaged run file (see README)"
        )
        sp.add_argument(
            "--out", metavar="DIR", default=".",
            help="output directory (default: '.')",
        )
        sp.set_defaults(func=func)
    return parser


_EXIT_CODES = ((ConfigError, 2), (NumericsError, 3), (OSError, 4))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_preset(args.preset) if args.preset else load_config(args.config)
        return args.func(args, config, config.profile())
    except (ConfigError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
