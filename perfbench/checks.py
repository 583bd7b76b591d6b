"""Output checks for the benchmark's commands.

Each check reads one command's stdout and result files and returns a list of
problems (empty when the output is right).  References live in
reference.json next to this file.  Values that do not depend on the pump
width, which is the only input a seed changes, are checked against the
reference on every seed; the rest only on seed 0, and every seed gets the
invariants (finite, interior peak, normalised JSA, purity in (0, 1]).
"""

import json
import math
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _header_value(path, key):
    prefix = f"# {key} = "
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(prefix):
                return line[len(prefix) :].strip()
    raise ValueError(f"{os.path.basename(path)} has no '{key}' header line")


def _report_value(path, section, key):
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith(" "):
                current = line.strip()
            elif current == section and line.strip().startswith(f"{key} = "):
                return float(line.split("=", 1)[1])
    raise ValueError(f"{os.path.basename(path)} has no '{section}/{key}'")


def _close(name, got, want, rel=None, abs_=None):
    tol = abs_ if abs_ is not None else rel * abs(want)
    if not math.isfinite(got) or abs(got - want) > tol:
        return [f"{name} = {got!r}, reference {want!r} (tolerance {tol:.3g})"]
    return []


def summarise(command, out_dir, stdout):
    """Numbers the checks compare, extracted from one command's outputs."""
    if command == "dispersion":
        line = next(l for l in stdout.splitlines() if l.startswith("zero-dispersion wavelengths"))
        return {"zdw_nm": [float(x) for x in line.split(":", 1)[1].split()]}
    if command == "contours":
        path = os.path.join(out_dir, "contours.csv")
        loops = {}  # (power, index) -> pump frequencies of a closed contour
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("power_w"):
                    continue
                power, index, closed, omega_p = line.split(",")[:4]
                if closed == "1":
                    loops.setdefault((power, index), []).append(float(omega_p))
        powers = _header_value(path, "resolved.pump_powers_w").split()
        return {
            "powers_w": [float(p) for p in powers],
            "closed_per_power": [sum(1 for q, _ in loops if q == p) for p in powers],
            "loop_extent_rad_fs": [
                max((max(v) - min(v) for (q, _), v in loops.items() if q == p), default=0.0)
                for p in powers
            ],
        }
    if command == "spectrum":
        return {"fwhm_nm": float(_header_value(os.path.join(out_dir, "spectrum.csv"), "resolved.fwhm_nm"))}
    if command == "design-report":
        path = os.path.join(out_dir, "design_report.txt")
        return {
            "critical_power_w": _report_value(path, "pump", "critical_power_w"),
            "model_purity": _report_value(path, "biphoton (quadratic model)", "purity"),
        }
    if command == "jsa":
        return _jsa_summary(os.path.join(out_dir, "jsa.csv"))
    raise ValueError(f"no check for command {command!r}")


def _jsa_summary(path, subgrid=8):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    values = np.loadtxt(rows[1:], delimiter=",", ndmin=2)  # rows[0] names the columns
    s_axis = np.unique(values[:, 0])
    i_axis = np.unique(values[:, 1])
    amp = (values[:, 2] + 1j * values[:, 3]).reshape(s_axis.size, i_axis.size)
    inten = np.abs(amp) ** 2
    peak = np.unravel_index(np.argmax(inten), inten.shape)
    lam = np.linalg.svd(amp, compute_uv=False) ** 2
    lam /= lam.sum()
    step_s = max(1, s_axis.size // subgrid)
    step_i = max(1, i_axis.size // subgrid)
    return {
        "shape": list(inten.shape),
        "finite": bool(np.all(np.isfinite(amp))),
        "peak_index": [int(peak[0]), int(peak[1])],
        "peak_omega_rad_fs": [float(s_axis[peak[0]]), float(i_axis[peak[1]])],
        "step_rad_fs": [float(np.mean(np.diff(s_axis))), float(np.mean(np.diff(i_axis)))],
        "norm": float(inten.sum() * np.mean(np.diff(s_axis)) * np.mean(np.diff(i_axis))),
        "purity": float(np.sum(lam**2)),
        "subgrid": (inten[::step_s, ::step_i] / inten.max()).round(12).tolist(),
    }


def check(command, preset, seed, summary, reference, tolerance):
    """Problems with one command's summary; seed 0 also meets its reference."""
    ref = reference.get(f"{command}:{preset}")
    if ref is None:
        return [f"no reference for {command} {preset}"]
    tol = tolerance[command]
    problems = []
    if command == "dispersion":
        got, want = summary["zdw_nm"], ref["zdw_nm"]
        if len(got) != len(want):
            return [f"{len(got)} zero-dispersion wavelengths, reference {len(want)}"]
        for g, w in zip(got, want):
            problems += _close("zdw_nm", g, w, abs_=tol["zdw_nm"])
    elif command == "contours":
        if summary["closed_per_power"] != ref["closed_per_power"]:
            problems.append(
                f"closed loops per power {summary['closed_per_power']}, "
                f"reference {ref['closed_per_power']}"
            )
        if len(summary["powers_w"]) != len(ref["powers_w"]):
            return problems + [f"{len(summary['powers_w'])} powers, reference {len(ref['powers_w'])}"]
        for got, want in zip(summary["powers_w"], ref["powers_w"]):
            problems += _close("power_w", got, want, rel=tol["powers_w"])
        extent = summary["loop_extent_rad_fs"]
        if any(b >= a for a, b in zip(extent, extent[1:])):
            problems.append(f"loops do not shrink with power: pump extents {extent}")
    elif command == "spectrum":
        problems += _close("fwhm_nm", summary["fwhm_nm"], ref["fwhm_nm"], rel=tol["fwhm_nm"])
    elif command == "design-report":
        problems += _close(
            "critical_power_w", summary["critical_power_w"], ref["critical_power_w"],
            rel=tol["critical_power_w"],
        )
        purity = summary["model_purity"]
        if not 0.0 < purity <= 1.0:
            problems.append(f"model purity {purity!r} outside (0, 1]")
        if seed == 0:
            problems += _close("model_purity", purity, ref["model_purity"], abs_=tol["model_purity"])
    elif command == "jsa":
        problems += _check_jsa(summary, ref if seed == 0 else None, tol)
    return problems


def _check_jsa(got, ref, tol):
    if not got["finite"]:
        return ["JSA has non-finite amplitudes"]
    problems = []
    rows, cols = got["shape"]
    pm, pn = got["peak_index"]
    if not (0 < pm < rows - 1 and 0 < pn < cols - 1):
        problems.append(f"JSA peak {got['peak_index']} on the grid border")
    problems += _close("jsa norm", got["norm"], 1.0, abs_=tol["norm"])
    if not 0.0 < got["purity"] <= 1.0:
        problems.append(f"JSA purity {got['purity']!r} outside (0, 1]")
    if ref is None:
        return problems
    if got["shape"] != ref["shape"]:
        return problems + [f"JSA shape {got['shape']}, reference {ref['shape']}"]
    for axis in (0, 1):
        problems += _close(
            f"peak omega[{axis}]", got["peak_omega_rad_fs"][axis], ref["peak_omega_rad_fs"][axis],
            abs_=tol["peak_cells"] * ref["step_rad_fs"][axis],
        )
    problems += _close("JSA purity", got["purity"], ref["purity"], abs_=tol["purity"])
    diff = np.max(np.abs(np.array(got["subgrid"]) - np.array(ref["subgrid"])))
    if not diff <= tol["subgrid_of_peak"]:
        problems.append(
            f"|F|^2 subgrid differs from reference by {diff:.3g} of the peak "
            f"(tolerance {tol['subgrid_of_peak']:.3g})"
        )
    return problems
