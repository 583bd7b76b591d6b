"""End-to-end runs of the command-line interface on small grids."""

import errno
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sfwm
from sfwm import cli
from sfwm.biphoton import JsaGrid, jsa_numeric
from sfwm.cli import _jsa_rows, _write, main
from sfwm.config import load_preset, working_point
from sfwm.dispersion import find_fgvm_points
from sfwm.phasematching import critical_power, delta_k_cw

from oracles import jsa_csv_rows_per_cell

TINY = """
[fiber]
core = scaled:silica:0.0274
cladding = silica
radius_um = 1.644
length_m = 0.5
gamma_w_km = 70.0

[pump]
wavelength_nm = auto-gvm
fwhm_nm = 2.0
power_w = auto-critical:0.5

[grids]
window_nm = 1400 1700
map_points = 64
detuning_max_rad_fs = 0.08
spectrum_points = 301
jsa_points = 32
jsa_span_rad_fs = 0.01
"""


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def _run(args):
    return main(args)


def _data_lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_dispersion_outputs(tiny_cfg, tmp_path, capsys):
    assert _run(["dispersion", "--config", tiny_cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "zero-dispersion wavelengths" in out
    csv = tmp_path / "dispersion.csv"
    header = [ln for ln in csv.read_text().splitlines() if ln.startswith("#")]
    assert header[0] == "# sfwm dispersion"
    assert any(ln.startswith("# fiber.core = scaled:silica") for ln in header)
    rows = _data_lines(csv)
    assert rows[0].startswith("omega_rad_fs,")
    assert len(rows) == 1 + 64
    # One match, listed once; the zero-dispersion wavelengths go in the header
    # as stdout prints them.
    zdws = next(ln for ln in out.splitlines() if ln.startswith("zero-dispersion")).split(": ")[1]
    assert len(zdws.split()) == 2
    assert f"\n# zero_dispersion_nm = {zdws}\n" in (tmp_path / "fgvm_points.csv").read_text()
    matches = _data_lines(tmp_path / "fgvm_points.csv")
    assert matches[0] == "omega_p_rad_fs,delta_rad_fs,pump_nm,signal_nm,idler_nm"
    assert len(matches) == 1 + 1 and float(matches[1].split(",")[1]) > 0


def test_dispersion_without_zero_dispersion_wavelength(tmp_path, capsys):
    # 1000-1200 nm lies below the strand's zero-dispersion wavelengths.
    cfg = tmp_path / "normal.cfg"
    cfg.write_text(TINY.replace("window_nm = 1400 1700", "window_nm = 1000 1200"))
    assert _run(["dispersion", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "zero-dispersion wavelengths (nm): none\n" in capsys.readouterr().out
    assert "\n# zero_dispersion_nm = none\n" in (tmp_path / "fgvm_points.csv").read_text()


def test_contours_outputs(tiny_cfg, tmp_path, capsys):
    assert _run(["contours", "--config", tiny_cfg, "--out", str(tmp_path)]) == 0
    assert "contour(s)" in capsys.readouterr().out
    rows = _data_lines(tmp_path / "contours.csv")
    assert rows[0] == "power_w,contour_index,closed,omega_p_rad_fs,delta_rad_fs"
    assert len(rows) > 10


def test_coarse_contour_map_counts_each_loop_once(tmp_path, capsys):
    # On a 16^2 map fig2b's traced loops at 0.9 P* are coarse polygons; read
    # before their vertices were polished, their chords missed the match and
    # seeding added a twin of each.  At 7 (0.4 P*) and 12 (0.9 P*) points a
    # loop is a 4-vertex polygon about one grid point that still misses the
    # match; it lies in seeding's box, so it counts as the match's loop.  A
    # map needs 3 points a side: a 2x2 map, and seeding's local map of its
    # size, holds no loop.
    preset = (Path(sfwm.__file__).parent / "presets" / "fig2b.cfg").read_text()
    cfg = tmp_path / "coarse.cfg"
    for points in (7, 12, 16):
        cfg.write_text(preset.replace("map_points = 256", f"map_points = {points}"))
        assert _run(["contours", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        counts = [re.search(r": (\d+) contour\(s\), (\d+) closed", ln).groups() for ln in lines]
        assert counts == [("2", "2")] * 5, points
    cfg.write_text(preset.replace("map_points = 256", "map_points = 2"))
    assert _run(["contours", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: grids.map_points must be >= 3, got 2\n"


def test_coarse_map_traces_each_loop_of_the_pair(profile_1644, tmp_path, capsys):
    # At 0.1 P* and 6, 8 or 10 points a side, no detuning row falls in the gap between fig2b's
    # +delta and -delta loops, so a map over both halves traced one polygon around both matches.
    # The map of delta >= 0 has the row delta = 0, where delta_k = -2 gamma P < 0, so it closes the
    # +delta loop there; its mirror is the -delta loop, each winds about its own match and not the
    # other, and nothing is seeded.
    preset = (Path(sfwm.__file__).parent / "presets" / "fig2b.cfg").read_text()
    (match,) = find_fgvm_points(profile_1644)
    centres = [(match.omega_p, match.delta), (match.omega_p, -match.delta)]

    def winds(points, centre):
        z = (points[:, 0] - centre[0]) + 1j * (points[:, 1] - centre[1])
        return abs(np.angle(np.roll(z, -1) / z).sum()) > np.pi

    cfg = tmp_path / "joined.cfg"
    for points in (6, 8, 10):
        cfg.write_text(preset.replace("map_points = 256", f"map_points = {points}"))
        assert _run(["contours", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "P = 0.0949624874 W: 2 contour(s), 2 closed", points
        rows = np.array([r.split(",") for r in _data_lines(tmp_path / "contours.csv")[1:]], float)
        rows = rows[(rows[:, 0] == rows[0, 0]) & (rows[:, 2] == 1.0)]
        loops = [rows[rows[:, 1] == i, 3:] for i in np.unique(rows[:, 1])]
        for own, other in (centres, centres[::-1]):
            assert any(winds(p, own) and not winds(p, other) for p in loops), (points, own)


def test_contours_mirror_every_row_below_delta_0(tmp_path, capsys):
    # fig2b at its preset map and powers: each delta < 0 row of contours.csv is, to the character,
    # a +delta row of the same power with delta's sign flipped, and each +delta row has one.
    assert _run(["contours", "--preset", "fig2b", "--out", str(tmp_path)]) == 0
    counts = [ln.split(" W: ")[1] for ln in capsys.readouterr().out.splitlines()]
    assert counts == ["2 contour(s), 2 closed"] * 5
    rows = [r.split(",") for r in _data_lines(tmp_path / "contours.csv")[1:]]
    lower = sorted((p, op, d[1:]) for p, _, _, op, d in rows if d.startswith("-"))
    upper = sorted((p, op, d) for p, _, _, op, d in rows if not d.startswith("-"))
    assert lower == upper and 2 * len(lower) == len(rows)


@pytest.mark.parametrize("name, points, note, vertices", [
    pytest.param("fig2b", 256, "", 486, id="fig2b-256"),
    pytest.param("fig4", 4, ", 1 seeded", 12, id="fig4-4"),
    pytest.param("fig4", 9, ", 1 seeded", 30, id="fig4-9"),
])
def test_contours_at_zero_power_trace_one_loop(name, points, note, vertices, tmp_path, capsys):
    # At P = 0 the loop crosses delta = 0 at its zero-dispersion pumps; the half traced on
    # delta > 0 and its mirror make one closed loop.  fig4's 4- and 9-point maps trace none, and
    # the seed's box, traced the same way, supplies it.
    preset = (Path(sfwm.__file__).parent / "presets" / f"{name}.cfg").read_text()
    text = re.sub(r"(powers_w|map_points) = .*\n", "", preset)
    text = text.replace("[pump]", "[pump]\npowers_w = 0 auto-critical:0.10")
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(text.replace("[grids]", f"[grids]\nmap_points = {points}"))
    assert _run(["contours", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"P = 0 W: 1 contour(s), 1 closed{note}"
    rows = np.array([r.split(",") for r in _data_lines(tmp_path / "contours.csv")[1:]], float)
    assert rows[rows[:, 0] == 0.0].shape == (vertices, 5)


def test_contours_seed_the_loops_a_coarse_map_misses(profile_1644, tmp_path, capsys):
    # At 0.9999 P* fig2b's loops span 0.62 steps of its 256^2 map, which
    # traces none of them; the loops seeded around the match agree with the
    # ellipse of the mismatch's Hessian there and with a 1024^2 map's loops.
    preset = (Path(sfwm.__file__).parent / "presets" / "fig2b.cfg").read_text()
    near = re.sub(r"powers_w = .*", "powers_w = auto-critical:0.9999", preset)
    extent = {}
    for points in (256, 1024):
        cfg, out = tmp_path / f"near{points}.cfg", tmp_path / str(points)
        cfg.write_text(near.replace("map_points = 256", f"map_points = {points}"))
        assert _run(["contours", "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.array([r.split(",") for r in _data_lines(out / "contours.csv")[1:]], float)
        assert set(rows[:, 1]) == {0.0, 1.0} and np.all(rows[:, 2] == 1.0)
        extent[points] = [np.ptp(rows[rows[:, 1] == i, 4]) for i in (0.0, 1.0)]
    assert capsys.readouterr().out.splitlines() == [
        "P = 0.949529911 W: 2 contour(s), 2 closed, 2 seeded",
        "P = 0.949529911 W: 2 contour(s), 2 closed",
    ]
    # The ellipse dk0 + x^T H x / 2 = 0, H by central differences of the mismatch.
    match = min(find_fgvm_points(profile_1644), key=lambda p: p.delta)
    power = 0.9999 * critical_power(profile_1644, match.omega_p, match.delta, 70.0)

    def dk(dp, dd):
        return delta_k_cw(profile_1644, match.omega_p + dp, match.delta + dd, 70.0, power)

    e = 2e-3
    h_pp, h_dd = ((dk(e, 0) - 2 * dk(0, 0) + dk(-e, 0)) / e**2,
                  (dk(0, e) - 2 * dk(0, 0) + dk(0, -e)) / e**2)
    h_pd = (dk(e, e) - dk(e, -e) - dk(-e, e) + dk(-e, -e)) / (4 * e**2)
    ellipse = 2.0 * np.sqrt(-2.0 * dk(0, 0) * h_pp / (h_pp * h_dd - h_pd**2))
    assert extent[256] == pytest.approx([ellipse] * 2, rel=0.02)
    assert np.abs(np.subtract(extent[256], extent[1024])).max() <= 0.24 / 1023


def test_spectrum_outputs(tiny_cfg, tmp_path, capsys):
    assert _run(["spectrum", "--config", tiny_cfg, "--out", str(tmp_path)]) == 0
    assert "FWHM" in capsys.readouterr().out
    rows = _data_lines(tmp_path / "spectrum.csv")
    assert len(rows) == 1 + 301


def test_spectrum_width_does_not_depend_on_spectrum_points(tmp_path, capsys):
    # fig4 is above half maximum in one 0.0055 rad/fs band on each side of the
    # pump; the width comes from the roots, not from the samples.
    preset = (Path(sfwm.__file__).parent / "presets" / "fig4.cfg").read_text()
    runs = []
    for points in (301, 2001):
        cfg = tmp_path / f"fig4_{points}.cfg"
        cfg.write_text(preset.replace("spectrum_points = 2001", f"spectrum_points = {points}"))
        out = tmp_path / str(points)
        assert _run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        widths = [_header_value(out / "spectrum.csv", key) for key in ("fwhm_rad_fs", "fwhm_nm")]
        runs.append((widths, capsys.readouterr().out))
    assert runs[0] == runs[1]
    (width, width_nm), stdout = runs[0]
    for points in (301, 2001):
        edges = _header_value(tmp_path / str(points) / "spectrum.csv", "half_max_edges_rad_fs")
        assert edges == "0.102386477 0.107864829"
    assert (width, width_nm) == ("0.215729657", "45.2908968")
    assert float(width) == pytest.approx(2.0 * float(edges.split()[-1]), rel=1e-8)
    assert stdout == "singles spectrum FWHM: 0.215729657 rad/fs (45.2908968 nm)\n"


def test_design_report_builds_no_spectrum(monkeypatch, tmp_path, capsys):
    # Its width is the same root-based one `spectrum` prints, with no sampled spectrum.
    def no_spectrum(*args, **kwargs):
        raise AssertionError("design-report called singles_spectrum")

    monkeypatch.setattr(cli, "singles_spectrum", no_spectrum)
    assert _run(["design-report", "--preset", "fig1", "--out", str(tmp_path)]) == 0
    assert (
        "singles spectrum\n  fwhm_rad_fs = 0.506432798\n  fwhm_nm = 692.526076\n"
        "  half_max_edges_rad_fs = 0.129520904 0.253216399\nbiphoton"
    ) in (tmp_path / "design_report.txt").read_text()


def _check_pump_rule_lines(header):
    """The pump quadrature's header lines: points, drift and truncation bound."""
    rule = dict(ln[2:].split(" = ") for ln in header if ln.startswith("# pump_rule_"))
    assert list(rule) == ["pump_rule_points", "pump_rule_drift", "pump_rule_truncation"]
    assert int(rule["pump_rule_points"]) >= 9
    assert 0.0 <= float(rule["pump_rule_drift"]) <= 1e-6
    assert float(rule["pump_rule_truncation"]) == pytest.approx(1.97317529e-09)


def test_jsa_outputs(tiny_cfg, tmp_path, capsys):
    assert _run(["jsa", "--config", tiny_cfg, "--out", str(tmp_path)]) == 0
    assert "intensity peak" in capsys.readouterr().out
    csv = tmp_path / "jsa.csv"
    header = [ln for ln in csv.read_text().splitlines() if ln.startswith("#")]
    assert any("resolved.signal_center_nm" in ln for ln in header)
    assert [ln for ln in header if ln.startswith("# border_mass = ")]
    _check_pump_rule_lines(header)
    assert len(_data_lines(csv)) == 1 + 32 * 32


def test_purity_outputs(tiny_cfg, tmp_path):
    assert _run(["purity", "--config", tiny_cfg, "--out", str(tmp_path)]) == 0
    body = _data_lines(tmp_path / "purity.txt")
    purity = float(body[0].split("=")[1])
    assert 0.0 < purity <= 1.0
    assert body[1].startswith("schmidt_number =")
    assert body[2] == "grid_points = 32"  # TINY's jsa_points
    assert 0.0 <= float(body[3].removeprefix("border_mass = ")) < 1.0
    text = (tmp_path / "purity.txt").read_text().splitlines()
    _check_pump_rule_lines([ln for ln in text if ln.startswith("#")])


def test_design_report_outputs(tiny_cfg, tmp_path, capsys):
    assert _run(["design-report", "--config", tiny_cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "design_report.txt").read_text()
    for needle in ("fibre", "dispersion", "pump", "working point", "purity ="):
        assert needle in text
    assert "critical_power_w" in text
    assert "  approximate_materials = none\n" in text
    assert "  fit_phase_error_rad = " in text


def test_design_report_without_pump_power(tmp_path, capsys):
    # No modulation-instability sidebands at P = 0: the report says so and still exits 0.
    preset = (Path(sfwm.__file__).parent / "presets" / "fig3.cfg").read_text()
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(preset.replace("power_w = auto-critical", "power_w = 0"))
    assert _run(["design-report", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "  power_w = 0\n  mi_sideband_rad_fs = none\n" in capsys.readouterr().out


def test_design_report_runs_no_svd(monkeypatch, tmp_path, capsys):
    # The model purity comes from heralded_purity's Gram sums, not singular values.
    def no_svd(*args, **kwargs):
        raise AssertionError("design-report called numpy.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert _run(["design-report", "--preset", "fig4", "--out", str(tmp_path)]) == 0
    assert "  purity = 0.838658488\n" in (tmp_path / "design_report.txt").read_text()


def test_approximate_material_named(tmp_path, capsys):
    # fig4's bismuth borate core is a reconstruction, not a measured fit.
    assert _run(["dispersion", "--preset", "fig4", "--out", str(tmp_path)]) == 0
    assert "approximate material models: bismuth_borate" in capsys.readouterr().out
    for name in ("dispersion.csv", "fgvm_points.csv"):
        assert "# approximate_materials = bismuth_borate\n" in (tmp_path / name).read_text()
    assert _run(["design-report", "--preset", "fig4", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "design_report.txt").read_text()
    assert "  approximate_materials = bismuth_borate\n" in text


@pytest.mark.parametrize(
    "command", ["dispersion", "contours", "spectrum", "jsa", "purity", "design-report"]
)
def test_reruns_are_byte_identical(command, tiny_cfg, tmp_path, capsys):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run([command, "--config", tiny_cfg, "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((files, capsys.readouterr().out))
    assert runs[0][0]
    assert runs[0] == runs[1]


def _synthetic_jsa(n_s, n_i, seed=0):
    rng = np.random.default_rng(seed)
    amplitude = rng.standard_normal((n_s, n_i)) + 1j * rng.standard_normal((n_s, n_i))
    return JsaGrid(np.linspace(1.20, 1.23, n_s), np.linspace(1.30, 1.34, n_i), amplitude)


def _preset_jsa(request, name, fixture):
    profile = request.getfixturevalue(fixture)
    config = load_preset(name)
    wp = working_point(config, profile)
    axes = wp.axes(profile, config.jsa_span, config.jsa_points)
    return jsa_numeric(profile, wp.pump, *axes, config.length_nm, gamma=config.gamma)


def _edge_values_jsa():
    # Signed zeros, subnormals, the largest exponents and negative parts.
    values = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, -1.5, 0.1, 123456789.5])
    amplitude = np.empty((values.size, values.size), dtype=complex)
    amplitude.real, amplitude.imag = values[:, np.newaxis], values[np.newaxis, ::-1]
    return JsaGrid(np.linspace(-0.5, 0.5, 9), np.linspace(2.0, 0.4, 9), amplitude)


@pytest.mark.parametrize("grid", ["fig3", "fig4", "unequal", "edge_values"])
def test_jsa_rows_match_per_cell_oracle(grid, request):
    jsa = {
        "fig3": lambda: _preset_jsa(request, "fig3", "profile_1644"),
        "fig4": lambda: _preset_jsa(request, "fig4", "profile_bismuth"),
        "unequal": lambda: _synthetic_jsa(13, 17),
        "edge_values": _edge_values_jsa,
    }[grid]()
    want = jsa_csv_rows_per_cell(jsa)
    assert len(want) == jsa.amplitude.size
    assert "\n".join(_jsa_rows(jsa)) == "\n".join(want)


def test_jsa_writer_streams(tmp_path):
    # The writer holds one signal row's text at a time, not the 3 MB grid.
    jsa = _synthetic_jsa(256, 256)
    tracemalloc.start()
    try:
        _write(SimpleNamespace(out=str(tmp_path)), "jsa.csv", _jsa_rows(jsa))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "jsa.csv").stat().st_size > 2_000_000
    assert peak <= 2_000_000


def test_write_failure_leaves_no_temporary_file(tmp_path):
    args = SimpleNamespace(out=str(tmp_path))
    _write(args, "spectrum.csv", ["# earlier", "1,2,3"])
    before = (tmp_path / "spectrum.csv").read_bytes()

    def lines():
        yield "# sfwm spectrum"
        yield "4,5,6"
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError) as err:
        _write(args, "spectrum.csv", lines())
    assert err.value.errno == errno.ENOSPC
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv"]
    assert (tmp_path / "spectrum.csv").read_bytes() == before


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_flags_rejected(flag, tiny_cfg, tmp_path):
    with pytest.raises(SystemExit) as err:
        _run(["spectrum", "--config", tiny_cfg, "--out", str(tmp_path), flag, "1"])
    assert err.value.code == 2


def _header_value(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(f"# resolved.{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key} not echoed in {path}")


def test_pasted_critical_power_matches_auto_critical(tmp_path):
    # The echoed P* is rounded to 9 digits; pasted back as watts it must
    # still select the collapsed loop's match, like auto-critical does.
    auto = tmp_path / "auto.cfg"
    auto.write_text(TINY.replace("auto-critical:0.5", "auto-critical"))
    assert _run(["design-report", "--config", str(auto), "--out", str(tmp_path / "a")]) == 0
    report = tmp_path / "a" / "design_report.txt"
    p_star = _header_value(report, "critical_power_w")
    pasted = tmp_path / "pasted.cfg"
    pasted.write_text(TINY.replace("auto-critical:0.5", p_star))
    assert _run(["design-report", "--config", str(pasted), "--out", str(tmp_path / "b")]) == 0
    delta = _header_value(report, "matched_half_separation_rad_fs")
    assert _header_value(
        tmp_path / "b" / "design_report.txt", "matched_half_separation_rad_fs"
    ) == delta


def test_empty_config_exit_and_message(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert _run(["dispersion", "--config", str(empty), "--out", str(tmp_path)]) == 2
    assert "fiber.core" in capsys.readouterr().err


def test_broken_section_header_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(TINY.replace("[fiber]", "[fiber"))
    assert _run(["dispersion", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: config syntax error: ")


def test_unknown_preset_exits_2(tmp_path, capsys):
    assert _run(["dispersion", "--preset", "fig9", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_missing_config_file_exits_4(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert _run(["dispersion", "--config", missing, "--out", str(tmp_path)]) == 4
    assert "error:" in capsys.readouterr().err


def test_unmatched_pump_exits_3(tiny_cfg, tmp_path, capsys):
    text = TINY.replace("detuning_max_rad_fs = 0.08", "detuning_max_rad_fs = 0.005")
    text = text.replace("power_w = auto-critical:0.5", "power_w = 0.0")
    cfg = tmp_path / "unmatched.cfg"
    cfg.write_text(text)
    assert _run(["jsa", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "no phase-matched" in capsys.readouterr().err


def test_detuning_max_outside_window_exits_2(tmp_path, capsys):
    # omega_p +- 0.6 rad/fs leaves the 1400-1700 nm window: a run-file error,
    # named for its option like contours names it, not a numerical failure.
    cfg = tmp_path / "far.cfg"
    cfg.write_text(TINY.replace("detuning_max_rad_fs = 0.08", "detuning_max_rad_fs = 0.6"))
    for command in ("jsa", "purity", "design-report"):
        assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "grids.detuning_max_rad_fs = 0.6 puts a frequency outside query window" in (
            capsys.readouterr().err
        )
    # The contour map's pump axis, inset by 0.6 rad/fs at both ends, is empty.
    assert _run(["contours", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: grids.detuning_max_rad_fs leaves no pump range inside the window\n"
    )


def test_jsa_span_outside_window_exits_2(tmp_path, capsys):
    # fig1's span 0.15 is below delta = 0.200 rad/fs, but the signal axis
    # then ends past the window the proxy answers for.
    cfg = tmp_path / "wide.cfg"
    preset = (Path(sfwm.__file__).parent / "presets" / "fig1.cfg").read_text()
    cfg.write_text(preset + "jsa_span_rad_fs = 0.15\n")
    for command in ("jsa", "purity", "design-report"):
        assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: grids.jsa_span_rad_fs = 0.15 puts a frequency outside query window "
            "[0.768530, 1.491852] rad/fs\n"
        )


def test_pump_wider_than_window_exits_2(tmp_path, capsys):
    # fig3's axes fit the window, but the pump rule's nodes reach S/2 +- 3 sigma
    # past it; design-report and spectrum never run that rule.
    preset = (Path(sfwm.__file__).parent / "presets" / "fig3.cfg").read_text()
    assert "\nfwhm_nm = 1.0\n" in preset
    for fwhm in ("150", "200"):
        cfg = tmp_path / f"wide_pump_{fwhm}.cfg"
        cfg.write_text(preset.replace("\nfwhm_nm = 1.0\n", f"\nfwhm_nm = {fwhm}\n"))
        for command in ("jsa", "purity"):
            assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                f"error: pump.fwhm_nm = {fwhm} puts a frequency outside query window "
                "[0.951969, 1.438820] rad/fs\n"
            )
        for command in ("design-report", "spectrum"):
            assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().err == ""


def test_explicit_pump_outside_window_exits_2(tmp_path, capsys):
    # The pump itself, not a grid built around it, is what leaves the window.
    cfg = tmp_path / "far_pump.cfg"
    text = TINY.replace("wavelength_nm = auto-gvm", "wavelength_nm = 2500")
    text = text.replace("power_w = auto-critical:0.5", "power_w = 0.1")
    cfg.write_text(text.replace("window_nm = 1400 1700", "window_nm = 1300 2000"))
    for command in ("contours", "spectrum", "jsa", "purity", "design-report"):
        assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: pump.wavelength_nm = 2500 lies outside the usable range "
            "1309.16415 to 1978.69102 nm\n"
        )


def test_window_outside_material_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "uv.cfg"
    cfg.write_text(TINY.replace("window_nm = 1400 1700", "window_nm = 100 200"))
    for command in ("dispersion", "spectrum"):
        assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: grids.window_nm = 100 200 leaves a material's range (material "
            "'silica': wavelength outside validity window [210.0, 3710.0] nm)\n"
        )


def test_out_defaults_to_the_working_directory(tiny_cfg, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(["spectrum", "--config", tiny_cfg]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv"]


def test_jsa_band_reaching_the_pump_exits_2(tmp_path, capsys):
    # In the wider window the matched pair sits at delta = 0.076 rad/fs, so a
    # 0.1 rad/fs span would put both bands across the pump.
    cfg = tmp_path / "wide.cfg"
    text = TINY.replace("window_nm = 1400 1700", "window_nm = 1300 2000")
    cfg.write_text(text.replace("jsa_span_rad_fs = 0.01", "jsa_span_rad_fs = 0.1"))
    for command in ("jsa", "purity", "design-report"):
        assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "the span limit is the matched half-separation delta = 0.07" in (
            capsys.readouterr().err
        )


def test_negative_critical_power_exits_3(tmp_path, capsys):
    # A 1.66 um strand's only nondegenerate match has P* < 0: auto-critical
    # runs stop with the value, and dispersion prints no negative power.
    preset = Path(sfwm.__file__).parent / "presets" / "fig1.cfg"
    cfg = tmp_path / "r166.cfg"
    cfg.write_text(preset.read_text().replace("radius_um = 1.652", "radius_um = 1.66"))
    for command in ("spectrum", "jsa", "design-report"):
        assert _run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "critical power -54.3957405 W" in capsys.readouterr().err
    assert _run(["dispersion", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "critical power none" in out and "critical power -" not in out


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("length_m = 0.5", "length_m = nan", "fiber.length_m"),
        ("gamma_w_km = 70.0", "gamma_w_km = nan", "fiber.gamma_w_km"),
        ("power_w = auto-critical:0.5", "power_w = inf", "pump.power_w"),
        ("power_w = auto-critical:0.5", "power_w = auto-critical:nan", "pump.power_w"),
        ("wavelength_nm = auto-gvm", "wavelength_nm = inf", "pump.wavelength_nm"),
        ("fwhm_nm = 2.0", "fwhm_nm = inf", "pump.fwhm_nm"),
        ("jsa_span_rad_fs = 0.01", "jsa_span_rad_fs = nan", "grids.jsa_span_rad_fs"),
        ("window_nm = 1400 1700", "window_nm = 450 inf", "grids.window_nm"),
    ],
)
def test_non_finite_numbers_exit_2(old, new, key, tmp_path, capsys):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(TINY.replace(old, new))
    assert _run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


def test_non_boolean_approximate_flag_exits_2(tmp_path, capsys):
    material = "[material glass2]\nb = 1.0\nc = 0.01\nrange_nm = 400 2200\n"
    cfg = tmp_path / "flag.cfg"
    cfg.write_text(material + "approximate = maybe\n" + TINY)
    assert _run(["dispersion", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "material glass2.approximate must be true or false" in capsys.readouterr().err


def test_run_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TINY.encode() + b"# caf\xe9\n")
    assert _run(["dispersion", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{cfg} is not UTF-8 text" in capsys.readouterr().err


def test_proxy_over_phase_budget_exits_3(tmp_path, capsys):
    # The chopped tail of the proxy is ~1e-17 rad/nm; over 1e9 m it is more
    # phase than the budget allows.
    cfg = tmp_path / "long.cfg"
    cfg.write_text(TINY.replace("length_m = 0.5", "length_m = 1e9"))
    assert _run(["dispersion", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "phase budget of 0.001 rad" in capsys.readouterr().err


def test_config_and_preset_are_exclusive(tiny_cfg, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        _run(["spectrum", "--config", tiny_cfg, "--preset", "fig3"])
    assert err.value.code == 2


def test_console_entry_point():
    # The child imports the same sources as this process, installed or not.
    src = os.path.dirname(os.path.dirname(sfwm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "sfwm.cli", "--version"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert "sfwm" in result.stdout


def test_version_matches_pyproject():
    # Result headers and --version print sfwm.__version__; the package
    # metadata must say the same.  Read without tomllib, which Python 3.10 lacks.
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = pyproject.read_text(encoding="utf-8").split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "(.*)"$', project, re.M) == [sfwm.__version__]


def test_cli_import_leaves_out_scipy():
    # Root searches run on numpy polynomials or by bisection and the Bessel
    # and Faddeeva functions are numpy quadratures, so a CLI process loads
    # no scipy module at all.
    src = os.path.dirname(os.path.dirname(sfwm.__file__))
    code = (
        "import sys, sfwm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_commands_load_neither_numpy_ma_nor_scipy(tmp_path):
    # Distinct values come from a sort and a neighbour comparison, not from
    # np.unique, which imports numpy.ma on first use (~1 MB).  Whole names are
    # matched: numpy.matrixlib is always loaded.
    src = os.path.dirname(os.path.dirname(sfwm.__file__))
    runs = [[name, "--preset", "fig4"] for name in
            ("dispersion", "contours", "spectrum", "design-report", "jsa", "purity")]
    runs.append(["contours", "--preset", "fig2b"])
    code = (
        "import contextlib, io, sys\n"
        "from sfwm.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main(argv + ['--out', {str(tmp_path)!r}]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')"
        " or m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_benchmark_hooks_find_every_target():
    # perfbench/trace_cmd.py patches library names given as strings; one that
    # no longer resolves reads as a missing per-layer metric.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cmd.py"
    spec = importlib.util.spec_from_file_location("trace_cmd", path)
    trace_cmd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cmd)
    undo, missing = trace_cmd.install(trace_cmd.Recorder())
    try:
        assert missing == []
    finally:
        for ns, key, original in undo:
            setattr(ns, key, original)
    assert "nodes" in inspect.signature(sfwm.biphoton.jsa_numeric).parameters
