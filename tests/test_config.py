"""Run-file parsing, validation order, presets and pump resolution."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfwm.biphoton import PumpSpec
from sfwm.config import (
    PowerSetting,
    available_presets,
    load_preset,
    parse_config,
    resolve_pump,
    working_point,
)
from sfwm.errors import ConfigError, EvaluationError
from sfwm.materials import ConstantIndex, ScaledIndex, SellmeierModel
from sfwm.phasematching import delta_k_cw
from sfwm.units import nonlinear_mismatch

from oracles import proxy_mismatch_root

MINIMAL = """
[fiber]
core = scaled:silica:0.0274
cladding = silica
radius_um = 1.644
length_m = 0.5
gamma_w_km = 70.0

[pump]
wavelength_nm = auto-gvm
fwhm_nm = 2.0
power_w = auto-critical

[grids]
window_nm = 1300 2000
"""


def test_minimal_round_trip():
    config = parse_config(MINIMAL)
    assert config.core == "scaled:silica:0.0274"
    assert config.radius_um == 1.644
    assert config.length_nm == 5e8
    assert config.gamma == 70.0
    assert config.pump_wavelength is None
    assert config.pump_power.critical_fraction == 1.0
    assert config.pump_powers == (config.pump_power,)
    assert config.window_nm == (1300.0, 2000.0)


def test_defaults_applied():
    config = parse_config(MINIMAL)
    assert config.map_points == 256
    assert config.detuning_max == 0.1
    assert config.spectrum_points == 2001
    assert config.jsa_points == 256
    assert config.jsa_span == 0.03


def test_fiber_materials_resolve():
    fiber = parse_config(MINIMAL).fiber()
    assert isinstance(fiber.core, ScaledIndex)
    assert fiber.core.contrast == 0.0274
    assert fiber.cladding.name == "silica"


@pytest.mark.parametrize(
    "cut,first_missing",
    [
        ("", "fiber.core"),
        ("[fiber]\ncladding = silica\n", "fiber.core"),
        (MINIMAL.split("[pump]")[0], "pump.wavelength_nm"),
        (MINIMAL.split("[grids]")[0], "grids.window_nm"),
    ],
)
def test_first_missing_field_named(cut, first_missing):
    with pytest.raises(ConfigError, match=first_missing.replace(".", r"\.")):
        parse_config(cut)


def test_missing_core_reported_before_later_gaps():
    text = MINIMAL.replace("core = scaled:silica:0.0274\n", "").replace(
        "fwhm_nm = 2.0\n", ""
    )
    with pytest.raises(ConfigError, match=r"fiber\.core"):
        parse_config(text)


def test_empty_value_counts_as_missing():
    text = MINIMAL.replace("radius_um = 1.644", "radius_um =")
    with pytest.raises(ConfigError, match=r"fiber\.radius_um"):
        parse_config(text)


@pytest.mark.parametrize(
    "field,bad",
    [
        ("radius_um = 1.644", "radius_um = -1"),
        ("length_m = 0.5", "length_m = 0"),
        ("gamma_w_km = 70.0", "gamma_w_km = -3"),
        ("fwhm_nm = 2.0", "fwhm_nm = 0"),
        ("window_nm = 1300 2000", "window_nm = 2000 1300"),
        ("window_nm = 1300 2000", "window_nm = 1300"),
        ("radius_um = 1.644", "radius_um = wide"),
        ("power_w = auto-critical", "power_w = auto-critical\npowers_w = 0.1 lots"),
        ("power_w = auto-critical", "power_w = auto-critical\npowers_w ="),
        ("window_nm = 1300 2000", "window_nm = 1300 2000\nmap_points = 1"),
        ("window_nm = 1300 2000", "window_nm = 1300 2000\ndetuning_max_rad_fs = 0"),
        ("window_nm = 1300 2000", "window_nm = 1300 2000\nspectrum_points = x"),
        ("window_nm = 1300 2000", "window_nm = 1300 2000\njsa_points = 1.5"),
        ("window_nm = 1300 2000", "window_nm = 1300 2000\njsa_span_rad_fs = -0.1"),
    ],
)
def test_bad_values_rejected(field, bad):
    option = bad.splitlines()[-1].split(" =")[0]
    with pytest.raises(ConfigError, match=rf"\.{option} must"):
        parse_config(MINIMAL.replace(field, bad))


def test_count_minimums():
    # The FWHM of a spectrum needs three samples, and so does a contour map:
    # a 2x2 map (or seeding's local map of its size) holds no loop.  The JSA
    # grid needs two.
    grids = MINIMAL + "map_points = 3\njsa_points = 2\nspectrum_points = 3\n"
    config = parse_config(grids)
    assert (config.map_points, config.jsa_points, config.spectrum_points) == (3, 2, 3)
    for option in ("spectrum_points", "map_points"):
        with pytest.raises(ConfigError, match=rf"grids\.{option} must be >= 3, got 2"):
            parse_config(grids.replace(f"{option} = 3", f"{option} = 2"))


def test_unknown_section_rejected():
    # --out alone sets the output directory; [outputs] is no section.
    for section in ("[typo]\nx = 1", "[outputs]\ndirectory = out"):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(MINIMAL + f"\n{section}\n")


@pytest.mark.parametrize(
    "section,line",
    [
        ("fiber", "lenght_m = 2"),
        ("pump", "power = 1.0"),
        ("grids", "jsa_point = 64"),
        ("grids", "jsa_nodes = 201"),
        ("grids", "samples = 60"),
        ("grids", "degree = 10"),
        ("grids", "purity_points = 512"),
    ],
)
def test_unknown_option_rejected(section, line):
    text = MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    if f"[{section}]" not in MINIMAL:
        text += f"\n[{section}]\n{line}\n"
    option = line.split()[0]
    with pytest.raises(ConfigError, match=rf"unknown config option {section}\.{option}"):
        parse_config(text)


def test_power_setting_forms():
    assert PowerSetting(watts=0.5).resolved(None) == 0.5
    auto = parse_config(MINIMAL.replace("auto-critical", "auto-critical:0.4"))
    assert auto.pump_power.critical_fraction == 0.4
    assert auto.pump_power.resolved(2.0) == pytest.approx(0.8)
    fixed = parse_config(MINIMAL.replace("auto-critical", "1.25"))
    assert fixed.pump_power.watts == 1.25
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("auto-critical", "-0.1"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("auto-critical", "lots"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("auto-critical", "auto-critical:-2"))


def test_power_list_parsed():
    text = MINIMAL.replace(
        "power_w = auto-critical",
        "power_w = auto-critical\npowers_w = 0.1 auto-critical:0.9 2.5",
    )
    config = parse_config(text)
    assert len(config.pump_powers) == 3
    assert config.pump_powers[0].watts == 0.1
    assert config.pump_powers[1].critical_fraction == 0.9


def test_power_list_takes_commas():
    text = MINIMAL.replace(
        "power_w = auto-critical", "power_w = auto-critical\npowers_w = 0.1, 0.2"
    )
    assert [p.watts for p in parse_config(text).pump_powers] == [0.1, 0.2]


def test_wavelength_setting_forms():
    explicit = parse_config(MINIMAL.replace("auto-gvm", "1552.5"))
    assert explicit.pump_wavelength == 1552.5
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("auto-gvm", "0"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("auto-gvm", "somewhere"))


CUSTOM_MATERIALS = """
[material glass2]
kind = sellmeier
b = 1.0
c = 0.01
range_nm = 400 2200

[material lowclad]
kind = constant
value = 1.40

[fiber]
core = glass2
cladding = lowclad
radius_um = 1.0
length_m = 0.5
gamma_w_km = 10.0

[pump]
wavelength_nm = 1000
fwhm_nm = 1.0
power_w = 0.0

[grids]
window_nm = 700 1500
"""


def test_custom_material_sections():
    config = parse_config(CUSTOM_MATERIALS)
    assert set(config.materials) == {"glass2", "lowclad"}
    assert isinstance(config.materials["glass2"], SellmeierModel)
    assert isinstance(config.materials["lowclad"], ConstantIndex)
    fiber = config.fiber()
    assert fiber.core.name == "glass2"
    index = float(fiber.core.index(1000.0))
    assert index == pytest.approx((1 + 1.0 / (1 - 0.01)) ** 0.5, rel=1e-12)


@pytest.mark.parametrize(
    "old,new",
    [
        ("kind = sellmeier", "kind = tabulated"),
        ("b = 1.0", "b = 1.0 2.0"),
        ("range_nm = 400 2200", "range_nm = 2200 400"),
        ("value = 1.40", "value = -1"),
        ("range_nm = 400 2200", "range_nm = 400 2200\napproximate = maybe"),
        ("[material glass2]", "[material]"),
        ("[material glass2]", "[materials glass2]"),
        ("[material lowclad]", "[materialX lowclad]"),
    ],
)
def test_bad_material_sections(old, new):
    with pytest.raises(ConfigError):
        parse_config(CUSTOM_MATERIALS.replace(old, new))


def test_unknown_material_option_rejected():
    with pytest.raises(ConfigError, match=r"unknown config option material glass2\.rang_nm"):
        parse_config(CUSTOM_MATERIALS.replace("range_nm = 400 2200", "rang_nm = 400 2200"))


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("value = 1.40", "value = 1.40\napproximate = true", "lowclad.approximate"),
        ("value = 1.40", "value = 1.40\nb = 1.0\nc = 0.01", "lowclad.b"),
        ("range_nm = 400 2200", "range_nm = 400 2200\nvalue = 1.5", "glass2.value"),
    ],
)
def test_option_of_another_material_kind_rejected(old, new, key):
    # Each kind reads only its own rows: an option of the other kind would
    # otherwise be dropped without a word (a constant index "approximate").
    with pytest.raises(ConfigError, match=rf"unknown config option material {key}$"):
        parse_config(CUSTOM_MATERIALS.replace(old, new))


def test_missing_material_option_named_like_any_other():
    with pytest.raises(ConfigError, match=r"missing required field material glass2\.c$"):
        parse_config(CUSTOM_MATERIALS.replace("c = 0.01\n", ""))


def test_material_defined_twice_rejected():
    # configparser keeps both headers as sections; both name glass2, so the
    # later one would silently replace the earlier.
    text = CUSTOM_MATERIALS + "\n[material  glass2]\nkind = constant\nvalue = 1.3\n"
    both = r"^\[material glass2\] and \[material  glass2\] both define material 'glass2'$"
    with pytest.raises(ConfigError, match=both):
        parse_config(text)


def test_echo_items_spell_out_custom_materials():
    # Two runs whose glass differs only in a Sellmeier term must not share headers.
    echo = parse_config(CUSTOM_MATERIALS).echo_items()
    assert [(k, v) for k, v in echo if k.startswith("material.")] == [
        ("material.glass2.kind", "sellmeier"),
        ("material.glass2.b", "1"),
        ("material.glass2.c", "0.01"),
        ("material.glass2.range_nm", "400 2200"),
        ("material.glass2.approximate", "False"),
        ("material.lowclad.kind", "constant"),
        ("material.lowclad.value", "1.4"),
    ]
    assert parse_config(CUSTOM_MATERIALS.replace("b = 1.0", "b = 1.1")).echo_items() != echo


def test_unknown_core_material_fails_at_parse():
    with pytest.raises(ConfigError, match="unknown material"):
        parse_config(MINIMAL.replace("scaled:silica:0.0274", "unobtainium"))


def test_presets_all_load():
    names = available_presets()
    assert names == ["fig1", "fig2b", "fig3", "fig4"]
    for name in names:
        config = load_preset(name)
        config.fiber()
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("fig9")


def test_fig2b_power_ladder():
    config = load_preset("fig2b")
    fractions = [p.critical_fraction for p in config.pump_powers]
    assert fractions == [0.10, 0.40, 0.70, 0.90, 0.95]


def test_echo_items_ordered_and_complete():
    items = parse_config(MINIMAL).echo_items()
    assert [k for k, _ in items] == [
        "fiber.core",
        "fiber.cladding",
        "fiber.radius_um",
        "fiber.length_m",
        "fiber.gamma_w_km",
        "pump.wavelength_nm",
        "pump.fwhm_nm",
        "pump.power_w",
        "pump.powers_w",
        "grids.window_nm",
        "grids.map_points",
        "grids.detuning_max_rad_fs",
        "grids.spectrum_points",
        "grids.jsa_points",
        "grids.jsa_span_rad_fs",
    ]
    assert dict(items)["pump.wavelength_nm"] == "auto-gvm"
    fixed = parse_config(MINIMAL.replace("auto-gvm", "1550")).echo_items()
    assert dict(fixed)["pump.wavelength_nm"] == "1550"


def test_readme_run_file_parses():
    # The run file README documents, and the defaults its comment states.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    echo = dict(parse_config(block).echo_items())
    comments = "\n".join(ln for ln in block.splitlines() if ln.startswith("#"))
    defaults = re.findall(r"(\w+) = ([\d.]+)", comments)
    assert len(defaults) == 5
    for option, value in defaults:
        assert echo[f"grids.{option}"] == value


@pytest.mark.parametrize("index", [0, 1])
def test_readme_python_examples_run(index, capsys):
    # README's library example and its working-point example, as printed; the library example
    # ends on the loop count its comment states.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    exec(compile(blocks[index], f"README.md python block {index}", "exec"), {})
    out = capsys.readouterr().out.strip()
    assert out
    if index == 0:
        stated = re.search(r"^print\(len\(loops\)\)  # (\d+):", blocks[0], re.M)
        assert stated and out.splitlines()[-1] == stated[1]


def test_resolve_pump_auto_gvm(profile_1644):
    config = parse_config(MINIMAL)
    rp = resolve_pump(config, profile_1644)
    assert rp.lambda_nm == pytest.approx(1552.1032, abs=0.01)
    assert rp.p_star == pytest.approx(0.949625, rel=1e-4)
    assert rp.power == pytest.approx(rp.p_star)
    assert rp.powers == (rp.power,)
    assert rp.gvm is not None and rp.gvm.delta > 0


def test_resolve_pump_fraction_and_fixed(profile_1644):
    config = parse_config(MINIMAL.replace("auto-critical", "auto-critical:0.4"))
    rp = resolve_pump(config, profile_1644)
    assert rp.power == pytest.approx(0.4 * rp.p_star)
    config = parse_config(
        MINIMAL.replace("auto-gvm", "1540").replace("auto-critical", "0.7")
    )
    rp = resolve_pump(config, profile_1644)
    assert rp.lambda_nm == pytest.approx(1540.0)
    assert rp.power == 0.7
    assert rp.p_star is None and rp.gvm is None


def test_resolve_pump_needs_gamma_for_critical(profile_1644):
    config = parse_config(MINIMAL.replace("gamma_w_km = 70.0", "gamma_w_km = 0"))
    with pytest.raises(ConfigError, match="gamma"):
        resolve_pump(config, profile_1644)


def test_resolve_pump_without_match_raises():
    narrow = MINIMAL.replace("window_nm = 1300 2000", "window_nm = 1500 1600")
    narrow = narrow.replace("radius_um = 1.644", "radius_um = 1.652")
    config = parse_config(narrow)
    from sfwm.dispersion import build_profile

    profile = build_profile(config.fiber(), (1500, 1600))
    with pytest.raises(EvaluationError, match="match"):
        resolve_pump(config, profile)


def test_resolve_pump_negative_critical_power_raises():
    # At 1.66 um the only nondegenerate match has a negative linear mismatch:
    # no positive power closes its loop, so auto-critical must not resolve.
    text = MINIMAL.replace("radius_um = 1.644", "radius_um = 1.66")
    config = parse_config(text.replace("window_nm = 1300 2000", "window_nm = 1250 2500"))
    from sfwm.dispersion import build_profile, find_fgvm_points
    from sfwm.phasematching import critical_power

    profile = build_profile(config.fiber(), config.window_nm)
    (gvm,) = find_fgvm_points(profile)
    p_star = critical_power(profile, gvm.omega_p, gvm.delta, config.gamma)
    assert p_star == pytest.approx(-54.3957, rel=1e-5)
    with pytest.raises(EvaluationError, match=r"critical power -54\.39\d+ W .* not positive"):
        resolve_pump(config, profile)
    watts = PowerSetting(watts=1.0)
    fixed = replace(config, pump_power=watts, pump_powers=(watts,))
    assert resolve_pump(fixed, profile).power == 1.0


# ------------------------------------------------------------- working point


def _mismatch(config, profile, wp, delta):
    return float(
        delta_k_cw(profile, wp.pump.omega_p, delta, gamma=config.gamma, power=wp.pump.power)
    )


def _scan_roots(config, profile, wp):
    """Sign changes of the mismatch on a fine grid, independent of the search."""
    grid = np.linspace(1e-3, config.detuning_max, 20001)
    vals = delta_k_cw(profile, wp.pump.omega_p, grid, gamma=config.gamma, power=wp.pump.power)
    return grid[np.nonzero(np.diff(np.sign(vals)) != 0)[0]]


def test_working_point_at_critical_power_is_the_match(profile_1644):
    config = parse_config(MINIMAL)
    wp = working_point(config, profile_1644)
    assert wp.delta == wp.pump.gvm.delta
    assert wp.omega_s == wp.pump.omega_p + wp.delta
    assert wp.omega_i == wp.pump.omega_p - wp.delta
    assert isinstance(wp.pump, PumpSpec)
    s_axis, i_axis = wp.axes(profile_1644, 0.01, 5)
    assert s_axis[2] == pytest.approx(wp.omega_s, abs=1e-15)
    assert i_axis[0] == pytest.approx(wp.omega_i - 0.01, abs=1e-15)
    # P* pasted as watts, off by the worst rounding of a 9-digit echo.
    pasted = MINIMAL.replace("auto-critical", repr(wp.pump.p_star * (1 + 4e-9)))
    assert working_point(parse_config(pasted), profile_1644).delta == wp.delta


def test_working_point_below_critical_takes_root_nearest_match(profile_1644, monkeypatch):
    config = parse_config(MINIMAL.replace("auto-critical", "auto-critical:0.9"))
    wp = working_point(config, profile_1644)
    roots = _scan_roots(config, profile_1644, wp)
    assert roots.size == 2  # the loop crosses the pump line twice
    nearest = min(roots, key=lambda d: abs(d - wp.pump.gvm.delta))
    assert wp.delta == pytest.approx(nearest, abs=1e-5)
    # Root precision: 1e-11 rad/fs times the slope, plus the roundoff of
    # forming 2 k_p - k_s - k_i here from k values of ~6e-3 rad/nm.
    h = 1e-6
    slope = (
        _mismatch(config, profile_1644, wp, wp.delta + h)
        - _mismatch(config, profile_1644, wp, wp.delta - h)
    ) / (2 * h)
    roundoff = 8 * np.finfo(float).eps * float(profile_1644.k_derivative(wp.pump.omega_p, 0))
    assert abs(_mismatch(config, profile_1644, wp, wp.delta)) <= abs(slope) * 1e-11 + roundoff
    # On this loop the outer root is also the nearer one.  Moving the match
    # next to the inner root shows that the choice follows the match.
    moved = replace(wp.pump, gvm=replace(wp.pump.gvm, delta=roots.min() + 1e-3))
    monkeypatch.setattr("sfwm.config.resolve_pump", lambda config, profile: moved)
    assert working_point(config, profile_1644).delta == pytest.approx(roots.min(), abs=1e-5)


def test_working_point_fixed_pump_takes_outermost_root(profile_1644):
    config = parse_config(MINIMAL.replace("auto-gvm", "1540").replace("auto-critical", "0.7"))
    wp = working_point(config, profile_1644)
    assert wp.pump.gvm is None
    roots = _scan_roots(config, profile_1644, wp)
    assert roots.size == 2
    assert wp.delta == pytest.approx(roots.max(), abs=1e-5)


def test_working_point_without_sign_change_raises(profile_1644):
    text = MINIMAL.replace("auto-gvm", "1540").replace("auto-critical", "0.7")
    config = parse_config(text + "detuning_max_rad_fs = 0.03\n")
    with pytest.raises(EvaluationError, match="no phase-matched"):
        working_point(config, profile_1644)


def test_working_point_detuning_below_scan_floor(profile_1644):
    # A window far smaller than the scan step needs no special case: it ends
    # before the loop like any other window without a root.
    text = MINIMAL.replace("auto-gvm", "1540").replace("auto-critical", "0.7")
    config = parse_config(text + "detuning_max_rad_fs = 1e-4\n")
    with pytest.raises(EvaluationError, match="no phase-matched"):
        working_point(config, profile_1644)


@pytest.mark.parametrize(
    "wavelength, power",
    [
        ("auto-gvm", "auto-critical:0.5"),
        ("auto-gvm", "auto-critical:0.9"),
        ("1540", "0.7"),
    ],
)
def test_working_point_matches_oracle_root(profile_1644, wavelength, power):
    text = MINIMAL.replace("auto-gvm", wavelength).replace("auto-critical", power)
    config = parse_config(text)
    wp = working_point(config, profile_1644)
    gp = nonlinear_mismatch(config.gamma, wp.pump.power)
    root = proxy_mismatch_root(profile_1644.fit, wp.pump.omega_p, gp, wp.delta)
    assert wp.delta == pytest.approx(root, rel=1e-12)
