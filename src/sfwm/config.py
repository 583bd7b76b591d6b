"""Run configuration: INI files describing a fibre, a pump and output grids.

A run file has sections [fiber], [pump] and [grids] (plus any number of
custom [material NAME] sections).  The pump wavelength may be the literal
"auto-gvm", which selects the nondegenerate full group-velocity match of the
fibre, and any pump power may be "auto-critical" or "auto-critical:<fraction>",
a multiple of the critical power at that match.  Ready-made presets ship with
the package.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from functools import partial
from importlib import resources

import numpy as np

from .biphoton import PumpSpec
from .dispersion import DispersionProfile, FgvmPoint, Pair, build_profile, find_fgvm_points
from .errors import ConfigError, EvaluationError, RangeError
from .materials import ConstantIndex, SellmeierModel, get_material
from .modes import FiberSpec
from .phasematching import at_critical_power, critical_power, matched_detunings
from .units import omega_from_wavelength, pump_sigma_from_fwhm, wavelength_from_omega

# The most phase, in radians over the fibre, that the dispersion proxy's
# chopped tail (residual x length) may put into L k.
PHASE_BUDGET_RAD = 1e-3


@dataclass(frozen=True)
class PowerSetting:
    """Peak pump power: fixed watts or a fraction of the critical power."""

    watts: float | None = None
    critical_fraction: float | None = None

    @property
    def auto(self) -> bool:
        return self.critical_fraction is not None

    def resolved(self, p_star: float | None) -> float:
        if not self.auto:
            return float(self.watts)
        if p_star is None:
            raise ConfigError("critical-power fractions need a resolvable match")
        return self.critical_fraction * p_star

    def describe(self) -> str:
        if self.auto:
            if self.critical_fraction == 1.0:
                return "auto-critical"
            return f"auto-critical:{self.critical_fraction:.9g}"
        return f"{self.watts:.9g}"


# Readers turn an option's text into its value, or raise a ConfigError that
# names its "section.option" key.
def _number(text: str, key: str, what: str = "a number") -> float:
    """text as a finite float, else a ConfigError naming key."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be {what}, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _positive(text: str, key: str, what: str = "a number") -> float:
    value = _number(text, key, what)
    if value <= 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    return value


def _nonnegative(text: str, key: str, what: str = "a number") -> float:
    value = _number(text, key, what)
    if value < 0:
        raise ConfigError(f"{key} must be nonnegative, got {value}")
    return value


def _count(text: str, key: str, least: int = 2) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from exc
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def _floats(text: str, key: str) -> tuple[float, ...]:
    tokens = text.replace(",", " ").split()
    return tuple(_number(tok, key, "a list of numbers") for tok in tokens)


def _band(text: str, key: str) -> tuple[float, float]:
    band = _floats(text, key)
    if len(band) != 2 or not 0 < band[0] < band[1]:
        raise ConfigError(f"{key} must be 'lo hi' in nm with lo < hi")
    return band


def _wavelength(text: str, key: str) -> float | None:
    t = text.strip().lower()
    return None if t == "auto-gvm" else _positive(t, key, "a number in nm or 'auto-gvm'")


def _power(text: str, key: str) -> PowerSetting:
    t = text.strip().lower()
    if t == "auto-critical":
        return PowerSetting(critical_fraction=1.0)
    if t.startswith("auto-critical:"):
        frac = _number(t.split(":", 1)[1], key, "a number after 'auto-critical:'")
        if frac <= 0:
            raise ConfigError(f"{key} fraction must be positive, got {frac}")
        return PowerSetting(critical_fraction=frac)
    what = "watts, 'auto-critical' or 'auto-critical:<fraction>'"
    return PowerSetting(watts=_nonnegative(t, key, what))


def _powers(text: str, key: str) -> tuple[PowerSetting, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{key} must list at least one power")
    return tuple(_power(tok, key) for tok in tokens)


def _text(text: str, key: str) -> str:
    return text.strip()


def _flag(text: str, key: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key} must be true or false, got {text!r}") from None


# Every run-file option, in echo order: (section, option, RunConfig field,
# reader, default).  Options that default to _NEEDED are required, and are
# checked in this order so that an empty or absent one fails naming the
# first gap.  An absent powers_w means (power_w,).  Any other option is
# rejected.
_NEEDED = object()
_ROWS = (
    ("fiber", "core", "core", _text, _NEEDED),
    ("fiber", "cladding", "cladding", _text, _NEEDED),
    ("fiber", "radius_um", "radius_um", _positive, _NEEDED),
    ("fiber", "length_m", "length_m", _positive, _NEEDED),
    ("fiber", "gamma_w_km", "gamma", _nonnegative, _NEEDED),
    ("pump", "wavelength_nm", "pump_wavelength", _wavelength, _NEEDED),
    ("pump", "fwhm_nm", "pump_fwhm_nm", _positive, _NEEDED),
    ("pump", "power_w", "pump_power", _power, _NEEDED),
    ("pump", "powers_w", "pump_powers", _powers, None),
    ("grids", "window_nm", "window_nm", _band, _NEEDED),
    ("grids", "map_points", "map_points", partial(_count, least=3), 256),
    ("grids", "detuning_max_rad_fs", "detuning_max", _positive, 0.1),
    ("grids", "spectrum_points", "spectrum_points", partial(_count, least=3), 2001),
    ("grids", "jsa_points", "jsa_points", _count, 256),
    ("grids", "jsa_span_rad_fs", "jsa_span", _positive, 0.03),
)
# Each kind of [material NAME] section (its option kind, default sellmeier):
# the model it builds and its rows of (option, model field, reader, default),
# read like _ROWS.  Any other option of the section is rejected.
_KINDS = {
    "sellmeier": (SellmeierModel, (
        ("b", "b", _floats, _NEEDED),
        ("c", "c", _floats, _NEEDED),
        ("range_nm", "valid_range_nm", _band, _NEEDED),
        ("approximate", "approximate", _flag, False),
    )),
    "constant": (ConstantIndex, (("value", "value", _positive, _NEEDED),)),
}


def _echo(value) -> str:
    """A setting's value as the output headers print it."""
    if isinstance(value, tuple):
        return " ".join(map(_echo, value))
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, PowerSetting):
        return value.describe()
    return "auto-gvm" if value is None else str(value)


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run file; auto pump fields stay symbolic until resolved."""

    core: str
    cladding: str
    radius_um: float
    length_m: float
    gamma: float
    pump_wavelength: float | None  # nm; None is auto-gvm
    pump_fwhm_nm: float
    pump_power: PowerSetting
    pump_powers: tuple[PowerSetting, ...]
    window_nm: tuple[float, float]
    map_points: int
    detuning_max: float
    spectrum_points: int
    jsa_points: int
    jsa_span: float
    materials: dict[str, SellmeierModel | ConstantIndex] = field(default_factory=dict)

    @property
    def length_nm(self) -> float:
        return self.length_m * 1e9

    def fiber(self) -> FiberSpec:
        return FiberSpec(
            core=get_material(self.core, extra=self.materials),
            cladding=get_material(self.cladding, extra=self.materials),
            radius_um=self.radius_um,
        )

    def profile(self) -> DispersionProfile:
        """Dispersion proxy of the fibre over the run's window.

        Raises EvaluationError when residual x length exceeds PHASE_BUDGET_RAD,
        and ConfigError when the window leaves a material's validity range.
        """
        try:
            profile = build_profile(self.fiber(), self.window_nm)
        except RangeError as err:
            raise ConfigError(
                f"grids.window_nm = {_echo(self.window_nm)} leaves a material's range ({err})"
            ) from None
        phase = profile.residual * self.length_nm
        if not phase <= PHASE_BUDGET_RAD:
            raise EvaluationError(
                f"dispersion proxy error {phase:.3g} rad over the fibre exceeds "
                f"the phase budget of {PHASE_BUDGET_RAD:g} rad"
            )
        return profile

    def signal_axis(self, profile: DispersionProfile, omega_p: float) -> np.ndarray:
        """Signal frequencies whose energy-matched idler also stays in window."""
        lo, hi = profile.query_window
        s_lo = max(lo, 2.0 * omega_p - hi)
        s_hi = min(hi, 2.0 * omega_p - lo)
        if not s_lo < s_hi:
            raise EvaluationError("pump frequency leaves no signal range in the window")
        return np.linspace(s_lo, s_hi, self.spectrum_points)

    def map_axes(self, profile: DispersionProfile) -> tuple[np.ndarray, np.ndarray]:
        """Pump and detuning axes of the contour map, every sideband in the query window."""
        (lo, hi), d = profile.query_window, self.detuning_max
        if hi - lo <= 2.0 * d:
            raise ConfigError("grids.detuning_max_rad_fs leaves no pump range inside the window")
        return np.linspace(lo + d, hi - d, self.map_points), np.linspace(-d, d, self.map_points)

    def echo_items(self) -> list[tuple[str, str]]:
        """Every setting as (key, value) text, in table order."""
        items = [
            (f"{section}.{option}", _echo(getattr(self, name)))
            for section, option, name, _, _ in _ROWS
        ]
        for name, material in sorted(self.materials.items()):
            kind, rows = next((k, r) for k, (m, r) in _KINDS.items() if isinstance(material, m))
            items.append((f"material.{name}.kind", kind))
            items += [(f"material.{name}.{o}", _echo(getattr(material, f))) for o, f, *_ in rows]
        return items


def _material_sections(cp) -> list[tuple]:
    """(NAME, model, rows in _ROWS form) of each [material NAME] section; pops its kind."""
    found, seen = [], {}
    for section in cp.sections():
        parts = section.split(None, 1)
        if parts[:1] != ["material"]:
            continue
        if len(parts) != 2:
            raise ConfigError("material sections need a name: [material NAME]")
        name = parts[1].strip()
        if seen.setdefault(name, section) != section:  # configparser sections are unique
            raise ConfigError(f"[{seen[name]}] and [{section}] both define material {name!r}")
        kind = cp[section].pop("kind", "sellmeier").strip().lower()
        if kind not in _KINDS:
            raise ConfigError(f"{section}.kind must be one of {', '.join(_KINDS)}, got {kind!r}")
        model, rows = _KINDS[kind]
        found.append((name, model, [(section, *row) for row in rows]))
    return found


def _check_names(cp, rows):
    """Reject unknown sections and options, so a typo never falls back silently."""
    for section in cp.sections():
        known = [opt for sec, opt, *_ in rows if sec == section]
        if not known:
            raise ConfigError(f"unknown config section [{section}]")
        for option in cp.options(section):
            if option not in known:
                raise ConfigError(f"unknown config option {section}.{option}")


def _read(cp, rows) -> dict:
    """Values of rows in _ROWS form by field, failing on the first missing required one."""
    for section, option, _, _, default in rows:
        if default is _NEEDED and not cp.get(section, option, fallback="").strip():
            raise ConfigError(f"config missing required field {section}.{option}")
    return {
        name: read(cp.get(section, option), f"{section}.{option}")
        if cp.has_option(section, option)
        else default
        for section, option, name, read, default in rows
    }


def parse_config(text: str) -> RunConfig:
    """Parse run-file text, failing on the first missing required field."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    materials = _material_sections(cp)
    _check_names(cp, [*_ROWS, *(row for *_, rows in materials for row in rows)])
    values = _read(cp, _ROWS)
    values["pump_powers"] = values["pump_powers"] or (values["pump_power"],)
    values["materials"] = {n: model(name=n, **_read(cp, rows)) for n, model, rows in materials}
    config = RunConfig(**values)
    config.fiber()  # material names and the contrast validate eagerly
    return config


def load_config(path: str) -> RunConfig:
    """Parse the run file at `path` (OSError on I/O, ConfigError unless UTF-8)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def available_presets() -> list[str]:
    root = resources.files("sfwm").joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_preset(name: str) -> RunConfig:
    """Load one of the packaged preset run files by bare name."""
    entry = resources.files("sfwm").joinpath("presets", f"{name}.cfg")
    if not entry.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    return parse_config(entry.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class ResolvedPump(PumpSpec):
    """PumpSpec after the auto-gvm/auto-critical rules, plus contour powers, P*, match, matches."""

    powers: tuple[float, ...] = ()
    p_star: float | None = None
    gvm: FgvmPoint | None = None
    matches: tuple[FgvmPoint, ...] = ()

    @property
    def lambda_nm(self) -> float:
        return wavelength_from_omega(self.omega_p)


def resolve_pump(config: RunConfig, profile: DispersionProfile) -> ResolvedPump:
    """Turn symbolic pump settings into numbers against a fitted profile.

    auto-gvm selects the full group-velocity match with the smallest
    half-separation; auto-critical powers are fractions of the
    critical power at that match, which must be positive (EvaluationError
    otherwise).  An explicit pump outside the query window is a ConfigError.
    """
    need_gvm = config.pump_wavelength is None
    lo, hi = profile.query_window
    if not need_gvm and not lo <= omega_from_wavelength(config.pump_wavelength) <= hi:
        raise ConfigError(
            f"pump.wavelength_nm = {config.pump_wavelength:.9g} lies outside the usable "
            f"range {wavelength_from_omega(hi):.9g} to {wavelength_from_omega(lo):.9g} nm"
        )
    need_crit = config.pump_power.auto or any(p.auto for p in config.pump_powers)
    gvm = p_star = None
    matches = ()
    if need_gvm or need_crit:
        matches = tuple(find_fgvm_points(profile))
        if not matches:
            raise EvaluationError(
                "no nondegenerate group-velocity match in this window; give the "
                "pump wavelength and power explicitly"
            )
        gvm = min(matches, key=lambda p: p.delta)
    if need_crit:
        if config.gamma <= 0:
            raise ConfigError(
                "auto-critical powers need a positive fiber.gamma_w_km"
            )
        p_star = critical_power(profile, gvm.omega_p, gvm.delta, config.gamma)
        if p_star <= 0:
            raise EvaluationError(
                f"critical power {p_star:.9g} W at the group-velocity match at "
                f"{wavelength_from_omega(gvm.omega_p):.9g} nm (delta {gvm.delta:.9g} "
                "rad/fs) is not positive; give pump.power_w in W"
            )
    omega_p = gvm.omega_p if need_gvm else omega_from_wavelength(config.pump_wavelength)
    return ResolvedPump(
        omega_p=omega_p,
        sigma=pump_sigma_from_fwhm(config.pump_fwhm_nm, wavelength_from_omega(omega_p)),
        power=config.pump_power.resolved(p_star),
        powers=tuple(p.resolved(p_star) for p in config.pump_powers),
        p_star=p_star,
        gvm=gvm,
        matches=matches,
    )


@dataclass(frozen=True)
class WorkingPoint(Pair):
    """Resolved pump and the exactly phase-matched signal/idler pair at it."""

    pump: ResolvedPump
    delta: float  # matched half-separation (rad/fs)

    @property
    def omega_p(self) -> float:
        return self.pump.omega_p

    def axes(self, profile, span: float, points: int) -> tuple[np.ndarray, np.ndarray]:
        """`points` samples +-span about signal and idler: span below delta, in the query window."""
        if not span < self.delta:
            raise ConfigError(
                f"grids.jsa_span_rad_fs = {span:.9g} reaches the pump: the span limit is "
                f"the matched half-separation delta = {self.delta:.9g} rad/fs"
            )
        try:
            profile.check_window(np.array([self.omega_i - span, self.omega_s + span]))
        except RangeError as err:
            raise ConfigError(f"grids.jsa_span_rad_fs = {span:.9g} puts a {err}") from None
        return (
            np.linspace(self.omega_s - span, self.omega_s + span, points),
            np.linspace(self.omega_i - span, self.omega_i + span, points),
        )


def _matched_delta(config: RunConfig, profile, rp: ResolvedPump) -> float:
    """Half-separation of the exactly matched pair at the resolved pump.

    At the critical power of an auto-gvm pump the loop has shrunk to the
    match itself, a double root, so that case returns the match directly.
    Otherwise, of the sign changes of the mismatch on (0, detuning_max) (see
    `matched_detunings`), the root nearest the match is used when one is
    known, else the outermost.
    """
    if config.pump_wavelength is None and at_critical_power(profile, rp.gvm, config.gamma, rp.power):
        return rp.gvm.delta
    try:  # matched_detunings' only window check: omega_p +- detuning_max
        roots = matched_detunings(profile, rp.omega_p, config.detuning_max, config.gamma, rp.power)
    except RangeError as err:
        dmax = config.detuning_max
        raise ConfigError(f"grids.detuning_max_rad_fs = {dmax:.9g} puts a {err}") from None
    if roots.size == 0:
        raise EvaluationError(
            "no phase-matched signal/idler pair within grids.detuning_max_rad_fs "
            "at the resolved pump and power"
        )
    if rp.gvm is not None:
        return float(min(roots, key=lambda d: abs(d - rp.gvm.delta)))
    return float(roots.max())


def working_point(config: RunConfig, profile: DispersionProfile) -> WorkingPoint:
    """Resolve the pump and find the phase-matched pair the biphoton runs use."""
    rp = resolve_pump(config, profile)
    return WorkingPoint(pump=rp, delta=_matched_delta(config, profile, rp))
