"""Run configuration: INI files describing a fibre, a pump and output grids.

A run file has sections [fiber], [pump] and [grids] (plus an optional
[outputs] section and any number of custom [material NAME] sections).  The
pump wavelength may be the literal "auto-gvm", which selects the
nondegenerate full group-velocity match of the fibre, and any pump power may
be "auto-critical" or "auto-critical:<fraction>", a multiple of the critical
power at that match.  Ready-made presets ship with the package.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .biphoton import PumpSpec
from .dispersion import DispersionProfile, FgvmPoint, build_profile, find_fgvm_points
from .errors import ConfigError, EvaluationError
from .materials import ConstantIndex, Material, SellmeierModel, get_material
from .modes import FiberSpec
from .phasematching import critical_power, matched_detunings
from .units import omega_from_wavelength, pump_sigma_from_fwhm, wavelength_from_omega

# The (required, optional) options of each section; [material NAME] sections
# share the "material" entry.  Any other option is rejected.
_OPTIONS = {
    "fiber": ("core cladding radius_um length_m gamma_w_km", ""),
    "pump": ("wavelength_nm fwhm_nm power_w", "powers_w"),
    "grids": ("window_nm", "map_points detuning_max_rad_fs spectrum_points "
              "jsa_points jsa_span_rad_fs"),
    "outputs": ("", "directory"),
    "material": ("", "kind value b c range_nm approximate"),
}
# Checked in order; an empty or absent option fails naming the first gap.
_REQUIRED = [(sec, opt) for sec, (req, _) in _OPTIONS.items() for opt in req.split()]
# The most phase, in radians over the fibre, that the dispersion proxy's
# chopped tail (residual x length) may put into L k.
PHASE_BUDGET_RAD = 1e-3


@dataclass(frozen=True)
class WavelengthSetting:
    """Pump carrier: a fixed vacuum wavelength or the group-velocity match."""

    nm: float | None = None

    @property
    def auto(self) -> bool:
        return self.nm is None

    def describe(self) -> str:
        return "auto-gvm" if self.auto else f"{self.nm:.9g}"


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


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run file; auto pump fields stay symbolic until resolved."""

    core: str
    cladding: str
    radius_um: float
    length_m: float
    gamma: float
    pump_wavelength: WavelengthSetting
    pump_fwhm_nm: float
    pump_power: PowerSetting
    pump_powers: tuple[PowerSetting, ...]
    window_nm: tuple[float, float]
    map_points: int
    detuning_max: float
    spectrum_points: int
    jsa_points: int
    jsa_span: float
    out_dir: str
    materials: dict[str, Material] = field(default_factory=dict)

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

        Raises EvaluationError when residual x length exceeds PHASE_BUDGET_RAD.
        """
        profile = build_profile(self.fiber(), self.window_nm)
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

    def echo_items(self) -> list[tuple[str, str]]:
        """Every setting as (key, value) text, in a fixed order."""
        lo, hi = self.window_nm
        items = [
            ("fiber.core", self.core),
            ("fiber.cladding", self.cladding),
            ("fiber.radius_um", f"{self.radius_um:.9g}"),
            ("fiber.length_m", f"{self.length_m:.9g}"),
            ("fiber.gamma_w_km", f"{self.gamma:.9g}"),
            ("pump.wavelength_nm", self.pump_wavelength.describe()),
            ("pump.fwhm_nm", f"{self.pump_fwhm_nm:.9g}"),
            ("pump.power_w", self.pump_power.describe()),
            ("pump.powers_w", " ".join(p.describe() for p in self.pump_powers)),
            ("grids.window_nm", f"{lo:.9g} {hi:.9g}"),
            ("grids.map_points", str(self.map_points)),
            ("grids.detuning_max_rad_fs", f"{self.detuning_max:.9g}"),
            ("grids.spectrum_points", str(self.spectrum_points)),
            ("grids.jsa_points", str(self.jsa_points)),
            ("grids.jsa_span_rad_fs", f"{self.jsa_span:.9g}"),
        ]
        for name in sorted(self.materials):
            items.append((f"material.{name}", self.materials[name].name))
        return items


def _number(text: str, key: str, what: str = "a number") -> float:
    """text as a finite float, else a ConfigError naming key."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be {what}, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _parse_wavelength(text: str) -> WavelengthSetting:
    t = text.strip().lower()
    if t == "auto-gvm":
        return WavelengthSetting(nm=None)
    nm = _number(t, "pump.wavelength_nm", "a number in nm or 'auto-gvm'")
    if nm <= 0:
        raise ConfigError(f"pump.wavelength_nm must be positive, got {nm}")
    return WavelengthSetting(nm=nm)


def _parse_power(text: str, key: str) -> PowerSetting:
    t = text.strip().lower()
    if t == "auto-critical":
        return PowerSetting(critical_fraction=1.0)
    if t.startswith("auto-critical:"):
        frac = _number(t.split(":", 1)[1], key, "a number after 'auto-critical:'")
        if frac <= 0:
            raise ConfigError(f"{key} fraction must be positive, got {frac}")
        return PowerSetting(critical_fraction=frac)
    watts = _number(t, key, "watts, 'auto-critical' or 'auto-critical:<fraction>'")
    if watts < 0:
        raise ConfigError(f"{key} must be nonnegative, got {watts}")
    return PowerSetting(watts=watts)


def _floats(text: str, key: str) -> list[float]:
    tokens = text.replace(",", " ").split()
    return [_number(tok, key, "a list of numbers") for tok in tokens]


def _int_opt(cp, section: str, option: str, default: int) -> int:
    if not cp.has_option(section, option):
        return default
    raw = cp.get(section, option)
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{option} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ConfigError(f"{section}.{option} must be >= 2, got {value}")
    return value


def _positive(cp, section: str, option: str, default: float | None = None) -> float:
    if not cp.has_option(section, option):
        return default
    value = _number(cp.get(section, option), f"{section}.{option}")
    if value <= 0:
        raise ConfigError(f"{section}.{option} must be positive, got {value}")
    return value


def _check_names(cp):
    """Reject unknown sections and options, so a typo never falls back silently."""
    for section in cp.sections():
        key = "material" if section.startswith("material") else section
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        known = " ".join(_OPTIONS[key]).split()
        for option in cp.options(section):
            if option not in known:
                raise ConfigError(f"unknown config option {section}.{option}")


def _custom_materials(cp) -> dict[str, Material]:
    out: dict[str, Material] = {}
    for section in cp.sections():
        if not section.startswith("material"):
            continue
        parts = section.split(None, 1)
        if len(parts) != 2 or not parts[1].strip():
            raise ConfigError("material sections need a name: [material NAME]")
        name = parts[1].strip()
        kind = cp.get(section, "kind", fallback="sellmeier").strip().lower()
        if kind == "constant":
            value = _positive(cp, section, "value")
            if value is None:
                raise ConfigError(f"material {name!r} needs a 'value' field")
            out[name] = ConstantIndex(name=name, value=value)
            continue
        if kind != "sellmeier":
            raise ConfigError(
                f"material {name!r}: kind must be 'sellmeier' or 'constant'"
            )
        for opt in ("b", "c", "range_nm"):
            if not cp.has_option(section, opt):
                raise ConfigError(f"material {name!r} needs a {opt!r} field")
        b = _floats(cp.get(section, "b"), f"{section}.b")
        c = _floats(cp.get(section, "c"), f"{section}.c")
        if not b or len(b) != len(c):
            raise ConfigError(
                f"material {name!r}: b and c need the same nonzero length"
            )
        rng = _floats(cp.get(section, "range_nm"), f"{section}.range_nm")
        if len(rng) != 2 or not 0 < rng[0] < rng[1]:
            raise ConfigError(f"material {name!r}: range_nm must be 'lo hi' in nm")
        approx = cp.getboolean(section, "approximate", fallback=False)
        out[name] = SellmeierModel(
            name=name,
            b=tuple(b),
            c=tuple(c),
            valid_range_nm=(rng[0], rng[1]),
            approximate=approx,
        )
    return out


def parse_config(text: str) -> RunConfig:
    """Parse run-file text, failing on the first missing required field."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    _check_names(cp)
    for section, option in _REQUIRED:
        if not cp.has_option(section, option) or not cp.get(section, option).strip():
            raise ConfigError(f"config missing required field {section}.{option}")

    materials = _custom_materials(cp)

    radius_um = _positive(cp, "fiber", "radius_um")
    length_m = _positive(cp, "fiber", "length_m")
    gamma = _number(cp.get("fiber", "gamma_w_km"), "fiber.gamma_w_km")
    if gamma < 0:
        raise ConfigError(f"fiber.gamma_w_km must be nonnegative, got {gamma}")

    fwhm_nm = _positive(cp, "pump", "fwhm_nm")
    power = _parse_power(cp.get("pump", "power_w"), "pump.power_w")
    if cp.has_option("pump", "powers_w"):
        tokens = cp.get("pump", "powers_w").split()
        if not tokens:
            raise ConfigError("pump.powers_w must list at least one power")
        powers = tuple(_parse_power(tok, "pump.powers_w") for tok in tokens)
    else:
        powers = (power,)

    window = _floats(cp.get("grids", "window_nm"), "grids.window_nm")
    if len(window) != 2 or not 0 < window[0] < window[1]:
        raise ConfigError("grids.window_nm must be 'lo hi' in nm with lo < hi")

    config = RunConfig(
        core=cp.get("fiber", "core").strip(),
        cladding=cp.get("fiber", "cladding").strip(),
        radius_um=radius_um,
        length_m=length_m,
        gamma=gamma,
        pump_wavelength=_parse_wavelength(cp.get("pump", "wavelength_nm")),
        pump_fwhm_nm=fwhm_nm,
        pump_power=power,
        pump_powers=powers,
        window_nm=(window[0], window[1]),
        map_points=_int_opt(cp, "grids", "map_points", 256),
        detuning_max=_positive(cp, "grids", "detuning_max_rad_fs", 0.1),
        spectrum_points=_int_opt(cp, "grids", "spectrum_points", 2001),
        jsa_points=_int_opt(cp, "grids", "jsa_points", 256),
        jsa_span=_positive(cp, "grids", "jsa_span_rad_fs", 0.03),
        out_dir=cp.get("outputs", "directory", fallback=".").strip() or ".",
        materials=materials,
    )
    config.fiber()  # material names and the contrast validate eagerly
    return config


def load_config(path: str) -> RunConfig:
    """Parse the run file at `path` (I/O errors propagate as OSError)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


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
    """PumpSpec after the auto-gvm/auto-critical rules, plus contour powers, P* and match."""

    powers: tuple[float, ...] = ()
    p_star: float | None = None
    gvm: FgvmPoint | None = None

    @property
    def lambda_nm(self) -> float:
        return wavelength_from_omega(self.omega_p)


def resolve_pump(config: RunConfig, profile: DispersionProfile) -> ResolvedPump:
    """Turn symbolic pump settings into numbers against a fitted profile.

    auto-gvm selects the full group-velocity match with the smallest
    half-separation; auto-critical powers are fractions of the
    critical power at that match, which must be positive (EvaluationError
    otherwise).
    """
    need_gvm = config.pump_wavelength.auto
    need_crit = config.pump_power.auto or any(p.auto for p in config.pump_powers)
    gvm = None
    p_star = None
    if need_gvm or need_crit:
        matches = find_fgvm_points(profile)
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
    omega_p = (
        gvm.omega_p
        if config.pump_wavelength.auto
        else omega_from_wavelength(config.pump_wavelength.nm)
    )
    return ResolvedPump(
        omega_p=omega_p,
        sigma=pump_sigma_from_fwhm(config.pump_fwhm_nm, wavelength_from_omega(omega_p)),
        power=config.pump_power.resolved(p_star),
        powers=tuple(p.resolved(p_star) for p in config.pump_powers),
        p_star=p_star,
        gvm=gvm,
    )


# Powers this close to P* count as the critical power.  Run files may hold
# P* pasted from an output echo, whose %.9g rounding is up to 5e-9 relative.
_CRITICAL_POWER_RTOL = 1e-8


@dataclass(frozen=True)
class WorkingPoint:
    """Resolved pump and the exactly phase-matched signal/idler pair at it."""

    pump: ResolvedPump
    delta: float  # matched half-separation (rad/fs): the pair is omega_p +- delta

    @property
    def omega_s(self) -> float:
        return self.pump.omega_p + self.delta

    @property
    def omega_i(self) -> float:
        return self.pump.omega_p - self.delta

    def axes(self, span: float, points: int) -> tuple[np.ndarray, np.ndarray]:
        """Signal and idler axes of `points` samples, +-span (below delta) around the pair."""
        if not span < self.delta:
            raise ConfigError(
                f"grids.jsa_span_rad_fs = {span:.9g} reaches the pump: the span limit is "
                f"the matched half-separation delta = {self.delta:.9g} rad/fs"
            )
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
    if rp.gvm is not None and config.pump_wavelength.auto and config.gamma > 0:
        p_star = rp.p_star
        if p_star is None:  # a fixed power, possibly P* itself
            p_star = critical_power(profile, rp.gvm.omega_p, rp.gvm.delta, config.gamma)
        if abs(rp.power - p_star) <= _CRITICAL_POWER_RTOL * abs(p_star):
            return rp.gvm.delta
    roots = matched_detunings(
        profile, rp.omega_p, config.detuning_max, gamma=config.gamma, power=rp.power
    )
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
