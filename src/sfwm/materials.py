"""Refractive-index models for fibre core and cladding media.

Dispersion is described by Sellmeier expansions

    n(lambda)^2 = 1 + sum_j B_j lambda^2 / (lambda^2 - C_j)

with lambda in micrometres and C_j in um^2, plus two trivial wrappers: a
constant index and a scaled copy of another medium with a fixed fractional
contrast (n_scaled = n_base / (1 - contrast), i.e. the raised-index core of a
step-index fibre specified only through its contrast).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EvaluationError, RangeError

_POLE_GUARD_UM2 = 1e-6


@dataclass(frozen=True)
class SellmeierModel:
    """Sellmeier dispersion model.

    Args:
        name: identifier used in configs and reports.
        b: oscillator strengths B_j (dimensionless).
        c: resonance positions C_j in um^2.
        valid_range_nm: inclusive wavelength validity window.
        approximate: True for models that are reconstructions rather than
            measured literature fits; recorded in reports.
    """

    name: str
    b: tuple[float, ...]
    c: tuple[float, ...]
    valid_range_nm: tuple[float, float]
    approximate: bool = False

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise ConfigError(
                f"material {self.name!r}: {len(self.b)} B terms vs {len(self.c)} C terms"
            )

    def index(self, lambda_nm):
        lam = np.asarray(lambda_nm, dtype=float)
        lo, hi = self.valid_range_nm
        if np.any(lam < lo) or np.any(lam > hi):
            raise RangeError(
                f"material {self.name!r}: wavelength outside validity window "
                f"[{lo}, {hi}] nm"
            )
        x = (lam / 1000.0) ** 2
        n2 = np.ones_like(x)
        for b_j, c_j in zip(self.b, self.c):
            denom = x - c_j
            if np.any(np.abs(denom) < _POLE_GUARD_UM2):
                raise EvaluationError(
                    f"material {self.name!r}: evaluation within {_POLE_GUARD_UM2} um^2 "
                    f"of the Sellmeier pole at {np.sqrt(c_j) * 1000:.1f} nm"
                )
            n2 = n2 + b_j * x / denom
        if not np.all(n2 > 0):
            raise EvaluationError(f"material {self.name!r}: Sellmeier n^2 is not positive")
        return np.sqrt(n2)


@dataclass(frozen=True)
class ConstantIndex:
    """Dispersionless medium (e.g. air or an idealised cladding)."""

    name: str
    value: float

    def __post_init__(self):
        if not 0 < self.value < np.inf:
            raise ConfigError(f"constant index must be positive and finite, got {self.value}")

    def index(self, lambda_nm):
        lam = np.asarray(lambda_nm, dtype=float)
        return np.full_like(lam, self.value)


@dataclass(frozen=True)
class ScaledIndex:
    """Index of `base` raised by a fixed fractional contrast.

    n(lambda) = n_base(lambda) / (1 - contrast), so that
    (n - n_base)/n == contrast at every wavelength.
    """

    base: SellmeierModel | ConstantIndex
    contrast: float
    name: str = field(default="")

    def __post_init__(self):
        if not 0.0 < self.contrast < 1.0:
            raise ConfigError(f"contrast must lie in (0, 1), got {self.contrast}")
        if not self.name:
            object.__setattr__(self, "name", f"{self.base.name}+{self.contrast:g}")

    def index(self, lambda_nm):
        return self.base.index(lambda_nm) / (1.0 - self.contrast)


Material = SellmeierModel | ConstantIndex | ScaledIndex


def refractive_index(material: Material, lambda_nm):
    """Refractive index of `material` at vacuum wavelength(s) in nm."""
    return material.index(lambda_nm)


def approximate_models(*materials: Material) -> list[str]:
    """Names of the models flagged approximate that `materials` rest on.

    A scaled medium rests on its base model.  Each name is listed once, in
    the order of first use.
    """
    names = []
    for material in materials:
        while isinstance(material, ScaledIndex):
            material = material.base
        if getattr(material, "approximate", False) and material.name not in names:
            names.append(material.name)
    return names


# Fused silica, Malitson's three-term fit.  Validity per the original fit.
FUSED_SILICA = SellmeierModel(
    name="silica",
    b=(0.6961663, 0.4079426, 0.8974794),
    c=(0.0684043**2, 0.1162414**2, 9.896161**2),
    valid_range_nm=(210.0, 3710.0),
)

AIR = ConstantIndex(name="air", value=1.0)

# Bismuth borate glass.  Approximate: a two-term reconstruction calibrated to
# reproduce the waveguide dispersion of a sub-micron air-clad rod of this
# glass (near-merged zero-dispersion pair in the visible); it is not a
# measured material fit and should not be used for quantitative work outside
# roughly 450-900 nm.
BISMUTH_BORATE = SellmeierModel(
    name="bismuth_borate",
    b=(2.01055728, 1.0),
    c=(0.02172749, 25.0),
    valid_range_nm=(400.0, 2500.0),
    approximate=True,
)

MATERIALS: dict[str, Material] = {
    "silica": FUSED_SILICA,
    "air": AIR,
    "bismuth_borate": BISMUTH_BORATE,
}


def get_material(name: str, extra: dict[str, Material] | None = None) -> Material:
    """Resolve a material by config name.

    Accepts registry names ("silica", "air", "bismuth_borate"), names defined
    in `extra` (custom config sections) and the literal forms
    "constant:<n>" and "scaled:<base>:<contrast>".
    """
    key = name.strip()
    if extra and key in extra:
        return extra[key]
    if key in MATERIALS:
        return MATERIALS[key]
    if key.startswith("constant:"):
        try:
            value = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad constant material spec {name!r}") from exc
        return ConstantIndex(name=key, value=value)
    if key.startswith("scaled:"):
        parts = key.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad scaled material spec {name!r}")
        base = get_material(parts[1], extra=extra)
        try:
            contrast = float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad contrast in material spec {name!r}") from exc
        return ScaledIndex(base=base, contrast=contrast, name=key)
    raise ConfigError(f"unknown material {name!r}")
