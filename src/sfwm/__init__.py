"""Scalar spontaneous four-wave mixing in step-index fibres.

Submodules build on each other: material index models, the exact HE11 mode
solver, Chebyshev dispersion proxies with group-velocity matching, scalar
phase-matching maps and contours, and the biphoton joint spectral amplitude
with Schmidt-mode metrics.  A small config-driven CLI (`sfwm`) wires the
pieces into reproducible reports.
"""

from .biphoton import (
    JsaGrid,
    PumpSpec,
    SchmidtResult,
    heralded_purity,
    jsa_analytic,
    jsa_numeric,
    phi_function,
    schmidt_metrics,
)
from .dispersion import (
    DispersionProfile,
    FgvmPoint,
    TauSet,
    build_profile,
    delta_k_cw,
    find_fgvm_points,
    find_zdfs,
    tau_coefficients,
    theta_pm,
    zero_dispersion_wavelengths,
)
from .errors import ConfigError, EvaluationError, ModeSolveError, NumericsError, RangeError, SfwmError
from .materials import (
    AIR,
    BISMUTH_BORATE,
    FUSED_SILICA,
    ConstantIndex,
    ScaledIndex,
    SellmeierModel,
    get_material,
    refractive_index,
)
from .modes import FiberSpec, effective_index
from .phasematching import (
    Contour,
    critical_power,
    half_max_edges,
    mi_sideband_detuning,
    pm_map,
    singles_spectrum,
    trace_contours,
)

__version__ = "0.1.0"

__all__ = [
    "AIR",
    "BISMUTH_BORATE",
    "ConfigError",
    "ConstantIndex",
    "Contour",
    "DispersionProfile",
    "EvaluationError",
    "FUSED_SILICA",
    "FgvmPoint",
    "FiberSpec",
    "JsaGrid",
    "ModeSolveError",
    "NumericsError",
    "PumpSpec",
    "RangeError",
    "ScaledIndex",
    "SchmidtResult",
    "SellmeierModel",
    "SfwmError",
    "TauSet",
    "build_profile",
    "critical_power",
    "delta_k_cw",
    "effective_index",
    "find_fgvm_points",
    "find_zdfs",
    "get_material",
    "half_max_edges",
    "heralded_purity",
    "jsa_analytic",
    "jsa_numeric",
    "mi_sideband_detuning",
    "pm_map",
    "phi_function",
    "refractive_index",
    "schmidt_metrics",
    "singles_spectrum",
    "tau_coefficients",
    "theta_pm",
    "trace_contours",
    "zero_dispersion_wavelengths",
]
