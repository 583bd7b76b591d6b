import math

import numpy as np
import pytest

from sfwm.errors import ConfigError, EvaluationError, RangeError
from sfwm.materials import (
    AIR,
    BISMUTH_BORATE,
    FUSED_SILICA,
    ConstantIndex,
    ScaledIndex,
    SellmeierModel,
    approximate_models,
    get_material,
    refractive_index,
)


def silica_direct(lambda_um):
    """Independent evaluation of Malitson's fit, written out longhand."""
    x = lambda_um * lambda_um
    n2 = (
        1.0
        + 0.6961663 * x / (x - 0.0684043**2)
        + 0.4079426 * x / (x - 0.1162414**2)
        + 0.8974794 * x / (x - 9.896161**2)
    )
    return math.sqrt(n2)


def test_silica_reference_points():
    # Frozen from the longhand expression; the canonical check is 1550 nm.
    assert refractive_index(FUSED_SILICA, 1550.0) == pytest.approx(1.4440, abs=1e-4)
    for lam_nm in (400.0, 587.6, 1064.0, 1550.0, 2500.0):
        assert refractive_index(FUSED_SILICA, lam_nm) == pytest.approx(
            silica_direct(lam_nm / 1000.0), rel=1e-14
        )


def test_silica_value_frozen():
    assert refractive_index(FUSED_SILICA, 1550.0) == pytest.approx(
        1.44402362, abs=1e-7
    )


def test_silica_vectorized():
    lams = np.linspace(300.0, 3000.0, 17)
    vals = refractive_index(FUSED_SILICA, lams)
    assert vals.shape == lams.shape
    for lam, val in zip(lams, vals):
        assert val == pytest.approx(silica_direct(lam / 1000.0), rel=1e-14)


def test_silica_out_of_range():
    with pytest.raises(RangeError):
        refractive_index(FUSED_SILICA, 100.0)
    with pytest.raises(RangeError):
        refractive_index(FUSED_SILICA, 5000.0)
    with pytest.raises(RangeError):
        refractive_index(FUSED_SILICA, np.array([1550.0, 4000.0]))


def test_pole_guard():
    # A model whose pole sits inside its own declared window must refuse
    # evaluation within 1e-6 um^2 of it rather than return garbage.
    model = SellmeierModel(
        name="toy", b=(1.0,), c=(1.0,), valid_range_nm=(500.0, 2000.0)
    )
    with pytest.raises(EvaluationError):
        model.index(1000.0)
    with pytest.raises(EvaluationError):
        model.index(math.sqrt(1.0 + 0.9e-6) * 1000.0)
    # Just outside the guard band evaluation proceeds (huge but finite).
    val = model.index(math.sqrt(1.0 + 1.1e-6) * 1000.0)
    assert np.isfinite(val)
    # A negative n^2 has no real index: refused rather than returned as NaN.
    negative = SellmeierModel(name="toy", b=(-1.2,), c=(0.01,), valid_range_nm=(500.0, 2000.0))
    with pytest.raises(EvaluationError, match=r"n\^2 is not positive"):
        negative.index(1550.0)


def test_scaled_contrast_exact():
    core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
    for lam in (600.0, 1064.0, 1550.0, 2600.0):
        n_cl = refractive_index(FUSED_SILICA, lam)
        n_co = refractive_index(core, lam)
        assert (n_co - n_cl) / n_co == pytest.approx(0.0274, abs=1e-12)


def test_scaled_spec_needs_a_numeric_contrast():
    with pytest.raises(ConfigError, match="bad scaled material spec"):
        get_material("scaled:silica")
    with pytest.raises(ConfigError, match="bad contrast in material spec"):
        get_material("scaled:silica:abc")


def test_scaled_contrast_validation():
    with pytest.raises(ConfigError):
        ScaledIndex(base=FUSED_SILICA, contrast=0.0)
    with pytest.raises(ConfigError):
        ScaledIndex(base=FUSED_SILICA, contrast=1.0)
    with pytest.raises(ConfigError):
        ScaledIndex(base=FUSED_SILICA, contrast=-0.1)


def test_constant_index():
    m = ConstantIndex(name="test", value=1.45)
    assert refractive_index(m, 1550.0) == 1.45
    vals = refractive_index(m, np.array([500.0, 1500.0]))
    assert np.all(vals == 1.45)
    assert refractive_index(AIR, 800.0) == 1.0


def test_bismuth_flagged_approximate():
    assert BISMUTH_BORATE.approximate
    assert not FUSED_SILICA.approximate
    # Frozen values from the calibrated two-term fit.
    assert refractive_index(BISMUTH_BORATE, 630.0) == pytest.approx(1.76376, abs=2e-5)
    assert refractive_index(BISMUTH_BORATE, 1550.0) == pytest.approx(1.70956, abs=2e-5)


def test_approximate_models_named_through_scaling():
    scaled = ScaledIndex(base=BISMUTH_BORATE, contrast=0.01)
    assert approximate_models(FUSED_SILICA, AIR) == []
    assert approximate_models(BISMUTH_BORATE, AIR) == ["bismuth_borate"]
    assert approximate_models(scaled, BISMUTH_BORATE) == ["bismuth_borate"]


def test_get_material():
    assert get_material("silica") is FUSED_SILICA
    assert get_material("air") is AIR
    m = get_material("constant:1.33")
    assert isinstance(m, ConstantIndex)
    assert m.value == 1.33
    custom = ConstantIndex(name="x", value=2.0)
    assert get_material("x", extra={"x": custom}) is custom
    for spec in ("unobtainium", "constant:zero", "constant:-1.0", "constant:nan", "constant:inf"):
        with pytest.raises(ConfigError):
            get_material(spec)


def test_mismatched_terms_rejected():
    with pytest.raises(ConfigError):
        SellmeierModel(name="bad", b=(1.0, 2.0), c=(1.0,), valid_range_nm=(1, 2))
