import math

import mpmath as mp
import numpy as np
import pytest

from sfwm import modes
from sfwm.config import load_preset
from sfwm.errors import ConfigError, ModeSolveError
from sfwm.materials import AIR, FUSED_SILICA, ConstantIndex, ScaledIndex
from sfwm.modes import (
    FiberSpec,
    effective_index,
    propagation_constant_from_omega,
)
from sfwm.units import c

from oracles import (
    bessel_j01_node_loop,
    bessel_k01e_node_loop,
    he11_index_dense_scan,
    he11_residual_scipy,
    lp01_effective_index,
)


def test_bessel_j01_against_mpmath():
    # One array spanning [0, 60], as the mode scan passes it, and the upper
    # end alone, where the node count is set by u itself.
    u = np.linspace(0.0, 60.0, 601)
    for part in (u, u[-50:]):
        j0, j1 = modes._bessel_j01(part)
        with mp.workdps(30):
            want0 = np.array([float(mp.besselj(0, x)) for x in part])
            want1 = np.array([float(mp.besselj(1, x)) for x in part])
        assert np.max(np.abs(j0 - want0)) <= 2e-15
        assert np.max(np.abs(j1 - want1)) <= 2e-15


def test_bessel_k01e_against_mpmath():
    # The node count grows with ln(1/min w): a fixed rule loses digits at
    # w = 1e-12.  Whole range in one array, then the ends alone.
    w = np.geomspace(1e-12, 1e4, 113)
    with mp.workdps(30):
        want0 = np.array([float(mp.besselk(0, x) * mp.exp(x)) for x in w])
        want1 = np.array([float(mp.besselk(1, x) * mp.exp(x)) for x in w])
    for part in (slice(None), slice(0, 10), slice(-10, None)):
        k0, k1 = modes._bessel_k01e(w[part])
        assert np.max(np.abs(k0 / want0[part] - 1.0)) <= 5e-15
        assert np.max(np.abs(k1 / want1[part] - 1.0)) <= 5e-15


# A bisection step passes one value per wavelength, the scan a wavelength-by-index grid; one
# wavelength alone is the case where numpy's sum over the node axis would pair terms up.
_BESSEL_SHAPES = [(1,), (65,), (33, 40)]


@pytest.mark.parametrize("shape", _BESSEL_SHAPES)
@pytest.mark.parametrize("w_min, w_max, blocks", [(1.0, 5.0, 1), (1e-3, 5.0, 2), (1e-6, 200.0, 3)])
def test_bessel_k01e_same_bits_as_node_loop(shape, w_min, w_max, blocks):
    # Blocks of _NODE_BLOCK nodes, each added in node order, then block sums in block order:
    # the loop that kept 32-node partial sums, to the bit, for any node count.
    w = np.random.default_rng(blocks).uniform(w_min, w_max, shape)
    w.flat[-1], w.flat[0] = w_max, w_min  # one value alone is w_min, which sets the node count
    h = min(0.25, 0.6 / math.sqrt(w.max()))
    nodes = math.ceil(math.acosh(1.0 + modes._K_TAIL / w_min) / h)
    assert min(-(-nodes // modes._NODE_BLOCK), 3) == blocks
    for ours, loop in zip(modes._bessel_k01e(w), bessel_k01e_node_loop(w)):
        assert np.array_equal(ours, loop)


@pytest.mark.parametrize("shape", _BESSEL_SHAPES)
@pytest.mark.parametrize("u_max", [10.0, 49.9, 60.0, 200.0])
def test_bessel_j01_against_node_loop(shape, u_max):
    # Up to _NODE_BLOCK nodes (u below 50, every preset's scan) the one running sum of the old
    # loop and the block sums are the same additions; above, block sums round differently, by
    # a few ulps of the terms' size 1 (up to 6.7e-16 seen on random arguments to u = 200).
    u = np.random.default_rng(int(u_max)).uniform(0.0, u_max, shape)
    u.flat[0], u.flat[-1] = 0.0, u_max  # one value alone is u_max, which sets the node count
    ours, loop = modes._bessel_j01(u), bessel_j01_node_loop(u)
    if int(0.4 * u_max) + 12 <= modes._NODE_BLOCK:
        assert all(np.array_equal(a, b) for a, b in zip(ours, loop))
    else:
        assert max(np.max(np.abs(a - b)) for a, b in zip(ours, loop)) <= 1e-15


@pytest.mark.parametrize("case", ["fig1", "fig4", "multimode"])
def test_solver_matches_scipy_residual(monkeypatch, case):
    if case == "multimode":
        # V = 60-64 over the band: u reaches ~60 on the scan, w spans 2e-3 to 60.
        core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
        fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=44.0)
        lam = np.linspace(1500.0, 1600.0, 21)
    else:
        config = load_preset(case)
        fiber = config.fiber()
        lam = np.linspace(*config.window_nm, 200)
    ours = effective_index(fiber, lam)
    monkeypatch.setattr(modes, "_he11_residual", he11_residual_scipy)
    assert np.max(np.abs(ours - effective_index(fiber, lam))) <= 1e-15


@pytest.mark.parametrize("radius_um", [0.6, 1.652, 5.0, 20.0, 44.0, 150.0])
def test_he11_root_matches_dense_scan(radius_um):
    # V = 0.8 to 210 at 1550 nm.  Order-1 roots crowd at large V (about pi
    # apart in u), and a scan too coarse there brackets a higher mode.
    core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=radius_um)
    lam = 1550.0
    n_co, n_cl = float(core.index(lam)), float(FUSED_SILICA.index(lam))
    want = he11_index_dense_scan(n_co, n_cl, 2.0 * np.pi / lam * fiber.radius_nm)
    assert abs(effective_index(fiber, lam) - want) <= 2 * np.spacing(want)


def test_bounds_and_monotony():
    core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=1.652)
    lams = np.linspace(900.0, 2600.0, 12)
    for lam in lams:
        n = effective_index(fiber, lam)
        n_cl = float(FUSED_SILICA.index(lam))
        n_co = float(core.index(lam))
        assert n_cl < n < n_co


def test_weak_guidance_agreement():
    # At very low contrast the exact vector solution collapses onto the
    # scalar LP01 solution.
    contrast = 1e-3
    core = ScaledIndex(base=FUSED_SILICA, contrast=contrast)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=4.0)
    for lam in (1064.0, 1550.0):
        n_exact = effective_index(fiber, lam)
        n_lp = lp01_effective_index(
            float(core.index(lam)), float(FUSED_SILICA.index(lam)), 4000.0, lam
        )
        assert n_exact == pytest.approx(n_lp, abs=1e-5)


def test_weak_guidance_scaling():
    # The vector/scalar gap shrinks with contrast.
    gaps = []
    for contrast in (4e-3, 1e-3):
        core = ScaledIndex(base=FUSED_SILICA, contrast=contrast)
        fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=4.0)
        n_exact = effective_index(fiber, 1550.0)
        n_lp = lp01_effective_index(
            float(core.index(1550.0)), float(FUSED_SILICA.index(1550.0)), 4000.0, 1550.0
        )
        gaps.append(abs(n_exact - n_lp))
    assert gaps[1] < gaps[0]


def test_large_core_limit():
    # A hugely multimode core: the fundamental index approaches the core
    # index from below.
    core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=50.0)
    n = effective_index(fiber, 1550.0)
    n_co = float(core.index(1550.0))
    assert n < n_co
    assert n_co - n < 2e-4


def test_homogeneous_medium_bypass():
    fiber = FiberSpec(core=AIR, cladding=AIR, radius_um=1.0)
    assert effective_index(fiber, 1550.0) == 1.0
    om = 2.0 * np.pi * c / 1550.0
    assert propagation_constant_from_omega(fiber, om) == pytest.approx(om / c, rel=1e-14)


def test_inverted_profile_rejected():
    lo = ConstantIndex(name="lo", value=1.40)
    hi = ConstantIndex(name="hi", value=1.45)
    fiber = FiberSpec(core=lo, cladding=hi, radius_um=2.0)
    with pytest.raises(ConfigError):
        effective_index(fiber, 1550.0)


def test_unresolvable_contrast_rejected():
    # n_co - n_cl of a few ulps: the search grid's lowest index rounds onto
    # the cladding index, where K0 and K1 diverge.
    core = ScaledIndex(base=FUSED_SILICA, contrast=1e-15)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=4.0)
    with pytest.raises(ModeSolveError):
        effective_index(fiber, 1550.0)


def test_thin_fibre_near_cutoff_not_solved():
    # V ~ 0.25: n_eff - n_cl is below one ulp of n, and the scan finds no root.
    # A solver that returns n_cl there would turn this into a value test.
    core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=0.2)
    with pytest.raises(ModeSolveError, match="no root of the HE11 characteristic equation"):
        effective_index(fiber, 1600.0)


def test_radius_validation():
    for radius_um in (0.0, np.nan):
        with pytest.raises(ConfigError):
            FiberSpec(core=AIR, cladding=AIR, radius_um=radius_um)


def test_continuity_in_wavelength():
    # No mode-order jumps: n_eff(lambda) is smooth on a fine grid.
    core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=1.652)
    lams = np.linspace(1200.0, 2400.0, 200)
    n = effective_index(fiber, lams)
    steps = np.abs(np.diff(n))
    assert steps.max() < 5.0 * np.median(steps) + 1e-12


def test_air_clad_rod():
    # High-contrast geometry: glass rod in air, strongly guiding.
    core = ConstantIndex(name="glass", value=1.76)
    fiber = FiberSpec(core=core, cladding=AIR, radius_um=0.205)
    n = effective_index(fiber, 630.0)
    assert 1.0 < n < 1.76
    v = (2.0 * np.pi / 630.0) * fiber.radius_nm * np.sqrt(1.76**2 - 1.0)
    assert v > 2.405  # past single-mode cutoff, still solvable


def test_propagation_constant_consistency():
    core = ScaledIndex(base=FUSED_SILICA, contrast=0.0274)
    fiber = FiberSpec(core=core, cladding=FUSED_SILICA, radius_um=1.652)
    lam = 1550.0
    om = 2.0 * np.pi * c / lam
    k1 = effective_index(fiber, lam) * 2.0 * np.pi / lam
    k2 = propagation_constant_from_omega(fiber, om)
    assert k1 == pytest.approx(k2, rel=1e-13)
