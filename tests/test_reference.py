"""Printed roots against the 45-digit reference chain of `oracles`.

The chain (`oracles.reference_roots`) takes sfwm's float64 constants exactly and runs the
Sellmeier index, the pole-free HE11 residual on mpmath's Bessel functions, k' and k'' by
`mp.diff`, Newton for each full group-velocity match, `findroot` on k'' for the zero-dispersion
wavelengths and P* = dk / (2 gamma) at 45 digits.  It takes 150-210 s a preset, so its output
is frozen here; only one `findroot` of it runs per preset.  The roots sfwm prints come from its
Chebyshev proxy of k, which the tolerances below bound as it stands: each is about 1.5 times
the largest error on the presets, all on fig3 (pump -1.37e-5 nm, delta 4.5e-10 rad/fs, P*
-3.5e-7 relative, zero-dispersion wavelength -2.0e-5 nm); fig1 and fig4 err by 2e-9 relative
in P* and 3e-6 nm or less elsewhere.
"""

import mpmath as mp
import numpy as np
import pytest

from sfwm.config import load_preset
from sfwm.dispersion import zero_dispersion_wavelengths
from sfwm.modes import propagation_constant_from_omega
from sfwm.phasematching import critical_power
from sfwm.units import omega_from_wavelength, wavelength_from_omega

from oracles import CHAIN_DPS, mp_propagation_constant

# oracles.reference_roots(load_preset(name)): per full group-velocity match, in the order
# `find_fgvm_points` lists them, the pump (nm), delta (rad/fs) and P* (W, printed where > 0),
# then the zero-dispersion wavelengths (nm).  fig2b shares fig3's fibre and window.
REFERENCE = {
    "fig1": (
        [
            (1891.5790628825785, 0.2144887329888824, -361.41266725229025),
            (1704.6625237929684, 0.32930095897694617, -236.36468268373855),
            (1568.8374337755643, 0.199986317024223, 120.43088806990224),
        ],
        [1434.0347204179564, 1734.038723626018, 2224.028004243366],
    ),
    "fig3": (
        [(1552.1032311132356, 0.05818279388949393, 0.9496252076892009)],
        [1510.5769781984748, 1596.522972923316],
    ),
    "fig4": (
        [(628.4480936633124, 0.10516169151058706, 9.282517127383906)],
        [616.1993846215266, 641.700229625739],
    ),
}
REFERENCE["fig2b"] = REFERENCE["fig3"]

PUMP_NM_TOL = 2e-5
DELTA_RAD_FS_TOL = 7e-10
P_STAR_RTOL = 5e-7
ZDW_NM_TOL = 3e-5
# The mode solver itself matches the chain to about 2 ulp of k.
K_ULPS = 4


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig4"])
def test_mode_solver_k_matches_the_chain(name):
    # One findroot of the chain at each preset's pump: the HE11 solve is good to a few ulps.
    fiber = load_preset(name).fiber()
    omega = float(omega_from_wavelength(REFERENCE[name][0][-1][0]))
    k = propagation_constant_from_omega(fiber, omega)
    with mp.workdps(CHAIN_DPS):
        want = mp_propagation_constant(fiber, mp.mpf(omega))
    assert abs(float(k - want)) <= K_ULPS * np.spacing(k)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_printed_roots_match_the_reference(name):
    config = load_preset(name)
    profile = config.profile()
    matches, zdws = REFERENCE[name]
    assert len(profile.matches) == len(matches)
    for m, (pump_nm, delta, p_star) in zip(profile.matches, matches):
        assert abs(wavelength_from_omega(m.omega_p) - pump_nm) <= PUMP_NM_TOL
        assert abs(m.delta - delta) <= DELTA_RAD_FS_TOL
        got = critical_power(profile, m.omega_p, m.delta, config.gamma)
        assert (got > 0) == (p_star > 0)
        if p_star > 0:
            assert got == pytest.approx(p_star, rel=P_STAR_RTOL, abs=0.0)
    assert zero_dispersion_wavelengths(profile) == pytest.approx(zdws, rel=0.0, abs=ZDW_NM_TOL)
