"""Tests for the diagonal special function and the local zeta integrals,
whose scaling laws are fit by `criteria.local_zeta_battery`."""
import math

import numpy as np
import pytest

from gl3osc.criteria import SCALING_T_GRID, local_zeta_battery
from gl3osc.errors import ConfigError, InsufficientGridError
from gl3osc.util import TWO_PI
from gl3osc.whittaker import K_ZETA_REL, LocalZetaParams, c_constant, local_zeta

V_STAR = 0.3602945695614048  # bump value at 1/(2*pi), c1 = 1


def test_zeta_params_validation():
    with pytest.raises(ConfigError):
        LocalZetaParams(T=0.0)
    with pytest.raises(ConfigError):
        LocalZetaParams(T=100.0, s=0.6 + 0.0j)
    with pytest.raises(ConfigError):
        LocalZetaParams(T=100.0, c1=0.0)


@pytest.mark.parametrize("field", ["T", "c1"])
def test_zeta_params_refuse_nan(field):
    # NaN fails every comparison, so a check written with <= let it through
    with pytest.raises(ConfigError):
        LocalZetaParams(**{"T": 100.0, field: math.nan})


@pytest.mark.parametrize("field, value", [("T", math.inf), ("c1", math.inf),
                                          ("s", complex(0.0, math.inf))])
def test_zeta_params_refuse_inf(field, value):
    # c1 = inf was accepted, and local_zeta then spent its whole panel
    # budget before it raised ToleranceUnreachableError
    with pytest.raises(ConfigError):
        LocalZetaParams(**{"T": 100.0, field: value})


def test_zeta_level_matches_constant_modulus():
    # |Z| * sqrt(T) settles at |C_T| = 2*pi*V0(1/(2*pi))
    T = 2000.0
    z = local_zeta(LocalZetaParams(T=T), tol=1e-11)
    level = abs(z.value) * np.sqrt(T)
    want = TWO_PI * V_STAR
    assert abs(level - want) <= 0.02 * want


def test_zeta_relative_error_envelope():
    for T in (250.0, 500.0, 1000.0):
        z = local_zeta(LocalZetaParams(T=T), tol=1e-11)
        pred = c_constant(T) * T**-0.5
        rel = abs(z.value - pred) / abs(z.value)
        assert rel <= K_ZETA_REL / T


@pytest.fixture(scope="module")
def zeta_outputs():
    # the A04 grid and the A05 strip, at a tighter tol than the battery's own
    return local_zeta_battery(SCALING_T_GRID, strip_ts=(250.0, 1000.0), tol=1e-11)[0]


def test_zeta_scaling_study_slopes_and_level(zeta_outputs):
    assert -0.55 <= zeta_outputs["slope_abs_z"] <= -0.45
    assert -1.8 <= zeta_outputs["slope_residual"] <= -1.2
    want = TWO_PI * V_STAR
    assert abs(zeta_outputs["normalized"][-1] - want) <= 0.02 * want


def test_zeta_negative_half_line_band(zeta_outputs):
    # at Re(s) = -1/2 the normalized level |Z| * T^(5/4) stays in a 2x band
    strip = zeta_outputs["strip_normalized"]
    assert len(strip) == 2
    assert zeta_outputs["strip_band_ratio"] == max(strip) / min(strip)
    assert zeta_outputs["strip_band_ratio"] <= 2.0


def test_zeta_scaling_study_needs_a_grid():
    # a strip of one T has no band; two critical-line T fit no slope
    with pytest.raises(ConfigError):
        local_zeta_battery(strip_ts=(500.0,))
    with pytest.raises(InsufficientGridError):
        local_zeta_battery((250.0, 500.0))


def test_zeta_negligible_far_outside_core_imaginary_range():
    # the stationary point z0 = (T + Im s)/(2 pi T) stays in the support of
    # V0 only while -3T/4 <= Im s <= c1 T; both points lie far outside
    T, c1 = 500.0, 1.0
    for tau in (-1.5 * T, 3.0 * T):
        assert not (-0.75 * T <= tau <= c1 * T)
        z = local_zeta(LocalZetaParams(T=T, s=1j * tau, c1=c1), tol=1e-12)
        assert abs(z.value) <= 1e-8


def test_c_constant_modulus_is_t_independent():
    for T in (10.0, 250.0, 1000.0, 12345.6):
        assert abs(abs(c_constant(T)) - TWO_PI * V_STAR) < 1e-12


def test_c_constant_rejects_nonpositive_t():
    with pytest.raises(ConfigError):
        c_constant(0.0)
    # a NaN T had returned NaN with RuntimeWarnings
    for T, c1 in ((math.nan, 1.0), (math.inf, 1.0), (100.0, math.nan), (100.0, math.inf)):
        with pytest.raises(ConfigError):
            c_constant(T, c1)


def test_c_constant_phase_rotation_rate():
    # d(arg C_T)/dT = (3/2) ln T + 1/2 - ln(2*pi)
    T, d = 500.0, 1e-3
    got = np.angle(c_constant(T + d) / c_constant(T)) / d
    want = 1.5 * np.log(T) + 0.5 - np.log(TWO_PI)
    assert abs(got - want) < 1e-4
