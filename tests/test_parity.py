"""Scalar and 1-element-array calls of every public vectorized callable agree
bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3osc.criteria import bump_battery
from gl3osc.cutoffs import (g_cutoff, h0_cutoff, h1_cutoff, h_cutoff, mellin_invert, v0_cutoff,
                            weight_w0_w)
from gl3osc.errors import ConfigError
from gl3osc.gammafactor import DEFAULT_ALPHA, LanglandsParams, gamma_pi, gamma_pi_line

# fixed example stream, so Tier-1 runs the same draws every time
PARITY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# an inversion takes tens of milliseconds, so fewer draws
INVERT_PARITY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

CUTOFFS = {
    "v0": lambda T: v0_cutoff(),
    "g": lambda T: g_cutoff(),
    "h": lambda T: h_cutoff(),
    "h0": lambda T: h0_cutoff(T, 1.0 / 18.0, 0.01),
    "h1": lambda T: h1_cutoff(T, 1.0 / 18.0, 0.01),
}

PARAMS = {
    "default": LanglandsParams(alpha=DEFAULT_ALPHA),
    "d3": LanglandsParams(alpha=(0.0j, 0.0j, 0.0j)),
}

frequencies = st.floats(2.0, 1e4)


def _same_bits(scalar, element) -> bool:
    a, b = np.asarray(scalar), np.asarray(element)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CUTOFFS))
@PARITY
@given(u=st.floats(-0.25, 1.25), T=frequencies)
def test_cutoff_scalar_equals_array(name, u, T):
    # u maps onto the support and a quarter of its width either side
    f = CUTOFFS[name](T)
    y = f.support_lo + u * (f.support_hi - f.support_lo)
    assert _same_bits(f(y), f(np.array([y]))[0])


@PARITY
@given(z=st.one_of(st.floats(0.5, 2.5),
                   st.floats(0.0, exclude_min=True, allow_infinity=False)))
def test_weight_pair_scalar_equals_array(z):
    # every positive double, subnormals included, with half the draws
    # around the support [1, 2] where the weights are nonzero
    for scalar, array in zip(weight_w0_w(z), weight_w0_w(np.array([z]))):
        assert _same_bits(scalar, array[0])


@pytest.mark.parametrize("which", sorted(PARAMS))
@PARITY
@given(sigma=st.floats(-3.0, 3.0), t=st.floats(1.0, 500.0), sign=st.sampled_from((1.0, -1.0)))
def test_gamma_scalar_equals_line(which, sigma, t, sign):
    # |Im s| >= 1 keeps s clear of every pole and zero of both parameter
    # sets, whose alphas have imaginary parts in [-0.3, 0.5]
    params = PARAMS[which]
    s = complex(sigma, sign * t)
    assert _same_bits(gamma_pi(s, params), gamma_pi_line(np.array([s]), params)[0])


@INVERT_PARITY
@given(log_y=st.floats(-3.0, 3.0))
def test_mellin_invert_scalar_equals_array(log_y):
    # |log y| past 1 widens the shells' grids, so both grid sizes are drawn
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    y = float(np.exp(log_y))
    assert _same_bits(mellin_invert(f, y), mellin_invert(f, [y])[0])


def test_mellin_invert_batch_equals_each_point_alone():
    # A08's five points, as bump_battery inverts them in one batch, and
    # y = 2.7 past the support (|log y| < 1 still), which stops a shell
    # before them: each point stops on its own shell and keeps its lone grid
    outputs, _ = bump_battery()
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    points = [*outputs["roundtrip_points"], 2.7]
    batch = mellin_invert(f, points)
    assert all(_same_bits(a, b) for a, b in zip(batch, outputs["roundtrip_values"]))
    for y, got in zip(points, batch, strict=True):
        assert _same_bits(mellin_invert(f, y), got)
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ConfigError):
            mellin_invert(f, [*points, bad])
