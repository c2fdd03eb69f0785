"""Scalar and 1-element-array calls of every public vectorized callable agree
bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3osc.cutoffs import g_cutoff, h0_cutoff, h1_cutoff, h_cutoff, v0_cutoff, weight_w0_w
from gl3osc.gammafactor import DEFAULT_ALPHA, LanglandsParams, gamma_pi, gamma_pi_line
from gl3osc.util import e
from gl3osc.whittaker import whittaker_diag

# fixed example stream, so Tier-1 runs the same draws every time
PARITY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

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
                   st.floats(0.0, exclude_min=True, allow_infinity=False)),
       c1=st.floats(0.25, 2.0))
def test_weight_pair_scalar_equals_array(z, c1):
    # every positive double, subnormals included, with half the draws
    # around the support [1, 2] where the weights are nonzero
    for scalar, array in zip(weight_w0_w(z, c1), weight_w0_w(np.array([z]), c1)):
        assert _same_bits(scalar, array[0])


@PARITY
@given(u=st.floats(-0.1, 1.0), T=frequencies)
def test_whittaker_diag_scalar_equals_array(u, T):
    # v0(y / T^(3/2)) lives on y < 0.32 T^(3/2)
    y = 0.4 * u * T**1.5
    assert _same_bits(whittaker_diag(y, T), whittaker_diag(np.array([y]), T)[0])


@PARITY
@given(x=st.floats(-1e6, 1e6))
def test_unit_exponential_scalar_equals_array(x):
    assert _same_bits(e(x), e(np.array([x]))[0])


@pytest.mark.parametrize("which", sorted(PARAMS))
@PARITY
@given(sigma=st.floats(-3.0, 3.0), t=st.floats(1.0, 500.0), sign=st.sampled_from((1.0, -1.0)))
def test_gamma_scalar_equals_line(which, sigma, t, sign):
    # |Im s| >= 1 keeps s clear of every pole and zero of both parameter
    # sets, whose alphas have imaginary parts in [-0.3, 0.5]
    params = PARAMS[which]
    s = complex(sigma, sign * t)
    assert _same_bits(gamma_pi(s, params), gamma_pi_line(np.array([s]), params)[0])
