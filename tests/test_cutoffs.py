"""Tests for the smooth cutoff family and its Mellin machinery."""
import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from gl3osc.cutoffs import (
    ONE_OVER_2PI,
    ONE_OVER_4PI,
    ONE_OVER_8PI,
    Cutoff,
    g_cutoff,
    h0_cutoff,
    h1_cutoff,
    h_cutoff,
    mellin,
    mellin_invert,
    mellin_on_line,
    v0_cutoff,
    weight_w0_w,
)
from gl3osc.errors import ConfigError, MellinDivergenceError, ToleranceUnreachableError

# pinned value of the mollifier bump at 1/(2*pi) with c1 = 1; equals
# exp(-49/48) because 1/(2*pi) maps to u = -1/7 on the reference interval
V_STAR = 0.3602945695614048


def test_bump_v0_support_and_golden_point():
    v0 = v0_cutoff()
    assert v0(0.0) == 0.0
    assert v0(ONE_OVER_8PI) == 0.0
    assert v0(2.0 * ONE_OVER_2PI) == 0.0
    assert abs(v0(ONE_OVER_2PI) - V_STAR) < 1e-15
    assert abs(V_STAR - np.exp(-49.0 / 48.0)) < 1e-16


def test_bump_v0_positive_on_designated_interval():
    xs = np.linspace(ONE_OVER_4PI, ONE_OVER_2PI, 41)
    assert np.all(v0_cutoff()(xs) > 0.0)


def test_bump_v0_c1_widens_support():
    wide = v0_cutoff(c1=3.0)
    assert wide.support_hi == pytest.approx(4.0 * ONE_OVER_2PI)
    assert wide(3.0 * ONE_OVER_2PI) > 0.0
    assert v0_cutoff(c1=1.0)(3.0 * ONE_OVER_2PI) == 0.0


def test_cutoffs_vanish_outside_declared_support_exactly():
    rng = np.random.default_rng(20260814)
    for f in (v0_cutoff(), g_cutoff(), h0_cutoff(500.0, 1.0 / 18.0, 0.01),
              h1_cutoff(500.0, 1.0 / 18.0, 0.01)):
        left = rng.uniform(f.support_lo - 5.0, f.support_lo, 50)
        right = rng.uniform(f.support_hi, f.support_hi + 5.0, 50)
        assert np.all(f(left) == 0.0)
        assert np.all(f(right) == 0.0)
        inside = rng.uniform(f.support_lo, f.support_hi, 200)
        assert np.all(f(inside) >= 0.0)


def test_cutoff_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        Cutoff(support_lo=1.0, support_hi=1.0, fn=lambda y: y)
    with pytest.raises(ConfigError):
        Cutoff(support_lo=0.0, support_hi=1.0, plateau=(0.5, 2.0), fn=lambda y: y)


def test_plateau_h_values():
    h = h_cutoff()
    assert h(0.5) == 1.0
    assert h(1.0) == 1.0
    assert h(3.0) == 0.0
    ys = np.linspace(-3.0, 3.0, 121)
    vals = h(ys)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    np.testing.assert_array_equal(h(-ys), vals)
    assert np.all(h(np.linspace(-1.0, 1.0, 21)) == 1.0)
    assert np.all(h(np.linspace(2.0, 5.0, 21)) == 0.0)


def test_window_telescoping_identity():
    T, kappa, eps = 1000.0, 1.0 / 18.0, 0.01
    ys = np.geomspace(0.05, 20.0, 300)
    h0, h1 = h0_cutoff(T, kappa, eps)(ys), h1_cutoff(T, kappa, eps)(ys)
    # the shared h(y*T^eps) term cancels
    h = h_cutoff()
    rhs = h(ys * T**-kappa) - h(ys * T**kappa)
    np.testing.assert_allclose(h0 + h1, rhs, atol=1e-15)


def test_window_values_at_unit_point():
    for window in (h0_cutoff, h1_cutoff):
        assert 0.0 <= window(1000.0, 1.0 / 18.0, 0.01)(1.0) <= 1.0


def test_window_zero_deep_in_plateau():
    # all three dilations still sit inside h's plateau there
    for window in (h0_cutoff, h1_cutoff):
        assert window(1000.0, 1.0 / 18.0, 0.01)(0.3) == 0.0


def test_window_parameter_validation():
    for window in (h0_cutoff, h1_cutoff):
        with pytest.raises(ConfigError):
            window(1000.0, 0.01, 0.05)   # eps >= kappa
        with pytest.raises(ConfigError):
            window(1000.0, 1.0 / 18.0, -0.01)
        with pytest.raises(ConfigError):
            window(0.5, 1.0 / 18.0, 0.01)  # T <= 1


def test_h0_support_matches_window_geometry():
    T, kappa, eps = 500.0, 1.0 / 18.0, 0.01
    f = h0_cutoff(T, kappa, eps)
    assert f.support_lo == pytest.approx(T**-kappa)
    assert f.support_hi == pytest.approx(2.0 * T**-eps)


def test_bump_g_support_and_normalization():
    g = g_cutoff()
    assert g(1.0) == 0.0
    assert g(ONE_OVER_4PI) == 0.0
    assert g(3.0 / (8.0 * np.pi)) > 0.0
    mass, err = quad(lambda y: g(y) / y, g.support_lo, g.support_hi, limit=200)
    assert abs(mass - 1.0) < 1e-10


def test_weight_w0_w_support_and_ratio():
    assert weight_w0_w(0.5) == (0.0, 0.0)
    assert weight_w0_w(2.5) == (0.0, 0.0)
    w0, w = weight_w0_w(4.0 / 3.0)
    assert w0 > 0.0
    zs = np.linspace(1.01, 1.99, 37)
    w0s, ws = weight_w0_w(zs)
    np.testing.assert_allclose(ws * zs, w0s, atol=1e-14)


def test_mellin_of_h_is_positive_real_on_positive_axis():
    h = h_cutoff()
    for sigma in (0.5, 1.0, 2.0):
        ms = mellin(h, sigma)
        assert ms.value.imag == 0.0
        assert ms.value.real > 0.0
        assert ms.abs_err >= 0.0


def test_mellin_of_h_at_one_pinned():
    # plateau head contributes exactly 1, the symmetric ramp exactly 1/2
    ms = mellin(h_cutoff(), 1.0)
    assert abs(ms.value - 1.5) < 1e-12


def test_mellin_scale_law():
    h = h_cutoff()
    s = 1.0 + 1.0j
    base = mellin(h, s)
    scaled = mellin(h.scaled(2.0), s)
    assert abs(scaled.value - 2.0**s * base.value) < 1e-12


def test_mellin_divergence_for_plateau_at_zero():
    h = h_cutoff()
    with pytest.raises(MellinDivergenceError):
        mellin(h, 0.0)
    with pytest.raises(MellinDivergenceError):
        mellin(h, -1.0 + 2.0j)


def test_mellin_any_line_for_compactly_supported_window():
    # h0 lives away from 0, so every vertical line is fine
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    ms = mellin(f, -2.0 + 1.0j)
    assert np.isfinite(ms.value.real) and np.isfinite(ms.value.imag)


def _smooth_down_mp(t):
    """h's ramp at 30 digits: 1 for t <= 0, 0 for t >= 1."""
    if t <= 0:
        return mp.mpf(1)
    if t >= 1:
        return mp.mpf(0)
    a, b = mp.exp(-1 / (1 - t)), mp.exp(-1 / t)
    return a / (a + b)


def _h0_mellin_mp(T, kappa, eps, s):
    """Integral of h0(y) y^s dy/y at 30 digits, Gauss-Legendre in u = log y
    on panels that break at every ramp end and follow the oscillation."""
    with mp.workdps(30):
        te, tk = mp.mpf(T) ** mp.mpf(eps), mp.mpf(T) ** mp.mpf(kappa)
        sm = mp.mpc(s.real, s.imag)
        ends = sorted([1 / tk, 2 / tk, 1 / te, 2 / te])
        pts = []
        for a, b in zip(ends[:-1], ends[1:]):
            la, lb = mp.log(a), mp.log(b)
            k = max(4, int(abs(s.imag) * (lb - la) / 3) + 4)
            pts.extend(la + (lb - la) * j / k for j in range(k))
        pts.append(mp.log(ends[-1]))

        def f(u):
            y = mp.exp(u)
            return (_smooth_down_mp(y * te - 1) - _smooth_down_mp(y * tk - 1)) * mp.exp(sm * u)

        return complex(mp.quad(f, pts, method="gauss-legendre"))


def test_mellin_on_line_matches_pointwise_mellin():
    # sigma = 3 is the line that the deep contour Re(s) = -3 reflects onto
    ts = np.array([0.0, 47.5, -47.5, 200.0, -200.0])
    for T in (100.0, 500.0):
        f = h0_cutoff(T, 1.0 / 18.0, 0.01)
        for sigma in (-1.0, 0.5, 1.0, 3.0):
            line = mellin_on_line(f, sigma, ts)
            for t, got in zip(ts, line):
                want = _h0_mellin_mp(T, 1.0 / 18.0, 0.01, complex(sigma, t))
                assert abs(got - want) <= 1e-13, (T, sigma, t)
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    for t, got in zip((-3.0, 0.0, 2.0), mellin_on_line(f, 0.5, [-3.0, 0.0, 2.0])):
        assert abs(got - mellin(f, 0.5 + 1j * t).value) < 1e-10


@pytest.mark.parametrize("name", ["v0", "g", "h0", "h1"])
def test_mellin_on_line_converges_for_each_cutoff(name):
    # the line's n/2 estimate must settle for every C-infinity cutoff
    f = {"v0": v0_cutoff(), "g": g_cutoff(), "h0": h0_cutoff(500.0, 1.0 / 18.0, 0.01),
         "h1": h1_cutoff(500.0, 1.0 / 18.0, 0.01)}[name]
    ts = np.array([0.0, 47.5, -200.0])
    for sigma in (-1.0, 3.0):
        for t, got in zip(ts, mellin_on_line(f, sigma, ts)):
            want = mellin(f, sigma + 1j * t)
            assert abs(got - want.value) <= 1e-10 + want.abs_err, (sigma, t)


def test_mellin_on_line_refuses_a_kink():
    # a tent converges only like h^2, so the line is refused, not returned
    tent = Cutoff(support_lo=1.0, support_hi=2.0,
                  fn=lambda y: np.maximum(0.0, 1.0 - np.abs(2.0 * y - 3.0)))
    with pytest.raises(ToleranceUnreachableError) as info:
        mellin_on_line(tent, 0.5, [0.0, 47.5, 200.0])
    assert info.value.achieved > 0.0


def test_mellin_inversion_round_trip():
    # reconstruct the window from its transform on the Re(s) = 1 line
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    lo, hi = f.support_lo, f.support_hi
    points = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)
    for y in points:
        got = mellin_invert(f, float(y), tol=1e-9, re_line=1.0)
        want = f(float(y))
        assert abs(got - want) <= 1e-6
        assert abs(got.imag) <= 1e-6


def test_mellin_invert_rejects_nonpositive_point():
    with pytest.raises(ConfigError):
        mellin_invert(h0_cutoff(500.0, 1.0 / 18.0, 0.01), 0.0)


def test_scaled_cutoff_tracks_support_and_values():
    g = g_cutoff()
    c = 4.0 * np.pi
    gc = g.scaled(c)
    assert gc.support_lo == pytest.approx(1.0)
    assert gc.support_hi == pytest.approx(2.0)
    xs = np.linspace(0.9, 2.1, 50)
    np.testing.assert_allclose(gc(xs), g(xs / c), atol=0.0)
