"""Tests for the smooth cutoff family and its Mellin machinery."""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from gl3osc import cutoffs, gammafactor
from gl3osc.cutoffs import (
    ONE_OVER_2PI,
    ONE_OVER_4PI,
    ONE_OVER_8PI,
    Cutoff,
    g_cutoff,
    h0_cutoff,
    h1_cutoff,
    h_cutoff,
    mellin_invert,
    mellin_on_line,
    v0_cutoff,
    weight_w0_w,
)
from gl3osc.errors import (ConfigError, MellinDivergenceError, TailNotConvergedError,
                           ToleranceUnreachableError)
from gl3osc.util import TWO_PI, _line_shells, kahan_csum


def _quad_mellin(f, s):
    """integral f(y) y^s dy/y by scipy's adaptive quad, an oracle only:
    (value, error estimate), with the settings of the package's former
    scalar transform."""
    val, err = quad(lambda y: f.fn(np.asarray(y)) * y ** (s - 1.0),
                    f.support_lo, f.support_hi,
                    complex_func=True, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val, abs(err)


# pinned value of the mollifier bump at 1/(2*pi) with c1 = 1; equals
# exp(-49/48) because 1/(2*pi) maps to u = -1/7 on the reference interval
V_STAR = 0.3602945695614048


def _gathered_bump(lo, hi, y):
    """The exp bump by a boolean gather and scatter, as it was evaluated
    before it took exp(-inf) = 0 outside its support."""
    u = (y - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def test_bump_v0_support_and_golden_point():
    v0 = v0_cutoff()
    assert v0(0.0) == 0.0
    assert v0(ONE_OVER_8PI) == 0.0
    assert v0(2.0 * ONE_OVER_2PI) == 0.0
    assert abs(v0(ONE_OVER_2PI) - V_STAR) < 1e-15
    assert abs(V_STAR - np.exp(-49.0 / 48.0)) < 1e-16
    # the gather form's bits everywhere: across and beyond the support, at
    # its ends (|u| = 1) and the floats next to them, at NaN and +-inf
    lo, hi = v0.support_lo, v0.support_hi
    edges = np.array([lo, hi, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0),
                      np.nextafter(hi, 0.0), np.nextafter(hi, 1.0)])
    y = np.concatenate([np.linspace(lo - 0.1, hi + 0.1, 100_000), edges,
                        [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300]])
    got = cutoffs._exp_bump_fn(lo, hi)(y)
    want = _gathered_bump(lo, hi, y)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[-6:-3].tolist() == [0.0, 0.0, 0.0]


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
        # NaN and inf passed the old `<=` checks: (inf, 1/18, 0) gave h0 the
        # support [0, 2] and (inf, 1, 0) gave h1 the support [1, inf]
        for T, kappa, eps in ((math.nan, 1.0 / 18.0, 0.01), (math.inf, 1.0 / 18.0, 0.0),
                              (math.inf, 1.0, 0.0), (1000.0, math.inf, 0.01),
                              (1000.0, math.nan, 0.01), (1000.0, 1.0 / 18.0, math.nan)):
            with pytest.raises(ConfigError):
                window(T, kappa, eps)


@pytest.mark.parametrize("c1", [0.0, math.nan, math.inf])
def test_v0_refuses_a_bad_c1(c1):
    # c1 = inf had built a bump with support_hi = inf
    with pytest.raises(ConfigError):
        v0_cutoff(c1)


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


def test_g_normalization_keeps_adaptive_quads_value():
    # scipy's adaptive quad, here only as an oracle: the GL16 rule on
    # _G_NORM_PANELS panels gives g the normalization quad gave it, bit for bit
    raw = cutoffs._exp_bump_fn(ONE_OVER_4PI, ONE_OVER_2PI)
    norm, err = quad(lambda y: raw(y) / y, ONE_OVER_4PI, ONE_OVER_2PI,
                     epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err <= cutoffs._G_NORM_TOL
    ys = np.linspace(ONE_OVER_4PI, ONE_OVER_2PI, 101)
    np.testing.assert_array_equal(g_cutoff()(ys), raw(ys) / norm)


def test_g_normalization_refuses_a_rule_that_misses_its_tolerance(monkeypatch):
    # 2 panels against 1 differ by far more than _G_NORM_TOL
    monkeypatch.setattr(cutoffs, "_G_CACHE", {})
    monkeypatch.setattr(cutoffs, "_G_NORM_PANELS", 2)
    with pytest.raises(ConfigError, match="g normalization quadrature failed"):
        g_cutoff()


def test_weight_w0_w_support_and_ratio():
    assert weight_w0_w(0.5) == (0.0, 0.0)
    assert weight_w0_w(2.5) == (0.0, 0.0)
    w0, w = weight_w0_w(4.0 / 3.0)
    assert w0 > 0.0
    zs = np.linspace(1.01, 1.99, 37)
    w0s, ws = weight_w0_w(zs)
    np.testing.assert_allclose(ws * zs, w0s, atol=1e-14)


def test_mellin_of_h_at_one_pinned():
    # at s = 1 the transform is integral h(y) dy over (0, 2): the plateau
    # contributes exactly 1, the point-symmetric ramp exactly 1/2
    value, err = quad(h_cutoff(), 0.0, 2.0, points=[1.0], epsabs=1e-14)
    assert err < 1e-12
    assert abs(value - 1.5) < 1e-12


def test_mellin_scale_law():
    # the dilation y -> g(y/c) picks up c^s
    g = g_cutoff()
    c, s = 2.0, 1.0 + 1.0j
    dilated = Cutoff(support_lo=g.support_lo * c, support_hi=g.support_hi * c,
                     fn=lambda y: g.fn(np.asarray(y, dtype=float) / c))
    base = mellin_on_line(g, s.real, [s.imag])[0]
    scaled = mellin_on_line(dilated, s.real, [s.imag])[0]
    assert abs(scaled - c**s * base) < 1e-12


def test_mellin_divergence_for_plateau_at_zero():
    # h is 1 near 0, so its transform needs a head term mellin_on_line does
    # not compute: a support that touches 0 is refused on every line
    h = h_cutoff()
    for s in (1.0, 0.0, -1.0 + 2.0j):
        with pytest.raises(MellinDivergenceError):
            mellin_on_line(h, s.real, [s.imag])


def test_mellin_any_line_for_compactly_supported_window():
    # h0 lives away from 0, so every vertical line is fine
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    value = mellin_on_line(f, -2.0, [1.0])[0]
    assert np.isfinite(value.real) and np.isfinite(value.imag)
    assert abs(value - _quad_mellin(f, -2.0 + 1.0j)[0]) < 1e-10


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
        assert abs(got - _quad_mellin(f, 0.5 + 1j * t)[0]) < 1e-10


def test_mellin_on_line_at_contour_height():
    # the deep contour reaches |t| in the thousands on the reflected line;
    # there a direct exponential rounds a phase of size |t u|, while the
    # lattice products start from t log(lo) and add steps of t h
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    got = mellin_on_line(f, 3.0, [1000.7])[0]
    want = _h0_mellin_mp(500.0, 1.0 / 18.0, 0.01, complex(3.0, 1000.7))
    assert abs(got - want) <= 1e-15


def test_mellin_on_line_chunks_keep_the_bits(monkeypatch):
    # chunks of a few ordinates each give the default chunk's bits; a
    # chunk of one would not, as numpy takes a matrix-vector product there
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    ts = np.concatenate([np.linspace(-300.0, 300.0, 64), [0.0, -0.0, 1000.7, -2.5]])
    want = mellin_on_line(f, 3.0, ts)
    sizes = []

    def spy(head, step, offsets):
        sizes.append(head.size)
        return lattice(head, step, offsets)

    lattice = cutoffs._lattice_exp
    monkeypatch.setattr(cutoffs, "_lattice_exp", spy)
    monkeypatch.setattr(cutoffs, "BLOCK_ELEMENTS", 1 << 9)
    got = mellin_on_line(f, 3.0, ts)
    assert 2 <= min(sizes) and max(sizes) <= ts.size // 4
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # at the default chunk, max|t| = 40 sets a chunk step of 2,048: 2,049
    # ordinates left the last one alone in its chunk, rounded apart from
    # the same ordinate of a 2,050-ordinate call in 17 of 20 draws (all
    # three of these)
    monkeypatch.undo()
    for seed in range(3):
        ts = np.concatenate([[40.0], np.random.default_rng(seed).uniform(-40.0, 40.0, 2049)])
        lone, pair = mellin_on_line(f, 0.0, ts[:2049]), mellin_on_line(f, 0.0, ts)[:2049]
        assert np.array_equal(lone.view(np.int64), pair.view(np.int64))


def _signed_line(f, re_line, ts):
    """The Mellin line summed on the ordinates exactly as given, with no
    fold of +-t: the oracle of the fold's bits."""
    flat = np.asarray(ts, dtype=float).ravel()
    ulo = math.log(f.support_lo)
    span = math.log(f.support_hi) - ulo
    n = cutoffs.LINE_MIN_NODES
    while n * math.pi < (np.max(np.abs(flat)) + cutoffs.LINE_MARGIN) * span:
        n *= 2
    while True:
        h = span / n
        u = ulo + h * np.arange(n + 1)
        w = np.full(n + 1, h)
        w[0] = w[n] = 0.5 * h
        base = f.fn(np.exp(u)) * np.exp(re_line * u) * w
        even, odd = cutoffs._lattice_sums(ulo, h, base, flat, lambda a: a.sum(axis=1))
        if np.max(np.abs(odd - even)) <= cutoffs.LINE_REL_TOL * float(np.sum(np.abs(base))):
            return (even + odd).reshape(np.shape(ts))
        n *= 2


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.int64)


_CUTOFFS = {"v0": v0_cutoff, "g": g_cutoff, "h0": lambda: h0_cutoff(500.0, 1.0 / 18.0, 0.01),
            "h1": lambda: h1_cutoff(500.0, 1.0 / 18.0, 0.01)}


def _ordinate_sets():
    # zeros of both signs, a lone negative t, mirrored pairs, a third
    # ordinate beside a pair, a lattice like a shell's nodes, and
    # 9,001 ordinates, 4,499 of them mirrored
    t = 37.25
    x = np.random.default_rng(36).uniform(-3000.0, 3000.0, 4500)
    return [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, 2.5], [-t], [t, -t], [t, -t, 1.5 * t],
            [-t, t, -t], np.arange(-40.0, 41.0) * 0.75, np.concatenate([x, [0.0, -0.0], -x[:4499]])]


@pytest.mark.parametrize("re_line", [-1.0, 0.0, 3.0])
@pytest.mark.parametrize("name", ["v0", "g", "h0", "h1"])
def test_mellin_on_line_keeps_the_signed_ordinate_bits(name, re_line):
    # a real cutoff takes each distinct |t| once and conjugates for t < 0;
    # every ordinate keeps the bits of the sum over the signed ordinates
    f = _CUTOFFS[name]()
    for ts in _ordinate_sets():
        got, want = mellin_on_line(f, re_line, ts), _signed_line(f, re_line, ts)
        assert np.array_equal(_bits(got), _bits(want)), (name, re_line, np.size(ts))


def test_mellin_on_line_takes_a_complex_cutoff_as_given():
    # F(c - it) = conj F(c + it) fails for a complex-valued cutoff, so its
    # ordinates are summed as given; a fold would be wrong by far more
    # than rounding
    v0 = v0_cutoff()
    twisted = Cutoff(support_lo=v0.support_lo, support_hi=v0.support_hi,
                     fn=lambda y: v0.fn(y) * (1.0 + 2.0j * y))
    ts = np.array([0.0, 3.0, -3.0, 7.5, -12.0, 12.0])
    got, want = mellin_on_line(twisted, 1.0, ts), _signed_line(twisted, 1.0, ts)
    assert np.array_equal(_bits(got), _bits(want))
    folded = _signed_line(twisted, 1.0, np.abs(ts))
    folded[ts < 0.0] = folded[ts < 0.0].conj()
    assert np.max(np.abs(folded - want)) > 1e-3 * np.max(np.abs(want))


def _two_pass_trapezoid(base, phis, scales, rate, tol, start, top):
    """`_line_trapezoid` with one base call for each side of a doubling and
    the sides' figures added positive + negative: the oracle of its bits."""
    dt = math.pi / (rate + cutoffs.LINE_RATE_MARGIN)

    def side(lo, hi):
        js = np.arange(math.floor(lo / dt) + 1.0, math.floor(hi / dt) + 1.0)
        t = js * dt
        weighted = base(t) * dt
        sums = [cutoffs._lattice_sums(float(t[0]), dt, weighted, np.asarray(row), kahan_csum)
                for row in phis]
        even, odd = (np.concatenate(p).tolist() for p in zip(*sums))
        if js[0] % 2.0:
            even, odd = odd, even
        return np.array([[(e + o) * x / TWO_PI, (o - e) * x / TWO_PI]
                         for e, o, x in zip(even, odd, scales)])

    def shell(lo, hi):
        return side(-hi, hi) if lo == 0.0 else side(lo, hi) + side(-hi, -lo)

    while True:
        total = _line_shells(shell, start, tol, top, "oracle")
        est = np.abs(total[:, 1])
        if np.all(est <= tol / 2.0):
            return total[:, 0], est
        dt /= 2.0


def _skewed(t):
    # a Gaussian with a factor that has no symmetry in t
    return np.exp(-0.5 * t * t) * (1.0 + 0.3j * t) * np.exp(0.7j * t)


@pytest.mark.parametrize("phis", [[[0.0, 0.5, -1.3, 3.0]], [[0.5], [-1.3], [3.0], [0.0]]])
def test_line_trapezoid_sums_each_side_as_its_own_pass(phis):
    # one base call a shell for both sides, yet each side summed on its own
    # and added positive + negative: the bits of a pass a side
    calls = []

    def counted(t):
        calls.append(t.size)
        return _skewed(t)

    scales = [1.0, 0.5, 2.0, 3.0]
    want = _two_pass_trapezoid(_skewed, phis, scales, 4.0, 1e-13, 1.0, 64.0)
    got = cutoffs._line_trapezoid(counted, phis, scales, 4.0, 1e-13, 1.0, 64.0, "test",
                                  kahan_csum)
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))
    assert len(calls) >= 4


@pytest.mark.parametrize("sigma, zs, T", [(0.0, [0.5, 1.0, 2.0], 100.0),
                                          (-3.0, [500.0**-0.3, 500.0**-0.6], 500.0)])
def test_contour_sums_each_side_as_its_own_pass(monkeypatch, sigma, zs, T):
    # the kernel contour's base, F(-s) by one Mellin line for both sides
    # times gamma, which has no symmetry in t: the bits of a pass a side
    seen = {}

    def spy(*args):
        seen["args"] = args[:7]
        return cutoffs._line_trapezoid(*args)

    monkeypatch.setattr(gammafactor, "_line_trapezoid", spy)
    got = gammafactor._contour_quad(zs, T, sigma, 1e-8)
    want = _two_pass_trapezoid(*seen["args"])
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))


@pytest.mark.parametrize("run", [
    lambda: gammafactor.g_kernel(0.5, 500.0),
    lambda: mellin_invert(h0_cutoff(500.0, 1.0 / 18.0, 0.01), [0.5, 0.9]),
], ids=["g_kernel", "mellin_invert"])
def test_each_doubling_evaluates_each_abs_t_once(monkeypatch, run):
    # one Mellin line a shell, whose lattice products take exactly the
    # distinct |t| of the shell's nodes, both sides of each doubling in one
    per_shell, lines, inside = [], [], []
    shells, line, sums = cutoffs._line_shells, cutoffs.mellin_on_line, cutoffs._lattice_sums

    def watched_shells(shell, *args):
        def traced(lo, hi):
            before = len(lines)
            out = shell(lo, hi)
            per_shell.append(len(lines) - before)
            return out

        return shells(traced, *args)

    def watched_line(f, re_line, ts):
        lines.append((np.array(ts, dtype=float), []))
        inside.append(True)
        try:
            return line(f, re_line, ts)
        finally:
            inside.pop()

    def watched_sums(u0, h, base, freqs, add):
        if inside:
            lines[-1][1].append(np.array(freqs))
        return sums(u0, h, base, freqs, add)

    monkeypatch.setattr(cutoffs, "_line_shells", watched_shells)
    monkeypatch.setattr(cutoffs, "mellin_on_line", watched_line)
    monkeypatch.setattr(gammafactor, "mellin_on_line", watched_line)
    monkeypatch.setattr(cutoffs, "_lattice_sums", watched_sums)
    run()
    assert len(per_shell) >= 3 and per_shell == [1] * len(per_shell)
    for ts, evaluated in lines:
        distinct = np.unique(np.abs(ts))
        assert distinct.size < ts.size
        assert evaluated and all(np.array_equal(e, distinct) for e in evaluated)


@pytest.mark.parametrize("name", ["v0", "g", "h0", "h1"])
def test_mellin_on_line_converges_for_each_cutoff(name):
    # the line's n/2 estimate must settle for every C-infinity cutoff
    f = {"v0": v0_cutoff(), "g": g_cutoff(), "h0": h0_cutoff(500.0, 1.0 / 18.0, 0.01),
         "h1": h1_cutoff(500.0, 1.0 / 18.0, 0.01)}[name]
    ts = np.array([0.0, 47.5, -200.0])
    for sigma in (-1.0, 3.0):
        for t, got in zip(ts, mellin_on_line(f, sigma, ts)):
            want, err = _quad_mellin(f, sigma + 1j * t)
            assert abs(got - want) <= 1e-10 + err, (sigma, t)


def test_mellin_on_line_refuses_a_kink():
    # a tent converges only like h^2, so the line is refused, not returned
    tent = Cutoff(support_lo=1.0, support_hi=2.0,
                  fn=lambda y: np.maximum(0.0, 1.0 - np.abs(2.0 * y - 3.0)))
    with pytest.raises(ToleranceUnreachableError) as info:
        mellin_on_line(tent, 0.5, [0.0, 47.5, 200.0])
    assert info.value.achieved > 0.0


@pytest.mark.parametrize("re_line, t", [(0.0, math.nan), (math.nan, 0.0), (0.0, math.inf)])
def test_mellin_on_line_refuses_a_nonfinite_argument(re_line, t):
    # a NaN doubled the nodes up to LINE_MAX_NODES before it raised
    # ToleranceUnreachableError, and an infinite ordinate raised that at
    # once; both are refused before the cutoff is evaluated at all
    def never(y):
        raise AssertionError("evaluated the cutoff")

    with pytest.raises(ConfigError, match="finite"):
        mellin_on_line(Cutoff(support_lo=1.0, support_hi=2.0, fn=never), re_line, [1.0, t])
    with pytest.raises(ConfigError, match="finite"):
        mellin_on_line(g_cutoff(), re_line, [t])


def test_mellin_inversion_round_trip():
    # reconstruct the window from its transform on the Re(s) = 1 line
    f = h0_cutoff(500.0, 1.0 / 18.0, 0.01)
    lo, hi = f.support_lo, f.support_hi
    points = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)
    for y in points:
        got = mellin_invert(f, float(y))
        want = f(float(y))
        assert abs(got - want) <= 1e-6
        assert abs(got.imag) <= 1e-6


def test_mellin_invert_rejects_nonpositive_point():
    with pytest.raises(ConfigError):
        mellin_invert(h0_cutoff(500.0, 1.0 / 18.0, 0.01), 0.0)


def test_mellin_invert_rejects_an_infinite_point():
    # an infinite point had ended in an OverflowError from its power
    with pytest.raises(ConfigError):
        mellin_invert(h0_cutoff(500.0, 1.0 / 18.0, 0.01), [math.inf])


def test_mellin_invert_raises_when_its_tail_never_settles(monkeypatch):
    # at tol 0 no shell is small enough: eight doublings from 64, then refused
    monkeypatch.setattr(cutoffs, "INVERT_TOL", 0.0)
    with pytest.raises(TailNotConvergedError, match=r"^inversion tail still \S+ at height 16384$"):
        mellin_invert(h0_cutoff(500.0, 1.0 / 18.0, 0.01), [0.5, 0.9])


@pytest.mark.parametrize("name", ["v0", "g", "probe"])
def test_exp_bump_jets_match_mpmath_taylor_coefficients(name):
    # the closed-form jets of the exp-bump family against mpmath's Taylor
    # coefficients of exp(-1/(1 - u^2)) at 30 digits, to order 8, at points
    # across the support and within 1e-2 and 1e-3 of both edges; g carries
    # its normalization, read off at the bump's centre
    from gl3osc.oscquad import probe_amplitude
    cut = {"v0": v0_cutoff(), "g": g_cutoff(), "probe": probe_amplitude()}[name]
    lo, hi = cut.support_lo, cut.support_hi
    width = hi - lo
    ys = np.array([lo + 1e-3, lo + 1e-2, lo + 0.13 * width, lo + 0.31 * width,
                   lo + 0.62 * width, lo + 0.87 * width, hi - 1e-2, hi - 1e-3])
    jets = cut.jet(ys, 8)
    assert jets.shape == (9, ys.size)
    np.testing.assert_array_equal(cut.jet(np.array([lo, hi, lo - 1.0, hi + 1.0]), 8), 0.0)
    scale = float(cut(0.5 * (lo + hi))) / math.exp(-1.0)
    with mp.workdps(30):
        mid, half = (mp.mpf(lo) + hi) / 2, (mp.mpf(hi) - lo) / 2

        def bump(y):
            u = (y - mid) / half
            return mp.exp(-1 / (1 - u * u))

        for y, got in zip(ys, jets.T):
            # mp.taylor rounds tiny coefficients to zero, so it differentiates
            # the bump divided by its value at y
            at_y = bump(mp.mpf(y))
            coefs = mp.taylor(lambda t: bump(t) / at_y, mp.mpf(y), 8)
            want = [scale * float(at_y * c) for c in coefs]
            # exp(E_0) carries a relative error of about |E_0| eps
            e0 = float(-mp.log(at_y))
            for i in range(9):
                assert abs(got[i] - want[i]) <= 1e-13 * (1.0 + e0) * abs(want[i]), (y, i)
