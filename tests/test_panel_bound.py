"""The bounded path of `oscquad`: its closed-form majorant, its graded ends,
its error figure against mpmath, its refusals, and the edge builder it
shares with the estimate path."""
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3osc import criteria, oscquad, sums
from gl3osc.coeffs import synth_eisenstein
from gl3osc.cutoffs import Cutoff, g_cutoff, v0_cutoff, weight_w0_w
from gl3osc.errors import ConfigError, ToleranceUnreachableError
from gl3osc.keyident import AmplifierSpec
from gl3osc.oscquad import (_RHOS, _SEMI_A, _SEMI_B, OscInstance, PanelGrid, _ellipse_bounds,
                            _log_majorants, _phase_rate, _quadratics, integrate_main,
                            integrate_phase, integrate_shifted, probe_amplitude)
from gl3osc.sums import SumSpec, table_size
from gl3osc.util import TWO_PI, _panel_runs
from gl3osc.whittaker import LocalZetaParams, _power_amplitude, local_zeta

PROBE = probe_amplitude()
V0 = v0_cutoff()


# --- the edge builder -------------------------------------------------------

def _numpy_panel_runs(lo, hi, cap, span, rate, max_panels):
    """`util._panel_runs` as it was written with numpy scalars and one
    array per run: the estimate path's edges must keep its bits."""
    steps = np.arange(1.0, 65.0)
    edges, sizes, widths = [np.array([lo])], [], []
    x, panels, last = lo, 0, None
    r = rate(lo)
    while x < hi:
        if r * cap <= span:
            w, run = cap, 64
        else:
            w, run = span / r, 1 if last is None else 64
            if last is not None and last[1] > r:
                reach = 0.125 * r * (x - last[0]) / (last[1] - r)
                run = int(min(64, max(1.0, reach // w)))
        last = (x, r)
        ends = x + w * steps[:run]
        r = rate(min(float(ends[-1]), hi))
        k = int(np.searchsorted(ends, hi))
        if k:
            edges.append(ends[:k])
            sizes.append(k)
            widths.append(w)
            x = float(ends[k - 1])
        if k < run:
            edges.append(np.array([hi]))
            sizes.append(1)
            widths.append(hi - x)
            x = hi
        panels += k + (k < run)
        if panels > max_panels:
            raise ToleranceUnreachableError("panel budget exhausted while gridding")
    return np.concatenate(edges), np.asarray(sizes), np.asarray(widths)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(c_log=st.floats(-1e4, 1e4), c_inv=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
       c_lin=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
       span=st.floats(np.pi / 16, np.pi), lo=st.floats(0.05, 2.0), length=st.floats(0.01, 3.0))
def test_plain_float_edges_keep_the_numpy_builders_bits(c_log, c_inv, c_lin, span, lo, length):
    # the estimate path's grids (and so `routes`' bytes) come out of the
    # plain-float loop exactly as out of the numpy one it replaced
    hi = lo + length
    rate = _phase_rate(hi, c_log, np.asarray(c_inv), np.asarray(c_lin))
    cap = (hi - lo) / 8.0 * (span / np.pi)
    got = _panel_runs(lo, hi, cap, span, rate, 10**6)
    want = _numpy_panel_runs(lo, hi, cap, span, rate, 10**6)
    for g, w in zip(got, want):
        assert g.tobytes() == w.astype(g.dtype).tobytes()


# --- the majorant -----------------------------------------------------------

def _mp_bump(lo, hi):
    """The exp bump of `cutoffs._exp_bump_fn(lo, hi)` at a complex point,
    with its double mid and half taken as exact."""
    mid, half = mp.mpf(0.5 * (lo + hi)), mp.mpf(0.5 * (hi - lo))

    def f(z):
        u = (z - mid) / half
        return mp.exp(-1 / (1 - u * u))

    return f


AMPLITUDES = {
    "probe": (PROBE, _mp_bump(0.5, 2.0)),
    "v0 z^-2": (_power_amplitude(1.0, -2.0), lambda z, _b=_mp_bump(V0.support_lo, V0.support_hi):
                _b(z) * z ** -2),
    "v0 z^0.5": (_power_amplitude(1.0, 0.5), lambda z, _b=_mp_bump(V0.support_lo, V0.support_hi):
                 _b(z) * mp.sqrt(z)),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(AMPLITUDES)), place=st.floats(0.05, 0.95),
       width=st.floats(1e-3, 0.2), rho=st.integers(0, _RHOS.size - 1),
       c_log=st.floats(-4e3, 4e3), c_inv=st.lists(st.floats(-3e3, 3e3), min_size=1, max_size=2),
       c_lin=st.lists(st.floats(-3e3, 3e3), min_size=1, max_size=2))
def test_majorant_holds_on_the_ellipse(name, place, width, rho, c_log, c_inv, c_lin):
    # at 64 points of the ellipse boundary, if it has a bound, |A e^(i Phi)|
    # at every row (each c_lin, and c_inv at both ends of its range) is
    # at most the closed-form M
    amp, exact = AMPLITUDES[name]
    lo, hi = amp.support_lo, amp.support_hi
    half = 0.5 * width * (hi - lo)
    mid = lo + half + place * (hi - lo - 2.0 * half)
    quad = _quadratics(c_log, np.asarray(c_inv), np.asarray(c_lin))
    log_m = _log_majorants(amp.bound, np.array([mid]), np.array([mid]), np.array([half]),
                           quad)[0, rho]
    if not np.isfinite(log_m):
        assert mid - half * _SEMI_A[rho] <= lo or mid + half * _SEMI_A[rho] >= hi
        return
    rows = [(n, b) for n in (min(c_inv), max(c_inv)) for b in c_lin]
    with mp.workdps(30):
        for k in range(64):
            t = TWO_PI * k / 64.0
            z = mp.mpc(mid + half * _SEMI_A[rho] * math.cos(t), half * _SEMI_B[rho] * math.sin(t))
            a = exact(z)
            for n, b in rows:
                phase = c_log * mp.log(z) - 2 * mp.pi * n / z - 2 * mp.pi * b * z
                assert mp.log(abs(a * mp.exp(1j * phase))) <= log_m + 1e-9


def test_an_ellipse_reaching_a_support_end_gets_no_bound():
    # the ends are essential singularities: a rectangle that reaches one has
    # no bound, and a panel against the end has no ellipse bound at all
    # (a bound that ignored them claimed 1e-19 where the error was 1.3e-12)
    bound = PROBE.bound
    assert bound(0.5, 0.6, 0.01) == np.inf and bound(1.9, 2.0, 0.01) == np.inf
    assert bound(0.5 + 1e-12, 0.6, 0.01) == 1.0
    quad = _quadratics(-250.0, 39.8, 0.0)
    halfs = np.array([0.01, 0.01])
    mids = np.array([0.5 + 0.01, 1.25])
    logs = _log_majorants(bound, mids, mids, halfs, quad)
    assert np.all(logs[0] == np.inf) and np.all(np.isfinite(logs[1]))
    assert _ellipse_bounds(bound, mids, mids, halfs, quad)[0] == np.inf
    # the graded grid leaves a strip at each end and keeps some ellipse of
    # every panel inside the support
    grid = PanelGrid(0.5, 2.0, -250.0, 39.8, 0.0, oscquad.BOUND_SPAN, amplitude=PROBE,
                     target=1e-12)
    assert 0.5 < grid.mids[0] - grid.halfs[0] and grid.mids[-1] + grid.halfs[-1] < 2.0
    first, last = grid.mids[grid.run_starts[:-1]], grid.mids[grid.run_starts[1:] - 1]
    assert np.all(np.isfinite(_ellipse_bounds(bound, first, last, grid.run_halfs, quad)))


# --- the error figure against mpmath ----------------------------------------

GL40 = np.polynomial.legendre.leggauss(40)


def _reference_panels(lo, hi, rate, skip):
    """(mids, halfs) of the panels of a composite 40-point rule on
    [lo + skip, hi - skip] (the amplitude is below 1e-40 outside): each at
    most 20 / rate(x) wide, rate(x) >= |Phi'| right of x, and half its
    distance to the nearer end, so that Gauss's error is below 1e-30."""
    edges, x = [lo + skip], lo + skip
    while x < hi - skip:
        x = min(hi - skip, x + min(20.0 / rate(x), 0.5 * min(x - lo, hi - x)))
        edges.append(x)
    edges = np.array(edges)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)


def _reference_nodes(lo, hi, rate, skip):
    mids, halfs = _reference_panels(lo, hi, rate, skip)
    return ((mids[:, None] + halfs[:, None] * GL40[0]).ravel(),
            (halfs[:, None] * GL40[1]).ravel())


def _turns(values):
    """mpmath numbers, in turns, reduced mod 1 to doubles."""
    return np.array([float(v - mp.nint(v)) for v in values])


def _fsum(terms):
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


@pytest.mark.parametrize("T", [20.0, 60.0, 250.0, 1000.0, 4000.0])
def test_abs_err_bounds_the_true_error(T):
    # M, the single-n rows +-r for r = 1..8, a weighted batch of three n,
    # and Z at s = 0 and -1/2, each at tol 1e-12, against a composite rule
    # whose phases are mpmath's (reduced mod 1 there, then exponentiated
    # in double: the reference rounds by a few eps of the mass)
    N = T**1.5
    n0 = math.ceil(N / TWO_PI)
    inst = OscInstance(T=T, n=n0, N=N, tol=1e-12)
    rs = np.arange(1, 9)
    ns, cs = np.array([n0, n0 + 1, n0 + 3]), np.array([0.5 - 0.25j, 1.0, -0.3j])
    x, w = _reference_nodes(0.5, 2.0, lambda y: T / y + 2.0 * T / y**2 + TWO_PI * 8.0,
                            0.75 / 200.0)
    with mp.workdps(30):
        ratio = mp.mpf(T) / mp.mpf(N)
        q = [ratio / mp.mpf(v) for v in x]  # (T/N)/x, in turns
        head = np.exp(1j * TWO_PI * _turns([-T * mp.log(v) / (2 * mp.pi) - n0 * qv
                                            for v, qv in zip(x, q)]))
        step = np.exp(-1j * TWO_PI * _turns(q))
    shift = np.exp(-1j * TWO_PI * (x - np.rint(x)))  # e(-x): x is exact
    base = w * PROBE.fn(x) * head
    main = integrate_main(inst)
    assert abs(main.value - _fsum(base)) <= main.abs_err <= inst.tol
    rows = integrate_shifted(inst, rs, 1.0)
    weighted = integrate_shifted(inst, rs, 1.0, ns=ns, cs=cs)
    mix = base * sum(c * step ** (n - n0) for n, c in zip(ns, cs))
    for j, r in enumerate(rs):
        for k, factor in enumerate((shift**r, np.conj(shift) ** r)):
            for batch, terms in ((rows, base), (weighted, mix)):
                row = 2 * j + k
                assert abs(batch.values[row] - _fsum(terms * factor)) <= batch.abs_errs[row]
                assert batch.abs_errs[row] <= inst.tol
    # Z: V0(z) z^(s - 3/2) e((T ln z)/(2 pi) - T z) dz, times T^(3s/2 + 3iT/2)
    lo, hi = V0.support_lo, V0.support_hi
    z, v = _reference_nodes(lo, hi, lambda y: T / y + TWO_PI * T, 0.5 * (hi - lo) / 200.0)
    with mp.workdps(30):
        core = v * V0.fn(z) * np.exp(1j * TWO_PI * _turns(
            [T * mp.log(t) / (2 * mp.pi) - T * mp.mpf(t) for t in z]))
        for sigma in (0.0, -0.5):
            got = local_zeta(LocalZetaParams(T=T, s=complex(sigma, 0.0)), tol=1e-12)
            pref = mp.power(T, 1.5 * sigma) * mp.expjpi(3 * T * mp.log(T) / (2 * mp.pi))
            want = complex(pref * mp.mpc(_fsum(core * z ** (sigma - 1.5))))
            assert abs(got.value - want) <= got.abs_err <= 1.1e-12 * float(abs(pref))


def test_deep_strip_point_holds_against_a_long_double_reference():
    # Z(1/2 + s + iT) at T = 128000, s = -1/2, tol 1e-10: refused at 1.1e-10
    # after 0.7 s on the estimate path, it returns in milliseconds, within
    # its figure of a composite rule in 80-bit long double (phases to about
    # 1e-19 |Phi| = 6e-14 rad, far inside the figure of 9e-12 before the
    # prefactor), summed a thousand panels at a time
    T, sigma = 128000.0, -0.5
    started = time.perf_counter()
    got = local_zeta(LocalZetaParams(T=T, s=complex(sigma, 0.0)), tol=1e-10)
    assert time.perf_counter() - started < 0.5
    lo, hi = V0.support_lo, V0.support_hi
    mids, halfs = _reference_panels(lo, hi, lambda y: T / y + TWO_PI * T, 0.5 * (hi - lo) / 200.0)
    two_pi = 8 * np.arctan(np.longdouble(1))
    parts = []
    for p in range(0, mids.size, 1000):
        z = (mids[p:p + 1000, None] + halfs[p:p + 1000, None] * GL40[0]).ravel()
        zl = z.astype(np.longdouble)
        phase = T * np.log(zl) - two_pi * T * zl
        phase -= two_pi * np.rint(phase / two_pi)
        weights = (halfs[p:p + 1000, None] * GL40[1]).ravel()
        terms = weights * V0.fn(z) * z ** (sigma - 1.5) * np.exp(1j * phase.astype(float))
        parts.append(_fsum(terms))
    with mp.workdps(30):
        pref = mp.power(T, 1.5 * sigma) * mp.expjpi(3 * T * mp.log(T) / (2 * mp.pi))
        want = complex(pref * mp.mpc(_fsum(np.array(parts))))
    assert abs(got.value - want) <= got.abs_err <= 1e-10 * float(abs(pref))


# --- refusals ---------------------------------------------------------------

def test_a_tolerance_below_the_rounding_floor_is_refused_before_any_evaluation():
    # the rounding term is known from the grid alone, so a tolerance below
    # twice it is refused, with that term as `achieved`, before A is
    # evaluated at any node
    calls = []

    def fn(x):
        calls.append(np.size(x))
        return PROBE.fn(x)

    amp = Cutoff(support_lo=0.5, support_hi=2.0, fn=fn, bound=PROBE.bound)
    T, tol = 1000.0, 1e-16
    # the first grid `_one_pass` builds: span BOUND_SPAN, target tol/2
    grid = PanelGrid(0.5, 2.0, -T, 160.0, 0.0, oscquad.BOUND_SPAN, amplitude=amp,
                     target=0.5 * tol)
    floor = float(grid.rounding(0.0))
    started = time.perf_counter()
    with pytest.raises(ToleranceUnreachableError, match="^tolerance below the rounding floor; "
                                                        "achieved") as info:
        integrate_phase(amp, -T, 160.0, 0.0, tol=tol)
    assert time.perf_counter() - started < 0.1
    assert calls == [] and info.value.achieved == floor > 0.5 * tol
    assert integrate_phase(amp, -T, 160.0, 0.0, tol=3.0 * floor).abs_err <= 3.0 * floor
    assert len(calls) == 1


def test_a_deep_strip_point_below_its_floor_is_refused_at_once():
    # T = 128000, s = -1/2, a tolerance below its rounding term: refused
    # from the first grid, in well under 0.1 s
    started = time.perf_counter()
    with pytest.raises(ToleranceUnreachableError, match="rounding floor"):
        local_zeta(LocalZetaParams(T=128000.0, s=-0.5 + 0j), tol=1e-13)
    assert time.perf_counter() - started < 0.1


def test_a_bounded_call_makes_one_pass_of_sixteen_nodes_a_panel():
    for T in (20.0, 250.0, 4000.0):
        N = T**1.5
        res = integrate_main(OscInstance(T=T, n=math.ceil(N / TWO_PI), N=N, tol=1e-10))
        assert res.evaluations == 16 * res.panels


def test_zero_weights_give_exact_zero_rows():
    inst = OscInstance(T=250.0, n=40, N=250.0**1.5)
    rows = integrate_shifted(inst, [1, 2], 1.0, ns=[40, 41], cs=[0.0, 0.0])
    assert np.all(rows.values == 0.0) and np.all(rows.abs_errs == 0.0)


# --- the route amplitude V ----------------------------------------------------

def _route_spec(T: float) -> SumSpec:
    return SumSpec(T=T, table=synth_eisenstein(criteria.D3_PARAMS, table_size(T, SumSpec.Y)),
                   tol=1e-6)


def _mp_route_amplitude(T: float, Y: float):
    """V(z) = v0(1/z) f0(Y/z) z^(-1/2) at a complex point, with f0 on the
    side of the break x_J = Y T^eps / 2 given: 1 on the plateau, and
    1 - s(t) = 1/(1 + e^w), w = 1/t - 1/(1 - t), t = Y T^eps / z - 1 on
    the ramp."""
    bump = _mp_bump(V0.support_lo, V0.support_hi)
    c = mp.mpf(Y) * mp.mpf(T) ** mp.mpf(sums.WINDOW_EPS)

    def f(z, ramp):
        t = c / z - 1
        window = 1 / (1 + mp.exp(1 / t - 1 / (1 - t))) if ramp else 1
        return bump(1 / z) * window / mp.sqrt(z)

    return f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(T=st.sampled_from([64.0, 200.0, 1000.0]), Y_of_T=st.sampled_from(["4pi", "5", "T^kappa"]),
       place=st.floats(-0.02, 1.02), width=st.floats(1e-4, 0.3),
       height=st.floats(0.0, 1.5), toward=st.floats(0.0, 1.0))
def test_route_amplitude_bound_holds_on_the_rectangle(T, Y_of_T, place, width, height, toward):
    # at 48 points of the rectangle's boundary (the maximum modulus
    # principle takes it from there) |V|, by mpmath, is at most the bound;
    # a rectangle that reaches across the break x_J or a support end gets
    # inf, and a segment's bound holds at 65 points of it. Rectangles are
    # drawn whole, or squeezed toward the break or the ends, where the
    # bound is tight
    Y = {"4pi": SumSpec.Y, "5": 5.0, "T^kappa": T}[Y_of_T]
    amp = sums._v_cutoff(T, Y)
    lo, hi = amp.support_lo, amp.support_hi
    points = [lo, *amp.breaks, hi]
    x0 = lo + place * (hi - lo)
    x1 = x0 + width * (hi - lo)
    # squeeze toward the nearest singular point: the ends and the break
    near = min(points, key=lambda p: abs(p - x0))
    x0, x1 = near + (x0 - near) * toward, near + (x1 - near) * toward
    b = height * (x1 - x0)
    got = float(amp.bound(x0, x1, b))
    if b == 0.0:
        xs = np.linspace(x0, x1, 65)
        assert np.all(np.abs(amp.fn(xs)) <= got * (1.0 + 1e-12))
        return
    crosses = any(x0 <= p <= x1 for p in amp.breaks) or x0 <= lo or x1 >= hi
    if crosses:
        assert got == np.inf
        return
    if got == np.inf:
        return
    exact = _mp_route_amplitude(T, Y)
    ramp = bool(amp.breaks) and x0 > amp.breaks[0] or not amp.breaks and hi < 8.0 * np.pi \
        and x0 > 0.5 * hi
    with mp.workdps(30):
        for k in range(48):
            side, s = divmod(k, 12)
            u = s / 12.0
            z = [mp.mpc(x0 + u * (x1 - x0), -b), mp.mpc(x1, -b + 2 * u * b),
                 mp.mpc(x1 - u * (x1 - x0), b), mp.mpc(x0, b - 2 * u * b)][side]
            # a bound below double's range (e^-1000 near Y T^eps) rounds to 0
            assert abs(exact(z, ramp)) <= got * (1 + 1e-9) + np.finfo(float).tiny


def test_route_amplitude_has_its_break_and_true_support():
    # V lives on [pi, Y T^eps], breaks at x_J = Y T^eps / 2, and a route
    # shell's bounded grid keeps a finite ellipse bound on every run, its
    # panels clear of x_J by a strip whose bound is in `disc`
    spec = _route_spec(64.0)
    amp = sums._v_cutoff(spec.T, spec.Y)
    assert sums._v_cutoff(spec.T, spec.Y) is amp
    c = spec.Y * 64.0**sums.WINDOW_EPS
    assert amp.support_lo == pytest.approx(np.pi, rel=1e-15)
    assert amp.support_hi == pytest.approx(c, rel=1e-15)
    assert amp.breaks == pytest.approx((0.5 * c,), rel=1e-15)
    x_j = amp.breaks[0]
    h = 2.0 * 64.0 / (spec.N * 5.0)
    quad = _quadratics(-64.0, np.array([41.0, 81.0]) * 64.0 / spec.N, np.arange(17, 33) / h)
    grid = PanelGrid(amp.support_lo, amp.support_hi, -64.0, np.array([41.0, 81.0]) * 64.0 / spec.N,
                     np.arange(17, 33) / h, oscquad.BOUND_SPAN, amplitude=amp, target=1e-10)
    left, right = grid.mids - grid.halfs, grid.mids + grid.halfs
    assert not np.any((left < x_j) & (right > x_j))
    assert np.any(right < x_j) and np.any(left > x_j)
    gap = left[left > x_j].min() - right[right < x_j].max()
    assert 0.0 < gap < 1e-6
    first, last = grid.mids[grid.run_starts[:-1]], grid.mids[grid.run_starts[1:] - 1]
    assert np.all(np.isfinite(_ellipse_bounds(amp.bound, first, last, grid.run_halfs, quad)))
    assert 0.0 < grid.disc < np.inf


def test_breaks_must_ascend_inside_the_support():
    for breaks in ((0.5,), (2.0,), (1.5, 1.2), (1.2, 1.2)):
        with pytest.raises(ConfigError):
            Cutoff(support_lo=0.5, support_hi=2.0, fn=PROBE.fn, breaks=breaks)
    amp = Cutoff(support_lo=0.5, support_hi=2.0, fn=PROBE.fn, breaks=(1.0, 1.5))
    assert amp.breaks == (1.0, 1.5)


@pytest.mark.parametrize("T", [64.0, 200.0])
def test_route_rows_hold_their_abs_err_against_long_double(T):
    # the keyident route's shells r = 1..32 at the route's own pair, n and
    # weights a(1,n) w(n/N) and row shares: each row's proved figure holds
    # against a composite 40-point rule over the pieces of V's support,
    # graded toward x_J and the ends, whose phases are formed in 80-bit
    # long double and reduced mod 1 there, and whose sums run in long double
    spec = _route_spec(T)
    amp = sums._v_cutoff(spec.T, spec.Y)
    n_lo, n_hi = spec.sum_window()
    ns = np.arange(n_lo, n_hi + 1)
    a = spec.table.values[ns]
    _, w = weight_w0_w(ns / spec.N)
    live = (a != 0.0) & (w != 0.0)
    ns, cs = ns[live], a[live] * w[live]
    p, l = AmplifierSpec.for_t(T).pairs[0]
    h = l * T / (spec.N * p)
    rs = np.arange(1, 33)
    mass = float(np.sum(np.abs(cs)))
    tols = spec.tol * mass / (32.0 * np.maximum(8, rs))
    rows = integrate_shifted(OscInstance(T=T, n=int(ns[0]), N=spec.N, amplitude=amp,
                                         tol=spec.tol), rs, h, tol=tols, ns=ns, cs=cs)
    assert rows.evaluations % 16 == 0
    lo, hi, (x_j,) = amp.support_lo, amp.support_hi, amp.breaks
    scale = T / amp.support_lo + TWO_PI * ns.max() * T / (spec.N * lo**2) + TWO_PI * 32.0 / h
    # V is analytic up to x_J from the plateau's side, and flat to within
    # rounding of its plateau value within 1e-13 of it on the ramp's
    parts = [_reference_panels_between(lo + 0.005, x_j, scale, lo, np.inf),
             _reference_panels_between(x_j, hi - hi / 90.0, scale, x_j, hi)]
    mids, halfs = (np.concatenate(v) for v in zip(*parts))
    x = (mids[:, None] + halfs[:, None] * GL40[0]).ravel()
    wts = (halfs[:, None] * GL40[1]).ravel().astype(np.longdouble) * amp.fn(x)
    xl = x.astype(np.longdouble)
    two_pi = 8 * np.arctan(np.longdouble(1))
    ratio = np.longdouble(T) / np.longdouble(spec.N)
    log_turns = -np.longdouble(T) * np.log(xl) / two_pi
    re, im = np.zeros(x.size, np.longdouble), np.zeros(x.size, np.longdouble)
    for n, c in zip(ns.tolist(), cs.tolist()):
        turns = log_turns - n * ratio / xl
        turns -= np.rint(turns)
        cos, sin = np.cos(two_pi * turns), np.sin(two_pi * turns)
        re += c.real * cos - c.imag * sin
        im += c.real * sin + c.imag * cos
    re, im = re * wts, im * wts
    shift = xl / np.longdouble(h)
    for j, r in enumerate(rs.tolist()):
        for k, sign in enumerate((1, -1)):
            turns = sign * r * shift
            turns -= np.rint(turns)
            cos, sin = np.cos(two_pi * turns), np.sin(two_pi * turns)
            # e(-sign r x/h) = cos - i sin
            want = complex(float(np.sum(re * cos + im * sin)), float(np.sum(im * cos - re * sin)))
            err = rows.abs_errs[2 * j + k]
            assert abs(rows.values[2 * j + k] - want) <= err <= tols[j]


def _reference_panels_between(a, b, rate, end_a, end_b):
    """(mids, halfs) of a composite 40-point rule on [a, b], each panel at
    most 20 / rate wide and half its distance to the nearer of the
    singular points end_a <= a and end_b >= b, but at least 1e-13."""
    edges, x = [a], a
    while x < b:
        x = min(b, x + max(1e-13, min(20.0 / rate, 0.5 * min(x - end_a, end_b - x))))
        edges.append(x)
    edges = np.array(edges)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)


# --- declared supports --------------------------------------------------------

def _integrated_amplitudes():
    """name -> a Cutoff that a battery integrates: the probe, v0, g, the
    local zeta integral's power amplitudes, and the routes' V and
    integral-route amplitude at T = 64 and 200."""
    amps = {"probe": PROBE, "v0": V0, "g": g_cutoff()}
    for sigma in (0.0, -0.5, 0.5):
        amps[f"power {sigma - 1.5}"] = _power_amplitude(1.0, sigma - 1.5)
    for T in (64.0, 200.0):
        spec = _route_spec(T)
        amps[f"V T={T:g}"] = sums._v_cutoff(spec.T, spec.Y)
        seen = []
        real = sums.integrate_main
        sums.integrate_main = lambda inst: seen.append(inst.amplitude) or real(inst)
        try:
            sums._integral_route(spec)
        finally:
            sums.integrate_main = real
        amps[f"integral T={T:g}"] = seen[0]
    return amps


def test_no_amplitude_declares_a_support_it_is_zero_on():
    # a grid spends its nodes over the declared support: an amplitude that
    # is exactly zero over the last 1% of it at either end wastes them (V
    # on v0's [pi, 8 pi] was zero past Y T^eps, 52% of it at T = 64)
    for name, amp in _integrated_amplitudes().items():
        lo, hi = amp.support_lo, amp.support_hi
        for end, inward in ((lo, 1.0), (hi, -1.0)):
            xs = end + inward * (hi - lo) * np.linspace(1e-3, 1e-2, 10)
            assert np.max(np.abs(amp.fn(xs))) > 0.0, (name, end)
