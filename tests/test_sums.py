"""Tests for the three-route coefficient sums and their cross-route envelopes."""
import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from gl3osc import criteria, keyident, sums
from gl3osc.coeffs import CoefficientTable, synth_eisenstein
from gl3osc.cutoffs import Cutoff, g_cutoff, v0_cutoff
from gl3osc.errors import ConfigError, TableTooSmallError
from gl3osc.gammafactor import LanglandsParams
from gl3osc.cutoffs import weight_w0_w
from gl3osc.keyident import (AmplifierSpec, KeyIdentityInstance, _riemann_rounding,
                             amplified_average, riemann_side)
from gl3osc.oscquad import OscInstance, integrate_main
from gl3osc.sums import (
    C1,
    K_ROUTE_34,
    SumSpec,
    compare_routes,
    keyident_envelope,
    s_sum_form,
    table_size,
    _integral_route,
    _keyident_route,
    _v_cutoff,
)
from gl3osc.util import TWO_PI, kahan_csum
from gl3osc.whittaker import c_constant

D3 = LanglandsParams(alpha=(0.0j, 0.0j, 0.0j))

# frozen full-table values on the d3 model, Y = 4 pi, h1 weight; the sum
# route is cross-checked here against a scalar fsum loop, the integral
# route against its own quadrature error bound
GOLDEN_SUM_100 = 1.5347522983904227 + 0.8928430506514783j
GOLDEN_INT_100 = 1.1068172907896674 + 1.3918120508712484j
GOLDEN_SUM_200 = 1.5920473141057583 + 4.200090475151859j


def _d3_table(T: float) -> CoefficientTable:
    return synth_eisenstein(D3, table_size(T, SumSpec.Y))


def _sparse_table(T: float, entries) -> CoefficientTable:
    x_max = table_size(T, SumSpec.Y)
    values = np.zeros(x_max + 1, dtype=complex)
    values[1] = 1.0
    for n, a in entries:
        values[n] = a
    return CoefficientTable(values=values, x_max=x_max, source="synthetic")


SPARSE_100 = ((85, 0.7 + 0.2j), (97, -0.4 + 0.9j), (110, 1.1j),
              (121, 0.6 - 0.3j), (138, -0.8 - 0.5j), (150, 0.25 + 0.05j))


def _single_pair_amp(T: float) -> AmplifierSpec:
    base = AmplifierSpec.for_t(T)
    return replace(base, primes_p=base.primes_p[:1], primes_l=base.primes_l[:1])


@pytest.fixture(scope="module")
def table_100():
    return _d3_table(100.0)


@pytest.fixture(scope="module")
def spec_100(table_100):
    return SumSpec(T=100.0, table=table_100, tol=1e-6)


def test_spec_validation_rejects_bad_fields(table_100):
    with pytest.raises(ConfigError):
        SumSpec(T=0.5, table=table_100)
    with pytest.raises(ConfigError):
        SumSpec(T=100.0, table=table_100, tol=0.0)
    with pytest.raises(ConfigError):
        SumSpec(T=100.0, table=table_100, Y=2000.0)  # above T^kappa


def test_spec_rejects_short_table():
    with pytest.raises(TableTooSmallError):
        SumSpec(T=100.0, table=_d3_table(60.0))


@pytest.mark.parametrize("T, tol", [(math.inf, 1e-8), (100.0, math.nan), (100.0, math.inf)])
def test_spec_refuses_non_finite_t_and_tol(table_100, T, tol):
    with pytest.raises(ConfigError):
        SumSpec(T=T, table=table_100, tol=tol)


def test_windows_match_support_arithmetic(spec_100):
    # N = 100^(3/2) / (4 pi) = 79.577...
    assert spec_100.sum_window() == (80, 159)
    assert spec_100.integral_window() == (20, 318)
    assert spec_100.N == pytest.approx(100.0**1.5 / (4.0 * np.pi))


def test_sum_route_matches_scalar_loop(spec_100):
    got = s_sum_form(spec_100)
    f0, g = spec_100.window.fn, g_cutoff()
    re, im = [], []
    lo, hi = spec_100.sum_window()
    for n in range(lo, hi + 1):
        a = complex(spec_100.table.values[n])
        if a == 0.0:
            continue
        arg = spec_100.T**1.5 / (TWO_PI * n)
        term = (a * cmath.exp(-1j * spec_100.T * math.log(n)) / math.sqrt(n)
                * float(f0(np.asarray(arg))) * float(g.fn(np.asarray(arg / spec_100.Y))))
        re.append(term.real)
        im.append(term.imag)
    pref = c_constant(spec_100.T, C1) / math.sqrt(spec_100.T)
    oracle = pref * complex(math.fsum(re), math.fsum(im))
    assert abs(got - oracle) <= 1e-12 * abs(oracle)
    assert abs(got - GOLDEN_SUM_100) <= 1e-12 * abs(GOLDEN_SUM_100)


def test_single_coefficient_term_is_exact():
    T = 100.0
    table = _sparse_table(T, ((110, 1.1j),))
    spec = SumSpec(T=T, table=table, tol=1e-6)
    arg = T**1.5 / (TWO_PI * 110.0)
    g = g_cutoff()
    want = (c_constant(T, 1.0) / math.sqrt(T) * 1.1j
            * cmath.exp(-1j * T * math.log(110.0)) / math.sqrt(110.0)
            * float(spec.window.fn(np.asarray(arg)))
            * float(g.fn(np.asarray(arg / spec.Y))))
    assert s_sum_form(spec) == pytest.approx(want, rel=1e-14)


def test_sum_route_is_additive_in_the_table():
    T = 100.0
    first = _sparse_table(T, SPARSE_100[:3])
    second = _sparse_table(T, SPARSE_100[3:])
    both = _sparse_table(T, SPARSE_100)
    parts = (s_sum_form(SumSpec(T=T, table=first, tol=1e-6))
             + s_sum_form(SumSpec(T=T, table=second, tol=1e-6)))
    whole = s_sum_form(SumSpec(T=T, table=both, tol=1e-6))
    assert abs(whole - parts) <= 1e-12 * abs(whole)


def test_full_table_sum_integral_envelope(spec_100):
    s_sum = s_sum_form(spec_100)
    s_int = _integral_route(spec_100)[0]
    assert abs(s_int - GOLDEN_INT_100) <= 1e-9 * abs(GOLDEN_INT_100)
    assert abs(s_sum - s_int) <= K_ROUTE_34 * 100.0**-0.7


def test_sum_golden_at_t200():
    spec = SumSpec(T=200.0, table=_d3_table(200.0), tol=1e-6)
    got = s_sum_form(spec)
    assert abs(got - GOLDEN_SUM_200) <= 1e-12 * abs(GOLDEN_SUM_200)


def test_sparse_routes_agree_and_rerun_identically():
    spec = SumSpec(T=100.0, table=_sparse_table(100.0, SPARSE_100), tol=1e-6)
    amp = _single_pair_amp(100.0)
    rep = compare_routes(spec, amp)
    assert rep.passed_sum_integral
    assert rep.resid_sum_integral <= 0.02
    # six coefficients give little room for per-n phase cancellation, so
    # the aggregate keyident envelope does not apply; the discretized route
    # still tracks the integral route to the per-n replacement scale
    assert rep.resid_integral_keyident <= 0.02
    again = compare_routes(spec, amp)
    assert again == rep


def test_keyident_route_agrees_on_single_coefficient():
    T = 100.0
    table = _sparse_table(T, ((110, 1.1j),))
    spec = SumSpec(T=T, table=table, tol=1e-6)
    amp = _single_pair_amp(T)
    s_int = _integral_route(spec)[0]
    s_key = _keyident_route(spec, amp)[0]
    # one live n: the gap is the bare stationary-phase replacement error
    assert abs(s_key - s_int) <= 30.0 * T**-1.5 / math.sqrt(spec.N)


@pytest.mark.parametrize("sparse", [False, True], ids=["d3", "sparse"])
def test_integral_route_matches_one_n_at_a_time(table_100, sparse):
    # reference: each n of the window on its own grid, with its own V_n,
    # as the route ran before it took the window as one integral
    T = 100.0
    table = _sparse_table(T, SPARSE_100) if sparse else table_100
    spec = SumSpec(T=T, table=table, tol=1e-6)
    got, err = _integral_route(spec)
    v0, g, N = v0_cutoff(C1), g_cutoff(), spec.N
    lo, hi = spec.integral_window()
    terms, ref_err, mass = [], 0.0, 0.0
    for n in range(lo, hi + 1):
        a = complex(table.values[n])
        if a == 0.0:
            continue
        mass += abs(a) / n
        vn = Cutoff(support_lo=max(TWO_PI, n / (N * v0.support_hi)),
                    support_hi=min(2.0 * TWO_PI, n / (N * v0.support_lo)),
                    fn=lambda x, n=n: (v0.fn(n / (N * x)) * g.fn(1.0 / x)
                                       * spec.window.fn(spec.Y / x) / np.sqrt(x)))
        res = integrate_main(OscInstance(T=T, n=n, N=N, amplitude=vn, tol=spec.tol))
        terms.append(a / n * res.value)
        ref_err += abs(a) / n * res.abs_err
    assert len(terms) == (len(SPARSE_100) if sparse else hi - lo + 1)
    want = cmath.exp(1j * T * math.log(spec.Y)) * math.sqrt(N) * sum(terms)
    # each side holds its quadrature to the summed tolerance spec.tol |a_n|/n
    assert 0.0 < err <= spec.tol * math.sqrt(N) * mass
    assert abs(got - want) <= err + math.sqrt(N) * ref_err


def test_integral_route_is_one_integral(spec_100, monkeypatch):
    calls = []

    def counted(inst):
        calls.append(inst.n)
        return integrate_main(inst)

    monkeypatch.setattr(sums, "integrate_main", counted)
    _integral_route(spec_100)
    # one main integral, at the window's largest n
    assert calls == [spec_100.integral_window()[1]]


def test_keyident_route_matches_one_n_at_a_time():
    # reference: each n of the window alone through the amplified identity,
    # as the route ran before it dualized the weighted n-sum whole
    T = 100.0
    spec = SumSpec(T=T, table=_sparse_table(T, SPARSE_100), tol=1e-6)
    amp = _single_pair_amp(T)
    s_key, key_err = _keyident_route(spec, amp)
    p, l = amp.pairs[0]
    base = KeyIdentityInstance(T=T, n=1, N=spec.N, p=p, l=l, tol=spec.tol,
                               amplitude=_v_cutoff(spec.T, spec.Y))
    lo, hi = spec.sum_window()
    terms = []
    for n, a in SPARSE_100:
        _, w = weight_w0_w(n / spec.N)
        if lo <= n <= hi and w != 0.0:
            a_n, o_n = amplified_average(replace(base, n=n), amp)
            terms.append(a * w * (a_n - o_n) / amp.weighted_pair_count())
    assert len(terms) == len(SPARSE_100)
    want = cmath.exp(1j * T * math.log(spec.Y)) / math.sqrt(spec.N) * sum(terms)
    # both sides hold every pair's identity to its tolerance share
    assert key_err > 0.0
    assert abs(s_key - want) <= 2.0 * key_err


@pytest.mark.parametrize("blocks", [False, True], ids=["one-table", "blocks"])
@pytest.mark.parametrize("sparse", [False, True], ids=["d3", "sparse"])
def test_weighted_riemann_side_is_the_sum_of_each_n(table_100, sparse, blocks, monkeypatch):
    # the route's window (n, a(1,n) w(n/N)) in one call against each n's
    # own windowed sum, summed compensated as the pair loop did per n;
    # "blocks" splits the (n, r) phase table into blocks of a few n
    T = 100.0
    spec = SumSpec(T=T, table=_sparse_table(T, SPARSE_100) if sparse else table_100, tol=1e-6)
    lo, hi = spec.sum_window()
    ns = np.arange(lo, hi + 1)
    a = spec.table.values[ns]
    _, w = weight_w0_w(ns / spec.N)
    live = (a != 0.0) & (w != 0.0)
    ns, cs = ns[live], a[live] * w[live]
    p, l = _single_pair_amp(T).pairs[0]
    inst = KeyIdentityInstance(T=T, n=int(ns[0]), N=spec.N, p=p, l=l, tol=spec.tol,
                               amplitude=_v_cutoff(spec.T, spec.Y))
    if blocks:
        r_lo, r_hi = inst.index_window()
        monkeypatch.setattr(keyident, "BLOCK_ELEMENTS", 2 * (r_hi - r_lo + 1))
    got = riemann_side(inst, ns, cs)
    want = kahan_csum([c * riemann_side(replace(inst, n=int(n))) for n, c in zip(ns, cs)])
    assert got != 0.0
    assert abs(got - want) <= float(np.sum(np.abs(cs))) * _riemann_rounding(inst)


def test_keyident_route_sums_each_pair_once(monkeypatch):
    # one windowed sum per prime pair, of the whole weighted window, and
    # one instance per pair besides the route's own: none per n
    sums_of, built = [], []
    real_sum, real_init = keyident.riemann_side, KeyIdentityInstance.__post_init__

    def counted_sum(inst, ns=None, cs=None):
        sums_of.append(1 if ns is None else len(ns))
        return real_sum(inst, ns, cs)

    def counted_init(inst):
        built.append(inst.n)
        real_init(inst)

    monkeypatch.setattr(keyident, "riemann_side", counted_sum)
    monkeypatch.setattr(KeyIdentityInstance, "__post_init__", counted_init)
    spec = SumSpec(T=100.0, table=_sparse_table(100.0, SPARSE_100), tol=1e-6)
    amp = AmplifierSpec.for_t(100.0)
    _keyident_route(spec, amp)
    assert len(amp.pairs) == 4
    assert sums_of == [len(SPARSE_100)] * len(amp.pairs)
    assert len(built) == 1 + len(amp.pairs)


def test_support_padding_changes_nothing(table_100):
    spec = SumSpec(T=100.0, table=table_100, tol=1e-6)
    padded = synth_eisenstein(D3, table_100.x_max + 500)
    spec_padded = SumSpec(T=100.0, table=padded, tol=1e-6)
    assert s_sum_form(spec) == s_sum_form(spec_padded)
    assert _integral_route(spec)[0] == _integral_route(spec_padded)[0]


def test_degenerate_window_sums_to_zero_exactly(monkeypatch):
    # Y = 1 pushes the h1 arguments below its support for every n: f0
    # vanishes on the integral route's whole grid, so the amplitude's head,
    # the (n, node) sum, is never evaluated, and V's support
    # [pi, min(8 pi, Y T^eps)] is empty, so the discretized route is an
    # exact zero without a Cutoff or a dual sum
    T = 64.0
    spec = SumSpec(T=T, table=synth_eisenstein(D3, table_size(T, 1.0)), Y=1.0, tol=1e-6)
    assert spec.Y * T**sums.WINDOW_EPS <= math.pi
    weighted = sums._weighted_cutoff

    def headless(window, Y, lo, hi, head, head_bound=None):
        def refuse(x):
            raise AssertionError(f"head evaluated at {x.size} points where f0 is 0")

        return weighted(window, Y, lo, hi, refuse, head_bound)

    def no_grid(*args, **kwargs):
        raise AssertionError("a dual sum was gridded for an amplitude that is 0")

    monkeypatch.setattr(sums, "_weighted_cutoff", headless)
    monkeypatch.setattr(keyident, "integrate_shifted", no_grid)
    assert _v_cutoff(spec.T, spec.Y) is None
    rep = compare_routes(spec, _single_pair_amp(T))
    assert rep.s_sum == rep.s_integral == rep.s_keyident == 0.0
    assert _keyident_route(spec, _single_pair_amp(T)) == (0.0, 0.0)


def test_spec_refuses_a_table_short_of_the_integral_window():
    # Y = 1 widens the integral window to (N/4, 4 N): a table that holds
    # the sum window (N, 2N) at Y = 1, and both windows at the default Y,
    # is still refused there
    T = 60.0
    short = synth_eisenstein(D3, int(np.ceil(2.0 * T**1.5)) - 1)
    assert SumSpec(T=T, table=short, tol=1e-6).integral_window()[1] <= short.x_max
    with pytest.raises(TableTooSmallError):
        SumSpec(T=T, table=short, Y=1.0, tol=1e-6)
    need = table_size(T, 1.0)
    assert need > short.x_max
    spec = SumSpec(T=T, table=synth_eisenstein(D3, need), Y=1.0, tol=1e-6)
    assert spec.sum_window()[1] <= short.x_max
    assert spec.integral_window()[1] == need
    with pytest.raises(TableTooSmallError):
        SumSpec(T=T, table=synth_eisenstein(D3, need - 1), Y=1.0, tol=1e-6)


@pytest.mark.parametrize("Y", [1.0, 1.5])
def test_small_y_table_is_refused_before_any_route_reads_it(Y):
    # a table of 2 ceil(T^(3/2 + eps)) = 2,194 at T = 100 misses the top of
    # the integral window, 3,999 at Y = 1 and 2,666 at Y = 1.5, which
    # keyident_envelope and the integral route read
    T = 100.0
    with pytest.raises(TableTooSmallError):
        SumSpec(T=T, table=synth_eisenstein(D3, 2194), Y=Y)
    spec = SumSpec(T=T, table=synth_eisenstein(D3, table_size(T, Y)), Y=Y)
    assert spec.integral_window()[1] == spec.table.x_max
    assert keyident_envelope(spec) > 0.0


@pytest.mark.parametrize("T", [13.0, 60.0, 2000.0])
@pytest.mark.parametrize("Y_of_T", [lambda T: T**-0.02, lambda T: 1.0, lambda T: 2.0,
                                    lambda T: 4.0 * np.pi, lambda T: T],
                         ids=["T^-eps", "1", "2", "4pi", "T^kappa"])
def test_table_size_covers_both_windows(T, Y_of_T):
    # the least table a spec accepts holds the integral window, which
    # holds the sum window, across Y's range (13 is the first integer T
    # whose range holds 4 pi); N >= T^(1/2) > 1 keeps the sum window nonempty
    Y = Y_of_T(T)
    need = table_size(T, Y)
    values = np.zeros(need + 1, dtype=complex)
    values[1] = 1.0
    spec = SumSpec(T=T, table=CoefficientTable(values=values, x_max=need, source="unit"), Y=Y)
    assert spec.sum_window()[1] <= spec.integral_window()[1] <= need
    assert spec.sum_window()[0] <= spec.sum_window()[1]


def test_route_battery_builds_the_least_table_a_spec_accepts(monkeypatch):
    # the battery's default table and SumSpec's minimum come from one rule
    sizes = []
    real = criteria.synth_eisenstein

    def spy(params, x_max):
        sizes.append(x_max)
        return real(params, x_max)

    monkeypatch.setattr(criteria, "synth_eisenstein", spy)
    criteria.route_battery(T=64.0)
    assert sizes == [table_size(64.0, SumSpec.Y)]
    with pytest.raises(TableTooSmallError):
        SumSpec(T=64.0, table=real(D3, sizes[0] - 1))


def test_envelope_scales_with_table_mass():
    T = 100.0
    base = _sparse_table(T, SPARSE_100)
    doubled = _sparse_table(T, tuple((n, 2.0 * a) for n, a in SPARSE_100))
    env = keyident_envelope(SumSpec(T=T, table=base, tol=1e-6))
    env2 = keyident_envelope(SumSpec(T=T, table=doubled, tol=1e-6))
    assert env > 0.0
    assert env2 == pytest.approx(2.0 * env, rel=1e-12)

