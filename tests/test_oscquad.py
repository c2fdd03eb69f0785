"""Tests for the oscillatory-integral oracle and its stationary-phase law."""
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3osc import cli, keyident, oscquad, sums
from gl3osc.cutoffs import Cutoff
from gl3osc.errors import ConfigError, ToleranceUnreachableError
from gl3osc.oscquad import (
    K_SP_MAIN,
    OscInstance,
    PanelGrid,
    _lattice_sum,
    _phase_rate,
    integrate_main,
    integrate_phase,
    integrate_shifted,
    phase_values,
    probe_amplitude,
    stationary_phase_main,
)
from gl3osc.util import GL16, TWO_PI, _lattice_exp, _panel_runs, kahan_csum, loglog_slope
from test_util import LATTICE, LATTICE_B, LATTICE_C

# frozen against an independent arbitrary-precision evaluation (30 digits,
# Gauss-Legendre with degree doubling) of the T=50, n=8, N=50 instance
GOLDEN_SMALL = 0.085882899748423332 - 0.076752743400557140j


def _estimated_probe() -> Cutoff:
    """The probe bump without its jet and bound: integrated on the estimate
    path (GL16 + GL8, span halving), as the integral route's amplitude is.
    A shifted batch refuses it."""
    return Cutoff(support_lo=0.5, support_hi=2.0, fn=probe_amplitude().fn)


def _zero_amplitude() -> Cutoff:
    """Zero, with the zero bound, so that shifted batches take it."""
    return Cutoff(support_lo=0.5, support_hi=2.0,
                  fn=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                  bound=lambda x0, x1, b: np.zeros(np.broadcast(x0, x1, b).shape))


def test_zero_amplitude_integrates_to_zero():
    inst = OscInstance(T=100.0, n=3, N=10.0, amplitude=_zero_amplitude())
    main = integrate_main(inst)
    assert main.value == 0.0 and main.abs_err == 0.0
    rows = integrate_shifted(inst, rs=[2], h=1.0)
    assert np.all(rows.values == 0.0) and np.all(rows.abs_errs == 0.0)


def test_instance_validation():
    with pytest.raises(ConfigError):
        OscInstance(T=-1.0, n=1, N=1.0)
    with pytest.raises(ConfigError):
        OscInstance(T=1.0, n=0, N=1.0)
    with pytest.raises(ConfigError):
        OscInstance(T=1.0, n=1, N=0.0)
    with pytest.raises(ConfigError):
        OscInstance(T=1.0, n=1, N=1.0, tol=0.0)
    bad = Cutoff(support_lo=-1.0, support_hi=2.0, fn=lambda y: y)
    with pytest.raises(ConfigError):
        OscInstance(T=1.0, n=1, N=1.0, amplitude=bad)


@pytest.mark.parametrize("field", ["T", "N", "tol"])
def test_instance_refuses_nan(field):
    # NaN fails every comparison, so a check written with <= let it through
    kwargs = {"T": 100.0, "n": 3, "N": 10.0, "tol": 1e-9, field: math.nan}
    with pytest.raises(ConfigError):
        OscInstance(**kwargs)


@pytest.mark.parametrize("field", ["T", "N", "tol"])
def test_instance_refuses_inf(field):
    # N = inf drops the e(-nT/(Nx)) phase and tol = inf stops after one pass
    kwargs = {"T": 100.0, "n": 3, "N": 10.0, "tol": 1e-9, field: math.inf}
    with pytest.raises(ConfigError):
        OscInstance(**kwargs)


def test_phase_stationary_at_predicted_point():
    T, n, N = 300.0, 7, 40.0
    x0 = TWO_PI * n / N
    d = 1e-6 * x0
    lo = phase_values(np.array([x0 - d]), -T, n * T / N, 0.0)[0]
    hi = phase_values(np.array([x0 + d]), -T, n * T / N, 0.0)[0]
    # first difference vanishes to second order at the stationary point
    assert abs(hi - lo) / (2.0 * d) < 1e-4 * T


def test_oracle_matches_frozen_golden():
    inst = OscInstance(T=50.0, n=8, N=50.0, tol=1e-11)
    res = integrate_main(inst)
    assert abs(res.value - GOLDEN_SMALL) < 1e-12
    assert abs(res.value - GOLDEN_SMALL) <= res.abs_err + 1e-12
    assert res.abs_err <= 1e-11
    assert res.evaluations >= res.panels


def test_leading_constant_modulus():
    for T, n, N in ((250.0, 40, 251.3), (1000.0, 160, 1005.3)):
        inst = OscInstance(T=T, n=n, N=N)
        lead, _ = stationary_phase_main(inst)
        x0 = TWO_PI * n / N
        want = np.sqrt(TWO_PI) * x0
        got = abs(lead) * np.sqrt(T) / inst.amplitude(x0)
        assert abs(got - want) < 1e-12


def test_stationary_point_outside_support_gives_zero_leading_term():
    # x0 = 2*pi*n/N = 4 sits beyond the probe support [1/2, 2]
    inst = OscInstance(T=500.0, n=2, N=np.pi)
    lead, envelope = stationary_phase_main(inst)
    assert lead == 0.0
    assert envelope == pytest.approx(K_SP_MAIN * 500.0**-1.5)


def test_oracle_magnitude_matches_leading_term_at_large_t():
    T = 1000.0
    N = T**1.5
    n = int(np.ceil(N / TWO_PI))
    inst = OscInstance(T=T, n=n, N=N, tol=1e-10)
    oracle = integrate_main(inst)
    lead, envelope = stationary_phase_main(inst)
    assert abs(oracle.value - lead) <= envelope
    assert abs(abs(oracle.value) - abs(lead)) <= envelope


def test_residual_against_leading_term_decays_like_t_to_minus_three_halves():
    n = 1000
    N = TWO_PI * n  # keeps x0 = 1 on the whole grid
    t_grid = [250.0, 500.0, 1000.0, 2000.0]
    resids = []
    for T in t_grid:
        inst = OscInstance(T=T, n=n, N=N, tol=1e-10)
        oracle = integrate_main(inst)
        lead, envelope = stationary_phase_main(inst)
        resid = abs(oracle.value - lead)
        assert resid <= envelope
        resids.append(resid)
    slope, _ = loglog_slope(t_grid, resids)
    assert -1.8 <= slope <= -1.2


def test_tolerance_halving_self_consistency():
    inst = OscInstance(T=300.0, n=47, N=47.0 * TWO_PI / 1.2)
    r1 = integrate_main(replace(inst, tol=1e-8))
    r2 = integrate_main(replace(inst, tol=5e-9))
    assert abs(r1.value - r2.value) <= r1.abs_err + r2.abs_err


def test_conjugation_symmetry():
    # flipping the sign of every phase coefficient conjugates the integral
    T, n, N = 400.0, 61, 380.0
    amp = probe_amplitude()
    fwd = integrate_phase(amp, -T, n * T / N, 0.0, tol=1e-10)
    rev = integrate_phase(amp, T, -n * T / N, 0.0, tol=1e-10)
    assert abs(rev.value - np.conj(fwd.value)) < 1e-12


def test_linearity_in_the_amplitude():
    v1 = probe_amplitude()
    # the probe dilated by 1.3: v2(y) = v1(y / 1.3)
    v2 = Cutoff(support_lo=v1.support_lo * 1.3, support_hi=v1.support_hi * 1.3,
                fn=lambda y: v1.fn(np.asarray(y, dtype=float) / 1.3))
    a, b = 2.0, -0.7

    def combo_fn(y):
        return a * v1.fn(np.asarray(y, dtype=float)) + b * v2.fn(np.asarray(y, dtype=float))

    combo = Cutoff(support_lo=v1.support_lo,
                   support_hi=v2.support_hi, fn=combo_fn)
    T, n, N = 200.0, 31, 190.0
    tol = 1e-10
    lhs = integrate_phase(combo, -T, n * T / N, 0.0, tol=tol)
    r1 = integrate_phase(v1, -T, n * T / N, 0.0, tol=tol)
    r2 = integrate_phase(v2, -T, n * T / N, 0.0, tol=tol)
    want = a * r1.value + b * r2.value
    assert abs(lhs.value - want) <= lhs.abs_err + abs(a) * r1.abs_err + abs(b) * r2.abs_err + 1e-12


def test_zero_shift_equals_main():
    inst = OscInstance(T=150.0, n=17, N=100.0, tol=1e-10)
    main = integrate_main(inst)
    rows = integrate_shifted(inst, rs=[0], h=1.0, tol=1e-10)
    # both beta = 0 rows are the main integral, on the batch's own grid
    for value, err in zip(rows.values, rows.abs_errs):
        assert abs(value - main.value) <= err + main.abs_err


def test_shifted_batch_holds_each_row_to_its_own_tolerance():
    # the bounded path's one pass, on a grid whose bound meets the
    # smallest tolerance: a tight row's tolerance refines the grid of all
    # rows, and each row's proved figure meets its own
    T = 100.0
    N = T**1.5
    inst = OscInstance(T=T, n=int(np.ceil(N / TWO_PI)), N=N)
    betas = [1, 5]  # with h = 1 the shifts r/h are the r themselves
    loose = integrate_shifted(inst, tol=1e-4, rs=betas, h=1.0)
    mixed = integrate_shifted(inst, tol=[1e-4, 1e-12], rs=betas, h=1.0)
    assert np.all(loose.abs_errs <= 1e-4) and loose.abs_errs.max() > 1e-12
    assert np.all(mixed.abs_errs <= np.repeat([1e-4, 1e-12], 2))
    assert mixed.evaluations > loose.evaluations
    c_inv = inst.n * inst.T / inst.N
    for j, beta in enumerate(betas):
        for k, signed in enumerate((beta, -beta)):
            one = integrate_phase(inst.amplitude, -inst.T, c_inv, signed, tol=1e-13)
            row = 2 * j + k
            assert abs(mixed.values[row] - one.value) <= mixed.abs_errs[row] + one.abs_err


def test_shifted_rows_follow_the_layout_on_gapped_lattices():
    T = 100.0
    N = T**1.5
    n0 = int(np.ceil(N / TWO_PI))
    inst = OscInstance(T=T, n=n0, N=N, tol=1e-10)
    ns, cs = [n0, n0 + 1, n0 + 5], [0.5 - 0.25j, 0.0, 1j]
    rs, h = [1, 2, 7], 0.5
    batch = integrate_shifted(inst, rs=rs, h=h, ns=ns, cs=cs)
    assert batch.values.shape == batch.abs_errs.shape == (6,)
    # values[2j] is sum_n c_n I(n, +rs[j]/h) and values[2j + 1] the sum at -rs[j]/h
    for j, r in enumerate(rs):
        for k, c_lin in enumerate((r / h, -r / h)):
            ones = [integrate_phase(inst.amplitude, -T, n * T / N, c_lin, tol=1e-13)
                    for n in ns]
            want = sum(c * one.value for c, one in zip(cs, ones))
            want_err = sum(abs(c) * one.abs_err for c, one in zip(cs, ones))
            row = 2 * j + k
            assert abs(batch.values[row] - want) <= batch.abs_errs[row] + want_err


def test_repeated_n_adds_its_weights():
    inst = OscInstance(T=100.0, n=5, N=TWO_PI * 5.0, tol=1e-10)
    a, b = 0.7 - 0.2j, -0.3 + 1.1j
    twice = integrate_shifted(inst, rs=[1, 3], h=0.5, ns=[5, 5], cs=[a, b])
    once = integrate_shifted(inst, rs=[1, 3], h=0.5, ns=[5], cs=[a + b])
    assert np.all(np.abs(twice.values - once.values) <= twice.abs_errs + once.abs_errs)
    assert np.all(np.abs(once.values) > 1e3 * (twice.abs_errs + once.abs_errs))


def test_block_size_leaves_the_bits_alone(monkeypatch):
    # blocks of one run of panels (the caps of one panel and of 31 panels
    # for 4 r) and of three runs: the same bytes, values and error
    # figures, on gapped n and r with complex weights
    T = 100.0
    N = T**1.5
    n0 = int(np.ceil(N / TWO_PI))
    inst = OscInstance(T=T, n=n0, N=N, tol=1e-10)
    ns = [n0, n0 + 1, n0 + 5, n0 + 70, n0 + 3]
    cs = [0.5 - 0.25j, 0.0, 1j, -0.8 + 0.1j, 0.3 + 0.3j]
    got = []
    for cap in (24 * 4, 24 * 4 * 31, 24 * 64 * 4 * 3):
        monkeypatch.setattr(oscquad, "BLOCK_ELEMENTS", cap)
        batch = integrate_shifted(inst, rs=[1, 2, 7, 90], h=0.5, ns=ns, cs=cs)
        got.append((batch.values.tobytes(), batch.abs_errs.tobytes(), batch.evaluations))
    assert got[0] == got[1] == got[2]


def _per_node_rows(grid, amp_values, inst, ns, cs, rs, h):
    """The rows of `PanelGrid.reduce_rows` from a shift table per node.

    The path the shifted batches took before the shift phase factored per
    run, unblocked: the factor row and the table e(-r x/h) on every node,
    each panel's GL16 sums as products of the two, and each row's panel
    sums added in panel order. Returns (values, mass), the mass being
    sum_p half_p sum_k |factor A w_k|.
    """
    ns, rs = np.asarray(ns), np.asarray(rs)
    m, x = grid.panels, grid.nodes
    n_lo, r_lo = ns.min(), rs.min()
    head = -inst.T * np.log(x) - TWO_PI * (n_lo * inst.T / inst.N) / x
    factor = _lattice_sum(head, -TWO_PI * (inst.T / inst.N) / x, ns - n_lo,
                          np.asarray(cs, dtype=complex))
    base = (factor * amp_values).reshape(m, 16) * GL16[1]
    table = _lattice_exp(-TWO_PI * (r_lo / h) * x, -TWO_PI / h * x, rs - r_lo)
    table = table.reshape(rs.size, m, 16).transpose(1, 2, 0)
    rows = np.stack((base[:, None, :] @ table, np.conj(base.conj()[:, None, :] @ table)), axis=-1)
    sums = rows.reshape(m, -1) * grid.halfs[:, None]
    values = np.array([kahan_csum(col) for col in sums.T])
    return values, np.sum(np.abs(base) * grid.halfs[:, None])


@pytest.mark.parametrize("T, rs, h", [(100.0, [7, 1, 90, 2] + list(range(10, 75)), 0.5),
                                      (1000.0, [9, 10, 13, 16, 80], 3 / (11 * 1000.0**0.5))])
def test_factored_rows_match_a_table_per_node(T, rs, h):
    # gapped n and r, unsorted r, complex weights, on one bounded grid (69
    # r make two chunks of LATTICE_BLOCK); the factored rows
    # e(-r mid/h) e(-r half u_k/h) and the per-node table e(-r x/h) are
    # lattice products of their own, each within LATTICE_C eps (LATTICE_B +
    # theta) of exp, theta the largest phase 2 pi r x / h, and the node
    # x = mid + half u_k rounds by eps theta; so every row agrees within
    # 3 LATTICE_C eps (LATTICE_B + theta) times its mass
    N = T**1.5
    n0 = int(np.ceil(N / TWO_PI))
    inst = OscInstance(T=T, n=n0, N=N)
    ns = np.array([n0, n0 + 1, n0 + 5, n0 + 70, n0 + 3])
    cs = np.array([0.5 - 0.25j, 0.0, 1j, -0.8 + 0.1j, 0.3 + 0.3j])
    amp = inst.amplitude
    grid = PanelGrid(amp.support_lo, amp.support_hi, -T, ns.max() * T / N, max(rs) / h,
                     oscquad.BOUND_SPAN, amplitude=amp, target=1e-12)
    values = amp.fn(grid.nodes)
    got, _ = grid.reduce_rows(values, inst, ns, cs, np.asarray(rs), h)
    want, mass = _per_node_rows(grid, values, inst, ns, cs, rs, h)
    theta = TWO_PI * max(rs) * amp.support_hi / h
    eps = np.finfo(float).eps
    bound = 3.0 * LATTICE_C * eps * (LATTICE_B + theta) * mass
    assert np.all(np.abs(got - want) <= bound)


def test_shifted_shell_memory_stays_bounded():
    # one shell of the T = 1000 identity at (p, l) = (11, 3), r = 9..16, at
    # tol 1e-12: the blocks of whole runs keep its traced peak at 7.9 MB
    T = 1000.0
    N = T**1.5
    inst = OscInstance(T=T, n=int(np.ceil(N / TWO_PI)), N=N)
    h = 3 * T / (N * 11)
    tracemalloc.start()
    try:
        integrate_shifted(inst, np.arange(9, 17), h, tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(c_log=st.floats(-1e3, 1e3), c_inv=st.floats(-100.0, 100.0),
       c_lin=st.floats(-1e3, 1e3), span=st.floats(np.pi / 8, np.pi),
       lo=st.floats(0.25, 2.0), length=st.floats(0.01, 2.0))
def test_panel_runs_tile_the_support_within_cap_and_span(c_log, c_inv, c_lin, span, lo,
                                                         length):
    hi = lo + length
    cap = (hi - lo) / 8.0 * (span / np.pi)  # as PanelGrid caps a panel
    phase_rate = _phase_rate(hi, c_log, c_inv, c_lin)
    calls = []

    def rate(x):
        calls.append(x)
        return phase_rate(x)

    edges, sizes, widths = _panel_runs(lo, hi, cap, span, rate, 10**6)
    # at lo, then at most once per run, at its right end (a panel cut at hi
    # takes none)
    assert len(calls) <= sizes.size + 1
    # no gap: one edge list from lo to hi, as many panels as the runs hold
    assert edges[0] == lo and edges[-1] == hi
    assert np.all(np.diff(edges) > 0.0)
    assert sizes.sum() == edges.size - 1 and np.all(sizes >= 1)
    # every panel has its run's width, to rounding
    panel_w = np.repeat(widths, sizes)
    assert np.allclose(np.diff(edges), panel_w, rtol=1e-9, atol=4 * np.finfo(float).eps * hi)
    assert np.all(np.diff(edges) <= cap * (1 + 1e-12))
    # R only falls, so a panel covers at most R at its left edge times its
    # width, and R bounds |Phi'| to its right (each to rounding)
    left = np.array([phase_rate(float(x)) for x in edges[:-1]])
    assert np.all(np.diff(edges) * left <= span * (1 + 1e-9))
    scale = abs(c_log) / lo + TWO_PI * abs(c_inv) / lo**2 + TWO_PI * abs(c_lin)
    inner = edges[:-1, None] + np.diff(edges)[:, None] * np.linspace(0.0, 1.0, 9)
    slope = np.abs(c_log / inner + TWO_PI * c_inv / inner**2 - TWO_PI * c_lin)
    assert np.all(slope <= left[:, None] + 1e-12 * scale)
    # PanelGrid steps by the same rate and cap
    grid = PanelGrid(lo, hi, c_log, c_inv, c_lin, span)
    assert np.array_equal(grid.edges, edges)
    assert np.array_equal(grid.halfs, 0.5 * panel_w)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(c_log=st.floats(-1e4, 1e4), c_inv=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
       c_lin=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
       lo=st.floats(0.05, 2.0), length=st.floats(0.01, 4.0))
def test_phase_rate_is_the_falling_max_of_every_rows_slope(c_log, c_inv, c_lin, lo, length):
    # R(x) >= |Phi'(y)| for every y in [x, hi], every c_inv (the batch's n)
    # and every c_lin (the rows' signed beta), it never rises, and it is
    # that maximum, not a sum of the terms' sizes: within the spacing of a
    # dense sample of y and the corners of the coefficients' ranges
    hi = lo + length
    rate = _phase_rate(hi, c_log, np.asarray(c_inv), np.asarray(c_lin))
    xs = np.linspace(lo, hi, 41)
    rates = np.array([rate(float(x)) for x in xs])
    scale = abs(c_log) / lo + TWO_PI * max(map(abs, c_inv)) / lo**2 + TWO_PI * max(map(abs, c_lin))
    assert np.all(np.diff(rates) <= 1e-12 * scale)
    # y from 1/t on a dense t-grid of [1/hi, 1/lo], the corners of the ranges
    t = np.linspace(1.0 / hi, 1.0 / lo, 4001)
    corners = [(a, b) for a in (min(c_inv), max(c_inv)) for b in (min(c_lin), max(c_lin))]
    slopes = np.max([np.abs(TWO_PI * a * t * t + c_log * t - TWO_PI * b) for a, b in corners],
                    axis=0)
    every = np.max([np.abs(TWO_PI * a * t * t + c_log * t - TWO_PI * b)
                    for a in c_inv for b in c_lin], axis=0)
    assert np.all(every <= slopes + 1e-12 * scale)
    # |d Phi' / dt| bounds how far the sample's max may sit below the true one
    lipschitz = 2.0 * TWO_PI * max(map(abs, c_inv)) / lo + abs(c_log)
    for x, r in zip(xs, rates):
        right = t <= 1.0 / x
        assert np.all(slopes[right] <= r + 1e-12 * scale)
        assert r <= slopes[right].max() + lipschitz * (t[1] - t[0]) + 1e-12 * scale


def test_phase_rate_refuses_a_non_finite_coefficient():
    # a NaN anywhere in a range makes the rate NaN, which _panel_runs refuses
    for c_inv, c_lin in (([1.0, math.nan], 0.0), (1.0, [math.nan, 2.0]), (1.0, math.inf)):
        assert math.isnan(_phase_rate(2.0, -10.0, np.asarray(c_inv), np.asarray(c_lin))(1.0))
    assert math.isnan(_phase_rate(2.0, math.nan, 1.0, 0.0)(1.0))


def test_shifted_pass_memory_does_not_grow_with_the_number_of_n():
    # one pass of 8 r on a bounded grid of many panels (span pi/8), so
    # the shift table reaches its cap: 400 n cost at most twice the peak
    # of 1 n
    T = 1000.0
    N = T**1.5
    n0 = int(np.ceil(N / TWO_PI))
    inst = OscInstance(T=T, n=n0, N=N)
    amp = inst.amplitude
    grid = PanelGrid(amp.support_lo, amp.support_hi, -T, np.arange(n0, n0 + 400) * T / N,
                     [-8.0, 8.0], np.pi / 8.0, amplitude=amp, target=1e-12)
    assert grid.panels * 16 * 8 > 4 * oscquad.BLOCK_ELEMENTS
    values = amp.fn(grid.nodes)
    rs = np.arange(1, 9)
    peaks = []
    for ns in (np.array([n0]), np.arange(n0, n0 + 400)):
        cs = np.full(ns.shape, 0.5 + 0.5j)
        tracemalloc.start()
        try:
            grid.reduce_rows(values, inst, ns, cs, rs, 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def test_shifted_batch_refuses_shifts_off_the_lattice():
    inst = OscInstance(T=100.0, n=3, N=10.0)
    with pytest.raises(ConfigError):
        integrate_shifted(inst, rs=[1.5], h=1.0)
    with pytest.raises(ConfigError):
        integrate_shifted(inst, rs=[1], h=1.0, ns=[3, 4], cs=[1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_linear_phase_is_refused_at_once(bad):
    # refused before the first grid: a NaN rate would grid one panel a pass
    # until the evaluation budget ran out
    started = time.perf_counter()
    with pytest.raises(ConfigError, match="rate"):
        integrate_phase(probe_amplitude(), -100.0, 30.0, bad)
    assert time.perf_counter() - started < 1.0


def test_shifted_batch_refuses_a_nan_step_at_once():
    started = time.perf_counter()
    with pytest.raises(ConfigError, match="rate"):
        integrate_shifted(OscInstance(T=100.0, n=3, N=10.0), rs=[1, 2], h=math.nan)
    assert time.perf_counter() - started < 1.0


_BAD_SHIFTED = {
    "no-bound": {"rs": [1], "h": 1.0, "amplitude": _estimated_probe()},
    "h-inf": {"rs": [1, 2], "h": math.inf},
    "h-zero": {"rs": [1, 2], "h": 0.0},
    "h-negative": {"rs": [1, 2], "h": -1.0},
    "h-one-negative": {"rs": [1, 2], "h": [0.5, -0.5]},
    "h-shape": {"rs": [1, 2], "h": [0.5, 0.5, 0.5]},
    "r-negative": {"rs": [-1], "h": 1.0},
    "ns-empty": {"rs": [1], "h": 1.0, "ns": [], "cs": []},
    "n-zero": {"rs": [1], "h": 1.0, "ns": [0]},
    "tol-nan": {"rs": [1, 2], "h": 1.0, "tol": math.nan},
    "tol-zero": {"rs": [1, 2], "h": 1.0, "tol": 0.0},
    "tol-negative": {"rs": [1, 2], "h": 1.0, "tol": -1.0},
    "tol-inf": {"rs": [1, 2], "h": 1.0, "tol": math.inf},
    "tol-one-nan": {"rs": [1, 2], "h": 1.0, "tol": [1e-9, math.nan]},
    "tol-shape": {"rs": [1, 2], "h": 1.0, "tol": [1e-9, 1e-9, 1e-9]},
}


@pytest.mark.parametrize("kwargs", _BAD_SHIFTED.values(), ids=_BAD_SHIFTED)
def test_shifted_batch_refuses_bad_inputs_before_any_grid(kwargs, monkeypatch):
    # before these checks h = inf warned and was then refused as a
    # non-finite integrand, h = 0 warned "divide by zero", h = -1, r = -1
    # and n = 0 were accepted, and an empty ns and a tol of the wrong
    # shape raised numpy's ValueError; tol = NaN spent its grids up to the
    # evaluation budget, tol <= 0 was refused below the rounding floor,
    # tol = inf was accepted, and an amplitude without a bound took the
    # estimate path
    def no_grid(*args, **kw):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oscquad, "PanelGrid", no_grid)
    kwargs = dict(kwargs)
    inst = OscInstance(T=100.0, n=3, N=10.0, amplitude=kwargs.pop("amplitude", probe_amplitude()))
    with pytest.raises(ConfigError):
        integrate_shifted(inst, **kwargs)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf, [1e-9, 1e-9]],
                         ids=["nan", "zero", "negative", "inf", "shape"])
def test_phase_refuses_a_bad_tol_before_any_grid(tol, monkeypatch):
    # on both paths; before the check tol = NaN spent its grids up to the
    # evaluation budget, tol <= 0 was refused below the rounding floor or
    # after two passes that halved no estimate, and tol = inf was accepted
    def no_grid(*args, **kw):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oscquad, "PanelGrid", no_grid)
    for amplitude in (probe_amplitude(), _estimated_probe()):
        with pytest.raises(ConfigError, match="tol"):
            integrate_phase(amplitude, -100.0, 30.0, 0.0, tol=tol)


def test_shifted_batch_of_no_r_is_empty():
    inst = OscInstance(T=100.0, n=3, N=10.0)
    for h in (1.0, []):
        rows = integrate_shifted(inst, rs=[], h=h)
        assert rows.values.shape == rows.abs_errs.shape == (0,)
        assert rows.values.dtype == complex and rows.evaluations == 0


def test_rows_with_two_steps_match_each_steps_own_batch():
    # the steps of A01's pairs (5, 3) and (7, 2) at T = 250, in three runs
    # (h1, h2, then h1 again), for a weighted batch of three n: on the one
    # grid of all their shifts each row equals its step's own batch within
    # both rows' abs_err, and steps that are all equal keep the bits of
    # one step for all
    T = 250.0
    N = T**1.5
    n0 = math.ceil(N / TWO_PI)
    inst = OscInstance(T=T, n=n0, N=N, tol=1e-10)
    ns, cs = [n0, n0 + 1, n0 + 3], [1.0, 0.5j, -0.25]
    h1, h2 = 3 * T / (N * 5), 2 * T / (N * 7)
    parts = [(np.arange(1, 4), h1), (np.arange(1, 7), h2), (np.array([4, 6]), h1)]
    rs = np.concatenate([r for r, _ in parts])
    steps = np.concatenate([np.full(r.size, h) for r, h in parts])
    together = integrate_shifted(inst, rs, steps, ns=ns, cs=cs)
    at = 0
    for r, h in parts:
        own = slice(2 * at, 2 * (at + r.size))
        at += r.size
        alone = integrate_shifted(inst, r, h, ns=ns, cs=cs)
        assert np.all(together.abs_errs[own] <= inst.tol)
        gap = np.abs(together.values[own] - alone.values)
        assert np.all(gap <= together.abs_errs[own] + alone.abs_errs)
    rs = np.arange(1, 9)
    alone = integrate_shifted(inst, rs, h2, ns=ns, cs=cs)
    same = integrate_shifted(inst, rs, np.full(rs.size, h2), ns=ns, cs=cs)
    assert np.array_equal(same.values, alone.values)
    assert np.array_equal(same.abs_errs, alone.abs_errs)


@LATTICE
@given(heads=st.lists(st.floats(-2e5, 2e5), min_size=1, max_size=8),
       step=st.floats(-2e3, 2e3),
       terms=st.lists(st.tuples(st.integers(0, 4000), st.complex_numbers(max_magnitude=4.0)),
                      min_size=1, max_size=40))
def test_lattice_sum_matches_direct_exponentials(heads, step, terms):
    # sparse, gapped, repeated and unsorted offsets alike; each run's
    # Horner chain is no longer than a table's product chain, so the
    # table's bound holds per unit of weight
    head = np.asarray(heads)
    steps = step * np.linspace(0.5, 2.0, head.size)
    ks = np.asarray([k for k, _ in terms])
    cs = np.asarray([c for _, c in terms], dtype=complex)
    got = _lattice_sum(head, steps, ks, cs)
    assert got.shape == head.shape
    want = np.sum(cs[:, None] * np.exp(1j * (head + ks[:, None] * steps)), axis=0)
    theta = np.abs(head) + ks.max() * np.abs(steps)
    eps = np.finfo(float).eps
    bound = LATTICE_C * eps * (LATTICE_B + theta) * np.sum(np.abs(cs))
    assert np.all(np.abs(got - want) <= bound)


def test_nonstationary_shift_suppresses_the_integral():
    T = 1000.0
    n = 500
    N = TWO_PI * n  # x0 = 1, interior
    inst = OscInstance(T=T, n=n, N=N, tol=1e-10)
    main = integrate_main(inst)
    # beta = 4T/(2*pi) pushes |Phi'| >= 2T on all of [1/2, 2]
    shifted = integrate_shifted(inst, rs=[1], h=TWO_PI / (4.0 * T), tol=1e-10)
    assert 10.0 * abs(shifted.values[0]) <= abs(main.value)


def test_evaluation_budget_enforced(monkeypatch):
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", 100)
    inst = OscInstance(T=1000.0, n=1000, N=TWO_PI * 1000.0)
    with pytest.raises(ToleranceUnreachableError):
        integrate_main(inst)


# T = 20, n = 1, N = 4, on the estimate path: 25 panels (600 evaluations)
# at span pi for the main integral; the amplitudes each integrator takes
# (a shifted batch only one with a bound)
SMALL = OscInstance(T=20.0, n=1, N=4.0, amplitude=_estimated_probe())
BOTH_INTEGRATORS = {"phase": integrate_main,
                    "shifted": lambda inst: integrate_shifted(inst, rs=[0, 1], h=1.0)}
TAKES = {"phase": (_estimated_probe(), probe_amplitude()), "shifted": (probe_amplitude(),)}


@pytest.mark.parametrize("name", BOTH_INTEGRATORS)
def test_budget_too_small_for_one_pass_is_refused(monkeypatch, name):
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", 100)
    for amplitude in TAKES[name]:
        with pytest.raises(ToleranceUnreachableError,
                           match="^evaluation budget too small for one pass$") as info:
            BOTH_INTEGRATORS[name](replace(SMALL, amplitude=amplitude))
        assert np.isnan(info.value.achieved)


def test_phase_budget_refusal_reports_the_last_estimate(monkeypatch):
    # the first pass fits, its refinement does not fit beside it
    amp = SMALL.amplitude
    grid = PanelGrid(amp.support_lo, amp.support_hi, -20.0, 5.0, 0.0, np.pi)
    phase = phase_values(grid.nodes, -20.0, 5.0, 0.0)
    _, err = grid.reduce(amp.fn(grid.nodes) * np.exp(1j * phase))
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", grid.evaluations + 1)
    with pytest.raises(ToleranceUnreachableError, match="exhausted; achieved") as info:
        BOTH_INTEGRATORS["phase"](replace(SMALL, tol=1e-30))
    assert info.value.achieved == err


def test_shifted_budget_refusal_reports_the_worst_live_row(monkeypatch):
    # r = 0's tolerance 1e-13 is missed by the first grid's bound (3.4e-13
    # on 80 panels), and the grid rebuilt at a narrower span (119 panels)
    # outgrows the budget while it is built. r = 40 meets its 1e-6 on the
    # first grid, though its rounding term is the larger: the refusal
    # names the worst figure, bound plus rounding, of the rows that grid
    # missed (r = 0's), before the amplitude is evaluated
    inst = OscInstance(T=100.0, n=3, N=10.0)
    amp, rs, h, tol = inst.amplitude, np.array([0, 40]), 0.25, np.array([1e-13, 1e-6])
    c_lins = np.outer(rs / h, [1.0, -1.0]).ravel()
    # the first grid of the batch, as `_one_pass` builds it
    grid = PanelGrid(amp.support_lo, amp.support_hi, -100.0, np.array([30.0]), c_lins,
                     oscquad.BOUND_SPAN, amplitude=amp, target=0.5 * tol.min())
    rounding = grid.rounding(c_lins, oscquad._chains(np.array([3]), rs, np.full(2, h)))
    assert grid.disc > 0.5 * tol.min() and rounding[2:].min() > rounding[:2].max()
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", grid.evaluations + 1)
    with pytest.raises(ToleranceUnreachableError, match=r"^budget \d+ exhausted; achieved") as info:
        integrate_shifted(inst, rs, h, tol=tol)
    figures = grid.disc + rounding
    missed = figures > 0.5 * np.repeat(tol, 2)
    assert missed.tolist() == [True, True, False, False]
    assert info.value.achieved == figures[missed].max() < figures.max()


@pytest.mark.parametrize("name", BOTH_INTEGRATORS)
def test_nan_amplitude_is_refused_not_returned(monkeypatch, name):
    # on the estimate path a NaN estimate never meets a tolerance and never
    # falls, so the passes stop after two that halve no estimate; the
    # bounded path refuses the non-finite values of its one pass
    probe = probe_amplitude()
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", 100_000)
    for amplitude in TAKES[name]:
        amp = replace(amplitude, fn=lambda x: np.where(x > 1.3, np.nan, probe.fn(x)))
        reason = "refinement exhausted" if amp.bound is None else "non-finite integrand"
        with pytest.raises(ToleranceUnreachableError, match=f"{reason}; achieved nan") as info:
            BOTH_INTEGRATORS[name](replace(SMALL, amplitude=amp))
        assert np.isnan(info.value.achieved)


def test_every_battery_grids_its_shifted_batches_on_the_bounded_path(monkeypatch):
    # the suite, every battery at its defaults: each grid built inside a
    # shifted batch is bounded, and the only estimate grids are those of
    # the integral route's main integral
    inside, grids = set(), []
    real_grid = PanelGrid.__init__

    def counted(self, *args, **kwargs):
        real_grid(self, *args, **kwargs)
        grids.append((self.bounded, frozenset(inside)))

    def within(name, fn):
        def call(*args, **kwargs):
            inside.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.discard(name)
        return call

    monkeypatch.setattr(PanelGrid, "__init__", counted)
    monkeypatch.setattr(keyident, "integrate_shifted", within("shifted", keyident.integrate_shifted))
    monkeypatch.setattr(sums, "_integral_route", within("route", sums._integral_route))
    report = cli.run(cli.RunConfig(command="suite"))
    assert all(check.passed for check in report.checks)
    shifted = [bounded for bounded, where in grids if "shifted" in where]
    assert shifted and all(shifted)
    estimated = [where for bounded, where in grids if not bounded]
    assert estimated and all(where == {"route"} for where in estimated)
