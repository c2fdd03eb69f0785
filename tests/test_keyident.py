"""Tests for the sum-versus-integral identity and its prime-pair averaging."""
import functools
import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from gl3osc import criteria, keyident, oscquad, sums
from gl3osc.coeffs import synth_eisenstein
from gl3osc.cutoffs import Cutoff
from gl3osc.errors import ConfigError, TailNotConvergedError, ToleranceUnreachableError
from gl3osc.keyident import (
    AmplifierSpec,
    KeyIdentityInstance,
    amplified_average,
    dressing_constant,
    _riemann_rounding,
    lin_form_leading,
    riemann_side,
    verify_key_identity,
)
from gl3osc.oscquad import (K_SP_MAIN, OscInstance, integrate_main, integrate_phase,
                            integrate_shifted, probe_amplitude, stationary_phase_main)
from gl3osc.util import TWO_PI, kahan_csum, primes_in
from test_panel_bound import GL40, _reference_panels

# frozen against a plain-loop evaluation (fsum over scalar cmath terms with
# the same integer-reduced rational phases) of the T=1000, (p,l)=(7,2) window
GOLDEN_A = -0.0018694638670600453 - 0.026610435387248915j


def _instance(T: float, p: int, l: int, **kw) -> KeyIdentityInstance:
    N = T**1.5
    n = math.ceil(N / TWO_PI)
    return KeyIdentityInstance(T=T, n=n, N=N, p=p, l=l, **kw)


def _shifted_reference(inst: KeyIdentityInstance, signed_r: int, tol: float):
    """One shifted integral at beta = signed_r / h, by the one-row driver."""
    return integrate_phase(inst.amplitude, -inst.T, inst.n * inst.T / inst.N,
                           signed_r / inst.h, tol=tol)


def _dual_sum(inst: KeyIdentityInstance, ns=None, cs=None):
    """The `_poisson_terms` tuple of inst.n alone (weight 1), or of ns with
    the weights cs, as the pair loop makes it at the instance's own pair."""
    ns = [inst.n] if ns is None else ns
    cs = [1.0] * len(ns) if cs is None else cs
    return next(keyident._pair_terms(inst, [(inst.p, inst.l)], ns, cs))[2]


def _zero_amplitude() -> Cutoff:
    """Zero, with the zero bound that an instance's amplitude needs."""
    return Cutoff(support_lo=0.5, support_hi=2.0,
                  fn=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                  bound=lambda x0, x1, b: np.zeros(np.broadcast(x0, x1, b).shape))


def test_instance_validation():
    with pytest.raises(ConfigError):
        KeyIdentityInstance(T=-250.0, n=5, N=10.0, p=7, l=2)
    with pytest.raises(ConfigError):
        KeyIdentityInstance(T=250.0, n=0, N=10.0, p=7, l=2)
    with pytest.raises(ConfigError):
        KeyIdentityInstance(T=250.0, n=5, N=0.0, p=7, l=2)
    # N = inf would give the step h = 0
    with pytest.raises(ConfigError):
        KeyIdentityInstance(T=500.0, n=1, N=math.inf, p=5, l=3)
    with pytest.raises(ConfigError):
        _instance(250.0, 4, 3)
    with pytest.raises(ConfigError):
        _instance(250.0, 7, 9)
    with pytest.raises(ConfigError):
        _instance(250.0, 7, 7)
    with pytest.raises(ConfigError):
        _instance(250.0, 7, 2, tol=0.0)


def test_step_and_index_window():
    inst = _instance(1000.0, 7, 2)
    assert inst.h == 2.0 * 1000.0 / (inst.N * 7.0)
    lo, hi = inst.index_window()
    assert (lo, hi) == (56, 221)
    # the window is tight: its edges lie inside the support, one step out is o
    assert inst.amplitude.support_lo <= lo * inst.h
    assert hi * inst.h <= inst.amplitude.support_hi
    assert (lo - 1) * inst.h < inst.amplitude.support_lo
    assert inst.amplitude.support_hi < (hi + 1) * inst.h


def test_riemann_side_matches_frozen_golden():
    a = riemann_side(_instance(1000.0, 7, 2))
    assert abs(a - GOLDEN_A) < 1e-14


def test_one_n_window_keeps_the_bits():
    inst = _instance(1000.0, 7, 2)
    assert riemann_side(inst, [inst.n], [1.0]) == riemann_side(inst)


def test_riemann_rounding_bounds_the_windowed_sum():
    # A summed term by term in mpmath at 30 digits from the docstring's
    # formula, with the probe bump exp(-1/(1 - u^2)) written out
    inst = _instance(1000.0, 11, 3)
    with mp.workdps(30):
        T, N = mp.mpf(inst.T), mp.mpf(inst.N)
        h = inst.l * T / (N * inst.p)
        lo, hi = inst.index_window()
        total = mp.mpc(0)
        for r in range(lo, hi + 1):
            u = (r * h - mp.mpf(5) / 4) / (mp.mpf(3) / 4)
            bump = mp.exp(-1 / (1 - u * u)) if abs(u) < 1 else 0
            total += bump * mp.expj(-T * mp.log(r)
                                    - 2 * mp.pi * mp.mpf(inst.n * inst.p) / (inst.l * r))
        want = complex(h * mp.expj(-T * mp.log(h)) * total)
    err = abs(riemann_side(inst) - want)
    assert err <= _riemann_rounding(inst)
    # the bound is the charge verify_key_identity puts on A
    [rep] = verify_key_identity(inst)
    assert rep.budget == 10.0 * (2.0 * inst.tol + _riemann_rounding(inst))


def test_riemann_side_pad_invariance():
    # the terms outside the index window are exactly zero: a sum over a
    # range nine indices wider on each side gives the same bits
    inst = _instance(1000.0, 7, 2)
    lo, hi = inst.index_window()
    rs = np.arange(lo - 9, hi + 10, dtype=np.int64)
    denom = inst.l * rs
    frac = ((inst.n * inst.p) % denom) / denom.astype(float)
    terms = (inst.amplitude(rs * inst.h)
             * np.exp(-1j * inst.T * np.log(rs.astype(float)))
             * np.exp(-1j * TWO_PI * frac))
    assert np.count_nonzero(terms[:9]) == 0 and np.count_nonzero(terms[-9:]) == 0
    wide = complex(inst.h * np.exp(-1j * inst.T * np.log(inst.h)) * kahan_csum(terms))
    assert riemann_side(inst) == wide


def test_identity_holds_at_desk_scale():
    for rep in verify_key_identity(_instance(250.0, 5, 3), ((5, 3), (7, 2), (11, 3))):
        assert rep.passed
        assert rep.residual <= 1e-6 * rep.scale
        # the error components must sit inside their enforced shares
        inst_tol = 1e-9
        assert rep.m_err <= inst_tol
        assert rep.o_quad_err <= 0.5 * inst_tol
        assert rep.o_tail <= 0.5 * inst_tol


def test_identity_holds_at_a_prime_pair_past_the_sieve_ceiling():
    # (p, l) = (10007, 41) at T = 500: shifts r/h up to 4.4e4, where the
    # rounding of the phase r x/h used to hold the shell's estimate above
    # its share until a refinement ran out of panels; the factored phase
    # meets it on the first pass
    [rep] = verify_key_identity(_instance(500.0, 10007, 41))
    assert rep.passed
    assert rep.o_quad_err <= 0.5e-9
    # (10007, 3): the stationary range ends at r = 0.002, so the bound on
    # every |r| >= 1 stops the dual sum before its first grid, whose single
    # pass would need about 1.8M panels
    inst = _instance(500.0, 10007, 3)
    assert keyident._IbpTail(inst.osc, [inst.n], [1.0]).r_stat(inst.h) < 0.01
    [rep] = verify_key_identity(inst)
    assert rep.passed
    assert rep.r_max_used == 0 and rep.o_value == 0.0 and rep.o_quad_err == 0.0
    assert rep.o_tail < 1e-30


def test_recovered_m_is_step_independent():
    reports = verify_key_identity(_instance(500.0, 5, 3), ((5, 3), (7, 2), (11, 3), (13, 2)))
    hs = {rep.h for rep in reports}
    assert len(hs) == len(reports)
    for i, ri in enumerate(reports):
        for rj in reports[i + 1:]:
            diff = abs(ri.recovered_m - rj.recovered_m)
            assert diff <= 2.0 * (ri.budget + rj.budget)


def test_budget_scales_with_tolerance():
    inst = _instance(500.0, 7, 2)
    [rep] = verify_key_identity(inst)
    [half] = verify_key_identity(replace(inst, tol=inst.tol / 2.0))
    assert rep.passed and half.passed
    ratio = half.budget / rep.budget
    assert 0.4 <= ratio <= 0.6


def test_dual_terms_decay_superpolynomially():
    inst = _instance(1000.0, 7, 2)

    def term(r):
        return abs(_shifted_reference(inst, r, 1e-12).value)

    j1, j2, j3, j4 = term(1), term(2), term(3), term(4)
    assert j1 > 10.0 * j2
    assert j2 > 10.0 * j3
    assert j3 > 10.0 * j4
    # negative shifts never pass near the stationary point
    assert term(-1) < 1e-6
    assert term(-1) < j1


def test_dual_sum_tail_honesty():
    inst = _instance(500.0, 7, 2)
    o_a, tail_a = _dual_sum(inst)[:2]
    # the explicit wide shell r = 1..32 must differ from the dual sum by less
    # than both tails plus the quadrature shares; the wide pass needs a
    # looser tol since the per-term tolerance share shrinks with the index
    wide = replace(inst, tol=1e-7)
    rs = np.arange(1, 33)
    shell = integrate_shifted(wide.osc, rs, wide.h, tol=wide.tol / (32.0 * np.maximum(8, rs)))
    o_b = kahan_csum(shell.values)
    tail_b = keyident._IbpTail(wide.osc, [wide.n], [1.0]).bound(33, wide.h)
    assert 0.0 <= tail_a < 0.5 * inst.tol
    assert float(np.sum(shell.abs_errs)) <= 0.5 * wide.tol
    assert abs(o_a - o_b) <= tail_a + tail_b + inst.tol + wide.tol


def test_all_zero_weights_give_an_exact_zero_at_once(monkeypatch):
    # sum |c_n| = 0 made the tolerance 0, which no tail could get below,
    # so the shells doubled on toward MAX_R
    def no_grid(*args, **kwargs):
        raise AssertionError("gridded a shell")

    monkeypatch.setattr(keyident, "integrate_shifted", no_grid)
    inst = _instance(250.0, 7, 2)
    started = time.perf_counter()
    assert _dual_sum(inst, [inst.n], [0.0]) == (0.0, 0.0, 0.0, 0)
    assert _dual_sum(inst, [inst.n, inst.n + 1], [0.0, 0.0j]) == (0.0, 0.0, 0.0, 0)
    amp = AmplifierSpec.for_t(500.0)
    base = _instance(500.0, 7, 2)
    assert amplified_average(base, amp, [base.n, base.n + 1], [0.0, 0.0]) == (0.0, 0.0)
    assert time.perf_counter() - started < 1.0


def test_zero_amplitude_gives_exact_zero_identity():
    [rep] = verify_key_identity(
        _instance(250.0, 7, 2, amplitude=_zero_amplitude()))
    assert rep.m_value == 0.0
    assert rep.a_value == 0.0
    assert rep.o_value == 0.0
    assert rep.residual == 0.0
    assert rep.m_err == rep.o_quad_err == 0.0
    assert rep.passed


def test_instance_refuses_an_amplitude_without_a_bound():
    # the dual sum's shifted batches take the bounded path only: the
    # instance refuses such an amplitude, so verify_key_identity never
    # integrates its M
    with pytest.raises(ConfigError, match="Cutoff.bound"):
        _instance(250.0, 7, 2, amplitude=replace(probe_amplitude(), bound=None))


def test_leading_shape_matches_dressed_oracle():
    inst = _instance(1000.0, 7, 2)
    lead = lin_form_leading(inst)
    assert lead != 0.0
    d = dressing_constant(inst.T, inst.N)
    m = integrate_main(replace(inst.osc, tol=1e-11))
    envelope = K_SP_MAIN * inst.T**-1.5 * abs(d)
    assert abs(d * m.value - lead) <= envelope


@pytest.mark.parametrize("T", [250.0, 500.0, 1000.0])
def test_leading_shape_is_dressed_stationary_phase(T):
    inst = _instance(T, 7, 2)
    lead = lin_form_leading(inst)
    dressed = dressing_constant(inst.T, inst.N) * stationary_phase_main(inst.osc)[0]
    assert abs(lead - dressed) <= 1e-11 * abs(lead)


def test_shape_check_fails_on_a_wrong_shape(monkeypatch):
    # the conjugate of the true shape is off by 2 |Im lead|, far outside
    # K_SP_MAIN T^(-3/2) |D|, so every A01-shape check must go red
    monkeypatch.setattr(criteria, "lin_form_leading",
                        lambda inst: lin_form_leading(inst).conjugate())
    _, checks = criteria.key_identity_battery((250.0,))
    shape = [c for c in checks if c.check_id.startswith("A01-shape-")]
    assert len(shape) == len(criteria.KEY_PAIRS)
    assert not any(c.passed for c in shape)


def test_leading_shape_zero_off_support():
    T = 1000.0
    inst = KeyIdentityInstance(T=T, n=1, N=T**1.5, p=7, l=2)
    assert lin_form_leading(inst) == 0.0


def test_dressing_constant_modulus():
    for T, N in ((250.0, 250.0**1.5), (2000.0, 2000.0**1.5)):
        assert abs(abs(dressing_constant(T, N)) - math.sqrt(T)) < 1e-12 * math.sqrt(T)
    with pytest.raises(ConfigError):
        dressing_constant(0.0, 10.0)
    with pytest.raises(ConfigError):
        dressing_constant(10.0, 0.0)
    # (nan, 1) and (100, inf) had returned NaN with RuntimeWarnings
    for T, N in ((math.nan, 1.0), (100.0, math.nan), (math.inf, 1.0), (100.0, math.inf)):
        with pytest.raises(ConfigError):
            dressing_constant(T, N)


def test_amplifier_spec_at_desk_scales():
    amp = AmplifierSpec.for_t(500.0)
    assert amp.primes_p == (7, 11)
    assert amp.primes_l == (2, 3)
    assert len(amp.pairs) == 4
    # 4 / ((li(2P) - li(P)) (li(2L) - li(L))), from mpmath.li at 40 digits
    assert abs(amp.weighted_pair_count() - 0.7751199167282432) < 1e-12
    big = AmplifierSpec.for_t(2000.0)
    assert big.primes_p == (11, 13)
    assert big.primes_l == (3,)
    with pytest.raises(ConfigError):
        AmplifierSpec.for_t(1.0)
    with pytest.raises(ConfigError):
        AmplifierSpec.for_t(500.0, kappa=0.0)


@pytest.mark.parametrize("T, kappa", [(math.nan, 1.0 / 18.0), (500.0, math.nan)])
def test_amplifier_refuses_nan(T, kappa):
    # NaN passed `T <= 1` and `kappa <= 0` and reached the sieve as a bare
    # ValueError ("cannot convert float NaN to integer")
    with pytest.raises(ConfigError):
        AmplifierSpec.for_t(T, kappa=kappa)


def test_li_segment_matches_mpmath_up_to_the_sieve_ceiling():
    # li(2x) - li(x) at 30 digits, from just above li's pole at 1, across
    # the series/panel switch at e, up to the largest x the sieve reaches;
    # scipy's expi(log 2x) - expi(log x) was 3.1e-15 off at x = 109.39...
    xs = [1.0 + 2.0**-40, 1.0 + 1e-9, 1.5, 2.0, math.nextafter(math.e, 0.0), math.e,
          500.0 ** (1.0 / 9.0), 500.0 ** (5.0 / 18.0), 109.39560421846284,
          float(keyident.MAX_SIEVE)]
    xs += list(1.0 + np.geomspace(1e-12, keyident.MAX_SIEVE - 1.0, 160))
    with mp.workdps(30):
        for x in xs:
            ref = mp.li(2 * mp.mpf(x)) - mp.li(mp.mpf(x))
            assert abs(keyident._li_segment(x) - ref) <= 1e-15 * ref, x


def test_amplifier_refuses_a_sieve_past_its_ceiling(monkeypatch):
    def no_sieve(lo, hi):
        raise AssertionError(f"sieved [{lo}, {hi}]")

    monkeypatch.setattr(keyident, "primes_in", no_sieve)
    # kappa = 3/2 asks for a sieve of 3e20 bytes, kappa = 0.7 for 5.6e9
    for kappa in (1.5, 0.7):
        with pytest.raises(ConfigError, match=r"ceiling MAX_SIEVE = 1024, so it needs T <= "):
            AmplifierSpec.for_t(500.0, kappa=kappa)
    # at kappa = 1/5, P = T: T = 512 sieves exactly up to the ceiling
    with pytest.raises(ConfigError, match=r"= 512 at kappa = 0.2; got T = 513, where 2P = 1026"):
        AmplifierSpec.for_t(513.0, kappa=0.2)
    monkeypatch.undo()
    top = AmplifierSpec.for_t(512.0, kappa=0.2)
    assert top.primes_p[0] == 521 and top.primes_p[-1] == 1021
    assert AmplifierSpec.for_t(500.0).primes_p == (7, 11)


def test_amplifier_floor_is_named():
    # the segments [L, 2L] and [P, 2P] separate only from T = 2^(1/(3 kappa)),
    # which is 64 at kappa = 1/18
    with pytest.raises(ConfigError, match=r"T >= 2\^\(1/\(3 kappa\)\) = 64 "):
        AmplifierSpec.for_t(60.0)
    amp = AmplifierSpec.for_t(64.0)
    assert 2.0 * amp.L <= amp.P
    assert amp.pairs


def test_amplifier_touching_segments():
    # [5, 10] and [10, 20] share only the endpoint, which is not prime
    amp = AmplifierSpec(kappa=0.3, P=10.0, L=5.0,
                        primes_p=tuple(primes_in(10.0, 20.0)),
                        primes_l=tuple(primes_in(5.0, 10.0)))
    wpc = amp.weighted_pair_count()
    # 8 / ((li(20) - li(10)) (li(10) - li(5))), from mpmath.li at 40 digits
    assert abs(wpc - 0.8451992474055969) < 1e-12
    assert 0.5 <= wpc <= 2.0


def test_amplifier_validation():
    with pytest.raises(ConfigError):
        AmplifierSpec(kappa=0.3, P=10.0, L=8.0,
                      primes_p=(11, 17), primes_l=(13,))
    with pytest.raises(ConfigError):
        AmplifierSpec(kappa=0.3, P=10.0, L=5.0,
                      primes_p=(11, 13), primes_l=(5, 11))
    with pytest.raises(ConfigError):
        AmplifierSpec(kappa=0.3, P=10.0, L=5.0,
                      primes_p=(), primes_l=(5,))
    # li has its pole at 1, so segments must start above it
    with pytest.raises(ConfigError):
        AmplifierSpec(kappa=0.3, P=10.0, L=1.0,
                      primes_p=(11, 13), primes_l=(2,))
    with pytest.raises(ConfigError):
        AmplifierSpec(kappa=0.3, P=0.9, L=5.0,
                      primes_p=(2,), primes_l=(5, 7))


def test_amplified_average_recovers_main_integral():
    base = _instance(500.0, 7, 2)
    amp = AmplifierSpec.for_t(500.0)
    a_avg, o_avg = amplified_average(base, amp)
    m = integrate_main(base.osc)
    count = amp.weight * len(amp.pairs)
    resid = abs((a_avg - o_avg) - m.value * count)
    # each pair obeys the identity within its own budget; the average
    # inherits the weighted sum of those budgets
    budget = amp.weight * len(amp.pairs) * 10.0 * 2.0 * base.tol
    assert resid <= budget


def test_amplified_average_single_pair_degenerates():
    base = _instance(250.0, 7, 2)
    amp = AmplifierSpec(kappa=0.3, P=10.0, L=5.0,
                        primes_p=(11,), primes_l=(5,))
    a_avg, o_avg = amplified_average(base, amp)
    sub = replace(base, p=11, l=5)
    assert a_avg == amp.weight * riemann_side(sub)
    assert o_avg == amp.weight * _dual_sum(sub)[0]


def _reference_rows(inst: KeyIdentityInstance, ns, cs, r_last: int):
    """Reference: sum_n c_n I(n, beta) with every I a standalone
    integrate_phase at the row's share; {signed r: (value, error bound)}."""
    rows = {}
    for r in range(1, r_last + 1):
        share = inst.tol / (32.0 * max(8, r))
        for signed in (r, -r):
            parts = [_shifted_reference(replace(inst, n=n), signed, share) for n in ns]
            rows[signed] = (sum(c * q.value for c, q in zip(cs, parts)),
                            sum(abs(c) * q.abs_err for c, q in zip(cs, parts)))
    return rows


def _route_instances():
    """The route amplitude V at T = 64 and three n of its window."""
    T = 64.0
    table = synth_eisenstein(criteria.D3_PARAMS, sums.table_size(T, sums.SumSpec.Y))
    spec = sums.SumSpec(T=T, table=table, tol=1e-6)
    n_lo, n_hi = spec.sum_window()
    ns = [n_lo + 1, (n_lo + n_hi) // 2, n_hi - 1]
    base = KeyIdentityInstance(T=T, n=ns[0], N=spec.N, p=5, l=2, tol=spec.tol,
                               amplitude=sums._v_cutoff(spec.T, spec.Y))
    return base, ns


@pytest.mark.parametrize("case", ["probe-T100", "route-T64"])
def test_weighted_dual_sum_is_the_sum_of_each_n_alone(case, monkeypatch):
    # gapped n, one zero weight and complex weights: by linearity the
    # weighted dual sum is sum_n c_n O_n, within sum_n |c_n| times the
    # quadrature and tail bounds of both sides
    if case == "probe-T100":
        base = _instance(100.0, 7, 2)
        ns = [base.n - 3, base.n, base.n + 1, base.n + 6]
    else:
        base, ns = _route_instances()
        ns.append(ns[-1] - 4)
    cs = [0.7 + 0.2j, 0.0, -0.4 + 0.9j, 1.1j]
    mass = sum(abs(c) for c in cs)
    shells = []
    real = keyident.integrate_shifted

    def recorded(osc, rs, h, **kwargs):
        shells.append(np.array(rs))
        return real(osc, rs, h, **kwargs)

    monkeypatch.setattr(keyident, "integrate_shifted", recorded)
    o, tail, quad, r_max = _dual_sum(base, ns, cs)
    monkeypatch.undo()
    assert np.array_equal(np.concatenate(shells), np.arange(1, r_max + 1))
    assert tail < 0.5 * base.tol * mass
    assert quad <= 0.5 * base.tol * mass
    alone = [_dual_sum(replace(base, n=n)) for n in ns]
    want = sum(c * one[0] for c, one in zip(cs, alone))
    bound = quad + tail + sum(abs(c) * (one[1] + one[2]) for c, one in zip(cs, alone))
    assert abs(o - want) <= bound
    # row by row, every shell the dual sum gridded against standalone integrals
    reference = _reference_rows(base, ns, cs, r_max)
    for rs in shells:
        shares = mass * base.tol / (32.0 * np.maximum(8, rs))
        shell = integrate_shifted(base.osc, rs, base.h, tol=shares, ns=ns, cs=cs)
        assert shell.values.shape == (2 * rs.size,)
        for j, r in enumerate(rs):
            for k, signed in enumerate((int(r), -int(r))):
                value, err = shell.values[2 * j + k], shell.abs_errs[2 * j + k]
                ref_value, ref_err = reference[signed]
                assert err <= shares[j]
                assert abs(value - ref_value) <= err + ref_err


# the A09 average at T = 500, pinned (see test_single_n_calls_keep_their_bits)
_A09_AVERAGE = "(-0.0036782552999438277+0.027988570255246235j)"


def test_single_n_calls_keep_their_bits():
    # a batch of one n of weight 1 is the dual sum of that n alone: the
    # A01 instance at T = 250, (p, l) = (5, 3), and the A09 average at
    # T = 500 keep the bits they had when each n had its own dual sum.
    # The A09 pin moved once, with the amplifier weight 1 / (D(P) D(L)):
    # D = li(2x) - li(x) from scipy's expi gave the weight
    # 0.19377997918206064 and (-0.003678255325207987+0.0279885702651536j);
    # `_li_segment`, within 3e-16 of mpmath, gives 0.19377997918206083 and
    # the value (-0.003678255325207991+0.02798857026515363j), 9.9e-16
    # relative to the old one. All three moved again when the panels came
    # in runs of equal width and the shift phase factored per run (new grid,
    # new rounding): O from (-0.002050335572424838-0.007475369168455647j),
    # A - O from (0.050728088633725105+0.00961294414115161j), by 1.9e-14
    # each against a quadrature bound of 3.2e-13 on O; the A09 average by
    # 8.5e-15 against its tol 1e-9. They moved once more when the dual sum
    # came to stop on its integration-by-parts bound and no longer added
    # the rounding of the shell r = 9..16: O from
    # (-0.002050335572431335-0.00747536916847352j) and A - O from
    # (0.0507280886337316+0.00961294414116948j), by 9.2e-15 each against a
    # quadrature bound of 1.6e-13 on O; the A09 average from
    # (-0.0036782553252046567+0.027988570265161432j), by 6.3e-15. They
    # moved when the bound came to end each shell, so that the rows past
    # its first R with a bound below tol/2 go into the proved tail: the
    # instance grids r = 1..5 where it gridded 1..8, O from
    # (-0.002050335572434218-0.007475369168464736j) and A - O from
    # (0.050728088633734486+0.009612944141160698j), by 1.5e-11 each
    # against its o_tail of 1.0e-10; the A09 average from
    # (-0.0036782553252052382+0.027988570265155135j), by 2.7e-11 against
    # its budget of 1.55e-8. They moved when the panels came to be stepped
    # by the phase's own rate max |Phi'| and the mid phase r mid/h came to
    # be reduced mod 1 before its exponential (new grid, new rounding): O
    # from (-0.0020503355602721107-0.007475369160425698j) and A - O from
    # (0.05072808862157238+0.00961294413312166j), by 2.2e-15 each against a
    # quadrature bound of 9.7e-14 on O; the A09 average from
    # (-0.003678255299943469+0.027988570255246568j), by 8.2e-16. They
    # moved when the probe bump's integrals came to run on GL16 alone, on
    # graded grids of span 7 pi with a proved bound and reduced phases: O
    # from (-0.0020503355602738012-0.007475369160427163j) and A - O from
    # (0.05072808862157407+0.009612944133123125j), by 2.1e-15 each against
    # a quadrature bound of 1.6e-12 on O; the A09 average from
    # (-0.0036782552999436143+0.027988570255245756j), by 9.4e-16. The A09
    # average moved once more when its four pairs' shells came to share one
    # grid (the union of their shifts, new panels): from
    # (-0.003678255299944081+0.027988570255246575j), by 4.2e-16 against its
    # budget of 1.55e-8; the A01 instance, a pair loop of one pair, kept
    # its bits
    [rep] = verify_key_identity(_instance(250.0, 5, 3))
    assert repr(rep.o_value) == "(-0.0020503355602743984-0.007475369160429186j)"
    assert repr(rep.recovered_m) == "(0.050728088621574664+0.009612944133125148j)"
    a_avg, o_avg = amplified_average(_instance(500.0, 7, 2), AmplifierSpec.for_t(500.0))
    assert repr(a_avg - o_avg) == _A09_AVERAGE


def test_amplified_average_builds_the_q_m_once(monkeypatch):
    # the q_m depend on the amplitude, T, N and n, not on the pair: A09's
    # four pairs share one build (two Taylor tables of Phi'' per n), where
    # each pair had built its own, and the average keeps its bits (pinned
    # in test_single_n_calls_keep_their_bits). A01's battery checks its
    # three pairs of each T in one pair loop: one M and one q_m build per
    # T, three of each in all, where each (T, p, l) had made its own. The
    # rows gridded guard the work: each dual sum ends its shell at the first
    # r whose bound is below tol/2, so A09's four pairs grid 8 rows where
    # they gridded 32, and A01's nine instances 29 where they gridded 72
    calls, mains, rows = [], [], []
    real, real_main = keyident._taylor_inverse_power, keyident.integrate_main
    real_shifted = keyident.integrate_shifted

    def counted(x, j, k):
        calls.append(j)
        return real(x, j, k)

    def counted_main(osc):
        mains.append(osc.T)
        return real_main(osc)

    def counted_rows(osc, rs, h, **kwargs):
        rows.append(len(rs))
        return real_shifted(osc, rs, h, **kwargs)

    monkeypatch.setattr(keyident, "_taylor_inverse_power", counted)
    monkeypatch.setattr(keyident, "integrate_main", counted_main)
    monkeypatch.setattr(keyident, "integrate_shifted", counted_rows)
    amp = AmplifierSpec.for_t(500.0)
    a_avg, o_avg = amplified_average(_instance(500.0, 7, 2), amp)
    assert len(amp.pairs) == 4 and calls == [2, 3]
    assert sum(rows) == 8
    assert repr(a_avg - o_avg) == _A09_AVERAGE
    calls.clear()
    rows.clear()
    _, checks = criteria.key_identity_battery()
    assert mains == list(criteria.KEY_T_VALUES)
    assert calls == [2, 3] * len(criteria.KEY_T_VALUES)
    assert sum(rows) == 29
    assert all(c.passed for c in checks)


def test_pair_loop_reports_keep_each_pairs_bits():
    # one verify_key_identity call over three pairs gives, pair by pair, the
    # report a call at that pair alone gives, bit for bit in every field
    # that the shared shell grid does not reach: M, A, the step, the
    # integration-by-parts tail o_tail, the last r and the budget. The
    # pairs' rows share one grid a shell (for the union of their shifts)
    # where each pair had its own, so O moves within both calls'
    # quadrature bounds. The A01 pairs, and A09's four pairs at T = 500
    base = _instance(500.0, 5, 3)
    for pairs in (((11, 3), (5, 3), (7, 2)), tuple(AmplifierSpec.for_t(500.0).pairs)):
        together = verify_key_identity(base, pairs)
        assert [(rep.p, rep.l) for rep in together] == list(pairs)
        for (p, l), rep in zip(pairs, together):
            [alone] = verify_key_identity(replace(base, p=p, l=l))
            assert replace(alone, o_value=rep.o_value, o_quad_err=rep.o_quad_err,
                           residual=rep.residual, passed=rep.passed) == rep
            assert rep.r_max_used == alone.r_max_used and rep.o_tail == alone.o_tail
            assert abs(rep.o_value - alone.o_value) <= rep.o_quad_err + alone.o_quad_err
            assert rep.passed and alone.passed
    assert verify_key_identity(base, ()) == []


def _counted_grids(monkeypatch) -> list:
    """Every `oscquad.PanelGrid` built from here on, as (c_lin min, max)."""
    grids = []
    real = oscquad.PanelGrid

    class Counted(real):
        def __init__(self, lo, hi, c_log, c_inv, c_lin, *args, **kwargs):
            grids.append((float(np.min(c_lin)), float(np.max(c_lin))))
            super().__init__(lo, hi, c_log, c_inv, c_lin, *args, **kwargs)

    monkeypatch.setattr(oscquad, "PanelGrid", Counted)
    return grids


def test_a_pair_loop_grids_each_shell_once(monkeypatch):
    # A01's three pairs at T = 500 grid M and one shell: the shell r = 1..R
    # of every pair is one batch, each pair's r with its own step, on the
    # grid of the union of their shifts, where M and a shell per pair made
    # four grids. A pair whose bound ends its sum before r = 1 adds no
    # rows, and a loop where no pair has rows grids M alone
    base = _instance(500.0, 5, 3)
    pairs = criteria.KEY_PAIRS
    batches = []
    real = keyident.integrate_shifted

    def recorded(osc, rs, h, **kwargs):
        batches.append((np.array(rs), np.broadcast_to(h, np.shape(rs)).copy()))
        return real(osc, rs, h, **kwargs)

    monkeypatch.setattr(keyident, "integrate_shifted", recorded)
    grids = _counted_grids(monkeypatch)
    reports = verify_key_identity(base, pairs)
    assert len(grids) == 2 and grids[0] == (0.0, 0.0)
    [(rs, hs)] = batches
    tops = [rep.r_max_used for rep in reports]
    assert np.array_equal(rs, np.concatenate([np.arange(1, top + 1) for top in tops]))
    assert np.array_equal(hs, np.repeat([rep.h for rep in reports], tops))
    assert grids[1] == (-float(np.max(rs / hs)), float(np.max(rs / hs)))
    grids.clear()
    batches.clear()
    [far, near] = verify_key_identity(base, ((10007, 3), (5, 3)))
    assert far.r_max_used == 0 and far.o_value == 0.0 and far.passed and near.passed
    [(rs, hs)] = batches
    assert np.all(hs == near.h) and len(grids) == 2
    grids.clear()
    batches.clear()
    assert verify_key_identity(base, ((10007, 3),))[0].passed
    assert batches == [] and len(grids) == 1


@pytest.mark.parametrize("T, kappa, pairs", [(500.0, 1.0 / 9.0, 14), (4000.0, 1.0 / 8.0, 62)])
def test_larger_amplifiers_pass_well_under_a_second(T, kappa, pairs):
    # A09 with 14 and 62 prime pairs, each shell of the pair loop one batch:
    # 5 and 20 ms on a 2-CPU x86-64 machine, where a batch per pair and
    # shell took 7 and 33 ms
    started = time.perf_counter()
    outputs, checks = criteria.amplified_battery(T=T, kappa=kappa)
    assert time.perf_counter() - started < 1.0
    assert len(outputs["pairs"]) == pairs
    assert all(c.passed for c in checks)


def test_batched_dual_sum_raises_past_max_r(monkeypatch):
    # without a jet the probe bump keeps the shell-mass rule, which needs
    # r up to 16 at this instance, so a ceiling of 8 stops it
    monkeypatch.setattr(keyident, "MAX_R", 8)
    inst = _instance(250.0, 7, 2, amplitude=replace(probe_amplitude(), jet=None))
    with pytest.raises(TailNotConvergedError):
        _dual_sum(inst)
    with pytest.raises(TailNotConvergedError):
        _dual_sum(inst, [inst.n, inst.n + 1], [1.0, 0.5j])


def test_dual_sum_bound_refuses_past_max_r(monkeypatch):
    # at T = 1000, (p, l) = (13, 11) the stationary range ends at r = 8.52,
    # and the bound on |r| >= 9 is 1.8e-9, above tol/2: with MAX_R = 8 the
    # sum may grid no further shell, so it refuses; with the default
    # ceiling its second shell is the row r = 9 alone, and it stops on the
    # bound on |r| >= 10
    inst = _instance(1000.0, 13, 11)
    o, tail, quad, r_max = _dual_sum(inst)
    assert r_max == 9 and tail < 0.5 * inst.tol
    monkeypatch.setattr(keyident, "MAX_R", 8)
    with pytest.raises(TailNotConvergedError, match="r_max 8"):
        _dual_sum(inst)


def test_batched_dual_sum_raises_when_budget_runs_out(monkeypatch):
    inst = _instance(250.0, 7, 2)
    ns, cs = [inst.n, inst.n + 1], [1.0, 0.5j]
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", 100)
    with pytest.raises(ToleranceUnreachableError):
        _dual_sum(inst, ns, cs)
    # tol 1e-30 lies below every row's a priori rounding term: refused on
    # the first grid, naming that term
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", 100_000)
    with pytest.raises(ToleranceUnreachableError) as info:
        _dual_sum(replace(inst, tol=1e-30), ns, cs)
    assert info.value.achieved > 1e-30


def test_a_grid_past_the_budget_refuses_with_the_last_estimate(monkeypatch):
    # at tol 3e-11 the first shell's first grid misses its bound's target,
    # and the grid rebuilt at a narrower span outgrows a budget that the
    # first fits, while it is built: the refusal names the budget and the
    # first grid's worst figure (its bound plus a row's rounding term,
    # times sum |c_n|), where it once said "panel budget exhausted while
    # gridding" with achieved NaN. The amplitude is never evaluated
    calls = []
    probe = probe_amplitude()
    amp = replace(probe, fn=lambda x: calls.append(x) or probe.fn(x))
    inst = _instance(250.0, 7, 2, tol=3e-11, amplitude=amp)
    ns, cs = [inst.n, inst.n + 1], [1.0, 0.5j]
    grids, figures = [], []
    real_grid, real_rounding = oscquad.PanelGrid.__init__, oscquad.PanelGrid.rounding

    def counted(self, *args, **kwargs):
        real_grid(self, *args, **kwargs)
        grids.append(self)

    def kept(self, *args, **kwargs):
        out = real_rounding(self, *args, **kwargs)
        weight = 1.5  # sum |c_n|, as `_one_pass` scales the figures
        figures.append(weight * self.disc + weight * out)
        return out

    monkeypatch.setattr(oscquad.PanelGrid, "__init__", counted)
    monkeypatch.setattr(oscquad.PanelGrid, "rounding", kept)
    _dual_sum(inst, ns, cs)
    first, second = grids[0].evaluations, grids[1].evaluations
    assert first < second
    grids.clear()
    figures.clear()
    calls.clear()
    monkeypatch.setattr(oscquad, "DEFAULT_EVAL_BUDGET", first + 1)
    with pytest.raises(ToleranceUnreachableError,
                       match=f"^budget {first + 1} exhausted; achieved") as info:
        _dual_sum(inst, ns, cs)
    assert len(grids) == len(figures) == 1 and not calls
    assert info.value.achieved == figures[0].max()


def test_refinement_below_the_rounding_floor_refuses_within_three_passes(monkeypatch):
    # the estimate path's stall rule, on one integral (`integrate_phase`,
    # the bump without its bound): at T = 500, (p, l) = (5, 3) the row
    # r = 6 meets tol 1e-13 on its first pass, but at 1e-14 its estimate
    # sits on a floor near 8e-14: the second and third passes do not halve
    # it, so the call refuses after three grids, naming the last estimate
    inst = _instance(500.0, 5, 3)
    amp, c_inv, c_lin = replace(inst.amplitude, bound=None), inst.n * inst.T / inst.N, 6 / inst.h
    grids, estimates = [], []
    real_grid, real_reduce = oscquad.PanelGrid.__init__, oscquad.PanelGrid.reduce

    def counted(self, *args, **kwargs):
        grids.append(args)
        real_grid(self, *args, **kwargs)

    def kept(self, *args, **kwargs):
        out = real_reduce(self, *args, **kwargs)
        estimates.append(out[1])
        return out

    monkeypatch.setattr(oscquad.PanelGrid, "__init__", counted)
    monkeypatch.setattr(oscquad.PanelGrid, "reduce", kept)
    assert integrate_phase(amp, -inst.T, c_inv, c_lin, tol=1e-13).abs_err <= 1e-13
    assert len(grids) == 1
    grids.clear()
    estimates.clear()
    with pytest.raises(ToleranceUnreachableError,
                       match="^estimate not halved in 2 passes, refinement exhausted; "
                             "achieved") as info:
        integrate_phase(amp, -inst.T, c_inv, c_lin, tol=1e-14)
    assert len(grids) == 3
    assert info.value.achieved == estimates[-1]
    assert 1e-14 < info.value.achieved < 1e-13


@pytest.mark.parametrize("T", criteria.KEY_T_VALUES)
@pytest.mark.parametrize("pair", criteria.KEY_PAIRS)
def test_ibp_bound_lies_above_the_computed_shells(T, pair):
    # the shells r = 9..16 and 17..32 of every A01 instance, at tol 1e-13:
    # their rows are rounding (each below its abs_err), so the bound on
    # |r| >= 9 (resp. 17) must hold the sum of their moduli within their
    # summed quadrature bounds
    inst = _instance(T, *pair)
    tail = keyident._IbpTail(inst.osc, [inst.n], [1.0])
    assert tail.r_stat(inst.h) < 9.0
    for lo, hi in ((9, 16), (17, 32)):
        shell = integrate_shifted(inst.osc, np.arange(lo, hi + 1), inst.h, tol=1e-13)
        mass = float(np.sum(np.abs(shell.values)))
        assert mass <= tail.bound(lo, inst.h) + float(np.sum(shell.abs_errs))
        assert tail.bound(lo, inst.h) < 0.5 * inst.tol


def test_ibp_bound_holds_next_to_the_stationary_range():
    # at T = 250, (p, l) = (5, 3) the stationary range ends at r = 3.03;
    # the rows 4..11 hold about 2e-8 there, far above their rounding, and
    # the bound on |r| >= 4 is about five times that. The rows are those
    # of the long-double composite rule of `test_panel_bound` (the bounded
    # path's rounding term, 1.4e-14 a row here, refuses a tolerance that
    # would resolve them), with its nodes formed in long double too. Its
    # Gauss error is below 1e-30; its rule's nodes u_k, weights and A are
    # doubles, each term so erring by under 32 eps |w A| (a rounded u_k
    # moves a node's phase by at most eps half |Phi'| <= 20 eps), and that
    # figure is each row's error
    inst = _instance(250.0, 5, 3)
    tail = keyident._IbpTail(inst.osc, [inst.n], [1.0])
    assert 3.0 < tail.r_stat(inst.h) < 4.0
    T, N, h = inst.T, inst.N, inst.h
    mids, halfs = _reference_panels(0.5, 2.0, lambda y: T / y + TWO_PI * inst.n * T / (N * y * y)
                                    + TWO_PI * 11 / h, 0.75 / 200.0)
    ld = np.longdouble
    xl = (mids.astype(ld)[:, None] + halfs.astype(ld)[:, None] * GL40[0].astype(ld)).ravel()
    wts = (halfs[:, None] * GL40[1]).ravel() * inst.amplitude.fn(xl.astype(float))
    two_pi = 8 * np.arctan(ld(1))
    base = -ld(T) * np.log(xl) / two_pi - inst.n * (ld(T) / ld(N)) / xl
    values = []
    for r in range(4, 12):
        for sign in (1, -1):
            turns = base - sign * r * xl / ld(h)
            turns -= np.rint(turns)
            values.append(complex(float(np.sum(wts * np.cos(two_pi * turns))),
                                  float(np.sum(wts * np.sin(two_pi * turns)))))
    errs = np.full(len(values), 32.0 * np.finfo(float).eps * float(np.sum(np.abs(wts))))
    mass = float(np.sum(np.abs(values)))
    assert mass > 1e5 * float(np.sum(errs))
    assert mass <= tail.bound(4, inst.h) < 10.0 * mass


def test_ibp_bound_refuses_the_stationary_range():
    # below r_stat(h) some row has a stationary point, where no integration
    # by parts holds: at T = 250, (p, l) = (5, 3), r_stat = 3.03
    inst = _instance(250.0, 5, 3)
    tail = keyident._IbpTail(inst.osc, [inst.n], [1.0])
    for lo in (1, 3):
        with pytest.raises(ConfigError, match=r"lo > r_stat\(h\) = 3.02825; got lo"):
            tail.bound(lo, inst.h)
        with pytest.raises(ConfigError):
            tail.bounds(lo, 8, inst.h)
    # one pass over R = 4..9 gives each R's bound
    bounds = tail.bounds(4, 9, inst.h)
    assert np.allclose(bounds, [tail.bound(lo, inst.h) for lo in range(4, 10)], rtol=1e-13)
    assert np.all(np.diff(bounds) < 0.0)


_A09_PAIRS = tuple(AmplifierSpec.for_t(500.0).pairs)
_BOUND_CASES = sorted({(T, pair) for T in criteria.KEY_T_VALUES for pair in criteria.KEY_PAIRS}
                      | {(500.0, pair) for pair in _A09_PAIRS})


@pytest.mark.parametrize("T, pair", _BOUND_CASES,
                         ids=[f"T{T:g}-{p}-{l}" for T, (p, l) in _BOUND_CASES])
def test_dual_sum_ends_where_the_bound_covers_the_rest(T, pair):
    # every A01 instance and A09's four pairs at T = 500: the dual sum
    # grids r = 1..R, R the smallest with R + 1 past the stationary range
    # and a bound on |r| >= R + 1 below tol/2, found here from `_IbpTail`
    # alone. The rows R + 1..16 that the bound now covers, gridded at a
    # tight tolerance, must sum with their quadrature bounds to no more
    # than the reported o_tail wherever those bounds resolve it: at
    # T = 1000, (7, 2) every such row lies below its own rounding (o_tail
    # 5.3e-13, quadrature bounds 1.0e-12), and the reference can only show
    # that the moduli exceed o_tail by no more than their bounds. The
    # reference is computed, not certified (interval-arithmetic references
    # are ROADMAP direction 8)
    inst = _instance(T, *pair)
    tail = keyident._IbpTail(inst.osc, [inst.n], [1.0])
    want = math.floor(tail.r_stat(inst.h))
    while tail.bound(want + 1, inst.h) >= 0.5 * inst.tol:
        want += 1
    [rep] = verify_key_identity(inst)
    assert rep.r_max_used == want < keyident.FIRST_SHELL_R
    assert rep.o_tail == pytest.approx(tail.bound(want + 1, inst.h), rel=1e-13)
    assert rep.o_tail < 0.5 * inst.tol
    skipped = integrate_shifted(inst.osc, np.arange(want + 1, 17), inst.h, tol=1e-13)
    mass, err = float(np.sum(np.abs(skipped.values))), float(np.sum(skipped.abs_errs))
    assert mass - err <= rep.o_tail
    if err < rep.o_tail:
        assert mass + err <= rep.o_tail


def test_ibp_trapezoid_norm_matches_mpmath_quadrature():
    # the row +9 at T = 250, (p, l) = (5, 3): D^8 A formed in mpmath at 30
    # digits by applying D f = (f g)', g = 1/Psi', to the Taylor series of
    # A and of g (not through the q_m), then integrated by Gauss-Legendre
    # on panels graded toward the support's edges, where |D^8 A| peaks. The
    # 801-node trapezoid sum is within 1% of it (0.15% here); the bound
    # multiplies every such sum by IBP_CUSHION = 2
    inst = _instance(250.0, 5, 3)
    tail = keyident._IbpTail(inst.osc, [inst.n], [1.0])
    got = float(tail.row_norms(np.array([9]), inst.h)[0])
    k = keyident.IBP_ORDER
    with mp.workdps(30):
        T, C = mp.mpf(inst.T), 2 * mp.pi * inst.n * mp.mpf(inst.T) / mp.mpf(inst.N)
        shift = 2 * mp.pi * 9 / mp.mpf(inst.h)

        def bump(x):
            u = (x - mp.mpf(5) / 4) / (mp.mpf(3) / 4)
            return mp.exp(-1 / (1 - u * u))

        def dka(x):
            f = mp.taylor(bump, x, k)
            g = mp.taylor(lambda t: 1 / (C / t**2 - T / t - shift), x, k)
            for _ in range(k):
                fg = [mp.fsum(f[i] * g[j - i] for i in range(j + 1)) for j in range(len(f))]
                f = [j * fg[j] for j in range(1, len(fg))]
            return abs(f[0])

        edges = [mp.mpf(e) for e in (0.5, 0.53, 0.56, 0.6, 0.7, 0.85, 1.0, 1.25, 1.5, 1.7,
                                     1.85, 1.94, 1.97, 2.0)]
        want = float(mp.quad(dka, edges, method="gauss-legendre", maxdegree=4))
    assert abs(got - want) <= 0.01 * want
    assert keyident.IBP_CUSHION * got >= 1.5 * want
