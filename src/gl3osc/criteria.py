"""Named verification batteries shared by the CLI and the acceptance gate.

Every check the verifier makes lives here. Each battery returns (outputs,
checks): deterministic values for the report body plus Check records whose
ids (A01..A11 with sub-letters, and zeta-local-residual) are the stable
criterion names. A battery that checks a decay law fits its own log-log
slope. Wall-clock limits are asserted by callers; timing never enters a
report's canonical content.
"""
from __future__ import annotations

import tempfile
from dataclasses import replace
from itertools import combinations
from math import ceil
from pathlib import Path

import numpy as np

from . import whittaker
from .coeffs import (CoefficientTable, hecke_mult_check, load_coefficients,
                     rankin_selberg_check, save_coefficients,
                     synth_eisenstein)
from .cutoffs import (ONE_OVER_2PI, g_cutoff, h0_cutoff, mellin_invert, mellin_on_line,
                      v0_cutoff)
from .errors import ConfigError
from .gammafactor import (KERNEL_EPS, KERNEL_KAPPA, LanglandsParams, f_line_mass, g_kernel,
                          g_kernel_batch, gamma_pi, gamma_pi_line)
from .keyident import (AmplifierSpec, KeyIdentityInstance, amplified_average,
                       dressing_constant, lin_form_leading, verify_key_identity)
from .oscquad import K_SP_MAIN, integrate_main, stationary_phase_main
from .reports import Check
from .sums import SumSpec, compare_routes, table_size
from .util import TWO_PI, loglog_slope

# pinned plateau-point value v* = V0(1/(2*pi)) of the c1 = 1 bump
VSTAR_GOLDEN = 0.3602945695614048

D3_PARAMS = LanglandsParams(alpha=(0.0j, 0.0j, 0.0j))

KEY_T_VALUES = (250.0, 500.0, 1000.0)
KEY_PAIRS = ((5, 3), (7, 2), (11, 3))
SCALING_T_GRID = (250.0, 500.0, 1000.0, 2000.0)


def _center_instance(T: float, p: int = 5, l: int = 3, tol: float = 1e-9) -> KeyIdentityInstance:
    """The canonical instance: N = T^(3/2), n at the stationary center."""
    N = T**1.5
    return KeyIdentityInstance(T=T, n=ceil(N / TWO_PI), N=N, p=p, l=l, tol=tol)


def bump_battery(c1: float = 1.0) -> tuple[dict, tuple]:
    """Golden cutoff values and the Mellin round-trip (A08)."""
    vstar = float(v0_cutoff(c1)(ONE_OVER_2PI))
    # a trapezoid sum, independent of the GL16 rule that normalized g
    g_norm = complex(mellin_on_line(g_cutoff(), 0.0, [0.0])[0])
    # the kernel's own window
    h0 = h0_cutoff(500.0, KERNEL_KAPPA, KERNEL_EPS)
    lo, hi = h0.support_lo, h0.support_hi
    points = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)
    recon = [complex(v) for v in mellin_invert(h0, points)]
    worst = max(abs(got - h0(float(y))) for got, y in zip(recon, points))
    outputs = {
        "vstar": vstar,
        "g_normalization": g_norm,
        "roundtrip_points": [float(y) for y in points],
        "roundtrip_values": recon,
    }
    checks = []
    if c1 == 1.0:
        # the golden value is pinned for the default bump only
        checks.append(Check(
            "bump-vstar", "V0(1/(2*pi)) matches the pinned golden value",
            abs(vstar - VSTAR_GOLDEN), 1e-14))
    checks.extend([
        Check("bump-gnorm", "integral g d*y = 1 after normalization",
              abs(g_norm - 1.0), 1e-10),
        Check("A08", "h0 reconstructed from its Mellin transform at 5 points",
              worst, 1e-6),
    ])
    return outputs, tuple(checks)


def key_identity_battery(t_values=KEY_T_VALUES, pairs=KEY_PAIRS,
                         tol: float = 1e-9) -> tuple[dict, tuple]:
    """Identity exactness (A01) and the dressed shape (A01-shape) per
    instance, and h-independence (A02)."""
    outputs = {}
    checks = []
    for T in t_values:
        # one pair loop per T: M, D and the leading shape do not depend on the pair
        base = _center_instance(T, tol=tol)
        reports = verify_key_identity(base, pairs)
        d = dressing_constant(base.T, base.N)
        lead = lin_form_leading(base)
        for (p, l), rep in zip(pairs, reports):
            tag = f"T{T:g}-p{p}l{l}"
            outputs[f"m-{tag}"] = rep.m_value
            outputs[f"recovered-{tag}"] = rep.recovered_m
            checks.append(Check(
                f"A01-{tag}", "key identity residual |M - (A - O)|",
                rep.residual, 1e-6 * rep.scale))
            checks.append(Check(
                f"A01-shape-{tag}",
                "|D (A - O) - n^(-iT) sqrt(2 pi) e^(-i pi/4) x0 V(x0)| "
                "within K_SP_MAIN T^(-3/2) |D|",
                abs(d * rep.recovered_m - lead),
                K_SP_MAIN * T**-1.5 * abs(d)))
        worst = max((abs(a.recovered_m - b.recovered_m) / (2.0 * (a.budget + b.budget))
                     for a, b in combinations(reports, 2)), default=0.0)
        checks.append(Check(
            f"A02-T{T:g}",
            "recovered M pairwise within 2x combined budgets (worst ratio)",
            worst, 1.0))
    return outputs, tuple(checks)


def stationary_phase_battery(t_values=SCALING_T_GRID,
                             tol: float = 1e-10) -> tuple[dict, tuple]:
    """The c_T stationary-phase law (A03)."""
    resids = []
    outputs = {}
    ct_err = 0.0
    for T in t_values:
        inst = _center_instance(T, tol=tol).osc
        oracle = integrate_main(inst)
        lead, _ = stationary_phase_main(inst)
        resids.append(abs(oracle.value - lead))
        outputs[f"oracle-T{T:g}"] = oracle.value
        outputs[f"leading-T{T:g}"] = lead
        x0 = TWO_PI * inst.n / inst.N
        measured = abs(lead) * T**0.5 / float(inst.amplitude(x0))
        ct_err = max(ct_err, abs(measured - np.sqrt(TWO_PI) * x0))
    slope, _ = loglog_slope(t_values, resids)
    outputs["residuals"] = resids
    outputs["slope"] = slope
    checks = (
        Check("A03-slope",
              "|oracle - c_T T^(-1/2) V(x0)| falls with slope -3/2 (+-0.3)",
              abs(slope + 1.5), 0.3),
        Check("A03-ct", "|c_T| = sqrt(2*pi) * 2*pi*n/N",
              ct_err, 1e-12),
    )
    return outputs, checks


def zeta_point_battery(T: float, tol: float, c1: float) -> tuple[dict, tuple]:
    """Single-T check of Z against its stationary-phase constant."""
    z = whittaker.local_zeta(whittaker.LocalZetaParams(T=T, c1=c1), tol=tol)
    lead = whittaker.c_constant(T, c1) * T**-0.5
    resid = abs(z.value - lead)
    outputs = {"z": z.value, "leading": lead,
               "normalized": abs(z.value) * T**0.5}
    checks = (Check("zeta-local-residual",
                    "|Z - C_T T^(-1/2)| within the calibrated K/T envelope",
                    resid, (whittaker.K_ZETA_REL / T) * abs(lead)),)
    return outputs, checks


def local_zeta_battery(t_grid=SCALING_T_GRID, strip_ts=(250.0, 1000.0),
                       tol: float = 1e-10, c1: float = 1.0) -> tuple[dict, tuple]:
    """Critical-line decay (A04) and the Re(s) = -1/2 strip level (A05).

    On the critical line |Z| falls like T^(-1/2) and its residual against
    C_T T^(-1/2) like T^(-3/2); at Re(s) = -1/2, |Z| T^(5/4) stays level.
    """
    if len(strip_ts) < 2:
        raise ConfigError("the strip level needs at least two T values")
    abs_z, normalized, residuals = [], [], []
    for T in t_grid:
        z = whittaker.local_zeta(whittaker.LocalZetaParams(T=T, c1=c1), tol=tol).value
        abs_z.append(abs(z))
        normalized.append(abs(z) * T**0.5)
        residuals.append(abs(z - whittaker.c_constant(T, c1) * T**-0.5))
    strip = []  # |Z| T^(1/2 - 3 Re(s)/2) at Re(s) = -1/2
    for T in strip_ts:
        z = whittaker.local_zeta(whittaker.LocalZetaParams(T=T, s=-0.5 + 0j, c1=c1), tol=tol)
        strip.append(abs(z.value) * T**1.25)
    slope_abs_z, _ = loglog_slope(t_grid, abs_z)
    slope_residual, _ = loglog_slope(t_grid, residuals)
    band_ratio = max(strip) / min(strip)
    level = TWO_PI * VSTAR_GOLDEN
    outputs = {
        "normalized": normalized,
        "slope_abs_z": slope_abs_z,
        "slope_residual": slope_residual,
        "strip_normalized": strip,
        "strip_band_ratio": band_ratio,
    }
    checks = (
        Check("A04-level", "|Z| * sqrt(T) within 2% of 2*pi*v* at the top T",
              abs(normalized[-1] - level), 0.02 * level),
        Check("A04-slope", "|Z| decays with slope -1/2 (+-0.05)",
              abs(slope_abs_z + 0.5), 0.05),
        Check("A04-residual-slope",
              "|Z - C_T T^(-1/2)| decays with slope -3/2 (+-0.3)",
              abs(slope_residual + 1.5), 0.3),
        Check("A05-band",
              "|Z| * T^(5/4) at Re(s) = -1/2 level-bounded within factor 2",
              band_ratio, 2.0),
    )
    return outputs, checks


def gamma_battery(t_grid=SCALING_T_GRID, kernel_t: float = 500.0,
                  tol: float = 1e-10) -> tuple[dict, tuple]:
    """Gamma-factor laws (A06) and G_T kernel behavior (A07)."""
    trivial = gamma_pi(0.5, D3_PARAMS)
    on_line = 0.5 + 1j * np.linspace(-40.0, 40.0, 10)
    unit_err = max(abs(abs(gamma_pi(complex(s))) - 1.0) for s in on_line)
    checks = [
        Check("A06-trivial", "gamma(1/2; 0,0,0) = 1",
              abs(trivial - 1.0), 1e-12),
        Check("A06-unitary",
              "|gamma(1/2 + it)| = 1 for purely imaginary parameters",
              unit_err, 1e-10),
    ]
    outputs = {"gamma_trivial": trivial, "unitary_error": unit_err}
    heights = np.asarray(t_grid, dtype=float)
    for sigma, want in ((0.0, 0.0), (-0.5, 1.5), (-1.0, 3.0)):
        line = np.abs(gamma_pi_line(0.5 + sigma + 1j * heights, LanglandsParams()))
        slope, _ = loglog_slope(heights, line)
        outputs[f"decay_slope_sigma{sigma:g}"] = slope
        checks.append(Check(
            f"A06-decay-sigma{sigma:g}",
            f"|gamma| growth slope near {want:g} on Re(s) = 1/2 + sigma",
            abs(slope - want), 0.3))
    small = abs(g_kernel(kernel_t**-0.5, kernel_t, tol=tol))
    c_f = f_line_mass(kernel_t)
    bounded = float(np.max(np.abs(g_kernel_batch([0.5, 1.0, 2.0], kernel_t, tol=1e-8))))
    # deep-contour evaluations at the default tol track the z^3 prefactor,
    # so the powers T^(-0.3), T^(-0.6), T^(-0.9) separate by ~400x each
    triple = [abs(g_kernel(kernel_t**-e, kernel_t, tol=1e-8)) for e in (0.3, 0.6, 0.9)]
    mono_violation = max(0.0, triple[1] - triple[0], triple[2] - triple[1])
    outputs.update({"g_small_z": small, "f_line_mass": c_f,
                    "g_on_window": bounded, "g_triple": triple})
    checks.extend([
        Check("A07-small", "|G_T(T^(-1/2))| below 1e-6 (superpolynomial cutoff)",
              small, 1e-6),
        Check("A07-bounded", "|G_T(z)| <= line mass C_F on [1/2, 2]",
              bounded, c_f),
        Check("A07-monotone",
              "|G_T| decays along z = T^(-0.3), T^(-0.6), T^(-0.9)",
              mono_violation, 0.0),
    ])
    return outputs, tuple(checks)


def amplified_battery(T: float = 500.0, tol: float = 1e-9,
                      kappa: float = 1.0 / 18.0) -> tuple[dict, tuple]:
    """Amplified average equality (A09) and the PNT weight window; a
    one-prime segment (T in [64, 90], [329, 462] and [513, 3814] at kappa =
    1/18) is refused, since its pair count rides on one prime gap."""
    amp = AmplifierSpec.for_t(T, kappa=kappa)
    for name, start, primes in (("P", amp.P, amp.primes_p), ("L", amp.L, amp.primes_l)):
        if len(primes) < 2:
            raise ConfigError(
                f"A09 needs two or more primes per segment; [{name}, 2{name}] = "
                f"[{start:.6g}, {2.0 * start:.6g}] holds only {primes[0]} at T = {T:g}")
    base = _center_instance(T, 7, 2, tol)
    a_avg, o_avg = amplified_average(base, amp)
    m = integrate_main(base.osc)
    wpc = amp.weighted_pair_count()
    resid = abs((a_avg - o_avg) - m.value * wpc)
    # each pair obeys the identity within its own enforced budget
    budget = wpc * 10.0 * 2.0 * base.tol
    outputs = {
        "averaged": a_avg - o_avg,
        "main_integral": m.value,
        "weighted_pair_count": wpc,
        "pairs": [list(pr) for pr in amp.pairs],
    }
    checks = (
        Check("A09-average", "averaged (A - O) = M * (weight * |pairs|)",
              resid, budget),
        Check("A09-pnt-weight",
              "PNT-normalized pair count inside [1/2, 2]",
              max(0.0, 0.5 - wpc, wpc - 2.0), 0.0),
    )
    return outputs, checks


def route_battery(T: float = 200.0, tol: float = 1e-6,
                  table: CoefficientTable | None = None,
                  amp_kappa: float = 1.0 / 18.0) -> tuple[dict, tuple]:
    """Three-route agreement on the d3 model (A10)."""
    # one pair from the canonical segments: the per-pair identity is exact,
    # and multi-pair averaging is covered by A09 at T = 500. The segments
    # come first, so a kappa they refuse costs no coefficient table
    base = AmplifierSpec.for_t(T, kappa=amp_kappa)
    if table is None:
        # the least table of a spec at the default window
        table = synth_eisenstein(D3_PARAMS, table_size(T, SumSpec.Y))
    spec = SumSpec(T=T, table=table, tol=tol)
    amp = replace(base, primes_p=base.primes_p[:1], primes_l=base.primes_l[:1])
    rep = compare_routes(spec, amp)
    outputs = {
        "s_sum": rep.s_sum,
        "s_integral": rep.s_integral,
        "s_keyident": rep.s_keyident,
        "resid_sum_integral": rep.resid_sum_integral,
        "resid_integral_keyident": rep.resid_integral_keyident,
    }
    checks = (
        Check("A10-sum-integral",
              "|s_sum - s_integral| within the calibrated T^(-0.7) envelope",
              rep.resid_sum_integral, rep.budget_sum_integral),
        Check("A10-keyident",
              "|s_integral - s_keyident| within the replacement envelope",
              rep.resid_integral_keyident, rep.budget_keyident),
    )
    return outputs, checks


def _same_values(got: CoefficientTable, want: CoefficientTable) -> bool:
    """Whether two tables hold the same a(1, n) bit for bit, any NaN
    matching any NaN, as their canonical CSV files would. A different x_max
    reads as different; index 0 is padding, which no file holds."""
    if got.x_max != want.x_max:
        return False
    a, b = got.values[1:].view(float), want.values[1:].view(float)
    same = (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))
    return bool(same.all())


def coeff_battery(x_max: int = 100_000, trials: int = 200,
                  seed: int = 20260814,
                  table: CoefficientTable | None = None) -> tuple[dict, tuple]:
    """Coefficient hygiene on the d3 model (A11).

    The round trip saves the table once, loads the file once and compares
    the loaded values with the table's (`_same_values`). The check still
    reads "save -> load -> save is bit-identical": `save_coefficients` is a
    function of the values that writes every NaN as `nan`, so equal values
    give equal second files. A lossy writer, whose output a second save
    would only repeat, fails it."""
    if table is None:
        table = synth_eisenstein(D3_PARAMS, x_max)
    growth = rankin_selberg_check(table)
    mult = hecke_mult_check(table, trials=trials, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        save_coefficients(table, path)
        identical = _same_values(load_coefficients(path), table)
    outputs = {
        "x_max": table.x_max,
        "growth_slope": growth.slope,
        "mult_tested": mult.tested,
        "mult_violations": mult.violations,
        "roundtrip_identical": identical,
    }
    checks = (
        Check("A11-growth", "Rankin-Selberg partial-sum slope <= 1.25",
              growth.slope, growth.bound),
        Check("A11-hecke", "Hecke multiplicativity violation count",
              float(mult.violations), 0.0),
        Check("A11-roundtrip", "CSV save -> load gives the table's values bit for bit",
              0.0 if identical else 1.0, 0.0),
    )
    return outputs, checks
