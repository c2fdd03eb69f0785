"""Checks against computations made apart from the program.

Each reference is recomputed on every run, outside the timed rounds, from
the formulas in the program's docstrings: mpmath at 30 digits for the
integrals, the windowed sum and the gamma factor, a prime factorization
for the d3 coefficients. `references(workload, results, points)` returns
(name, error, tolerance) triples; a check holds when error <= tolerance.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from gl3osc import criteria
from gl3osc.coeffs import synth_eisenstein
from gl3osc.cutoffs import h0_cutoff, mellin_on_line
from gl3osc.gammafactor import DEFAULT_ALPHA, ContourSpec, LanglandsParams, g_kernel, gamma_pi
from gl3osc.keyident import KeyIdentityInstance, riemann_side
from gl3osc.oscquad import integrate_main

import workloads as wl

mp.mp.dps = 30
EPS = 2.0**-52


def _probe_bump(x):
    """exp(-1/(1 - u^2)) on (1/2, 2), u the affine map onto (-1, 1)."""
    u = (x - mp.mpf(5) / 4) / (mp.mpf(3) / 4)
    return mp.exp(-1 / (1 - u * u)) if abs(u) < 1 else mp.mpf(0)


def _main_integral(T: float, n: int, N: float):
    """M = integral x^(-iT) e(-nT/(Nx)) V(x) dx, Gauss-Legendre on 96 panels."""
    Tm, Nm = mp.mpf(T), mp.mpf(N)

    def f(x):
        return _probe_bump(x) * mp.expj(-Tm * mp.log(x) - 2 * mp.pi * n * Tm / (Nm * x))

    return complex(mp.quad(f, mp.linspace(mp.mpf(1) / 2, 2, 97),
                           method="gauss-legendre"))


def _windowed_sum(inst):
    """A = h^(1-iT) sum_r r^(-iT) e(-np/(l r)) V(r h), summed exactly."""
    T = mp.mpf(inst.T)
    h = inst.l * T / (mp.mpf(inst.N) * inst.p)
    lo, hi = inst.index_window()
    total = mp.mpc(0)
    for r in range(lo, hi + 1):
        total += _probe_bump(r * h) * mp.expj(
            -T * mp.log(r) - 2 * mp.pi * mp.mpf(inst.n * inst.p) / (inst.l * r))
    return complex(h * mp.expj(-T * mp.log(h)) * total)


def _windowed_sum_rounding(inst) -> float:
    """A priori rounding bound for the double-precision windowed sum.

    Each term's phases T log r and T log h are formed in floating point,
    so a term carries an absolute phase error near eps * T (|log r| +
    |log h|); with a few more roundings per term, 8 eps T (log r_hi +
    |log h| + 1) h sum V(r h) bounds the error of A.
    """
    lo, hi = inst.index_window()
    rs = np.arange(lo, hi + 1, dtype=float)
    mass = inst.h * float(np.sum(inst.amplitude(rs * inst.h)))
    return 8.0 * EPS * inst.T * (math.log(hi) + abs(math.log(inst.h)) + 1.0) * mass


def _gamma_factor(s: complex, alpha) -> complex:
    sm = mp.mpc(s.real, s.imag)
    out = mp.pi ** (3 * sm - mp.mpf(3) / 2)
    for a in alpha:
        am = mp.mpc(a.real, a.imag)
        out *= mp.gamma((1 - sm + am) / 2) / mp.gamma((sm - am) / 2)
    return complex(out)


def _smooth_down(t):
    """The plateau ramp: 1 for t <= 0, 0 for t >= 1, f(1-t)/(f(t)+f(1-t))."""
    if t <= 0:
        return mp.mpf(1)
    if t >= 1:
        return mp.mpf(0)
    a, b = mp.exp(-1 / (1 - t)), mp.exp(-1 / t)
    return a / (a + b)


def _window_mellin(T: float, kappa: float, eps: float, s: complex):
    """Integral of h0(y) y^s dy/y, h0(y) = h(y T^eps) - h(y T^kappa)."""
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
        return (_smooth_down(y * te - 1) - _smooth_down(y * tk - 1)) * mp.exp(sm * u)

    return complex(mp.quad(f, pts, method="gauss-legendre"))


def _d3(x_max: int) -> list:
    """d3(n) for n <= x_max from smallest-prime-factor factorizations.

    d3 is multiplicative with d3(p^e) = C(e + 2, 2), so d3(n) = d3(m) *
    C(e + 2, 2) where p^e exactly divides n and m = n / p^e.
    """
    spf = list(range(x_max + 1))
    for q in range(2, math.isqrt(x_max) + 1):
        if spf[q] == q:
            for m in range(q * q, x_max + 1, q):
                if spf[m] == m:
                    spf[m] = q
    out = [0, 1] + [0] * (x_max - 1)
    for n in range(2, x_max + 1):
        p, m, e = spf[n], n // spf[n], 1
        while m % p == 0:
            m //= p
            e += 1
        out[n] = out[m] * (e + 1) * (e + 2) // 2
    return out


def _d3_trial(n: int) -> int:
    """d3(n) by trial division: prod over p^e || n of C(e + 2, 2)."""
    count, q = 1, 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        count *= (e + 1) * (e + 2) // 2
        q += 1
    return count * (3 if n > 1 else 1)


def _centre_instance(T: float, p: int = 5, l: int = 3) -> KeyIdentityInstance:
    """The batteries' instance: N = T^(3/2), n at the stationary centre."""
    N = T**1.5
    return KeyIdentityInstance(T=T, n=math.ceil(N / (2.0 * math.pi)), N=N,
                               p=p, l=l, tol=wl.KEY_TOL)


def identity_references(results: dict, points: wl.CheckPoints) -> list:
    out = []
    # M at T = 250, n at the stationary centre: true error within abs_err
    inst = _centre_instance(250.0)
    quad = integrate_main(inst.osc)
    m_battery = results["key_identity"][0]["m-T250-p5l3"]
    m_ref = _main_integral(inst.T, inst.n, inst.N)
    out.append(("M(T=250) vs mpmath, within abs_err",
                abs(m_battery - m_ref), quad.abs_err))
    # the windowed sum A at a seeded instance, within its rounding bound
    key = _centre_instance(points.key_t, *points.key_pair)
    out.append((f"A(T={points.key_t:g}, p,l={points.key_pair}) vs mpmath",
                abs(riemann_side(key) - _windowed_sum(key)),
                _windowed_sum_rounding(key)))
    return out


def mellin_references(results: dict, points: wl.CheckPoints) -> list:
    out = []
    for params in (LanglandsParams(), criteria.D3_PARAMS):
        alpha = params.alpha
        for s in points.gamma_s:
            ref = _gamma_factor(s, alpha)
            out.append((f"gamma_pi({s:.3f}; {'default' if alpha == DEFAULT_ALPHA else 'd3'})"
                        " vs mpmath, relative",
                        abs(gamma_pi(s, params) - ref) / abs(ref), 1e-12))
    # A08's cutoff on A08's line Re(s) = 1
    kappa, eps = 1.0 / 18.0, 0.01
    h0 = h0_cutoff(500.0, kappa, eps)
    got = mellin_on_line(h0, 1.0, np.array(points.mellin_t))
    for t, value in zip(points.mellin_t, got):
        out.append((f"mellin_on_line(h0, 1 + {t:.3f}i) vs mpmath",
                    abs(value - _window_mellin(500.0, kappa, eps, complex(1.0, t))),
                    1e-12))
    # A07-small ran on Re(s) = -3; the kernel is holomorphic there, so the
    # Re(s) = 0 line must agree within both tolerances
    z = wl.GAMMA_KERNEL_T**-0.5
    on_zero = g_kernel(z, wl.GAMMA_KERNEL_T, contour=ContourSpec(re_line=0.0),
                       tol=wl.GAMMA_TOL)
    out.append(("|G(T^-1/2)| on Re(s) = 0 vs Re(s) = -3",
                abs(abs(on_zero) - results["gamma"][0]["g_small_z"]),
                2.0 * wl.GAMMA_TOL))
    table = results["kernel_table"]
    for z in points.table_z:
        direct = g_kernel(z, wl.TABLE_T)
        out.append((f"kernel table at z = {z:.4f} vs g_kernel, relative",
                    abs(table(z) - direct) / abs(direct), 0.02))
    return out


def routes_references(results: dict, points: wl.CheckPoints) -> list:
    d3 = _d3(wl.COEFF_X_MAX)
    table = synth_eisenstein(criteria.D3_PARAMS, wl.COEFF_X_MAX).values
    sample = [int(n) for n in points.d3_sample]
    return [
        ("d3 table vs prime factorizations, n <= 100000",
         float(np.max(np.abs(table[1:] - np.array(d3[1:], dtype=float)))), 0.0),
        ("factorization d3 vs trial division at 200 seeded n",
         float(max(abs(d3[n] - _d3_trial(n)) for n in sample)), 0.0),
    ]


REFERENCES = {
    "identity": identity_references,
    "mellin": mellin_references,
    "routes": routes_references,
}
