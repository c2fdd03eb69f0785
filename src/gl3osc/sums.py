"""Weighted coefficient sums along three routes with cross-route comparison.

The object is S(Y) = integral of the diagonal Whittaker average against
f0(y) g(y/Y) y^(iT-1/2) d*y, f0 the paper's dyadic weight h1, computed as:

  * sum route: C_T T^(-1/2) sum_n a(1,n) n^(-1/2-iT)
    f0(T^(3/2)/(2 pi n)) g(T^(3/2)/(2 pi n Y)); g truncates n to the dyadic
    window (N, 2N) with N = T^(3/2)/Y.
  * integral route: Y^(iT) sqrt(N) sum_n (a(1,n)/n) I_n, one integral on one
    grid of the I_n = integral x^(-iT) e(-nT/(Nx)) V_n(x) dx,
    V_n(x) = V0(n/(Nx)) g(1/x) f0(Y/x) / sqrt(x).
  * discretized route: Y^(iT) N^(-1/2) sum_n a(1,n) w(n/N) Mhat_n, where the
    stationary-phase replacement trades V_n for w0(n/N) times the fixed
    amplitude V(x) = V0(1/x) f0(Y/x)/sqrt(x), and the weighted sum of the
    Mhat_n is recovered whole from the windowed-sum-minus-dual-sum identity
    averaged over an amplifier's prime pairs: each pair takes the n-sum
    with weights c_n = a(1,n) w(n/N) whole on both sides, one windowed sum
    and one dual sum per pair rather than one of each per n. V lives on
    the support of its product, [pi, min(8 pi, Y T^eps)], and carries a
    closed-form bound and its one break x_J = Y T^eps / 2, where f0 leaves
    its plateau (`_v_cutoff`), so its dual sums run on `oscquad`'s bounded
    path. Where Y T^eps <= pi that support is empty and the route is an
    exact zero.

The first two differ by the transformation formula's O(T^(-3/4+eps)) tail;
the last two by the per-n O(T^(-3/2)) replacement error. Both envelopes
carry calibrated constants frozen below.

`SumSpec` owns the table: it refuses one whose x_max is below
`table_size(T, Y)`, the top of the integral window (N/4, 2 (1+C1) N),
which holds the sum window (N, 2N). Every n that a route or
`keyident_envelope` reads lies in those windows, so none of them checks
the table again.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientTable
from .cutoffs import Cutoff, _reciprocal_bound, g_cutoff, h1_cutoff, v0_cutoff, weight_w0_w
from .errors import ConfigError, TableTooSmallError
from .keyident import AmplifierSpec, KeyIdentityInstance, amplified_average
from .oscquad import OscInstance, integrate_main
from .util import BLOCK_ELEMENTS, LATTICE_BLOCK, TWO_PI, _lattice_exp, kahan_csum
from .whittaker import c_constant

# Absolute sum-versus-integral envelope K_ROUTE_34 * T^(-0.7); calibrated on
# the d3 model over T in {100, 200, 500} and the weights h1, h2, h3 (the last
# two since removed), 4x cushion over the worst ratio (27.4 at T = 500, h1;
# the per-n stationary errors share the main term's phase, so they add
# coherently and the gap wanders below the envelope, not decaying monotonically).
K_ROUTE_34 = 110.0

# Per-n stationary-phase replacement envelope K_SP_REL * T^(-3/2), weighted
# by |a(1,n)| w(n/N) (and N/n on the integral-only fringe); calibrated on the
# d3 model at T in {100, 200}, 4x cushion over the worst ratio (0.83 at 200).
K_SP_REL = 3.5

# the paper's fixed parameters: the dyadic window exponents kappa, eps of
# h0/h1 (Y ranges over [T^-eps, T^kappa]), and the bump V0 = v0_cutoff(C1)
# on [1/(8 pi), (1 + C1)/(2 pi)]; weight_w0_w divides by that same c1 = 1 bump
WINDOW_KAPPA = 1.0
WINDOW_EPS = 0.02
C1 = 1.0


def table_size(T: float, Y: float) -> int:
    """The least x_max a SumSpec at (T, Y) accepts: the integral window's
    top ceil(2 (1+C1) N) - 1, N = T^(3/2)/Y, which the sum window's lies
    below."""
    return int(np.ceil(2.0 * (1.0 + C1) * T**1.5 / Y)) - 1


@functools.lru_cache(maxsize=64)
def _window(T: float) -> Cutoff:
    """The dyadic weight f0 = h1 at T, one Cutoff per T (it is immutable)."""
    return h1_cutoff(T, WINDOW_KAPPA, WINDOW_EPS)


@dataclass(frozen=True)
class SumSpec:
    """One sum configuration: frequency T, window Y, coefficient table, tol.

    The table holds every n that a route or the envelope reads:
    x_max >= table_size(T, Y) >= the top of `integral_window`, which holds
    `sum_window`. Y <= T^kappa makes N >= T^(1/2) > 1, so the open (N, 2N)
    holds an integer and neither window is empty.
    """

    T: float
    table: CoefficientTable
    Y: float = 4.0 * np.pi
    tol: float = 1e-8

    def __post_init__(self):
        # compared so that NaN fails
        if not 1.0 < self.T < np.inf:
            raise ConfigError("T must be finite and exceed 1")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError("tol must be finite and positive")
        if not (self.T**-WINDOW_EPS <= self.Y <= self.T**WINDOW_KAPPA):
            raise ConfigError("Y must lie in [T^-eps, T^kappa]")
        need = table_size(self.T, self.Y)
        if self.table.x_max < need:
            raise TableTooSmallError(
                f"table covers {self.table.x_max}, the windows need {need}")

    @property
    def N(self) -> float:
        """The dyadic center T^(3/2)/Y of the coefficient window."""
        return self.T**1.5 / self.Y

    @property
    def window(self) -> Cutoff:
        """The dyadic weight f0 = h1, with its support, bound and breaks."""
        return _window(self.T)

    def sum_window(self) -> tuple[int, int]:
        """Indices with g(T^(3/2)/(2 pi n Y)) nonzero: the open (N, 2N)."""
        n = self.N
        return int(np.floor(n)) + 1, int(np.ceil(2.0 * n)) - 1

    def integral_window(self) -> tuple[int, int]:
        """Indices where V_n has nonempty support: (N/4, 2 (1+C1) N)."""
        n = self.N
        lo = max(1, int(np.floor(n / 4.0)) + 1)
        hi = int(np.ceil(2.0 * (1.0 + C1) * n)) - 1
        return lo, hi


def s_sum_form(spec: SumSpec) -> complex:
    """The transformation-formula route; exact finite sum, compensated."""
    n_lo, n_hi = spec.sum_window()
    g = g_cutoff()
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    coeffs = spec.table.values[ns]
    live = coeffs != 0.0
    if not np.any(live):
        return 0.0 + 0.0j
    ns = ns[live]
    nf = ns.astype(float)
    arg = spec.T**1.5 / (TWO_PI * nf)
    terms = (coeffs[live]
             * np.exp(-1j * spec.T * np.log(nf)) / np.sqrt(nf)
             * spec.window.fn(arg) * g.fn(arg / spec.Y))
    pref = c_constant(spec.T, C1) / np.sqrt(spec.T)
    return complex(pref * kahan_csum(terms))


def _weighted_cutoff(window: Cutoff, Y: float, lo: float, hi: float, head,
                     head_bound=None) -> Cutoff:
    """head(x) f0(Y/x) / sqrt(x) on [lo, hi], f0 the window's fn, real or
    complex as head is; f0 is evaluated at x > 0 only, and head only where
    f0 is nonzero.

    Given head's `Cutoff.bound` and a window with one, the product gets
    one: head's, times the window's on the image of the rectangle under
    Y/z (`cutoffs._reciprocal_bound`), times |z|^(-1/2) <= lo^(-1/2), each
    a sup on a segment. Its breaks are those of the window, mapped by Y/y,
    that fall inside (lo, hi)."""
    f0 = window.fn

    def fn(x):
        x = np.asarray(x, dtype=float)
        weights = np.zeros(x.shape)
        pos = x > 0.0
        weights[pos] = f0(Y / x[pos])
        live = weights != 0.0
        heads = head(x[live]) if np.any(live) else np.zeros(0)
        out = np.zeros(x.shape, dtype=heads.dtype)
        out[live] = heads * weights[live] / np.sqrt(x[live])
        return out

    if head_bound is None or window.bound is None:
        return Cutoff(support_lo=lo, support_hi=hi, fn=fn)
    f0_bound = _reciprocal_bound(window.bound, Y)

    def bound(x0, x1, b):
        return head_bound(x0, x1, b) * f0_bound(x0, x1, b) / np.sqrt(x0)

    breaks = tuple(Y / y for y in reversed(window.breaks) if lo < Y / y < hi)
    return Cutoff(support_lo=lo, support_hi=hi, fn=fn, bound=bound, breaks=breaks)


def _integral_route(spec: SumSpec) -> tuple[complex, float]:
    """Value and quadrature bound of the integral route: one main integral,
    at n = m, the window's largest n with a_n != 0, of the amplitude
    A(x) = g(1/x) f0(Y/x) x^(-1/2) sum_n (a_n/n) v0(n/(Nx)) e((m - n)T/(Nx))
    on [2 pi, 4 pi], to tol spec.tol sum_n |a_n|/n; the envelope at mT/N
    bounds every term's phase rate. Each run of LATTICE_BLOCK n takes its
    phases from one `_lattice_exp` call on the offsets m - n, at the nodes
    inside its v0 window only, in blocks whose rows hold BLOCK_ELEMENTS floats."""
    n_lo, n_hi = spec.integral_window()
    # descending n, so the offsets m - n ascend
    ns = np.arange(n_hi, n_lo - 1, -1, dtype=np.int64)
    ns = ns[spec.table.values[ns] != 0.0]
    if not ns.size:
        return 0.0 + 0.0j, 0.0
    weights = spec.table.values[ns] / ns
    m, N = int(ns[0]), spec.N
    offsets = m - ns
    v0, g = v0_cutoff(C1), g_cutoff()
    block = BLOCK_ELEMENTS // (2 * LATTICE_BLOCK)

    def head(x):
        step = TWO_PI * spec.T / (N * x)
        total = np.zeros(x.shape, dtype=complex)
        i = 0
        while i < offsets.size:
            j = int(np.searchsorted(offsets, offsets[i] + LATTICE_BLOCK))
            # v0(n/(Nx)) != 0 for some n of the run, ns[j - 1] <= n <= ns[i]
            inside = np.flatnonzero((x * (N * v0.support_hi) > ns[j - 1])
                                    & (x * (N * v0.support_lo) < ns[i]))
            for k in range(0, inside.size, block):
                at = inside[k:k + block]
                rows = _lattice_exp(np.zeros(at.size), step[at], offsets[i:j])
                rows *= v0.fn(ns[i:j, None] / (N * x[at]))
                rows *= weights[i:j, None]
                total[at] += rows.sum(axis=0)
            i = j
        return g.fn(1.0 / x) * total

    amp = _weighted_cutoff(spec.window, spec.Y, TWO_PI, 2.0 * TWO_PI, head)
    res = integrate_main(OscInstance(T=spec.T, n=m, N=N, amplitude=amp,
                                     tol=spec.tol * float(np.sum(np.abs(weights)))))
    root_n = np.sqrt(N)
    pref = np.exp(1j * spec.T * np.log(spec.Y)) * root_n
    return complex(pref * res.value), float(root_n * res.abs_err)


@functools.lru_cache(maxsize=64)
def _v_cutoff(T: float, Y: float) -> Cutoff | None:
    """The fixed amplitude V(x) = v0(1/x) f0(Y/x) / sqrt(x) of the
    discretized route (no g factor) on the support of its product,
    [max(1/v0.hi, Y/f0.hi), min(1/v0.lo, Y/f0.lo)], with its bound and
    break (`_weighted_cutoff`, v0(1/z) bounded by
    `cutoffs._reciprocal_bound`); None where that is empty (Y T^eps <= pi).
    One Cutoff per (T, Y), so that what `oscquad` keeps per bound (its end
    strips) is derived once."""
    v0, window = v0_cutoff(C1), _window(T)
    lo = max(1.0 / v0.support_hi, Y / window.support_hi)
    hi = min(1.0 / v0.support_lo, Y / window.support_lo)
    if not lo < hi:
        return None
    return _weighted_cutoff(window, Y, lo, hi, lambda x: v0.fn(1.0 / x),
                            _reciprocal_bound(v0.bound, 1.0))


def _keyident_route(spec: SumSpec,
                    amp: AmplifierSpec) -> tuple[complex, float]:
    """Value and quadrature bound of the discretized, amplified route."""
    v = _v_cutoff(spec.T, spec.Y)
    if v is None:
        # V vanishes on the whole line: every pair's sums are exact zeros
        return 0.0 + 0.0j, 0.0
    n_lo, n_hi = spec.sum_window()
    # each pair's identity residual obeys the enforced tolerance-share bound
    pair_budget = 10.0 * 2.0 * spec.tol
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    a = spec.table.values[ns]
    _, w = weight_w0_w(ns / spec.N)
    live = (a != 0.0) & (w != 0.0)
    ns, cs = ns[live], a[live] * w[live]
    err = float(np.sum(np.abs(a[live]) * w[live] * pair_budget))
    total = 0.0 + 0.0j
    if ns.size:
        # the whole weighted window is one n-sum, summed and dualized once per pair
        p0, l0 = amp.pairs[0]
        base = KeyIdentityInstance(T=spec.T, n=int(ns[0]), N=spec.N, p=p0, l=l0,
                                   tol=spec.tol, amplitude=v)
        a_avg, o_avg = amplified_average(base, amp, ns, cs)
        total = (a_avg - o_avg) / amp.weighted_pair_count()
    pref = np.exp(1j * spec.T * np.log(spec.Y)) / np.sqrt(spec.N)
    return complex(pref * total), float(err / np.sqrt(spec.N))


def keyident_envelope(spec: SumSpec) -> float:
    """Stationary-phase replacement budget for keyident versus integral.

    Each window term carries K_SP_REL * T^(-3/2) weighted by |a(1,n)| w(n/N);
    fringe terms present only in the integral route (stationary point outside
    the g-support) are charged with weight N/n. The constant is calibrated
    against full-mass tables, where the per-n replacement errors carry
    varying phases and partially cancel; very sparse tables can exceed this
    aggregate envelope even though each per-n error is O(T^(-3/2)).
    """
    n_lo, n_hi = spec.integral_window()
    k_lo, k_hi = spec.sum_window()
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    mags = np.abs(spec.table.values[ns])
    _, w = weight_w0_w(ns / spec.N)
    w = np.asarray(w)
    fringe = (ns < k_lo) | (ns > k_hi)
    w[fringe] = np.maximum(w[fringe], spec.N / ns[fringe])
    weighted = float(np.sum(mags * w))
    return K_SP_REL * spec.T**-1.5 * weighted / np.sqrt(spec.N)


@dataclass(frozen=True)
class RouteReport:
    """All three routes with two pairwise residuals and their budgets."""

    s_sum: complex
    s_integral: complex
    s_keyident: complex
    resid_sum_integral: float
    resid_integral_keyident: float
    budget_sum_integral: float
    budget_keyident: float
    passed_sum_integral: bool
    passed_keyident: bool


def compare_routes(spec: SumSpec, amp: AmplifierSpec) -> RouteReport:
    """Run all three routes and check the two envelope claims.

    Deterministic: fixed summation orders, no sampling; repeated runs give
    identical reports.
    """
    s_sum = s_sum_form(spec)
    s_int, int_err = _integral_route(spec)
    s_key, key_err = _keyident_route(spec, amp)
    budget_34 = K_ROUTE_34 * spec.T**-0.7
    budget_key = keyident_envelope(spec) + key_err + int_err
    r_si = abs(s_sum - s_int)
    r_ik = abs(s_int - s_key)
    return RouteReport(
        s_sum=s_sum, s_integral=s_int, s_keyident=s_key,
        resid_sum_integral=r_si, resid_integral_keyident=r_ik,
        budget_sum_integral=budget_34, budget_keyident=budget_key,
        passed_sum_integral=r_si <= budget_34,
        passed_keyident=r_ik <= budget_key)
