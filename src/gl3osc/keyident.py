"""Exact sum-versus-integral identity for the main oscillatory integral.

The main integral M = integral x^(-iT) e(-nT/(Nx)) V(x) dx equals a finite
windowed sum A minus a rapidly convergent dual sum O:

    A = h^(1-iT) * sum_{r >= 1} r^(-iT) e(-np/(l*r)) V(r*h),   h = l*T/(N*p),
    O = sum_{r != 0} integral x^(-iT) e(-nT/(Nx)) V(x) e(-r*x/h) dx.

The identity is Poisson summation applied to the r-sum; it holds exactly for
every coprime prime pair (p, l), so the recovered M must not depend on the
step h. This module verifies the identity at desk scale, gives the closed
form of the dressed identity's leading shape, and averages the identity over
prime pairs drawn from two dyadic segments.

Dressing M with D = (2*pi/N)^(iT) e(T/(2*pi)) sqrt(T) gives the paper's
shape: D*M = n^(-iT) * sqrt(2*pi) e^(-i*pi/4) x0 V(x0) + O(T^(-1)), a fixed
cutoff evaluated at x0 = 2*pi*n/N. `lin_form_leading` is that closed form,
and the A01-shape check holds D*(A - O) to it within K_SP_MAIN T^(-3/2) |D|.

O is summed in shells of r: [1, FIRST_SHELL_R], then [hi + 1, 2 hi], and so
on, until the tail is below tol/2. Past the stationary range
r <= h max|Phi'|/(2 pi) of the main phase Phi, k-fold integration by parts
bounds every further term (`_IbpTail`; the mechanism that keeps the dual
side short in the Munshi and Holowinsky-Nelson arguments). So for an
amplitude with a closed-form jet (`Cutoff.jet`: v0, g and the probe bump)
a shell ends early, at the smallest r with r + 1 past that range and the
bound on all |r'| > r below tol/2; the sum stops there, and `o_tail` is
that bound. The instances of A01 and A09 stop between r = 1 and r = 6, and
a pair with no stationary r >= 1, such as (10007, 3) at T = 500, builds no
grid at all. An amplitude without a jet (the route amplitude of `sums`,
whose h1 weight has none) grids each shell whole and stops once twice the
last shell's mass is below tol/2, an estimate. A shell is one shared-grid
batch (`integrate_shifted`) for every pair of a pair loop that still has
rows in it: every +-r of the shell, each pair's r with its own step h, on
one grid with one evaluation of V and one weighted factor row
x^(-iT) sum_n c_n e(-nT/(Nx)) per block, on the bounded path of
`oscquad`, so each row's quadrature error is a proved bound (an instance
refuses an amplitude without `Cutoff.bound`). One grid serves them all, as
every pair's rows cover the same band of frequencies r/h: each shell stops
just past r_stat = h max|Phi'|/(2 pi), so r/h stays near max|Phi'|/(2 pi)
whatever the pair. Its phases are geometric sequences in the integers r
and n: an exponential per node heads each run of up to 64 consecutive r
of one step (or n); products fill the shift table, and Horner's rule sums
a run's weighted n, so a shell of 8 r costs two exponentials per node, not
eight.

One pair loop (`_pair_terms`) serves verify_key_identity and
amplified_average. M and the tail bound's q_m depend on the amplitude, T,
N and n, never on (p, l): a call makes each once for all its pairs, and M
keeps a grid of its own. The dual sums of all the loop's pairs run
together, shell by shell (`_poisson_terms`): each pair keeps its own rows,
tolerances, proved errors, tail bound and last r, and only the grid is
shared, so A01's three pairs at a T grid M and one shell. Both sides
take a weighted n-sum whole. The windowed sum sum_n c_n A_n forms V(rh)
and r^(-iT) once for all n (`riemann_side`), one call per pair. The dual
sum sum_n c_n O_n is the dual sum of V(x) x^(-iT) sum_n c_n e(-nT/(Nx)),
so a shell has one row per +-r and pair, and the tolerances scale with
sum_n |c_n|. A01 and A09 run one n of weight 1; the discretized route of
`sums` hands its whole weighted window to a pair.

The amplifier's weight 1 / (D(P) D(L)), with D(x) = li(2x) - li(x), is
computed here (`_li_segment`: a positive series below x = e, one GL16 panel
from there on), within 3e-16 relative of mpmath up to the sieve's ceiling
MAX_SIEVE. `for_t` refuses a kappa whose segment [P, 2P] passes that
ceiling before it sieves at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cutoffs import Cutoff
from .errors import ConfigError, TailNotConvergedError
from .oscquad import OscInstance, _phase_rate, integrate_main, integrate_shifted, probe_amplitude
from .util import BLOCK_ELEMENTS, GL16, TWO_PI, gl_panels, is_prime, kahan_csum, primes_in

# the dual sum's first shell is r in [1, FIRST_SHELL_R] at most (the
# integration-by-parts bound may end it sooner); MAX_R is the hard ceiling
# of its adaptive truncation
FIRST_SHELL_R = 8
MAX_R = 4096
# the dual sum's integration-by-parts tail bound (`_IbpTail`): IBP_ORDER
# integrations by parts; each L1 norm a trapezoid sum on IBP_POINTS uniform
# nodes of the support times IBP_CUSHION (on the A01 instances the sums on
# 801 nodes are within 1% of those on 8,001); IBP_ROWS values of r bounded
# row by row, the rest in closed form
IBP_ORDER = 8
IBP_POINTS = 801
IBP_CUSHION = 2.0
IBP_ROWS = 8
# AmplifierSpec.for_t sieves no further than 2P <= MAX_SIEVE: [P, 2P] x
# [L, 2L] holds about 800 pairs at P = 1009, each with a windowed sum of
# about p sqrt(T) / l terms. A pair's dual sum grids only while some r is
# stationary: at T = 500 every pair with p / l above about 7.1 has no
# stationary r >= 1 and is bounded without a grid (3 ms at (1009, 3) and
# at (10007, 3))
MAX_SIEVE = 1024

# _li_segment's rule: GL16 nodes s on [1, 2], their weights, and log s
_LI_S, _LI_W = gl_panels(np.array([1.0, 2.0]), *GL16)
_LI_LOG_S = np.log(_LI_S)


@dataclass(frozen=True)
class KeyIdentityInstance:
    """One identity instance: frequency data plus the prime pair (p, l).

    `osc` is the instance's main integral; building it checks n, N, tol and
    the amplitude's support. The amplitude must carry `Cutoff.bound`, as
    the dual sum's shifted batches take the bounded path only.
    """

    T: float
    n: int
    N: float
    p: int
    l: int
    tol: float = 1e-9
    amplitude: Cutoff = field(default_factory=probe_amplitude)
    osc: OscInstance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.amplitude.bound is None:
            raise ConfigError("the amplitude needs a Cutoff.bound: the dual sum's shifted "
                              "batches take the bounded path only")
        object.__setattr__(self, "osc", OscInstance(
            T=self.T, n=self.n, N=self.N, amplitude=self.amplitude, tol=self.tol))
        if self.T <= 0.0:
            raise ConfigError("need T > 0")
        if not (is_prime(self.p) and is_prime(self.l)):
            raise ConfigError("p and l must be prime")
        if self.p == self.l:
            raise ConfigError("p and l must be distinct")

    @property
    def h(self) -> float:
        """Step of the Riemann sum: l*T/(N*p)."""
        return self.l * self.T / (self.N * self.p)

    def index_window(self) -> tuple[int, int]:
        """Smallest and largest r with r*h inside the amplitude support."""
        h = self.h
        lo = max(1, int(np.ceil(self.amplitude.support_lo / h)))
        hi = int(np.floor(self.amplitude.support_hi / h))
        return lo, hi


def riemann_side(inst: KeyIdentityInstance, ns=None, cs=None) -> complex:
    """The exact windowed sum sum_n c_n A_n over the integers n of `ns` with
    the weights `cs` (default inst.n alone, weight 1), where
    A_n = h^(1-iT) sum_r r^(-iT) e(-np/(l*r)) V(r*h).

    Only indices with r*h inside the amplitude support contribute. V(rh)
    and r^(-iT) are formed once for all n; each r's weighted n-sum is an
    elementwise product summed down an (n, r) table of the unit phases
    (no matrix product, see `PanelGrid.reduce`), in blocks of n whose
    tables hold BLOCK_ELEMENTS entries. The r-sum runs in ascending index
    order, compensated.
    """
    h = inst.h
    r_lo, r_hi = inst.index_window()
    if r_hi < r_lo:
        return 0.0 + 0.0j
    ns = np.asarray([inst.n] if ns is None else ns, dtype=np.int64)
    cs = np.ones(ns.size) if cs is None else np.asarray(cs)
    rs = np.arange(r_lo, r_hi + 1, dtype=np.int64)
    vals = inst.amplitude(rs * h) * np.exp(-1j * inst.T * np.log(rs.astype(float)))
    # reduce the rational phase np/(l*r) mod 1 in integer arithmetic so the
    # unit exponential never sees a large argument
    denom = inst.l * rs
    block = max(1, BLOCK_ELEMENTS // rs.size)
    phases = 0.0
    for i in range(0, ns.size, block):
        frac = ((ns[i:i + block, None] * inst.p) % denom) / denom.astype(float)
        phases = phases + np.sum(cs[i:i + block, None] * np.exp(-1j * TWO_PI * frac), axis=0)
    prefactor = h * np.exp(-1j * inst.T * np.log(h))
    return complex(prefactor * kahan_csum(vals * phases))


def _riemann_rounding(inst: KeyIdentityInstance) -> float:
    """A priori bound on the rounding error of riemann_side.

    Each term's phases T log r and T log h are formed in double precision,
    so a term carries an absolute phase error near eps T (log r + |log h|);
    with a few more roundings per term, 8 eps T (log r_hi + |log h| + 1)
    h sum V(r h) bounds the error of A.
    """
    r_lo, r_hi = inst.index_window()
    if r_hi < r_lo:
        return 0.0
    h = inst.h
    rs = np.arange(r_lo, r_hi + 1, dtype=float)
    mass = h * float(np.sum(inst.amplitude(rs * h)))
    eps = float(np.finfo(float).eps)
    return 8.0 * eps * inst.T * (np.log(r_hi) + abs(np.log(h)) + 1.0) * mass


def _taylor_inverse_power(x: np.ndarray, j: int, k: int) -> np.ndarray:
    """Taylor coefficients of t^(-j) at t = x to order k: binom(-j, i) x^(-j-i)."""
    coef = np.array([(-1) ** i * math.comb(j + i - 1, i) for i in range(k + 1)], dtype=float)
    return coef[:, None] * x ** -(j + np.arange(k + 1.0))[:, None]


class _IbpTail:
    """Integration-by-parts bound on the dual sum's rows past a given r.

    For n and r with 2 pi r/h > max |Phi_n'| (r past the stationary range),
    the phase Psi_r = Phi_n -+ 2 pi r x/h of the row +-r has no stationary
    point on the support, and k integrations by parts give
    |I(n, +-r/h)| <= integral |D^k A| dx with D f = (f/Psi_r')': the boundary
    terms vanish with every derivative of A. Psi_r'' = Phi_n'' for every r,
    so D^k A = sum_(m=k..2k) q_m (Psi_r')^(-m), with q_m independent of r:
    on f = sum q_m g^m, g = 1/Psi', D maps q_m to q_m' at m + 1 and to
    -(m + 1) Phi_n'' q_m at m + 2. The q_m are formed once per n, in Taylor
    arithmetic on the amplitude's jet and the closed-form jet of Phi_n'',
    on IBP_POINTS nodes.

    The tail is h-free: it holds the amplitude, T, N (of `osc`) and the
    weighted n, and the step h enters each method as an argument, so one
    tail, with one build of the q_m, serves every pair of a pair loop.
    `bound(lo, h)` bounds sum_n |c_n| sum_(|r| >= lo) |I(n, +-r/h)|: rows
    lo..lo + IBP_ROWS - 1 by Horner's rule in 1/Psi_r', the rest from
    ||q_m||_1 and |Psi_r'| >= d_r = 2 pi r/h - max |Phi_n'|, with
    sum_(r >= R) d_r^(-m) <= d_R^(-m) + (h/2 pi) d_R^(1-m)/(m - 1). Every
    L1 norm is a trapezoid sum times IBP_CUSHION. `bounds(lo, hi, h)` gives
    the bound at every start lo..hi from one pass over the rows. `r_stat(h)`, the
    top of the stationary range over all n, is closed form; both refuse
    lo <= r_stat(h), where some row has a stationary point.
    """

    def __init__(self, osc: OscInstance, ns, cs):
        self.osc = osc
        weights = {}
        for n, c in zip(ns, cs):
            weights[int(n)] = weights.get(int(n), 0.0) + abs(c)
        self.weights = {n: w for n, w in weights.items() if w != 0.0}
        amp = osc.amplitude
        # max |Phi_n'| over the support
        self.rates = {n: _phase_rate(amp.support_hi, -osc.T, n * osc.T / osc.N, 0.0)(
            amp.support_lo) for n in self.weights}
        self.dx = (amp.support_hi - amp.support_lo) / (IBP_POINTS - 1)

    def r_stat(self, h: float) -> float:
        """h max |Phi_n'| / 2 pi."""
        return h * max(self.rates.values(), default=0.0) / TWO_PI

    @cached_property
    def _parts(self) -> list:
        """Per n: (weight, max |Phi'|, Phi' on the nodes, q_k..q_2k on the nodes)."""
        osc, k = self.osc, IBP_ORDER
        amp = osc.amplitude
        x = np.linspace(amp.support_lo, amp.support_hi, IBP_POINTS)[1:-1]
        jet = amp.jet(x, k)
        parts = []
        for n, peak in self.rates.items():
            c_inv = TWO_PI * n * osc.T / osc.N
            # the jet of Phi'' = T/x^2 - 2 c_inv/x^3 to order k - 1
            curv = (osc.T * _taylor_inverse_power(x, 2, k - 1)
                    - 2.0 * c_inv * _taylor_inverse_power(x, 3, k - 1))
            q = jet[None]  # after s steps, q[m - s] is the jet of q_m to order k - s
            for s in range(k):
                order = k - s
                nxt = np.zeros((s + 2, order, x.size))
                nxt[:s + 1] = q[:, 1:] * np.arange(1.0, order + 1.0)[:, None]
                prod = curv[0] * q[:, :order]
                for i in range(1, order):
                    prod[:, i:] += curv[i] * q[:, :order - i]
                nxt[1:] -= np.arange(s + 1.0, 2.0 * s + 2.0)[:, None, None] * prod
                q = nxt
            parts.append((self.weights[n], peak, c_inv / (x * x) - osc.T / x, q[:, 0]))
        return parts

    def row_norms(self, rs: np.ndarray, h: float) -> np.ndarray:
        """sum_n |c_n| times the trapezoid sum of |D^k A| for the rows +r
        (first half) and -r (second half) of each r in rs; no cushion."""
        k = IBP_ORDER
        shifts = TWO_PI / h * np.asarray(rs, dtype=float)[:, None]
        total = 0.0
        for weight, _, rate, q in self._parts:
            g = 1.0 / np.concatenate([rate - shifts, rate + shifts])
            # Horner's rule on sum_(m <= 2k) q_m g^m, with q_m = 0 below m = k
            acc = q[k] * g
            for j in range(k - 1, -1, -1):
                acc += q[j]
                acc *= g
            for _ in range(k - 1):
                acc *= g
            total = total + weight * self.dx * np.sum(np.abs(acc), axis=1)
        return total

    def bounds(self, lo: int, hi: int, h: float) -> np.ndarray:
        """The bound on sum_n |c_n| sum_(|r| >= R) |I(n, +-r/h)| for each R
        in lo..hi, for lo > r_stat(h): one `row_norms` pass over the rows
        lo..hi + IBP_ROWS - 1, and the closed-form remainder of each R."""
        if not lo > self.r_stat(h):
            raise ConfigError(
                f"the bound needs lo > r_stat(h) = {self.r_stat(h):.6g}; got lo = {lo}")
        k = IBP_ORDER
        halves = self.row_norms(np.arange(lo, hi + IBP_ROWS), h).reshape(2, -1)
        windows = np.lib.stride_tricks.sliding_window_view(halves, IBP_ROWS, axis=1)
        rows = np.sum(windows, axis=(0, 2))
        top = TWO_PI / h * (np.arange(lo, hi + 1.0) + IBP_ROWS)[:, None]
        m = np.arange(k, 2.0 * k + 1.0)
        beyond = 0.0
        for weight, peak, _, q in self._parts:
            gap = top - peak
            norms = self.dx * np.sum(np.abs(q), axis=1)
            beyond = beyond + 2.0 * weight * np.sum(
                norms * (gap ** -m + h / TWO_PI * gap ** (1.0 - m) / (m - 1.0)), axis=1)
        return IBP_CUSHION * (rows + beyond)

    def bound(self, lo: int, h: float) -> float:
        """The bound on sum_n |c_n| sum_(|r| >= lo) |I(n, +-r/h)|, for lo > r_stat(h)."""
        return float(self.bounds(lo, lo, h)[0])


def _poisson_terms(insts, ns, cs, tail: _IbpTail | None):
    """Adaptive dual sums of one pair loop: per pair its value, tail bound,
    quadrature bound and last r, and the largest last r of the loop.

    `insts` are the loop's instances, which differ only in their pair
    (p, l) and so in their step h. For each, sums sum_n c_n O_n over the
    integers n of `ns` with the complex weights `cs`, shell by shell: r in
    [1, FIRST_SHELL_R], then [hi + 1, 2 hi], and so on. Shell s of every
    pair that still has rows to grid is one integrate_shifted batch: each
    pair's integers r with its own step h, on one grid with one
    evaluation of the amplitude. With tol = inst.tol sum_n |c_n|, each row
    is held to its own share tol / (32 max(8, r)), and a pair's sum stops
    once its tail falls below tol/2. All-zero weights give exact zeros at
    once.

    `tail` is the `_IbpTail` of ns and cs, None for an amplitude without a
    jet. Before each shell [lo, hi] the bound on all |r| >= R is taken, per
    pair and in one `bounds` pass, for every R in lo..hi + 1 past the
    stationary range of every n. The pair's shell then ends at r = R - 1
    for the smallest R whose bound is below tol/2, and its sum stops there,
    that bound its tail; with no such R the shell is gridded whole and the
    next one follows. A pair whose bound stops its sum at R = lo grids
    nothing more, and a shell that no pair grids builds no grid. A pair's
    last r is the top of its last row gridded: 0 when the bound stops the
    sum at R = 1. Without a tail the sum keeps an estimate: the terms decay
    superpolynomially once the linear shift removes the stationary point,
    so one doubling bounds the remainder by the last shell's mass, and the
    sum stops once twice that mass is below tol/2.

    Returns (values, tails, quadrature bounds, r_max, last r), each but
    r_max a list with one entry per pair; r_max is the largest r gridded
    in the loop.
    """
    count = len(insts)
    values, quads, tops = [0.0 + 0.0j] * count, [0.0] * count, [0] * count
    tol = insts[0].tol * float(np.sum(np.abs(cs))) if count else 0.0
    if tol == 0.0:
        return values, [0.0] * count, quads, 0, tops
    rests = [math.inf] * count
    live = list(range(count))
    lo, hi = 1, FIRST_SHELL_R
    while live:
        shell, done = [], set()  # (pair, top of its rows) of the pairs that grid [lo, top]
        for i in live:
            top, h = hi, insts[i].h
            if tail is not None:
                first = max(lo, math.floor(tail.r_stat(h)) + 1)
                if first <= hi + 1:
                    bounds = tail.bounds(first, hi + 1, h)
                    met = np.flatnonzero(bounds < 0.5 * tol)
                    if met.size:
                        done.add(i)
                        rests[i], top = float(bounds[met[0]]), first + int(met[0]) - 1
                    else:
                        rests[i] = float(bounds[0]) if first == lo else math.inf
            if top >= lo:
                shell.append((i, top))
            tops[i] = top
        if shell:
            if lo > MAX_R:
                raise TailNotConvergedError(
                    f"dual sum tail still {rests[shell[0][0]]:.3e} at r_max {lo - 1}")
            parts = [np.arange(lo, top + 1) for _, top in shell]
            rs = np.concatenate(parts)
            steps = np.repeat([insts[i].h for i, _ in shell], [part.size for part in parts])
            rows = integrate_shifted(insts[0].osc, rs, steps, ns=ns, cs=cs,
                                     tol=tol / (32.0 * np.maximum(8, rs)))
            at = 0
            for (i, _), part in zip(shell, parts):
                own = slice(2 * at, 2 * (at + part.size))
                at += part.size
                values[i] += kahan_csum(rows.values[own])
                quads[i] += float(np.sum(rows.abs_errs[own]))
                if tail is None:
                    rests[i] = 2.0 * float(np.sum(np.abs(rows.values[own])))
                    if rests[i] < 0.5 * tol:
                        done.add(i)
        live = [i for i in live if i not in done]
        lo, hi = hi + 1, 2 * hi
    return values, rests, quads, max(tops), tops


def _pair_terms(base: KeyIdentityInstance, pairs, ns, cs):
    """Per (p, l) of `pairs`, in order: the pair's instance, sum_n c_n A_n
    and its (value, tail bound, quadrature bound, last r) of
    `_poisson_terms`. The tail bound, which does not depend on the pair,
    is built once (for an amplitude with a jet), and the dual sums of all
    the pairs run together, shell by shell, before the first pair is
    given."""
    tail = _IbpTail(base.osc, ns, cs) if base.amplitude.jet is not None else None
    insts = [replace(base, p=p, l=l) for p, l in pairs]
    values, rests, quads, _, tops = _poisson_terms(insts, ns, cs, tail)
    for inst, dual in zip(insts, zip(values, rests, quads, tops)):
        yield inst, riemann_side(inst, ns, cs), dual


@dataclass(frozen=True)
class KeyIdentityReport:
    """All three routes of one identity instance plus the residual bound.

    `o_tail` bounds the dual sum's terms past `r_max_used`: a bound by
    integration by parts when the amplitude has a jet (its L1 norms are
    cushioned trapezoid sums), an estimate from the last shell's mass
    otherwise. `o_quad_err` sums the gridded rows' quadrature errors, each
    a proved bound of the bounded path (the amplitude carries
    `Cutoff.bound`).
    """

    T: float
    n: int
    p: int
    l: int
    h: float
    m_value: complex
    a_value: complex
    o_value: complex
    m_err: float
    o_tail: float
    o_quad_err: float
    r_max_used: int
    residual: float
    budget: float
    passed: bool

    @property
    def recovered_m(self) -> complex:
        """M reconstructed from the sum side: A - O."""
        return self.a_value - self.o_value

    @property
    def scale(self) -> float:
        return abs(self.m_value) + abs(self.a_value) + abs(self.o_value)


def verify_key_identity(base: KeyIdentityInstance, pairs=None) -> list[KeyIdentityReport]:
    """Check M = A - O at each pair of `pairs` (default base's own), one
    report per pair in order; M, which does not depend on the pair, is
    integrated once. The residual is pure numerics and must sit inside
    ten times the sum of the constituent quadrature bounds."""
    pairs = [(base.p, base.l)] if pairs is None else pairs
    m = integrate_main(base.osc)
    reports = []
    for inst, a, (o, tail, quad_sum, r_used) in _pair_terms(base, pairs, [base.n], [1.0]):
        residual = abs(m.value - (a - o))
        # budget from the enforced bounds (M to inst.tol, the shifted terms to a
        # tol/2 share), not the achieved estimates: it scales linearly with tol
        budget = 10.0 * (2.0 * inst.tol + _riemann_rounding(inst))
        reports.append(KeyIdentityReport(
            T=inst.T, n=inst.n, p=inst.p, l=inst.l, h=inst.h,
            m_value=m.value, a_value=a, o_value=o,
            m_err=m.abs_err, o_tail=tail, o_quad_err=quad_sum,
            r_max_used=r_used, residual=residual, budget=budget,
            passed=residual <= budget))
    return reports


def lin_form_leading(inst: KeyIdentityInstance) -> complex:
    """Closed-form leading shape of the dressed identity D*M = D*(A - O).

    n^(-iT) * sqrt(2*pi) e^(-i*pi/4) x0 V(x0) with x0 = 2*pi*n/N: the
    leading stationary-phase term of M (see oscquad.stationary_phase_main)
    times D = dressing_constant(T, N), in which the phases (2*pi/N)^(iT)
    x0^(-iT) collapse to n^(-iT). Returns 0 when x0 falls outside the support.
    """
    x0 = TWO_PI * inst.n / inst.N
    if not (inst.amplitude.support_lo < x0 < inst.amplitude.support_hi):
        return 0.0 + 0.0j
    return complex(np.exp(-1j * inst.T * np.log(inst.n))
                   * np.sqrt(TWO_PI) * np.exp(-0.25j * np.pi)
                   * x0 * inst.amplitude(x0))


def dressing_constant(T: float, N: float) -> complex:
    """D = (2*pi/N)^(iT) * e(T/(2*pi)) * sqrt(T); |D| = sqrt(T)."""
    # compared so that NaN and inf fail
    if not (0.0 < T < np.inf and 0.0 < N < np.inf):
        raise ConfigError("need finite T > 0 and N > 0")
    return complex(np.exp(1j * T * np.log(TWO_PI / N))
                   * np.exp(1j * T)
                   * np.sqrt(T))


@dataclass(frozen=True)
class AmplifierSpec:
    """Two disjoint dyadic prime segments with the averaging weight."""

    kappa: float
    P: float
    L: float
    primes_p: tuple
    primes_l: tuple

    def __post_init__(self):
        if self.P <= 1.0 or self.L <= 1.0:
            # li has its pole at 1: the weight is undefined there
            raise ConfigError("segment starts P and L must exceed 1")
        if not self.primes_p or not self.primes_l:
            raise ConfigError("both prime segments must be non-empty")
        # segments may touch at one endpoint (never a shared prime, which
        # the per-pair p != l validation would reject anyway)
        if not (2.0 * self.L <= self.P or 2.0 * self.P <= self.L):
            raise ConfigError("the two dyadic segments must be disjoint")
        if set(self.primes_p) & set(self.primes_l):
            raise ConfigError("prime segments must not share a prime")

    @classmethod
    def for_t(cls, T: float, kappa: float = 1.0 / 18.0) -> "AmplifierSpec":
        """Segments at P = T^(5*kappa) and L = T^(2*kappa), sieved directly.

        L dips slightly below 2 at desk-scale T, so [L, 2L] may start below
        the smallest prime. The segments are disjoint (2L <= P) only from
        T = 2^(1/(3*kappa)) on, which is 64 at kappa = 1/18.
        """
        # compared so that NaN fails
        if not T > 1.0:
            raise ConfigError("need T > 1")
        if not kappa > 0.0:
            raise ConfigError("kappa must be positive")
        P = T ** (5.0 * kappa)
        L = T ** (2.0 * kappa)
        if 2.0 * L > P:
            floor = 2.0 ** (1.0 / (3.0 * kappa))
            raise ConfigError(
                f"the amplifier needs T >= 2^(1/(3 kappa)) = {floor:.6g} at "
                f"kappa = {kappa:.6g}, so that [L, 2L] and [P, 2P] are "
                f"disjoint; got T = {T:.6g}")
        if 2.0 * P > MAX_SIEVE:
            top = (0.5 * MAX_SIEVE) ** (1.0 / (5.0 * kappa))
            raise ConfigError(
                f"the amplifier sieves [P, 2P] only up to the desk-scale "
                f"ceiling MAX_SIEVE = {MAX_SIEVE}, so it needs T <= "
                f"(MAX_SIEVE/2)^(1/(5 kappa)) = {top:.6g} at kappa = "
                f"{kappa:.6g}; got T = {T:.6g}, where 2P = {2.0 * P:.6g}")
        return cls(kappa=kappa, P=P, L=L, primes_p=tuple(primes_in(P, 2.0 * P)),
                   primes_l=tuple(primes_in(L, 2.0 * L)))

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(p, l) for p in self.primes_p for l in self.primes_l]

    @property
    def weight(self) -> float:
        """1 / (D(P) D(L)), the density-compensating weight.

        D(x) = li(2x) - li(x) = integral_x^2x dt / log t is the prime number
        theorem's main term for the number of primes in [x, 2x). The
        leading-order form x / log x overstates that count by a factor
        1 + O(1 / log x), since the density 1 / log t falls across the
        segment; the two weights agree as x grows.
        """
        return 1.0 / (_li_segment(self.P) * _li_segment(self.L))

    def weighted_pair_count(self) -> float:
        """weight * |pairs|, the pair count normalized by its PNT main term.

        Tends to 1 as both segments grow, and is checked against [1/2, 2] at
        desk scale. The window is not promised when a segment holds a single
        prime (T = 400, 700 and 1000 to 3000 at kappa = 1/18, for example):
        the count then rides on one prime gap and drops to 0.31-0.52, so
        `criteria.amplified_battery` refuses such segments.
        """
        return self.weight * len(self.pairs)


def _li_segment(x: float) -> float:
    """li(2x) - li(x) = integral_x^2x dt / log t, for x > 1.

    From x = e on it is x * integral_1^2 ds / (log x + log s) on one GL16
    panel: the integrand's pole s = 1/x lies at least 0.63 below [1, 2],
    which puts the rule's error near 1e-20, and log x enters only a
    denominator, so its rounding stays relative. Below e, with a = log 2x
    and b = log x, li(y) = gamma + log log y + sum_k (log y)^k / (k k!)
    gives log(a / b) + sum_(k <= 30) (a^k - b^k) / (k k!): every term is
    positive, and with a < 1.7 the 30th is below 1e-26.
    """
    b = math.log(x)
    if b >= 1.0:
        return x * math.fsum(_LI_W / (b + _LI_LOG_S))
    a = math.log(2.0 * x)
    ta = tb = 1.0
    terms = [math.log(a / b)]
    for k in range(1, 31):
        ta *= a / k
        tb *= b / k
        terms.append((ta - tb) / k)
    return math.fsum(terms)


def amplified_average(base: KeyIdentityInstance, amp: AmplifierSpec,
                      ns=None, cs=None) -> tuple[complex, complex]:
    """Average the identity over the prime pairs with the amplifier weight.

    Returns the weighted averages of sum_n c_n A_n and of sum_n c_n O_n
    (default base.n alone, weight 1), one dual sum per pair. Their
    difference equals sum_n c_n M_n * weight * |pairs| exactly, since M does
    not depend on (p, l). Pairs are processed in lexicographic order with
    compensated reduction, by the pair loop `_pair_terms`.
    """
    ns = [base.n] if ns is None else ns
    cs = [1.0] * len(ns) if cs is None else cs
    terms = [(a, dual[0]) for _, a, dual in _pair_terms(base, amp.pairs, ns, cs)]
    w = amp.weight
    return w * kahan_csum([a for a, _ in terms]), w * kahan_csum([o for _, o in terms])
