"""Exact sum-versus-integral identity for the main oscillatory integral.

The main integral M = integral x^(-iT) e(-nT/(Nx)) V(x) dx equals a finite
windowed sum A minus a rapidly convergent dual sum O:

    A = h^(1-iT) * sum_{r >= 1} r^(-iT) e(-np/(l*r)) V(r*h),   h = l*T/(N*p),
    O = sum_{r != 0} integral x^(-iT) e(-nT/(Nx)) V(x) e(-r*x/h) dx.

The identity is Poisson summation applied to the r-sum; it holds exactly for
every coprime prime pair (p, l), so the recovered M must not depend on the
step h. This module verifies the identity at desk scale, reconstructs the
leading closed-form shape of the dressed identity, and averages it over
prime pairs drawn from two dyadic segments.

O is summed in shells of r: [1, max(8, r_max)], then [hi + 1, 2 hi], and so
on, until the shell's mass puts the tail below tol/2. A shell is one
shared-grid batch (`integrate_shifted`): every +-r of the shell, for every n
still summing, on one grid with one evaluation of V. The dual sum and the
amplified average always take a batch of n and return one entry per n:
verify_key_identity and A09 run a batch of one n and read entry 0, and the
discretized route of `sums` hands its whole window of n to each pair's dual
sum.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expi

from .cutoffs import Cutoff
from .errors import ConfigError, TailNotConvergedError
from .oscquad import (
    OscInstance,
    integrate_main,
    integrate_shifted,
    probe_amplitude,
    stationary_phase_main,
)
from .util import TWO_PI, is_prime, kahan_csum, primes_in

# hard ceiling for the adaptive dual-sum truncation
MAX_R = 4096


@dataclass(frozen=True)
class KeyIdentityInstance:
    """One identity instance: frequency data plus the prime pair (p, l)."""

    T: float
    n: int
    N: float
    p: int
    l: int
    r_max: int = 8
    tol: float = 1e-9
    amplitude: Cutoff = field(default_factory=probe_amplitude)

    def __post_init__(self):
        if self.T <= 0.0 or self.N <= 0.0:
            raise ConfigError("need T > 0 and N > 0")
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if not (is_prime(self.p) and is_prime(self.l)):
            raise ConfigError("p and l must be prime")
        if self.p == self.l:
            raise ConfigError("p and l must be distinct")
        if self.r_max < 1:
            raise ConfigError("r_max must be a positive integer")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.amplitude.support_lo <= 0.0:
            raise ConfigError("amplitude support must sit inside (0, inf)")

    @property
    def h(self) -> float:
        """Step of the Riemann sum: l*T/(N*p)."""
        return self.l * self.T / (self.N * self.p)

    @property
    def osc(self) -> OscInstance:
        return OscInstance(T=self.T, n=self.n, N=self.N,
                           amplitude=self.amplitude, tol=self.tol)

    def index_window(self) -> tuple[int, int]:
        """Smallest and largest r with r*h inside the amplitude support."""
        h = self.h
        lo = max(1, int(np.ceil(self.amplitude.support_lo / h)))
        hi = int(np.floor(self.amplitude.support_hi / h))
        return lo, hi


def riemann_side(inst: KeyIdentityInstance, pad: int = 0) -> complex:
    """The exact windowed sum A = h^(1-iT) sum_r r^(-iT) e(-np/(l*r)) V(r*h).

    Only indices with r*h inside the amplitude support contribute; `pad`
    extends the window on both sides (extra terms are exactly zero and must
    not change the value). Summed in ascending index order, compensated.
    """
    if pad < 0:
        raise ConfigError("pad must be nonnegative")
    h = inst.h
    r_lo, r_hi = inst.index_window()
    r_lo = max(1, r_lo - pad)
    r_hi = r_hi + pad
    if r_hi < r_lo:
        return 0.0 + 0.0j
    rs = np.arange(r_lo, r_hi + 1, dtype=np.int64)
    vals = inst.amplitude(rs * h)
    # reduce the rational phase np/(l*r) mod 1 in integer arithmetic so the
    # unit exponential never sees a large argument
    denom = inst.l * rs
    frac = ((inst.n * inst.p) % denom) / denom.astype(float)
    terms = (vals
             * np.exp(-1j * inst.T * np.log(rs.astype(float)))
             * np.exp(-1j * TWO_PI * frac))
    prefactor = h * np.exp(-1j * inst.T * np.log(h))
    return complex(prefactor * kahan_csum(terms))


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


def _poisson_terms(inst: KeyIdentityInstance, ns=None):
    """Adaptive dual sums: values, tail estimates, quadrature bounds, last r.

    Sums O at every n of `ns` (default inst.n alone), shell by shell: r in
    [1, max(8, r_max)], then [hi + 1, 2 hi], and so on. Each shell is one
    integrate_shifted batch over every n still summing and every +-r of
    the shell, each row held to its own share tol / (32 max(8, r)). An n
    stops once its tail estimate falls below tol/2. Returns per-n arrays
    of value, tail and quadrature bound, and the largest r reached.
    """
    batch = np.asarray([inst.n] if ns is None else ns, dtype=np.int64)
    value = np.zeros(batch.size, dtype=complex)
    tail = np.zeros(batch.size)
    quad_sum = np.zeros(batch.size)
    going = np.ones(batch.size, dtype=bool)
    lo, hi = 1, max(8, inst.r_max)
    while True:
        rs = np.arange(lo, hi + 1)
        shell = integrate_shifted(inst.osc, tol=inst.tol / (32.0 * np.maximum(8, rs)),
                                  betas=rs / inst.h, ns=batch[going])
        for k, terms, errs in zip(np.flatnonzero(going), shell.values, shell.abs_errs):
            value[k] += kahan_csum(terms)
            quad_sum[k] += float(np.sum(errs))
            # empirical geometric tail: the terms decay superpolynomially
            # once the linear shift removes the stationary point, so one
            # doubling bounds the remainder by the last shell's mass
            tail[k] = 2.0 * float(np.sum(np.abs(terms)))
        going &= ~(tail < 0.5 * inst.tol)
        if not going.any():
            return value, tail, quad_sum, hi
        if 2 * hi > MAX_R:
            raise TailNotConvergedError(
                f"dual sum tail still {tail[going].max():.3e} at r_max {hi}")
        lo, hi = hi + 1, 2 * hi


@dataclass(frozen=True)
class KeyIdentityReport:
    """All three routes of one identity instance plus the residual bound."""

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


def verify_key_identity(inst: KeyIdentityInstance) -> KeyIdentityReport:
    """Check M = A - O; the residual is pure numerics and must sit inside
    ten times the sum of the constituent quadrature bounds."""
    m = integrate_main(inst.osc)
    a = riemann_side(inst)
    o, tail, quad_sum, r_used = _poisson_terms(inst)
    o, tail, quad_sum = complex(o[0]), float(tail[0]), float(quad_sum[0])
    residual = abs(m.value - (a - o))
    a_round = _riemann_rounding(inst)
    # budget from the enforced bounds, not the achieved estimates: M is
    # integrated to inst.tol and the shifted terms to a tol/2 share, so the
    # bound scales linearly when every tolerance is tightened together
    budget = 10.0 * (2.0 * inst.tol + a_round)
    return KeyIdentityReport(
        T=inst.T, n=inst.n, p=inst.p, l=inst.l, h=inst.h,
        m_value=m.value, a_value=a, o_value=o,
        m_err=m.abs_err, o_tail=tail, o_quad_err=quad_sum,
        r_max_used=r_used, residual=residual, budget=budget,
        passed=residual <= budget)


def lin_form_leading(inst: KeyIdentityInstance) -> complex:
    """Leading closed-form value of the dressed identity.

    Dressing M = A - O with D = (2*pi/N)^(iT) e(T/(2*pi)) sqrt(T) gives the
    shape n^(-iT) * (fixed cutoff at 2*pi*n/N); substituting the leading
    stationary-phase term for M yields that shape's closed-form main term.
    Returns 0 when the stationary point falls outside the support.
    """
    lead, _ = stationary_phase_main(inst.osc)
    if lead == 0.0:
        return 0.0 + 0.0j
    return complex(dressing_constant(inst.T, inst.N) * lead)


def dressing_constant(T: float, N: float) -> complex:
    """D = (2*pi/N)^(iT) * e(T/(2*pi)) * sqrt(T); |D| = sqrt(T)."""
    if T <= 0.0 or N <= 0.0:
        raise ConfigError("need T > 0 and N > 0")
    return complex(np.exp(1j * T * np.log(TWO_PI / N))
                   * np.exp(1j * T)
                   * np.sqrt(T))


def sum_shape_prefactor(inst: KeyIdentityInstance) -> complex:
    """(2*pi/T)^(iT) (l/p)^(1-iT) e(T/(2*pi)) T^(3/2)/N.

    The constant dressing the raw r-sum in the leading shape; its modulus
    is (l/p) * T^(3/2)/N by unimodularity of the phase factors.
    """
    ratio = inst.l / inst.p
    return complex(np.exp(1j * inst.T * np.log(TWO_PI / inst.T))
                   * ratio * np.exp(-1j * inst.T * np.log(ratio))
                   * np.exp(1j * inst.T)
                   * inst.T**1.5 / inst.N)


def prime_segment(X: float) -> list[int]:
    """All primes in the dyadic segment [X, 2X], ascending."""
    if X < 2.0:
        raise ConfigError("segment start must be at least 2")
    ps = primes_in(X, 2.0 * X)
    if not ps:
        raise ConfigError(f"no prime in [{X}, {2.0 * X}]")
    return ps


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
        """Segments at P = T^(5*kappa) and L = T^(2*kappa).

        Sieves the segments directly: L dips slightly below 2 at desk-scale
        T, which the standalone prime_segment precondition would reject.
        The segments are disjoint (2L <= P) only from T = 2^(1/(3*kappa))
        on, which is 64 at kappa = 1/18.
        """
        if T <= 1.0:
            raise ConfigError("need T > 1")
        if kappa <= 0.0:
            raise ConfigError("kappa must be positive")
        P = T ** (5.0 * kappa)
        L = T ** (2.0 * kappa)
        if 2.0 * L > P:
            floor = 2.0 ** (1.0 / (3.0 * kappa))
            raise ConfigError(
                f"the amplifier needs T >= 2^(1/(3 kappa)) = {floor:.6g} at "
                f"kappa = {kappa:.6g}, so that [L, 2L] and [P, 2P] are "
                f"disjoint; got T = {T:.6g}")
        spec = cls(kappa=kappa, P=P, L=L,
                   primes_p=tuple(primes_in(P, 2.0 * P)),
                   primes_l=tuple(primes_in(L, 2.0 * L)))
        return spec

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
        prime (T = 400, 700 and 1500 to 3000 at kappa = 1/18): the count then
        rides on one prime gap and drops to 0.31-0.45.
        """
        return self.weight * len(self.pairs)


def _li_segment(x: float) -> float:
    """li(2x) - li(x) for x > 1, via li(y) = Ei(log y)."""
    return float(expi(np.log(2.0 * x)) - expi(np.log(x)))


def amplified_average(base: KeyIdentityInstance, amp: AmplifierSpec,
                      ns=None) -> tuple[np.ndarray, np.ndarray]:
    """Average the identity over the prime pairs with the amplifier weight.

    Returns per-n arrays (weighted average of A, weighted average of O)
    over `ns` (default base.n alone), whose dual sums share one batch per
    pair. Their difference equals M * weight * |pairs| exactly, since M
    does not depend on (p, l). Pairs are processed in lexicographic order
    with compensated reduction.
    """
    batch = [base.n] if ns is None else list(ns)
    a_terms = np.empty((len(amp.pairs), len(batch)), dtype=complex)
    o_terms = np.empty_like(a_terms)
    for i, (p, l) in enumerate(amp.pairs):
        sub = replace(base, p=p, l=l)
        a_terms[i] = [riemann_side(replace(sub, n=n)) for n in batch]
        o_terms[i] = _poisson_terms(sub, batch)[0]
    w = amp.weight
    a_avg = np.array([w * kahan_csum(col) for col in a_terms.T])
    o_avg = np.array([w * kahan_csum(col) for col in o_terms.T])
    return a_avg, o_avg
