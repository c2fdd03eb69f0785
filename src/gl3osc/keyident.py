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
on, until the shell's mass puts the tail below tol/2. A shell is one
shared-grid batch (`integrate_shifted`): every +-r of the shell on one grid
with one evaluation of V. Its phases are geometric sequences in the
integers r and n: an exponential per node heads each run of up to 64
consecutive r (or n); products fill the shift table, and Horner's rule sums
a run's weighted n, so a shell of 8 r costs two exponentials per node, not
eight.

The dual sum and the amplified average dualize a weighted n-sum whole: by
linearity sum_n c_n O_n is the dual sum of V(x) x^(-iT) sum_n c_n
e(-nT/(Nx)), so a shell has one row per +-r, and the tolerances scale with
sum_n |c_n|. verify_key_identity and A09 run one n of weight 1; the
discretized route of `sums` hands its whole weighted window to each pair.

The amplifier's weight 1 / (D(P) D(L)), with D(x) = li(2x) - li(x), is
computed here (`_li_segment`: a positive series below x = e, one GL16 panel
from there on), within 3e-16 relative of mpmath up to the sieve's ceiling
MAX_SIEVE. So nothing on the identity's path imports scipy. `for_t` refuses
a kappa whose segment [P, 2P] passes that ceiling before it sieves at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cutoffs import Cutoff
from .errors import ConfigError, TailNotConvergedError
from .oscquad import (
    OscInstance,
    integrate_main,
    integrate_shifted,
    probe_amplitude,
)
from .util import GL16, TWO_PI, gl_panels, is_prime, kahan_csum, primes_in

# the dual sum's first shell is r in [1, FIRST_SHELL_R]; MAX_R is the hard
# ceiling of its adaptive truncation
FIRST_SHELL_R = 8
MAX_R = 4096
# AmplifierSpec.for_t sieves no further than 2P <= MAX_SIEVE. At T = 500 a
# pair's dual sum grows with p / l, as its shifts r/h do (0.06 s at
# (p, l) = (101, 3), 0.7 s at (1009, 3)), [P, 2P] x [L, 2L] holds about 800
# pairs at P = 1009, and at (10007, 3) one pass needs more panels than the
# evaluation budget allows
MAX_SIEVE = 1024

# _li_segment's rule: GL16 nodes s on [1, 2], their weights, and log s
_LI_S, _LI_W = gl_panels(np.array([1.0, 2.0]), *GL16)
_LI_LOG_S = np.log(_LI_S)


@dataclass(frozen=True)
class KeyIdentityInstance:
    """One identity instance: frequency data plus the prime pair (p, l).

    `osc` is the instance's main integral; building it checks n, N, tol and
    the amplitude's support.
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


def riemann_side(inst: KeyIdentityInstance) -> complex:
    """The exact windowed sum A = h^(1-iT) sum_r r^(-iT) e(-np/(l*r)) V(r*h).

    Only indices with r*h inside the amplitude support contribute. Summed in
    ascending index order, compensated.
    """
    h = inst.h
    r_lo, r_hi = inst.index_window()
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


def _poisson_terms(inst: KeyIdentityInstance, ns=None, cs=None):
    """Adaptive dual sum: value, tail estimate, quadrature bound, last r.

    Sums sum_n c_n O_n over the integers n of `ns` with the complex weights
    `cs` (default inst.n alone, weight 1), shell by shell: r in
    [1, FIRST_SHELL_R], then [hi + 1, 2 hi], and so on, each shell one
    integrate_shifted batch at the integers r and the step inst.h. With
    tol = inst.tol sum_n |c_n|, each row is held to its own share
    tol / (32 max(8, r)), and the sum stops once its tail estimate falls
    below tol/2.
    """
    ns = [inst.n] if ns is None else ns
    cs = [1.0] * len(ns) if cs is None else cs
    tol = inst.tol * float(np.sum(np.abs(cs)))
    value, quad_sum = 0.0 + 0.0j, 0.0
    lo, hi = 1, FIRST_SHELL_R
    while True:
        rs = np.arange(lo, hi + 1)
        shell = integrate_shifted(inst.osc, rs, inst.h, ns=ns, cs=cs,
                                  tol=tol / (32.0 * np.maximum(8, rs)))
        value += kahan_csum(shell.values)
        quad_sum += float(np.sum(shell.abs_errs))
        # empirical geometric tail: the terms decay superpolynomially once
        # the linear shift removes the stationary point, so one doubling
        # bounds the remainder by the last shell's mass
        tail = 2.0 * float(np.sum(np.abs(shell.values)))
        if tail < 0.5 * tol:
            return value, tail, quad_sum, hi
        if 2 * hi > MAX_R:
            raise TailNotConvergedError(f"dual sum tail still {tail:.3e} at r_max {hi}")
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
    if T <= 0.0 or N <= 0.0:
        raise ConfigError("need T > 0 and N > 0")
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
        if 2.0 * P > MAX_SIEVE:
            top = (0.5 * MAX_SIEVE) ** (1.0 / (5.0 * kappa))
            raise ConfigError(
                f"the amplifier sieves [P, 2P] only up to the desk-scale "
                f"ceiling MAX_SIEVE = {MAX_SIEVE}, so it needs T <= "
                f"(MAX_SIEVE/2)^(1/(5 kappa)) = {top:.6g} at kappa = "
                f"{kappa:.6g}; got T = {T:.6g}, where 2P = {2.0 * P:.6g}")
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
    compensated reduction.
    """
    ns = [base.n] if ns is None else ns
    cs = [1.0] * len(ns) if cs is None else cs
    a_terms, o_terms = [], []
    for p, l in amp.pairs:
        sub = replace(base, p=p, l=l)
        a_terms.append(kahan_csum([c * riemann_side(replace(sub, n=int(n)))
                                   for n, c in zip(ns, cs)]))
        o_terms.append(_poisson_terms(sub, ns, cs)[0])
    w = amp.weight
    return w * kahan_csum(a_terms), w * kahan_csum(o_terms)
