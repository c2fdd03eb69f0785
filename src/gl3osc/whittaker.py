"""Archimedean Whittaker data on the diagonal torus and its local zeta integral.

The distinguished vector is pinned on the diagonal by

    W(a(y)) = T^(3/4) * e(-y / sqrt(T)) * V0(y / T^(3/2)),   y > 0,

with V0 the basic bump. Its local zeta integral against y^(s - 1/2 + iT) d*y
is always evaluated in rescaled coordinates z = y / T^(3/2):

    Z(1/2 + s + iT) = T^(3s/2) * T^(3iT/2) *
                      integral V0(z) e(-Tz) z^(iT - 1/2 + s) d*z,

whose phase -2*pi*T*z + (T + Im s)*ln(z) is stationary at
z0 = (T + Im s)/(2*pi*T). For s = 0 that is z0 = 1/(2*pi) and stationary
phase gives Z = C_T * T^(-1/2) + O(T^(-3/2)) with the explicit constant

    C_T = (2*pi)^(1-iT) * exp(-i*pi/4) * T^(3iT/2) * e(-T/(2*pi)) * V0(1/(2*pi)).

z0 leaves the support of V0 exactly when Im s leaves [-3T/4, c1*T], which is
why |Z| collapses outside that window.

This module holds the paper's objects only: W, Z and C_T. The checks built
on them, the critical-line decay (A04), the Re(s) = -1/2 strip level (A05)
and the single-T comparison of Z with C_T T^(-1/2) within K_ZETA_REL / T,
are batteries in `criteria`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cutoffs import ONE_OVER_2PI, Cutoff, v0_cutoff
from .errors import ConfigError
from .oscquad import QuadResult, _phase_turns, integrate_phase
from .util import TWO_PI

# Relative gap between local_zeta(s=0) and C_T * T^(-1/2) is <= K_ZETA_REL / T;
# calibrated at T = 250 (rel * T = 1.127) with a 4x cushion and frozen.
K_ZETA_REL = 4.6

DEFAULT_ZETA_TOL = 1e-10
# the rounding of the prefactor and of its product with the core integral,
# relative to |Z|: its reduced phase (a few eps a turn, 2 pi times that),
# the power T^(3 Re(s)/2) and the products
_PREF_ROUND = 32.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class LocalZetaParams:
    """Evaluation point 1/2 + s + iT of the local zeta integral."""

    T: float
    s: complex = 0.0 + 0.0j
    c1: float = 1.0

    def __post_init__(self):
        # compared so that NaN and inf fail
        if not 0.0 < self.T < np.inf:
            raise ConfigError("T must be finite and positive")
        if not (-0.5 <= self.s.real <= 0.5 and abs(self.s.imag) < np.inf):
            raise ConfigError("Re(s) must lie in [-1/2, 1/2] and Im(s) be finite")
        if not 0.0 < self.c1 < np.inf:
            raise ConfigError("c1 must be finite and positive")


@functools.lru_cache(maxsize=64)
def _power_amplitude(c1: float, exponent: float) -> Cutoff:
    """V0(z) * z^exponent as a Cutoff on V0's support, with its bound:
    V0's times the largest |z|^exponent on the ellipse, which is at its
    left end lo (at the support's end, where lo lies left of it) for a
    negative exponent and at most |hi + ib|^exponent otherwise."""
    v0 = v0_cutoff(c1)

    def fn(z):
        z = np.asarray(z, dtype=float)
        return v0.fn(z) * z**exponent

    def bound(lo, hi, b):
        if exponent < 0.0:
            power = np.maximum(lo, v0.support_lo) ** exponent
        else:
            power = np.hypot(hi, b) ** exponent
        return v0.bound(lo, hi, b) * power

    return Cutoff(support_lo=v0.support_lo,
                  support_hi=v0.support_hi, fn=fn, bound=bound)


def local_zeta(params: LocalZetaParams, tol: float = DEFAULT_ZETA_TOL) -> QuadResult:
    """Z(1/2 + s + iT), evaluated in z-coordinates (see module docstring).

    The returned value includes the T^(3s/2) * T^(3iT/2) prefactor; abs_err
    is the quadrature's figure scaled by the prefactor modulus (a proved
    bound: V0 carries `Cutoff.bound`), plus the prefactor's rounding.
    """
    sigma, tau = params.s.real, params.s.imag
    amp = _power_amplitude(params.c1, sigma - 1.5)
    c_log = params.T + tau
    core = integrate_phase(amp, c_log=c_log, c_inv=0.0, c_lin=params.T, tol=tol)
    # the prefactor's phase 1.5 (T + Im s) ln T, as c_log ln T and half of
    # it in turns, each reduced mod 1 before it rounds
    turns = sum(_phase_turns(np.array([params.T]), c, 0.0, 0.0)[0] for c in (c_log, 0.5 * c_log))
    pref = params.T ** (1.5 * sigma) * np.exp(1j * TWO_PI * turns)
    value = complex(pref * core.value)
    return QuadResult(value=value, abs_err=float(abs(pref)) * core.abs_err + _PREF_ROUND * abs(value),
                      panels=core.panels, evaluations=core.evaluations)


def c_constant(T: float, c1: float = 1.0) -> complex:
    """C_T, the stationary-phase constant of the s = 0 local zeta integral.

    |C_T| = 2*pi * V0(1/(2*pi)) and the phase rotates with derivative
    (3/2) ln T + 1/2 - ln(2*pi) in T.
    """
    # compared so that NaN and inf fail
    if not 0.0 < T < np.inf:
        raise ConfigError("T must be finite and positive")
    vstar = float(v0_cutoff(c1)(ONE_OVER_2PI))
    return complex(TWO_PI * np.exp(-1j * T * np.log(TWO_PI))
                   * np.exp(-0.25j * np.pi)
                   * np.exp(1.5j * T * np.log(T))
                   * np.exp(-1j * T)
                   * vstar)
