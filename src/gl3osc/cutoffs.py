"""Smooth cutoff functions and their Mellin transforms.

Everything downstream (oscillatory integrals, local zeta factors, contour
kernels, coefficient sums) is built from four C-infinity shapes:

  * v0   - compactly supported bump on [1/(8*pi), (1+c1)/(2*pi)], realized as
           exp(-1/(1-u^2)) with u the affine map of the support onto [-1, 1];
           strictly positive on the open support, so it is safe to divide by
           on [1/(4*pi), 1/(2*pi)].
  * h    - even plateau: identically 1 on [-1, 1], identically 0 for |y| >= 2,
           C-infinity ramp in between (two-sided exponential smoothstep).
  * h0/h1 - dilation windows h(y*T^eps) - h(y*T^kappa) and
           h(y*T^-kappa) - h(y*T^eps); they telescope to a single wide window.
  * g    - positive bump on [1/(4*pi), 1/(2*pi)] normalized so that
           integral g(y) dy/y = 1 (multiplicative Haar measure).

The weight pair (w0, w) is the exact amplitude ratio that converts the
n-dependent composite cutoff of a coefficient sum into a fixed one at the
stationary point: w0(z) = v0(1/(2*pi)) * g(1/(2*pi*z)) / v0(1/(2*pi*z)),
supported on [1, 2], and w(z) = w0(z)/z.

All callables are numpy-vectorized; scalars in give floats out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import ConfigError, MellinDivergenceError
from .util import GL16, gl_panels

ONE_OVER_8PI = 1.0 / (8.0 * np.pi)
ONE_OVER_4PI = 1.0 / (4.0 * np.pi)
ONE_OVER_2PI = 1.0 / (2.0 * np.pi)

# error bound the g normalization quadrature must report; the bump-gnorm
# check then holds integral g d*y = 1 to its own budget of 1e-10
_G_NORM_TOL = 1e-12

# half-height of the first line segment |t| <= INVERT_IM_START that
# mellin_invert integrates before it starts doubling
INVERT_IM_START = 64.0


def _scalar_or_array(x, out):
    arr = np.asarray(out)
    if np.isscalar(x) or (hasattr(x, "ndim") and getattr(x, "ndim", 1) == 0):
        return float(arr)
    return arr


@dataclass(frozen=True)
class Cutoff:
    """A smooth cutoff with declared support and optional exact plateau.

    support     closed interval outside which the function is exactly zero
    plateau     interval where the function is exactly 1 (plateau cutoffs only)
    """

    support_lo: float
    support_hi: float
    plateau: Optional[tuple] = None
    fn: Callable = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (self.support_lo < self.support_hi):
            raise ConfigError("cutoff support must be a nonempty interval")
        if self.plateau is not None:
            lo, hi = self.plateau
            if not (self.support_lo <= lo <= hi <= self.support_hi):
                raise ConfigError("plateau must sit inside the support")

    def __call__(self, y):
        vals = self.fn(np.asarray(y, dtype=float))
        return _scalar_or_array(y, vals)

    def scaled(self, c: float) -> "Cutoff":
        """The dilation y -> self(y/c); Mellin transforms pick up c^s."""
        if c <= 0.0:
            raise ConfigError("dilation factor must be positive")
        base = self.fn
        return Cutoff(
            support_lo=self.support_lo * c,
            support_hi=self.support_hi * c,
            plateau=None if self.plateau is None else (self.plateau[0] * c, self.plateau[1] * c),
            fn=lambda y, _b=base, _c=c: _b(np.asarray(y, dtype=float) / _c),
        )


def _exp_bump_fn(lo: float, hi: float) -> Callable:
    """exp(-1/(1-u^2)) with u the affine map of [lo, hi] onto [-1, 1]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def fn(y):
        y = np.asarray(y, dtype=float)
        u = (y - mid) / half
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
        return out

    return fn


def v0_cutoff(c1: float = 1.0) -> Cutoff:
    """The basic bump on [1/(8*pi), (1+c1)/(2*pi)]."""
    if c1 <= 0.0:
        raise ConfigError("c1 must be positive")
    lo = ONE_OVER_8PI
    hi = (1.0 + c1) * ONE_OVER_2PI
    return Cutoff(support_lo=lo, support_hi=hi, fn=_exp_bump_fn(lo, hi))


def _smoothstep_down(t):
    """C-infinity ramp from 1 at t<=0 to 0 at t>=1; exact at the ends.

    f(1-t)/(f(t)+f(1-t)) with f(t)=exp(-1/t) extended by 0. The ramp is
    point-symmetric about t = 1/2, so it integrates to exactly 1/2.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t <= 0.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / (1.0 - tm))  # f(1-t)
    b = np.exp(-1.0 / tm)          # f(t)
    out[mid] = a / (a + b)
    return out


def h_cutoff() -> Cutoff:
    """Even plateau cutoff: 1 on [-1,1], 0 outside (-2,2), C-infinity ramps."""
    def fn(y):
        return _smoothstep_down(np.abs(np.asarray(y, dtype=float)) - 1.0)

    return Cutoff(support_lo=-2.0, support_hi=2.0, plateau=(-1.0, 1.0), fn=fn)


def _check_window_params(T: float, kappa: float, eps: float):
    if T <= 1.0:
        raise ConfigError("window cutoffs need T > 1")
    if not (0.0 <= eps < kappa):
        raise ConfigError("window cutoffs need 0 <= eps < kappa")


def h0_cutoff(T: float, kappa: float, eps: float) -> Cutoff:
    """h(y*T^eps) - h(y*T^kappa): window supported on [T^-kappa, 2*T^-eps]."""
    _check_window_params(T, kappa, eps)
    h = h_cutoff()
    te, tk = T**eps, T**kappa

    def fn(y):
        y = np.asarray(y, dtype=float)
        # h is even; mask the negative axis so the declared support is exact
        return np.where(y > 0.0, h.fn(y * te) - h.fn(y * tk), 0.0)

    return Cutoff(support_lo=T**-kappa, support_hi=2.0 * T**-eps, fn=fn)


def h1_cutoff(T: float, kappa: float, eps: float) -> Cutoff:
    """h(y*T^-kappa) - h(y*T^eps): window supported on [T^-eps, 2*T^kappa]."""
    _check_window_params(T, kappa, eps)
    h = h_cutoff()
    te, tk = T**eps, T**kappa

    def fn(y):
        y = np.asarray(y, dtype=float)
        return np.where(y > 0.0, h.fn(y / tk) - h.fn(y * te), 0.0)

    return Cutoff(support_lo=T**-eps, support_hi=2.0 * T**kappa, fn=fn)


_G_CACHE = {}


def g_cutoff() -> Cutoff:
    """Positive bump on [1/(4*pi), 1/(2*pi)] with integral g(y) dy/y = 1."""
    if "g" not in _G_CACHE:
        raw = _exp_bump_fn(ONE_OVER_4PI, ONE_OVER_2PI)
        norm, err = quad(lambda y: raw(y) / y, ONE_OVER_4PI, ONE_OVER_2PI,
                         epsabs=1e-14, epsrel=1e-13, limit=200)
        if not np.isfinite(norm) or norm <= 0.0 or err > _G_NORM_TOL:
            raise ConfigError("g normalization quadrature failed")
        _G_CACHE["g"] = Cutoff(
            support_lo=ONE_OVER_4PI, support_hi=ONE_OVER_2PI,
            fn=lambda y, _r=raw, _n=norm: _r(y) / _n,
        )
    return _G_CACHE["g"]


def weight_w0_w(z, c1: float = 1.0):
    """The weight pair (w0(z), w(z)) on [1, 2].

    w0(z) = v0(1/(2*pi)) * g(1/(2*pi*z)) / v0(1/(2*pi*z)) and w(z) = w0(z)/z.
    The division is safe: wherever g's argument is inside its support,
    v0's argument lies in [1/(4*pi), 1/(2*pi)], strictly inside v0's support.
    """
    v0 = v0_cutoff(c1)
    g = g_cutoff()
    vstar = v0(ONE_OVER_2PI)
    z_arr = np.asarray(z, dtype=float)
    w0 = np.zeros_like(z_arr)
    pos = z_arr > 0.0
    arg = np.zeros_like(z_arr)
    arg[pos] = ONE_OVER_2PI / z_arr[pos]
    gv = g.fn(arg)
    live = pos & (gv > 0.0)
    w0[live] = vstar * gv[live] / v0.fn(arg[live])
    w = np.zeros_like(z_arr)
    w[live] = w0[live] / z_arr[live]
    return _scalar_or_array(z, w0), _scalar_or_array(z, w)


@dataclass(frozen=True)
class MellinSample:
    """One Mellin-transform evaluation with its quadrature error bound."""

    s: complex
    value: complex
    abs_err: float


def mellin(f: Cutoff, s: complex) -> MellinSample:
    """H(s) = integral f(y) y^s dy/y over (0, infinity).

    For cutoffs whose plateau reaches 0 the head integral up to the plateau
    edge is y^s/s evaluated in closed form (requires Re(s) > 0); the smooth
    remainder goes to adaptive quadrature. Compactly-supported-away-from-0
    cutoffs converge for every s and go straight to quadrature.
    """
    s = complex(s)
    lo = max(f.support_lo, 0.0)
    hi = f.support_hi
    if hi <= 0.0:
        raise MellinDivergenceError("cutoff has no mass on (0, inf)")

    head = 0.0 + 0.0j
    plateau_hi = None
    if f.plateau is not None and f.plateau[0] <= 0.0 < f.plateau[1]:
        plateau_hi = min(f.plateau[1], hi)
    if lo == 0.0 and plateau_hi is None:
        # no exact plateau to carry the y->0 behaviour; demand decay at 0
        raise MellinDivergenceError("support touches 0 without a plateau")
    if plateau_hi is not None:
        if s.real <= 0.0:
            raise MellinDivergenceError("Mellin of a plateau-at-0 cutoff needs Re(s) > 0")
        head = plateau_hi**s / s
        lo = plateau_hi

    val, err = quad(lambda y: f.fn(np.asarray(y)) * y ** (s - 1.0), lo, hi,
                    complex_func=True, limit=400, epsabs=1e-13, epsrel=1e-12)
    return MellinSample(s=s, value=head + val, abs_err=float(abs(err)))


def mellin_on_line(f: Cutoff, re_line: float, ts) -> np.ndarray:
    """Vectorized H(re_line + i*t) for an array of ordinates t.

    Fixed-order panel quadrature in log coordinates, sized so the fastest
    y^(i*t) oscillation is resolved; used by the inversion round-trip and by
    contour kernels, where thousands of line samples are needed.
    """
    ts = np.asarray(ts, dtype=float)
    lo = max(f.support_lo, 0.0)
    if lo <= 0.0:
        raise MellinDivergenceError("line sampling needs support away from 0")
    ulo, uhi = math.log(lo), math.log(f.support_hi)
    tmax = float(np.max(np.abs(ts))) if ts.size else 1.0
    # panels sized for <= half an oscillation of exp(i*t*u) plus a smooth floor
    n_panels = max(48, int(np.ceil(tmax * (uhi - ulo) / np.pi)) + 8)
    u, wts = gl_panels(np.linspace(ulo, uhi, n_panels + 1), *GL16)
    base = f.fn(np.exp(u)) * wts * np.exp(re_line * u)
    # H(sigma + it) = sum_k base_k * exp(i t u_k); chunked to bound memory
    out = np.empty(ts.shape, dtype=complex)
    step = max(1, 4_000_000 // max(u.size, 1))
    for i in range(0, ts.size, step):
        out[i : i + step] = np.exp(1j * np.outer(ts[i : i + step], u)) @ base
    return out


def mellin_invert(f: Cutoff, y: float, tol: float = 1e-8,
                  re_line: float = 0.0) -> complex:
    """Reconstruct f(y) from its Mellin transform on a truncated vertical line.

    (1/2*pi) integral over |t| <= S of H(re_line + it) y^-(re_line + it) dt,
    from S = INVERT_IM_START, doubling S until the last shell contributes
    less than tol/2. Superpolynomial decay of H for smooth compactly
    supported f makes this converge quickly.
    """
    if y <= 0.0:
        raise ConfigError("inversion point must be positive")

    def shell(t_lo: float, t_hi: float) -> complex:
        n = max(64, int(np.ceil((t_hi - t_lo) * max(abs(math.log(y)), 1.0) / np.pi)) + 8)
        t, wts = gl_panels(np.linspace(t_lo, t_hi, n + 1), *GL16)
        hv = mellin_on_line(f, re_line, t)
        integrand = hv * y ** (-(re_line + 1j * t))
        return complex(np.sum(wts * integrand))

    s = INVERT_IM_START
    total = shell(-s, s)
    for _ in range(8):
        added = shell(s, 2.0 * s) + shell(-2.0 * s, -s)
        total += added
        if abs(added) < 0.5 * tol:
            return total / (2.0 * np.pi)
        s *= 2.0
    raise MellinDivergenceError("inversion tail did not converge")


def derivative_proxy(f: Cutoff, order: int = 6, n: int = 1000) -> float:
    """Max absolute finite-difference derivative of the given order on a grid.

    Smoothness proxy: stays bounded (per-function constant) for C-infinity
    cutoffs, blows up if a kink sneaks in.
    """
    if order < 1 or order > 8:
        raise ConfigError("derivative proxy supports orders 1..8")
    pad = 0.05 * (f.support_hi - f.support_lo)
    xs = np.linspace(f.support_lo - pad, f.support_hi + pad, n)
    vals = f.fn(xs)
    step = xs[1] - xs[0]
    return float(np.max(np.abs(np.diff(vals, n=order)))) / step**order
