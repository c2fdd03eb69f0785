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

g's normalization is GL16 on uniform panels, checked against the same rule
on half as many. The Mellin transform is taken on vertical lines
(`mellin_on_line`, a trapezoid rule in log y) and inverted from one
(`mellin_invert`) by the trapezoid rule in t that the kernel contour shares
(`_line_trapezoid`). Both rules meet their frequencies in one lattice
product (`_lattice_sums`) and stop on their own half-grid estimates. The
cutoffs are real, so H(c - it) = conj H(c + it): a Mellin line evaluates
each distinct |t| once, and each doubling of the inversion's shells takes
its two sides in one Mellin-line call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, MellinDivergenceError, ToleranceUnreachableError
from .util import (BLOCK_ELEMENTS, GL16, TWO_PI, _lattice_exp, _line_shells, _matmul, gl_panels,
                   kahan_csum)

ONE_OVER_8PI = 1.0 / (8.0 * np.pi)
ONE_OVER_4PI = 1.0 / (4.0 * np.pi)
ONE_OVER_2PI = 1.0 / (2.0 * np.pi)

# g's normalization integral g d*y: GL16 on _G_NORM_PANELS uniform panels,
# refused unless the rule on half as many agrees within _G_NORM_TOL; the
# bump-gnorm check then holds integral g d*y = 1 to its own budget of 1e-10
_G_NORM_PANELS = 64
_G_NORM_TOL = 1e-12

# mellin_invert: the line Re(s) = INVERT_RE_LINE it integrates on, the
# half-height of its first segment |t| <= INVERT_IM_START before it starts
# doubling, and the shell contribution INVERT_TOL / 2 that stops each point
# (A08's line and tolerance)
INVERT_RE_LINE = 1.0
INVERT_IM_START = 64.0
INVERT_TOL = 1e-9

# mellin_on_line: the fewest trapezoid nodes, the band beyond max|t| that
# the n/2 rule must still resolve, the n/2 estimate's target relative to
# sum |base|, and the most nodes before a line is refused
LINE_MIN_NODES = 64
LINE_MARGIN = 1024.0
LINE_REL_TOL = 1e-13
LINE_MAX_NODES = 1 << 20

# _line_trapezoid: the band its half grid resolves beyond the phase rate
LINE_RATE_MARGIN = 4.0


# `_rise_bound`'s cuts of the ramp's (0, 1): 2^-k and 1 - 2^-k, k = 1..16,
# between the ends
_RAMP_SPLITS = np.concatenate([[-np.inf], 2.0 ** -np.arange(16.0, 0.0, -1.0),
                               1.0 - 2.0 ** -np.arange(2.0, 17.0), [np.inf]])


def _scalar_or_array(x, out):
    arr = np.asarray(out)
    if np.isscalar(x) or (hasattr(x, "ndim") and getattr(x, "ndim", 1) == 0):
        return float(arr)
    return arr


@dataclass(frozen=True)
class Cutoff:
    """A smooth cutoff fn, exactly zero outside [support_lo, support_hi].

    `jet`, when set, gives the Taylor coefficients in closed form:
    jet(y, k)[i] = fn^(i)(y) / i! for i = 0..k, an array of shape
    (k + 1,) + y.shape that is zero outside the open support. The exp-bump
    family (v0, g and the probe amplitude) carries one; the Poisson dual
    sum bounds its tail with it (see `keyident`).

    `bound`, when set, bounds fn off the real line in closed form:
    bound(lo, hi, b) >= |fn(z)| on the closed rectangle lo <= Re z <= hi,
    |Im z| <= b, with fn analytic on it, and for b = 0 on the segment
    [lo, hi]; arrays broadcast. It is inf where b > 0 and [lo, hi] does
    not lie inside the open support, whose ends are essential
    singularities of a bump, or reaches across a break. A rectangle holds
    the Bernstein ellipse of the same extents, so `oscquad` bounds a
    panel's Gauss error by it. The exp-bump family, `whittaker`'s power
    amplitudes and the discretized route's amplitude (`sums._v_cutoff`)
    carry one, and `oscquad` then integrates them on GL16 alone with a
    proved error bound. Shifted batches, and so the dual sums of
    `keyident`, take only such an amplitude; a main integral of one
    without a bound (the integral route's, in `sums`) keeps the
    GL16 - GL8 estimate.

    `breaks`, ascending and inside the open support, are the points where
    fn is smooth but not analytic, as where a plateau meets a ramp: fn on
    each side is the restriction of a different analytic function. With
    a bound, `oscquad` grades its panels toward each break from both
    sides, as toward a support end.
    """

    support_lo: float
    support_hi: float
    fn: Callable = field(repr=False, compare=False)
    jet: Callable | None = field(default=None, repr=False, compare=False)
    bound: Callable | None = field(default=None, repr=False, compare=False)
    breaks: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if not (self.support_lo < self.support_hi):
            raise ConfigError("cutoff support must be a nonempty interval")
        points = (self.support_lo, *self.breaks, self.support_hi)
        if not all(a < b for a, b in zip(points[:-1], points[1:])):
            raise ConfigError("cutoff breaks must ascend inside the support")

    def __call__(self, y):
        vals = self.fn(np.asarray(y, dtype=float))
        return _scalar_or_array(y, vals)


def _exp_bump_fn(lo: float, hi: float) -> Callable:
    """exp(-1/(1-u^2)) with u the affine map of [lo, hi] onto [-1, 1]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fn(y):
        # t = 1 - u^2 in place in a copy of y (-inf past |u| = 1e154); fmax
        # sends t <= 0 and NaN to +0, so -1/t = -inf and exp gives 0 there
        t = np.array(y, dtype=float)
        t -= mid
        t /= half
        with np.errstate(over="ignore", divide="ignore"):
            t *= t
            np.subtract(1.0, t, out=t)
            np.divide(-1.0, np.fmax(t, 0.0, out=t), out=t)
        return np.exp(t, out=t)

    return fn


def _exp_bump_jet(lo: float, hi: float) -> Callable:
    """Taylor coefficients of `_exp_bump_fn(lo, hi)`, as `Cutoff.jet`.

    With a = hi - y and b = y - lo, the bump is exp(E) with
    E = -(half/2) (1/a + 1/b), so E's coefficients are
    E_i = -(half/2) (a^-(i+1) + (-1)^i b^-(i+1)) in closed form, and those
    of exp(E) follow from (exp E)' = E' exp E:
    f_0 = exp(E_0), f_j = (1/j) sum_(i=1..j) i E_i f_(j-i). Against mpmath
    the relative error stays below 1e-13 (1 + |E_0|) to order 8, from 1e-3
    of an edge inward; |E_0| eps is the error of exp(E_0) itself.
    """
    half = 0.5 * (hi - lo)

    def jet(y, k: int):
        y = np.asarray(y, dtype=float)
        out = np.zeros((k + 1,) + y.shape)
        inside = (y > lo) & (y < hi)
        order = np.arange(1.0, k + 2.0)[:, None]
        a, b = hi - y[inside], y[inside] - lo
        e = -0.5 * half * (a ** -order + (-1.0) ** (order + 1.0) * b ** -order)
        f = np.empty_like(e)
        f[0] = np.exp(e[0])
        for j in range(1, k + 1):
            f[j] = np.sum(order[:j] * e[1:j + 1] * f[j - 1::-1], axis=0) / j
        out[:, inside] = f
        return out

    return jet


def _exp_bump_bound(lo: float, hi: float) -> Callable:
    """`Cutoff.bound` of `_exp_bump_fn(lo, hi)`.

    With u = p + iq the affine image of z, |exp(-1/(1 - u^2))| =
    exp(-Re 1/(1 - u^2)), and Re 1/(1 - u^2) has the sign of
    1 - p^2 + q^2. So on a rectangle whose real extent lies inside the
    support (|p| < 1) the bump is analytic and at most 1, whatever its
    height. On a segment it peaks at the point nearest the support's
    centre, where it is taken.
    """
    fn, mid = _exp_bump_fn(lo, hi), 0.5 * (lo + hi)

    def bound(x0, x1, b):
        b = np.asarray(b, dtype=float)
        if not b.any():  # b = 0 throughout: segments
            return fn(np.clip(mid, x0, x1))
        inside = np.where((np.asarray(x0) > lo) & (np.asarray(x1) < hi), 1.0, np.inf)
        return inside if b.all() else np.where(b > 0.0, inside, fn(np.clip(mid, x0, x1)))

    return bound


@functools.lru_cache(maxsize=64)
def _exp_bump(lo: float, hi: float) -> Cutoff:
    """The exp bump on [lo, hi] with its jet and its bound, one Cutoff per
    support (it is immutable), so that what `oscquad` derives from it
    alone is derived once."""
    return Cutoff(support_lo=lo, support_hi=hi, fn=_exp_bump_fn(lo, hi),
                  jet=_exp_bump_jet(lo, hi), bound=_exp_bump_bound(lo, hi))


def v0_cutoff(c1: float = 1.0) -> Cutoff:
    """The basic bump on [1/(8*pi), (1+c1)/(2*pi)]."""
    # compared so that NaN and inf fail
    if not 0.0 < c1 < np.inf:
        raise ConfigError("c1 must be finite and positive")
    return _exp_bump(ONE_OVER_8PI, (1.0 + c1) * ONE_OVER_2PI)


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


def _rise_bound(t0, t1, beta):
    """A bound of |1 - s(t)| on the t-rectangle [t0, t1] x [-beta, beta],
    s the ramp `_smoothstep_down`; inf unless 0 < t0 <= t1 < 1.

    1 - s(t) = 1/(1 + e^w) with w = 1/t - 1/(1 - t), analytic off t = 0
    and t = 1, which are essential singularities. The rectangle is cut at
    _RAMP_SPLITS, which halve the distance to either end, and each piece
    [p0, p1] is bounded on its own: with t = p + iq, Re 1/t = p/(p^2 + q^2)
    lies between its least at |q| = beta, taken at an end of [p0, p1], and
    1/p; so for 1/(1 - t). That bounds Re w from below (low) and above
    (high), and |Im w| <= beta (1/p0^2 + 1/(1 - p1)^2). Where
    |Im w| <= pi/2, Re e^w >= 0 and |1 + e^w| >= 1; where low > 0,
    |1 + e^w| >= e^low - 1; where high < 0, >= 1 - e^high. The least of
    these that applies bounds |1 - s| on the piece, and 1 + e^w has no
    zero there; the rectangle takes its pieces' largest. Near t = 0, low ~
    1/p1 and the bound decays like e^(-1/p1), as the ramp does on the
    real line; a piece shorter than its distance to an end keeps it finite
    whatever the length of the rectangle.
    """
    t0, t1, beta = (np.asarray(v, dtype=float)[..., None] for v in (t0, t1, beta))
    # the pieces that some rectangle meets: the others are empty for all
    seen = np.isfinite(t0) & np.isfinite(t1)
    cuts = _RAMP_SPLITS
    if seen.any():
        cuts = cuts[max(0, int(np.searchsorted(cuts, t0[seen].min(), "right")) - 1):
                    int(np.searchsorted(cuts, t1[seen].max())) + 1]
    p0 = np.maximum(t0, cuts[:-1])
    p1 = np.minimum(t1, cuts[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u0, u1, bb = 1.0 - p1, 1.0 - p0, beta * beta
        low = np.minimum(p0 / (p0 * p0 + bb), p1 / (p1 * p1 + bb)) - 1.0 / u0
        high = 1.0 / p0 - np.minimum(u0 / (u0 * u0 + bb), u1 / (u1 * u1 + bb))
        out = np.where(beta * (1.0 / (p0 * p0) + 1.0 / (u0 * u0)) <= 0.5 * np.pi, 1.0, np.inf)
        out = np.where(low > 0.0, np.minimum(out, 1.0 / np.expm1(low)), out)
        out = np.where(high < 0.0, np.minimum(out, -1.0 / np.expm1(high)), out)
    out = np.where(p0 <= p1, out, 0.0).max(axis=-1)
    return np.where((t0[..., 0] > 0.0) & (t1[..., 0] < 1.0), out, np.inf)


def _window_bound(fn: Callable, te: float, tk: float) -> Callable:
    """`Cutoff.bound` of the h1 window fn = h(y/tk) - h(y te) with a
    plateau, 2/te < tk.

    The window rises on (1/te, 2/te) as 1 - s(y te - 1), is 1 on the
    plateau [2/te, tk], and falls on (tk, 2 tk) as s(y/tk - 1) =
    1 - s(2 - y/tk), s the ramp (s(t) + s(1 - t) = 1). A rectangle inside
    the plateau gets 1 (fn's continuation there is 1), one inside a ramp
    `_rise_bound` of its image, and any other inf: the plateau's ends are
    breaks, the support's ends essential singularities. On a segment the
    window, which rises to its plateau and then falls, peaks at the point
    nearest 2/te.
    """
    def bound(y0, y1, b):
        y0, y1, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y0, y1, b)))
        if not b.any():  # segments
            return fn(np.clip(2.0 / te, y0, y1))
        out = np.where((y0 >= 2.0 / te) & (y1 <= tk), 1.0, np.inf)  # the plateau
        # each ramp where some rectangle reaches it
        if np.any(y0 < 2.0 / te):
            out = np.minimum(out, _rise_bound(y0 * te - 1.0, y1 * te - 1.0, b * te))
        if np.any(y1 > tk):
            out = np.minimum(out, _rise_bound(2.0 - y1 / tk, 2.0 - y0 / tk, b / tk))
        return out if b.all() else np.where(b > 0.0, out, fn(np.clip(2.0 / te, y0, y1)))

    return bound


def _reciprocal_bound(bound: Callable, scale: float) -> Callable:
    """The `Cutoff.bound` of z -> f(scale / z), scale > 0, from f's.

    On lo <= Re z <= hi, |Im z| <= b with 0 < b <= lo, w = scale/z has
    |Im w| <= scale b/lo^2 and Re w between scale hi/(hi^2 + b^2) and
    scale/lo (x/(x^2 + y^2) is least at |y| = b, where it falls in
    x >= b), so f's bound on that rectangle serves; with b > lo, inf. On a
    segment it is f's bound on [scale/hi, scale/lo].
    """
    def composed(x0, x1, b):
        x0, x1, b = (np.asarray(v, dtype=float) for v in (x0, x1, b))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = bound(scale / (x1 + b * b / x1), scale / x0, scale * b / (x0 * x0))
        return np.where(b <= x0, out, np.inf)

    return composed


def h_cutoff() -> Cutoff:
    """Even plateau cutoff: 1 on [-1,1], 0 outside (-2,2), C-infinity ramps."""
    def fn(y):
        return _smoothstep_down(np.abs(np.asarray(y, dtype=float)) - 1.0)

    return Cutoff(support_lo=-2.0, support_hi=2.0, fn=fn)


def _check_window_params(T: float, kappa: float, eps: float):
    # compared so that NaN and inf fail
    if not 1.0 < T < np.inf:
        raise ConfigError("window cutoffs need a finite T > 1")
    if not 0.0 <= eps < kappa < np.inf:
        raise ConfigError("window cutoffs need 0 <= eps < kappa < inf")


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
    """h(y*T^-kappa) - h(y*T^eps): window supported on [T^-eps, 2*T^kappa].

    Where its ramps do not overlap (2 T^-eps < T^kappa) it is 1 on the
    plateau between them, whose ends are its breaks, and it carries a
    bound (`_window_bound`); where they overlap it carries neither. Below
    the plateau the difference 1 - h(y T^eps) rounds to 0 once h does to
    1 (y T^eps - 1 below about 1/37); there the window takes the ramp's
    complement s(2 - y T^eps) = 1 - s(y T^eps - 1) directly, so that it is
    positive on its whole open support (to underflow) and a segment's sup
    is not read as 0. Every value the difference leaves nonzero keeps its
    bits.
    """
    _check_window_params(T, kappa, eps)
    h = h_cutoff()
    te, tk = T**eps, T**kappa

    def fn(y):
        y = np.asarray(y, dtype=float)
        out = np.where(y > 0.0, h.fn(y / tk) - h.fn(y * te), 0.0)
        tail = (out == 0.0) & (y * te > 1.0) & (y * te < 2.0) & (y <= tk)
        if tail.any():
            out[tail] = _smoothstep_down(2.0 - y[tail] * te)
        return out

    if not 2.0 / te < tk:
        return Cutoff(support_lo=T**-eps, support_hi=2.0 * tk, fn=fn)
    return Cutoff(support_lo=T**-eps, support_hi=2.0 * tk, fn=fn,
                  bound=_window_bound(fn, te, tk), breaks=(2.0 / te, tk))


_G_CACHE = {}


def g_cutoff() -> Cutoff:
    """Positive bump on [1/(4*pi), 1/(2*pi)] with integral g(y) dy/y = 1."""
    if "g" not in _G_CACHE:
        raw = _exp_bump_fn(ONE_OVER_4PI, ONE_OVER_2PI)
        masses = []
        for n in (_G_NORM_PANELS // 2, _G_NORM_PANELS):
            y, w = gl_panels(np.linspace(ONE_OVER_4PI, ONE_OVER_2PI, n + 1), *GL16)
            masses.append(float(np.sum(w * raw(y) / y)))
        coarse, norm = masses
        if not np.isfinite(norm) or norm <= 0.0 or abs(norm - coarse) > _G_NORM_TOL:
            raise ConfigError("g normalization quadrature failed")
        raw_jet = _exp_bump_jet(ONE_OVER_4PI, ONE_OVER_2PI)
        raw_bound = _exp_bump_bound(ONE_OVER_4PI, ONE_OVER_2PI)
        _G_CACHE["g"] = Cutoff(
            support_lo=ONE_OVER_4PI, support_hi=ONE_OVER_2PI,
            fn=lambda y, _r=raw, _n=norm: _r(y) / _n,
            jet=lambda y, k, _j=raw_jet, _n=norm: _j(y, k) / _n,
            bound=lambda x0, x1, b, _b=raw_bound, _n=norm: _b(x0, x1, b) / _n,
        )
    return _G_CACHE["g"]


def weight_w0_w(z):
    """The weight pair (w0(z), w(z)) on [1, 2], for the c1 = 1 bump v0.

    w0(z) = v0(1/(2*pi)) * g(1/(2*pi*z)) / v0(1/(2*pi*z)) and w(z) = w0(z)/z.
    The division is safe: wherever g's argument is inside its support,
    v0's argument lies in [1/(4*pi), 1/(2*pi)], strictly inside v0's support.
    """
    v0 = v0_cutoff()
    g = g_cutoff()
    vstar = v0(ONE_OVER_2PI)
    z_arr = np.asarray(z, dtype=float)
    w0 = np.zeros_like(z_arr)
    # g(1/(2*pi*z)) > 0 needs 1 < z < 2; dividing only near there keeps a
    # tiny z from overflowing the quotient or the bump's affine map
    near = (z_arr > 0.5) & (z_arr < 4.0)
    arg = np.zeros_like(z_arr)
    arg[near] = ONE_OVER_2PI / z_arr[near]
    gv = g.fn(arg)
    live = near & (gv > 0.0)
    w0[live] = vstar * gv[live] / v0.fn(arg[live])
    w = np.zeros_like(z_arr)
    w[live] = w0[live] / z_arr[live]
    return _scalar_or_array(z, w0), _scalar_or_array(z, w)


def _lattice_sums(u0: float, h: float, base: np.ndarray, freqs: np.ndarray,
                  add: Callable) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd): sum_k base_k e^(i f u_k), u_k = u0 + k h, over the even
    and the odd k, for each frequency f of freqs: both line rules' product.

    exp(i f u_(jB+m)) = exp(i f u_jB) exp(i f m h) on blocks of B ~ sqrt(n)
    nodes, both tables `_lattice_exp` products on j <= n/B and m < B: 4
    exponentials a frequency at n = 1,024 (1.6e-15 relative at worst
    against mpmath). B is even, so `add` reduces k's parity columns to row
    sums. The frequencies go in equal chunks of about BLOCK_ELEMENTS table
    elements (a core's L2 cache), none of one frequency unless freqs is:
    numpy takes one row as a matrix-vector product, which rounds otherwise.
    Each chunk's product is `util._matmul`'s, in row slices that OpenBLAS
    keeps on the calling thread (up to 1542 x 33 @ 33 x 32 on the kernel
    table's line, which would start a second one), with a @ b's bits.
    """
    n = base.size - 1
    blk = max(2, 1 << (n.bit_length() // 2))  # even, about sqrt(n)
    rows = n // blk + 1  # zeros past k = n pad the last block
    base = np.concatenate([base, np.zeros(rows * blk - base.size)]).reshape(rows, blk)
    step = max(2, BLOCK_ELEMENTS // max(rows, blk))
    parts = []
    for t in np.array_split(freqs, max(1, min(-(-freqs.size // step), freqs.size // 2))):
        # exp(i f u_jB) on the row lattice j, then exp(i f m h) on m < blk;
        # neither table outlives its product
        terms = _matmul(_lattice_exp(t * u0, t * (blk * h), np.arange(rows)).T, base)
        terms *= _lattice_exp(np.zeros_like(t), t * h, np.arange(blk)).T
        parts.append((add(terms[:, ::2]), add(terms[:, 1::2])))
    return tuple(np.concatenate(p) for p in zip(*parts))


def mellin_on_line(f: Cutoff, re_line: float, ts) -> np.ndarray:
    """Vectorized H(re_line + i*t) for an array of ordinates t.

    The trapezoid rule on the uniform log grid u_k = log lo + k*h, k = 0..n,
    h = span / n: H = sum_k w_k f(e^u_k) e^(re_line u_k) e^(i t u_k), one
    `_lattice_sums` product. For a smooth f that vanishes at both ends of
    its support its only error is aliasing (Trefethen & Weideman, SIAM
    Review 2014). n is a power of two, at least LINE_MIN_NODES, with
    n pi / span >= max|t| + LINE_MARGIN, so the n/2 rule still resolves
    every ordinate. n doubles until the *estimate* max_t |T_n - T_(n/2)|,
    pessimistic for T_n but no bound, is at most LINE_REL_TOL * sum |base|;
    past LINE_MAX_NODES nodes ToleranceUnreachableError is raised, with the
    estimate as `achieved`. A cutoff with a kink is refused that way.

    A real base gives H(c - it) = conj H(c + it), so when at least two
    distinct |t| remain the product takes each distinct |t| once, ascending,
    and a t < 0 takes the conjugate, as 0 - Im so that an Im that cancels
    to +0 stays +0: the bits of the sum over the signed ordinates, whose
    terms are the exact conjugates. A complex base (a complex-valued f) and
    a lone distinct |t|, which numpy would take as a matrix-vector product
    and round apart, take the ordinates as given.
    """
    ts = np.asarray(ts, dtype=float)
    if not (math.isfinite(re_line) and np.all(np.isfinite(ts))):
        raise ConfigError("the Mellin line needs a finite re_line and finite ordinates")
    lo = max(f.support_lo, 0.0)
    if lo <= 0.0:
        raise MellinDivergenceError("line sampling needs support away from 0")
    ulo = math.log(lo)
    span = math.log(f.support_hi) - ulo
    flat = ts.ravel()
    mags = np.abs(flat)
    tmax = float(np.max(mags)) if flat.size else 0.0
    # the distinct |t| ascending, as np.unique would give them without
    # loading numpy.ma, and the slot of each t among them
    order = np.argsort(mags, kind="stable")
    first = np.diff(mags[order], prepend=-1.0) > 0.0
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    distinct = mags[order][first]
    n = LINE_MIN_NODES
    while n * math.pi < (tmax + LINE_MARGIN) * span and n <= LINE_MAX_NODES:
        n *= 2
    est = math.inf
    while n <= LINE_MAX_NODES:
        h = span / n
        u = ulo + h * np.arange(n + 1)
        w = np.full(n + 1, h)
        w[0] = w[n] = 0.5 * h
        base = f.fn(np.exp(u)) * np.exp(re_line * u) * w
        mass = float(np.sum(np.abs(base)))
        # H(c - it) = conj H(c + it) for a real base; a lone row would round
        # apart (see `_lattice_sums`)
        fold = distinct.size > 1 and not np.iscomplexobj(base)
        even, odd = _lattice_sums(ulo, h, base, distinct if fold else flat,
                                  lambda a: a.sum(axis=1))
        # T_n = even + odd, and the n/2 rule is T_(n/2) = 2 * even
        est = float(np.max(np.abs(odd - even))) if flat.size else 0.0
        if est <= LINE_REL_TOL * mass:
            values = even + odd
            if fold:
                values = values[slot]
                np.subtract(0.0, values.imag, out=values.imag, where=flat < 0.0)
            return values.reshape(ts.shape)
        n *= 2
    raise ToleranceUnreachableError(
        f"Mellin line estimate {est:.3e} still above {LINE_REL_TOL:g} of its "
        f"mass at {LINE_MAX_NODES} nodes", achieved=est)


def _line_trapezoid(base: Callable, phis, scales, rate: float, tol: float, start: float,
                    top: float, label: str, add: Callable) -> tuple[np.ndarray, np.ndarray]:
    """(values, estimates): (scale / 2 pi) sum_j dt base(t_j) e^(i t_j phi)
    on the lattice t_j = j dt, for each phi of the rows of phis with its
    scale: the trapezoid rule of the kernel contour and of the inversion.

    The shells double on `_line_shells` from the nodes -start < t_j <= start;
    the shell of each doubling takes the nodes lo < t_j <= hi and
    -hi < t_j <= -lo, and calls base once on both sides, so a base that
    folds +-t (`mellin_on_line`) evaluates each |t| once. Each row of phis
    meets each side's nodes in one `_lattice_sums` product (a row of one
    keeps a lone point's bits), and a shell adds the positive side's
    figures to the negative side's: T_dt = dt (even + odd) by the parity of
    j, and the half-grid rule T_2dt = 2 dt even. A point's signed
    dt (odd - even) sums with its value, and either keeps it live. dt
    starts at pi / (rate + LINE_RATE_MARGIN), so the half grid resolves
    phase rates up to `rate`, and halves until each estimate
    |T_dt - T_2dt| is at most tol/2; a lattice of more than LINE_MAX_NODES
    nodes over |t| <= top is refused with ToleranceUnreachableError.
    """
    dt = math.pi / (rate + LINE_RATE_MARGIN)

    def shell(lo: float, hi: float) -> np.ndarray:
        # the nodes of -hi < t <= hi, or of lo < t <= hi and -hi < t <= -lo,
        # with one base call for both sides
        sides = [(-hi, hi)] if lo == 0.0 else [(lo, hi), (-hi, -lo)]
        js = [np.arange(math.floor(a / dt) + 1.0, math.floor(b / dt) + 1.0) for a, b in sides]
        weighted = np.split(base(np.concatenate(js) * dt) * dt, [js[0].size])
        rows = []
        for j, w in zip(js, weighted):
            sums = [_lattice_sums(float(j[0] * dt), dt, w, np.asarray(row), add) for row in phis]
            even, odd = (np.concatenate(p).tolist() for p in zip(*sums))
            if j[0] % 2.0:
                even, odd = odd, even
            # Python complexes: numpy's array / scalar multiplies by the
            # reciprocal, and its one-element products round differently
            rows.append(np.array([[(e + o) * x / TWO_PI, (o - e) * x / TWO_PI]
                                  for e, o, x in zip(even, odd, scales)]))
        # started at rows[0], not at 0, which would turn a -0.0 into +0.0
        return sum(rows[1:], rows[0])

    while True:
        total = _line_shells(shell, start, tol, top, label)
        est = np.abs(total[:, 1])
        if np.all(est <= tol / 2.0):
            return total[:, 0], est
        if 4.0 * top / dt > LINE_MAX_NODES:
            raise ToleranceUnreachableError(f"{label} half-grid estimate {est.max():.3e} "
                                            f"above tol/2 at step {dt:.3g}", achieved=est.max())
        dt /= 2.0


def mellin_invert(f: Cutoff, y) -> complex | np.ndarray:
    """Reconstruct f at every point of y from its Mellin transform H on
    the line Re(s) = c = INVERT_RE_LINE: (1/2 pi) int H(c + it) y^-(c + it) dt.

    One `_line_trapezoid` call: base = H(c + it), one `mellin_on_line` call
    a shell (each doubling's two sides in one, every |t| evaluated once),
    and each point its own row phi = -log y with the scale y^-c.
    The shells double from |t| <= INVERT_IM_START; a point still adding
    INVERT_TOL / 2 after eight doublings raises TailNotConvergedError. The
    phase rate of H(c + it) y^-it is at most |log y| plus the largest |u| on
    f's log-support, which the margin covers for a support inside
    [e^-4, e^4]. The step takes the batch's largest max(|log y|, 1), so
    points with |log y| <= 1 (A08's) keep each lone point's lattice and
    bits. A scalar y gives a complex, an array an array of its shape.
    """
    ys = np.asarray(y, dtype=float)
    flat = ys.ravel()
    if np.any(~((flat > 0.0) & (flat < np.inf))):
        raise ConfigError("inversion point must be positive and finite")
    points = flat.tolist()
    values, _ = _line_trapezoid(
        lambda t: mellin_on_line(f, INVERT_RE_LINE, t), [[-math.log(v)] for v in points],
        [v**-INVERT_RE_LINE for v in points], max([1.0] + [abs(math.log(v)) for v in points]),
        INVERT_TOL, INVERT_IM_START, INVERT_IM_START * 2**7, "inversion", kahan_csum)
    return complex(values[0]) if ys.ndim == 0 else values.reshape(ys.shape)
