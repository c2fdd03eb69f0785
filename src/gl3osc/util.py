"""Small numeric utilities shared across modules.

Summation and reduction order are fixed and compensated so every result is
bit-reproducible run to run; nothing here depends on scheduling.
`_panel_runs` builds the edges of every integral paneled by its phase rate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (ConfigError, InsufficientGridError, TailNotConvergedError,
                     ToleranceUnreachableError)

TWO_PI = 2.0 * np.pi
# 1/(2 pi) as a sum of two doubles (50 digits, mpmath); ln 2 as fdlibm's
# sum of a 32-bit head, whose products with exponents are exact, and a tail
INV_TWO_PI = (0.15915494309189535, -9.839338337591243e-18)
_LN2 = (6.93147180369123816490e-01, 1.90821492927058770002e-10)

#: (nodes, weights) on [-1, 1] of the 16-point Gauss-Legendre rule every
#: quadrature uses, and of the 8-point rule embedded for error estimates.
GL16, GL8 = (np.polynomial.legendre.leggauss(k) for k in (16, 8))

# the largest temporary of one block of a batched table, in complex
# elements (1 MB, about a core's L2 cache): the shifted batches, the
# windowed sum, the integral route's n-sum and the Mellin lines split by it
BLOCK_ELEMENTS = 1 << 16

# longest run of consecutive lattice offsets one exact exponential heads; a
# phase table's products of exp(i step) never chain further than this
LATTICE_BLOCK = 64

# panels of one run (`_panel_runs`), which share a width, and the share of
# a falling rate a run may lose to its left edge's width
_PANEL_RUN = 64
_RUN_DROP = 1.0 / 8.0

# the largest m*k*n of a complex GEMM that OpenBLAS 0.3.31 runs on the
# calling thread: from 2^16 multiply-adds on it starts a second thread,
# which then spins for the rest of the process (measured by its CPU ticks
# around a loop of one shape: 15x17x257 stays on one, 16x16x256 starts it)
_ONE_THREAD_GEMM = (1 << 16) - 1


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, with every BLAS call on the calling thread: the one product
    of the package.

    a's rows (its axis -2; a stacked a or b runs one GEMM per matrix) go in
    slices of as many rows as keep m*k*n within _ONE_THREAD_GEMM, each
    written into one preallocated output, and a product within it is one
    call. No slice is a lone row unless a is one: numpy takes one row as a
    matrix-vector product, which rounds otherwise, so a lone last row is
    taken with the row before it, recomputed. A GEMM's rows do not share
    arithmetic, so the slices give a @ b bit for bit.
    """
    m, (k, n) = a.shape[-2], b.shape[-2:]
    rows = max(2, _ONE_THREAD_GEMM // (k * n))
    if m <= rows:
        return np.matmul(a, b)
    b = b.astype(np.result_type(a, b), copy=False)  # a real b cast once, not per slice
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n), dtype=b.dtype)
    for i in range(0, m, rows):
        i = min(i, m - 2)
        np.matmul(a[..., i:i + rows, :], b, out=out[..., i:i + rows, :])
    return out


def _lattice_exp(head: np.ndarray, step: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """exp(i (head + k step)) for each integer k >= 0 of `offsets`.

    Returns shape (offsets.size,) + head.shape; step broadcasts against
    head. The rows are a geometric sequence: the smallest wanted offset not
    yet covered heads a run of LATTICE_BLOCK consecutive offsets with an
    exact np.exp, and the run's other wanted rows are reached by products
    with exp(i step). So no row is more than LATTICE_BLOCK - 1 products from
    an exact exponential, a lone offset costs one exponential and gets
    np.exp's bits, and no set of offsets costs more exponentials than it has
    rows.
    """
    return _lattice_chain(
        offsets, np.shape(head),
        lambda k, out: np.exp(1j * (head + k * step) if k else 1j * head, out=out),
        lambda: np.exp(1j * step))


def _lattice_turns(q_hi: np.ndarray, q_lo: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """exp(2 pi i k q) for each integer k >= 0 of `offsets`, q = q_hi + q_lo.

    The rows of `_lattice_exp` for a phase given in turns, as a sum of two
    doubles with |q_lo| <= ulp(q_hi): each run's head k q and the step q are
    reduced mod 1 before their exponentials, k q_hi formed exactly by
    `_two_product`. So a row's phase rounds by a few eps whatever k q is,
    where an exponential of 2 pi k q would round by about eps 2 pi k |q|.
    """
    def turns(k):
        p, e = _two_product(float(k), q_hi)
        return (p - np.rint(p)) + (e + k * q_lo)

    return _lattice_chain(offsets, np.shape(q_hi),
                          lambda k, out: np.exp(1j * TWO_PI * turns(k), out=out),
                          lambda: np.exp(1j * TWO_PI * turns(1)))


def _lattice_chain(offsets, shape, head, step):
    """The table of `_lattice_exp` and `_lattice_turns`: head(k, out) writes
    the exact row of offset k into out, step() gives the ratio of
    consecutive rows. The product that reaches a row is written into it
    from the row before, with no temporary; numpy rounds a product written
    onto one of its own operands differently for a row of one element, so
    the products that cross a gap chain through temporaries."""
    out = np.empty((offsets.size,) + shape, dtype=complex)
    w = prev = first = at = None
    for i in np.argsort(offsets, kind="stable"):
        k = int(offsets[i])
        row = out[i, ...]
        if first is None or k - first >= LATTICE_BLOCK:
            first = at = k
            head(k, row)
        elif k == at:
            row[...] = out[prev]
        else:
            if w is None:
                w = step()
            cur = out[prev]
            for _ in range(k - at - 1):  # a gap: its rows are not kept
                cur = cur * w
            np.multiply(cur, w, out=row)
            at = k
        prev = i
    return out


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


@functools.cache
def _log_table() -> tuple[np.ndarray, np.ndarray]:
    """ln(c_j) as sums of two doubles for the table points c_j = 1/2 +
    j/128, j = 0..64, from `decimal`'s correctly rounded ln at 40 digits
    (imported here, by the first bounded integral, not with the package)."""
    import decimal

    context = decimal.Context(prec=40)
    exact = [context.ln(decimal.Decimal(0.5 + j / 128.0)) for j in range(65)]
    hi = [float(v) for v in exact]
    lo = [float(context.subtract(v, decimal.Decimal(h))) for v, h in zip(exact, hi)]
    return np.array(hi), np.array(lo)


def _log_dd(x):
    """(hi, lo) with hi + lo = ln x, x > 0, to about eps/16 absolute (for
    x within 2^(+-1000)): ln x = e ln 2 + ln c_j + log1p((m - c_j)/c_j),
    x = m 2^e with m in [1/2, 1), c_j the nearest table point
    (`_log_table`), so that |(m - c_j)/c_j| <= 1/128, m - c_j is exact and
    only log1p's few ulp of a number below 1/128 round."""
    m, e = np.frexp(x)
    j = np.rint((m - 0.5) * 128.0).astype(int)
    c = 0.5 + j / 128.0
    table_hi, table_lo = _log_table()
    hi, hi_err = _two_sum(e * _LN2[0], table_hi[j])
    return hi, hi_err + (e * _LN2[1] + table_lo[j] + np.log1p((m - c) / c))


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly, barring over- and
    underflow: Dekker's TwoProduct on Veltkamp's split of each factor."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _divide(a, b):
    """(q, r) with q = fl(a / b) and q + r = a / b to about eps^2 |q|:
    a - q b is exact, from `_two_product` (Dekker's division)."""
    q = a / b
    p, e = _two_product(q, b)
    return q, ((a - p) - e) / b


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def kahan_add(s, c, block):
    """Add block[0], block[1], ... in that order to compensated sums (s, c).

    s and c have the shape of one block row (zeros to start); returns the
    new (s, c), and each sum is s + c. Every column follows Neumaier's scalar
    loop bit for bit: np.add.accumulate adds strictly left to right, and the
    correction gains the exact rounding error of each step (TwoSum), which
    is what Neumaier's branch on |s| >= |v| computes.
    """
    block = np.asarray(block, dtype=float)
    run = np.add.accumulate(np.concatenate([np.asarray(s, dtype=float)[None], block]), axis=0)
    prev, t = run[:-1], run[1:]
    z = t - prev
    err = (prev - (t - z)) + (block - z)
    c = np.add.accumulate(np.concatenate([np.asarray(c, dtype=float)[None], err]), axis=0)[-1]
    return run[-1], c


def kahan_sum(values) -> float:
    """Compensated sum of real values in the given order.

    Neumaier's variant: the correction survives even when a later term
    swamps the running sum, unlike the classic update.
    """
    s, c = kahan_add(0.0, 0.0, np.asarray(values, dtype=float).ravel())
    return float(s + c)


def kahan_csum(values):
    """Compensated sum of complex values in the given order; a 2-D input
    gives an array of each row's sum, bit for bit the row's own, in one pass."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2:
        return complex(kahan_sum(arr.real), kahan_sum(arr.imag))
    out, zero = np.empty(arr.shape[0], dtype=complex), np.zeros(arr.shape[0])
    out.real, out.imag = (np.add(*kahan_add(zero, zero, part.T)) for part in (arr.real, arr.imag))
    return out


def gl_panels(edges, nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule: (nodes, weights) mapped onto each panel between edges.

    Returns flat abscissas x and weights w, panel by panel, so that
    sum(w * f(x)) approximates the integral of f from edges[0] to edges[-1].
    """
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    x = (mids[:, None] + halfs[:, None] * nodes[None, :]).ravel()
    w = (halfs[:, None] * weights[None, :]).ravel()
    return x, w


def _panel_runs(lo, hi, cap, span, rate, max_panels: int, quantum: float = 0.0):
    """Panel edges from lo to hi in runs of equal panels: the edge builder
    of every integral paneled by its phase rate.

    rate(x) does not rise (oscquad's phase rate R only falls), so on any
    interval it peaks at the left end. It is called at lo and at each run's
    right end, whose value serves the next run as its left-edge rate r. A
    run's panels take the width min(cap, span / r), so none covers more
    than `span` radians of phase. A rate-bound run holds for up to
    _PANEL_RUN panels, but not so far that the secant from the last run
    lets a falling convex rate drop by more than _RUN_DROP of r; a
    rate-bound first run, which has no secant, is one panel. The last
    panel is cut at hi and is a run of its own. Returns (edges, panels per
    run, width per run); raises ConfigError on a non-finite rate, and
    ToleranceUnreachableError once more than max_panels panels are needed.

    The loop runs in plain floats, which round as numpy's float64 does, and
    forms a run's edges x + w k, k = 1..count, in one vectorized pass at
    the end, with the two roundings of one run's x + w * arange.
    """
    lo, hi, cap, span = float(lo), float(hi), float(cap), float(span)
    # each run as (start x, width w, count), its edges x + w k; the panel
    # cut at hi is (hi, 0, 1)
    runs, widths = [], []
    x, panels, last = lo, 0, None
    r = _finite_rate(rate, lo)
    while x < hi:
        # min(cap, span / r), compared so that a zero rate takes the cap
        if r * cap <= span:
            w, run = cap, _PANEL_RUN
        else:
            w, run = span / r, 1 if last is None else _PANEL_RUN
            if quantum:
                w = max(quantum, math.floor(w / quantum) * quantum)
            if last is not None and last[1] > r:
                # convexity: rate(x + L) >= r - L (last rate - r) / (x - last x)
                reach = _RUN_DROP * r * (x - last[0]) / (last[1] - r)
                run = int(min(_PANEL_RUN, max(1.0, reach // w)))
        last = (x, r)
        r = _finite_rate(rate, min(x + w * run, hi))
        k = run  # the edges x + w k below hi; they never fall as k grows
        while k and not x + w * k < hi:
            k -= 1
        if k:
            runs.append((x, w, k))
            widths.append(w)
            x = x + w * k
        if k < run:
            runs.append((hi, 0.0, 1))
            widths.append(hi - x)
            x = hi
        panels += k + (k < run)
        if panels > max_panels:
            raise ToleranceUnreachableError("panel budget exhausted while gridding")
    starts, steps, sizes = (np.array(col) for col in zip(*runs)) if runs else (
        np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
    k = np.arange(1.0, panels + 1.0) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    edges = np.concatenate([[lo], np.repeat(starts, sizes) + np.repeat(steps, sizes) * k])
    return edges, sizes, np.array(widths, dtype=float)


def _finite_rate(rate, x: float) -> float:
    r = rate(x)
    if not abs(r) < np.inf:
        raise ConfigError(f"phase rate at {x!r} must be finite, not {r}")
    return r


def _line_shells(shell, start: float, tol: float, top: float, label: str) -> np.ndarray:
    """Shell-doubled integrals along a vertical line, one per point.

    shell(lo, hi) returns each point's integral over both half-lines
    lo < |t| <= hi (the caller assigns a node on an edge), or a row of
    figures per point (the trapezoid's value and its half-grid
    difference); shell(0, start) is the first segment |t| <= start. The
    sum starts with shell(0, start) and adds one shell(lo, 2 lo) for each
    lo = start, 2 start, ..., so a caller serves a doubling's two sides in
    one pass. Each point's total is frozen after its first added shell
    whose figures are all below tol / 2; a point still live once the
    height passes `top` raises TailNotConvergedError, whose message starts
    with `label`, the caller's name for its integral. A tol of 0 keeps
    every point live up to `top`; a negative, infinite or NaN tol raises
    ConfigError, as NaN would freeze every point at once.
    """
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"{label} tolerance must be finite and >= 0, not {tol}")
    total = shell(0.0, start)
    live = np.ones(len(total), dtype=bool)
    lo = start
    while True:
        hi = 2.0 * lo
        added = shell(lo, hi)
        total[live] += added[live]
        live &= np.abs(added).reshape(len(added), -1).max(axis=1) >= tol / 2.0
        if not live.any():
            return total
        if hi > top:
            worst = float(np.max(np.abs(added[live])))
            raise TailNotConvergedError(f"{label} tail still {worst:.3e} at height {hi:.0f}")
        lo = hi


def loglog_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of log(y) against log(x).

    Used for all decay-rate fits; requires strictly positive points at 3 or
    more distinct x, so a slope estimate is meaningful. The fit is closed
    form, with u = log x and v = log y centred on their means:
    slope = sum du dv / sum du^2, each sum a correctly rounded `math.fsum`,
    and intercept = mean v - slope mean u. So no LAPACK call takes part,
    and the result does not depend on the BLAS build.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(set(xs.tolist())) < 3:
        raise InsufficientGridError("slope fit needs at least 3 distinct grid points")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise InsufficientGridError("slope fit needs strictly positive data")
    u, v = np.log(xs), np.log(ys)
    u_mean, v_mean = math.fsum(u) / u.size, math.fsum(v) / v.size
    du = u - u_mean
    slope = math.fsum(du * (v - v_mean)) / math.fsum(du * du)
    return slope, v_mean - slope * u_mean


def primes_in(lo: float, hi: float) -> list[int]:
    """Primes p with lo <= p <= hi, ascending. Plain sieve; desk scale."""
    if hi < 2.0 or hi < lo:
        return []
    limit = int(np.floor(hi))
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    start = max(2, int(np.ceil(lo)))
    return [p for p in range(start, limit + 1) if sieve[p]]


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    q = 2
    while q * q <= m:
        if m % q == 0:
            return False
        q += 1
    return True
