"""Oscillatory integral oracle.

Evaluates integrals of the shape

    I = integral  A(x) * exp(i*Phi(x)) dx,
    Phi(x) = c_log * ln(x) - 2*pi*c_inv / x - 2*pi*c_lin * x,

with A a smooth compactly supported amplitude. The family covers the main
integral x^(-iT) e(-nT/(Nx)) V(x) (c_log = -T, c_inv = nT/N, c_lin = 0), its
additively shifted companions e(-r x/h) (c_lin = r/h), and the local zeta
integrand in z-coordinates (c_log = T + Im s, c_lin = T).

Method: the support is paneled so no panel spans more than half a local
oscillation, using the phase's own rate

    R(x) = max |Phi'(y)| over y in [x, hi]

(`_phase_rate`), with Phi' = c_log/y + 2*pi*c_inv/y^2 - 2*pi*c_lin a
quadratic in t = 1/y: R is the largest of its values at both ends of
[1/hi, 1/x] and at its vertex, when that lies inside, over every row's
signed c_lin and (for a batch of n) every c_inv. R never rises, and where
the phase is stationary it is the rate the phase reaches further right, not
the sum |c_log|/x + 2*pi*|c_inv|/x^2 + 2*pi*|c_lin| of terms that cancel
there. The panels come in runs of equal width (`util._panel_runs`): the
width min(cap, span / R(x)) at a run's left edge x holds for up to 64
panels, or fewer where R falls fast, and the last panel is cut at the
support's end. So no panel spans more than `span` radians of any row's
phase, and R is evaluated once per run. Each panel gets a 16-point
Gauss-Legendre rule with an embedded 8-point rule; the error estimate is 4x
the summed embedded difference (conservative), plus a roundoff floor. Panel
partial sums are reduced left to right with compensated summation, so
results are bit-reproducible. Both integrators run one loop, `_halve_spans`,
over rows that share the amplitude (`integrate_phase` is one row): a pass
grids for every row's c_lin, evaluates A once per node, and a row keeps the
first pass that meets its tolerance. The span per panel is halved from pi,
and the cap (hi - lo)/8 with it, so that each pass refines every panel of
the last, until every row has met its tolerance. The loop refuses once the
next grid would pass DEFAULT_EVAL_BUDGET evaluations, or once STALL_PASSES
passes in a row halve no live row's estimate (it sits on its rounding floor).

Shifted integrals come in batches only: the Poisson dual sum of a weighted
n-sum needs the rows sum_n c_n I(n, +-r/h) for many integers r >= 0 at
once, with I(n, beta) the integral at c_inv = nT/N and c_lin = beta.
`integrate_shifted` grids by the range of its n and of its signed r/h. A
pass runs in blocks of whole runs of panels (see `PanelGrid.reduce_rows`).
In a block the weighted factor sum_n c_n x^(i c_log) e(-nT/(Nx)) is one
row: each run of LATTICE_BLOCK consecutive n is one exact exponential times
its weights summed by Horner's rule in w = e(-(T/N)/x).
The shift phase factors: a node of a run is x = mid + half u_k, with the
run's half-width and the rule's nodes u_k, so e(-r x/h) = e(-r mid/h)
e(-r half u_k/h), one row per panel mid times a table of 24 nodes per run.
Both sit on the r lattice: an exact exponential heads each run of
LATTICE_BLOCK consecutive r, and a complex product fills in each further
row. So a block costs exponentials per panel and per run, not per node,
and one factor row whatever the number of n; each run's G16 and G8 sums
are one product of its factor rows with its node table, +r and -r columns
alternating (a -r column takes the conjugate tables). Each row keeps its
own compensated sum and embedded-rule estimate, in panel order. The mid
row scales both rules' sums alike, so the estimate |G16 - G8| cannot see
its rounding. So the mid row's phase is reduced before it rounds: mid/h is
a sum of two doubles (`util._divide`), and each run's head r mid/h is
formed exactly (Dekker's TwoProduct) and reduced mod 1, as is the step
mid/h (`util._lattice_turns`). A mid row then rounds by a few eps per
product, where an exponential of 2 pi r mid/h rounds by about eps 2 pi r
mid/h; on the wide panels of the tight rate that error passed the estimate
(row +70 of T = 100 at h = 0.5: 8.1e-15 against 5.9e-15).

`stationary_phase_main` is the leading term c_T T^(-1/2) V(x0) of the main
integral, within K_SP_MAIN T^(-3/2). A03 holds the quadrature oracle to it;
A01-shape holds its dressed form (keyident.lin_form_leading) to the sum side
A - O of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import Cutoff
from .errors import ConfigError, ToleranceUnreachableError
from .util import (BLOCK_ELEMENTS, GL8, GL16, LATTICE_BLOCK, TWO_PI, _PANEL_RUN, _divide,
                   _lattice_exp, _lattice_turns, _panel_runs, kahan_add, kahan_csum)

DEFAULT_EVAL_BUDGET = 10_000_000
DEFAULT_TOL = 1e-9
# `_halve_spans` refuses after this many passes in a row in which no live
# row's estimate fell below half its last: one such pass also comes before
# the estimates settle (at T = 100, n = 160, c_lin = -2 the passes read
# 2.34e-9, 2.25e-9, then 1.03e-13)
STALL_PASSES = 2

# a panel's 16 + 8 rule nodes on [-1, 1] and their weights, in node order
_NODES24 = np.concatenate([GL16[0], GL8[0]])
_WEIGHTS24 = np.concatenate([GL16[1], GL8[1]])

# |I - leading term| <= K_SP_MAIN * T^(-3/2) for the default test amplitude;
# calibrated at T = 250 (residual * T^(3/2) = 0.686) with a 4x cushion, frozen.
K_SP_MAIN = 2.8


def probe_amplitude() -> Cutoff:
    """Default amplitude for identity and asymptotics tests.

    A plain C-infinity bump supported on [1/2, 2]; its support contains the
    stationary point x0 = 2*pi*n/N ~ 1 of the standard instances.
    """
    from .cutoffs import _exp_bump  # same mollifier family as v0

    return _exp_bump(0.5, 2.0)


@dataclass(frozen=True)
class OscInstance:
    """One oscillatory integral: amplitude, frequency data, tolerances."""

    T: float
    n: int
    N: float
    amplitude: Cutoff = field(default_factory=probe_amplitude)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        # compared so that NaN and inf fail
        if not (0.0 <= self.T < np.inf and 0.0 < self.N < np.inf):
            raise ConfigError("need finite T >= 0 and N > 0")
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError("tol must be finite and positive")
        if self.amplitude.support_lo <= 0.0:
            raise ConfigError("amplitude support must sit inside (0, inf)")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    abs_err: float
    panels: int
    evaluations: int


@dataclass(frozen=True)
class ShiftedRows:
    """Weighted shifted integrals of one amplitude, one row per +-r/h.

    values[2j] is sum_n c_n I(n, +rs[j]/h) and values[2j + 1] the sum at
    -rs[j]/h; abs_errs likewise. evaluations counts the amplitude
    evaluations of every pass.
    """

    values: np.ndarray
    abs_errs: np.ndarray
    evaluations: int


class PanelGrid:
    """Oscillation-resolving panel grid with an embedded error rule.

    Holds the nodes of a fixed (amplitude-independent) paneling in runs of
    equal panels (`util._panel_runs`, stepped by the rate R(x) of every
    c_inv and c_lin given, each a number or an array), 24 a panel:
    its 16 GL16 nodes, then its 8 GL8 nodes, each mid + half u_k with the
    run's half-width. `reduce` turns integrand values at the nodes into a
    value and an error estimate, and `reduce_rows` does so for every row
    of a shifted batch, with the shift phase factored per run as the module
    docstring says. A panel is at most (hi - lo)/8 times span/pi wide; past
    max_panels panels (default DEFAULT_EVAL_BUDGET / 24) the grid refuses
    with ToleranceUnreachableError.
    """

    def __init__(self, lo: float, hi: float, c_log: float, c_inv, c_lin, span: float,
                 max_panels: int = DEFAULT_EVAL_BUDGET // 24):
        self.edges, sizes, widths = _panel_runs(
            lo, hi, (hi - lo) / 8.0 * (span / np.pi), span, _phase_rate(hi, c_log, c_inv, c_lin),
            max_panels)
        self.run_halfs = 0.5 * widths
        self.run_starts = np.concatenate([[0], np.cumsum(sizes)])
        self.panels = int(self.run_starts[-1])
        self.halfs = np.repeat(self.run_halfs, sizes)
        self.mids = self.edges[:-1] + self.halfs
        # a panel's row in its block's stack of runs, each padded to _PANEL_RUN rows
        run_of = np.repeat(np.arange(sizes.size), sizes)
        self.slots = run_of * _PANEL_RUN + np.arange(self.panels) - self.run_starts[run_of]
        self.nodes = (self.mids[:, None] + self.halfs[:, None] * _NODES24).ravel()

    @property
    def evaluations(self) -> int:
        return self.nodes.size

    def reduce(self, values: np.ndarray) -> tuple[complex, float]:
        """Integrate from integrand values sampled at `self.nodes`."""
        values = values.reshape(self.panels, 24)
        # elementwise products summed along each panel: a matrix-vector
        # product here would wake a second BLAS thread, which then spins
        s16 = np.sum(values[:, :16] * GL16[1], axis=1) * self.halfs
        s8 = np.sum(values[:, 16:] * GL8[1], axis=1) * self.halfs
        value = kahan_csum(s16)
        err = 4.0 * float(np.sum(np.abs(s16 - s8)))
        err += 4e-16 * float(np.sum(np.abs(s16)))
        return value, err

    def reduce_rows(self, amp_values: np.ndarray, inst: OscInstance, ns: np.ndarray,
                    cs: np.ndarray, rs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Integrate every row sum_n c_n I(n, +-r/h) of a shifted batch.

        amp_values holds A at `self.nodes`; the rows are those of the
        integers n of `ns` with the weights `cs` and the integers r of `rs`,
        ordered as in ShiftedRows. The panels run in blocks of whole runs,
        as many as keep 24 nodes a panel by the r of one chunk (up to
        LATTICE_BLOCK of them, see `_panel_sums`) within BLOCK_ELEMENTS,
        and at least one: 5 runs of 64 panels for the 8 r of a first shell,
        2 for 16 r, 1 from 22 r on. The block's products, mid rows and sums
        hold about ten numbers per panel and r, and the factor row and its
        Horner temporaries a few rows of 24 numbers a panel, whatever the
        number of n. Each row's panel sums are added in panel order,
        compensated, and its error estimate, as in `reduce`, sums the panels
        in the same order; a chunk's products have the same shape whatever
        the block size, so the block size leaves every bit alone.
        """
        s = np.zeros((2 * rs.size, 2))
        c = np.zeros_like(s)
        est = np.zeros((2, 2 * rs.size))  # sum |G16 - G8| and sum |G16| per row
        per_block = max(1, BLOCK_ELEMENTS // (24 * _PANEL_RUN * min(rs.size, LATTICE_BLOCK)))
        runs = self.run_starts.size - 1
        for q0 in range(0, runs, per_block):
            q1 = min(q0 + per_block, runs)
            s16, s8 = self._panel_sums(amp_values, q0, q1, inst, ns, cs, rs, h)
            m = s16.shape[0]
            s, c = kahan_add(s, c, s16.view(float).reshape((m,) + s.shape))
            terms = np.stack((np.abs(s16 - s8), np.abs(s16)), axis=1)
            est = np.concatenate([est[None], terms]).sum(axis=0)
        values = np.ascontiguousarray(s + c).view(complex)[..., 0]
        return values, 4.0 * est[0] + 4e-16 * est[1]

    def _panel_sums(self, amp_values, q0, q1, inst, ns, cs, rs, h):
        """G16 and G8 sums of the panels of runs q0..q1-1 for every row,
        as one (2, panels, rows) array (see the module docstring).

        For each chunk of LATTICE_BLOCK r, `_lattice_turns` gives the rows
        e(-r mid/h) on the panel mids, from mid/h as a sum of two doubles,
        and `_lattice_exp` the rows e(-r half u_k/h) on each run's 24 nodes.
        A run's rule sums are one product of its panels' factor rows,
        padded with zero rows to _PANEL_RUN, with its node table; the mid
        row then scales each panel's sums.
        """
        p0, p1 = self.run_starts[q0], self.run_starts[q1]
        m, runs = p1 - p0, q1 - q0
        x = self.nodes[24 * p0:24 * p1]
        n_lo = ns.min()
        # the head row's phase is formed as for a lone n, so it keeps its bits
        head = -inst.T * np.log(x) - TWO_PI * (n_lo * inst.T / inst.N) / x
        factor = _lattice_sum(head, -TWO_PI * (inst.T / inst.N) / x, ns - n_lo, cs)
        base = factor.reshape(m, 24) * (amp_values[24 * p0:24 * p1].reshape(m, 24) * _WEIGHTS24)
        slots = self.slots[p0:p1] - q0 * _PANEL_RUN
        padded = np.zeros((runs * _PANEL_RUN, 24), dtype=complex)
        padded[slots] = base
        padded = padded.reshape(runs, _PANEL_RUN, 24)
        q_hi, q_lo = _divide(self.mids[p0:p1], h)  # mid/h, in turns of e(-r mid/h)
        steps = -TWO_PI / h * (self.run_halfs[q0:q1, None] * _NODES24).ravel()
        out = np.empty((2, m, 2 * rs.size), dtype=complex)
        for i0 in range(0, rs.size, LATTICE_BLOCK):
            chunk = rs[i0:i0 + LATTICE_BLOCK]
            cols = slice(2 * i0, 2 * (i0 + chunk.size))
            mid = _lattice_turns(-q_hi, -q_lo, chunk).T * self.halfs[p0:p1, None]
            mid = np.stack((mid, mid.conj()), axis=-1).reshape(m, -1)
            table = _lattice_exp(np.zeros(steps.size), steps, chunk)
            table = table.reshape(chunk.size, runs, 24).transpose(1, 2, 0)
            table = np.stack((table, table.conj()), axis=-1).reshape(runs, 24, -1)
            for j, rule in enumerate((slice(0, 16), slice(16, 24))):
                sums = (padded[:, :, rule] @ table[:, rule]).reshape(runs * _PANEL_RUN, -1)
                out[j, :, cols] = sums[slots] * mid
        return out


def _lattice_sum(head: np.ndarray, step: np.ndarray, offsets: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] exp(i (head + offsets[j] step)) over integers offsets >= 0.

    Returns head's shape. The offsets fall into runs as in `_lattice_exp`:
    the smallest one not yet covered heads a run of LATTICE_BLOCK
    consecutive offsets with an exact np.exp, which multiplies the run's
    weights summed by Horner's rule in w = exp(i step); the runs are added
    in ascending order. Weights of a repeated offset are added together
    first. So no weight is more than LATTICE_BLOCK - 1 products from an
    exact exponential, a run costs one exponential, and the work holds a
    few rows whatever the number of offsets.
    """
    order = np.argsort(offsets, kind="stable")
    ks, ws = offsets[order], weights[order]
    total = w = None
    i = 0
    while i < ks.size:
        first = int(ks[i])
        j = int(np.searchsorted(ks, first + LATTICE_BLOCK))
        coef = np.zeros(int(ks[j - 1]) - first + 1, dtype=complex)
        np.add.at(coef, ks[i:j] - first, ws[i:j])
        poly = coef[-1]
        if coef.size > 1:
            if w is None:
                w = np.exp(1j * step)
            poly = poly * w
            for a in coef[-2:0:-1]:
                poly += a
                poly *= w
            poly += coef[0]
        run = np.exp(1j * (head + first * step) if first else 1j * head)
        run *= poly
        total = run if total is None else total + run
        i = j
    return total


def phase_values(x: np.ndarray, c_log: float, c_inv: float, c_lin: float) -> np.ndarray:
    """Phi(x) on an array of abscissas."""
    return c_log * np.log(x) - TWO_PI * c_inv / x - TWO_PI * c_lin * x


def _phase_rate(hi: float, c_log: float, c_inv, c_lin):
    """The phase rate R(x) = max |Phi'(y)| over y in [x, hi], as a function
    of x <= hi, for every c_inv from min to max of `c_inv` and every c_lin
    from min to max of `c_lin` (each a number or an array).

    In t = 1/y, Phi' = 2 pi c_inv t^2 + c_log t - 2 pi c_lin; over those
    ranges it lies between the quadratics up (largest c_inv, smallest
    c_lin) and down (smallest c_inv, largest c_lin). So R(x) is the largest
    of up and -down at t = 1/hi and t = 1/x, and at the vertex of a concave
    up or a convex down once [1/hi, 1/x] holds it. R never rises. A
    non-finite coefficient makes every R NaN (`util._finite_rate` refuses it).
    """
    c_up, c_dn = (TWO_PI * float(f(c_inv)) for f in (np.max, np.min))
    b_up, b_dn = (-TWO_PI * float(f(c_lin)) for f in (np.min, np.max))
    a = float(c_log)
    poison = 0.0 * (a + c_up + c_dn + b_up + b_dn)  # NaN unless all are finite

    def both(t):
        return max((c_up * t + a) * t + b_up, -((c_dn * t + a) * t + b_dn))

    base = both(1.0 / hi) + poison
    # vertices at t = -a / (2 c): a maximum of up where c_up < 0, a minimum
    # of down where c_dn > 0; each counts for x <= its abscissa -2 c / a
    peaks = [(-2.0 * c / a, sign * (b - a * a / (4.0 * c)))
             for c, b, sign, ok in ((c_up, b_up, 1.0, c_up < 0.0), (c_dn, b_dn, -1.0, c_dn > 0.0))
             if ok and a * c < 0.0 and -2.0 * c / a <= hi]

    def rate(x):
        r = max(base, both(1.0 / x))
        for at, peak in peaks:
            if x <= at:
                r = max(r, peak)
        return r

    return rate


def _halve_spans(amplitude: Cutoff, c_log: float, c_inv, c_lins: np.ndarray,
                 tol: np.ndarray, reduce):
    """The span-halving loop of the module docstring; row j has the linear
    phase c_lins[j] and the tolerance tol[j], and c_inv is one value or
    the range of a batch's n.

    reduce(grid, amp_values, live) turns A at grid.nodes into the value and
    error estimate of each live row. A NaN estimate stays live. Each pass
    grids for every row's c_lin, not only the live rows', so that it
    refines every panel of the last for every row, within the evaluations
    left of DEFAULT_EVAL_BUDGET. The loop refuses, naming the worst live
    estimate, once the next grid does not fit in them, or once
    STALL_PASSES passes in a row leave no live row's estimate below half
    of its last (a NaN estimate has not fallen): the estimates then sit on
    their rounding floor, and finer grids would spend the budget without
    meeting the tolerance. Returns (values, errs, evaluations, panels of
    the last grid).
    """
    values = np.zeros(tol.size, dtype=complex)
    errs = np.full(tol.size, np.inf)
    live = np.ones(tol.size, dtype=bool)
    span, evals_used, stalls = np.pi, 0, 0
    while True:
        try:
            grid = PanelGrid(amplitude.support_lo, amplitude.support_hi, c_log, c_inv,
                             c_lins, span, (DEFAULT_EVAL_BUDGET - evals_used) // 24)
        except ToleranceUnreachableError:
            if not evals_used:
                raise ToleranceUnreachableError(
                    "evaluation budget too small for one pass") from None
            raise _refusal(f"budget {DEFAULT_EVAL_BUDGET} exhausted", errs[live]) from None
        evals_used += grid.evaluations
        last = errs.copy()
        values[live], errs[live] = reduce(grid, amplitude.fn(grid.nodes), live)
        live = ~(errs <= tol)  # a NaN estimate stays live
        if not live.any():
            return values, errs, evals_used, grid.panels
        # NaN has not fallen
        stalls = 0 if np.any(errs[live] < 0.5 * last[live]) else stalls + 1
        if stalls == STALL_PASSES:
            raise _refusal(f"no live estimate halved in {STALL_PASSES} passes, "
                           "refinement exhausted", errs[live])
        span *= 0.5


def _refusal(reason: str, live_errs: np.ndarray) -> ToleranceUnreachableError:
    achieved = float(live_errs.max())
    return ToleranceUnreachableError(f"{reason}; achieved {achieved:.3e}", achieved=achieved)


def integrate_phase(amplitude: Cutoff, c_log: float, c_inv: float, c_lin: float,
                    tol: float = DEFAULT_TOL) -> QuadResult:
    """Adaptive driver for the generic amplitude/phase family, over the
    amplitude's support, within DEFAULT_EVAL_BUDGET evaluations."""
    if not (0.0 < amplitude.support_lo < amplitude.support_hi):
        raise ConfigError("integration range must sit inside (0, inf)")
    values, errs, evaluations, panels = _halve_spans(
        amplitude, c_log, c_inv, np.array([c_lin]), np.array([tol]),
        lambda grid, amp, live: grid.reduce(
            amp * np.exp(1j * phase_values(grid.nodes, c_log, c_inv, c_lin))))
    return QuadResult(value=complex(values[0]), abs_err=float(errs[0]), panels=panels,
                      evaluations=evaluations)


def integrate_main(inst: OscInstance) -> QuadResult:
    """The main integral: integral x^(-iT) e(-nT/(Nx)) V(x) dx (beta = 0)."""
    return integrate_phase(inst.amplitude, -inst.T, inst.n * inst.T / inst.N, 0.0,
                           tol=inst.tol)


def integrate_shifted(inst: OscInstance, rs, h: float, tol=None, ns=None,
                      cs=None) -> ShiftedRows:
    """The weighted shifted integrals with the extra linear phase e(-r x/h).

    A ShiftedRows batch of the rows sum_n c_n I(n, +-r/h) for the integers
    r >= 0 of `rs`, the step h > 0, and the integers n of `ns` with the
    complex weights `cs` (default inst.n alone, weight 1). `tol` is one
    tolerance per r, or one for all (default inst.tol), and every row must
    meet its own. The rows share each pass of `_halve_spans`, with phases
    built on the n and r lattices (see PanelGrid.reduce_rows).
    """
    tol = inst.tol if tol is None else tol
    rs = np.asarray(rs)
    ns = np.asarray([inst.n] if ns is None else ns)
    cs = np.ones(ns.shape, dtype=complex) if cs is None else np.asarray(cs, dtype=complex)
    if rs.dtype.kind != "i" or ns.dtype.kind != "i" or cs.shape != ns.shape:
        raise ConfigError("rs and ns must be integers, as the phase tables step "
                          "along them, and cs must hold one weight per n")

    def reduce(grid, amp_values, live):
        live_r = live.reshape(-1, 2).any(axis=1)
        vals, est = grid.reduce_rows(amp_values, inst, ns, cs, rs[live_r], h)
        fresh = live[np.repeat(live_r, 2)]
        return vals[fresh], est[fresh]

    values, errs, evaluations, _ = _halve_spans(
        inst.amplitude, -inst.T, ns * inst.T / inst.N, np.outer(rs / h, [1.0, -1.0]).ravel(),
        np.repeat(np.broadcast_to(np.asarray(tol, dtype=float), rs.shape), 2), reduce)
    return ShiftedRows(values=values, abs_errs=errs, evaluations=evaluations)


def stationary_phase_main(inst: OscInstance) -> tuple[complex, float]:
    """Leading stationary-phase term of the main integral with error envelope.

    The phase -T ln(x) - 2*pi*nT/(Nx) is stationary at x0 = 2*pi*n/N with
    second derivative -T/x0^2, giving the leading term

        c_T * T^(-1/2) * V(x0),
        c_T = sqrt(2*pi) * exp(-i*pi/4) * e(-T/(2*pi)) * x0^(1 - iT).

    Returns (0, envelope) when x0 is not strictly inside the support; the
    envelope K_SP_MAIN * T^(-3/2) is the calibrated next-order bound.
    """
    envelope = K_SP_MAIN * inst.T ** -1.5
    x0 = TWO_PI * inst.n / inst.N
    if not (inst.amplitude.support_lo < x0 < inst.amplitude.support_hi):
        return 0.0 + 0.0j, envelope
    c_t = (np.sqrt(TWO_PI) * np.exp(-0.25j * np.pi)
           * np.exp(-1j * inst.T)  # e(-T/(2*pi))
           * x0 * np.exp(-1j * inst.T * np.log(x0)))
    return complex(c_t * inst.T ** -0.5 * inst.amplitude(x0)), envelope

