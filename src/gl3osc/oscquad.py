"""Oscillatory integral oracle.

Evaluates integrals of the shape

    I = integral  A(x) * exp(i*Phi(x)) dx,
    Phi(x) = c_log * ln(x) - 2*pi*c_inv / x - 2*pi*c_lin * x,

with A a smooth compactly supported amplitude. The family covers the main
integral x^(-iT) e(-nT/(Nx)) V(x) (c_log = -T, c_inv = nT/N, c_lin = 0), its
additively shifted companions e(-r x/h) (c_lin = r/h), and the local zeta
integrand in z-coordinates (c_log = T + Im s, c_lin = T).

Panels: the support is paneled by the phase's own rate

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
phase, and R is evaluated once per run. Panel partial sums are reduced left
to right with compensated summation, so results are bit-reproducible. Which
path a call takes is the amplitude's own data, `Cutoff.bound`, as `jet`
chooses the dual sum's tail: `integrate_phase` takes the bounded path for
an amplitude with a bound and the estimate path for one without, and
`integrate_shifted` takes the bounded path only.

The bounded path (an amplitude with `Cutoff.bound`: the exp bumps probe,
v0 and g, `whittaker`'s power amplitudes and the discretized route's V,
`sums._v_cutoff`) makes one pass of 16 GL16 nodes a panel and returns a
proved error, before which no amplitude value is needed (`_one_pass`):
- The Gauss error. By Trefethen's Thm 19.3 (Approximation Theory and
  Approximation Practice, SIAM 2013), if f is analytic with |f| <= M on
  the Bernstein ellipse E_rho of a panel of half-width w, then
  |I - G16| <= (64/15) w M rho^-32 / (rho^2 - 1). M is closed form
  (`_log_majorants`): `Cutoff.bound` on the rectangle that holds E_rho
  (inf once it reaches a support end, a bump's ends being essential
  singularities, or reaches across a break), times
  exp(b R + min(b^2 K/2, b^3 K3/6)) for
  |e^(i Phi)| (Phi is real on the real line; K and K3 bound Phi'' and
  Phi''' there), with b the ellipse's height. Each run of panels takes
  the best rho of _RHOS (`_ellipse_bounds`).
- Graded ends (`_graded_runs`). Each end loses a strip whose trivial
  bound (width times sup |A|) is at most _STRIP_SHARE of the budget;
  from there one-panel runs grow geometrically, each as wide as its
  distance to the end, so that an ellipse of rho < 5.8 stays off the
  end, until they reach the width of the middle. Every edge is a
  multiple of a power-of-two quantum, so that the panels tile exactly.
  An amplitude's breaks (`Cutoff.breaks`: points where it is smooth but
  not analytic, as V's x_J = Y T^eps / 2, where its window leaves its
  plateau) cut the support into pieces, each graded as a support is:
  the panels grade toward a break from both sides, and the strip on each
  side of it, where A is O(1), is left out with its trivial bound. An
  amplitude without breaks is one piece.
- Widths from the bound. The middle panels' rate adds _CURVE sqrt(K) to
  R (`_curved_rate`), so that near a stationary point, where R is small,
  the curvature term stays small too. The first grid has span
  BOUND_SPAN = 7 pi; a grid whose summed bound (strips included) misses
  tol/2 is rebuilt at _SPAN_RETRY of its span before any amplitude
  evaluation, so a call evaluates A once.
- Rounding (`PanelGrid.rounding`). Each panel's phase at its mid is
  formed in turns and reduced mod 1 before it rounds (`_phase_turns`:
  `util._log_dd`'s ln, Dekker's division and product), and the increment
  to each node is a few turns at most (`PanelGrid.phases`). So a phase
  rounds by a few eps, not by eps |Phi| (about 3e-12 at T = 4000 in
  the local zeta integral, whose estimate sat on that floor). The a priori
  term, eps times a stated constant per unit of sum_k w_k |A_k| and of
  the phase increments, coefficients and lattice chains, is known from
  the grid and sup |A| per panel; a tolerance whose half it passes is
  refused before A is evaluated, with the term as `achieved`.
The bound and the rounding term each get half of the tolerance.

The estimate path (`_halve_spans`) serves one integral of an amplitude
without a bound: today the integral route's amplitude in `sums`, a sum over
n of bumps v0(n/(Nx)) with two non-analytic points each. It gives each
panel a 16-point Gauss-Legendre rule with an embedded 8-point rule; the
error estimate is 4x the summed embedded difference (conservative), plus a
roundoff floor 4e-16 sum |G16|. A pass evaluates A once per node. The span
per panel is halved from pi, and the cap (hi - lo)/8 with it, so that each
pass refines every panel of the last, until the estimate meets the
tolerance. The loop refuses once the next grid would pass
DEFAULT_EVAL_BUDGET evaluations, or once STALL_PASSES passes in a row do
not halve the estimate (it sits on its rounding floor).

Shifted integrals come in batches only: the Poisson dual sum of a weighted
n-sum needs the rows sum_n c_n I(n, +-r/h) for many integers r >= 0 at
once, with I(n, beta) the integral at c_inv = nT/N and c_lin = beta, and a
pair loop of `keyident` needs them for several steps h at once, one per
prime pair. So each r of a batch has its own step (a scalar h serves them
all). `integrate_shifted` grids by the range of its n and of every row's
signed r/h, its inputs checked first, and makes the bounded path's one
pass in blocks of whole runs of panels (see `PanelGrid.reduce_rows`). In a
block the weighted factor sum_n c_n x^(i c_log) e(-nT/(Nx)) is one row for
every r and step: each run of LATTICE_BLOCK consecutive n is one exact
exponential times its weights summed by Horner's rule in w = e(-(T/N)/x).
The shift phase factors: a node of a run is x = mid + half u_k, with the
run's half-width and the rule's nodes u_k, so e(-r x/h) = e(-r mid/h)
e(-r half u_k/h), one row per panel mid times a table of the rule's nodes
per run. Both sit on the r lattice of one step: an exact exponential heads
each run of LATTICE_BLOCK consecutive r that share a step, and a complex
product fills in each further row. So a block costs exponentials per panel
and per run, not per node, and one factor row whatever the number of n and
of steps; each run's sums are one product of its factor rows with its node
table, +r and -r columns alternating (a -r column takes the conjugate
tables). Each row keeps its own compensated sum, in panel order, and its
error is the grid's bound plus its own a priori rounding term. For that
term to hold, the mid row's phase is reduced before it rounds: mid/h is a
sum of two doubles (`util._divide`), and each run's head r mid/h is formed
exactly (Dekker's TwoProduct) and reduced mod 1, as is the step mid/h
(`util._lattice_turns`). A mid row then rounds by a few eps per product,
where an exponential of 2 pi r mid/h rounds by about eps 2 pi r mid/h.

`stationary_phase_main` is the leading term c_T T^(-1/2) V(x0) of the main
integral, within K_SP_MAIN T^(-3/2). A03 holds the quadrature oracle to it;
A01-shape holds its dressed form (keyident.lin_form_leading) to the sum side
A - O of the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cutoffs import Cutoff
from .errors import ConfigError, ToleranceUnreachableError
from .util import (BLOCK_ELEMENTS, GL8, GL16, INV_TWO_PI, LATTICE_BLOCK, TWO_PI, _PANEL_RUN,
                   _divide, _finite_rate, _lattice_exp, _lattice_turns, _log_dd, _matmul,
                   _panel_runs, _two_product, kahan_add, kahan_csum)

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

# the bounded path (an amplitude with `Cutoff.bound`, see the module
# docstring): the span of its first grid, and the share of it that each
# grid rebuilt for a missed bound keeps; the Bernstein parameters rho that
# each panel's bound tries, with the log of Trefethen's factor
# 64/15 rho^-32 / (rho^2 - 1); a graded panel's width as a share of its
# distance to the support's end or a break (an ellipse of rho < 3 + sqrt(8)
# then stays off it); the share of the discretization budget that each
# strip may take, and the strip widths tried, as shares of a piece down to
# 2^-40 (a break's strip, where A is O(1), needs the narrow ones); and the
# weight of the curvature sqrt(|Phi''|) in the panel width
BOUND_SPAN = 7.0 * np.pi
_SPAN_RETRY = 2.0 / 3.0
_RHOS = np.array([1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 11.0, 16.0])
_LOG_GAUSS = np.log(64.0 / 15.0) - 32.0 * np.log(_RHOS) - np.log(_RHOS**2 - 1.0)
_SEMI_A, _SEMI_B = 0.5 * (_RHOS + 1.0 / _RHOS), 0.5 * (_RHOS - 1.0 / _RHOS)
_GRADE = 1.0
_STRIP_SHARE = 0.125
_STRIP_STEPS = 2.0 ** -np.arange(2.0, 41.0, 0.5)
_CURVE = 2.0
# the a priori rounding term (see `PanelGrid.rounding`), in units of eps:
# per node, per unit of |c_log|, per radian of 2 pi |c_inv|/x as a caller
# formed it or of a batch's spread of c_inv, and per radian of a panel's
# phase increments
_ROUND_NODE = 64.0
_ROUND_LOG = 1.0 / 16.0
_ROUND_COEF = 1.0
_ROUND_SPREAD = 5.0
_ROUND_STEP = 8.0
_EPS = float(np.finfo(float).eps)

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

    values[2j] is sum_n c_n I(n, +rs[j]/h_j) and values[2j + 1] the sum at
    -rs[j]/h_j, h_j the step of rs[j]; abs_errs likewise, each a proved
    bound. evaluations counts the amplitude evaluations of the one pass.
    """

    values: np.ndarray
    abs_errs: np.ndarray
    evaluations: int


class PanelGrid:
    """Oscillation-resolving panel grid, with an embedded error estimate or
    a proved error bound.

    Holds the nodes of a fixed paneling in runs of equal panels, each node
    mid + half u_k with the run's half-width. Given an `amplitude` with a
    bound and a `target`, the grid is the bounded path's (`_graded_runs`):
    16 GL16 nodes a panel, graded panels toward each support end and each
    side of a break, past a strip there whose trivial bound is below
    _STRIP_SHARE of target, and widths held by the phase's rate and
    curvature; the grid then has no `edges`, as the strips at a break
    leave a gap. `disc` is the closed-form bound on the discretization
    error per unit weight (`_ellipse_bounds` summed, plus every strip), set
    before any amplitude evaluation, and `rounding` the a priori rounding
    term. `reduce` turns integrand values at the nodes into a value and
    their sum as its error, and `reduce_rows` does so for every row of a
    shifted batch, times sum |c_n|, with the shift phase factored per run
    as the module docstring says.

    Otherwise (the estimate path's one integral) the runs are
    `util._panel_runs`' (stepped by the rate R(x) of every c_inv and c_lin
    given, each a number or an array), 24 nodes a panel: its 16 GL16 nodes, then its 8 GL8 nodes, and `reduce`
    returns the value and the embedded-rule estimate. A panel is at most
    (hi - lo)/8 times span/pi wide; past max_panels panels (default
    DEFAULT_EVAL_BUDGET / 24) either grid refuses with
    ToleranceUnreachableError.
    """

    def __init__(self, lo: float, hi: float, c_log: float, c_inv, c_lin, span: float,
                 max_panels: int = DEFAULT_EVAL_BUDGET // 24, amplitude: Cutoff | None = None,
                 target: float = 0.0):
        quad = _quadratics(c_log, c_inv, c_lin)
        rate = _rate_from(hi, quad)
        cap = (hi - lo) / 8.0 * (span / np.pi)
        self.bounded = amplitude is not None and amplitude.bound is not None
        if self.bounded:
            self.rule, self.weights = GL16
            lefts, sizes, widths, strips = _graded_runs(
                amplitude, _curved_rate(rate, quad), span, cap, _STRIP_SHARE * target, max_panels)
        else:
            self.rule, self.weights = _NODES24, _WEIGHTS24
            self.edges, sizes, widths = _panel_runs(lo, hi, cap, span, rate, max_panels)
            lefts = self.edges[:-1]
        self.k = self.rule.size
        self.run_sizes = sizes
        self.run_halfs = 0.5 * widths
        self.run_starts = np.concatenate([[0], np.cumsum(sizes)])
        self.panels = int(self.run_starts[-1])
        self.halfs = np.repeat(self.run_halfs, sizes)
        self.mids = lefts + self.halfs
        self.nodes = (self.mids[:, None] + self.halfs[:, None] * self.rule).ravel()
        if self.bounded:
            self._bound(amplitude, quad, strips)

    def _bound(self, amplitude, quad, strips):
        """Set `disc` and the sums behind `rounding` (see its docstring)."""
        first, last = self.mids[self.run_starts[:-1]], self.mids[self.run_starts[1:] - 1]
        self.disc = strips + float((self.run_sizes * _ellipse_bounds(
            amplitude.bound, first, last, self.run_halfs, quad)).sum())
        x0 = self.mids - self.halfs
        mass = 2.0 * self.halfs * amplitude.bound(x0, self.mids + self.halfs, 0.0)
        log, inv = abs(quad.a), quad.c_abs / x0
        near_one = _ROUND_NODE + _ROUND_LOG * log + _ROUND_STEP * self.halfs * (log + inv) / x0
        spread = (quad.c_up - quad.c_dn) / x0
        self._round = (float((mass * (near_one + _ROUND_COEF * inv)).sum()),
                       float((mass * (near_one + _ROUND_SPREAD * spread)).sum()),
                       float(mass.sum()), TWO_PI * float((mass * self.halfs).sum()))
        self.c_lin_abs = quad.b_abs / TWO_PI

    def rounding(self, c_lin, chains=None):
        """The a priori rounding term of a bounded grid, per unit weight, for
        the linear phase c_lin (a number or an array): known before any
        amplitude evaluation, from the grid and sup |A| on each panel.

        A panel's phases are its mid's, reduced, plus the increment to each
        node (`phases`). With w_k = half weight_k, sum_k w_k |A_k| <= 2 half
        sup |A| per panel, and each node's term errs by at most eps |A_k|
        times

            _ROUND_NODE + _ROUND_LOG |c_log| + _ROUND_COEF 2 pi |c_inv|/x
            + _ROUND_STEP half Q,   Q = |c_log|/x + 2 pi |c_inv|/x^2
            + 2 pi |c_lin|,

        x the panel's left end; the panels tile each piece with no gap
        (see `_graded_piece`). _ROUND_NODE holds what stays near one, about
        40 eps on the direct path and 55 eps on a batch's: the mid turns'
        reduction and sums (2.5 eps a turn, 2 pi times that a radian), the
        exponential, the amplitude (a few eps of sup |A|, its slope times
        eps x included), the products with weight, factor, mid row and
        half, the heads of the lattice chains, and the 16-term sums
        (8 eps sqrt 2). _ROUND_LOG is `util._log_dd`'s eps/16.
        _ROUND_COEF covers c_inv as its caller formed it, n T/N with up to
        two roundings (`integrate_main`). Q half bounds the sizes of the
        increment's three terms, each formed to a few ulp, and of the phase
        that the node offset's rounding moves, eps half |Phi'|.

        `chains` is (L_n, L_r, h) on a shifted batch's form (`_panel_sums`),
        L_n and L_r the longest chain of products from an exact exponential
        over the n and over the r (at most LATTICE_BLOCK - 1), L_r and h
        per row, as c_lin is (`_chains`). There c_lin
        leaves Q, as e(-r mid/h) is formed exactly and reduced, and the
        head's c_inv = n T/N is formed exactly, so _ROUND_COEF gives way to
        _ROUND_SPREAD 2 pi (max - min c_inv)/x for the Horner runs' heads
        and steps (2.5 eps and 2 eps a radian). A product of unit complex
        numbers errs by sqrt 5 eps/2, and the ratio exp(i theta) by
        eps (1 + 1.5 |theta|), so a chain of L products by at most
        eps L (2.2 + 2 theta): for the Horner sum over n (3 L_n with its
        sums, its theta in the spread term), the mid row (2.2 L_r, theta
        at most pi, reduced), and the node table e(-r half u_k/h) (theta
        = 2 pi half/h, and its head's phase at most 2 pi |c_lin| half,
        rounded by 2 eps a radian).
        """
        direct, batch, mass, spread = self._round
        if chains is None:
            return _EPS * (direct + _ROUND_STEP * np.abs(c_lin) * spread)
        l_n, l_r, h = chains
        return _EPS * (batch + (3.0 * l_n + (2.2 + 2.2 + TWO_PI) * l_r) * mass
                       + (2.0 * l_r / h + 2.0 * np.abs(c_lin)) * spread)

    def phases(self, c_log: float, c_inv: float, c_lin: float, p0: int = 0, p1=None,
               c_inv_lo: float = 0.0):
        """Phi at the nodes of panels p0..p1-1, flat. On an estimate grid
        these are `phase_values`; on a bounded grid each panel's mid phase
        in turns, reduced mod 1 (`_phase_turns`), plus the increment to each
        node mid + d, d = half u_k as formed: c_log/(2 pi) log1p(d/mid) +
        c_inv d/(mid x) - c_lin d, a few turns at most, so that the phase
        at mid + d rounds by a few eps, not by eps |Phi|; c_inv + c_inv_lo
        is c_inv as a sum of two doubles."""
        p1 = self.panels if p1 is None else p1
        x = self.nodes[self.k * p0:self.k * p1]
        if not self.bounded:
            return phase_values(x, c_log, c_inv, c_lin)
        mid, half = self.mids[p0:p1, None], self.halfs[p0:p1, None]
        ratio = (half / mid) * self.rule  # d/mid
        turns = (INV_TWO_PI[0] * c_log) * np.log1p(ratio)
        if c_inv:
            turns += (c_inv * ratio) / x.reshape(ratio.shape)
        if c_lin:
            turns -= (c_lin * half) * self.rule
        turns += _phase_turns(mid, c_log, c_inv, c_lin, c_inv_lo)
        return TWO_PI * turns.ravel()

    @property
    def evaluations(self) -> int:
        return self.nodes.size

    def reduce(self, values: np.ndarray) -> tuple[complex, float]:
        """Integrate from integrand values sampled at `self.nodes`."""
        values = values.reshape(self.panels, self.k)
        # elementwise products summed along each panel: a matrix-vector
        # product here would wake a second BLAS thread, which then spins
        s16 = np.sum(values[:, :16] * GL16[1], axis=1) * self.halfs
        value = kahan_csum(s16)
        if self.bounded:
            err = self.disc + float(self.rounding(self.c_lin_abs))
            return value, err if np.isfinite(value) else np.nan
        s8 = np.sum(values[:, 16:] * GL8[1], axis=1) * self.halfs
        err = 4.0 * float(np.sum(np.abs(s16 - s8)))
        err += 4e-16 * float(np.sum(np.abs(s16)))
        return value, err

    def reduce_rows(self, amp_values: np.ndarray, inst: OscInstance, ns: np.ndarray,
                    cs: np.ndarray, rs: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
        """Integrate every row sum_n c_n I(n, +-r/h) of a shifted batch on
        a bounded grid.

        amp_values holds A at `self.nodes`; the rows are those of the
        integers n of `ns` with the weights `cs` and the integers r of `rs`,
        each r with its step h (one number for all, or one per r), ordered
        as in ShiftedRows. The panels run in blocks of whole runs
        (`_blocks`), as many as keep the 16 nodes of their padded rows by
        the r of the largest chunk (up to LATTICE_BLOCK r of one step, see
        `_panel_sums`), and their panels' sums of every row, within
        BLOCK_ELEMENTS, and at least one. The block's products, mid rows and
        sums hold about ten numbers per panel and r, and the factor row and
        its Horner temporaries a few rows of 16 numbers a panel, whatever
        the number of n. Each row's panel sums are added in panel order,
        compensated; a chunk's products have the same shape whatever the
        block size, so the block size leaves every bit alone. Each row's
        error is the grid's bound plus its own rounding term, times
        sum |c_n|.
        """
        h = np.broadcast_to(np.asarray(h, dtype=float), rs.shape)
        s = np.zeros((2 * rs.size, 2))
        c = np.zeros_like(s)
        chunk = max(min(g1 - g0, LATTICE_BLOCK) for g0, g1 in _step_runs(h))
        for q0, q1 in self._blocks(BLOCK_ELEMENTS // max(self.k * chunk, 2 * rs.size)):
            sums = self._panel_sums(amp_values, q0, q1, inst, ns, cs, rs, h)
            s, c = kahan_add(s, c, sums.view(float).reshape((sums.shape[0],) + s.shape))
        values = np.ascontiguousarray(s + c).view(complex)[..., 0]
        rounding = self.rounding(np.repeat(rs / h, 2), _chains(ns, rs, h))
        errs = float(np.sum(np.abs(cs))) * (self.disc + rounding)
        return values, np.where(np.isfinite(values), errs, np.nan)

    def _blocks(self, rows: int):
        """(q0, q1) of each block of runs, in order: as many whole runs as
        keep their padded rows within `rows`, and at least one. A run pads
        to _PANEL_RUN rows, and a one-panel run (a graded end) to one (see
        `_panel_sums`)."""
        pads = np.where(self.run_sizes == 1, 1, _PANEL_RUN)
        q0, used = 0, 0
        for q, pad in enumerate(pads.tolist()):
            if used + pad > rows and q > q0:
                yield q0, q
                q0, used = q, 0
            used += pad
        yield q0, pads.size

    def _panel_sums(self, amp_values, q0, q1, inst, ns, cs, rs, h):
        """The GL16 sums of the panels of runs q0..q1-1 for every row, as
        one (panels, rows) array (see the module docstring).

        The weighted factor row and `base`, A times it and the rule's
        weights, are formed once for the block. Then for each run of
        consecutive r with one step h (`_step_runs`), and each chunk of up
        to LATTICE_BLOCK r of it, `_lattice_turns` gives the rows e(-r mid/h)
        on the panel mids, from mid/h as a sum of two doubles, and
        `_lattice_exp` the rows e(-r half u_k/h) on each run's 16 nodes.
        A run's sums are one product of its panels' factor rows, padded
        with zero rows to _PANEL_RUN, with its node table; the one-panel
        runs of the graded ends take one product of their own, unpadded.
        The mid row then scales each panel's sums. Both go through
        `util._matmul`: a chunk of 64 r makes each run's product
        64 x 16 @ 16 x 128, which it takes in row slices that OpenBLAS
        keeps on the calling thread, with the product's bits.
        """
        k = self.k
        p0, p1 = self.run_starts[q0], self.run_starts[q1]
        m, runs = p1 - p0, q1 - q0
        x = self.nodes[k * p0:k * p1]
        n_lo = ns.min()
        # the head row's phase is formed as for a lone n, so it keeps its
        # bits; c_inv = n_lo T/N is q + q_lo, exact to about eps^2
        p, p_lo = _two_product(float(n_lo), inst.T)
        q, q_lo = _divide(p, inst.N)
        head = self.phases(-inst.T, q, 0.0, p0, p1, q_lo + p_lo / inst.N)
        factor = _lattice_sum(head, -TWO_PI * (inst.T / inst.N) / x, ns - n_lo, cs)
        base = factor.reshape(m, k) * (amp_values[k * p0:k * p1].reshape(m, k) * self.weights)
        sizes = self.run_sizes[q0:q1]
        lone = sizes == 1
        # the runs of more than one panel, each padded to _PANEL_RUN rows
        wide = ~np.repeat(lone, sizes)
        fill = np.arange(_PANEL_RUN) < sizes[~lone, None]
        padded = np.zeros(fill.shape + (k,), dtype=complex)
        padded[fill] = base[wide]
        out = np.empty((m, 2 * rs.size), dtype=complex)
        for g0, g1 in _step_runs(h):
            q_hi, q_lo = _divide(self.mids[p0:p1], h[g0])  # mid/h, in turns of e(-r mid/h)
            steps = -TWO_PI / h[g0] * (self.run_halfs[q0:q1, None] * self.rule).ravel()
            for i0 in range(g0, g1, LATTICE_BLOCK):
                chunk = rs[i0:min(i0 + LATTICE_BLOCK, g1)]
                cols = slice(2 * i0, 2 * (i0 + chunk.size))
                mid = _lattice_turns(-q_hi, -q_lo, chunk).T * self.halfs[p0:p1, None]
                mid = np.stack((mid, mid.conj()), axis=-1).reshape(m, -1)
                table = _lattice_exp(np.zeros(steps.size), steps, chunk)
                table = table.reshape(chunk.size, runs, k).transpose(1, 2, 0)
                table = np.stack((table, table.conj()), axis=-1).reshape(runs, k, -1)
                out[wide, cols] = _matmul(padded, table[~lone])[fill]
                if lone.any():
                    out[~wide, cols] = _matmul(base[~wide][:, None], table[lone])[:, 0]
                out[:, cols] *= mid
        return out


def _graded_runs(amplitude: Cutoff, rate, span: float, cap: float, strip: float,
                 max_panels: int):
    """The bounded path's panels over the amplitude's support: (left edge
    of each panel, panels per run, width per run, the strips' bound).

    The support's ends and the amplitude's breaks (`Cutoff.breaks`) cut it
    into pieces, each gridded alone (`_graded_piece`), as if its ends were
    support ends: so the panels grade toward a break from both sides, and
    the strip at each side of it is left out with its trivial bound.
    Without breaks there is one piece, the whole support."""
    points = (amplitude.support_lo, *amplitude.breaks, amplitude.support_hi)
    parts, used = [], 0
    for lo, hi in zip(points[:-1], points[1:]):
        part = _graded_piece(amplitude.bound, lo, hi, rate, span, cap, strip, max_panels - used)
        used += int(part[1].sum())
        parts.append(part)
    lefts, sizes, widths, strips = zip(*parts)
    return np.concatenate(lefts), np.concatenate(sizes), np.concatenate(widths), sum(strips)


def _graded_piece(bound, lo: float, hi: float, rate, span: float, cap: float, strip: float,
                  max_panels: int):
    """`_graded_runs` over one piece [lo, hi].

    At each end a strip whose trivial bound is at most `strip` is left out
    (`_strips`; the bound goes into `PanelGrid.disc`). From there
    one-panel runs grow toward the centre, each _GRADE times its distance
    to the end, until that width reaches min(cap, span / rate(x)) or the
    centre; the stretch between is `util._panel_runs`' with the same width
    rule. Every edge and width is a multiple of the quantum 2^(e - 40),
    2^e > hi, each rounded toward the centre, so that mid = edge + half
    and mid +- half are exact and the panels tile the piece, strips
    aside, with no gap.
    """
    centre = 0.5 * (lo + hi)
    quantum = _quantum(hi)

    def width(x):
        r = _finite_rate(rate, x)
        return cap if r * cap <= span else span / r

    first, last, strips = _strips(bound, lo, hi, strip)
    left, right = [first], [last]
    while len(left) + len(right) <= max_panels:
        x = left[-1]
        step = _GRADE * (x - lo)
        if x + step >= centre or step >= width(x):
            break
        left.append(math.floor((x + step) / quantum) * quantum)
    while len(left) + len(right) <= max_panels:
        x = right[-1]
        step = _GRADE * (hi - x)
        if x - step <= centre or step >= width(x - step):
            break
        right.append(math.ceil((x - step) / quantum) * quantum)
    graded = len(left) + len(right) - 2
    if graded >= max_panels:
        raise ToleranceUnreachableError("panel budget exhausted while gridding")
    cap = max(quantum, math.floor(cap / quantum) * quantum)
    edges, sizes, widths = _panel_runs(left[-1], right[-1], cap, span, rate,
                                       max_panels - graded, quantum)
    ones = np.ones(len(left) - 1, dtype=int), np.ones(len(right) - 1, dtype=int)
    return (np.concatenate([left[:-1], edges[:-1], right[:0:-1]]),
            np.concatenate([ones[0], sizes, ones[1]]),
            np.concatenate([np.diff(left), widths, -np.diff(right)[::-1]]), strips)


def _quantum(hi: float) -> float:
    """The edge quantum of `_graded_runs`: 2^(e - 40) with 2^(e-1) <= hi < 2^e."""
    return math.ldexp(1.0, math.frexp(hi)[1] - 40)


@functools.lru_cache(maxsize=256)
def _strips(bound, lo: float, hi: float, share: float) -> tuple[float, float, float]:
    """(first edge, last edge, trivial bound of both strips) of
    `_graded_piece`: [lo, first] and [last, hi] are its end strips, each
    about the widest (hi - lo) 2^(-j/2), j = 4..81, whose trivial bound
    d sup |A| is at most share (or the narrowest of them), its inner edge
    rounded toward the end to a multiple of `_quantum(hi)`, at least one
    quantum inside. Kept per bound (a closure of the amplitude's, which
    `Cutoff` fixes) and share."""
    d = (hi - lo) * _STRIP_STEPS
    mass = d * bound(np.stack((np.full(d.shape, lo), hi - d)),
                     np.stack((lo + d, np.full(d.shape, hi))), 0.0)
    ok = mass <= share
    j = np.where(ok.any(axis=1), ok.argmax(axis=1), d.size - 1)
    quantum = _quantum(hi)
    first = max(math.floor((lo + d[j[0]]) / quantum), math.floor(lo / quantum) + 1) * quantum
    last = min(math.ceil((hi - d[j[1]]) / quantum), math.ceil(hi / quantum) - 1) * quantum
    ends = np.array([lo, last]), np.array([first, hi])
    return first, last, float(np.sum((ends[1] - ends[0]) * bound(*ends, 0.0)))


def _curved_rate(rate, quad):
    """The bounded path's width rate: R(x) plus _CURVE sqrt(K(x)), with
    K(x) = |c_log|/x^2 + 4 pi max|c_inv|/x^3 >= |Phi''| right of x, so that
    panels near a stationary point, where R is small, stay narrow enough
    for the curvature term of `_ellipse_bounds`. Neither term rises."""
    k_log, k_inv = abs(quad.a), 2.0 * quad.c_abs
    return lambda x: rate(x) + _CURVE * math.sqrt((k_log + k_inv / x) / (x * x))


def _ellipse_bounds(bound, first, last, halfs, quad) -> np.ndarray:
    """The bound on |I - G16| per unit weight of each panel of each run of
    equal panels (mids from first to last, half-width halfs), from
    Trefethen's Thm 19.3: (64/15) half M rho^-32 / (rho^2 - 1), with
    M >= |A e^(i Phi)| on the Bernstein ellipse E_rho of the panel
    (`_log_majorants`), at the best rho of _RHOS."""
    logs = _LOG_GAUSS + np.log(halfs)[:, None] + _log_majorants(bound, first, last, halfs, quad)
    logs[np.isnan(logs)] = np.inf
    return np.exp(logs.min(axis=1))


def _log_majorants(bound, first, last, halfs, quad) -> np.ndarray:
    """log M, M >= |A e^(i Phi)| on the ellipse E_rho of every panel of
    each run and every row, one column per rho of _RHOS (+inf where there
    is no bound).

    E_rho has real semi-axis a = half (rho + 1/rho)/2 and imaginary
    semi-axis b = half (rho - 1/rho)/2, so every panel's lies in the
    rectangle [first - a, last + a] x [-b, b], on which `bound` gives |A|
    (inf where it reaches a support end). Phi is real on the real line, so
    Im Phi(x + iy) = int_0^y Re Phi'(x + it) dt, and |Phi'(x + it) -
    Phi'(x)| <= t K, with K = |c_log|/lo^2 + 4 pi max|c_inv|/lo^3 >=
    |Phi''| there (lo = first - a, the leftmost real part); also
    Re Phi'(x + it) - Phi'(x) = -int_0^t Im Phi''(x + is) ds, at most
    t^2 K3 / 2 with K3 = 2|c_log|/lo^3 + 12 pi max|c_inv|/lo^4 >= |Phi'''|.
    So |e^(i Phi)| <= exp(b R + min(b^2 K/2, b^3 K3/6)), R the largest
    |Phi'| over [first - a, last + a] for every row (`_rate_over`); quad
    holds the coefficients (`_quadratics`). NaN, where the rectangle
    leaves the support, reads as no bound.
    """
    first, last, halfs = first[:, None], last[:, None], halfs[:, None]
    a, b = halfs * _SEMI_A, halfs * _SEMI_B
    # amp is inf wherever the rectangle reaches a support end, which lies
    # right of 0; lo is kept positive for the others' sake
    lo, hi = np.maximum(first - a, 1e-300), last + a
    log, inv = abs(quad.a), quad.c_abs / lo
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k2 = (log + 2.0 * inv) / lo**2
        k3 = (2.0 * log + 6.0 * inv) / lo**3
        grow = b * _rate_over(lo, hi, quad) + np.minimum(0.5 * b * b * k2, b**3 * k3 / 6.0)
        return np.log(bound(lo, hi, b)) + grow


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


def _phase_turns(x: np.ndarray, c_log: float, c_inv: float, c_lin: float,
                 c_inv_lo: float = 0.0) -> np.ndarray:
    """Phi(x) / (2 pi) reduced mod 1, to a few eps (plus eps |c_log|/16 /
    (2 pi) from `_log_dd`), as a double of modulus below 2. Each term is
    formed as a sum of two doubles, its leading part reduced exactly
    (p - rint(p)): c_log/(2 pi) (hi + lo) times ln x from `_log_dd`,
    (c_inv + c_inv_lo) / x by Dekker's division and c_lin x by TwoProduct."""
    g, g_err = _two_product(c_log, INV_TWO_PI[0])
    g_lo = g_err + c_log * INV_TWO_PI[1]
    l_hi, l_lo = _log_dd(x)
    p, p_err = _two_product(g, l_hi)
    turns = (p - np.rint(p)) + (p_err + (g * l_lo + g_lo * l_hi))
    if c_inv or c_inv_lo:
        q, q_err = _divide(c_inv, x)
        turns -= (q - np.rint(q)) + (q_err + c_inv_lo / x)
    if c_lin:
        r, r_err = _two_product(c_lin, x)
        turns -= (r - np.rint(r)) + r_err
    return turns


def phase_values(x: np.ndarray, c_log: float, c_inv: float, c_lin: float) -> np.ndarray:
    """Phi(x) on an array of abscissas."""
    return c_log * np.log(x) - TWO_PI * c_inv / x - TWO_PI * c_lin * x


class _Quadratics(NamedTuple):
    """Phi' over the ranges of c_inv and c_lin, in t = 1/y: between
    up = c_up t^2 + a t + b_up and down = c_dn t^2 + a t + b_dn, with
    c = 2 pi c_inv and b = -2 pi c_lin at their extremes; also the largest
    2 pi |c_inv| and 2 pi |c_lin|."""

    a: float
    c_up: float
    c_dn: float
    b_up: float
    b_dn: float
    c_abs: float
    b_abs: float


def _quadratics(c_log: float, c_inv, c_lin) -> _Quadratics:
    c_inv, c_lin = np.asarray(c_inv, dtype=float), np.asarray(c_lin, dtype=float)
    c_up, c_dn = TWO_PI * float(c_inv.max()), TWO_PI * float(c_inv.min())
    b_up, b_dn = -TWO_PI * float(c_lin.min()), -TWO_PI * float(c_lin.max())
    return _Quadratics(float(c_log), c_up, c_dn, b_up, b_dn, max(c_up, -c_dn),
                       max(b_up, -b_dn))


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
    return _rate_from(hi, _quadratics(c_log, c_inv, c_lin))


def _rate_from(hi: float, quad: _Quadratics):
    """`_phase_rate` from the coefficients' `_quadratics`."""
    a, c_up, c_dn, b_up, b_dn = quad[:5]
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


def _rate_over(lo, hi, quad: _Quadratics):
    """max |Phi'(y)| over y in [lo, hi], for arrays 0 < lo <= hi: the
    closed form of `_phase_rate` on an interval, as the largest of up and
    -down at both ends and at the vertex of a concave up or a convex down
    inside."""
    a, c_up, c_dn, b_up, b_dn = quad[:5]
    t0, t1 = 1.0 / hi, 1.0 / lo
    rate = np.maximum(np.maximum((c_up * t0 + a) * t0 + b_up, (c_up * t1 + a) * t1 + b_up),
                      -np.minimum((c_dn * t0 + a) * t0 + b_dn, (c_dn * t1 + a) * t1 + b_dn))
    for c, b, sign, ok in ((c_up, b_up, 1.0, c_up < 0.0), (c_dn, b_dn, -1.0, c_dn > 0.0)):
        if ok:
            at = -a / (2.0 * c)
            inside = (t0 <= at) & (at <= t1)
            rate = np.where(inside, np.maximum(rate, sign * (b - a * a / (4.0 * c))), rate)
    return rate


def _step_runs(h: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of consecutive entries of h that are equal:
    the rows of a shifted batch that share one step, and so one mid row
    and one node table a chunk (`PanelGrid._panel_sums`)."""
    cuts = np.flatnonzero(h[1:] != h[:-1]) + 1
    ends = [0, *cuts.tolist(), h.size]
    return list(zip(ends[:-1], ends[1:]))


def _chains(ns: np.ndarray, rs: np.ndarray, h: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(L_n, L_r, h) of `PanelGrid.rounding` for a batch of these n and r
    with the steps h (one per r): the longest product chains of
    `_lattice_sum` and `util._lattice_chain`, which run through the gaps
    from an exact exponential at most LATTICE_BLOCK - 1 offsets back. L_r
    and h are per row, +r and -r alike: a row's chain stays in the run of
    r that share its step (`_step_runs`)."""
    l_r = np.empty(rs.size)
    for g0, g1 in _step_runs(h):
        l_r[g0:g1] = min(LATTICE_BLOCK - 1, int(rs[g0:g1].max() - rs[g0:g1].min()))
    return (min(LATTICE_BLOCK - 1, int(ns.max() - ns.min())), np.repeat(l_r, 2), np.repeat(h, 2))


def _halve_spans(amplitude: Cutoff, c_log: float, c_inv: float, c_lin: float, tol: float):
    """The estimate path of the module docstring, for one integral of an
    amplitude without `Cutoff.bound`: (value, error estimate, evaluations,
    panels of the last grid).

    Each pass grids the support at half the last span, within the
    evaluations left of DEFAULT_EVAL_BUDGET, and returns once the estimate
    meets tol. The loop refuses, naming the last estimate, once the next
    grid does not fit in them, or once STALL_PASSES passes in a row leave
    the estimate at half its last or above (a NaN estimate has not fallen):
    it then sits on its rounding floor, and finer grids would spend the
    budget without meeting the tolerance.
    """
    err = np.inf
    span, evals_used, stalls = np.pi, 0, 0
    while True:
        try:
            grid = PanelGrid(amplitude.support_lo, amplitude.support_hi, c_log, c_inv, c_lin,
                             span, (DEFAULT_EVAL_BUDGET - evals_used) // 24)
        except ToleranceUnreachableError:
            if not evals_used:
                raise ToleranceUnreachableError(
                    "evaluation budget too small for one pass") from None
            raise _refusal(f"budget {DEFAULT_EVAL_BUDGET} exhausted", err) from None
        evals_used += grid.evaluations
        last = err
        value, err = grid.reduce(amplitude.fn(grid.nodes)
                                 * np.exp(1j * grid.phases(c_log, c_inv, c_lin)))
        if err <= tol:
            return value, err, evals_used, grid.panels
        stalls = 0 if err < 0.5 * last else stalls + 1
        if stalls == STALL_PASSES:
            raise _refusal(f"estimate not halved in {STALL_PASSES} passes, "
                           "refinement exhausted", err)
        span *= 0.5


def _one_pass(amplitude: Cutoff, c_log: float, c_inv, c_lins: np.ndarray, tol: np.ndarray,
              reduce, weight: float = 1.0, chains=None):
    """The bounded path of the module docstring: one evaluation pass, on a
    grid whose bound is known before it, for rows j of the linear phase
    c_lins[j] and the tolerance tol[j] (c_inv is one value or the range of
    a batch's n). Returns (values, errs, evaluations, panels).

    From BOUND_SPAN the span shrinks by _SPAN_RETRY, each grid built and
    bounded but not evaluated, until its bound (`PanelGrid.disc`, times
    `weight`, the rows' sum |c_n|) is at most half the smallest tolerance.
    A row whose rounding term (see `PanelGrid.rounding` for `chains`)
    passes half its tolerance on a grid is refused at once, with that term
    as `achieved`, and so is a grid past DEFAULT_EVAL_BUDGET evaluations,
    with the last grid's worst figure among the rows it missed (those past
    half their tolerance). Then A is evaluated once, on the
    last grid, and reduce(grid, amp_values) gives each row's value and
    error; a non-finite value (a NaN amplitude) is refused with achieved NaN.
    """
    target = 0.5 * float(np.min(tol)) / weight if weight else np.inf  # zero weights: zero rows
    span, figures = BOUND_SPAN, None
    while True:
        try:
            grid = PanelGrid(amplitude.support_lo, amplitude.support_hi, c_log, c_inv, c_lins,
                             span, DEFAULT_EVAL_BUDGET // 16, amplitude=amplitude,
                             target=target)
        except ToleranceUnreachableError:
            if figures is None:
                raise ToleranceUnreachableError(
                    "evaluation budget too small for one pass") from None
            raise _refusal(f"budget {DEFAULT_EVAL_BUDGET} exhausted", figures) from None
        rounding = weight * grid.rounding(c_lins, chains)
        floor = rounding > 0.5 * tol
        if floor.any():
            raise _refusal("tolerance below the rounding floor", rounding[floor])
        figures = weight * grid.disc + rounding
        figures = figures[figures > 0.5 * tol]  # the rows this grid missed
        if grid.disc <= target:
            break
        span *= _SPAN_RETRY
    values, errs = map(np.atleast_1d, reduce(grid, amplitude.fn(grid.nodes)))
    if not np.all(errs <= tol):
        raise _refusal("non-finite integrand", errs[~(errs <= tol)])
    return values, errs, grid.evaluations, grid.panels


def _refusal(reason: str, errs) -> ToleranceUnreachableError:
    achieved = float(np.max(errs))
    return ToleranceUnreachableError(f"{reason}; achieved {achieved:.3e}", achieved=achieved)


def integrate_phase(amplitude: Cutoff, c_log: float, c_inv: float, c_lin: float,
                    tol: float = DEFAULT_TOL) -> QuadResult:
    """Adaptive driver for the generic amplitude/phase family, over the
    amplitude's support, within DEFAULT_EVAL_BUDGET evaluations: the
    bounded path for an amplitude with `Cutoff.bound`, the estimate path
    otherwise."""
    if not (0.0 < amplitude.support_lo < amplitude.support_hi):
        raise ConfigError("integration range must sit inside (0, inf)")
    tol = float(_positive("tol", tol, ()))
    if amplitude.bound is None:
        value, err, evaluations, panels = _halve_spans(amplitude, c_log, c_inv, c_lin, tol)
    else:
        (value,), (err,), evaluations, panels = _one_pass(
            amplitude, c_log, c_inv, np.array([c_lin]), np.array([tol]),
            lambda grid, amp: grid.reduce(amp * np.exp(1j * grid.phases(c_log, c_inv, c_lin))))
    return QuadResult(value=complex(value), abs_err=float(err), panels=panels,
                      evaluations=evaluations)


def integrate_main(inst: OscInstance) -> QuadResult:
    """The main integral: integral x^(-iT) e(-nT/(Nx)) V(x) dx (beta = 0)."""
    return integrate_phase(inst.amplitude, -inst.T, inst.n * inst.T / inst.N, 0.0,
                           tol=inst.tol)


def integrate_shifted(inst: OscInstance, rs, h, tol=None, ns=None, cs=None) -> ShiftedRows:
    """The weighted shifted integrals with the extra linear phase e(-r x/h).

    A ShiftedRows batch of the rows sum_n c_n I(n, +-r/h) for the integers
    r >= 0 of `rs`, the steps h > 0 (one for all r, or one per r), and the
    integers n >= 1 of `ns` with the complex weights `cs` (default inst.n
    alone, weight 1). `tol` is one tolerance per r, or one for all (default
    inst.tol), and every row must meet its own. The amplitude must carry
    `Cutoff.bound`: the rows share one pass of the bounded path
    (`_one_pass`), on one grid for the range of every row's r/h, with
    phases built on the n and r lattices (see PanelGrid.reduce_rows); a
    run of consecutive r with one step shares its mid rows and node tables.
    So the dual-sum shells of several prime pairs, each pair its own step,
    are one batch. Inputs are checked before any grid is built; an empty
    `rs` gives empty rows.
    """
    if inst.amplitude.bound is None:
        raise ConfigError("a shifted batch needs an amplitude with Cutoff.bound, as its rows "
                          "take the bounded path's one pass")
    rs = np.asarray(rs)
    ns = np.asarray([inst.n] if ns is None else ns)
    cs = np.ones(ns.shape, dtype=complex) if cs is None else np.asarray(cs, dtype=complex)
    if not ns.size:
        raise ConfigError("need at least one n")
    if not rs.size:
        rs = rs.astype(np.int64)  # an empty list reads as floats
    if rs.ndim != 1 or rs.dtype.kind != "i" or ns.ndim != 1 or ns.dtype.kind != "i" \
            or cs.shape != ns.shape:
        raise ConfigError("rs and ns must be lists of integers, as the phase tables step "
                          "along them, and cs must hold one weight per n")
    if ns.min() < 1 or (rs.size and rs.min() < 0):
        raise ConfigError("need every n >= 1, as OscInstance does, and every r >= 0")
    h = _positive("h", h, rs.shape, ", as the rate r/h of its shifts must be finite")
    tol = _positive("tol", inst.tol if tol is None else tol, rs.shape)
    if not rs.size:
        return ShiftedRows(values=np.zeros(0, dtype=complex), abs_errs=np.zeros(0), evaluations=0)
    values, errs, evaluations, _ = _one_pass(
        inst.amplitude, -inst.T, ns * inst.T / inst.N, np.outer(rs / h, [1.0, -1.0]).ravel(),
        np.repeat(tol, 2), lambda grid, amp: grid.reduce_rows(amp, inst, ns, cs, rs, h),
        weight=float(np.sum(np.abs(cs))), chains=_chains(ns, rs, h))
    return ShiftedRows(values=values, abs_errs=errs, evaluations=evaluations)


def _positive(name: str, value, shape: tuple, why: str = "") -> np.ndarray:
    """value as an array of `shape`, one number serving every entry, each
    finite and positive (compared so that NaN fails); else ConfigError."""
    value = np.asarray(value, dtype=float)
    if value.shape not in ((), shape):
        raise ConfigError(f"{name} must be one number or one per row, not of shape {value.shape}")
    bad = value[~((0.0 < value) & (value < np.inf))]
    if bad.size:
        raise ConfigError(f"each {name} must be finite and positive{why}; got {name} = {bad[0]}")
    return np.broadcast_to(value, shape)


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

