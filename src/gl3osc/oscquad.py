"""Oscillatory integral oracle.

Evaluates integrals of the shape

    I = integral  A(x) * exp(i*Phi(x)) dx,
    Phi(x) = c_log * ln(x) - 2*pi*c_inv / x - 2*pi*c_lin * x,

with A a smooth compactly supported amplitude. The family covers the main
integral x^(-iT) e(-nT/(Nx)) V(x) (c_log = -T, c_inv = nT/N, c_lin = 0), its
additively shifted companions e(-r x/h) (c_lin = r/h), and the local zeta
integrand in z-coordinates (c_log = T + Im s, c_lin = T).

Method: the support is paneled so no panel spans more than half a local
oscillation, using the decreasing envelope

    E(x) = |c_log|/x + 2*pi*|c_inv|/x^2 + 2*pi*|c_lin|  >=  |Phi'(x)|.

Each panel gets a 16-point Gauss-Legendre rule with an embedded 8-point rule;
the error estimate is 4x the summed embedded difference (conservative), plus a
roundoff floor. If the estimate misses the tolerance the phase span per panel
is halved and the grid rebuilt, until DEFAULT_EVAL_BUDGET evaluations are
spent.
Panel partial sums are reduced left to right with compensated summation, so
results are bit-reproducible.

Shifted integrals come in batches only: the Poisson dual sum needs the rows
c_inv = nT/N, c_lin = +-r/h for many integers n and r >= 0 at once, and
within one shell these differ only in c_inv and r. `integrate_shifted`
integrates every row on one shared grid per pass, paneled by the envelope
of the largest n and r (which bounds every row's |Phi'|): the amplitude is
evaluated once per node. The rows sit on integer lattices, so their phase
tables are geometric sequences: the per-n factors x^(i c_log) e(-nT/(Nx))
and the shift table e(-r x/h) cost an exact exponential at the head of
each block of LATTICE_BLOCK consecutive n (or r), and a complex product
per further row. The shift table holds only the +r rows; a -r row is the
conjugate of the conjugated factors' product with it. Chunks of ROW_CHUNK
panels are reduced by one batched matrix product each, so memory stays
bounded whatever nodes x rows is, and each row keeps its own compensated
sum in panel order and its own embedded-rule estimate. Every row must meet
its own tolerance: the span is halved until all do, and a row keeps the
first pass that met it. A batch of one n and one r holds the two integrals
at +-r/h.

`stationary_phase_main` is the leading term c_T T^(-1/2) V(x0) of the main
integral, within K_SP_MAIN T^(-3/2). A03 holds the quadrature oracle to it;
A01-shape holds its dressed form (keyident.lin_form_leading) to the sum side
A - O of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cutoffs import Cutoff
from .errors import ConfigError, ToleranceUnreachableError
from .util import GL8, GL16, TWO_PI, adaptive_edges, gl_panels, kahan_add, kahan_csum

DEFAULT_EVAL_BUDGET = 10_000_000
DEFAULT_TOL = 1e-9

# panels per matrix product of a shifted batch: the partial sums of one
# chunk hold ROW_CHUNK x (n values) x (rows per n) complex numbers, and its
# phase tables (n values + r values) x ROW_CHUNK x 16; for the 41 n and 16 r
# (32 rows) of a route shell that is about 1.3 MB and 0.9 MB
ROW_CHUNK = 64

# longest run of consecutive lattice offsets one exact exponential heads; a
# phase table's products of exp(i step) never chain further than this
LATTICE_BLOCK = 64

# |I - leading term| <= K_SP_MAIN * T^(-3/2) for the default test amplitude;
# calibrated at T = 250 (residual * T^(3/2) = 0.686) with a 4x cushion, frozen.
K_SP_MAIN = 2.8


def probe_amplitude() -> Cutoff:
    """Default amplitude for identity and asymptotics tests.

    A plain C-infinity bump supported on [1/2, 2]; its support contains the
    stationary point x0 = 2*pi*n/N ~ 1 of the standard instances.
    """
    from .cutoffs import _exp_bump_fn  # same mollifier family as v0

    return Cutoff(support_lo=0.5, support_hi=2.0, fn=_exp_bump_fn(0.5, 2.0))


@dataclass(frozen=True)
class OscInstance:
    """One oscillatory integral: amplitude, frequency data, tolerances."""

    T: float
    n: int
    N: float
    amplitude: Cutoff = field(default_factory=probe_amplitude)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.T < 0.0 or self.N <= 0.0:
            raise ConfigError("need T >= 0 and N > 0")
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
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
    """Shifted integrals of one amplitude, one row per (n, +-r/h).

    values[i, 2j] is the integral at n = ns[i] and shift +rs[j]/h, and
    values[i, 2j + 1] the one at -rs[j]/h; abs_errs likewise. panels is
    the last grid's panel count, evaluations the amplitude evaluations of
    every pass.
    """

    values: np.ndarray
    abs_errs: np.ndarray
    panels: int
    evaluations: int


class PanelGrid:
    """Oscillation-resolving panel grid with an embedded error rule.

    Holds the nodes of a fixed (amplitude-independent) paneling, stepped by
    the envelope E(x); `reduce` turns integrand values at the nodes into a
    value and an error estimate.
    """

    def __init__(self, lo: float, hi: float, c_log: float, c_inv: float,
                 c_lin: float, span: float, max_panels: int):
        a, b, c = float(abs(c_log)), float(TWO_PI * abs(c_inv)), float(TWO_PI * abs(c_lin))
        edges = adaptive_edges(lo, hi, (hi - lo) / 8.0, span,
                               lambda x: a / x + b / (x * x) + c, max_panels)
        self.x16, _ = gl_panels(edges, *GL16)
        self.x8, _ = gl_panels(edges, *GL8)
        self.halfs = 0.5 * np.diff(edges)
        self.panels = self.halfs.size
        self.nodes = np.concatenate([self.x16, self.x8])

    @property
    def evaluations(self) -> int:
        return self.nodes.size

    def reduce(self, values: np.ndarray) -> tuple[complex, float]:
        """Integrate from integrand values sampled at `self.nodes`."""
        n16 = self.x16.size
        s16 = (values[:n16].reshape(self.panels, 16) @ GL16[1]) * self.halfs
        s8 = (values[n16:].reshape(self.panels, 8) @ GL8[1]) * self.halfs
        value = kahan_csum(s16)
        err = 4.0 * float(np.sum(np.abs(s16 - s8)))
        err += 4e-16 * float(np.sum(np.abs(s16)))
        return value, err

    def reduce_rows(self, amp_values: np.ndarray, inst: OscInstance, ns: np.ndarray,
                    rs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Integrate A(x) exp(i Phi(x)) for every row of a shifted batch.

        amp_values holds A at `self.nodes`; the rows are the phases with
        c_log = -inst.T, c_inv = n inst.T/inst.N for the integers n of `ns`
        and c_lin = +-r/h for the integers r of `rs`, ordered as in
        ShiftedRows. Each chunk of ROW_CHUNK panels is one batched matrix
        product of the per-n factors A x^(i c_log) e(-c_inv/x) with the
        shift table e(-r x/h), both built on their lattices by
        `_lattice_exp`; the -r rows are conj(conj(factors) @ table). Per
        row the value is the compensated sum of its panel sums in panel
        order, and the error is estimated as in `reduce`.
        """
        shape = (ns.size, 2 * rs.size)
        s = np.zeros(shape + (2,))
        c = np.zeros_like(s)
        diff = np.zeros(shape)
        mag = np.zeros(shape)
        n16 = self.x16.size
        for p0 in range(0, self.panels, ROW_CHUNK):
            p1 = min(p0 + ROW_CHUNK, self.panels)
            s16, s8 = (self._panel_sums(x, amp, rule, p0, p1, inst, ns, rs, h)
                       for x, amp, rule in ((self.x16, amp_values[:n16], GL16),
                                            (self.x8, amp_values[n16:], GL8)))
            s, c = kahan_add(s, c, s16.view(float).reshape((p1 - p0,) + s.shape))
            diff += np.sum(np.abs(s16 - s8), axis=0)
            mag += np.sum(np.abs(s16), axis=0)
        values = np.ascontiguousarray(s + c).view(complex)[..., 0]
        return values, 4.0 * diff + 4e-16 * mag

    def _panel_sums(self, x, amp, rule, p0, p1, inst, ns, rs, h):
        """Rule sums of panels p0..p1-1 for every row: shape (panels, n, rows)."""
        k = rule[0].size
        m = p1 - p0
        x = x[k * p0:k * p1]
        n_lo, r_lo = ns.min(), rs.min()
        # the head row's phase is formed as for a lone n, so it keeps its bits
        head = -inst.T * np.log(x) - TWO_PI * (n_lo * inst.T / inst.N) / x
        factors = _lattice_exp(head, -TWO_PI * (inst.T / inst.N) / x, ns - n_lo)
        base = factors * (amp[k * p0:k * p1] * np.tile(rule[1], m))
        table = _lattice_exp(-TWO_PI * (r_lo / h) * x, -TWO_PI / h * x, rs - r_lo)
        base = base.reshape(ns.size, m, k).transpose(1, 0, 2)
        table = table.reshape(rs.size, m, k).transpose(1, 2, 0)
        sums = np.stack((base @ table, np.conj(base.conj() @ table)), axis=-1)
        return sums.reshape(m, ns.size, -1) * self.halfs[p0:p1, None, None]


def _lattice_exp(head: np.ndarray, step: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """exp(i (head + k step)) for each integer k >= 0 of `offsets`.

    Returns shape (offsets.size,) + head.shape. The rows are a geometric
    sequence: the smallest wanted offset not yet covered heads a block of
    LATTICE_BLOCK consecutive offsets with an exact np.exp, and the block's
    other wanted rows are reached by products with exp(i step). So no row
    is more than LATTICE_BLOCK - 1 products from an exact exponential, a
    lone offset costs one exponential and gets np.exp's bits, and no set
    of offsets costs more exponentials than it has rows.
    """
    out = np.empty((offsets.size,) + head.shape, dtype=complex)
    w = None
    at = first = None
    for i in np.argsort(offsets, kind="stable"):
        k = int(offsets[i])
        if first is None or k - first >= LATTICE_BLOCK:
            first = at = k
            cur = np.exp(1j * (head + k * step) if k else 1j * head)
        else:
            if w is None:
                w = np.exp(1j * step)
            for _ in range(k - at):
                cur = cur * w
            at = k
        out[i] = cur
    return out


def phase_values(x: np.ndarray, c_log: float, c_inv: float, c_lin: float) -> np.ndarray:
    """Phi(x) on an array of abscissas."""
    return c_log * np.log(x) - TWO_PI * c_inv / x - TWO_PI * c_lin * x


def _check_budget(evals_used: int, grid: PanelGrid, achieved: Optional[float]) -> None:
    """Raise once the next pass would overrun DEFAULT_EVAL_BUDGET."""
    if evals_used + grid.evaluations > DEFAULT_EVAL_BUDGET:
        if achieved is not None:
            raise ToleranceUnreachableError(
                f"budget {DEFAULT_EVAL_BUDGET} exhausted; achieved {achieved:.3e}",
                achieved=achieved)
        raise ToleranceUnreachableError("evaluation budget too small for one pass")


def integrate_phase(amplitude: Cutoff, c_log: float, c_inv: float, c_lin: float,
                    tol: float = DEFAULT_TOL) -> QuadResult:
    """Adaptive driver for the generic amplitude/phase family, over the
    amplitude's support, within DEFAULT_EVAL_BUDGET evaluations."""
    a, b = amplitude.support_lo, amplitude.support_hi
    if not (0.0 < a < b):
        raise ConfigError("integration range must sit inside (0, inf)")
    span = np.pi
    evals_used = 0
    err = None
    while True:
        grid = PanelGrid(a, b, c_log, c_inv, c_lin, span,
                         max_panels=max(64, DEFAULT_EVAL_BUDGET // 24))
        _check_budget(evals_used, grid, err)
        vals = amplitude.fn(grid.nodes) * np.exp(1j * phase_values(grid.nodes, c_log, c_inv, c_lin))
        evals_used += grid.evaluations
        value, err = grid.reduce(vals)
        if err <= tol:
            return QuadResult(value=value, abs_err=err, panels=grid.panels,
                              evaluations=evals_used)
        span *= 0.5


def integrate_main(inst: OscInstance) -> QuadResult:
    """The main integral: integral x^(-iT) e(-nT/(Nx)) V(x) dx (beta = 0)."""
    return integrate_phase(inst.amplitude, -inst.T, inst.n * inst.T / inst.N, 0.0,
                           tol=inst.tol)


def integrate_shifted(inst: OscInstance, rs, h: float, tol=None, ns=None) -> ShiftedRows:
    """The shifted integrals with the extra linear phase e(-r x/h).

    A ShiftedRows batch holding every row (n, +r/h) and (n, -r/h) for the
    integers n of `ns` (default inst.n alone) and r >= 0 of `rs`, with the
    step h > 0. `tol` is one tolerance per r, or one for all (default
    inst.tol), and every row must meet its own. The rows share each pass:
    one grid sized by the largest live n and r, one evaluation of the
    amplitude per node, and phase tables built on the n and r lattices (see
    PanelGrid.reduce_rows). A row keeps the value of the first pass that
    meets its tolerance; the phase span per panel is halved until every row
    has, under DEFAULT_EVAL_BUDGET evaluations in all.
    """
    tol = inst.tol if tol is None else tol
    rs = np.asarray(rs)
    ns = np.asarray([inst.n] if ns is None else ns)
    if rs.dtype.kind != "i" or ns.dtype.kind != "i":
        raise ConfigError("rs and ns must be integers: the phase tables step along them")
    row_tol = np.repeat(np.broadcast_to(np.asarray(tol, dtype=float), rs.shape), 2)
    shape = (ns.size, row_tol.size)
    values = np.zeros(shape, dtype=complex)
    errs = np.full(shape, np.inf)
    live = np.ones(shape, dtype=bool)
    amplitude = inst.amplitude
    span = np.pi
    evals_used = 0
    while True:
        live_n = live.any(axis=1)
        live_r = live.reshape(ns.size, -1, 2).any(axis=(0, 2))
        grid = PanelGrid(amplitude.support_lo, amplitude.support_hi, -inst.T,
                         ns[live_n].max() * inst.T / inst.N, rs[live_r].max() / h,
                         span, max_panels=max(64, DEFAULT_EVAL_BUDGET // 24))
        _check_budget(evals_used, grid,
                      float(errs[live].max()) if evals_used else None)
        evals_used += grid.evaluations
        vals, est = grid.reduce_rows(amplitude.fn(grid.nodes), inst,
                                     ns[live_n], rs[live_r], h)
        rows = np.ix_(live_n, np.repeat(live_r, 2))
        fresh = live[rows]
        values[rows] = np.where(fresh, vals, values[rows])
        errs[rows] = np.where(fresh, est, errs[rows])
        live = ~(errs <= row_tol)  # a NaN estimate stays live
        if not live.any():
            return ShiftedRows(values=values, abs_errs=errs, panels=grid.panels,
                               evaluations=evals_used)
        span *= 0.5


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

