"""Per-layer trace taken from outside the program.

The tracer replaces, for the length of one round, the binding that each
calling module looks up (`gl3osc.keyident.integrate_shifted`, each
module's `kahan_csum`, ...) with a wrapper that counts calls, adds up
their time and, for some, reads a size off the arguments or the result.
Nothing under `src/` is changed; the originals are put back afterwards.

A binding that is missing, or that records no call on a workload listed
as reaching it, stops the run with its name, so a rename in the program
cannot silently turn a metric into zero.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np


class TraceError(RuntimeError):
    """A wrapped binding is missing or was not reached."""


class Stat:
    """What one binding recorded over a round."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.items = 0      # evaluations, values or ordinates, set by the hook
        self.panels = 0     # final panels of integrate_phase
        self.peak = 0.0     # largest r reached, or the table's error


def _quad(stat, args, kwargs, result):
    stat.items += result.evaluations
    stat.panels += result.panels


def _values(stat, args, kwargs, result):
    stat.items += int(np.size(args[0] if args else kwargs["values"]))


def _ordinates(stat, args, kwargs, result):
    stat.items += int(np.size(args[2] if len(args) > 2 else kwargs["ts"]))


def _r_used(stat, args, kwargs, result):
    stat.peak = max(stat.peak, result[3])


def _table(stat, args, kwargs, result):
    stat.items += len(result.grid)
    stat.peak = max(stat.peak, result.max_rel_error)


IDENTITY, MELLIN, ROUTES = ("identity",), ("mellin",), ("routes",)
QUAD = IDENTITY + ROUTES

# binding -> (workloads that must reach it, hook)
BINDINGS = {
    "gl3osc.oscquad.integrate_phase": (QUAD, _quad),
    "gl3osc.whittaker.integrate_phase": (IDENTITY, _quad),
    "gl3osc.oscquad.PanelGrid.reduce": (QUAD, None),
    "gl3osc.oscquad.PanelGrid": (QUAD, None),
    "gl3osc.oscquad.kahan_csum": (QUAD, _values),
    "gl3osc.keyident.kahan_csum": (QUAD, _values),
    "gl3osc.sums.kahan_csum": (ROUTES, _values),
    "gl3osc.gammafactor.kahan_csum": (MELLIN, _values),
    "gl3osc.keyident.integrate_shifted": (QUAD, None),
    "gl3osc.keyident._poisson_terms": (QUAD, _r_used),
    "gl3osc.keyident.riemann_side": (QUAD, None),
    "gl3osc.sums.s_sum_form": (ROUTES, None),
    "gl3osc.sums._integral_route": (ROUTES, None),
    "gl3osc.sums._keyident_route": (ROUTES, None),
    "gl3osc.sums.integrate_main": (ROUTES, None),
    "gl3osc.sums.amplified_average": (ROUTES, None),
    "gl3osc.cutoffs.mellin_on_line": (MELLIN, _ordinates),
    "gl3osc.gammafactor.mellin_on_line": (MELLIN, _ordinates),
    "gl3osc.criteria.mellin_invert": (MELLIN, None),
    "gl3osc.criteria.g_kernel": (MELLIN, None),
    "gl3osc.criteria.f_line_mass": (MELLIN, None),
    "gl3osc.gammafactor.gamma_pi_line": (MELLIN, None),
    "gl3osc.gammafactor.GKernelTable.build": (MELLIN, _table),
    "gl3osc.whittaker.local_zeta": (IDENTITY, None),
    "gl3osc.criteria.synth_eisenstein": (ROUTES, None),
    "gl3osc.criteria.hecke_mult_check": (ROUTES, None),
    "gl3osc.criteria.save_coefficients": (ROUTES, None),
    "gl3osc.criteria.load_coefficients": (ROUTES, None),
    "gl3osc.criteria.key_identity_battery": (IDENTITY, None),
    "gl3osc.criteria.amplified_battery": (IDENTITY, None),
    "gl3osc.criteria.stationary_phase_battery": (IDENTITY, None),
    "gl3osc.criteria.local_zeta_battery": (IDENTITY, None),
    "gl3osc.criteria.bump_battery": (MELLIN, None),
    "gl3osc.criteria.gamma_battery": (MELLIN, None),
    "gl3osc.criteria.route_battery": (ROUTES, None),
    "gl3osc.criteria.coeff_battery": (ROUTES, None),
}

BATTERIES = ("key_identity", "amplified", "stationary_phase", "local_zeta",
             "bump", "gamma", "route", "coeff")


def _resolve(binding: str):
    """(owner, attribute, current value) of a dotted binding name."""
    parts = binding.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
            break
        except ModuleNotFoundError:
            continue
    else:
        raise TraceError(f"binding {binding} is missing: no such module")
    for part in parts[split:-1]:
        owner = getattr(owner, part, None)
    space = vars(owner) if owner is not None else {}
    if parts[-1] not in space:
        raise TraceError(f"binding {binding} is missing")
    return owner, parts[-1], space[parts[-1]]


def _wrapper(fn, stat: Stat, hook):
    def traced(*args, **kwargs):
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            stat.seconds += time.perf_counter() - started
            stat.calls += 1
        if hook is not None:
            hook(stat, args, kwargs, result)
        return result

    return traced


class Tracer:
    """Wraps every binding of BINDINGS for the rounds run under `active`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.targets = [(name, *_resolve(name)) for name in BINDINGS]
        self.stats = {}

    @contextmanager
    def active(self):
        """Trace one round; the stats start from zero."""
        self.stats = {name: Stat() for name in BINDINGS}
        for name, owner, attr, original in self.targets:
            hook = BINDINGS[name][1]
            if isinstance(original, classmethod):
                patched = classmethod(_wrapper(original.__func__, self.stats[name], hook))
            else:
                patched = _wrapper(original, self.stats[name], hook)
            setattr(owner, attr, patched)
        try:
            yield
        finally:
            for name, owner, attr, original in reversed(self.targets):
                setattr(owner, attr, original)
        for name, (workloads, _) in BINDINGS.items():
            if self.workload in workloads and self.stats[name].calls == 0:
                raise TraceError(
                    f"binding {name} recorded no call on workload {self.workload}")

    def metrics(self, checks) -> dict:
        """The per-layer metrics of the last traced round, by name."""
        st = self.stats

        def total(field, *names):
            return sum(getattr(st[f"gl3osc.{n}"], field) for n in names)

        phase = ("oscquad.integrate_phase", "whittaker.integrate_phase")
        kahan = ("oscquad.kahan_csum", "keyident.kahan_csum",
                 "sums.kahan_csum", "gammafactor.kahan_csum")
        mellin = ("cutoffs.mellin_on_line", "gammafactor.mellin_on_line")
        evaluations = total("items", *phase)
        osc_s = total("seconds", *phase)
        grid_s = total("seconds", "oscquad.PanelGrid")
        reduce_s = total("seconds", "oscquad.PanelGrid.reduce")
        headroom = [c.residual / c.budget for c in checks if c.budget > 0.0]
        out = {
            "oscquad.calls": total("calls", *phase),
            "oscquad.grids": total("calls", "oscquad.PanelGrid"),
            "oscquad.evaluations": evaluations,
            "oscquad.useful_eval_ratio":
                16.0 * total("panels", *phase) / evaluations if evaluations else 0.0,
            "oscquad.s": osc_s,
            "oscquad.grid_s": grid_s,
            "oscquad.reduce_s": reduce_s,
            "oscquad.integrand_s": osc_s - grid_s - reduce_s,
            "util.kahan.calls": total("calls", *kahan),
            "util.kahan.values": total("items", *kahan),
            "util.kahan.s": total("seconds", *kahan),
            "keyident.shifted_integrals": total("calls", "keyident.integrate_shifted"),
            "keyident.dual_sum_s": total("seconds", "keyident._poisson_terms"),
            "keyident.riemann_s": total("seconds", "keyident.riemann_side"),
            "keyident.r_max": total("peak", "keyident._poisson_terms"),
            "sums.sum_route_s": total("seconds", "sums.s_sum_form"),
            "sums.integral_route_s": total("seconds", "sums._integral_route"),
            "sums.keyident_route_s": total("seconds", "sums._keyident_route"),
            "sums.window_terms": total("calls", "sums.integrate_main",
                                       "sums.amplified_average"),
            "cutoffs.mellin_line.calls": total("calls", *mellin),
            "cutoffs.mellin_line.ordinates": total("items", *mellin),
            "cutoffs.mellin_line.s": total("seconds", *mellin),
            "cutoffs.mellin_invert.s": total("seconds", "criteria.mellin_invert"),
            "gammafactor.g_kernel.calls": total("calls", "criteria.g_kernel"),
            "gammafactor.g_kernel.s": total("seconds", "criteria.g_kernel"),
            "gammafactor.f_line_mass.s": total("seconds", "criteria.f_line_mass"),
            "gammafactor.contour_shells": total("calls", "gammafactor.kahan_csum"),
            "gammafactor.contour_nodes": total("items", "gammafactor.kahan_csum"),
            "gammafactor.gamma_line.s": total("seconds", "gammafactor.gamma_pi_line"),
            "gammafactor.table.build_s": total("seconds", "gammafactor.GKernelTable.build"),
            "gammafactor.table.nodes": total("items", "gammafactor.GKernelTable.build"),
            "gammafactor.table.max_rel_error": total("peak", "gammafactor.GKernelTable.build"),
            "whittaker.local_zeta.calls": total("calls", "whittaker.local_zeta"),
            "whittaker.local_zeta.s": total("seconds", "whittaker.local_zeta"),
            "coeffs.synth_s": total("seconds", "criteria.synth_eisenstein"),
            "coeffs.hecke_s": total("seconds", "criteria.hecke_mult_check"),
            "coeffs.csv_s": total("seconds", "criteria.save_coefficients",
                                  "criteria.load_coefficients"),
        }
        for battery in BATTERIES:
            out[f"criteria.{battery}.s"] = total("seconds", f"criteria.{battery}_battery")
        out["criteria.worst_headroom"] = max(headroom, default=0.0)
        return out
