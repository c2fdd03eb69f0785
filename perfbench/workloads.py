"""The benchmark's workloads: which batteries run, at which inputs.

A workload is a tuple of operations; one round runs each of them once, in
order. An operation is one battery call (or one kernel-table build) with
its inputs fixed here, so every round does the same work whatever the
seed. The seed only chooses the points at which `references` compares
the program against computations made apart from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gl3osc import criteria, gammafactor
from gl3osc.reports import Check


@dataclass(frozen=True)
class Operation:
    """One timed call. `report` turns its result into (outputs, checks)."""

    name: str
    inputs: dict
    call: Callable[[], object]
    report: Callable[[object], tuple] = lambda result: result


# --- identity: many short shifted integrals, no Mellin call -----------------

KEY_T_VALUES = (250.0, 500.0, 1000.0)
KEY_PAIRS = ((5, 3), (7, 2), (11, 3))
KEY_TOL = 1e-9
AMPLIFIED_T = 500.0
SCALING_T_GRID = (250.0, 500.0, 1000.0, 2000.0)
STRIP_TS = (250.0, 1000.0)
SP_TOL = 1e-10
ZETA_TOL = 1e-10

# --- mellin: Mellin lines, contour shells and the kernel table --------------

GAMMA_KERNEL_T = 500.0
GAMMA_TOL = 1e-10
TABLE_Z = (0.5, 2.0)
TABLE_T = 100.0

# --- routes: the three routes on the d3 model, and coefficient hygiene ------

# The lowest T at which AmplifierSpec.for_t accepts kappa = 1/18 (the two
# dyadic segments touch at T^(1/6) = 2); A10 at the canonical T = 200 takes
# minutes per round.
ROUTE_T = 64.0
ROUTE_TOL = 1e-6
COEFF_X_MAX = 100_000
COEFF_TRIALS = 200
COEFF_SEED = 20260814


def _table_report(table) -> tuple[dict, tuple]:
    """Canonical content of a kernel table: its grid, splines and check."""
    outputs = {
        "grid": table.grid,
        "re_spline": table._re.c.ravel(),
        "im_spline": table._im.c.ravel(),
        "max_rel_error": table.max_rel_error,
    }
    checks = (Check("table-validation",
                    "spline against direct contour values at 10 seeded z",
                    table.max_rel_error, 0.02),)
    return outputs, checks


def _battery(name: str, **inputs) -> Operation:
    """A criteria battery, looked up at call time so a trace can wrap it."""
    return Operation(name=name, inputs=inputs,
                     call=lambda: getattr(criteria, f"{name}_battery")(**inputs))


WORKLOADS = {
    "identity": (
        _battery("key_identity", t_values=KEY_T_VALUES, pairs=KEY_PAIRS,
                 tol=KEY_TOL),
        _battery("amplified", T=AMPLIFIED_T, tol=KEY_TOL),
        _battery("stationary_phase", t_values=SCALING_T_GRID, tol=SP_TOL),
        _battery("local_zeta", t_grid=SCALING_T_GRID, strip_ts=STRIP_TS,
                 tol=ZETA_TOL),
    ),
    "mellin": (
        _battery("bump", c1=1.0),
        _battery("gamma", t_grid=SCALING_T_GRID, kernel_t=GAMMA_KERNEL_T,
                 tol=GAMMA_TOL),
        Operation(name="kernel_table",
                  inputs={"z_lo": TABLE_Z[0], "z_hi": TABLE_Z[1], "T": TABLE_T},
                  call=lambda: gammafactor.GKernelTable.build(*TABLE_Z, TABLE_T),
                  report=_table_report),
    ),
    "routes": (
        _battery("route", T=ROUTE_T, tol=ROUTE_TOL),
        _battery("coeff", x_max=COEFF_X_MAX, trials=COEFF_TRIALS,
                 seed=COEFF_SEED),
    ),
}


@dataclass(frozen=True)
class CheckPoints:
    """Seeded points for the independent references of one workload."""

    key_t: float
    key_pair: tuple
    gamma_s: tuple
    mellin_t: tuple
    table_z: tuple
    d3_sample: np.ndarray


def check_points(seed: int) -> CheckPoints:
    """Draw every workload's reference points from one seeded generator."""
    rng = np.random.default_rng(seed)
    return CheckPoints(
        key_t=KEY_T_VALUES[int(rng.integers(len(KEY_T_VALUES)))],
        key_pair=KEY_PAIRS[int(rng.integers(len(KEY_PAIRS)))],
        gamma_s=tuple(complex(a, b) for a, b in zip(rng.uniform(-1.0, 1.0, 4),
                                                    rng.uniform(-60.0, 60.0, 4))),
        mellin_t=tuple(float(t) for t in rng.uniform(-48.0, 48.0, 3)),
        table_z=tuple(float(z) for z in rng.uniform(*TABLE_Z, 1)),
        d3_sample=rng.integers(1, COEFF_X_MAX + 1, 200),
    )
