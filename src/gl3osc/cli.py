"""Command-line front end: configuration, dispatch, JSON/CSV reporting.

Each command runs one named battery and emits a deterministic report; the
`suite` command runs the whole battery in dependency order (cutoff goldens
and coefficients first, integral laws, then the heavy sum routes) and keeps
going after the first failure. Every command is declared once, in COMMANDS:
the flags it reads besides --out (any other flag exits 2), its battery, and
the T and tol it runs at unless --t / --tol say otherwise. Exit codes: 0 all
checks pass, 1 assertion failure, 2 configuration error (an ignored flag or
an --out that cannot be written included), 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import criteria
from .coeffs import load_coefficients
from .errors import (ConfigError, GL3OscError, GammaPoleError,
                     MellinDivergenceError, TailNotConvergedError,
                     ToleranceUnreachableError)
from .reports import Report, write_table_csv

FALLBACK_T = 500.0
FALLBACK_TOL = 1e-9

# the RunConfig field (and parser dest) each optional flag but --out sets
FLAG_DESTS = {"--t": "T", "--tol": "tol", "--kappa": "kappa", "--c1": "c1",
              "--coeffs": "coeff_path", "--seed": "seed", "--grid": "grid"}


@dataclass(frozen=True)
class Command:
    """One command: the flags it reads besides --out, the battery it runs on
    a RunConfig, and its T and tol when --t / --tol are not given."""

    reads: tuple
    battery: Callable
    T: float = FALLBACK_T
    tol: float = FALLBACK_TOL


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation."""

    command: str
    T: float = FALLBACK_T
    tol: float = FALLBACK_TOL
    kappa: float = 1.0 / 18.0
    c1: float = 1.0
    coeff_path: str | None = None
    out_path: str | None = None
    seed: int = 20260814
    grid: tuple | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(
                f"unknown command {self.command!r}; choose from {tuple(COMMANDS)}")
        # NaN passes every comparison below and inf most of them
        for name, value in (("T", self.T), ("tol", self.tol), ("kappa", self.kappa),
                            ("c1", self.c1), *(("grid", t) for t in self.grid or ())):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, not {value}")
        if self.T <= 10.0:
            raise ConfigError("T must exceed 10 (desk-scale asymptotics)")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if not 0.0 <= self.kappa <= 1.5:
            raise ConfigError("kappa must lie in [0, 3/2]")
        if self.c1 <= 0.0:
            raise ConfigError("c1 must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.grid is not None:
            if len(self.grid) < 2:
                raise ConfigError("grid needs at least two T values")
            if any(t <= 10.0 for t in self.grid):
                raise ConfigError("grid values must exceed 10")


def _grid(config: RunConfig):
    return config.grid or criteria.SCALING_T_GRID


def _load_table(config: RunConfig):
    return (load_coefficients(config.coeff_path)
            if config.coeff_path else None)


def _scaling(config: RunConfig):
    grid = _grid(config)
    if len(grid) < 3:
        raise ConfigError("scaling slopes need at least 3 grid points")
    return criteria.local_zeta_battery(grid, tol=config.tol, c1=config.c1)


def _run_suite(config: RunConfig):
    """Every command at its own canonical T and tol; shared flags propagate."""
    outputs = {}
    checks = []
    for name in SUITE_ORDER:
        command = COMMANDS[name]
        sub = RunConfig(command=name, T=command.T, tol=command.tol,
                        kappa=config.kappa, c1=config.c1,
                        coeff_path=config.coeff_path, seed=config.seed,
                        grid=config.grid)
        sub_out, sub_checks = command.battery(sub)
        outputs[name] = sub_out
        checks.extend(sub_checks)
    return outputs, tuple(checks)


# the batteries are looked up on `criteria` at call time
COMMANDS = {
    "bump": Command(("--c1",), lambda c: criteria.bump_battery(c1=c.c1)),
    "oscint": Command(
        ("--tol", "--grid"),
        lambda c: criteria.stationary_phase_battery(_grid(c), tol=c.tol), tol=1e-10),
    "zeta-local": Command(
        ("--t", "--tol", "--c1"),
        lambda c: criteria.zeta_point_battery(c.T, c.tol, c.c1), tol=1e-10),
    "gamma": Command(
        ("--t", "--tol", "--grid"),
        lambda c: criteria.gamma_battery(_grid(c), kernel_t=c.T, tol=c.tol), tol=1e-10),
    "key-identity": Command(
        ("--t", "--tol"), lambda c: criteria.key_identity_battery((c.T,), tol=c.tol)),
    "amplified": Command(
        ("--t", "--tol", "--kappa"),
        lambda c: criteria.amplified_battery(c.T, tol=c.tol, kappa=c.kappa)),
    "scaling": Command(("--tol", "--c1", "--grid"), _scaling, tol=1e-10),
    "coeffs": Command(
        ("--coeffs", "--seed"),
        lambda c: criteria.coeff_battery(seed=c.seed, table=_load_table(c))),
    "s-sum": Command(
        ("--t", "--tol", "--kappa", "--coeffs"),
        lambda c: criteria.route_battery(T=c.T, tol=c.tol, table=_load_table(c),
                                         amp_kappa=c.kappa),
        T=200.0, tol=1e-6),
    # runs every command at its own T and tol, and hands the rest on
    "suite": Command(("--kappa", "--c1", "--coeffs", "--seed", "--grid"), _run_suite),
}

# dependency order: goldens and coefficients first, pointwise integral laws
# next, the heavy cross-route sums last
SUITE_ORDER = ("bump", "coeffs", "oscint", "scaling", "gamma",
               "key-identity", "amplified", "s-sum")


def run(config: RunConfig) -> Report:
    """Execute one command and assemble its report (no I/O)."""
    started = time.perf_counter()
    command = COMMANDS[config.command]
    outputs, checks = command.battery(config)
    wall_ms = 1000.0 * (time.perf_counter() - started)
    # only what the command reads: a default it never looks at is no input
    inputs = {FLAG_DESTS[flag]: getattr(config, FLAG_DESTS[flag])
              for flag in command.reads}
    return Report(command=config.command, inputs=inputs,
                  outputs=outputs, checks=tuple(checks),
                  wall_time_ms=wall_ms)


def _write_artifacts(config: RunConfig, report: Report) -> None:
    if config.out_path is None:
        return
    try:
        report.write_json(config.out_path)
        if config.command == "scaling":
            rows = list(zip(_grid(config), report.outputs["normalized"]))
            write_table_csv(str(config.out_path) + ".csv",
                            ("T", "normalized_abs_z"), rows)
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3osc",
        description="desk-scale verification of the oscillatory-integral "
                    "identities and asymptotics behind a GL(3) t-aspect "
                    "subconvexity argument")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--t", dest="T", type=float, default=None,
                        help="frequency T (default 500; s-sum defaults to 200)")
    parser.add_argument("--tol", type=float, default=None,
                        help="quadrature tolerance (per-command default)")
    parser.add_argument("--kappa", type=float, default=None,
                        help="amplifier exponent kappa in [0, 3/2] (default 1/18)")
    parser.add_argument("--c1", type=float, default=None,
                        help="bump support parameter c1 > 0 (default 1)")
    parser.add_argument("--coeffs", dest="coeff_path", default=None,
                        help="coefficient CSV path (default: synthesize d3)")
    parser.add_argument("--out", dest="out_path", default=None,
                        help="JSON report path (scaling also writes .csv)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized spot checks (default 20260814)")
    parser.add_argument("--grid", type=str, default=None,
                        help="comma-separated T grid for scaling studies")
    return parser


def config_from_args(args) -> RunConfig:
    """The RunConfig of a parsed command line; a flag the command does not
    read is a ConfigError that names it."""
    command = COMMANDS[args.command]
    ignored = [flag for flag, dest in FLAG_DESTS.items()
               if getattr(args, dest) is not None and flag not in command.reads]
    if ignored:
        raise ConfigError(f"{args.command} does not read {', '.join(ignored)}")
    grid = None
    if args.grid is not None:
        try:
            grid = tuple(float(part) for part in args.grid.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --grid value: {exc}") from None
    t = args.T if args.T is not None else command.T
    tol = args.tol if args.tol is not None else command.tol
    given = {name: getattr(args, name) for name in ("kappa", "c1", "seed")
             if getattr(args, name) is not None}
    return RunConfig(command=args.command, T=t, tol=tol,
                     coeff_path=args.coeff_path, out_path=args.out_path,
                     grid=grid, **given)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
        _write_artifacts(config, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceUnreachableError, TailNotConvergedError,
            MellinDivergenceError, GammaPoleError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except GL3OscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        print(f"{tag} {check.check_id}: residual {check.residual:.6e} "
              f"<= budget {check.budget:.6e} -- {check.description}")
    print(f"{'all checks passed' if report.passed else 'FAILED'} "
          f"({len(report.checks)} checks)")
    print(f"wall time {report.wall_time_ms:.0f} ms", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
