"""Command-line front end: configuration, dispatch, JSON/CSV reporting.

Each command runs one named battery and emits a deterministic report; the
`suite` command runs the whole battery in dependency order (cutoff goldens
and coefficients first, integral laws, then the heavy sum routes) and keeps
going after the first failure. Exit codes: 0 all checks pass, 1 assertion
failure, 2 configuration error, 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass

from . import criteria
from .coeffs import load_coefficients
from .errors import (ConfigError, GL3OscError, GammaPoleError,
                     MellinDivergenceError, TailNotConvergedError,
                     ToleranceUnreachableError)
from .reports import Check, Report, write_table_csv
from .whittaker import K_ZETA_REL, LocalZetaParams, c_constant, local_zeta

COMMANDS = ("bump", "oscint", "zeta-local", "gamma", "key-identity",
            "amplified", "scaling", "coeffs", "s-sum", "suite")

# per-command fallbacks; an explicit --t / --tol wins
DEFAULT_T = {"s-sum": 200.0}
DEFAULT_TOL = {"zeta-local": 1e-10, "scaling": 1e-10, "oscint": 1e-10,
               "gamma": 1e-10, "s-sum": 1e-6}
FALLBACK_T = 500.0
FALLBACK_TOL = 1e-9


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
                f"unknown command {self.command!r}; choose from {COMMANDS}")
        if self.T <= 10.0:
            raise ConfigError("T must exceed 10 (desk-scale asymptotics)")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if not 0.0 <= self.kappa <= 1.5:
            raise ConfigError("kappa must lie in [0, 3/2]")
        if self.c1 <= 0.0:
            raise ConfigError("c1 must be positive")
        if self.grid is not None:
            if len(self.grid) < 2:
                raise ConfigError("grid needs at least two T values")
            if any(t <= 10.0 for t in self.grid):
                raise ConfigError("grid values must exceed 10")


def _load_table(config: RunConfig):
    return (load_coefficients(config.coeff_path)
            if config.coeff_path else None)


def _cmd_bump(config: RunConfig):
    return criteria.bump_battery(c1=config.c1)


def _cmd_oscint(config: RunConfig):
    grid = config.grid or criteria.SCALING_T_GRID
    return criteria.stationary_phase_battery(grid, tol=config.tol)


def _cmd_zeta_local(config: RunConfig):
    """Single-T check of Z against its stationary-phase constant."""
    z = local_zeta(LocalZetaParams(T=config.T, c1=config.c1), tol=config.tol)
    lead = c_constant(config.T, config.c1) * config.T**-0.5
    resid = abs(z.value - lead)
    outputs = {"z": z.value, "leading": lead,
               "normalized": abs(z.value) * config.T**0.5}
    checks = (Check("zeta-local-residual",
                    "|Z - C_T T^(-1/2)| within the calibrated K/T envelope",
                    resid, (K_ZETA_REL / config.T) * abs(lead)),)
    return outputs, checks


def _cmd_gamma(config: RunConfig):
    grid = config.grid or criteria.SCALING_T_GRID
    return criteria.gamma_battery(grid, kernel_t=config.T, tol=config.tol)


def _cmd_key_identity(config: RunConfig):
    return criteria.key_identity_battery((config.T,), tol=config.tol)


def _cmd_amplified(config: RunConfig):
    return criteria.amplified_battery(config.T, tol=config.tol,
                                      kappa=config.kappa)


def _cmd_scaling(config: RunConfig):
    grid = config.grid or criteria.SCALING_T_GRID
    if len(grid) < 3:
        raise ConfigError("scaling slopes need at least 3 grid points")
    return criteria.local_zeta_battery(grid, tol=config.tol, c1=config.c1)


def _cmd_coeffs(config: RunConfig):
    return criteria.coeff_battery(seed=config.seed, table=_load_table(config))


def _cmd_s_sum(config: RunConfig):
    return criteria.route_battery(T=config.T, tol=config.tol,
                                  table=_load_table(config),
                                  amp_kappa=config.kappa)


DISPATCH = {
    "bump": _cmd_bump,
    "oscint": _cmd_oscint,
    "zeta-local": _cmd_zeta_local,
    "gamma": _cmd_gamma,
    "key-identity": _cmd_key_identity,
    "amplified": _cmd_amplified,
    "scaling": _cmd_scaling,
    "coeffs": _cmd_coeffs,
    "s-sum": _cmd_s_sum,
}

# dependency order: goldens and coefficients first, pointwise integral laws
# next, the heavy cross-route sums last
SUITE_ORDER = ("bump", "coeffs", "oscint", "scaling", "gamma",
               "key-identity", "amplified", "s-sum")


def _run_suite(config: RunConfig):
    """Every command at its own canonical T and tol; shared flags propagate."""
    outputs = {}
    checks = []
    for name in SUITE_ORDER:
        sub = RunConfig(command=name, T=DEFAULT_T.get(name, FALLBACK_T),
                        tol=DEFAULT_TOL.get(name, FALLBACK_TOL),
                        kappa=config.kappa, c1=config.c1,
                        coeff_path=config.coeff_path, seed=config.seed,
                        grid=config.grid)
        sub_out, sub_checks = DISPATCH[name](sub)
        outputs[name] = sub_out
        checks.extend(sub_checks)
    return outputs, tuple(checks)


def run(config: RunConfig) -> Report:
    """Execute one command and assemble its report (no I/O)."""
    started = time.perf_counter()
    if config.command == "suite":
        outputs, checks = _run_suite(config)
    else:
        outputs, checks = DISPATCH[config.command](config)
    wall_ms = 1000.0 * (time.perf_counter() - started)
    inputs = asdict(config)
    del inputs["out_path"]  # where the report lands is not part of what ran
    return Report(command=config.command, inputs=inputs,
                  outputs=outputs, checks=tuple(checks),
                  wall_time_ms=wall_ms)


def _write_artifacts(config: RunConfig, report: Report) -> None:
    if config.out_path is None:
        return
    report.write_json(config.out_path)
    if config.command == "scaling":
        out = report.outputs
        rows = list(zip(config.grid or criteria.SCALING_T_GRID,
                        out["normalized"]))
        write_table_csv(str(config.out_path) + ".csv",
                        ("T", "normalized_abs_z"), rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3osc",
        description="desk-scale verification of the oscillatory-integral "
                    "identities and asymptotics behind a GL(3) t-aspect "
                    "subconvexity argument")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--t", type=float, default=None,
                        help="frequency T (default 500; s-sum defaults to 200)")
    parser.add_argument("--tol", type=float, default=None,
                        help="quadrature tolerance (per-command default)")
    parser.add_argument("--kappa", type=float, default=1.0 / 18.0,
                        help="amplifier exponent kappa in [0, 3/2]")
    parser.add_argument("--c1", type=float, default=1.0,
                        help="bump support parameter c1 > 0")
    parser.add_argument("--coeffs", dest="coeff_path", default=None,
                        help="coefficient CSV path (default: synthesize d3)")
    parser.add_argument("--out", dest="out_path", default=None,
                        help="JSON report path (scaling also writes .csv)")
    parser.add_argument("--seed", type=int, default=20260814,
                        help="seed for randomized spot checks")
    parser.add_argument("--grid", type=str, default=None,
                        help="comma-separated T grid for scaling studies")
    return parser


def config_from_args(args) -> RunConfig:
    grid = None
    if args.grid is not None:
        try:
            grid = tuple(float(part) for part in args.grid.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --grid value: {exc}") from None
    t = args.t if args.t is not None else DEFAULT_T.get(args.command, FALLBACK_T)
    tol = (args.tol if args.tol is not None
           else DEFAULT_TOL.get(args.command, FALLBACK_TOL))
    return RunConfig(command=args.command, T=t, tol=tol, kappa=args.kappa,
                     c1=args.c1, coeff_path=args.coeff_path,
                     out_path=args.out_path, seed=args.seed, grid=grid)


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
