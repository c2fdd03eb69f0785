"""Report containers and JSON/CSV emission for the verification CLI.

A report records one command deterministically: the inputs it read, computed
outputs (complex values as {"re", "im"} pairs), and named checks, each with
a nonnegative residual, an error budget, and a pass flag. Serialization is
lossless for finite floats (repr round-trip through json) and the canonical
form excludes wall-clock timing, so repeated runs compare byte-identical.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1


def encode_value(v):
    """JSON-ready form: complex becomes {"re", "im"}, containers recurse.

    numpy scalars and arrays are demoted to their Python equivalents so the
    canonical serialization never depends on which code path produced a
    number.
    """
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, complex):
        return {"re": float(v.real), "im": float(v.imag)}
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [encode_value(x) for x in v]
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    raise ConfigError(f"cannot encode {type(v).__name__} into a report")


@dataclass(frozen=True)
class Check:
    """One named assertion: residual measured against an error budget."""

    check_id: str
    description: str
    residual: float
    budget: float

    def __post_init__(self):
        if not self.check_id:
            raise ConfigError("check_id must be non-empty")
        # plain floats keep the pass flag a Python bool and json-safe
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "budget", float(self.budget))
        if not math.isfinite(self.residual) or not math.isfinite(self.budget):
            raise ConfigError("residuals and budgets must be finite")
        if self.residual < 0.0:
            raise ConfigError("residuals are magnitudes, must be >= 0")

    @property
    def passed(self) -> bool:
        return self.residual <= self.budget


@dataclass(frozen=True)
class Report:
    """Deterministic outcome of one command plus non-canonical timing."""

    command: str
    inputs: dict
    outputs: dict
    checks: tuple
    wall_time_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return c.check_id
        return None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": encode_value(self.inputs),
            "outputs": encode_value(self.outputs),
            "check_order": [c.check_id for c in self.checks],
            "descriptions": {c.check_id: c.description for c in self.checks},
            "residuals": {c.check_id: c.residual for c in self.checks},
            "error_budgets": {c.check_id: c.budget for c in self.checks},
            "passed": {c.check_id: c.passed for c in self.checks},
            "all_passed": self.passed,
            "first_failure": self.first_failure,
            "wall_time_ms": self.wall_time_ms,
        }

    def canonical_json(self) -> str:
        """Serialized form with timing stripped; byte-identical across runs."""
        d = self.to_dict()
        del d["wall_time_ms"]
        return json.dumps(d, sort_keys=True, indent=2) + "\n"

    def write_json(self, path) -> None:
        """Write the canonical form; timing stays on stderr, not in files."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.canonical_json())


def write_table_csv(path, header, rows) -> None:
    """Scaling-study style table; floats via repr so reloads are exact."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
