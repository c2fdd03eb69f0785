"""Coefficient tables: ingestion, a synthetic multiplicative model, and
growth/symmetry diagnostics.

The synthetic model is the triple-divisor sum

    a(1, n) = sum_{d1 d2 d3 = n} d1^a1 d2^a2 d3^a3

with purely imaginary exponents, built by two Dirichlet-convolution passes.
It is multiplicative and bounded by d3(n), so it has the growth profile the
weighted sums expect without requiring genuine spectral data.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import (
    CoefficientIndexError,
    CoefficientNormalizationError,
    CoefficientParseError,
    ConfigError,
    TableTooSmallError,
)
from .gammafactor import LanglandsParams
from .util import loglog_slope

# hard ceiling on table size; dense complex storage stays under a gigabyte
MAX_X_MAX = 10**7

# the largest Rankin-Selberg growth slope a table may show (A11-growth), and
# the largest |a(mn) - a(m) a(n)| that still counts as multiplicative
GROWTH_BOUND = 1.25
MULT_TOL = 1e-12

_HEADER = "n,re,im"


@dataclass(frozen=True)
class CoefficientTable:
    """Dense complex coefficients a(1, n) for n = 1..x_max.

    values[n] holds a(1, n); index 0 is unused padding so slices read
    naturally. Tables are immutable after construction.
    """

    values: np.ndarray
    x_max: int
    source: str

    def __post_init__(self):
        if self.x_max < 1:
            raise ConfigError("x_max must be at least 1")
        if self.x_max > MAX_X_MAX:
            raise ConfigError(f"x_max exceeds the supported maximum {MAX_X_MAX}")
        if self.values.shape != (self.x_max + 1,):
            raise ConfigError("values must have length x_max + 1")
        if self.values[1] != 1.0 + 0.0j:
            raise CoefficientNormalizationError(
                f"a(1,1) must equal 1, got {self.values[1]}")
        self.values.setflags(write=False)

    def a(self, n: int) -> complex:
        """a(1, n) with range checking."""
        if not 1 <= n <= self.x_max:
            raise CoefficientIndexError(
                f"index {n} outside the table range 1..{self.x_max}")
        return complex(self.values[n])


def _parse_row(line: str, lineno: int) -> tuple[int, complex]:
    parts = line.split(",")
    if len(parts) != 3:
        raise CoefficientParseError(
            f"expected 3 comma-separated fields, got {len(parts)}", lineno)
    try:
        n = int(parts[0])
    except ValueError:
        raise CoefficientParseError(
            f"index {parts[0]!r} is not an integer", lineno) from None
    if n < 1:
        raise CoefficientParseError(
            f"index must be a positive integer, got {n}", lineno)
    try:
        re_part, im_part = float(parts[1]), float(parts[2])
    except ValueError:
        raise CoefficientParseError(
            f"value fields must be floats, got {parts[1]!r},{parts[2]!r}",
            lineno) from None
    return n, complex(re_part, im_part)


def load_coefficients(path) -> CoefficientTable:
    """Parse a `n,re,im` CSV (header row required) into a dense table.

    Rejects malformed rows (with their line number), duplicate or missing
    indices, and tables that violate a(1,1) = 1.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    rows: dict[int, complex] = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not header_seen:
            if line != _HEADER:
                raise CoefficientParseError(
                    f"expected header {_HEADER!r}, got {line!r}", lineno)
            header_seen = True
            continue
        n, val = _parse_row(line, lineno)
        if n in rows:
            raise CoefficientIndexError(f"duplicate index {n}")
        rows[n] = val
    if not rows:
        raise CoefficientIndexError("table has no coefficient rows")
    x_max = max(rows)
    if x_max > MAX_X_MAX:
        raise ConfigError(f"x_max exceeds the supported maximum {MAX_X_MAX}")
    missing = [n for n in range(1, x_max + 1) if n not in rows]
    if missing:
        raise CoefficientIndexError(
            f"missing indices (first: {missing[0]}) below x_max {x_max}")
    values = np.zeros(x_max + 1, dtype=complex)
    for n, val in rows.items():
        values[n] = val
    return CoefficientTable(values=values, x_max=x_max, source=str(path))


def save_coefficients(table: CoefficientTable, path) -> None:
    """Write the canonical CSV form: shortest round-tripping float repr,
    LF line endings. load(save(load(p))) is bit-identical to load(p)."""
    values = table.values[1:]
    # one writelines call over a generator: the text of up to MAX_X_MAX rows
    # never sits in memory at once
    rows = (f"{n},{re!r},{im!r}\n" for n, re, im in
            zip(range(1, table.x_max + 1), values.real.tolist(), values.imag.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        fh.writelines(rows)


def _dirichlet_power_pass(acc: np.ndarray, exponent: complex) -> np.ndarray:
    """One Dirichlet convolution of acc with n -> n^exponent, each out[m]
    summed in ascending d: a slice per d <= s = isqrt(x_max), then a slice
    per cofactor j of the larger d, in descending j."""
    x_max = acc.shape[0] - 1
    ns = np.arange(x_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        powers = np.exp(exponent * np.log(ns, where=ns > 0.0,
                                          out=np.zeros_like(ns)))
    powers[0] = 0.0
    out = np.zeros_like(acc)
    s = isqrt(x_max)
    for d in range(1, s + 1):
        out[d::d] += powers[d] * acc[1:x_max // d + 1]
    for j in range(x_max // (s + 1), 0, -1):
        out[j * (s + 1):j * (x_max // j) + 1:j] += powers[s + 1:x_max // j + 1] * acc[j]
    return out


def synth_eisenstein(params: LanglandsParams, x_max: int) -> CoefficientTable:
    """Triple-divisor model a(1,n) = sum_{d1 d2 d3 = n} d1^a1 d2^a2 d3^a3."""
    if x_max < 1:
        raise ConfigError("x_max must be at least 1")
    if x_max > MAX_X_MAX:
        raise ConfigError(f"x_max exceeds the supported maximum {MAX_X_MAX}")
    for a in params.alpha:
        if a.real != 0.0:
            raise ConfigError("synthetic model needs purely imaginary alpha")
    a1, a2, a3 = params.alpha
    acc = np.zeros(x_max + 1, dtype=complex)
    ns = np.arange(x_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.log(ns, where=ns > 0.0, out=np.zeros_like(ns))
    acc[1:] = np.exp(a1 * logs[1:])
    acc = _dirichlet_power_pass(acc, a2)
    acc = _dirichlet_power_pass(acc, a3)
    label = ",".join(f"{a.imag:g}i" for a in params.alpha)
    return CoefficientTable(values=acc, x_max=x_max,
                            source=f"synthetic({label})")


@dataclass(frozen=True)
class GrowthReport:
    """Log-log slope of the partial absolute sums against the cut X."""

    x_points: tuple
    partial_sums: tuple
    slope: float
    bound: float
    passed: bool


def rankin_selberg_check(table: CoefficientTable) -> GrowthReport:
    """Fit sum_{n <= X} |a(1,n)| ~ X^slope on four dyadic cuts of x_max.

    Near-linear growth (slope just above 1, logarithmic corrections) is the
    expected profile; a slope above the bound flags a table whose size the
    averaged-sum envelopes cannot absorb. The bound is GROWTH_BOUND.
    """
    if table.x_max < 1000:
        raise TableTooSmallError(
            "growth fit needs x_max >= 1000 for meaningful cuts")
    cumulative = np.cumsum(np.abs(table.values))
    xs = tuple(table.x_max // k for k in (8, 4, 2, 1))
    sums = tuple(float(cumulative[x]) for x in xs)
    slope, _ = loglog_slope(xs, sums)
    return GrowthReport(x_points=xs, partial_sums=sums, slope=slope,
                        bound=GROWTH_BOUND, passed=slope <= GROWTH_BOUND)


@dataclass(frozen=True)
class MultReport:
    """Multiplicativity audit over random coprime index pairs."""

    trials: int
    tested: int
    skipped: int
    violations: int
    max_abs_error: float


def hecke_mult_check(table: CoefficientTable, trials: int,
                     seed: int = 0) -> MultReport:
    """Check a(1, m*n) = a(1, m) a(1, n) on random coprime pairs.

    Pairs are drawn with m*n <= x_max; non-coprime draws are skipped, not
    counted as failures. An error above MULT_TOL is a violation;
    multiplicative tables must report zero violations.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if table.x_max < 6:
        raise TableTooSmallError("need x_max >= 6 for a coprime pair")
    rng = np.random.default_rng(seed)
    tested = skipped = violations = 0
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, table.x_max // 2))
        n = int(rng.integers(2, max(3, table.x_max // m + 1)))
        if m * n > table.x_max or np.gcd(m, n) != 1:
            skipped += 1
            continue
        err = abs(table.a(m * n) - table.a(m) * table.a(n))
        worst = max(worst, err)
        tested += 1
        if err > MULT_TOL:
            violations += 1
    return MultReport(trials=trials, tested=tested, skipped=skipped,
                      violations=violations, max_abs_error=worst)
