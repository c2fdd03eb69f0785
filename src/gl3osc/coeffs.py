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
from itertools import repeat
from math import isqrt

import numpy as np

from .errors import (
    CoefficientError,
    CoefficientIndexError,
    CoefficientNormalizationError,
    CoefficientParseError,
    ConfigError,
    TableTooSmallError,
)
from .gammafactor import LanglandsParams
from .util import loglog_slope

# hard ceiling on table size: the dense complex table is 160 MB there, and a
# load peaks at about 50 traced bytes per row, 500 MB
MAX_X_MAX = 10**7

# the largest Rankin-Selberg growth slope a table may show (A11-growth), and
# the largest |a(mn) - a(m) a(n)| that still counts as multiplicative
GROWTH_BOUND = 1.25
MULT_TOL = 1e-12

_HEADER = "n,re,im"

# bytes of CSV text parsed per block, and rows formatted per block of a save
# (about the same text): a block's lines, fields and parsed arrays stay under
# a megabyte, and a 100,000-row table is about 70 blocks. Blocks of 1 MB
# raised A11's peak RSS by about 15 MB and saved no time.
_CSV_BLOCK = 1 << 16
_SAVE_ROWS = 1024


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


def _line_blocks(fh):
    """Yield (number of the first line, lines) for runs of whole lines of a
    binary file, read _CSV_BLOCK bytes at a time and split on "\n" alone.

    A block is cut after its last "\n", so no UTF-8 sequence straddles two
    blocks, and a line longer than a block gathers in `pending`."""
    lineno = 1
    pending = bytearray()
    while chunk := fh.read(_CSV_BLOCK):
        head, newline, tail = chunk.rpartition(b"\n")
        if not newline:
            pending += chunk
            continue
        pending += head
        lines = _decode(pending, lineno).split("\n")
        yield lineno, lines
        lineno += len(lines)
        pending = bytearray(tail)
    yield lineno, _decode(pending, lineno).split("\n")


def _decode(data: bytearray, lineno: int) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CoefficientParseError(
            f"bytes that are not UTF-8 ({exc.reason})",
            lineno + data.count(b"\n", 0, exc.start)) from None


def _parse_rows(rows: list,
                header_seen: bool) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of one block's stripped, non-blank lines (the
    header first, unless it was seen), in C-level passes over the whole
    list. Raises ValueError or OverflowError where some line needs
    `_parse_lines` to be refused (or, past int64, kept)."""
    if not header_seen:
        if rows[0] != _HEADER:
            raise ValueError("no header")
        del rows[0]
        if not rows:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
    if set(map(str.count, rows, repeat(","))) - {2}:
        raise ValueError("a row without 3 fields")
    fields = ",".join(rows).split(",")
    ns = np.fromiter(map(int, fields[::3]), dtype=np.int64, count=len(rows))
    if ns.min() < 1:
        raise ValueError("an index below 1")
    del fields[::3]
    values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    return ns, values.view(complex)


def _parse_lines(lines: list, lineno: int,
                 header_seen: bool) -> tuple[np.ndarray, np.ndarray]:
    """The per-row parse of one block, for a block `_parse_rows` refused:
    raises the refusal of its first bad line. A block with no bad line
    holds an index past int64; it is kept as MAX_X_MAX + 1, so the checks
    after the last block refuse it."""
    rows = []
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line:
            continue
        if not header_seen:
            if line != _HEADER:
                raise CoefficientParseError(
                    f"expected header {_HEADER!r}, got {line!r}", lineno)
            header_seen = True
            continue
        rows.append(_parse_row(line, lineno))
    ns = np.array([min(n, MAX_X_MAX + 1) for n, _ in rows], dtype=np.int64)
    return ns, np.array([val for _, val in rows], dtype=complex)


def _check_indices(index_blocks: list) -> int:
    """x_max of a table whose blocks hold these indices (all >= 1, in file
    order), or the refusal of an index past MAX_X_MAX, a duplicate (the
    first repeat in file order) or a gap (the smallest missing index).
    Allocates O(rows), whatever x_max the file claims."""
    if not index_blocks:
        raise CoefficientIndexError("table has no coefficient rows")
    ns = np.concatenate(index_blocks)
    x_max = int(ns.max())
    if x_max > MAX_X_MAX:
        raise ConfigError(f"x_max exceeds the supported maximum {MAX_X_MAX}")
    order = np.argsort(ns, kind="stable")
    ordered = ns[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        raise CoefficientIndexError(f"duplicate index {ns[repeats.min()]}")
    # distinct indices >= 1 are exactly 1..x_max when there are x_max of them
    if x_max != ns.size:
        first = np.flatnonzero(ordered != np.arange(1, ns.size + 1))[0] + 1
        raise CoefficientIndexError(
            f"missing indices (first: {first}) below x_max {x_max}")
    return x_max


def load_coefficients(path) -> CoefficientTable:
    """Parse a `n,re,im` CSV (header row required) into a dense table.

    Rejects an unreadable file, malformed rows and bytes that are not UTF-8
    (with their line number), duplicate or missing indices, and tables that
    violate a(1,1) = 1. Ints and floats keep Python's own syntax (`+5`,
    `1_0`, `nan`). The file is read in blocks of _CSV_BLOCK bytes, each
    parsed in a few C-level passes; a block that fails one is parsed again
    row by row, which writes the refusal. The indices are checked before
    the dense table is allocated. A row costs about 1.5-2 us on a 2-CPU
    x86-64 machine, most of it in `float`, and a load peaks at about 50
    traced bytes per row (the table's 16 among them) plus a block.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CoefficientError(f"cannot read coefficient table: {exc}") from None
    index_blocks, value_blocks = [], []
    header_seen = False
    with fh:
        for lineno, lines in _line_blocks(fh):
            rows = list(filter(None, map(str.strip, lines)))
            if not rows:
                continue
            try:
                ns, values = _parse_rows(rows, header_seen)
            except (ValueError, OverflowError):
                ns, values = _parse_lines(lines, lineno, header_seen)
            header_seen = True
            if ns.size:
                index_blocks.append(ns)
                value_blocks.append(values)
    x_max = _check_indices(index_blocks)
    table = np.zeros(x_max + 1, dtype=complex)
    for block_ns, block_values in zip(index_blocks, value_blocks):
        table[block_ns] = block_values
    return CoefficientTable(values=table, x_max=x_max, source=str(path))


def save_coefficients(table: CoefficientTable, path) -> None:
    """Write the canonical CSV form: shortest round-tripping float repr,
    LF line endings. load(save(load(p))) is bit-identical to load(p),
    except that a NaN comes back as Python's NaN: repr writes every NaN,
    `-nan` among them, as `nan`.

    Rows are formatted _SAVE_ROWS at a time by one `str.format` call and
    written by one `write`. A row costs about 2-3 us on a 2-CPU x86-64
    machine, most of it in the floats' repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        for start in range(1, table.x_max + 1, _SAVE_ROWS):
            block = table.values[start:start + _SAVE_ROWS]
            cells = [None] * (3 * block.size)
            cells[0::3] = range(start, start + block.size)
            cells[1::3] = block.real.tolist()
            cells[2::3] = block.imag.tolist()
            fh.write(("{},{!r},{!r}\n" * block.size).format(*cells))


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
    # a float (NaN, 2.5, even 100.0) or a bool is no table size
    if isinstance(x_max, bool) or not isinstance(x_max, (int, np.integer)):
        raise ConfigError(f"x_max must be an integer, not {x_max!r}")
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
    counted as failures. An error that is not within MULT_TOL, NaN
    included, is a violation, and a NaN error makes max_abs_error NaN;
    multiplicative tables must report zero violations.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if table.x_max < 6:
        raise TableTooSmallError("need x_max >= 6 for a coprime pair")
    rng = np.random.default_rng(seed)
    skipped = 0
    errors = []
    for _ in range(trials):
        m = int(rng.integers(2, table.x_max // 2))
        n = int(rng.integers(2, max(3, table.x_max // m + 1)))
        if m * n > table.x_max or np.gcd(m, n) != 1:
            skipped += 1
            continue
        errors.append(abs(table.a(m * n) - table.a(m) * table.a(n)))
    violations = sum(not err <= MULT_TOL for err in errors)
    return MultReport(trials=trials, tested=len(errors), skipped=skipped,
                      violations=violations,
                      max_abs_error=float(np.max(errors, initial=0.0)))
