"""Tests for coefficient tables: parsing, the triple-divisor model, growth,
and the A11 battery that checks them."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3osc import coeffs, criteria
from gl3osc.coeffs import (
    _HEADER,
    MAX_X_MAX,
    CoefficientTable,
    _dirichlet_power_pass,
    GrowthReport,
    hecke_mult_check,
    load_coefficients,
    rankin_selberg_check,
    save_coefficients,
    synth_eisenstein,
)
from gl3osc.errors import (
    CoefficientIndexError,
    CoefficientNormalizationError,
    CoefficientParseError,
    ConfigError,
    GL3OscError,
    TableTooSmallError,
)
from gl3osc.gammafactor import LanglandsParams

ZERO_ALPHA = LanglandsParams(alpha=(0j, 0j, 0j))


def _table(values) -> CoefficientTable:
    arr = np.concatenate([[0.0], np.asarray(values)]).astype(complex)
    return CoefficientTable(values=arr, x_max=len(values), source="test")


def _brute_triple_sum(n: int, alpha) -> complex:
    total = 0j
    for d1 in range(1, n + 1):
        if n % d1:
            continue
        m = n // d1
        for d2 in range(1, m + 1):
            if m % d2:
                continue
            d3 = m // d2
            total += (d1 ** alpha[0]) * (d2 ** alpha[1]) * (d3 ** alpha[2])
    return total


def test_table_validation():
    with pytest.raises(ConfigError):
        CoefficientTable(values=np.array([0j]), x_max=0, source="t")
    with pytest.raises(ConfigError):
        CoefficientTable(values=np.zeros(3, dtype=complex), x_max=5, source="t")
    bad = np.array([0.0, 2.0, 1.0], dtype=complex)
    with pytest.raises(CoefficientNormalizationError):
        CoefficientTable(values=bad, x_max=2, source="t")


def test_accessor_and_entries_view():
    t = _table([1.0, 0.5 - 0.2j, 3.0])
    assert t.a(1) == 1.0
    assert t.a(2) == 0.5 - 0.2j
    assert list(t.values[1:]) == [1.0 + 0j, 0.5 - 0.2j, 3.0 + 0j]
    with pytest.raises(CoefficientIndexError):
        t.a(0)
    with pytest.raises(CoefficientIndexError):
        t.a(4)
    with pytest.raises(ValueError):
        t.values[1] = 5.0


def test_load_two_row_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("n,re,im\n1,1,0\n2,0.5,-0.2\n", encoding="utf-8")
    t = load_coefficients(p)
    assert t.x_max == 2
    assert t.a(1) == 1.0
    assert t.a(2) == 0.5 - 0.2j
    assert t.source == str(p)


# (file text, refusal class, message, .line) for a file with one fault each
REFUSALS = [
    ("", CoefficientIndexError, "table has no coefficient rows", None),
    ("n,re,im\n", CoefficientIndexError, "table has no coefficient rows", None),
    ("wrong,header,row\n1,1,0\n", CoefficientParseError,
     "line 1: expected header 'n,re,im', got 'wrong,header,row'", 1),
    ("n,re,im\n1,1\n", CoefficientParseError,
     "line 2: expected 3 comma-separated fields, got 2", 2),
    ("n,re,im\n1,1,0,0\n", CoefficientParseError,
     "line 2: expected 3 comma-separated fields, got 4", 2),
    ("n,re,im\n0,1,0\n", CoefficientParseError,
     "line 2: index must be a positive integer, got 0", 2),
    ("n,re,im\n1,1,0\n-3,1,0\n", CoefficientParseError,
     "line 3: index must be a positive integer, got -3", 3),
    ("n,re,im\n1,1,0\n1.0,1,0\n", CoefficientParseError,
     "line 3: index '1.0' is not an integer", 3),
    ("n,re,im\n1,1,0\n2,abc,0\n", CoefficientParseError,
     "line 3: value fields must be floats, got 'abc','0'", 3),
    ("\n \nn,re,im\n1,1,0\n\n2,0,abc\n", CoefficientParseError,
     "line 6: value fields must be floats, got '0','abc'", 6),
    ("n,re,im\n1,1,0\n1,2,0\n", CoefficientIndexError,
     "duplicate index 1", None),
    ("n,re,im\n1,1,0\n2,0,0\n3,0,0\n3,0,0\n2,0,0\n",
     CoefficientIndexError, "duplicate index 3", None),
    ("n,re,im\n1,1,0\n3,2,0\n", CoefficientIndexError,
     "missing indices (first: 2) below x_max 3", None),
    ("n,re,im\n1,2,0\n", CoefficientNormalizationError,
     "a(1,1) must equal 1, got (2+0j)", None),
    ("n,re,im\n1,1,0\n10000001,1,0\n", ConfigError,
     "x_max exceeds the supported maximum 10000000", None),
    ("n,re,im\n1,1,0\n99999999999999999999,1,0\n", ConfigError,
     "x_max exceeds the supported maximum 10000000", None),
    ("n,re,im\n1,1,0\n9999999,1,0\n", CoefficientIndexError,
     "missing indices (first: 2) below x_max 9999999", None),
]


def test_load_rejects_malformed_input(tmp_path):
    _assert_refusals(tmp_path / "bad.csv")


def _assert_refusals(p):
    for text, cls, message, line in REFUSALS:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(cls) as err:
            load_coefficients(p)
        assert type(err.value) is cls
        assert str(err.value) == message
        assert getattr(err.value, "line", None) == line
    p.write_bytes(b"n,re,im\r\n1,1,0\r\n\r\n2,0,\xff\r\n")
    with pytest.raises(CoefficientParseError) as err:
        load_coefficients(p)
    assert str(err.value) == "line 4: bytes that are not UTF-8 (invalid start byte)"


def _per_line_load(path):
    # the reference: the whole file as one string, one _parse_row per line
    # and a dict of rows
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    rows = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not header_seen:
            assert line == _HEADER
            header_seen = True
            continue
        n, val = coeffs._parse_row(line, lineno)
        assert n not in rows
        rows[n] = val
    x_max = max(rows)
    assert x_max <= MAX_X_MAX and all(n in rows for n in range(1, x_max + 1))
    values = np.zeros(x_max + 1, dtype=complex)
    for n, val in rows.items():
        values[n] = val
    return CoefficientTable(values=values, x_max=x_max, source=str(path))


# files the loader must read exactly as the per-line reference does
LOADER_INPUTS = {
    "crlf": "n,re,im\r\n1,1,0\r\n2,0.5,-0.25\r\n3,1e-300,2.5e300\r\n",
    "blank lines": "\n\nn,re,im\n1,1,0\n\n   \n2,3,4\n\n\n3,5,6\n\n",
    "whitespace": "  n,re,im \n\t1 , 1 ,0\n 2,\t-0.5 , 7\t\n",
    "no final newline": "n,re,im\n1,1,0\n2,0.1,0.2",
    "out of order": "n,re,im\n3,3,0\n1,1,0\n4,4,0\n2,2,0\n",
    "python syntax": ("n,re,im\n+1,1,0\n2,nan,-0.0\n3,-nan,inf\n"
                      "1_0,1_0.5,-1e-5\n4,0,0\n5,1,1\n6,2,2\n7,3,3\n8,4,4\n"
                      "9,-0.0,0.0\n"),
}


@pytest.mark.parametrize("block", [None, 7, 64])
def test_load_matches_the_per_line_reader(tmp_path, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(coeffs, "_CSV_BLOCK", block)
    p = tmp_path / "t.csv"
    tables = list(LOADER_INPUTS.values())
    save_coefficients(synth_eisenstein(LanglandsParams(), 300), p)
    tables.append(p.read_text(encoding="utf-8"))
    for text in tables:
        p.write_bytes(text.encode("utf-8"))
        got, want = load_coefficients(p), _per_line_load(p)
        assert got.x_max == want.x_max
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("block", [7, 64])
def test_load_refuses_alike_in_small_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(coeffs, "_CSV_BLOCK", block)
    _assert_refusals(tmp_path / "bad.csv")


# fields that numpy's row reader and Python's int and float could read
# apart: signs, zeros, whitespace (ASCII, Unicode and the separators
# \x1c-\x1f), nan/inf spellings, hex, underscores, non-ASCII digits, a
# "\r" between two rows, the non-ASCII letters numpy 2.4 reads as digits
# and fields past int64 or a double's range
FIELDS = ["+5", "5", " 5", "05", "5\t", "1.0", "1e3", "nan", "0x10", "5.",
          "+ 5", "True", "", "99999999999999999999", "-nan", "nAn", "inf",
          "-Infinity", "1e400", "1e-400", ".5", " 2.5 ", "0x1p3", "1.0e",
          "1d5", "1.0\x00", "1_0", "1_0.5", "\u0661", "\u0661.\u0665", "#",
          '"1"', "\x0c5", "\xa05", "-0.0", "\x1c5", "5\x1f", "\x0b5",
          "\u30005", "-9223372036854775809", "0\r9,1,0", "5\r", "\u01fe",
          "5\u0761", "1\u04ff5"]


def _outcome(p):
    try:
        table = load_coefficients(p)
    except GL3OscError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return table.values.tobytes()


def _refuse_block(rows, header_seen):
    raise ValueError("parse row by row")


def _assert_reads_as_python(p, text, monkeypatch):
    # the block reader gives the bits, or the refusal, of the loader that
    # parses every row with Python's int and float; a warning fails, so a
    # numpy that reads "1.0" as an index with a DeprecationWarning fails
    # (a filterwarnings mark also caught a warning in hypothesis's failure
    # report, which ended the pytest session)
    p.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(p)
        with monkeypatch.context() as patch:
            patch.setattr(coeffs, "_parse_rows", _refuse_block)
            want = _outcome(p)
    assert got == want, (text, got, want)
    if isinstance(want, bytes):
        assert want == _per_line_load(p).values.tobytes()


def _file_with(field, column):
    rows = [["1", "1", "0"]]
    rows += [[str(n), f"{n}.5", f"-{n}e-3"] for n in range(2, 9)]
    rows[4][column] = field
    return _HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("block", [None, 7, 64])
def test_block_reader_reads_each_field_as_python(tmp_path, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(coeffs, "_CSV_BLOCK", block)
    for i, field in enumerate(FIELDS):
        for column in range(3):
            # a file each: rewriting one path in place made this test slow
            _assert_reads_as_python(tmp_path / f"{i}-{column}.csv",
                                    _file_with(field, column), monkeypatch)


_FIELD_PARTS = st.sampled_from(
    list("0123456789+-_.e,")
    + ["nan", "inf", " ", "\t", "\x0c", "\xa0", "\x1d", "\r", "\u01fe"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.lists(_FIELD_PARTS, max_size=8).map("".join),
       column=st.integers(0, 2), block=st.sampled_from([None, 7, 64]))
def test_block_reader_reads_random_fields_as_python(tmp_path_factory, field,
                                                    column, block):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if block is not None:
            monkeypatch.setattr(coeffs, "_CSV_BLOCK", block)
        _assert_reads_as_python(tmp_path_factory.mktemp("csv") / "t.csv",
                                _file_with(field, column), monkeypatch)


@pytest.mark.parametrize("action", ["default", "error"])
def test_a_block_that_warns_is_parsed_row_by_row(tmp_path, monkeypatch,
                                                  action):
    # numpy's loadtxt from 1.23 on could read an index such as "1.0"
    # through float, with a DeprecationWarning; the row-by-row parse
    # refuses it, whether that warning is shown or raised
    loadtxt = np.loadtxt

    def float_index_loadtxt(rows, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning, stacklevel=2)
        parsed = loadtxt(rows, dtype=[("n", float), ("re_im", float, 2)],
                         **kwargs)
        return parsed.astype(dtype)

    monkeypatch.setattr(coeffs.np, "loadtxt", float_index_loadtxt)
    p = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        p.write_text("n,re,im\n1,1,0\n2.0,0.5,0\n", encoding="utf-8")
        with pytest.raises(CoefficientParseError) as err:
            load_coefficients(p)
        assert str(err.value) == "line 3: index '2.0' is not an integer"
        table = synth_eisenstein(LanglandsParams(), 300)
        save_coefficients(table, p)
        assert load_coefficients(p).values.tobytes() == table.values.tobytes()


def test_canonical_files_take_the_block_path(tmp_path, monkeypatch):
    # a silent fall back to the per-row parse would keep the bits and lose
    # the speed
    def no_row_parse(*args):
        raise AssertionError("a canonical block was parsed row by row")

    monkeypatch.setattr(coeffs, "_parse_lines", no_row_parse)
    for params in (ZERO_ALPHA, LanglandsParams()):
        table = synth_eisenstein(params, 2000)
        save_coefficients(table, tmp_path / "t.csv")
        back = load_coefficients(tmp_path / "t.csv")
        assert back.values.tobytes() == table.values.tobytes()


def test_load_memory_stays_bounded(tmp_path):
    table = synth_eisenstein(LanglandsParams(), 100_000)
    p = tmp_path / "t.csv"
    save_coefficients(table, p)
    tracemalloc.start()
    try:
        back = load_coefficients(p)
        peak = tracemalloc.get_traced_memory()[1]
        # a file claiming n = 9,999,999 in two rows is refused before any
        # table that size (160 MB) is allocated
        p.write_text("n,re,im\n1,1,0\n9999999,1,0\n", encoding="utf-8")
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        with pytest.raises(CoefficientIndexError):
            load_coefficients(p)
        claim_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 8 * back.values.nbytes
    assert claim_peak < 10**6


def test_round_trip_is_bit_identical(tmp_path):
    model = synth_eisenstein(LanglandsParams(), 200)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_coefficients(model, p1)
    back = load_coefficients(p1)
    assert np.array_equal(back.values, model.values)
    save_coefficients(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def test_save_writes_every_nan_as_python_nan(tmp_path):
    # repr drops a NaN's sign, so -nan loads back as float("nan"); every
    # other value (-0.0 and inf among them) keeps its bits
    p = tmp_path / "t.csv"
    p.write_text(LOADER_INPUTS["python syntax"], encoding="utf-8")
    first = load_coefficients(p)
    assert _bits(first.values[3].real) == 0xFFF8000000000000
    save_coefficients(first, p)
    back = load_coefficients(p)
    assert _bits(back.values[3].real) == _bits(float("nan")) == 0x7FF8000000000000
    keep = ~np.isnan(first.values.view(float))
    assert back.values.view(float)[keep].tobytes() == first.values.view(float)[keep].tobytes()


def _per_row_save(table, path):
    # the reference: one write per row, each float's repr
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        for n in range(1, table.x_max + 1):
            v = complex(table.values[n])
            fh.write(f"{n},{v.real!r},{v.imag!r}\n")


def test_save_matches_the_per_row_writer(tmp_path, monkeypatch):
    edge = _table([1.0, -0.0 + 5e-324j, 2.5e-310 - 0.0j, 1e300 - 1e-300j,
                   -1.0 / 3.0 + 0.1j, 0.0 - 0.0j])
    for rows in (coeffs._SAVE_ROWS, 1, 4):
        monkeypatch.setattr(coeffs, "_SAVE_ROWS", rows)
        for table in (edge, synth_eisenstein(LanglandsParams(), 3000)):
            save_coefficients(table, tmp_path / "one.csv")
            _per_row_save(table, tmp_path / "rows.csv")
            assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_synth_matches_bruteforce_triple_sums():
    d3 = synth_eisenstein(ZERO_ALPHA, 16)
    assert d3.a(1) == 1.0
    assert d3.a(2) == 3.0
    assert d3.a(4) == 6.0
    model = synth_eisenstein(LanglandsParams(), 60)
    assert model.a(1) == 1.0
    for n in range(1, 61):
        want = _brute_triple_sum(n, LanglandsParams().alpha)
        assert abs(model.a(n) - want) < 1e-12


def _plain_power_pass(acc, exponent):
    # the reference: one slice per divisor d = 1 .. x_max, ascending
    x_max = acc.shape[0] - 1
    ns = np.arange(x_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        powers = np.exp(exponent * np.log(ns, where=ns > 0.0, out=np.zeros_like(ns)))
    powers[0] = 0.0
    out = np.zeros_like(acc)
    for d in range(1, x_max + 1):
        out[d::d] += powers[d] * acc[1:x_max // d + 1]
    return out


@pytest.mark.parametrize("x_max", [1, 2, 3, 7, 100, 1000, 4097, 100_000])
def test_split_power_pass_is_the_plain_divisor_loop(x_max):
    rng = np.random.default_rng(x_max)
    acc = np.zeros(x_max + 1, dtype=complex)
    acc[1:] = rng.normal(size=x_max) + 1j * rng.normal(size=x_max)
    for exponent in (0.0j, 0.37j, -1.3j):
        got = _dirichlet_power_pass(acc, exponent)
        assert got.tobytes() == _plain_power_pass(acc, exponent).tobytes()


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_eisenstein(ZERO_ALPHA, 0)
    with pytest.raises(ConfigError):
        synth_eisenstein(LanglandsParams(alpha=(0.1, -0.1, 0.0)), 10)


@pytest.mark.parametrize("x_max", [np.nan, 2.5, 100.0, True])
def test_synth_refuses_an_x_max_that_is_not_an_integer(x_max):
    # a float reached np.zeros(x_max + 1) and raised a bare TypeError, and
    # True passed as a table up to 1
    with pytest.raises(ConfigError, match="x_max must be an integer"):
        synth_eisenstein(ZERO_ALPHA, x_max)


def test_synth_takes_a_numpy_integer():
    got = synth_eisenstein(ZERO_ALPHA, np.int64(16))
    assert got.values.tobytes() == synth_eisenstein(ZERO_ALPHA, 16).values.tobytes()


def test_synth_bounded_by_divisor_count():
    model = synth_eisenstein(LanglandsParams(), 10**4)
    d3 = synth_eisenstein(ZERO_ALPHA, 10**4)
    assert np.all(np.abs(model.values[1:]) <= d3.values[1:].real + 1e-9)


def test_growth_slope_constant_table():
    ones = _table(np.ones(2000))
    rep = rankin_selberg_check(ones)
    assert isinstance(rep, GrowthReport)
    assert abs(rep.slope - 1.0) <= 0.02
    assert rep.passed
    assert rep.x_points == (250, 500, 1000, 2000)


def test_growth_slope_divisor_model():
    model = synth_eisenstein(LanglandsParams(), 10**5)
    rep = rankin_selberg_check(model)
    assert 1.0 <= rep.slope <= 1.2
    assert rep.passed


def test_growth_slope_flags_linear_table():
    linear = _table(np.arange(1, 2001, dtype=float))
    rep = rankin_selberg_check(linear)
    assert abs(rep.slope - 2.0) <= 0.05
    assert not rep.passed


def test_growth_needs_data():
    with pytest.raises(TableTooSmallError):
        rankin_selberg_check(_table(np.ones(500)))


def test_multiplicativity_clean_on_model():
    model = synth_eisenstein(LanglandsParams(), 10**4)
    assert abs(model.a(6) - model.a(2) * model.a(3)) < 1e-14
    rep = hecke_mult_check(model, 200, seed=7)
    assert rep.tested > 0
    assert rep.tested + rep.skipped == rep.trials
    assert rep.violations == 0
    assert rep.max_abs_error <= 1e-12


def test_multiplicativity_flags_broken_table():
    model = synth_eisenstein(ZERO_ALPHA, 10**4)
    corrupted = np.array(model.values)
    corrupted[6:] += 1.0
    broken = CoefficientTable(values=corrupted, x_max=model.x_max,
                              source="broken")
    rep = hecke_mult_check(broken, 300, seed=7)
    assert 0 < rep.violations <= rep.tested


def test_multiplicativity_validation():
    model = synth_eisenstein(ZERO_ALPHA, 100)
    with pytest.raises(ConfigError):
        hecke_mult_check(model, 0)
    with pytest.raises(TableTooSmallError):
        hecke_mult_check(synth_eisenstein(ZERO_ALPHA, 4), 10)


def test_hecke_check_counts_nan_products():
    model = synth_eisenstein(ZERO_ALPHA, 100_000)
    clean = hecke_mult_check(model, 200, seed=20260814)
    assert (clean.tested, clean.violations, clean.max_abs_error) == (114, 0, 0.0)
    poisoned = np.array(model.values)
    poisoned[2:] = np.nan
    rep = hecke_mult_check(CoefficientTable(values=poisoned, x_max=model.x_max,
                                            source="nan"), 200, seed=20260814)
    assert rep.tested == 114
    assert rep.violations == rep.tested
    assert math.isnan(rep.max_abs_error)


def _primes(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def test_hecke_check_tests_pairs_of_large_factors():
    # a(n) negated where n has two distinct prime factors >= 100: the table
    # is multiplicative on every coprime pair with a factor below 100, and
    # breaks on pairs such as (101, 467); a uniform m drew no pair with
    # both factors >= 100 at A11's defaults
    model = synth_eisenstein(ZERO_ALPHA, 100_000)
    large = np.zeros(model.x_max + 1, dtype=int)
    for p in _primes(model.x_max):
        if p >= 100:
            large[p::p] += 1
    twisted = np.where(large >= 2, -model.values, model.values)
    table = CoefficientTable(values=twisted, x_max=model.x_max, source="twist")
    outputs, checks = criteria.coeff_battery(table=table)
    assert outputs["mult_violations"] > 0
    (hecke,) = [c for c in checks if c.check_id == "A11-hecke"]
    assert not hecke.passed


# A11: the battery's CSV round trip

def _lossy_save(table, path):
    # idempotent but lossy: 6 significant digits, so a second save repeats
    # the first file byte for byte
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        for n in range(1, table.x_max + 1):
            v = complex(table.values[n])
            fh.write(f"{n},{v.real:.6g},{v.imag:.6g}\n")


def test_roundtrip_check_fails_a_lossy_writer(monkeypatch):
    table = synth_eisenstein(LanglandsParams(), 2000)
    assert criteria.coeff_battery(table=table)[0]["roundtrip_identical"] is True
    monkeypatch.setattr(criteria, "save_coefficients", _lossy_save)
    outputs, checks = criteria.coeff_battery(table=table)
    assert outputs["roundtrip_identical"] is False
    (roundtrip,) = [c for c in checks if c.check_id == "A11-roundtrip"]
    assert not roundtrip.passed


def test_coeff_battery_saves_once_and_loads_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("save_coefficients", "load_coefficients"):
        monkeypatch.setattr(criteria, name, counted(name, getattr(criteria, name)))
    criteria.coeff_battery(table=synth_eisenstein(LanglandsParams(), 2000))
    assert calls == ["save_coefficients", "load_coefficients"]


def test_value_comparison_agrees_with_the_files(tmp_path):
    # nan, -nan, inf, -0.0 and two subnormals
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    p1.write_text(LOADER_INPUTS["python syntax"] + "11,5e-324,2.5e-310\n",
                  encoding="utf-8")
    table = load_coefficients(p1)
    # the battery's verdict against save -> load -> save byte equality
    save_coefficients(table, p1)
    back = load_coefficients(p1)
    save_coefficients(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert criteria._same_values(back, table) is True
    # for a correct writer, equal values are equal files, and only those
    base = dict(enumerate(table.values[1:], start=1))
    variants = [
        {3: complex(np.nan, np.inf)},       # the -nan's sign dropped
        {2: complex(-np.nan, -0.0)},        # a nan's sign set
        {2: complex(np.nan, 0.0)},          # -0.0 -> 0.0
        {11: complex(0.0, 2.5e-310)},       # 5e-324 -> 0
        {11: complex(1e-323, 2.5e-310)},    # one subnormal step
        {3: complex(np.nan, -np.inf)},      # inf -> -inf
        {12: 0j},                           # one more row
    ]
    save_coefficients(table, p1)
    verdicts = []
    for change in variants:
        other = _table(list({**base, **change}.values()))
        save_coefficients(other, p2)
        files_equal = p1.read_bytes() == p2.read_bytes()
        assert criteria._same_values(other, table) is files_equal
        assert criteria._same_values(table, other) is files_equal
        verdicts.append(files_equal)
    assert verdicts == [True, True] + [False] * 5
