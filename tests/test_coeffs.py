"""Tests for coefficient tables: parsing, the triple-divisor model, growth."""
import numpy as np
import pytest

from gl3osc.coeffs import (
    _HEADER,
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


def test_load_rejects_malformed_input(tmp_path):
    def load_text(text):
        p = tmp_path / "bad.csv"
        p.write_text(text, encoding="utf-8")
        return load_coefficients(p)

    with pytest.raises(CoefficientIndexError):
        load_text("")
    with pytest.raises(CoefficientIndexError):
        load_text("n,re,im\n")
    with pytest.raises(CoefficientParseError) as err:
        load_text("n,re,im\n0,1,0\n")
    assert err.value.line == 2
    with pytest.raises(CoefficientParseError):
        load_text("wrong,header,row\n1,1,0\n")
    with pytest.raises(CoefficientParseError):
        load_text("n,re,im\n1,1,0\n2,abc,0\n")
    with pytest.raises(CoefficientParseError):
        load_text("n,re,im\n1,1\n")
    with pytest.raises(CoefficientIndexError):
        load_text("n,re,im\n1,1,0\n1,2,0\n")
    with pytest.raises(CoefficientIndexError):
        load_text("n,re,im\n1,1,0\n3,2,0\n")
    with pytest.raises(CoefficientNormalizationError):
        load_text("n,re,im\n1,2,0\n")


def test_round_trip_is_bit_identical(tmp_path):
    model = synth_eisenstein(LanglandsParams(), 200)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_coefficients(model, p1)
    back = load_coefficients(p1)
    assert np.array_equal(back.values, model.values)
    save_coefficients(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _per_row_save(table, path):
    # the reference: one write per row, each float's repr
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        for n in range(1, table.x_max + 1):
            v = complex(table.values[n])
            fh.write(f"{n},{v.real!r},{v.imag!r}\n")


def test_save_matches_the_per_row_writer(tmp_path):
    edge = _table([1.0, -0.0 + 5e-324j, 2.5e-310 - 0.0j, 1e300 - 1e-300j,
                   -1.0 / 3.0 + 0.1j, 0.0 - 0.0j])
    for table in (edge, synth_eisenstein(LanglandsParams(), 1000)):
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
