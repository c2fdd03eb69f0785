"""Tests for the shared numeric helpers."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl3osc import criteria, cutoffs, oscquad, util
from gl3osc.errors import (ConfigError, InsufficientGridError, TailNotConvergedError,
                           ToleranceUnreachableError)
from gl3osc.gammafactor import GKernelTable
from gl3osc.util import (GL8, GL16, LATTICE_BLOCK, TWO_PI, _divide, _lattice_exp,
                         _lattice_turns, _line_shells, _matmul, _panel_runs, _two_product,
                         gl_panels, is_prime, kahan_add, kahan_csum, kahan_sum, loglog_slope,
                         primes_in)


def test_kahan_sum_survives_cancellation():
    # naive float accumulation loses the 1.0 entirely here
    values = [1e16, 1.0, -1e16]
    assert kahan_sum(values) == 1.0


def test_kahan_sum_matches_fsum_on_random_data():
    rng = np.random.default_rng(7)
    values = list(rng.standard_normal(5000) * rng.uniform(1.0, 1e8, 5000))
    assert abs(kahan_sum(values) - math.fsum(values)) < 1e-6 * max(1.0, abs(math.fsum(values)))


def test_kahan_csum_matches_componentwise_fsum():
    rng = np.random.default_rng(11)
    values = [complex(a, b) for a, b in rng.standard_normal((300, 2)) * 1e6]
    got = kahan_csum(values)
    want = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    assert abs(got - want) < 1e-6


def test_kahan_csum_rows_equal_each_row_alone():
    # a 2-D input sums each row in one pass, bit for bit (zero signs
    # included) as the row's own 1-D call
    rng = np.random.default_rng(28)
    for shape in ((7, 40), (1, 33), (5, 1), (3, 0)):
        parts = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-12, 12, (2,) + shape)
        rows = parts[0] + 1j * parts[1]
        if shape[1] > 1:
            rows[0, -1] = -np.sum(rows[0, :-1])  # heavy cancellation
            rows[-1] = -0.0  # a row of negative zeros
        got = kahan_csum(rows)
        want = np.array([kahan_csum(row) for row in rows], dtype=complex)
        assert got.shape == (shape[0],)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a 1-D input, or any other shape, still gives its one total
    flat = (rng.standard_normal(60) + 1j * rng.standard_normal(60)) * 1e6
    assert kahan_csum(flat.reshape(3, 4, 5)) == kahan_csum(flat) == kahan_csum(flat.tolist())


def _neumaier_loop(values) -> float:
    s = 0.0
    c = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def test_compensated_sums_equal_the_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(29)
    for trial in range(300):
        m = int(rng.integers(0, 150))
        values = rng.standard_normal(m) * 10.0 ** rng.integers(-20, 20, m)
        if trial % 3 == 0 and m > 1:
            values[-1] = -np.sum(values[:-1])  # heavy cancellation
        want = _neumaier_loop(values)
        got = kahan_sum(values)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    # many columns at once, fed in blocks of uneven size
    block = rng.standard_normal((500, 6)) * 10.0 ** rng.integers(-12, 12, (500, 6))
    s, c = np.zeros(6), np.zeros(6)
    for lo, hi in ((0, 1), (1, 64), (64, 65), (65, 500)):
        s, c = kahan_add(s, c, block[lo:hi])
    assert [float(x) for x in s + c] == [_neumaier_loop(col) for col in block.T]


def test_loglog_slope_recovers_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    ys = 3.0 * xs**-1.5
    slope, intercept = loglog_slope(xs, ys)
    assert abs(slope - (-1.5)) < 1e-12
    assert abs(intercept - math.log(3.0)) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(start=st.floats(0.0, 6.0), gaps=st.lists(st.floats(0.25, 3.0), min_size=2, max_size=5),
       logs=st.lists(st.floats(-37.0, 7.0), min_size=6, max_size=6))
def test_loglog_slope_matches_polyfit_and_the_exact_fit(start, gaps, logs):
    # 3-6 points with log x spread at least 1/4 apart and y from 1e-16 to
    # 1e3: the closed form is within 2 eps of the slope's scale (|slope|
    # plus the spread of log y over that of log x) of the least-squares
    # fit of the same logs in exact rational arithmetic, and within 64 eps
    # of np.polyfit's, whose LAPACK solve errs by up to about 30 eps of
    # |slope| + max |log y| / (log x range)
    xs = np.exp(start + np.concatenate([[0.0], np.cumsum(gaps)]))
    ys = np.exp(np.asarray(logs[:xs.size]))
    slope, intercept = loglog_slope(xs, ys)
    u, v = np.log(xs), np.log(ys)
    us, vs = [Fraction(a) for a in u], [Fraction(b) for b in v]
    u_mean, v_mean = sum(us) / len(us), sum(vs) / len(vs)
    sxx = sum((a - u_mean) ** 2 for a in us)
    exact = sum((a - u_mean) * (b - v_mean) for a, b in zip(us, vs)) / sxx
    spread = math.sqrt(float(sum((b - v_mean) ** 2 for b in vs) / sxx))
    eps = np.finfo(float).eps
    scale = abs(float(exact)) + spread
    assert abs(slope - float(exact)) <= 2.0 * eps * scale
    at = abs(v).max() + scale * abs(u).max()
    assert abs(intercept - float(v_mean - exact * u_mean)) <= 2.0 * eps * at
    fit_slope, fit_intercept = np.polyfit(u, v, 1)
    scale = abs(fit_slope) + abs(v).max() / (u.max() - u.min())
    assert abs(slope - fit_slope) <= 64.0 * eps * scale
    assert abs(intercept - fit_intercept) <= 64.0 * eps * (abs(v).max() + scale * abs(u).max())


def test_loglog_slope_rejects_bad_grids():
    with pytest.raises(InsufficientGridError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InsufficientGridError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(InsufficientGridError):
        loglog_slope([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    # three points on one abscissa are one point: polyfit warned and fit noise
    with pytest.raises(InsufficientGridError, match="3 distinct grid points"):
        loglog_slope([500.0, 500.0, 500.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientGridError):
        loglog_slope([250.0, 500.0, 500.0, 250.0], [1.0, 2.0, 3.0, 4.0])


def test_primes_in_window():
    assert primes_in(10, 30) == [11, 13, 17, 19, 23, 29]
    assert primes_in(2, 2) == [2]
    assert primes_in(24, 28) == []
    assert primes_in(5, 3) == []
    assert primes_in(-10, 1) == []


def test_primes_in_agrees_with_trial_division():
    got = primes_in(2, 200)
    want = [m for m in range(2, 201) if is_prime(m)]
    assert got == want


def test_is_prime_edge_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    assert is_prime(97)
    assert not is_prime(91)


def test_two_pi_constant():
    assert TWO_PI == 2.0 * np.pi


@pytest.mark.parametrize("rule, degree", [(GL16, 31), (GL8, 15)], ids=["gl16", "gl8"])
def test_gl_panels_integrates_polynomials_to_rounding(rule, degree):
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        edges = np.sort(rng.uniform(-1.5, 1.5, rng.integers(2, 12)))
        x, w = gl_panels(edges, *rule)
        assert x.size == w.size == rule[0].size * (edges.size - 1)
        a, b = edges[0], edges[-1]
        for k in range(degree + 1):
            got = float(np.sum(w * x**k))
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert abs(got - exact) <= 1e-14 * max(1.0, float(np.sum(np.abs(w * x**k))))


def test_gl_panels_matches_panel_by_panel_loop():
    # the vectorized map is the same arithmetic as mapping each panel alone
    rng = np.random.default_rng(11)
    nodes, weights = GL16
    for _ in range(200):
        edges = np.cumsum(rng.uniform(1e-3, 16.0, rng.integers(2, 40)))
        x, w = gl_panels(edges, nodes, weights)
        half = [0.5 * (b - a) for a, b in zip(edges[:-1], edges[1:])]
        want_x = [0.5 * (a + b) + h * nodes for a, b, h in zip(edges[:-1], edges[1:], half)]
        np.testing.assert_array_equal(x, np.concatenate(want_x))
        np.testing.assert_array_equal(w, np.concatenate([h * weights for h in half]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bottom=st.floats(0.0, 1.0), floor=st.floats(0.0, 50.0), fall=st.floats(0.0, 1e3),
       bend=st.floats(0.0, 1e3), span=st.floats(np.pi / 8, 4 * np.pi),
       lo=st.floats(-2.0, 2.0), length=st.floats(0.01, 4.0))
def test_panel_runs_hold_span_on_a_v_shaped_rate(bottom, floor, fall, bend, span, lo, length):
    # the falling arm of a V, as oscquad's envelope falls: convex down to
    # its floor at x0 and flat beyond (no caller's rate rises any more)
    hi = lo + length
    x0 = lo + bottom * length
    cap = (hi - lo) / 8.0
    calls = []

    def rate(x):
        calls.append(x)
        return floor + fall * max(x0 - x, 0.0) + bend * max(x0 - x, 0.0) ** 2

    edges, sizes, widths = _panel_runs(lo, hi, cap, span, rate, 10**6)
    # at lo, then once per run at its right end (a panel cut at hi takes none)
    assert len(calls) <= sizes.size + 1 <= 2 * sizes.size
    # the panels tile [lo, hi], within the cap
    assert edges[0] == lo and edges[-1] == hi
    assert np.all(np.diff(edges) > 0.0)
    assert sizes.sum() == edges.size - 1 and np.all(sizes >= 1)
    assert np.all(np.diff(edges) <= cap * (1 + 1e-12))
    # no panel covers more than `span` radians, sampled densely inside it
    inner = np.linspace(0.0, 1.0, 33)
    for a, b in zip(edges[:-1], edges[1:]):
        assert (b - a) * max(rate(float(a + (b - a) * u)) for u in inner) <= span * (1 + 1e-9)


def test_panel_runs_refuse_a_non_finite_rate():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="rate"):
            _panel_runs(0.0, 1.0, 0.25, 1.0, lambda x: bad, 1000)
    # the rate rises to a non-finite value at a run's right end
    with pytest.raises(ConfigError, match="rate"):
        _panel_runs(0.0, 1.0, 0.25, 1.0, lambda x: 1.0 if x < 0.5 else math.inf, 1000)


def test_panel_runs_enforce_max_panels():
    # a zero rate takes the cap: four panels of a quarter, one run and the cut
    edges = _panel_runs(0.0, 1.0, 0.25, 1.0, lambda x: 0.0, 4)[0]
    np.testing.assert_array_equal(edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ToleranceUnreachableError):
        _panel_runs(0.0, 1.0, 0.25, 1.0, lambda x: 0.0, 3)
    with pytest.raises(ToleranceUnreachableError):
        _panel_runs(0.0, 1.0, 1.0, 1.0, lambda x: 1e6, 1000)


def _scripted(first, shells):
    """A synthetic line: shell(0, start) gives `first`, shell(lo, 2 lo)
    gives shells[lo] for both half-lines; every call is kept."""
    calls = []

    def shell(lo, hi):
        calls.append((lo, hi))
        return np.array(first if lo == 0.0 else shells[lo], dtype=float)

    return shell, calls


def test_line_shells_freezes_each_point_on_its_own():
    # point 0 settles at lo = 2 (1e-9 < tol/2); its 5.0 at lo = 4 comes while
    # point 1 is still adding, and must not reach its total
    shell, calls = _scripted([1.0, 1.0], {1.0: [0.1, 0.1], 2.0: [1e-9, 0.1],
                                          4.0: [5.0, 0.1], 8.0: [7.0, 1e-9]})
    total = _line_shells(shell, 1.0, 1e-6, 100.0, "test")
    assert total[0] == 1.0 + 0.1 + 1e-9
    assert total[1] == 1.0 + 0.1 + 0.1 + 0.1 + 1e-9
    # one call a doubling covers both sides
    assert calls == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, 16.0)]


def test_line_shells_refuses_a_point_live_past_top():
    # point 1 settles on its second shell; point 0 adds 0.5 per shell for
    # ever, so after the shell up to 16 > top = 8 the tail named is point 0's
    shell, _ = _scripted([1.0, 1.0], {lo: [0.5, 3.0 if lo == 1.0 else 0.0]
                                      for lo in (1.0, 2.0, 4.0, 8.0)})
    with pytest.raises(TailNotConvergedError, match=r"^test tail still 5\.000e-01 at height 16$"):
        _line_shells(shell, 1.0, 1e-6, 8.0, "test")
    # a point that settles on the shell past top is returned, not refused
    shell, _ = _scripted([1.0], {1.0: [0.5], 2.0: [0.5], 4.0: [0.5], 8.0: [0.0]})
    assert _line_shells(shell, 1.0, 1e-6, 8.0, "test")[0] == 2.5


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
def test_line_shells_refuses_a_negative_or_nonfinite_tolerance(tol):
    # a NaN tol would freeze every point after its first shell
    shell, calls = _scripted([1.0], {})
    with pytest.raises(ConfigError, match=r"^test tolerance must be finite and >= 0"):
        _line_shells(shell, 1.0, tol, 8.0, "test")
    assert calls == []


# fixed example stream, so Tier-1 runs the same draws every time
LATTICE = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# |table - exp(i (head + k step))| <= C eps (B + |head| + k |step|): the
# direct exponential rounds its phase to about eps (|head| + k |step|), and
# each of the at most LATTICE_BLOCK - 1 products of a chain adds a few eps,
# which B covers
LATTICE_C = 4.0
LATTICE_B = float(LATTICE_BLOCK)


def _lattice_head(heads, rows):
    """The drawn heads as a 1-D head (rows = 0) or a 2-D one of shape
    (rows, nodes), each row a scaled copy as the contour's outer products
    log X_j * t are; phases stay within the drawn range."""
    head = np.asarray(heads)
    return head if rows == 0 else np.outer(np.linspace(1.0, -0.5, rows), head)


@LATTICE
@given(heads=st.lists(st.floats(-2e5, 2e5), min_size=1, max_size=8),
       rows=st.integers(0, 3), step=st.floats(-2e3, 2e3),
       offsets=st.lists(st.integers(0, 4000), min_size=1, max_size=40, unique=True))
def test_lattice_table_matches_direct_exponentials(heads, rows, step, offsets):
    # offsets in drawn order: sparse, gapped and unsorted sets alike; a
    # per-node step broadcasts over a 2-D head's rows
    head = _lattice_head(heads, rows)
    steps = step * np.linspace(0.5, 2.0, len(heads))
    ks = np.asarray(offsets)
    table = _lattice_exp(head, steps, ks)
    assert table.shape == (ks.size,) + head.shape
    k = ks.reshape((-1,) + (1,) * head.ndim)
    theta = np.abs(head) + k * np.abs(steps)
    want = np.exp(1j * (head + k * steps))
    eps = np.finfo(float).eps
    assert np.all(np.abs(table - want) <= LATTICE_C * eps * (LATTICE_B + theta))


@LATTICE
@given(heads=st.lists(st.floats(-2e5, 2e5), min_size=1, max_size=8),
       rows=st.integers(0, 3), step=st.floats(-2e3, 2e3), k=st.integers(0, 300))
def test_one_row_lattice_is_the_direct_exponential(heads, rows, step, k):
    head = _lattice_head(heads, rows)
    steps = np.full(len(heads), step)
    want = np.exp(1j * head) if k == 0 else np.exp(1j * (head + k * steps))
    assert _lattice_exp(head, steps, np.asarray([k])).tobytes() == want[None].tobytes()


def _chained_lattice(head, step, offsets):
    """The table of `_lattice_exp` as it was built before its products were
    written into their rows: every product a fresh temporary."""
    out = np.empty((offsets.size,) + head.shape, dtype=complex)
    w = first = at = None
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


@LATTICE
@given(heads=st.lists(st.floats(-2e5, 2e5), min_size=1, max_size=8),
       rows=st.integers(0, 3), step=st.floats(-2e3, 2e3),
       offsets=st.lists(st.integers(0, 300), min_size=1, max_size=80))
def test_lattice_products_in_place_keep_the_bits_of_temporaries(heads, rows, step, offsets):
    # runs with gaps, repeats and unsorted offsets, on 1-D and 2-D heads
    # of one or more nodes: each row the bytes of the chain of temporaries
    head = _lattice_head(heads, rows)
    steps = step * np.linspace(0.5, 2.0, len(heads))
    ks = np.asarray(offsets)
    assert _lattice_exp(head, steps, ks).tobytes() == _chained_lattice(head, steps, ks).tobytes()


def _turns_reference(k: int, a: float, b: float) -> complex:
    """exp(2 pi i k a / b) from the exact rational k a / b reduced mod 1,
    then cos and sin in long double."""
    frac = Fraction(k) * Fraction(a) / Fraction(b)
    frac -= round(frac)
    phase = 2 * np.longdouble(frac.numerator) / np.longdouble(frac.denominator)
    phase *= np.longdouble("3.14159265358979323846264338327950288")
    return complex(float(np.cos(phase)), float(np.sin(phase)))


@pytest.mark.parametrize("h", [0.5, 3 / (11 * 1000.0**0.5)])
def test_mid_rows_hold_a_few_ulps_up_to_r_4096(h):
    # the rows e(-r mid/h) of the shifted batches, from mid/h as a
    # double-double: a head is within a few ulps of the exact phase at r
    # up to 4096, where an exponential of the rounded phase 2 pi r mid/h
    # is off by about eps 2 pi r mid/h (1e5 eps at h = 0.5), and a chain
    # of LATTICE_BLOCK - 1 products keeps the lattice bound with the
    # phase at most pi
    mids = np.random.default_rng(7).uniform(0.5, 2.0, 16)
    q_hi, q_lo = _divide(mids, h)
    ks = np.arange(4096 - LATTICE_BLOCK + 1, 4097)
    rows = _lattice_turns(-q_hi, -q_lo, ks)
    eps = np.finfo(float).eps
    for k in (1, 2, 4033, 4096):
        head = _lattice_turns(-q_hi, -q_lo, np.array([k]))[0]
        want = [_turns_reference(k, -mid, h) for mid in mids]
        assert np.all(np.abs(head - want) <= 4 * eps * (1 + np.pi))
    for j in (0, 17, LATTICE_BLOCK - 1):
        want = [_turns_reference(int(ks[j]), -mid, h) for mid in mids]
        assert np.all(np.abs(rows[j] - want) <= LATTICE_C * eps * (LATTICE_B + np.pi))
    old = _lattice_exp(np.zeros(mids.size), -TWO_PI / h * mids, ks[-1:])[0]
    want = [_turns_reference(4096, -mid, h) for mid in mids]
    assert np.max(np.abs(old - want)) > 100 * LATTICE_C * eps * (LATTICE_B + np.pi)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=st.floats(1e-3, 1e8), b=st.floats(1e-4, 1e4), negate=st.booleans())
def test_two_product_and_division_are_exact(a, b, negate):
    # away from over- and underflow, which the split does not survive
    a = -a if negate else a
    p, e = _two_product(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)
    q, r = _divide(a, b)
    exact = Fraction(a) / Fraction(b)
    assert q == a / b
    assert abs(Fraction(q) + Fraction(r) - exact) <= 2 * np.finfo(float).eps ** 2 * abs(exact)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 400), k=st.integers(1, 128), n=st.integers(1, 128),
       stack=st.integers(0, 3), transposed=st.booleans(), real_b=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# the Mellin line's widest chunk, a shifted batch's 64 padded rows, and
# 63 rows, whose last slice would be a lone row
@example(m=400, k=33, n=32, stack=0, transposed=True, real_b=True, seed=1)
@example(m=64, k=16, n=128, stack=3, transposed=False, real_b=False, seed=2)
@example(m=63, k=16, n=128, stack=2, transposed=False, real_b=False, seed=3)
def test_sliced_product_equals_one_product_bit_for_bit(m, k, n, stack, transposed, real_b, seed):
    # 2-D as the Mellin line takes it (a transposed table times a real
    # base) and stacked as the shifted batches take it
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    a = rng.standard_normal(lead + (m, k, 2)).view(complex)[..., 0]
    if transposed:
        a = np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)
    b = rng.standard_normal(lead + (k, n))
    if not real_b:
        b = b + 1j * rng.standard_normal(lead + (k, n))
    got, want = _matmul(a, b), a @ b
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# a one-row product goes to GEMV, which OpenBLAS 0.3.31 runs on the calling
# thread up to k*n = 4095 multiply-adds (4,096 starts its second thread)
GEMV_ONE_THREAD = 4095


def test_every_blas_call_of_the_batteries_stays_on_one_thread(monkeypatch):
    # every np.matmul of the routine, with the rows of the product it is a
    # slice of: the Mellin batteries, the kernel table and a shifted batch
    # of one 64-r chunk each keep every call within the size OpenBLAS runs
    # on one thread, and cut no lone row from a product of many
    calls, products = [], []

    def product(a, b):
        products.append(a.shape[-2])
        return real(a, b)

    class Numpy:
        """numpy, with each matmul recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, out=None):
            calls.append((products[-1], a.shape[-2], b.shape[-2], b.shape[-1]))
            return np.matmul(a, b, out=out)

    real = util._matmul
    monkeypatch.setattr(util, "np", Numpy())
    for module in (cutoffs, oscquad):
        monkeypatch.setattr(module, "_matmul", product)
    criteria.bump_battery()
    criteria.gamma_battery()
    GKernelTable.build(0.5, 2.0, 100.0)
    inst = oscquad.OscInstance(T=100.0, n=3, N=10.0)
    oscquad.integrate_shifted(inst, np.arange(LATTICE_BLOCK), 0.25, tol=1e-8)
    assert len(calls) > len(products)  # some products were sliced
    for whole, m, k, n in calls:
        if m > 1:
            assert m * k * n <= util._ONE_THREAD_GEMM, (whole, m, k, n)
        else:
            assert whole == 1 and k * n <= GEMV_ONE_THREAD, (whole, m, k, n)
    # a shifted batch's padded rows were among the sliced products
    assert any(whole == oscquad._PANEL_RUN > m and n == 2 * LATTICE_BLOCK
               for whole, m, k, n in calls)
