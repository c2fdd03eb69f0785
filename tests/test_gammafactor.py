"""Tests for the degree-3 gamma factor and the contour kernel."""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from gl3osc import criteria, cutoffs, gammafactor
from gl3osc.errors import (
    ConfigError,
    GammaPoleError,
    InsufficientGridError,
    TailNotConvergedError,
    ToleranceUnreachableError,
)
from gl3osc.gammafactor import (
    DEFAULT_ALPHA,
    KERNEL_EPS,
    KERNEL_KAPPA,
    LOGGAMMA_SHIFT,
    TABLE_TOL,
    ContourSpec,
    GKernelTable,
    LanglandsParams,
    _contour_quad,
    _log_gamma_ratio,
    _loggamma,
    _not_a_knot,
    _shift_logs,
    f_line_mass,
    g_kernel,
    g_kernel_batch,
    gamma_pi,
    gamma_pi_line,
)
from gl3osc.util import GL16, TWO_PI, _line_shells, gl_panels, kahan_csum, loglog_slope

ZERO_PARAMS = LanglandsParams(alpha=(0.0j, 0.0j, 0.0j))

# pinned line mass (1/2*pi) integral |F(it)| dt for the T = 500 window
C_F_500 = 0.7885911291622076

# pinned kernel value g_kernel(1.0, 200.0, tol=1e-9)
G_1_200 = 6.602145498264842e-06 - 2.0267040957583202e-05j


def test_params_validation_and_dual():
    with pytest.raises(ConfigError):
        LanglandsParams(alpha=(0.5 + 0.0j, 0.0j, 0.0j))
    p = LanglandsParams(alpha=(0.1 + 0.2j, -0.1 - 0.3j, 0.0 + 0.1j))
    # the contragredient's parameters, the negated conjugates, are valid too
    dual = LanglandsParams(tuple(-a.conjugate() for a in p.alpha))
    assert dual.alpha == (-0.1 + 0.2j, 0.1 - 0.3j, -0.0 + 0.1j)
    # the default parameters are self-dual
    assert tuple(-a.conjugate() for a in DEFAULT_ALPHA) == LanglandsParams().alpha


@pytest.mark.parametrize("alpha", [(math.nan, 0.0j, 0.0j), (complex(0.1, math.nan), 0.0j, 0.0j),
                                   (0.0j, complex(0.0, math.inf), 0.0j)])
def test_params_refuse_a_nonfinite_alpha(alpha):
    # a NaN real part passed the |Re a| >= 1/2 test
    with pytest.raises(ConfigError):
        LanglandsParams(alpha=alpha)


@pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(0.5, math.nan),
                               complex(math.inf, 0.0), complex(0.5, -math.inf)])
def test_gamma_refuses_a_nonfinite_point(s):
    # round() in the pole test raised a bare ValueError (NaN) or
    # OverflowError (inf)
    with pytest.raises(ConfigError):
        gamma_pi(s, ZERO_PARAMS)
    with pytest.raises(ConfigError):
        gamma_pi(s)


def test_gamma_at_half_with_trivial_parameters():
    assert abs(gamma_pi(0.5, ZERO_PARAMS) - 1.0) < 1e-12


def test_gamma_unimodular_on_critical_line():
    # purely imaginary parameters pair conjugate arguments in each ratio
    ts = np.linspace(-40.0, 40.0, 10)
    for t in ts:
        val = gamma_pi(0.5 + 1j * float(t))
        assert abs(abs(val) - 1.0) < 1e-10


def test_gamma_schwarz_reflection():
    p = LanglandsParams(alpha=(0.2 + 0.1j, -0.1 + 0.05j, -0.1 - 0.15j))
    pbar = LanglandsParams(alpha=tuple(a.conjugate() for a in p.alpha))
    for s in (0.3 + 7.0j, -1.2 + 100.0j, 0.5 - 3.0j):
        assert abs(gamma_pi(s.conjugate(), pbar) - gamma_pi(s, p).conjugate()) < 1e-10


def test_gamma_modulus_law_on_zero_line():
    # |gamma(0 + iT)| = (T/2*pi)^(3/2) for trivial parameters
    for T in (500.0, 1000.0):
        got = abs(gamma_pi(1j * T, ZERO_PARAMS))
        want = (T / TWO_PI) ** 1.5
        assert abs(got - want) < 1e-9 * want


def test_gamma_growth_rate_between_two_heights():
    # growth exponent 3/2 at Re = 0, probed by doubling the height
    ratio = abs(gamma_pi(2000.0j, ZERO_PARAMS)) / abs(gamma_pi(1000.0j, ZERO_PARAMS))
    want = 2.0**1.5
    assert want / 2.0 <= ratio <= want * 2.0


def test_gamma_pole_handling():
    # numerator pole: s = 1 makes Gamma((1 - s)/2) = Gamma(0)
    with pytest.raises(GammaPoleError):
        gamma_pi(1.0, ZERO_PARAMS)
    # denominator poles return exact zero
    assert gamma_pi(0.0, ZERO_PARAMS) == 0.0
    assert gamma_pi(-2.0, ZERO_PARAMS) == 0.0


def test_gamma_finite_in_pole_free_strip():
    rng = np.random.default_rng(20260814)
    sig = rng.uniform(-3.0, 0.5, 40)
    tau = rng.uniform(-200.0, 200.0, 40)
    for s in sig + 1j * tau:
        val = gamma_pi(complex(s))
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_gamma_line_matches_scalar():
    # bit for bit, also on the log-gamma's shift path (|Im s| below about
    # 2 LOGGAMMA_SHIFT) and next to the real axis
    ss = np.array([0.5 + 10.0j, -1.0 + 50.0j, -2.5 + 300.0j, 0.5 + 3.0j, -2.5 - 7.0j,
                   0.25 + 0.001j, -0.7 - 1e-9j, 0.3 + 12.4j, -1.3 + 24.0j])
    rng = np.random.default_rng(22)
    ss = np.concatenate([ss, rng.uniform(-3.0, 0.5, 200) + 1j * rng.uniform(-30.0, 30.0, 200)])
    line = gamma_pi_line(ss, LanglandsParams(alpha=DEFAULT_ALPHA))
    for s, got in zip(ss, line):
        assert gamma_pi(complex(s)) == got


def test_decay_fit_slopes():
    # |gamma(1/2 + sigma + iT)| ~ T^(-3 sigma), on three heights as on four
    for t_grid in ([250.0, 500.0, 1000.0, 2000.0], [250.0, 500.0, 1000.0]):
        ts = np.asarray(t_grid)
        for sigma, want in ((0.0, 0.0), (-0.5, 1.5), (-1.0, 3.0)):
            slope, _ = loglog_slope(ts, np.abs(gamma_pi_line(0.5 + sigma + 1j * ts,
                                                             LanglandsParams())))
            assert abs(slope - want) <= 0.3


def test_decay_fit_needs_three_heights():
    # the A06 slopes share loglog_slope's floor of three heights
    with pytest.raises(InsufficientGridError):
        criteria.gamma_battery((250.0, 500.0))


def test_contour_spec_validation():
    with pytest.raises(ConfigError):
        ContourSpec(re_line=1.0)


def test_g_kernel_argument_validation():
    with pytest.raises(ConfigError):
        g_kernel(0.0, 500.0)
    with pytest.raises(ConfigError):
        g_kernel(1.0, 0.5)


@pytest.mark.parametrize("z, T", [(math.nan, 100.0), (1.0, math.nan), (math.inf, 100.0)])
def test_g_kernel_refuses_a_nonfinite_argument(z, T):
    # NaN fails every comparison, so a check written with <= let it through
    with pytest.raises(ConfigError):
        g_kernel(z, T)


def test_g_kernel_refuses_a_nan_tolerance():
    # max(nan, 1e-15) is nan, which froze every point after its first shell
    with pytest.raises(ConfigError, match="^contour tolerance"):
        g_kernel(1.0, 100.0, tol=math.nan)


def test_kernel_table_refuses_a_nan_height():
    with pytest.raises(ConfigError):
        GKernelTable.build(0.5, 2.0, math.nan)


def test_kernel_table_refuses_an_infinite_range():
    # an infinite z_hi had ended in a ValueError from its node count
    with pytest.raises(ConfigError):
        GKernelTable.build(0.5, math.inf, 100.0)


def test_f_line_mass_pinned():
    got = f_line_mass(500.0)
    assert abs(got - C_F_500) < 1e-3
    assert f_line_mass(200.0) > 0.0


def test_gamma_battery_leaves_numpy_ma_unloaded():
    # a fresh interpreter: the line mass takes its shell edges without
    # np.unique, whose first call loads numpy.ma (about 10 ms a process)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "from gl3osc.criteria import gamma_battery\n"
            "gamma_battery()\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("T", [11.0, 500.0, 1e5])
def test_f_line_mass_converges_with_no_height_cut(monkeypatch, T):
    # watch the driver: its tolerance, its cap, the shell and the height it
    # stopped at; the next shell above that adds less than the tolerance
    seen = {}

    def watched(shell, start, tol, top, label):
        heights = []

        def traced(lo, hi):
            heights.append(max(abs(lo), abs(hi)))
            return shell(lo, hi)

        total = _line_shells(traced, start, tol, top, label)
        seen.update(shell=shell, tol=tol, top=top, height=max(heights))
        return total

    monkeypatch.setattr(gammafactor, "_line_shells", watched)
    mass = f_line_mass(T)
    assert 0.0 < mass < 2.0
    h, shell = seen["height"], seen["shell"]
    assert h < seen["top"]
    assert abs(float(shell(h, 2.0 * h)[0])) < seen["tol"]


@pytest.mark.parametrize("T", [100.0, 500.0, 2000.0])
def test_f_line_mass_matches_the_two_sided_sum(T):
    # the half-line shells, doubled, against both half-lines summed as the
    # mass once was: the same shells stop, so only rounding may differ
    h0 = gammafactor.h0_cutoff(T, KERNEL_KAPPA, KERNEL_EPS)
    zero = TWO_PI / ((KERNEL_KAPPA - KERNEL_EPS) * np.log(T))
    step = zero / np.ceil(zero / 8.0)

    def half(lo, hi):
        lattice = step * np.arange(np.ceil(lo / step), np.floor(hi / step) + 1.0)
        ts, wts = gl_panels(np.unique(np.concatenate([[lo, hi], lattice])), *GL16)
        return np.array([np.sum(wts * np.abs(gammafactor.mellin_on_line(h0, 0.0, ts)))])

    def shell(lo, hi):
        # -hi < t < hi first, then lo < t < hi plus -hi < t < -lo
        return half(-hi, hi) if lo == 0.0 else half(lo, hi) + half(-hi, -lo)

    two_sided = float(_line_shells(shell, 16.0, 1e-12, gammafactor.LINE_MASS_TOP,
                                   "line-mass")[0]) / TWO_PI
    assert abs(f_line_mass(T) - two_sided) <= 4 * np.spacing(two_sided)


def test_g_kernel_bounded_by_line_mass():
    T = 200.0
    c_f = f_line_mass(T)
    for z in (0.5, 1.0, 2.0):
        assert abs(g_kernel(z, T, tol=1e-8)) <= c_f
    assert abs(g_kernel(1.0, 500.0, tol=1e-8)) <= f_line_mass(500.0)


def test_g_kernel_scaled_derivatives_bounded():
    # finite-difference proxies for z G'(z) and z^2 G''(z); generous j=2
    # constant since the bound's constant grows with the derivative order
    T = 200.0
    for z in (0.5, 1.0, 2.0):
        d = 1e-3 * z
        g0 = g_kernel(z, T, tol=1e-10)
        gp = g_kernel(z + d, T, tol=1e-10)
        gm = g_kernel(z - d, T, tol=1e-10)
        assert abs(z * (gp - gm) / (2.0 * d)) <= 1.0
        assert abs(z * z * (gp - 2.0 * g0 + gm) / d**2) <= 16.0


def test_g_kernel_contour_independence():
    # the integrand is pole-free left of the origin, so the two canonical
    # contour positions must agree
    a = g_kernel(0.5, 500.0, tol=1e-10)
    b = g_kernel(0.5, 500.0, contour=ContourSpec(re_line=-3.0), tol=1e-10)
    assert abs(a - b) <= 1e-12


def test_g_kernel_pair_self_dual(monkeypatch):
    params = gammafactor.KERNEL_PARAMS
    dual = LanglandsParams(tuple(-a.conjugate() for a in params.alpha))
    g = g_kernel(1.0, 200.0, tol=1e-9)
    monkeypatch.setattr(gammafactor, "KERNEL_PARAMS", dual)
    g_dual = g_kernel(1.0, 200.0, tol=1e-9)
    assert g == g_dual  # the kernel's parameters are self-dual
    assert np.isfinite(g.real) and np.isfinite(g.imag)


def test_kernel_table_accuracy_and_parts():
    T = 200.0
    table = GKernelTable.build(0.5, 2.0, T)
    assert table.max_rel_error <= 0.02
    zs = np.array([0.61, 1.07, 1.93])
    via = table(zs)
    direct = np.array([g_kernel(float(z), T, tol=1e-10) for z in zs])
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(via - direct)) <= 0.02 * scale
    # scalar calls agree with vectorized ones bit for bit
    for z, v in zip(zs, via):
        assert table(float(z)) == v
    sweep = np.concatenate([[0.5, 2.0], np.random.default_rng(7).uniform(0.5, 2.0, 200)])
    assert all(table(float(z)) == w for z, w in zip(sweep, table(sweep)))


def test_g_kernel_bits_pinned():
    # the exact value since the gamma factor takes numpy's log-gamma; it was
    # 6.602145483334852e-06 - 2.0267040947780852e-05j with scipy's loggamma
    # (7.3e-15 away, within the contour tolerance). Before the run builder
    # it was 6.602145501211393e-06 - 2.0267040950690604e-05j with one rate
    # call per panel at its left edge (1.8e-14 away), and
    # 6.602145501205267e-06 - 2.0267040950680673e-05j before the block
    # products rows @ (F gamma w). Before the trapezoid lattice it was
    # 6.602145478580414e-06 - 2.026704094226371e-05j on GL16 panels
    # (2.5e-14 away, within the tolerance)
    assert g_kernel(1.0, 200.0, tol=1e-9) == G_1_200


def test_g_kernel_batch_holds_each_z_within_tol():
    # A07-bounded's window at T = 500: one grid for the three z, each value
    # within tol of its lone z and within 1e-8 of a tol-1e-13 reference
    T, zs, tol = 500.0, (0.5, 1.0, 2.0), 1e-8
    batch = g_kernel_batch(zs, T, tol=tol)
    assert batch.shape == (3,)
    for z, got in zip(zs, batch):
        assert abs(got - g_kernel(z, T, tol=tol)) <= tol
        assert abs(got - g_kernel(z, T, tol=1e-13)) <= 1e-8
    # a batch of one is g_kernel, lattice and bits (the pinned value above;
    # 6.602145478580414e-06 - 2.026704094226371e-05j on GL16 panels)
    assert g_kernel_batch([1.0], 200.0, tol=1e-9)[0] == G_1_200
    assert g_kernel_batch([0.1], T)[0] == g_kernel(0.1, T)


def test_g_kernel_batch_refuses_mixed_lines_and_bad_points():
    # z = 0.1 takes the deep line Re(s) = -3, z = 1 the line Re(s) = 0
    with pytest.raises(ConfigError, match="one contour"):
        g_kernel_batch([0.1, 1.0], 100.0)
    for zs in ([1.0, math.nan], [1.0, 0.0], [math.inf]):
        with pytest.raises(ConfigError):
            g_kernel_batch(zs, 100.0)
    with pytest.raises(ConfigError):
        g_kernel_batch([1.0], math.nan)
    # an empty batch ended in a bare ValueError from np.min
    for zs in ([], np.array([])):
        with pytest.raises(ConfigError, match="nonempty"):
            g_kernel_batch(zs, 100.0, ContourSpec())
    # a NaN line constructed, and was refused only inside mellin_on_line
    for line in (math.nan, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            ContourSpec(re_line=line)


def test_gamma_battery_makes_five_contour_batches(monkeypatch):
    # A07-small, one batch for A07-bounded's three z, and one per
    # A07-monotone value: splitting A07-bounded again adds two
    sizes = []
    real = gammafactor._contour_quad

    def counted(heads, *args, **kwargs):
        sizes.append(len(heads))
        return real(heads, *args, **kwargs)

    monkeypatch.setattr(gammafactor, "_contour_quad", counted)
    criteria.gamma_battery()
    assert sizes == [1, 3, 1, 1, 1]


def _six_log_gammas(s, alpha):
    """_log_gamma_ratio with all six log-gamma values taken, block by block."""
    shifts = np.array(alpha, dtype=complex)[:, None]
    out = []
    for i in range(0, s.size, gammafactor._GAMMA_BLOCK):
        block = s[i : i + gammafactor._GAMMA_BLOCK]
        lg = _loggamma(np.concatenate([(1.0 - block + shifts) / 2.0, (block - shifts) / 2.0]))
        out.append(lg[0] - lg[3] + lg[1] - lg[4] + lg[2] - lg[5])
    return np.concatenate(out)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.int64)


@pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, (0.0j, 0.0j, 0.0j), (0.1 + 0.2j, -0.1, 0.0j)])
def test_log_gamma_ratio_conjugate_path_keeps_six_values_bits(alpha, monkeypatch):
    # three blocks on the critical line at contour heights and on two lines
    # off it, then one block holding s = 1/2 and the t = Im a where a pair's
    # imaginary parts are zeros of one sign: the conjugate path must give
    # the six values' bits, and take only blocks of exact conjugate pairs
    rows = []
    real = gammafactor._loggamma

    def spy(z):
        rows.append(np.shape(z)[0])
        return real(z)

    imaginary = all(complex(a).real == 0.0 for a in alpha)
    ts = np.random.default_rng(28).uniform(-3000.0, 3000.0, 2500)
    cases = [(s, 3 if s == 0.5 and imaginary else 6) for s in (0.5, 0.3, -2.5)]
    for sigma, width in cases + [("half", 6)]:
        s = (0.5 + 1j * np.array([0.0, 0.5, -0.3, -0.2, 7.0]) if sigma == "half"
             else sigma + 1j * ts)
        rows.clear()
        monkeypatch.setattr(gammafactor, "_loggamma", spy)
        got = _log_gamma_ratio(s, alpha)
        monkeypatch.setattr(gammafactor, "_loggamma", real)
        assert np.array_equal(_bits(got), _bits(_six_log_gammas(s, alpha)))
        assert rows == [width] * (1 if sigma == "half" else 3)


def test_gamma_at_half_with_zero_parameters_pinned():
    # the six log-gamma arguments are all 1/4 + 0i, so their "conjugates"
    # differ in the sign of Im = 0 and the six-value path runs: exactly 1
    val = gamma_pi(0.5, criteria.D3_PARAMS)
    assert _bits([val]).tolist() == _bits([1.0 + 0.0j]).tolist()


def test_shift_logs_batch_equals_each_point_alone():
    # step counts 1 to 14, points on and next to the real axis (zeros of
    # both signs) and at poles; the batch's values are each lone point's
    rng = np.random.default_rng(28)
    z = np.concatenate([
        rng.uniform(-2.5, 11.0, 60) + 1j * rng.uniform(-11.0, 11.0, 60),
        rng.uniform(-2.5, 11.0, 30) + 1j * rng.choice([-1e-9, 1e-9], 30),
        [complex(3.0, -0.0), complex(0.5, 0.0), complex(-2.4, -0.0), complex(11.5, -0.0),
         complex(-2.0, 0.0), complex(0.0, -0.0)]])
    steps = np.ceil(LOGGAMMA_SHIFT - z.real - np.abs(z.imag))
    z, steps = z[steps >= 1.0], steps[steps >= 1.0]
    assert steps.min() == 1.0 and steps.max() >= 14.0
    with np.errstate(divide="ignore"):
        batch = _shift_logs(z, steps)
        alone = np.concatenate([_shift_logs(z[i : i + 1], steps[i : i + 1]) for i in range(z.size)])
    assert np.array_equal(_bits(batch), _bits(alone))


def test_shared_contour_grid_matches_each_z_alone():
    # one grid sized to the fastest phase of the batch, shells doubled until
    # every z has converged: each value is the lone z's within the tolerance
    T = 100.0
    zs = np.linspace(0.5, 2.0, 8)
    batch, _ = _contour_quad(zs, T, 0.0, TABLE_TOL)
    alone = np.array([g_kernel(float(z), T, tol=TABLE_TOL) for z in zs])
    assert np.max(np.abs(batch - alone)) <= TABLE_TOL


def test_line_trapezoid_counts_each_node_once():
    # (1/2 pi) int e^(-t^2/2) e^(i t phi) dt = e^(-phi^2/2) / sqrt(2 pi): a
    # node counted twice, or missed, where two shells meet moves a value by
    # about dt e^(-t^2/2) / 2 pi, far above 1e-15
    phis = np.array([0.0, 0.5, -1.3, 3.0, 6.5])
    values, est = cutoffs._line_trapezoid(
        lambda t: np.exp(-0.5 * t * t), [phis], [1.0] * phis.size, 14.5, 1e-15, 1.0, 64.0,
        "gauss", kahan_csum)
    want = np.exp(-0.5 * phis**2) / math.sqrt(TWO_PI)
    assert np.max(np.abs(values - want)) <= 1e-15
    assert np.all(est <= 5e-16)


@pytest.mark.parametrize("T", [100.0, 500.0])
def test_contour_estimate_lies_above_its_error(T):
    # the half-grid estimate at the table's tolerance against a tol-1e-13
    # value: a bound in practice, though the rule gives no proof
    zs = [0.5, 1.0, 2.0]
    values, est = _contour_quad(zs, T, 0.0, TABLE_TOL)
    ref, _ = _contour_quad(zs, T, 0.0, 1e-13)
    assert np.all(est <= TABLE_TOL / 2.0)
    assert np.all(np.abs(values - ref) < est)


def test_kernel_table_takes_one_contour_batch_per_grid(monkeypatch):
    # the grid's z and the ten validation z in one batch: a build whose
    # validation never passes makes three, of 97, 194 and 388 nodes plus ten
    sizes = []
    real = gammafactor._contour_quad

    def counted(zs, *args):
        sizes.append(len(zs))
        return real(zs, *args)

    monkeypatch.setattr(gammafactor, "_contour_quad", counted)
    GKernelTable.build(0.5, 2.0, 100.0)
    assert sizes == [107]
    sizes.clear()
    monkeypatch.setattr(gammafactor, "TABLE_REL_TOL", 0.0)
    with pytest.raises(ToleranceUnreachableError):
        GKernelTable.build(0.5, 2.0, 100.0)
    assert sizes == [107, 204, 398]


def test_kernel_table_build_peak_memory():
    # the contour's lattice tables are (z, sqrt(nodes)) per shell; one build
    # traced 8.8 MB on GL16 panels when this bound was set
    GKernelTable.build(0.5, 2.0, 100.0)  # warm caches outside the trace
    tracemalloc.start()
    try:
        GKernelTable.build(0.5, 2.0, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_kernel_table_is_exact_at_its_nodes():
    # F is exact on every contour node, so at a grid node the table is the
    # kernel itself, within the contour tolerance
    T = 100.0
    table = GKernelTable.build(0.5, 2.0, T)
    for z in table.grid[np.linspace(0, len(table.grid) - 1, 5).astype(int)]:
        assert abs(table(float(z)) - g_kernel(float(z), T, tol=TABLE_TOL)) <= TABLE_TOL


def test_kernel_table_range_enforcement():
    table = GKernelTable.build(0.5, 2.0, 200.0)
    with pytest.raises(ConfigError):
        table(0.2)
    with pytest.raises(ConfigError):
        table(2.5)
    # NaN passed the range test and came back as nan+nanj
    with pytest.raises(ConfigError):
        table(math.nan)
    with pytest.raises(ConfigError):
        table(np.array([1.0, math.nan, 1.5]))
    with pytest.raises(ConfigError):
        GKernelTable.build(0.1, 2.0, 200.0)  # below the shallow-contour range


def test_line_mass_refusal_names_its_integral(monkeypatch):
    # C_F settles near |t| = 2048, so a cap of 32 leaves it live at 64
    monkeypatch.setattr(gammafactor, "LINE_MASS_TOP", 32.0)
    with pytest.raises(TailNotConvergedError, match=r"^line-mass tail still \S+ at height 64$"):
        f_line_mass(500.0)


def _mp_loggamma(z: complex) -> complex:
    with mp.workdps(30):
        return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


def test_loggamma_matches_mpmath_on_the_contours_arguments():
    # Re z in [-2.5, 1.75] holds the arguments s - a of both contour lines
    # and the halves (1 - s + a)/2, (s - a)/2 of A06's points; |Im z| runs
    # to 16 T at T = 500, where the deep line stops. Near the real axis the
    # shift path's sum of logs, about 30 in size, cancels against the
    # Stirling value; far from it the error is the rounding of |z log z|
    rng = np.random.default_rng(20261019)
    z = np.concatenate([
        rng.uniform(-2.5, 1.75, 150) + 1j * rng.uniform(-8000.0, 8000.0, 150),
        rng.uniform(-2.5, 1.75, 150) + 1j * rng.uniform(-2.0, 2.0, 150) * LOGGAMMA_SHIFT,
        rng.uniform(-2.5, 1.75, 100) + 1j * rng.uniform(-1e-3, 1e-3, 100),
        [0.25, 1.0, 2.0, -1.25 + 0.0j, -1.25 - 0.0j, 0.5 + 4000.0j, -2.5 - 8000.0j]])
    got = _loggamma(z)
    want = np.array([_mp_loggamma(v) for v in z])
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= eps * (64.0 + 4.0 * np.abs(z * np.log(z))))


def test_loggamma_is_the_principal_branch():
    # log Gamma(z + 1) - log Gamma(z) = Log z on the plane cut along
    # (-inf, 0]; each side of the cut is taken by the sign of a zero Im z
    rng = np.random.default_rng(7)
    z = np.concatenate([
        rng.uniform(-2.5, 1.75, 200) + 1j * rng.uniform(-20.0, 20.0, 200),
        rng.uniform(-2.5, 1.75, 50) + 1j * rng.choice([-1e-9, 1e-9], 50),
        [-1.25 + 0.0j, complex(-1.25, -0.0), -0.4 + 0.0j, complex(-2.3, -0.0), 0.7 + 0.0j]])
    z_next = z.copy()
    z_next.real += 1.0  # keeps the sign of a zero Im z, as z + 1.0 does not
    gap = _loggamma(z_next) - _loggamma(z)
    assert np.max(np.abs(gap - np.log(z))) <= 1e-13
    # the cut plane's branch, not a value mod 2 pi: continued from z > 0,
    # Im log Gamma is -3 pi just above (-3, -2) and +3 pi just below
    assert abs(_loggamma(complex(-2.3, 1e-9)) - _loggamma(complex(-2.3, -1e-9))
               + 6j * math.pi) <= 1e-6


def test_kernel_spline_coefficients_match_cubic_spline():
    # scipy's CubicSpline, an oracle only: its default (not-a-knot) spline
    # on a table's own knots and values, in the PPoly layout the benchmark
    # reads
    table = GKernelTable.build(0.5, 2.0, 100.0)
    x = np.log(table.grid)
    for part in (table._re, table._im):
        assert part.c.shape == (4, x.size - 1)
        y = np.append(part.c[3], part(x[-1:]))
        oracle = CubicSpline(x, y).c
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.max(np.abs(_not_a_knot(x, y) - oracle) / scale) <= 1e-12
        assert np.max(np.abs(part.c - oracle) / scale) <= 1e-12
        mids = 0.5 * (x[:-1] + x[1:])
        assert np.max(np.abs(part(mids) - CubicSpline(x, y)(mids))) <= 1e-12 * np.max(np.abs(y))
