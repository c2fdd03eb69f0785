"""Acceptance gate: every primary criterion, one pass/fail line each.

Each test covers one numbered criterion (A01..A11), reusing session-scoped
battery runs so the expensive quadratures execute once. Wall-clock limits
are asserted here, never inside the deterministic reports.
"""
import time

import pytest

from gl3osc import criteria


def _assert_checks(checks):
    failed = []
    for c in checks:
        tag = "PASS" if c.passed else "FAIL"
        print(f"{tag} {c.check_id}: residual {c.residual:.6e} "
              f"<= budget {c.budget:.6e}")
        if not c.passed:
            failed.append(c)
    assert not failed, "; ".join(
        f"{c.check_id}: residual {c.residual:.6e} > budget {c.budget:.6e} "
        f"({c.description})" for c in failed)


def _select(checks, prefix):
    picked = tuple(c for c in checks if c.check_id.startswith(prefix))
    assert picked, f"no checks named {prefix}*"
    return picked


@pytest.fixture(scope="session")
def key_run():
    """The identity battery's checks, with each call timed from outside.

    One call checks all the pairs of one T; each of its instances is
    charged the whole call's time."""
    seconds = {}
    verify = criteria.verify_key_identity

    def timed(base, pairs=None):
        started = time.perf_counter()
        reports = verify(base, pairs)
        took = time.perf_counter() - started
        for rep in reports:
            seconds[(rep.T, rep.p, rep.l)] = took
        return reports

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "verify_key_identity", timed)
        _, checks = criteria.key_identity_battery()
    return checks, seconds


@pytest.fixture(scope="session")
def bump_checks():
    return criteria.bump_battery()[1]


@pytest.fixture(scope="session")
def sp_checks():
    return criteria.stationary_phase_battery()[1]


@pytest.fixture(scope="session")
def zeta_checks():
    return criteria.local_zeta_battery()[1]


@pytest.fixture(scope="session")
def gamma_checks():
    return criteria.gamma_battery()[1]


@pytest.fixture(scope="session")
def amplified_checks():
    return criteria.amplified_battery()[1]


@pytest.fixture(scope="session")
def route_run():
    started = time.perf_counter()
    _, checks = criteria.route_battery()
    return checks, time.perf_counter() - started


@pytest.fixture(scope="session")
def coeff_checks():
    return criteria.coeff_battery()[1]


def test_criterion_01_key_identity_exact(key_run):
    checks, seconds = key_run
    assert len(seconds) == len(criteria.KEY_T_VALUES) * len(criteria.KEY_PAIRS)
    for (T, p, l), took in seconds.items():
        print(f"instance T={T:g} ({p},{l}) took {took:.1f}s")
        assert took <= 60.0, f"instance T={T:g} ({p},{l}) took {took:.1f}s"
    _assert_checks(_select(checks, "A01"))


def test_criterion_02_h_independence(key_run):
    _assert_checks(_select(key_run[0], "A02"))


def test_criterion_03_stationary_phase_law(sp_checks):
    _assert_checks(sp_checks)


def test_criterion_04_critical_line_decay(zeta_checks):
    _assert_checks(_select(zeta_checks, "A04"))


def test_criterion_05_shifted_line_level(zeta_checks):
    _assert_checks(_select(zeta_checks, "A05"))


def test_criterion_06_gamma_factor_laws(gamma_checks):
    _assert_checks(_select(gamma_checks, "A06"))


def test_criterion_07_kernel_decay_and_bound(gamma_checks):
    _assert_checks(_select(gamma_checks, "A07"))


def test_criterion_08_mellin_round_trip(bump_checks):
    _assert_checks(_select(bump_checks, "A08"))


def test_criterion_09_amplified_average(amplified_checks):
    _assert_checks(_select(amplified_checks, "A09-average"))


def test_criterion_09_pnt_weight_window(amplified_checks):
    # At T = 500 the prime segments [T^(5/18), 2T^(5/18)) and
    # [T^(1/9), 2T^(1/9)) hold {7, 11} x {2, 3}; the li weight puts their
    # normalized count at 0.7751, inside [1/2, 2]. Where one segment holds a
    # single prime (T = 400, 700, 1000-3000) the battery refuses to run, and
    # the identity average itself (previous test) is exact regardless.
    _assert_checks(_select(amplified_checks, "A09-pnt"))


def test_criterion_10_three_route_agreement(route_run):
    checks, seconds = route_run
    print(f"route comparison wall time {seconds:.1f}s")
    assert seconds <= 600.0, f"route comparison took {seconds:.1f}s"
    _assert_checks(checks)


def test_criterion_10_holds_out_of_sample_at_t300():
    # the envelope constants were calibrated at T = 100, 200 and 500; T = 300
    # is a first point off them, at unchanged budgets
    _, checks = criteria.route_battery(T=300.0)
    assert [c.check_id for c in checks] == ["A10-sum-integral", "A10-keyident"]
    _assert_checks(checks)


def test_criterion_11_coefficient_hygiene(coeff_checks):
    _assert_checks(coeff_checks)
