"""Tests for the command-line front end: config, dispatch, reports, exits."""
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gl3osc import cli, criteria, cutoffs, keyident, whittaker
from gl3osc.cli import RunConfig, config_from_args, build_parser, main, run
from gl3osc.errors import ConfigError
from gl3osc.reports import Check, Report, encode_value


def _args(*argv):
    return build_parser().parse_args(argv)


def _stub_batteries(monkeypatch, battery):
    """Give every command but `suite` the stand-in battery."""
    monkeypatch.setattr(cli, "COMMANDS", {
        name: command if name == "suite" else replace(command, battery=battery)
        for name, command in cli.COMMANDS.items()})


def test_run_config_validates_fields():
    with pytest.raises(ConfigError):
        RunConfig(command="warp-drive")
    with pytest.raises(ConfigError):
        RunConfig(command="bump", T=5.0)
    with pytest.raises(ConfigError):
        RunConfig(command="bump", tol=0.0)
    with pytest.raises(ConfigError):
        RunConfig(command="bump", kappa=2.0)
    with pytest.raises(ConfigError):
        RunConfig(command="bump", c1=0.0)
    with pytest.raises(ConfigError):
        RunConfig(command="coeffs", seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(command="scaling", grid=(250.0,))
    with pytest.raises(ConfigError):
        RunConfig(command="scaling", grid=(250.0, 5.0))


def test_per_command_defaults():
    cfg = config_from_args(_args("s-sum"))
    assert cfg.T == 200.0
    assert cfg.tol == 1e-6
    cfg = config_from_args(_args("key-identity"))
    assert cfg.T == 500.0
    assert cfg.tol == 1e-9
    cfg = config_from_args(_args("zeta-local", "--t", "250", "--tol", "1e-8"))
    assert cfg.T == 250.0
    assert cfg.tol == 1e-8


def test_grid_flag_parses_comma_list():
    cfg = config_from_args(_args("scaling", "--grid", "250,500,1000"))
    assert cfg.grid == (250.0, 500.0, 1000.0)
    with pytest.raises(ConfigError):
        config_from_args(_args("scaling", "--grid", "250,abc"))


def test_invalid_kappa_exits_2(capsys):
    assert main(["amplified", "--kappa", "2"]) == 2
    assert "kappa must lie" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["key-identity", "--t", "inf"], "T must be finite, not inf"),
    (["zeta-local", "--t", "nan"], "T must be finite, not nan"),
    (["zeta-local", "--tol", "nan"], "tol must be finite, not nan"),
    (["amplified", "--kappa", "nan"], "kappa must be finite, not nan"),
    (["bump", "--c1", "inf"], "c1 must be finite, not inf"),
    (["oscint", "--grid", "nan,500,1000"], "grid must be finite, not nan"),
    (["gamma", "--grid", "250,-inf"], "grid must be finite, not -inf"),
])
def test_non_finite_flags_exit_2_and_are_named(capsys, argv, named):
    # NaN slips past every <= check, inf past the lower bounds
    assert main(argv) == 2
    assert f"config error: {named}\n" == capsys.readouterr().err


@pytest.mark.parametrize("command", ["coeffs", "suite"])
def test_negative_seed_exits_2_before_any_battery(monkeypatch, capsys, command):
    # numpy's generators refuse a negative seed with a ValueError, exit 1
    def refuse(*args, **kwargs):
        raise AssertionError("a battery ran")

    monkeypatch.setattr(cli.criteria, "bump_battery", refuse)
    monkeypatch.setattr(cli.criteria, "coeff_battery", refuse)
    assert main([command, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed must be non-negative\n"


# a valid value for each flag but --out
FLAG_VALUES = {"--t": "300", "--tol": "1e-6", "--kappa": "0.1", "--c1": "1.5",
               "--coeffs": "table.csv", "--seed": "7", "--grid": "250,500,1000"}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_command_accepts_the_flags_it_reads_and_refuses_the_rest(command):
    assert set(FLAG_VALUES) == set(cli.FLAG_DESTS)
    for flag, value in FLAG_VALUES.items():
        args = _args(command, flag, value, "--out", "report.json")
        if flag in cli.COMMANDS[command].reads:
            assert config_from_args(args).out_path == "report.json"
        else:
            with pytest.raises(ConfigError, match=f"does not read {re.escape(flag)}$"):
                config_from_args(args)


def test_ignored_flags_exit_2_and_are_named(capsys):
    argv = ["coeffs", "--c1", "5", "--kappa", "0.3", "--grid", "100,200",
            "--t", "50", "--tol", "0.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    for flag in ("--t", "--tol", "--kappa", "--c1", "--grid"):
        assert re.search(f"{re.escape(flag)}(,|$)", err.strip()), flag


class _Spy:
    """A RunConfig stand-in that records the fields a command reads."""

    def __init__(self, config):
        self._config = config
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


def test_reads_lists_exactly_the_flags_each_command_reads(monkeypatch):
    for battery in ("bump", "stationary_phase", "zeta_point", "local_zeta", "gamma",
                    "key_identity", "amplified", "coeff", "route"):
        monkeypatch.setattr(cli.criteria, f"{battery}_battery",
                            lambda *args, **kwargs: ({}, ()))
    for name, command in cli.COMMANDS.items():
        spy = _Spy(RunConfig(command=name))
        command.battery(spy)
        read = {flag for flag, dest in cli.FLAG_DESTS.items()
                if dest in spy.read}
        assert read == set(command.reads), name


def test_amplified_below_floor_exits_2(capsys):
    # kappa = 1/18 separates the prime segments only from T = 64 on
    assert main(["amplified", "--t", "60"]) == 2
    assert "= 64 " in capsys.readouterr().err


@pytest.mark.parametrize("t, segment, prime", [("400", "[P, 2P]", 7), ("700", "[L, 2L]", 3)])
def test_amplified_at_a_one_prime_segment_exits_2(capsys, t, segment, prime):
    # at T = 400 [P, 2P] holds only 7, at T = 700 [L, 2L] only 3: a pair
    # count riding on one prime gap is refused, not checked against [1/2, 2]
    assert main(["amplified", "--t", t]) == 2
    err = capsys.readouterr().err
    assert segment in err and f"holds only {prime} " in err


def test_amplified_past_the_sieve_ceiling_exits_2_before_sieving(capsys, monkeypatch):
    # kappa = 3/2 is inside the CLI's range but would sieve up to 2P = 3e20
    def no_sieve(lo, hi):
        raise AssertionError(f"sieved [{lo}, {hi}]")

    monkeypatch.setattr(keyident, "primes_in", no_sieve)
    assert main(["amplified", "--kappa", "1.5"]) == 2
    assert "desk-scale ceiling MAX_SIEVE = 1024" in capsys.readouterr().err


def test_s_sum_past_the_sieve_ceiling_exits_2_before_the_table(capsys, monkeypatch):
    # the segments are refused before the coefficient table up to
    # 2 T^(1.5 + eps) is built
    def no_table(params, x_max):
        raise AssertionError(f"built a table up to {x_max}")

    monkeypatch.setattr(criteria, "synth_eisenstein", no_table)
    with pytest.raises(ConfigError, match="MAX_SIEVE = 1024"):
        criteria.route_battery(amp_kappa=1.5)
    assert main(["s-sum", "--kappa", "1.5"]) == 2
    assert "desk-scale ceiling MAX_SIEVE = 1024" in capsys.readouterr().err


def test_amplified_at_two_primes_per_segment_runs(capsys):
    assert main(["amplified", "--t", "500"]) == 0
    assert "all checks passed (2 checks)" in capsys.readouterr().out


def test_bump_command_end_to_end(tmp_path, capsys):
    out = tmp_path / "bump.json"
    assert main(["bump", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "all checks passed" in lines[-1]
    report = json.loads(out.read_text())
    assert report["command"] == "bump"
    assert report["all_passed"]
    assert report["first_failure"] is None
    # the file is canonical: re-serialized, it reproduces itself byte for byte
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == out.read_text()


def test_unwritable_out_exits_2(tmp_path, capsys):
    # the checks run, but a report that cannot be written is no pass
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["bump", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: cannot write report: " in captured.err
    assert str(out) in captured.err
    assert "all checks passed" not in captured.out
    assert not out.parent.exists()


def test_bump_exits_3_when_the_inversion_does_not_converge(monkeypatch, capsys):
    monkeypatch.setattr(cutoffs, "INVERT_TOL", 0.0)
    assert main(["bump"]) == 3
    assert "non-convergence: inversion tail still " in capsys.readouterr().err


def test_report_inputs_are_the_fields_the_command_reads(tmp_path, monkeypatch):
    out = tmp_path / "bump.json"
    assert main(["bump", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["inputs"] == {"c1": 1.0}
    _stub_batteries(monkeypatch, lambda config: ({}, ()))
    assert run(config_from_args(_args("gamma"))).inputs == {
        "T": 500.0, "tol": 1e-10, "grid": None}
    assert set(run(config_from_args(_args("suite"))).inputs) == {
        "kappa", "c1", "coeff_path", "seed", "grid"}


def test_readme_flag_table_lists_each_command_and_its_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    head = "| command | flags it reads besides `--out` |\n|---|---|\n"
    assert readme.count(head) == 1
    table = readme.split(head)[1].split("\n\n")[0]
    rows = []
    for line in table.splitlines():
        command, flags = re.fullmatch(r"\| `([a-z-]+)` \| (.*) \|", line).groups()
        rows.append((command, tuple(re.findall(r"`(--[a-z0-9]+)`", flags))))
    assert rows == [(name, command.reads) for name, command in cli.COMMANDS.items()]


def test_reports_are_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["bump", "--out", str(first)]) == 0
    assert main(["bump", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_zeta_local_passes_at_default_t(capsys):
    assert main(["zeta-local"]) == 0
    assert "zeta-local-residual" in capsys.readouterr().out


def test_scaling_writes_csv_next_to_json(tmp_path):
    out = tmp_path / "scaling.json"
    code = main(["scaling", "--grid", "250,500,1000", "--tol", "1e-9",
                 "--out", str(out)])
    assert code == 0
    rows = (tmp_path / "scaling.json.csv").read_text().strip().splitlines()
    assert rows[0] == "T,normalized_abs_z"
    assert len(rows) == 4
    t_vals = [float(r.split(",")[0]) for r in rows[1:]]
    assert t_vals == [250.0, 500.0, 1000.0]


def test_scaling_needs_three_grid_points(capsys):
    assert main(["scaling", "--grid", "250,500"]) == 2
    assert "3 grid points" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scaling", "oscint"])
def test_a_grid_of_one_repeated_t_exits_2(capsys, command):
    # three points on one abscissa fit no slope: a bad input, not a failed check
    assert main([command, "--grid", "500,500,500"]) == 2
    captured = capsys.readouterr()
    assert "slope fit needs at least 3 distinct grid points" in captured.err
    assert "FAIL" not in captured.out


def test_coeffs_command_with_explicit_table(tmp_path, capsys):
    # a valid but non-multiplicative table: growth passes, hecke fails
    from gl3osc.coeffs import CoefficientTable, save_coefficients, synth_eisenstein
    from gl3osc.gammafactor import LanglandsParams

    table = synth_eisenstein(LanglandsParams(alpha=(0j, 0j, 0j)), 2000)
    values = table.values.copy()
    values.setflags(write=True)
    values[6] += 0.5  # break a(2)a(3) = a(6)
    broken = CoefficientTable(values=values, x_max=table.x_max, source="synthetic")
    path = tmp_path / "coeffs.csv"
    save_coefficients(broken, path)
    assert main(["coeffs", "--coeffs", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL A11-hecke" in out


def test_coeffs_command_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,valid,row\n")
    assert main(["coeffs", "--coeffs", str(path)]) == 2


def test_coeffs_command_rejects_bytes_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("n,re,im\n1,1,0\n2,0.5,0 # \u00e9\n".encode("latin-1"))
    assert main(["coeffs", "--coeffs", str(path)]) == 2
    assert "line 3: bytes that are not UTF-8" in capsys.readouterr().err


def test_coeffs_command_rejects_an_unreadable_path(tmp_path, capsys):
    for path in (tmp_path / "missing.csv", tmp_path):
        assert main(["coeffs", "--coeffs", str(path)]) == 2
        assert "cannot read coefficient table" in capsys.readouterr().err


def test_s_sum_command_with_sparse_table(tmp_path):
    from gl3osc.coeffs import CoefficientTable, save_coefficients

    x_max = 2 * int(np.ceil(100.0**1.52))
    values = np.zeros(x_max + 1, dtype=complex)
    values[1] = 1.0
    values[110] = 1.1j
    values[138] = -0.8 - 0.5j
    path = tmp_path / "sparse.csv"
    save_coefficients(
        CoefficientTable(values=values, x_max=x_max, source="synthetic"), path)
    out = tmp_path / "route.json"
    code = main(["s-sum", "--t", "100", "--coeffs", str(path),
                 "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["command"] == "s-sum"
    assert set(report["check_order"]) == {"A10-sum-integral", "A10-keyident"}
    assert report["passed"]["A10-sum-integral"]
    assert code in (0, 1)  # sparse tables may sit outside the aggregate envelope


def test_suite_aggregates_and_records_first_failure(monkeypatch, tmp_path):
    calls = []

    def fake_battery(config):
        calls.append(config.command)
        ok = Check(f"{config.command}-ok", "stub", 0.0, 1.0)
        bad = Check(f"{config.command}-bad", "stub", 2.0, 1.0)
        return {"t": config.T}, (ok, bad) if config.command == "gamma" else (ok,)

    _stub_batteries(monkeypatch, fake_battery)
    monkeypatch.setattr(cli, "SUITE_ORDER", ("bump", "gamma", "coeffs"))
    out = tmp_path / "suite.json"
    assert main(["suite", "--out", str(out)]) == 1
    assert calls == ["bump", "gamma", "coeffs"]
    report = json.loads(out.read_text())
    # the failing check does not stop later batteries
    assert report["check_order"] == ["bump-ok", "gamma-ok", "gamma-bad", "coeffs-ok"]
    assert report["first_failure"] == "gamma-bad"
    assert set(report["outputs"]) == {"bump", "gamma", "coeffs"}


def test_suite_uses_per_command_defaults(monkeypatch):
    seen = {}

    def fake_battery(config):
        seen[config.command] = (config.T, config.tol)
        return {}, (Check(f"{config.command}-ok", "stub", 0.0, 1.0),)

    _stub_batteries(monkeypatch, fake_battery)
    monkeypatch.setattr(cli, "SUITE_ORDER", ("oscint", "s-sum"))
    assert main(["suite"]) == 0
    assert seen["s-sum"] == (200.0, 1e-6)
    assert seen["oscint"] == (500.0, 1e-10)


def test_gamma_command_runs_the_kernel_at_t_and_tol(monkeypatch):
    # the defaults are the battery's own, so the plain run is unchanged
    defaults = inspect.signature(criteria.gamma_battery).parameters
    seen = []

    def fake_gamma(t_grid, kernel_t, tol):
        seen.append((t_grid, kernel_t, tol))
        return {}, (Check("gamma-ok", "stub", 0.0, 1.0),)

    monkeypatch.setattr(cli.criteria, "gamma_battery", fake_gamma)
    assert main(["gamma", "--t", "300", "--tol", "1e-6"]) == 0
    assert run(config_from_args(_args("gamma"))).inputs["tol"] == 1e-10
    assert seen == [(criteria.SCALING_T_GRID, 300.0, 1e-6),
                    (criteria.SCALING_T_GRID, defaults["kernel_t"].default,
                     defaults["tol"].default)]


def test_sign_mutation_breaks_asymptotics_but_not_identity(monkeypatch):
    # flipping the stationary-phase constant's sign must trip the zeta-local
    # comparison while leaving the self-contained key identity untouched
    true_c = whittaker.c_constant
    monkeypatch.setattr(whittaker, "c_constant", lambda T, c1=1.0: -true_c(T, c1))
    assert main(["zeta-local"]) == 1
    assert main(["key-identity", "--t", "60", "--tol", "1e-8"]) == 0


def test_exit_code_1_on_failed_check(monkeypatch, capsys):
    def fake_battery(config):
        return {}, (Check("doomed", "stub", 5.0, 1.0),)

    monkeypatch.setitem(cli.COMMANDS, "bump",
                        replace(cli.COMMANDS["bump"], battery=fake_battery))
    assert main(["bump"]) == 1
    assert "FAIL doomed" in capsys.readouterr().out


def test_encode_decode_round_trip():
    payload = {
        "z": 1.5 - 2.5j,
        "xs": [1, 2.5, True, None, "label"],
        "nested": {"arr": np.array([1.0, 2.0]), "np_f": np.float64(0.25),
                   "np_b": np.bool_(True), "np_c": np.complex128(1j)},
    }
    encoded = encode_value(payload)
    back = json.loads(json.dumps(encoded))  # serializable as-is, and lossless
    assert back == encoded
    assert back["z"] == {"re": 1.5, "im": -2.5}
    assert back["xs"] == [1, 2.5, True, None, "label"]
    assert back["nested"] == {"arr": [1.0, 2.0], "np_f": 0.25, "np_b": True,
                              "np_c": {"re": 0.0, "im": 1.0}}
    assert back["nested"]["np_b"] is True
    with pytest.raises(ConfigError):
        encode_value(object())


def test_check_rejects_negative_residual_and_empty_id():
    with pytest.raises(ConfigError):
        Check("x", "d", -1.0, 1.0)
    with pytest.raises(ConfigError):
        Check("", "d", 0.0, 1.0)
    c = Check("x", "d", np.float64(0.5), np.float64(1.0))
    assert isinstance(c.residual, float) and not isinstance(c.passed, np.bool_)


def test_report_wall_time_excluded_from_canonical_form():
    checks = (Check("a", "d", 0.0, 1.0),)
    r1 = Report(command="bump", inputs={}, outputs={}, checks=checks,
                wall_time_ms=12.0)
    r2 = Report(command="bump", inputs={}, outputs={}, checks=checks,
                wall_time_ms=99.0)
    assert r1.canonical_json() == r2.canonical_json()
    assert "wall_time_ms" not in json.loads(r1.canonical_json())


def test_identity_and_route_paths_start_without_scipy():
    # a fresh interpreter: the package, the CLI and the batteries import no
    # scipy, nor do the amplifier weight, the cutoffs g, w0 and w, the bump
    # and gamma batteries and a kernel table
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, gl3osc, gl3osc.cli, gl3osc.criteria\n"
            "from gl3osc.cutoffs import g_cutoff, weight_w0_w\n"
            "from gl3osc.keyident import AmplifierSpec\n"
            "AmplifierSpec.for_t(500.0).weight; g_cutoff(); weight_w0_w(1.5)\n"
            "from gl3osc.gammafactor import GKernelTable\n"
            "gl3osc.criteria.bump_battery(); gl3osc.criteria.gamma_battery(kernel_t=100.0)\n"
            "GKernelTable.build(0.5, 2.0, 100.0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
