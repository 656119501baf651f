import argparse
import copy
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from biphoton import cavity
from biphoton import schemes as sch
from biphoton import spectrum as spc
from biphoton.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from biphoton.registry import species
from biphoton.reporting import DEFAULTS, bundled_scenario_path

# every scenario override key, over all schemes
KEYS = sorted(set().union(*(entry.defaults for entry in sch.SCHEMES.values())))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheta:
    def test_quadrature(self, capsys):
        code, out, _ = run(["theta", "--ratio", "1.0"], capsys)
        assert code == EXIT_OK
        assert float(out.split()[2]) == pytest.approx(23.402, rel=1e-3)

    def test_mc_seed_default_42(self, capsys):
        code1, out1, _ = run(["theta", "--ratio", "2", "--mc", "20000"], capsys)
        code2, out2, _ = run(["theta", "--ratio", "2", "--mc", "20000",
                              "--seed", "42"], capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_bad_ratio_is_config_error(self, capsys):
        code, _, err = run(["theta", "--ratio", "0.3"], capsys)
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_infinite_ratio_is_config_error(self, capsys):
        code, _, err = run(["theta", "--ratio", "inf"], capsys)
        assert code == EXIT_CONFIG
        assert "configuration error: need finite a >= b > 0, got a=inf" in err

    # the Theta kernels overflow float64 from a = 2.8e102
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ratio", ["1.01e100", "1e150", "1e308"])
    def test_ratio_past_the_overflow_bound_is_config_error(self, ratio, capsys):
        code, out, err = run(["theta", "--ratio", ratio], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith(f"configuration error: aspect ratio {float(ratio):g} ")
        assert "need a <= 1e+100" in err
        assert "Warning" not in err
        assert out == ""

    def test_unreachable_tolerance_is_numerical_error(self, capsys, rule_builds):
        code, out, err = run(["theta", "--ratio", "148", "--rel-tol", "1e-15"], capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical error (ThetaConvergenceError)" in err
        assert out == ""

    def test_infinite_rel_tol_is_config_error(self, capsys, rule_builds):
        code, out, err = run(["theta", "--ratio", "2", "--rel-tol", "inf"], capsys)
        assert code == EXIT_CONFIG
        assert "configuration error: rel_tol must be finite and positive" in err
        assert out == ""
        assert rule_builds == Counter()

    def test_zero_mc_samples_is_config_error(self, capsys):
        code, out, err = run(["theta", "--ratio", "2", "--mc", "0"], capsys)
        assert code == EXIT_CONFIG
        assert "need n_samples >= 1000" in err
        assert out == ""

    # the inverse-CDF table biases Theta by 1.2e-4 at a/b = 1e3 and 1.2e-2 at
    # 1e5: the two ratios used to print a confident wrong value and exit 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ratio, n, message", [
        ("1e6", "100000", "aspect ratio 1000000: the Monte-Carlo takes a/b <= 1000, "),
        ("1e20", "1000", "aspect ratio 1e+20: the Monte-Carlo takes a/b <= 1000, "),
        ("2", "1000000001", "need n_samples <= 1e+09, got 1000000001: "),
    ], ids=["ratio-1e6", "ratio-1e20", "samples"])
    def test_mc_past_its_bounds_is_config_error(self, ratio, n, message, capsys):
        code, out, err = run(["theta", "--ratio", ratio, "--mc", n], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith(f"configuration error: {message}")
        assert "Warning" not in err
        assert out == ""


class TestThetaCurve:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(["theta-curve", "--points", "5", "--rel-tol", "1e-6",
                          "--out", str(out)], capsys)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "ratio,theta,method,stderr"
        assert len(lines) == 6

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
        code, _, _ = run(["theta-curve", "--points", "3", "--rel-tol", "1e-6",
                          "--out", "c.csv"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "c.csv").exists()

    def test_sub_unit_ratio_fails_before_any_quadrature(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_quadrature(*args, **kwargs):
            pytest.fail("a quadrature ran before the ratios were checked")

        monkeypatch.setattr(cavity, "theta_factor_quadrature", no_quadrature)
        out = tmp_path / "curve.csv"
        code, _, err = run(["theta-curve", "--min", "148", "--max", "0.9",
                            "--out", str(out)], capsys)
        assert code == EXIT_CONFIG
        assert "aspect ratio must be >= 1, got 0.9" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("end, message", [
        (["--max", "inf"], "need finite a >= b > 0, got a=inf"),
        (["--min", "nan"], "need finite a >= b > 0, got a=nan"),
        (["--max", "1e308"], "aspect ratio 1e+308 "),
    ], ids=["inf-max", "nan-min", "max-past-bound"])
    def test_bad_end_fails_before_geomspace(self, end, message, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, err = run(["theta-curve", *end, "--points", "2", "--out", str(out)],
                           capsys)
        assert code == EXIT_CONFIG
        assert message in err
        assert "Warning" not in err
        assert not out.exists()

    def test_zero_points_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            pytest.fail("a quadrature ran before the point count was checked")

        monkeypatch.setattr(cavity, "theta_factor_quadrature", no_quadrature)
        out = tmp_path / "curve.csv"
        for points, message in [("0", "--points must be >= 1, got 0"),
                                ("10001", "--points must be <= 10000, got 10001")]:
            code, _, err = run(["theta-curve", "--points", points, "--out", str(out)],
                               capsys)
            assert code == EXIT_CONFIG
            assert message in err
            assert not out.exists()


class TestSpectrumAndCorrelation:
    def test_spectrum_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(["spectrum", "--n-omega", "600", "--out", str(out)],
                         capsys)
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "omega_ev,amplitude,amplitude_sq"

    def test_correlation_prints_width(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run(["correlation", "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert "correlation time" in stdout
        assert out.read_text().splitlines()[0] == "t_au,t_s,re,im,abs"

    def test_sized_grid_is_reported(self, tmp_path, capsys):
        """Without --n-omega, correlation and lifetime print the grid size
        they settled at and its last level-to-level change."""
        sized = spc.sized_spectrum(spc.provider_pole(species("He")),
                                   t_max_au=40.0, n_t=4096)
        _, d_gamma, d_c = sized.history[-1]
        note = "n_omega = 128 (sized by its error: from 64 nodes, |dGamma|/Gamma = "
        _, stdout, _ = run(["correlation", "--out", str(tmp_path / "c.csv")], capsys)
        assert stdout.splitlines()[-1] == f"{note}{d_gamma:.2g}, max|dC| = {d_c:.2g})"
        _, stdout, _ = run(["lifetime"], capsys)
        assert stdout.splitlines()[-1].startswith(note)
        assert "max|dC|" not in stdout
        _, stdout, _ = run(["correlation", "--n-omega", "64",
                            "--out", str(tmp_path / "c.csv")], capsys)
        assert "n_omega" not in stdout

    def test_t_max_past_the_sized_grid_fails_before_any_rule(self, tmp_path, capsys,
                                                             rule_builds):
        out = tmp_path / "c.csv"
        code, _, err = run(["correlation", "--tmax-au", "1e5", "--out", str(out)], capsys)
        assert code == EXIT_CONFIG
        assert "needs more than 8192 frequency nodes" in err
        # one level resolves it, so the sizing cannot compare two
        code, _, err = run(["correlation", "--tmax-au", "6000", "--out", str(out)],
                           capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical error (SpectrumConvergenceError)" in err
        assert not out.exists()
        assert rule_builds == Counter()

    def test_unsettled_grid_is_numerical_error(self, capsys, monkeypatch):
        monkeypatch.setattr(spc, "_MAX_N_POINTS", 128)
        monkeypatch.setattr(spc, "_GAMMA_RTOL", 0.0)
        code, out, err = run(["lifetime"], capsys)
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical error (SpectrumConvergenceError): the "
                              "spectrum grid did not settle by 128 nodes")
        assert out == ""

    # rule_builds fails a rule above 2048 nodes before it is built, so an
    # unchecked 8193 cannot allocate
    @pytest.mark.parametrize("command", ["spectrum", "correlation"])
    @pytest.mark.parametrize("n_omega", ["0", "-3", "1", "8193"])
    def test_too_few_frequency_points_names_n_points(self, command, n_omega,
                                                     tmp_path, capsys, rule_builds):
        code, _, err = run([command, "--n-omega", n_omega,
                            "--out", str(tmp_path / "out.csv")], capsys)
        assert code == EXIT_CONFIG
        bound = ">= 2" if int(n_omega) < 2 else "<= 8192"
        assert f"n_points must be {bound}, got {n_omega}" in err
        assert rule_builds == Counter()

    @pytest.mark.parametrize("n_t", ["-1", "0", "1", "1048577"])
    def test_too_few_time_points_names_n_t(self, n_t, tmp_path, capsys):
        code, _, err = run(["correlation", "--n-omega", "64", "--n-t", n_t,
                            "--out", str(tmp_path / "c.csv")], capsys)
        assert code == EXIT_CONFIG
        bound = ">= 2" if int(n_t) < 2 else "<= 1048576"
        assert f"n_t must be {bound}" in err

    @pytest.mark.parametrize("option", [["--n-t", "1"], ["--tmax-au", "nan"]],
                             ids=["n_t", "t_max_au"])
    def test_bad_time_grid_fails_before_any_rule(self, option, tmp_path, capsys,
                                                 rule_builds):
        code, out, _ = run(["correlation", *option,
                            "--out", str(tmp_path / "c.csv")], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert rule_builds == Counter()

    @pytest.mark.parametrize("t_max", ["nan", "inf", "0", "-40"])
    def test_bad_t_max_names_t_max_au(self, t_max, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, err = run(["correlation", "--n-omega", "64", "--tmax-au", t_max,
                            "--out", str(out)], capsys)
        assert code == EXIT_CONFIG
        assert f"t_max_au must be finite and > 0, got {float(t_max)}" in err
        assert not out.exists()

    def test_unknown_species_is_config_error(self, capsys):
        code, _, err = run(["lifetime", "--species", "Unobtainium"], capsys)
        assert code == EXIT_CONFIG
        assert "configuration error: unknown species 'Unobtainium'" in err

    def test_he_like_z_past_the_cap_is_config_error(self, capsys):
        code, out, err = run(["lifetime", "--species", "He-like(Z=1000)"], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: He-like requires Z <= 30, got 1000")
        assert out == ""

    def test_unknown_provider_is_config_error(self, capsys):
        code, _, err = run(["lifetime", "--provider", "oracle"], capsys)
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_flat_lifetime_is_config_error(self, capsys):
        code, out, err = run(["lifetime", "--provider", "flat"], capsys)
        assert code == EXIT_CONFIG
        assert err == ("configuration error: provider 'flat' is not "
                       "calibrated in absolute a.u.\n")
        assert out == ""

    def test_lifetime(self, capsys):
        code, out, _ = run(["lifetime"], capsys)
        assert code == EXIT_OK
        assert "lifetime" in out


class TestRates:
    @pytest.mark.parametrize("scheme", ["narrowband-4photon", "broadband-4photon",
                                        "sequential", "scrap", "etpa"])
    def test_all_schemes(self, scheme, capsys):
        code, out, _ = run(["rates", scheme], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["scheme"] == scheme
        assert "final_rate" in report

    # json writes and reads NaN and Infinity as floats, which pass the
    # "number" schema check
    @pytest.mark.parametrize("scheme, key, value", [
        ("etpa", "molecules", math.nan),
        ("etpa", "molecules", -1e12),
        ("etpa", "photon_rate_hz", -1e12),
        ("narrowband-4photon", "intensity_wcm2", math.nan),
        ("narrowband-4photon", "intensity_wcm2", math.inf),
        ("broadband-4photon", "bandwidth_hz", math.inf),
        ("scrap", "n_atoms", -1e13),
        ("narrowband-4photon", "spot_diameter_um", -1),
        ("narrowband-4photon", "path_length_mm", 0),
        ("sequential", "tau_2p_ns", math.nan),
        ("scrap", "pulse_duration_fs", -50),
        ("narrowband-4photon", "intensity_wcm2", 0),
        ("broadband-4photon", "intensity_wcm2", 0),
        ("scrap", "intensity_wcm2", 0),
    ])
    def test_bad_override_is_config_error(self, scheme, key, value, tmp_path,
                                          capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"schemes": {scheme: {key: value}}}))
        code, out, err = run(["rates", scheme, "--config", str(scenario)], capsys)
        assert code == EXIT_CONFIG
        assert f"configuration error: $.schemes.{scheme}: {key} must be" in err
        assert out == ""

    @pytest.mark.parametrize("scheme", list(sch.SCHEMES))
    def test_bad_value_in_any_scheme_is_config_error(self, scheme, tmp_path, capsys):
        # the scenario builds every scheme's inputs when it is parsed
        scenario = tmp_path / "bad.json"
        scenario.write_text('{"schemes": {"scrap": {"intensity_wcm2": NaN}}}')
        code, out, err = run(["rates", scheme, "--config", str(scenario)], capsys)
        assert code == EXIT_CONFIG
        assert err == ("configuration error: $.schemes.scrap: intensity_wcm2 "
                       "must be finite and positive, got nan\n")
        assert out == ""

    @pytest.mark.parametrize("scheme, code", [
        ("narrowband-4photon", EXIT_CONFIG), ("broadband-4photon", EXIT_CONFIG),
        ("sequential", EXIT_OK), ("scrap", EXIT_CONFIG), ("etpa", EXIT_OK)])
    def test_he_like_species_needs_d4(self, scheme, code, tmp_path, capsys):
        # He-like ions carry no four-photon matrix element D4
        scenario = tmp_path / "he_like.json"
        scenario.write_text(json.dumps({"species": "He-like(Z=5)"}))
        got, out, err = run(["rates", scheme, "--config", str(scenario)], capsys)
        assert got == code, err
        if code == EXIT_CONFIG:
            assert err == ("configuration error: He-like(Z=5): four-photon "
                           "matrix element not available\n")
            assert out == ""

    # finite overrides whose product overflows; json would print Infinity
    @pytest.mark.parametrize("scheme, overrides, step", [
        ("etpa", {"molecules": 1e300, "photon_rate_hz": 1e300}, "final_rate"),
        ("narrowband-4photon", {"intensity_wcm2": 1e300}, None),
    ])
    def test_non_finite_result_is_numerical_error(self, scheme, overrides, step,
                                                  tmp_path, capsys):
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps({"schemes": {scheme: overrides}}))
        code, out, err = run(["rates", scheme, "--config", str(scenario)], capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical error" in err
        if step:
            assert f"{scheme}: step {step!r} is not finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "scheme, key",
        [(scheme, key) for scheme in sch.SCHEMES for key in KEYS])
    def test_scheme_reads_exactly_its_keys(self, scheme, key, tmp_path, capsys):
        """A key in the scheme's entry changes its report; any other key is
        a configuration error naming the scheme and the keys it takes."""
        scenario = tmp_path / "one_key.json"
        plain = tmp_path / "plain.json"
        scenario.write_text(json.dumps({"schemes": {scheme: {key: 0.75}}}))
        plain.write_text("{}")
        code, out, err = run(["rates", scheme, "--config", str(scenario)], capsys)
        allowed = sch.SCHEMES[scheme].defaults
        if key in allowed:
            assert code == EXIT_OK, err
            assert out != run(["rates", scheme, "--config", str(plain)], capsys)[1]
        else:
            assert code == EXIT_CONFIG
            assert err == (f"configuration error: $.schemes.{scheme}: unknown "
                           f"key(s) [{key!r}]; allowed: {sorted(allowed)}\n")
            assert out == ""

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run(["rates", "etpa", "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert json.loads(out.read_text())["scheme"] == "etpa"


class TestRepro:
    def test_default_exit_zero(self, capsys):
        code, out, _ = run(["repro"], capsys)
        assert code == EXIT_OK
        assert "23/25 rows passed" in out

    def test_bad_config_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        code, _, err = run(["repro", "--config", str(bad)], capsys)
        assert code == EXIT_CONFIG
        assert "unknown key" in err

    def test_overflowing_override_exits_before_the_spectrum(self, tmp_path, capsys,
                                                            monkeypatch):
        # repro runs the scheme reports first, as run does
        def spectral_amplitude(*args, **kwargs):
            raise AssertionError("the spectrum was computed")

        monkeypatch.setattr(spc, "spectral_amplitude", spectral_amplitude)
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(
            {"schemes": {"etpa": {"molecules": 1e300, "photon_rate_hz": 1e300}}}))
        code, out, err = run(["repro", "--config", str(config)], capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "etpa" in err


class TestRun:
    def test_bundled_scenario(self, tmp_path, capsys):
        code, out, _ = run(["run", str(bundled_scenario_path()),
                            "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "repro_table.json").exists()
        assert (tmp_path / "fig_s1.csv").exists()
        assert [Path(line.split(" ", 1)[1]).name for line in out.splitlines()] == [
            "fig_s1.csv", "fig2.csv", "rates_narrowband.json", "rates_broadband.json",
            "rates_sequential.json", "rates_scrap.json", "rates_etpa.json",
            "repro_table.json"]

    def test_relative_out_dir_under_outdir_env(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "small.json"
        scenario.write_text(json.dumps({"geometry": {"ratios": [1]},
                                        "spectrum": {"n_omega": 64}}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path / "base"))
        code, _, _ = run(["run", str(scenario), "--out-dir", "rel"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "base" / "rel" / "repro_table.json").exists()
        assert not (tmp_path / "rel").exists()

    def test_missing_scenario(self, capsys):
        code, _, err = run(["run", "does-not-exist.json"], capsys)
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    @pytest.mark.parametrize("argv", [
        lambda scenario, blocker: ["run", str(scenario), "--out-dir", str(blocker)],
        lambda scenario, blocker: ["theta-curve", "--points", "1",
                                   "--out", str(blocker / "x.csv")],
    ], ids=["run", "theta-curve"])
    def test_unusable_output_path_is_config_error(self, argv, tmp_path, capsys):
        # an existing file where the output directory should be
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        scenario = tmp_path / "small.json"
        scenario.write_text(json.dumps({"geometry": {"ratios": [1.0]},
                                        "spectrum": {"n_omega": 64}}))
        code, out, err = run(argv(scenario, blocker), capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: ")
        assert "wrote" not in out
        assert blocker.read_text() == "kept\n"

    def test_infinite_ratio_is_config_error(self, tmp_path, capsys):
        # json reads Infinity as a float, which passes the ratios >= 1 check
        scenario = tmp_path / "inf.json"
        scenario.write_text('{"geometry": {"ratios": [Infinity]}}')
        code, _, err = run(["run", str(scenario), "--out-dir", str(tmp_path)],
                           capsys)
        assert code == EXIT_CONFIG
        assert "need finite a >= b > 0, got a=inf" in err

    @pytest.mark.filterwarnings("error")
    def test_ratio_past_the_overflow_bound_is_config_error(self, tmp_path, capsys):
        scenario = tmp_path / "huge.json"
        scenario.write_text('{"geometry": {"ratios": [1e308]}}')
        out_dir = tmp_path / "out"
        code, out, err = run(["run", str(scenario), "--out-dir", str(out_dir)],
                             capsys)
        assert code == EXIT_CONFIG
        assert "configuration error: aspect ratio 1e+308 " in err
        assert "Warning" not in err
        assert "wrote" not in out
        assert not out_dir.exists()

    def test_infinite_rel_tol_is_config_error(self, tmp_path, capsys):
        # json reads Infinity as a float, which passes the "number" schema check
        scenario = tmp_path / "inf.json"
        scenario.write_text('{"geometry": {"ratios": [148.0], "rel_tol": Infinity}}')
        out_dir = tmp_path / "out"
        code, out, err = run(["run", str(scenario), "--out-dir", str(out_dir)],
                             capsys)
        assert code == EXIT_CONFIG
        assert "configuration error: rel_tol must be finite and positive" in err
        assert "wrote" not in out
        assert not out_dir.exists()

    def test_non_finite_rate_is_numerical_error(self, tmp_path, capsys):
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps({
            "geometry": {"ratios": [1.0]}, "spectrum": {"n_omega": 64},
            "schemes": {"etpa": {"molecules": 1e300, "photon_rate_hz": 1e300}}}))
        out_dir = tmp_path / "out"
        code, _, err = run(["run", str(scenario), "--out-dir", str(out_dir)],
                           capsys)
        assert code == EXIT_NUMERICAL
        assert "etpa: step 'final_rate' is not finite" in err
        assert not out_dir.exists()

    def test_failed_run_leaves_out_dir_as_it_was(self, tmp_path, capsys):
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps({
            "schemes": {"etpa": {"molecules": 1e300, "photon_rate_hz": 1e300}}}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "fig_s1.csv").write_text("earlier\n")
        code, out, _ = run(["run", str(scenario), "--out-dir", str(out_dir)],
                           capsys)
        assert code == EXIT_NUMERICAL
        assert "wrote" not in out
        assert {p.name: p.read_text() for p in out_dir.iterdir()} == {
            "fig_s1.csv": "earlier\n"}

    def test_nan_t_max_is_config_error(self, tmp_path, capsys):
        # json reads NaN as a float, which passes the "number" schema check
        scenario = tmp_path / "nan.json"
        scenario.write_text('{"geometry": {"ratios": [1.0]}, '
                            '"spectrum": {"n_omega": 64, "t_max_au": NaN}}')
        code, _, err = run(["run", str(scenario), "--out-dir", str(tmp_path)],
                           capsys)
        assert code == EXIT_CONFIG
        assert "t_max_au must be finite and > 0, got nan" in err
        assert not (tmp_path / "fig2.csv").exists()


@pytest.mark.parametrize("command", ["run", "repro"])
@pytest.mark.parametrize("spectrum, message", [
    ({"n_t": 1}, "$.spectrum.n_t must be >= 2, got 1"),
    ({"n_omega": 1}, "$.spectrum.n_omega must be >= 2, got 1"),
    ({"t_max_au": -40}, "$.spectrum.t_max_au must be finite and > 0, got -40.0"),
    ({"t_max_au": math.inf}, "$.spectrum.t_max_au must be finite and > 0, got inf"),
    ({"n_t": 2**20 + 1}, "$.spectrum.n_t must be <= 1048576, got 1048577"),
    ({"n_omega": 8193}, "$.spectrum.n_omega must be <= 8192, got 8193"),
    ({"n_omega": 64.5}, "$.spectrum.n_omega must be an integer or None, got float"),
], ids=["n_t", "n_omega", "negative-t_max", "infinite-t_max", "n_t-over-cap",
        "n_omega-over-cap", "n_omega-not-integer"])
def test_bad_spectrum_setting_fails_before_any_rule(command, spectrum, message,
                                                    tmp_path, capsys, rule_builds):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({"spectrum": spectrum}))
    argv = {"run": ["run", str(scenario), "--out-dir", str(tmp_path / "out")],
            "repro": ["repro", "--config", str(scenario)]}[command]
    code, out, err = run(argv, capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert message in err
    assert rule_builds == Counter()


def _fresh_python(script: str, cwd) -> str:
    """Run ``script`` in a new interpreter on this checkout; return its stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_config_paths_do_not_import_numpy(tmp_path):
    """The registry, the scenario schema, the scheme budgets and the exit-2
    paths run on the stdlib alone: a fresh process that takes them loads no
    numpy and no concurrent.futures module."""
    bad = {"unknown-key": {"bogus": 1}, "n_t": {"spectrum": {"n_t": 1}},
           "n_omega": {"spectrum": {"n_omega": 1}},
           "t_max_au": {"spectrum": {"t_max_au": -40}},
           "nan-t_max_au": {"spectrum": {"t_max_au": math.nan}},
           "n_omega-over-cap": {"spectrum": {"n_omega": 8193}},
           "t_max_au-unresolvable": {"spectrum": {"t_max_au": 1e5}},
           "scheme-value": {"schemes": {"scrap": {"intensity_wcm2": 0}}}}
    for name, scenario in bad.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))
    script = f"""
import json, sys
import biphoton
from biphoton.cli import main
from biphoton.registry import species
from biphoton.reporting import Scenario, bundled_scenario_path
species("He")
Scenario.from_file(bundled_scenario_path())
for scheme in {list(sch.SCHEMES)!r}:
    assert main(["rates", scheme]) == 0, scheme
assert main(["theta", "--ratio", "0.5"]) == 2
for name in {list(bad)!r}:
    assert main(["run", name + ".json", "--out-dir", "out"]) == 2, name
for argv in (["spectrum", "--n-omega", "8193"], ["theta-curve", "--points", "10001"],
             ["correlation", "--n-t", "1048577"], ["correlation", "--tmax-au", "1e5"]):
    assert main(argv) == 2, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "numpy"
                        or m.startswith("concurrent.futures"))))
"""
    out = _fresh_python(script, tmp_path)
    assert json.loads(out.splitlines()[-1]) == []


def test_first_numerical_call_rebinds_np_to_numpy(tmp_path):
    """Each module's ``np`` stands in for numpy until its first numerical
    call and is numpy itself after it, so later calls pay nothing extra."""
    script = """
import numpy
from biphoton import cavity, cli, quadrature, schemes, spectrum
from biphoton.registry import species
modules = (quadrature, cavity, spectrum, schemes, cli)
assert not any(m.np is numpy for m in modules)
quadrature.gauss_legendre(4, 1.0)
cavity.angular_jacobian(cavity.Spheroid(2.0, 1.0), [0.5])
spectrum.FlatChain(1.0).chain_sum([0.5])
he = species("He")
emitter = spectrum.spectral_amplitude(spectrum.provider_pole(he), 4)
schemes.r_trans(1.0, 1.0, he, emitter)
assert cli.main(["theta-curve", "--points", "2", "--out", "curve.csv"]) == 0
print([m.__name__ for m in modules if m.np is not numpy])
"""
    out = _fresh_python(script, tmp_path)
    assert out.splitlines()[-1] == "[]"


def test_cli_paths_do_not_import_scipy(tmp_path):
    """scipy is a test dependency only, so a fresh process that imports
    biphoton and runs these commands loads no scipy module."""
    script = f"""
import json, sys
from biphoton.cli import main
from biphoton.reporting import bundled_scenario_path
for argv in (["run", str(bundled_scenario_path()), "--out-dir", {str(tmp_path)!r}],
             ["theta", "--ratio", "2", "--mc", "1000"],
             ["rates", "sequential"]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    out = _fresh_python(script, tmp_path)
    assert json.loads(out.splitlines()[-1]) == []


@pytest.mark.parametrize("argv, before", [
    (["run", "small.json", "--out-dir", "out"],
     {"out/fig_s1.csv": "earlier\n", "out/fig2.csv": None}),
    (["correlation", "--n-omega", "64", "--out", "out/corr.csv"],
     {"out/corr.csv": "earlier\n"}),
], ids=["run", "correlation"])
def test_cut_write_leaves_every_target_as_it_was(argv, before, tmp_path):
    """In a child whose files may not grow past 4096 bytes, the first large
    artifact cannot be written: the command exits 2, and each target holds
    what it held before (or is still absent), with no temporary file left."""
    (tmp_path / "small.json").write_text(json.dumps(
        {"geometry": {"ratios": [1.0]}, "spectrum": {"n_omega": 64}}))
    (tmp_path / "out").mkdir()
    for name, text in before.items():
        if text is not None:
            (tmp_path / name).write_text(text)
    script = """
import resource, signal, sys
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
from biphoton.cli import main
sys.exit(main(sys.argv[1:]))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("BIPHOTON_OUTDIR", None)
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "File too large" in proc.stderr
    assert {name: (tmp_path / name).read_text() if (tmp_path / name).exists() else None
            for name in before} == before
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        Path(name).name for name, text in before.items() if text is not None)


def _commands() -> dict[str, argparse.ArgumentParser]:
    """Subcommand name -> its parser."""
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_flag_defaults_are_the_scenario_defaults():
    """Each setting has one default: the CLI flag's, the scenario table's
    (``reporting.DEFAULTS``) and the numeric function's all agree."""
    commands = _commands()

    def flags(dest, *names):
        return {commands[name].get_default(dest) for name in names}

    def param(function, name):
        return inspect.signature(function).parameters[name].default

    spectrum = DEFAULTS["$.spectrum"]
    one_species = ("spectrum", "correlation", "lifetime")
    assert flags("species", *one_species) == {DEFAULTS["$"]["species"]}
    assert flags("provider", *one_species) == {spectrum["provider"]}
    # None: the grid sized by its error
    assert flags("n_omega", "correlation") | {
        param(spc.two_photon_decay_rate, "n_points")} == {spectrum["n_omega"]} == {None}
    # the spectrum command's grid is its output, so it is not sized
    assert flags("n_omega", "spectrum") == {param(spc.spectral_amplitude, "n_points")}
    assert flags("tmax_au", "correlation") | {
        param(spc.correlation_function, "t_max_au")} == {spectrum["t_max_au"]}
    assert flags("n_t", "correlation") | {
        param(spc.correlation_function, "n_t")} == {spectrum["n_t"]}
    assert flags("rel_tol", "theta-curve") | {
        param(cavity.theta_curve, "rel_tol")} == {DEFAULTS["$.geometry"]["rel_tol"]}


# Every numeric input is tried at these values and at its cap + 1 where it has
# a cap; None stands for JSON null and is tried on scenario keys only.
EDGE_VALUES = [0, -1, math.nan, math.inf, -math.inf, 1e308, "x", None]
CAPS = {"--n-omega": spc._MAX_N_POINTS, "n_omega": spc._MAX_N_POINTS,
        "--n-t": spc._MAX_N_T, "n_t": spc._MAX_N_T, "--points": 10_000,
        "--mc": 10**9}
# arguments that keep a command cheap whatever the value under test
BASE_ARGS = {"theta": ["--ratio", "2"], "theta-curve": ["--points", "2"],
             "spectrum": ["--n-omega", "64"], "correlation": ["--n-omega", "64"]}
FLAG_ARGS = {("theta", "--seed"): ["--mc", "1000"]}    # the seed is read by --mc
# one aspect ratio and a 64-node grid that still resolves t_max = 40 a.u.
SMALL_SCENARIO = {"geometry": {"ratios": [1.0]}, "spectrum": {"n_omega": 64}}


# (command, flag, whether the command writes --out) for every int or float flag
NUMERIC_FLAGS = [(name, action.option_strings[0], "--out" in command._option_string_actions)
                 for name, command in _commands().items() for action in command._actions
                 if action.type in (int, float)]
# (section path, key, default) for every key of a scenario file
SCENARIO_KEYS = [(path, key, default) for path, table in DEFAULTS.items()
                 for key, default in table.items()] + [
    (f"$.schemes.{scheme}", key, default) for scheme, entry in sch.SCHEMES.items()
    for key, default in entry.defaults.items()]


def _documented_exit(argv, capsys) -> int:
    """Exit code of ``argv``, which must be documented and leave no traceback
    or warning on stderr; a Python warning fails the case."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the value
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    return code


def _files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.rglob("*") if p.is_file())


@pytest.mark.parametrize("command, flag, writes", NUMERIC_FLAGS,
                         ids=[f"{c} {f}" for c, f, _ in NUMERIC_FLAGS])
def test_every_numeric_flag_ends_in_a_documented_exit(command, flag, writes,
                                                      tmp_path, capsys):
    values = [v for v in EDGE_VALUES if v is not None]
    for i, value in enumerate(values + ([CAPS[flag] + 1] if flag in CAPS else [])):
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        argv = [command, *BASE_ARGS.get(command, []),
                *FLAG_ARGS.get((command, flag), []), f"{flag}={value}"]
        if writes:
            argv += ["--out", str(out_dir / "out.csv")]
        code = _documented_exit(argv, capsys)
        assert _files(out_dir) == (["out.csv"] if writes and code == 0 else []), argv


@pytest.mark.parametrize("path, key, default", SCENARIO_KEYS,
                         ids=[f"{p}.{k}" for p, k, _ in SCENARIO_KEYS])
def test_every_scenario_key_ends_in_a_documented_exit(path, key, default,
                                                      tmp_path, capsys):
    """Scheme keys run through ``rates <id>``, which loads no numpy, and the
    other keys through ``run`` on an otherwise small scenario."""
    for i, value in enumerate(EDGE_VALUES + ([CAPS[key] + 1] if key in CAPS else [])):
        raw = copy.deepcopy(SMALL_SCENARIO)
        section = raw if path == "$" else raw.setdefault(path.split(".")[1], {})
        if path.startswith("$.schemes."):
            section = section.setdefault(path.split(".")[2], {})
        section[key] = [value] if isinstance(default, list) else value
        scenario = tmp_path / f"{i}.json"
        scenario.write_text(json.dumps(raw))
        out_dir = tmp_path / str(i)
        if path.startswith("$.schemes."):
            scheme = path.split(".")[2]
            argv = ["rates", scheme, "--config", str(scenario),
                    "--out", str(out_dir / "rates.json")]
            expected = ["rates.json"]
        else:
            argv = ["run", str(scenario), "--out-dir", str(out_dir)]
            expected = sorted(["fig_s1.csv", "fig2.csv", "repro_table.json",
                               *(f"rates_{s.split('-')[0]}.json" for s in sch.SCHEMES)])
        code = _documented_exit(argv, capsys)
        files = _files(out_dir) if out_dir.exists() else []
        assert files == (expected if code == 0 else []), (argv, code)
