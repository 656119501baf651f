import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biphoton import cavity
from biphoton import schemes as sch
from biphoton.cli import EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from biphoton.reporting import bundled_scenario_path


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

    def test_unreachable_tolerance_is_numerical_error(self, capsys, rules_up_to_2048):
        code, out, err = run(["theta", "--ratio", "148", "--rel-tol", "1e-12"], capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical error (ThetaConvergenceError)" in err
        assert out == ""

    def test_zero_mc_samples_is_config_error(self, capsys):
        code, out, err = run(["theta", "--ratio", "2", "--mc", "0"], capsys)
        assert code == EXIT_CONFIG
        assert "need n_samples >= 1000" in err
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

    def test_zero_points_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, err = run(["theta-curve", "--points", "0", "--out", str(out)],
                           capsys)
        assert code == EXIT_CONFIG
        assert "--points must be >= 1, got 0" in err
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

    @pytest.mark.parametrize("command", ["spectrum", "correlation"])
    @pytest.mark.parametrize("n_omega", ["0", "-3", "1"])
    def test_too_few_frequency_points_names_n_points(self, command, n_omega,
                                                     tmp_path, capsys):
        code, _, err = run([command, "--n-omega", n_omega,
                            "--out", str(tmp_path / "out.csv")], capsys)
        assert code == EXIT_CONFIG
        assert f"n_points must be >= 2, got {n_omega}" in err

    @pytest.mark.parametrize("n_t", ["-1", "0", "1"])
    def test_too_few_time_points_names_n_t(self, n_t, tmp_path, capsys):
        code, _, err = run(["correlation", "--n-omega", "64", "--n-t", n_t,
                            "--out", str(tmp_path / "c.csv")], capsys)
        assert code == EXIT_CONFIG
        assert "n_t must be >= 2" in err

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
    ])
    def test_bad_override_is_config_error(self, scheme, key, value, tmp_path,
                                          capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"schemes": {scheme: {key: value}}}))
        code, out, err = run(["rates", scheme, "--config", str(scenario)], capsys)
        assert code == EXIT_CONFIG
        assert "configuration error" in err
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
        [(scheme, key) for scheme in sch.SCHEMES for key in sch.OVERRIDE_KEYS])
    def test_scheme_reads_exactly_its_keys(self, scheme, key, tmp_path, capsys):
        """A key in the scheme's entry changes its report; any other key is
        a configuration error naming the scheme and the keys it takes."""
        scenario = tmp_path / "one_key.json"
        plain = tmp_path / "plain.json"
        scenario.write_text(json.dumps({"schemes": {scheme: {key: 0.75}}}))
        plain.write_text("{}")
        code, out, err = run(["rates", scheme, "--config", str(scenario)], capsys)
        allowed = sch.SCHEMES[scheme].keys
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

    def test_strict_exit_four(self, capsys):
        code, _, _ = run(["repro", "--strict"], capsys)
        assert code == EXIT_ACCEPTANCE

    def test_bad_config_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        code, _, err = run(["repro", "--config", str(bad)], capsys)
        assert code == EXIT_CONFIG
        assert "unknown key" in err


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


def test_cli_paths_do_not_import_scipy(tmp_path):
    """scipy serves only the Bessel oracle, so a fresh process that imports
    biphoton and runs these commands loads no scipy module."""
    src = Path(__file__).resolve().parents[1] / "src"
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
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
