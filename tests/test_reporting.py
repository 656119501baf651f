import json
import sys
from collections import Counter

import numpy as np
import pytest

from biphoton import cavity
from biphoton import schemes as sch
from biphoton import spectrum as spc
from biphoton.registry import species
from biphoton.reporting import (
    ReproRow,
    ReproTable,
    Scenario,
    SchemaError,
    bundled_scenario_path,
    repro_report,
    run_scenario,
)


@pytest.fixture(scope="module")
def table():
    return repro_report()


def _rebind_everywhere(mp, fn, wrapper):
    """Replace ``fn`` by ``wrapper`` in its own module and in every biphoton
    module that imported it."""
    for name, module in list(sys.modules.items()):
        if name == fn.__module__ or name.startswith("biphoton"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    mp.setattr(module, attr, wrapper)


@pytest.fixture(scope="module")
def counted_run(tmp_path_factory):
    """One run of the bundled scenario, counting the correlation transforms,
    the calls of each scheme runner, the sizes of the Gauss-Legendre rules
    built and the aspect ratios given to the Theta quadrature."""
    calls, rule_sizes, theta_ratios = Counter(), Counter(), Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    build_rule, quadrature = np.polynomial.legendre.leggauss, cavity.theta_factor_quadrature

    def leggauss(deg):
        rule_sizes[deg] += 1
        return build_rule(deg)

    def theta_factor_quadrature(s, *args, **kwargs):
        theta_ratios[s.ratio] += 1
        return quadrature(s, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "correlation_function",
                   counting("correlation_function", spc.correlation_function))
        for scheme, run in list(sch.SCHEME_RUNNERS.items()):
            mp.setitem(sch.SCHEME_RUNNERS, scheme, counting(scheme, run))
        _rebind_everywhere(mp, build_rule, leggauss)
        _rebind_everywhere(mp, quadrature, theta_factor_quadrature)
        files = run_scenario(bundled_scenario_path(), tmp_path_factory.mktemp("run"))
    return files, calls, rule_sizes, theta_ratios


class TestScenarioSchema:
    def test_bundled_scenario_loads(self):
        sc = Scenario.from_file(bundled_scenario_path())
        assert sc.species == "He"
        assert sc.seed == 42
        assert sc.ratios[0] == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            Scenario.from_file(tmp_path / "nope.json")

    def test_invalid_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"name": }')
        with pytest.raises(SchemaError, match=r"line 1"):
            Scenario.from_file(p)

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match=r"\$: unknown key"):
            Scenario.from_dict({"bogus": 1})

    def test_unknown_scheme_override_key(self):
        with pytest.raises(SchemaError, match=r"\$\.schemes\.etpa"):
            Scenario.from_dict({"schemes": {"etpa": {"warp_factor": 9}}})

    def test_unknown_scheme_name(self):
        with pytest.raises(SchemaError, match=r"unknown scheme"):
            Scenario.from_dict({"schemes": {"telepathy": {}}})

    def test_type_errors_carry_path(self):
        with pytest.raises(SchemaError, match=r"\$\.geometry\.rel_tol"):
            Scenario.from_dict({"geometry": {"rel_tol": "tight"}})
        with pytest.raises(SchemaError, match=r"\$\.seed"):
            Scenario.from_dict({"seed": True})

    def test_bad_provider(self):
        with pytest.raises(SchemaError, match="provider"):
            Scenario.from_dict({"spectrum": {"provider": "oracle"}})

    def test_sub_unit_ratio(self):
        with pytest.raises(SchemaError, match="ratios"):
            Scenario.from_dict({"geometry": {"ratios": [0.5]}})

    def test_config_override_mapping(self):
        sc = Scenario.from_dict({"schemes": {
            "narrowband-4photon": {"intensity_wcm2": 2e14, "path_length_mm": 3.0},
        }})
        cfg = sc.config("narrowband-4photon")
        assert cfg.intensity.value == 2e14
        assert cfg.path_length.to("mm").value == pytest.approx(3.0)

    @pytest.mark.parametrize("key, field, unit", [
        ("intensity_wcm2", "intensity", "W/cm^2"),
        ("bandwidth_hz", "bandwidth", "Hz"),
        ("pressure_bar", "pressure_bar", None),
        ("temperature_k", "temperature_k", None),
        ("spot_diameter_um", "spot_diameter", "um"),
        ("path_length_mm", "path_length", "mm"),
        ("tau_2p_ns", "tau_2p", "ns"),
        ("pulse_duration_fs", "pulse_duration", "fs"),
        ("repetition_rate_hz", "repetition_rate_hz", None),
        ("excitation_fraction", "excitation_fraction", None),
        ("n_atoms", "n_atoms", None),
        ("molecules", "molecules", None),
        ("photon_rate_hz", "photon_rate_hz", None),
        ("lineshape_factor_au", "lineshape_factor_au", None),
    ])
    def test_every_override_key(self, key, field, unit):
        value = 0.75    # valid for every key, and no field's default
        cfg = Scenario.from_dict({"schemes": {"scrap": {key: value}}}).config("scrap")
        got = getattr(cfg, field)
        if unit is None:
            assert got == value
        else:
            assert (got.value, got.unit) == (value, unit)


class TestReproTable:
    def test_row_count(self, table):
        assert len(table.rows) == 25

    def test_known_failures_only(self, table):
        failed = sorted(r.claim_id for r in table.rows if not r.passed)
        assert failed == ["collection_fraction", "sigma_e"]
        for r in table.rows:
            if not r.passed:
                assert r.note, f"failing row {r.claim_id} must carry a note"

    def test_ids_unique(self, table):
        ids = [r.claim_id for r in table.rows]
        assert len(ids) == len(set(ids))

    def test_tolerance_classes(self, table):
        allowed = {"exact-formula", "order-of-magnitude", "shape-only"}
        assert {r.tolerance_class for r in table.rows} <= allowed

    def test_json_round_trip(self, table):
        again = ReproTable.from_json(table.to_json())
        assert again == table

    def test_pretty_summary_line(self, table):
        text = table.pretty()
        assert text.splitlines()[-1] == "23/25 rows passed"
        assert text.count("FAIL") == 2

    def test_all_passed_flag(self, table):
        assert table.all_passed is False
        ok = ReproTable(rows=[ReproRow("x", "d", 1.0, 1.0, 1.0,
                                       "exact-formula", 0.05, True)])
        assert ok.all_passed is True


class TestRunScenario:
    def test_artifacts_and_determinism(self, counted_run, tmp_path):
        files1, *_ = counted_run
        files2 = run_scenario(bundled_scenario_path(), tmp_path)
        names = sorted(p.name for p in files1)
        assert names == sorted([
            "fig_s1.csv", "fig2.csv", "rates_narrowband.json",
            "rates_broadband.json", "rates_sequential.json",
            "rates_scrap.json", "rates_etpa.json", "repro_table.json",
        ])
        for p1, p2 in zip(files1, files2):
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_csv_headers(self, counted_run):
        files, *_ = counted_run
        by_name = {p.name: p for p in files}
        assert by_name["fig_s1.csv"].read_text().splitlines()[0] == \
            "ratio,theta,method,stderr"
        assert by_name["fig2.csv"].read_text().splitlines()[0] == \
            "t_au,t_s,re,im,abs"

    def test_rates_json_valid(self, counted_run):
        files, *_ = counted_run
        for p in files:
            if p.suffix == ".json":
                json.loads(p.read_text())

    def test_each_stage_runs_once(self, counted_run):
        _, calls, *_ = counted_run
        assert calls == Counter({"correlation_function": 1,
                                 **{scheme: 1 for scheme in sch.SCHEMES}})

    def test_one_spectrum_rule(self, counted_run):
        *_, rule_sizes, _ = counted_run
        assert rule_sizes[Scenario.from_file(bundled_scenario_path()).n_omega] == 1

    def test_theta_once_per_curve_ratio(self, counted_run):
        *_, theta_ratios = counted_run
        ratios = Scenario.from_file(bundled_scenario_path()).ratios
        assert theta_ratios == Counter(ratios)
        assert set(theta_ratios.values()) == {1}

    def test_repro_report_matches_run(self, counted_run, table):
        files, *_ = counted_run
        repro = next(p for p in files if p.name == "repro_table.json")
        assert table.to_json() + "\n" == repro.read_text()


class TestProviderChoice:
    """The provider picks the correlation in fig2.csv; the repro table uses
    the pole chain whatever the provider."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["spectrum"]["n_omega"] = 512
        out = {}
        for provider in ("pole", "flat"):
            raw["spectrum"]["provider"] = provider
            out_dir = tmp_path_factory.mktemp(provider)
            path = out_dir / "scenario.json"
            path.write_text(json.dumps(raw))
            run_scenario(path, out_dir)
            out[provider] = out_dir
        return raw, out

    def test_repro_table_ignores_provider(self, runs):
        _, out = runs
        assert (out["flat"] / "repro_table.json").read_bytes() == \
            (out["pole"] / "repro_table.json").read_bytes()

    def test_flat_fig2_matches_closed_form(self, runs):
        raw, out = runs
        spectrum = raw["spectrum"]
        data = np.loadtxt(out["flat"] / "fig2.csv", delimiter=",", skiprows=1)
        t = np.linspace(-spectrum["t_max_au"], spectrum["t_max_au"],
                        spectrum["n_t"] | 1)
        np.testing.assert_allclose(data[:, 0], t, rtol=1e-11, atol=0)
        exact = spc.flat_correlation_closed_form(
            t, species(raw["species"]).delta_eg.au)
        np.testing.assert_allclose(data[:, 2], exact.real, rtol=0, atol=1e-11)
        np.testing.assert_allclose(data[:, 3], exact.imag, rtol=0, atol=1e-11)
        np.testing.assert_allclose(data[:, 4], np.abs(exact), rtol=0, atol=1e-11)
