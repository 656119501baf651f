import json
from collections import Counter

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def counted_run(tmp_path_factory):
    """One run of the bundled scenario, counting the correlation transforms
    and the calls of each scheme runner."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "correlation_function",
                   counting("correlation_function", spc.correlation_function))
        for scheme, run in list(sch.SCHEME_RUNNERS.items()):
            mp.setitem(sch.SCHEME_RUNNERS, scheme, counting(scheme, run))
        files = run_scenario(bundled_scenario_path(), tmp_path_factory.mktemp("run"))
    return files, calls


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
        files1, _ = counted_run
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
        files, _ = counted_run
        by_name = {p.name: p for p in files}
        assert by_name["fig_s1.csv"].read_text().splitlines()[0] == \
            "ratio,theta,method,stderr"
        assert by_name["fig2.csv"].read_text().splitlines()[0] == \
            "t_au,t_s,re,im,abs"

    def test_rates_json_valid(self, counted_run):
        files, _ = counted_run
        for p in files:
            if p.suffix == ".json":
                json.loads(p.read_text())

    def test_each_stage_runs_once(self, counted_run):
        _, calls = counted_run
        assert calls == Counter({"correlation_function": 1,
                                 **{scheme: 1 for scheme in sch.SCHEMES}})


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
