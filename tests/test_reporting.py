import dataclasses
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

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
    _theta_curve_csv,
    bundled_scenario_path,
    repro_report,
    run_scenario,
)
from conftest import count_rule_builds


@pytest.fixture(scope="module")
def table():
    return repro_report()


@pytest.fixture(scope="module")
def counted_run(tmp_path_factory):
    """One run of the bundled scenario, counting the correlation transforms,
    the calls of each scheme runner, the Gauss-Legendre rules built and the
    aspect ratios given to the Theta quadrature."""
    calls, theta_ratios = Counter(), Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    quadrature = cavity.theta_factor_quadrature

    def theta_factor_quadrature(s, *args, **kwargs):
        theta_ratios[s.ratio] += 1
        return quadrature(s, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "correlation_function",
                   counting("correlation_function", spc.correlation_function))
        for scheme, entry in list(sch.SCHEMES.items()):
            mp.setitem(sch.SCHEMES, scheme,
                       dataclasses.replace(entry, run=counting(scheme, entry.run)))
        mp.setattr(cavity, "theta_factor_quadrature", theta_factor_quadrature)
        rule_builds = count_rule_builds(mp)
        files = run_scenario(bundled_scenario_path(), tmp_path_factory.mktemp("run"))
    return files, calls, rule_builds, theta_ratios


class TestScenarioSchema:
    def test_bundled_scenario_loads(self):
        sc = Scenario.from_file(bundled_scenario_path())
        assert sc.species == "He"
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

    def test_seed_is_unknown_key(self):
        # the run has no random input, so a scenario takes no seed
        with pytest.raises(SchemaError, match=r"\$: unknown key.*'seed'"):
            Scenario.from_dict({"seed": 1})

    def test_unknown_scheme_override_key(self):
        with pytest.raises(SchemaError, match=r"\$\.schemes\.etpa"):
            Scenario.from_dict({"schemes": {"etpa": {"warp_factor": 9}}})

    def test_unknown_scheme_name(self):
        with pytest.raises(SchemaError, match=r"unknown scheme"):
            Scenario.from_dict({"schemes": {"telepathy": {}}})

    def test_type_errors_carry_path(self):
        with pytest.raises(SchemaError, match=r"\$\.geometry\.rel_tol"):
            Scenario.from_dict({"geometry": {"rel_tol": "tight"}})
        with pytest.raises(SchemaError, match=r"\$\.spectrum\.n_t"):
            Scenario.from_dict({"spectrum": {"n_t": True}})

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
        cfg = sc.configs["narrowband-4photon"]
        assert cfg.intensity_wcm2 == 2e14
        assert cfg.path_length_mm == 3.0

    @pytest.mark.parametrize(
        "key", sorted(set().union(*(entry.defaults for entry in sch.SCHEMES.values()))))
    def test_every_override_key(self, key):
        value = 0.75    # valid for every key, and no key's default
        for scheme, entry in sch.SCHEMES.items():
            if key in entry.defaults:
                sc = Scenario.from_dict({"schemes": {scheme: {key: value}}})
                assert vars(sc.configs[scheme]) == {**entry.defaults, key: value}


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
    def test_artifacts_match_reference_hashes(self, counted_run):
        """Every byte of the bundled run equals the recorded reference run."""
        files, *_ = counted_run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        reference = json.loads(path.read_text())["paper-run"]
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        assert got == reference

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
        *_, rule_builds, _ = counted_run
        n_omega = Scenario.from_file(bundled_scenario_path()).n_omega
        assert [(n, count) for (n, length), count in rule_builds.items()
                if length != math.pi] == [(n_omega, 1)]

    def test_each_rule_size_built_once(self, counted_run):
        # the Theta curve shares its levels' rules across its ratios, and
        # the repro rows read Theta(1) and Theta(148) from the curve
        *_, rule_builds, _ = counted_run
        assert rule_builds and set(rule_builds.values()) == {1}

    def test_theta_once_per_curve_ratio(self, counted_run):
        *_, theta_ratios = counted_run
        ratios = Scenario.from_file(bundled_scenario_path()).ratios
        assert theta_ratios == Counter(ratios)
        assert set(theta_ratios.values()) == {1}

    def test_repro_report_matches_run(self, counted_run, table):
        files, *_ = counted_run
        repro = next(p for p in files if p.name == "repro_table.json")
        assert table.to_json() + "\n" == repro.read_text()


class TestCurveWithoutTableRatios:
    """A scenario whose ratios lack 1 and 148: the table still reads Theta(1)
    and Theta(148) from the one curve call, and fig_s1.csv holds only the
    scenario's ratios."""

    @pytest.fixture(scope="class")
    def scenario_path(self, tmp_path_factory):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["geometry"]["ratios"] = [2, 3]
        raw["spectrum"]["n_omega"] = 512
        path = tmp_path_factory.mktemp("ratios") / "scenario.json"
        path.write_text(json.dumps(raw))
        return path

    def test_figure_holds_only_scenario_ratios(self, scenario_path, tmp_path):
        run_scenario(scenario_path, tmp_path)
        assert (tmp_path / "fig_s1.csv").read_text() == _theta_curve_csv(
            cavity.theta_curve([2.0, 3.0], rel_tol=1e-7))
        assert (tmp_path / "repro_table.json").read_text() == \
            repro_report(Scenario.from_file(scenario_path)).to_json() + "\n"

    def test_each_theta_rule_built_once(self, scenario_path, rule_builds):
        repro_report(Scenario.from_file(scenario_path))
        assert rule_builds and set(rule_builds.values()) == {1}


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
