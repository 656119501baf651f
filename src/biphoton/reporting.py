"""Scenario execution, CSV/JSON artifact emission, and the reproduction table.

The reproduction table re-derives every quantitative estimate of the source
publication and classifies each row:

* ``exact-formula`` — printed arithmetic recomputed; passes within a small
  relative tolerance (default 5%).
* ``order-of-magnitude`` — estimates the source quotes with "~"; passes when
  the ratio stays within a stated factor.
* ``shape-only`` — structural claims (curve shape, thresholds).

Where a published estimate was itself derived from earlier printed (rounded)
intermediates, the corresponding row chains from those printed intermediates
so it tests the published arithmetic rather than compounding rounding drift;
each such row says so in its provenance string.  Rows that cannot be
reproduced from the stated formulas are reported with ``passed: false`` and
an explanatory note — they are not patched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from importlib import resources
from pathlib import Path

from . import schemes as sch
from . import spectrum as spc
from .cavity import (
    Spheroid,
    THETA_SPHERE,
    theta_curve,
    theta_factor_quadrature,
)
from .registry import default_registry
from .units import (
    AU_TIME_S,
    Quantity,
    atoms_in_focal_volume,
    intensity_to_field,
    number_density,
    photon_flux,
)

__all__ = [
    "SchemaError",
    "Scenario",
    "ReproRow",
    "ReproTable",
    "repro_report",
    "run_scenario",
    "bundled_scenario_path",
]

_FLOAT_FMT = "%.12g"


class SchemaError(ValueError):
    """Scenario file violates the schema; message carries the JSON path."""


# ---------------------------------------------------------------------------
# scenario schema


def _check_keys(obj: dict, allowed: dict, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(
            f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    for key, value in obj.items():
        kind = allowed[key]
        if kind in ("number", "int") and isinstance(value, bool):
            raise SchemaError(f"{path}.{key}: expected {kind}, got bool")
        if kind == "number" and not isinstance(value, (int, float)):
            raise SchemaError(f"{path}.{key}: expected number, got {type(value).__name__}")
        if kind == "int" and not isinstance(value, int):
            raise SchemaError(f"{path}.{key}: expected integer, got {type(value).__name__}")
        if kind == "str" and not isinstance(value, str):
            raise SchemaError(f"{path}.{key}: expected string, got {type(value).__name__}")
        if kind == "list-number":
            if not isinstance(value, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
            ):
                raise SchemaError(f"{path}.{key}: expected a list of numbers")


# scheme override key -> (SchemeConfig field, unit of its Quantity or None)
_SCHEME_OVERRIDES = {
    "intensity_wcm2": ("intensity", "W/cm^2"),
    "bandwidth_hz": ("bandwidth", "Hz"),
    "pressure_bar": ("pressure_bar", None),
    "temperature_k": ("temperature_k", None),
    "spot_diameter_um": ("spot_diameter", "um"),
    "path_length_mm": ("path_length", "mm"),
    "tau_2p_ns": ("tau_2p", "ns"),
    "pulse_duration_fs": ("pulse_duration", "fs"),
    "repetition_rate_hz": ("repetition_rate_hz", None),
    "excitation_fraction": ("excitation_fraction", None),
    "n_atoms": ("n_atoms", None),
    "molecules": ("molecules", None),
    "photon_rate_hz": ("photon_rate_hz", None),
    "lineshape_factor_au": ("lineshape_factor_au", None),
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario file: species, geometry sweep, spectrum settings,
    and per-scheme overrides."""

    name: str
    species: str
    seed: int
    ratios: list[float]
    geometry_rel_tol: float
    provider: str
    n_omega: int
    t_max_au: float
    n_t: int
    scheme_overrides: dict[str, dict]

    @classmethod
    def from_file(cls, path) -> "Scenario":
        path = Path(path)
        if not path.exists():
            raise SchemaError(f"scenario file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        _check_keys(raw, {
            "schema_version": "int", "name": "str", "species": "str",
            "seed": "int", "geometry": "dict", "spectrum": "dict",
            "schemes": "dict",
        }, "$")
        if raw.get("schema_version", 1) != 1:
            raise SchemaError(f"$.schema_version: unsupported version "
                              f"{raw['schema_version']}")
        geometry = raw.get("geometry", {})
        _check_keys(geometry, {"ratios": "list-number", "rel_tol": "number"},
                    "$.geometry")
        spectrum = raw.get("spectrum", {})
        _check_keys(spectrum, {"provider": "str", "n_omega": "int",
                               "t_max_au": "number", "n_t": "int"}, "$.spectrum")
        provider = spectrum.get("provider", "pole")
        if provider not in spc.PROVIDERS:
            raise SchemaError(f"$.spectrum.provider: must be "
                              f"{' or '.join(map(repr, spc.PROVIDERS))}, "
                              f"got {provider!r}")
        schemes = raw.get("schemes", {})
        if not isinstance(schemes, dict):
            raise SchemaError("$.schemes: expected an object")
        for scheme, overrides in schemes.items():
            if scheme not in sch.SCHEMES:
                raise SchemaError(f"$.schemes.{scheme}: unknown scheme; "
                                  f"one of {sch.SCHEMES}")
            _check_keys(overrides, dict.fromkeys(_SCHEME_OVERRIDES, "number"),
                        f"$.schemes.{scheme}")
        ratios = [float(r) for r in geometry.get(
            "ratios", [1, 1.5, 2, 3, 5, 8, 12, 20, 40, 80, 148])]
        if any(r < 1 for r in ratios):
            raise SchemaError("$.geometry.ratios: aspect ratios must be >= 1")
        return cls(
            name=raw.get("name", "scenario"),
            species=raw.get("species", "He"),
            seed=raw.get("seed", 42),
            ratios=ratios,
            geometry_rel_tol=float(geometry.get("rel_tol", 1e-7)),
            provider=provider,
            n_omega=spectrum.get("n_omega", 2048),
            t_max_au=float(spectrum.get("t_max_au", 40.0)),
            n_t=spectrum.get("n_t", 4096),
            scheme_overrides={k: dict(v) for k, v in schemes.items()},
        )

    def config(self, scheme: str) -> sch.SchemeConfig:
        kwargs: dict = {"scheme": scheme}
        for key, value in self.scheme_overrides.get(scheme, {}).items():
            name, unit = _SCHEME_OVERRIDES[key]
            kwargs[name] = value if unit is None else Quantity(value, unit)
        if scheme == "broadband-4photon":
            kwargs.setdefault("bandwidth", Quantity(5e12, "Hz"))
        if scheme == "scrap":
            kwargs.setdefault("bandwidth", Quantity(8.8e12, "Hz"))
            kwargs.setdefault("n_atoms", 1e13)
        return sch.SchemeConfig(**kwargs)


def bundled_scenario_path() -> Path:
    return Path(resources.files("biphoton").joinpath("data/paper_repro.json"))


# ---------------------------------------------------------------------------
# reproduction table


@dataclass(frozen=True)
class ReproRow:
    claim_id: str
    description: str
    reference_value: float
    computed_value: float
    ratio: float
    tolerance_class: str        # exact-formula | order-of-magnitude | shape-only
    tolerance: float            # rel tol (exact/shape) or max ratio factor (oom)
    passed: bool
    note: str = ""


def _row(claim_id, description, reference, computed, tol_class, tol, note="",
         threshold=False):
    reference, computed = float(reference), float(computed)
    ratio = computed / reference if reference != 0 else math.inf
    if threshold:
        passed = computed > reference
    elif tol_class == "order-of-magnitude":
        passed = (1.0 / tol) <= ratio <= tol
    else:
        passed = abs(ratio - 1.0) <= tol
    return ReproRow(claim_id, description, reference, computed, ratio,
                    tol_class, tol, bool(passed), note)


@dataclass(frozen=True)
class ReproTable:
    rows: list[ReproRow]
    schema_version: int = 1

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ReproTable":
        raw = json.loads(text)
        return cls(rows=[ReproRow(**r) for r in raw["rows"]],
                   schema_version=raw["schema_version"])

    def pretty(self) -> str:
        lines = []
        width = max(len(r.claim_id) for r in self.rows)
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status}  {r.claim_id:<{width}}  ref={r.reference_value:.4g}  "
                f"got={r.computed_value:.4g}  ratio={r.ratio:.3g}  "
                f"[{r.tolerance_class}]"
            )
        n_pass = sum(r.passed for r in self.rows)
        lines.append(f"{n_pass}/{len(self.rows)} rows passed")
        return "\n".join(lines)


def _correlation(
    scenario: Scenario, provider
) -> tuple[spc.BiphotonSpectrum, spc.CorrelationSeries]:
    spec = spc.spectral_amplitude(provider, n_points=scenario.n_omega)
    return spec, spc.correlation_function(spec, t_max_au=scenario.t_max_au,
                                          n_t=scenario.n_t)


def _scheme_reports(scenario: Scenario, he) -> dict[str, sch.RateReport]:
    return {scheme: run(scenario.config(scheme), he)
            for scheme, run in sch.SCHEME_RUNNERS.items()}


def repro_report(scenario: Scenario | None = None) -> ReproTable:
    """Recompute every quoted estimate and tabulate pass/fail per row."""
    if scenario is None:
        scenario = Scenario.from_file(bundled_scenario_path())
    he = default_registry().species(scenario.species)
    spec, corr = _correlation(scenario, spc.provider_pole(he))
    return _repro_table(scenario, he, spec, corr, _scheme_reports(scenario, he), {})


def _repro_table(scenario: Scenario, he, spec: spc.BiphotonSpectrum,
                 corr: spc.CorrelationSeries, reports: dict[str, sch.RateReport],
                 thetas: dict[float, float]) -> ReproTable:
    """Rows of the reproduction table, all computed from ``scenario``: ``spec``
    is the pole-chain spectrum, ``corr`` its correlation, ``reports`` the
    scheme reports and ``thetas`` maps aspect ratios to Theta already
    computed; Theta(1) and Theta(148) are computed here if it lacks them."""
    rows: list[ReproRow] = []

    # --- cavity geometry
    th_sphere, th_148 = (
        thetas[r] if r in thetas else theta_factor_quadrature(
            Spheroid(r, 1.0), rel_tol=scenario.geometry_rel_tol)
        for r in (1.0, 148.0))
    rows.append(_row("theta_sphere", "geometry factor at unit aspect ratio",
                     THETA_SPHERE, th_sphere, "exact-formula", 1e-3))
    rows.append(_row("theta_plateau_ratio",
                     "max/plateau ratio of the geometry-factor curve",
                     8.0 / 3.0, th_sphere / th_148, "shape-only", 0.05))

    # --- field / four-photon chain (chained from the printed E0 = 0.053)
    e0 = intensity_to_field(Quantity(1e14, "W/cm^2"))
    rows.append(_row("e0_field", "peak field at 1e14 W/cm^2 (a.u.)",
                     0.053, e0.au, "exact-formula", 0.05))
    f053 = Quantity(0.053, "au_field")
    omega4 = sch.four_photon_rabi(he, field=f053)
    rows.append(_row("omega4_au", "four-photon Rabi frequency (a.u.)",
                     7.35e-5, omega4.au, "exact-formula", 0.05,
                     note="chained from printed E0=0.053"))
    rows.append(_row("omega4_s", "four-photon Rabi frequency (s^-1)",
                     1.9e13, 2.0 * math.pi * omega4.au / AU_TIME_S,
                     "exact-formula", 0.05,
                     note="2*pi per a.u. time conversion, as quoted"))
    r4 = sch.four_photon_rate(he, field=f053)
    rows.append(_row("r4_rate_au", "per-atom four-photon rate (a.u.)",
                     3.4e-8, r4.au, "exact-formula", 0.05,
                     note="chained from printed E0=0.053"))
    rows.append(_row("r4_rate_s", "per-atom four-photon rate (s^-1)",
                     1e9, r4.to("1/s").value, "order-of-magnitude", 3.0))
    alpha4 = sch.absorption_coefficient(
        4, Quantity(1e9, "1/s"), 1e19, Quantity(1e14, "W/cm^2"),
        Quantity(5.155, "eV"))
    rows.append(_row("alpha4", "four-photon absorption coefficient (W^-3 cm^5)",
                     3.4e-46, alpha4, "exact-formula", 0.05,
                     note="chained from printed R=1e9, N=1e19"))
    frac4 = sch.attenuation_fraction(
        Quantity(1e14, "W/cm^2"), alpha4, Quantity(1.0, "mm"), 4)
    rows.append(_row("absorption_fraction", "four-photon absorbed fraction",
                     3.4e-5, frac4, "exact-formula", 0.05,
                     note="chained from the alpha4 row"))

    # --- particle and photon budgets
    atoms = atoms_in_focal_volume(1.0, 293.0, Quantity(100.0, "um"),
                                  Quantity(1.0, "mm"))
    rows.append(_row("atoms_focal", "atoms in the focal volume at 1 bar",
                     7.8e13, atoms, "exact-formula", 0.10))
    flux240 = photon_flux(Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"),
                          Quantity(100.0, "um"))
    rows.append(_row("photons_240nm", "240 nm photons/s through the focal spot",
                     1e28, flux240.value, "order-of-magnitude", 3.0))

    # --- spectrum / lifetime
    rate_he, _life = spc._decay_rate(spec)
    rows.append(_row("lifetime_he_rate", "two-photon decay rate of the 2s level",
                     50.8, rate_he.value, "order-of-magnitude", 3.0,
                     note="single-intermediate-state truncation"))
    ne = default_registry().species("He-like(Z=10)")
    rows.append(_row("ne_rate", "Z-scaled two-photon rate at Z=10",
                     1e7, 1.0 / ne.lifetime_2s.to("s").value,
                     "order-of-magnitude", 10.0))
    ct = spc.correlation_time(corr)
    rows.append(_row("correlation_time", "pair correlation time (s)",
                     1.93e-16, ct.width.value, "exact-formula", 0.25))

    # --- scheme budgets
    cfg_n = scenario.config("narrowband-4photon")
    flux = photon_flux(cfg_n.intensity, cfg_n.photon_energy, cfg_n.spot_diameter)
    chained_rate = flux.value * frac4 / 4.0
    rows.append(_row("narrowband_rate", "narrowband pair generation rate (1/s)",
                     1e22, chained_rate, "order-of-magnitude", 10.0,
                     note="chained from the absorption_fraction row"))
    cfg_b = scenario.config("broadband-4photon")
    width_hz = 1.0 / he.lifetime_2s.to("s").value
    overlap = width_hz / cfg_b.bandwidth.to("Hz").value
    rows.append(_row("broadband_rate", "broadband pair generation rate (1/s)",
                     1e11, chained_rate * overlap, "order-of-magnitude", 10.0,
                     note="narrowband row x natural linewidth / bandwidth"))
    rep_seq = reports["sequential"]
    rows.append(_row("sequential_rate", "sequential-scheme pair rate (1/s)",
                     3.6e13, rep_seq.final_rate.value, "order-of-magnitude", 3.0))
    rows.append(_row("steady_fraction", "steady-state excited fraction",
                     0.47, rep_seq.steps["steady_state_fraction"].value,
                     "exact-formula", 0.05, note="tau_2p default 2.05 ns"))
    cfg_s = scenario.config("scrap")
    scrap = sch.scrap_transfer_probability(cfg_s, he)
    rows.append(_row("scrap_probability", "adiabatic transfer probability",
                     0.99, max(scrap.probability, scrap.probability_other_window),
                     "shape-only", 0.0, threshold=True,
                     note=f"exponents {scrap.exponent:.3g} (ramp) / "
                          f"{scrap.exponent_other_window:.3g} (centered)"))
    rows.append(_row("scrap_rate", "SCRAP pair generation rate (1/s)",
                     1e16, reports["scrap"].final_rate.value,
                     "order-of-magnitude", 3.0))

    # --- ETPA
    rows.append(_row("sigma_e", "entangled TPA cross-section (cm^2)",
                     1e-29, reports["etpa"].steps["sigma_e"].value,
                     "exact-formula", 0.05,
                     note="sigma2/(A_e*T_e) with the stated inputs gives "
                          "1e-27; the quoted 1e-29 is not reproducible from "
                          "the printed formula"))
    cfg_e = scenario.config("etpa")
    per_mol = 1e-29 * cfg_e.photon_rate_hz / cfg_e.entanglement_area_cm2
    rows.append(_row("etpa_per_molecule", "ETPA rate per molecule (1/s)",
                     1e-9, per_mol, "order-of-magnitude", 3.0,
                     note="chained from the quoted sigma_e=1e-29"))
    rows.append(_row("etpa_ions", "ETPA ion rate (1/s)",
                     1000.0, per_mol * cfg_e.molecules,
                     "order-of-magnitude", 3.0,
                     note="chained from the quoted sigma_e=1e-29"))

    # --- collection and cavity transfer
    rows.append(_row("collection_fraction",
                     "pair fraction at 10% collection solid angle",
                     0.01, sch.collection_fraction(0.1), "exact-formula", 0.20,
                     note="exact pair-angle integral gives 1.259%; the "
                          "quoted 1% is outside the 20% band"))
    coeff = sch.r_trans(th_sphere, Quantity(1.0, "au_field"), he, spec,
                        sch.he_absorber(he)).au
    rows.append(_row("r_trans_coeff", "cavity transfer-rate coefficient (a.u.)",
                     1.91e-25, coeff, "order-of-magnitude", 10.0,
                     note="single-intermediate-state emitter and absorber"))
    return ReproTable(rows=rows)


# ---------------------------------------------------------------------------
# scenario runner


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row
        ))
    path.write_text("\n".join(lines) + "\n")


def _write_theta_curve(path: Path, curve: list[dict]) -> None:
    _write_csv(path, ["ratio", "theta", "method", "stderr"],
               [(r["ratio"], r["theta"], r["method"], r["stderr"]) for r in curve])


def _write_correlation(path: Path, corr: spc.CorrelationSeries) -> None:
    _write_csv(path, ["t_au", "t_s", "re", "im", "abs"],
               zip(corr.t_au.tolist(), corr.t_s.tolist(),
                   corr.values.real.tolist(), corr.values.imag.tolist(),
                   corr.abs.tolist()))


def run_scenario(path, out_dir=None) -> list[Path]:
    """Execute a scenario file and write all artifacts; returns their paths.

    Outputs: ``fig_s1.csv`` (geometry-factor curve), ``fig2.csv``
    (correlation function of the scenario's provider), one
    ``rates_<scheme>.json`` per scheme, and ``repro_table.json``.  The run
    has no random input, so the same scenario file gives the same bytes.
    """
    scenario = Scenario.from_file(path)
    out = Path(out_dir) if out_dir is not None else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    p = out / "fig_s1.csv"
    curve = theta_curve(scenario.ratios, rel_tol=scenario.geometry_rel_tol)
    _write_theta_curve(p, curve)
    written.append(p)

    # the repro rows use the pole chain; fig2.csv shows the scenario's provider
    he = default_registry().species(scenario.species)
    spec, corr = _correlation(scenario, spc.provider_pole(he))
    fig2 = corr if scenario.provider == "pole" else _correlation(
        scenario, spc.PROVIDERS[scenario.provider](he))[1]
    p = out / "fig2.csv"
    _write_correlation(p, fig2)
    written.append(p)

    reports = _scheme_reports(scenario, he)
    for scheme, report in reports.items():
        p = out / f"rates_{scheme.split('-')[0]}.json"
        p.write_text(report.to_json() + "\n")
        written.append(p)

    p = out / "repro_table.json"
    thetas = {row["ratio"]: row["theta"] for row in curve}
    p.write_text(_repro_table(scenario, he, spec, corr, reports, thetas).to_json()
                 + "\n")
    written.append(p)
    return written
