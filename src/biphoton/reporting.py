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
import os
from dataclasses import dataclass, asdict
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

from . import schemes as sch
from . import spectrum as spc
from .cavity import THETA_SPHERE, theta_curve
# nothing here calls it; perfbench/test_tracing.py traces a call through this binding
from .cavity import theta_factor_quadrature  # noqa: F401
from .registry import species
from .units import (
    AU_TIME_S,
    EV,
    MM,
    PER_S,
    UM,
    W_CM2,
    atoms_in_focal_volume,
    intensity_to_field,
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


# scenario section (JSON path) -> its keys with their defaults; a value must
# have the JSON type of its key's default (``schemes._checked``), and each
# scheme's section is ``SCHEMES[id].defaults``
DEFAULTS = {
    "$": {"schema_version": 1, "name": "", "species": "He",
          "geometry": {}, "spectrum": {}, "schemes": {}},
    "$.geometry": {"ratios": [1, 1.5, 2, 3, 5, 8, 12, 20, 40, 80, 148],
                   "rel_tol": 1e-7},
    # n_omega None: the grid is sized by its error (``spectrum.sized_spectrum``)
    "$.spectrum": {"provider": "pole", "n_omega": None, "t_max_au": 40.0,
                   "n_t": 4096},
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario file: species, geometry sweep, spectrum settings,
    and each scheme's runner inputs (``Scheme.config`` with the file's
    overrides).  The fields take the file's key names."""

    species: str
    ratios: list[float]
    rel_tol: float
    provider: str
    n_omega: int | None
    t_max_au: float
    n_t: int
    configs: dict[str, SimpleNamespace]

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
        if not isinstance(raw, dict):
            raise SchemaError(f"$: expected an object, got {type(raw).__name__}")
        try:
            top = sch._checked(DEFAULTS["$"], raw, "$")
            for scheme in top["schemes"]:
                if scheme not in sch.SCHEMES:
                    raise ValueError(f"$.schemes.{scheme}: unknown scheme; "
                                     f"one of {tuple(sch.SCHEMES)}")
            schemes = sch._checked(dict.fromkeys(sch.SCHEMES, {}), top["schemes"],
                                   "$.schemes")
            geometry = sch._checked(DEFAULTS["$.geometry"], top["geometry"], "$.geometry")
            spectrum = sch._checked(DEFAULTS["$.spectrum"], top["spectrum"], "$.spectrum")
            if top["schema_version"] != 1:
                raise ValueError(f"$.schema_version: unsupported version "
                                 f"{top['schema_version']}")
            if spectrum["provider"] not in spc.PROVIDERS:
                raise ValueError(f"$.spectrum.provider: must be "
                                 f"{' or '.join(map(repr, spc.PROVIDERS))}, "
                                 f"got {spectrum['provider']!r}")
            geometry["ratios"] = [float(r) for r in geometry["ratios"]]
            if any(r < 1 for r in geometry["ratios"]):
                raise ValueError("$.geometry.ratios: aspect ratios must be >= 1")
            geometry["rel_tol"] = float(geometry["rel_tol"])
            spectrum["t_max_au"] = float(spectrum["t_max_au"])
            # the numeric layer rejects these too, but only once the theta
            # curve and the frequency rule are built
            spc._check_time_grid(spectrum["t_max_au"], spectrum["n_t"], "$.spectrum.")
            if spectrum["n_omega"] is None:
                spc._levels(species(top["species"]).delta_eg.au, spectrum["t_max_au"],
                            "$.spectrum.")
            elif not isinstance(spectrum["n_omega"], int):
                raise ValueError(f"$.spectrum.n_omega must be an integer or "
                                 f"None, got {type(spectrum['n_omega']).__name__}")
            else:
                spc._check_n_points(spectrum["n_omega"], "$.spectrum.n_omega")
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        configs = {}
        for scheme, entry in sch.SCHEMES.items():
            try:
                configs[scheme] = entry.config(**schemes[scheme])
            except ValueError as exc:
                raise SchemaError(f"$.schemes.{scheme}: {exc}") from None
        return cls(species=top["species"], **geometry, **spectrum, configs=configs)


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

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
    """The spectrum of ``provider`` and its correlation on the scenario's time
    grid: on ``n_omega`` nodes, or on the grid sized by its error when
    ``n_omega`` is None."""
    if scenario.n_omega is None:
        sized = spc.sized_spectrum(provider, t_max_au=scenario.t_max_au,
                                   n_t=scenario.n_t)
        return sized.spectrum, sized.correlation
    spec = spc.spectral_amplitude(provider, n_points=scenario.n_omega)
    return spec, spc.correlation_function(spec, t_max_au=scenario.t_max_au,
                                          n_t=scenario.n_t)


def _stages(scenario: Scenario, figure_ratios: list[float]) -> tuple[
        dict[str, sch.RateReport], list[dict], spc.CorrelationSeries, ReproTable]:
    """The scheme reports, the Theta curve over ``figure_ratios``, the
    pole-chain correlation and the reproduction table of ``scenario``,
    computed once each and in this order.

    The scheme reports are cheap and can overflow, so they run first.
    Theta(1) and Theta(148), which the table reads, join the one curve call
    when ``figure_ratios`` lacks them; the returned curve holds only
    ``figure_ratios``.
    """
    he = species(scenario.species)
    reports = {scheme: entry.run(scenario.configs[scheme], he)
               for scheme, entry in sch.SCHEMES.items()}
    curve = theta_curve(
        [*figure_ratios, *(r for r in (1.0, 148.0) if r not in figure_ratios)],
        rel_tol=scenario.rel_tol)
    theta = {row["ratio"]: row["theta"] for row in curve}
    spec, corr = _correlation(scenario, spc.provider_pole(he))
    table = _repro_table(scenario.configs, he, spec, corr, reports,
                         theta[1.0], theta[148.0])
    return reports, curve[:len(figure_ratios)], corr, table


def repro_report(scenario: Scenario | None = None) -> ReproTable:
    """Recompute every quoted estimate and tabulate pass/fail per row."""
    if scenario is None:
        scenario = Scenario.from_file(bundled_scenario_path())
    *_, table = _stages(scenario, [])
    return table


def _repro_table(configs: dict[str, SimpleNamespace], he,
                 spec: spc.BiphotonSpectrum, corr: spc.CorrelationSeries,
                 reports: dict[str, sch.RateReport],
                 th_sphere: float, th_148: float) -> ReproTable:
    """Rows of the reproduction table, all computed from one scenario:
    ``configs`` are its schemes' runner inputs, ``spec`` the pole-chain spectrum,
    ``corr`` its correlation, ``reports`` the scheme reports, and
    ``th_sphere`` and ``th_148`` are Theta(1) and Theta(148)."""
    rows: list[ReproRow] = []

    # --- cavity geometry
    rows.append(_row("theta_sphere", "geometry factor at unit aspect ratio",
                     THETA_SPHERE, th_sphere, "exact-formula", 1e-3))
    rows.append(_row("theta_plateau_ratio",
                     "max/plateau ratio of the geometry-factor curve",
                     8.0 / 3.0, th_sphere / th_148, "shape-only", 0.05))

    # the printed pump and gas cell: the reference defaults, whatever the
    # scenario overrides, since the rows check the printed arithmetic
    ref = sch.SCHEMES["narrowband-4photon"].config()
    i14 = ref.intensity_wcm2 * W_CM2
    photon_energy = sch.PUMP_PHOTON_ENERGY_EV * EV
    spot, length = ref.spot_diameter_um * UM, ref.path_length_mm * MM

    # --- field / four-photon chain (chained from the printed E0 = 0.053)
    rows.append(_row("e0_field", "peak field at 1e14 W/cm^2 (a.u.)",
                     0.053, intensity_to_field(i14), "exact-formula", 0.05))
    omega4 = sch.four_photon_rabi(he, field_au=0.053)
    rows.append(_row("omega4_au", "four-photon Rabi frequency (a.u.)",
                     7.35e-5, omega4, "exact-formula", 0.05,
                     note="chained from printed E0=0.053"))
    rows.append(_row("omega4_s", "four-photon Rabi frequency (s^-1)",
                     1.9e13, 2.0 * math.pi * omega4 / AU_TIME_S,
                     "exact-formula", 0.05,
                     note="2*pi per a.u. time conversion, as quoted"))
    r4 = sch.four_photon_rate(he, field_au=0.053)
    rows.append(_row("r4_rate_au", "per-atom four-photon rate (a.u.)",
                     3.4e-8, r4, "exact-formula", 0.05,
                     note="chained from printed E0=0.053"))
    rows.append(_row("r4_rate_s", "per-atom four-photon rate (s^-1)",
                     1e9, r4 / PER_S, "order-of-magnitude", 3.0))
    alpha4 = sch.absorption_coefficient(4, 1e9 * PER_S, 1e19, i14, photon_energy)
    rows.append(_row("alpha4", "four-photon absorption coefficient (W^-3 cm^5)",
                     3.4e-46, alpha4, "exact-formula", 0.05,
                     note="chained from printed R=1e9, N=1e19"))
    frac4 = sch.attenuation_fraction(i14, alpha4, length, 4)
    rows.append(_row("absorption_fraction", "four-photon absorbed fraction",
                     3.4e-5, frac4, "exact-formula", 0.05,
                     note="chained from the alpha4 row"))

    # --- particle and photon budgets
    atoms = atoms_in_focal_volume(ref.pressure_bar, ref.temperature_k, spot, length)
    rows.append(_row("atoms_focal", "atoms in the focal volume at 1 bar",
                     7.8e13, atoms, "exact-formula", 0.10))
    flux240 = photon_flux(i14, photon_energy, spot)
    rows.append(_row("photons_240nm", "240 nm photons/s through the focal spot",
                     1e28, flux240, "order-of-magnitude", 3.0))

    # --- spectrum / lifetime
    rate_he, _life = spc._decay_rate(spec)
    rows.append(_row("lifetime_he_rate", "two-photon decay rate of the 2s level",
                     50.8, rate_he.value, "order-of-magnitude", 3.0,
                     note="single-intermediate-state truncation"))
    ne = species("He-like(Z=10)")
    rows.append(_row("ne_rate", "Z-scaled two-photon rate at Z=10",
                     1e7, 1.0 / ne.lifetime_2s.value,
                     "order-of-magnitude", 10.0))
    ct = spc.correlation_time(corr)
    rows.append(_row("correlation_time", "pair correlation time (s)",
                     1.93e-16, ct.width.value, "exact-formula", 0.25))

    # --- scheme budgets
    flux = reports["narrowband-4photon"].steps["pump_photon_flux"].value
    chained_rate = flux * frac4 / 4.0
    rows.append(_row("narrowband_rate", "narrowband pair generation rate (1/s)",
                     1e22, chained_rate, "order-of-magnitude", 10.0,
                     note="chained from the absorption_fraction row"))
    width_hz = 1.0 / he.lifetime_2s.value
    overlap = width_hz / configs["broadband-4photon"].bandwidth_hz
    rows.append(_row("broadband_rate", "broadband pair generation rate (1/s)",
                     1e11, chained_rate * overlap, "order-of-magnitude", 10.0,
                     note="narrowband row x natural linewidth / bandwidth"))
    rep_seq = reports["sequential"]
    rows.append(_row("sequential_rate", "sequential-scheme pair rate (1/s)",
                     3.6e13, rep_seq.final_rate.value, "order-of-magnitude", 3.0))
    rows.append(_row("steady_fraction", "steady-state excited fraction",
                     0.47, rep_seq.steps["steady_state_fraction"].value,
                     "exact-formula", 0.05, note="tau_2p default 2.05 ns"))
    scrap = sch.scrap_transfer_probability(configs["scrap"], he)
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
    cfg_e = configs["etpa"]
    per_mol = 1e-29 * cfg_e.photon_rate_hz / sch.ENTANGLEMENT_AREA_CM2
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
    coeff = sch.r_trans(th_sphere, 1.0, he, spec)
    rows.append(_row("r_trans_coeff", "cavity transfer-rate coefficient (a.u.)",
                     1.91e-25, coeff, "order-of-magnitude", 10.0,
                     note="single-intermediate-state emitter and absorber"))
    return ReproTable(rows=rows)


# ---------------------------------------------------------------------------
# scenario runner


def _csv(header: list[str], rows) -> str:
    """CSV text of ``rows`` under ``header``: a float (or float subclass) as
    ``_FLOAT_FMT``, any other value as ``str``.  Each row is formatted with
    one ``%`` operation, on a line format kept per row of value types."""
    lines, formats = [",".join(header)], {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                _FLOAT_FMT if issubclass(kind, float) else "%s" for kind in kinds)
        lines.append(fmt % row)
    return "\n".join(lines) + "\n"


def _theta_curve_csv(curve: list[dict]) -> str:
    return _csv(["ratio", "theta", "method", "stderr"],
                [(r["ratio"], r["theta"], r["method"], r["stderr"]) for r in curve])


def _correlation_csv(corr: spc.CorrelationSeries) -> str:
    return _csv(["t_au", "t_s", "re", "im", "abs"],
                zip(corr.t_au.tolist(), corr.t_s.tolist(),
                    corr.values.real.tolist(), corr.values.imag.tolist(),
                    corr.abs.tolist()))


def _write_all(texts: dict[Path, str]) -> list[Path]:
    """Write each text to its path, creating the parent directories, and
    return the paths: all of them or none.  Every text first goes to a
    temporary file beside its path; the paths are replaced only once every
    text is written, and on an error the temporary files are removed."""
    temps = {}
    try:
        for path, text in texts.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            temps[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            temps[path].write_text(text)
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise
    return list(texts)


def run_scenario(path, out_dir=None) -> list[Path]:
    """Execute a scenario file and write all artifacts; returns their paths.

    Outputs: ``fig_s1.csv`` (geometry-factor curve), ``fig2.csv``
    (correlation function of the scenario's provider), one
    ``rates_<scheme>.json`` per scheme, and ``repro_table.json``.  The run
    has no random input, so the same scenario file gives the same bytes.
    Every artifact is computed before ``out_dir`` is created or written, and
    they are written all or none (``_write_all``), so a run that fails
    leaves it as it was.
    """
    scenario = Scenario.from_file(path)
    out = Path(out_dir) if out_dir is not None else Path.cwd()
    reports, curve, corr, table = _stages(scenario, scenario.ratios)
    # the repro rows use the pole chain; fig2.csv shows the scenario's provider
    fig2 = corr if scenario.provider == "pole" else _correlation(
        scenario, spc.PROVIDERS[scenario.provider](species(scenario.species)))[1]
    return _write_all({
        out / "fig_s1.csv": _theta_curve_csv(curve),
        out / "fig2.csv": _correlation_csv(fig2),
        **{out / f"rates_{scheme.split('-')[0]}.json": report.to_json() + "\n"
           for scheme, report in reports.items()},
        out / "repro_table.json": table.to_json() + "\n",
    })
