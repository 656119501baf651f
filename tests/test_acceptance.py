"""Acceptance gate: the eight release criteria, one test each.

Every test prints a single ``[criterion N] PASS/FAIL`` line; the assertion
messages say exactly which sub-check diverges and why.  Two published values
contradict their own printed formulas (``sigma_e`` and the collection
fraction).  Those are checked against an independent oracle written out here
from the printed inputs, and through the documented factor between that
oracle and the published number, so the checks fail if the formula changes
and also if the program is bent towards the published value.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from biphoton.cavity import (
    Spheroid,
    THETA_SPHERE,
    _frames,
    angular_jacobian,
    theta_curve,
    theta_factor_mc,
    theta_factor_quadrature,
)
from biphoton.cli import EXIT_ACCEPTANCE, main
from biphoton.registry import default_registry, species
from biphoton.reporting import ReproTable, bundled_scenario_path, run_scenario
from biphoton.schemes import (
    SchemeConfig,
    absorption_coefficient,
    attenuation_fraction,
    biphoton_rate_narrowband,
    biphoton_rate_sequential,
    collection_fraction,
    etpa_ion_rate,
    four_photon_rabi,
    four_photon_rate,
    four_photon_rate_broadband,
    scrap_biphoton_rate,
    scrap_transfer_probability,
)
from biphoton.spectrum import (
    correlation_function,
    correlation_time,
    flat_correlation_closed_form,
    hydrogenic_scaled,
    provider_flat,
    provider_pole,
    spectral_amplitude,
    two_photon_decay_rate,
)
from biphoton.units import AU_TIME_S, Quantity, atoms_in_focal_volume, intensity_to_field

HE = species("He")
REPO_ROOT = Path(__file__).resolve().parents[1]

# sigma_e = sigma2/(A_e T_e) with the printed inputs 1e-50 cm^4 s, 1e-8 cm^2
# and 1e-15 s; the published 1e-29 cm^2 is 100x smaller than its own formula.
SIGMA_E_PRINTED = 1e-29
SIGMA_E_FROM_PRINTED_INPUTS = 1e-50 / (1e-8 * 1e-15)


def collection_fraction_exact(f: Fraction) -> Fraction:
    """Closed form of the 1 + cos^2 pair density integrated over a double cone.

    With m = (1 - (1 - 2f)^3)/3 the cone's axial second moment over 2 pi,
    P(f) = (3/16) [4 f^2 + (2f - m)^2 / 2 + m^2]; P(1/10) = 787/62500.
    """
    m = (1 - (1 - 2 * f) ** 3) / 3
    return Fraction(3, 16) * (4 * f**2 + (2 * f - m) ** 2 / 2 + m**2)


COLLECTION_AT_TENTH = float(collection_fraction_exact(Fraction(1, 10)))


class _Gate:
    def __init__(self, n: int):
        self.n = n
        self.failures: list[str] = []

    def check(self, ok: bool, label: str):
        if not ok:
            self.failures.append(label)

    def finish(self, start: float, budget_s: float | None = None):
        if budget_s is not None:
            elapsed = time.perf_counter() - start
            self.check(elapsed < budget_s,
                       f"runtime {elapsed:.1f}s exceeds {budget_s:.0f}s budget")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.n}] {status}")
        assert not self.failures, f"criterion {self.n}: " + "; ".join(self.failures)


def test_criterion_1_geometry_factor_shape():
    t0 = time.perf_counter()
    gate = _Gate(1)
    ratios = [1, 1.5, 2, 3, 5, 8, 12, 20, 40, 80, 148]
    rows = theta_curve(ratios, rel_tol=1e-7)
    vals = [r["theta"] for r in rows]
    gate.check(all(a >= b - 1e-10 for a, b in zip(vals, vals[1:])),
               "curve not monotone non-increasing")
    gate.check(max(vals) == vals[0], "maximum not at unit aspect ratio")
    gate.check(abs(vals[0] - THETA_SPHERE) <= 1e-6 * THETA_SPHERE,
               f"sphere value {vals[0]:.6g} != 64*pi^2/27")
    ratio = vals[0] / vals[-1]
    gate.check(abs(ratio - 8.0 / 3.0) <= 0.05 * 8.0 / 3.0,
               f"plateau ratio {ratio:.4g} not 8/3 +/- 5%")
    for r in (1.0, 1.5, 2.0, 4.0, 10.0):
        s = Spheroid(r, 1.0)
        est, se = theta_factor_mc(s, 1_000_000, seed=42)
        ref = theta_factor_quadrature(s)
        gate.check(abs(est - ref) <= 3.0 * se,
                   f"MC vs quadrature beyond 3 sigma at a/b={r}")
    gate.finish(t0, budget_s=60.0)


def test_criterion_2_jacobian_and_focal_invariant():
    t0 = time.perf_counter()
    gate = _Gate(2)
    x, w = np.polynomial.legendre.leggauss(400)
    theta = 0.5 * np.pi * (x + 1.0)
    for r in (1.0, 1.5, 2.0, 5.0, 20.0, 148.0):
        total = 2.0 * np.pi * 0.5 * np.pi * np.dot(
            w, angular_jacobian(Spheroid(r, 1.0), theta))
        gate.check(abs(total - 4.0 * np.pi) <= 1e-9 * 4.0 * np.pi,
                   f"solid angle {total:.12g} != 4*pi at a/b={r}")
    rng = np.random.default_rng(3)
    th = rng.uniform(0.0, np.pi, 10_000)
    ph = rng.uniform(0.0, 2.0 * np.pi, 10_000)
    for r in (1.0, 3.0, 148.0):
        s = Spheroid(r, 1.0)
        f = _frames(s, th, ph)
        gate.check(bool(np.all(np.abs(f["lp"] + f["lm"] - 2.0 * s.a)
                               <= 1e-12 * 2.0 * s.a)),
                   f"focal-sum invariant broken at a/b={r}")
    gate.finish(t0, budget_s=30.0)


def test_criterion_3_correlation_time():
    t0 = time.perf_counter()
    gate = _Gate(3)
    spec = spectral_amplitude(provider_pole(HE))
    tau = correlation_time(correlation_function(spec)).width.to("s").value
    gate.check(abs(tau - 1.93e-16) <= 0.25 * 1.93e-16,
               f"correlation time {tau:.4g} s not within 25% of 1.93e-16 s")
    flat = spectral_amplitude(provider_flat(HE), n_points=4096)
    series = correlation_function(flat, t_max_au=30.0, n_t=2049)
    ref = flat_correlation_closed_form(series.t_au, flat.delta_eg_au)
    err = float(np.max(np.abs(series.values - ref)))
    gate.check(err <= 1e-8, f"flat closed-form mismatch {err:.3g} > 1e-8")
    gate.finish(t0, budget_s=10.0)


def test_criterion_4_lifetime_and_z_scaling():
    t0 = time.perf_counter()
    gate = _Gate(4)
    rate, _ = two_photon_decay_rate(provider_pole(HE))
    gate.check(50.8 / 3.0 <= rate.value <= 50.8 * 3.0,
               f"He rate {rate.value:.4g} /s outside x3 of 50.8 /s")
    for lam in (1.5, 5.0):
        scaled, _ = two_photon_decay_rate(hydrogenic_scaled(provider_pole(HE), lam))
        gate.check(abs(scaled.value / rate.value - lam**6) <= 1e-10 * lam**6,
                   f"Z-scaling not exact at lambda={lam}")
    ne = default_registry().species("He-like(Z=10)")
    ne_rate = 1.0 / ne.lifetime_2s.to("s").value
    gate.check(1e6 <= ne_rate <= 1e8,
               f"Ne8+ rate {ne_rate:.3g} /s not ~1e7 order of magnitude")
    gate.finish(t0, budget_s=10.0)


def test_criterion_5_exact_formula_recomputations():
    t0 = time.perf_counter()
    gate = _Gate(5)

    def within(label, ref, got, tol=0.05, what="printed"):
        gate.check(abs(got / ref - 1.0) <= tol,
                   f"{label}: got {got:.4g}, {what} {ref:.4g} (+/-{tol:.0%})")

    within("E0 at 1e14 W/cm^2",
           0.053, intensity_to_field(Quantity(1e14, "W/cm^2")).au)
    f053 = Quantity(0.053, "au_field")
    omega4 = four_photon_rabi(HE, field=f053)
    within("Omega4 (a.u.)", 7.35e-5, omega4.au)
    within("Omega4 (1/s)", 1.9e13, 2.0 * np.pi * omega4.au / AU_TIME_S)
    r4 = four_photon_rate(HE, field=f053)
    within("R4 (a.u.)", 3.4e-8, r4.au)
    alpha4 = absorption_coefficient(4, Quantity(1e9, "1/s"), 1e19,
                                    Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"))
    within("alpha4", 3.4e-46, alpha4)
    within("absorption fraction", 3.4e-5,
           attenuation_fraction(Quantity(1e14, "W/cm^2"), alpha4,
                                Quantity(1.0, "mm"), 4))
    seq = biphoton_rate_sequential(SchemeConfig(scheme="sequential"), HE)
    within("steady-state fraction", 0.47,
           seq.steps["steady_state_fraction"].value)
    # The printed cross-section contradicts its own formula, so sigma_e is
    # checked against the formula evaluated on the printed inputs, and its
    # ratio to the printed 1e-29 against the documented factor of 100.
    sigma_e = etpa_ion_rate(SchemeConfig(scheme="etpa")).steps["sigma_e"].value
    within("sigma_e vs sigma2/(A_e*T_e) of the printed inputs",
           SIGMA_E_FROM_PRINTED_INPUTS, sigma_e, what="formula")
    within("sigma_e / printed 1e-29 (documented factor)", 100.0,
           sigma_e / SIGMA_E_PRINTED, what="documented")
    within("focal-volume atoms", 7.8e13,
           atoms_in_focal_volume(1.0, 293.0, Quantity(100.0, "um"),
                                 Quantity(1.0, "mm")), tol=0.10)
    gate.finish(t0, budget_s=10.0)


def test_criterion_6_order_of_magnitude_budgets():
    t0 = time.perf_counter()
    gate = _Gate(6)

    def oom(label, ref, got, factor=3.0):
        gate.check(ref / factor <= got <= ref * factor,
                   f"{label}: got {got:.4g}, expected ~{ref:.4g} (x/{factor:g})")

    # budgets chained from the printed rounded intermediates, matching how
    # the published numbers were derived from each other
    alpha4 = absorption_coefficient(4, Quantity(1e9, "1/s"), 1e19,
                                    Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"))
    frac4 = attenuation_fraction(Quantity(1e14, "W/cm^2"), alpha4,
                                 Quantity(1.0, "mm"), 4)
    from biphoton.units import photon_flux
    flux = photon_flux(Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"),
                       Quantity(100.0, "um"))
    narrow = flux.value * frac4 / 4.0
    oom("narrowband rate", 1e22, narrow, factor=10.0)
    width = 1.0 / HE.lifetime_2s.to("s").value
    oom("broadband rate", 1e11, narrow * width / 5e12, factor=10.0)
    seq = biphoton_rate_sequential(SchemeConfig(scheme="sequential"), HE)
    oom("sequential rate", 3.6e13, seq.final_rate.value)
    cfg_s = SchemeConfig(scheme="scrap", bandwidth=Quantity(8.8e12, "Hz"),
                         n_atoms=1e13)
    oom("SCRAP rate", 1e16, scrap_biphoton_rate(cfg_s, HE).final_rate.value)
    res = scrap_transfer_probability(cfg_s, HE)
    gate.check(max(res.probability, res.probability_other_window) > 0.99,
               "SCRAP transfer probability <= 0.99")
    etpa = etpa_ion_rate(SchemeConfig(scheme="etpa")).steps
    per_mol = 1e-29 * etpa["photon_flux_density"].value   # from the quoted sigma_e
    oom("ETPA per molecule", 1e-9, per_mol)
    oom("ETPA ions", 1000.0, per_mol * etpa["molecules"].value)
    # The quoted ~1% (+/-20%) contradicts the pair-angle integral it comes
    # from, so the fraction is checked against that integral's exact closed
    # form, and its ratio to the quoted 0.01 against the documented 1.2592.
    got = collection_fraction(0.1)
    gate.check(abs(got / COLLECTION_AT_TENTH - 1.0) <= 1e-12,
               f"collection fraction: got {got:.15g}, closed form "
               f"787/62500 = {COLLECTION_AT_TENTH:.15g} (+/-1e-12)")
    gate.check(abs(got / 0.01 / 1.2592 - 1.0) <= 1e-3,
               f"collection fraction / quoted 0.01 = {got / 0.01:.5g}, "
               "documented 1.2592 (+/-0.1%)")
    gate.finish(t0, budget_s=10.0)


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    gate = _Gate(7)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         str(Path(__file__).with_name("test_properties.py")), "-q",
         "--no-header", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    gate.check(proc.returncode == 0,
               "property suite failed:\n" + proc.stdout[-2000:])
    gate.finish(t0, budget_s=120.0)


def test_criterion_8_repro_strict_and_determinism(tmp_path):
    t0 = time.perf_counter()
    gate = _Gate(8)
    # repro --strict exits 4 for exactly the two documented rows: each fails,
    # carries its note and holds the value of the oracle of criterion 5 or 6.
    repro_json = tmp_path / "repro.json"
    code = main(["repro", "--strict", "--out", str(repro_json)])
    gate.check(code == EXIT_ACCEPTANCE,
               f"repro --strict exited {code}, expected {EXIT_ACCEPTANCE}")
    table = ReproTable.from_json(repro_json.read_text())
    documented = {"sigma_e": (SIGMA_E_FROM_PRINTED_INPUTS, 0.05),
                  "collection_fraction": (COLLECTION_AT_TENTH, 1e-12)}
    failing = sorted(r.claim_id for r in table.rows if not r.passed)
    gate.check(failing == sorted(documented),
               "failing rows " + ", ".join(failing) + "; expected only the "
               "documented " + ", ".join(sorted(documented)))
    for row in table.rows:
        if row.claim_id not in documented:
            continue
        oracle, tol = documented[row.claim_id]
        gate.check(bool(row.note), f"failing row {row.claim_id} carries no note")
        gate.check(abs(row.computed_value / oracle - 1.0) <= tol,
                   f"row {row.claim_id} computed {row.computed_value:.15g}, "
                   f"oracle {oracle:.15g} (+/-{tol:g})")
    files1 = run_scenario(bundled_scenario_path(), tmp_path / "a")
    files2 = run_scenario(bundled_scenario_path(), tmp_path / "b")
    for p1, p2 in zip(files1, files2):
        gate.check(p1.read_bytes() == p2.read_bytes(),
                   f"artifact {p1.name} not byte-identical across reruns")
    gate.finish(t0)
