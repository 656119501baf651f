"""Excitation-scheme rate estimators and end-to-end budgets.

Each estimator recomputes one step of a photon-pair production budget:
narrowband and broadband four-photon excitation, the sequential
lamp-plus-laser scheme, Stark-chirped rapid adiabatic passage (SCRAP),
entangled two-photon absorption (ETPA) detection, pair collection through a
finite solid angle, and the coherent cavity transfer rate.

Conventions
-----------
* Delta functions are replaced by an explicit ``lineshape_factor_au``
  (inverse energy, a.u.); the default 1.0 reproduces the reference budget
  arithmetic and is printed in every report.
* Bandwidths and Rabi/transition frequencies in the Landau-Zener estimator
  are ordinary frequencies (Hz), not angular.  The four-photon Rabi
  frequency enters as 2*pi*(Omega_au)/t_au, matching the budget's quoted
  1.9e13 s^-1 at 7.35e-5 a.u.; see the README convention table.
* The sequential scheme's 1s2p residence time tau_2p is an explicit input
  with default 2.05 ns, the value that makes the published chain
  (R1 ~ 3.7e9 s^-1, steady-state fraction 0.47, R2 ~ 5e21 s^-1) internally
  consistent.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, asdict
from types import SimpleNamespace

from ._numpy import LazyNumpy
from .registry import SpeciesData
from .spectrum import BiphotonSpectrum
# nothing here calls it; perfbench/test_tracing.py traces a call through this binding
from .spectrum import spectral_amplitude  # noqa: F401
from .units import (
    AU_TIME_S,
    C_AU,
    CM,
    EV,
    FS,
    J,
    MM,
    NS,
    PER_S,
    S,
    UM,
    W_CM2,
    atoms_in_focal_volume,
    intensity_to_field,
    number_density,
    photon_flux,
)

np = LazyNumpy(globals())

__all__ = [
    "SCHEMES",
    "Scheme",
    "PUMP_PHOTON_ENERGY_EV",
    "LAMP_INTENSITY_WCM2",
    "LAMP_PHOTON_ENERGY_EV",
    "LASER_INTENSITY_WCM2",
    "LASER_PHOTON_ENERGY_EV",
    "SIGMA2_CM4S",
    "ENTANGLEMENT_TIME_S",
    "ENTANGLEMENT_AREA_CM2",
    "ReportEntry",
    "RateReport",
    "NonFiniteRateError",
    "ScrapResult",
    "four_photon_rate",
    "four_photon_rabi",
    "absorption_coefficient",
    "attenuation_fraction",
    "biphoton_rate_narrowband",
    "four_photon_rate_broadband",
    "one_photon_rate",
    "steady_state_fraction",
    "biphoton_rate_sequential",
    "lz_integral",
    "scrap_transfer_probability",
    "scrap_biphoton_rate",
    "etpa_ion_rate",
    "collection_fraction",
    "r_trans",
]

# Printed inputs of the reference budgets; no scenario varies them.
PUMP_PHOTON_ENERGY_EV = 5.155                       # 240 nm pump
LAMP_INTENSITY_WCM2 = 34.0                          # sequential: He I lamp
LAMP_PHOTON_ENERGY_EV = 21.22
LASER_INTENSITY_WCM2 = 1e12                         # sequential: 2059 nm laser
LASER_PHOTON_ENERGY_EV = 0.602
SIGMA2_CM4S = 1e-50                                 # etpa: sigma_2
ENTANGLEMENT_TIME_S = 1e-15                         # etpa: T_e
ENTANGLEMENT_AREA_CM2 = 1e-8                        # etpa: A_e


def _positive(name, value):
    if value is None or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class ReportEntry:
    value: float
    unit: str
    provenance: str


class NonFiniteRateError(ArithmeticError):
    """A scheme step overflowed or lost its value (inf or nan)."""


@dataclass(frozen=True)
class RateReport:
    """Per-step budget with units and provenance.

    Every value is finite, so the JSON is valid: a non-finite step raises
    ``NonFiniteRateError`` naming the scheme and the step.
    """

    scheme: str
    final_rate: ReportEntry
    steps: dict[str, ReportEntry]
    schema_version: int = 1

    def __post_init__(self):
        for name, entry in {**self.steps, "final_rate": self.final_rate}.items():
            if not math.isfinite(entry.value):
                raise NonFiniteRateError(
                    f"{self.scheme}: step {name!r} is not finite ({entry.value})")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def four_photon_rabi(species: SpeciesData, field_au: float) -> float:
    """Four-photon Rabi frequency (E0/2)^4 * D4 at peak field E0, atomic units."""
    if species.d4_eg is None:
        raise ValueError(f"{species.name}: four-photon matrix element not available")
    return (field_au / 2.0) ** 4 * species.d4_eg


def four_photon_rate(
    species: SpeciesData, field_au: float, lineshape_factor_au: float = 1.0
) -> float:
    """Resonant per-atom four-photon transition rate 2*pi*L*[(E0/2)^4 D4]^2 (a.u.)."""
    omega4 = four_photon_rabi(species, field_au)
    return 2.0 * math.pi * lineshape_factor_au * omega4**2


def absorption_coefficient(
    n: int,
    rate_per_atom_au: float,
    density_cm3: float,
    intensity_au: float,
    photon_energy_au: float,
) -> float:
    """n-photon absorption coefficient alpha = n*hbar*w*R*N/I^n.

    Returned in the mixed SI units W^-(n-1) cm^(2n-3) (cm^-1 for n = 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not intensity_au > 0:
        raise ValueError(f"intensity must be > 0, got {intensity_au}")
    r = rate_per_atom_au / PER_S
    e_j = photon_energy_au / J
    i = intensity_au / W_CM2
    return n * e_j * r * density_cm3 / i**n


def attenuation_fraction(
    intensity_au: float, alpha: float, path_length_au: float, n: int
) -> float:
    """Absorbed fraction after propagation: 1 - exp(-aL) for n = 1, else
    1 - (1 + (n-1) a L I0^(n-1))^(-1/(n-1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    l_cm = path_length_au / CM
    if n == 1:
        return 1.0 - math.exp(-alpha * l_cm)
    i0 = intensity_au / W_CM2
    x = (n - 1) * alpha * l_cm * i0 ** (n - 1)
    return 1.0 - (1.0 + x) ** (-1.0 / (n - 1))


def _narrowband_steps(config: SimpleNamespace, species: SpeciesData):
    density = number_density(config.pressure_bar, config.temperature_k)
    intensity = config.intensity_wcm2 * W_CM2
    photon_energy = PUMP_PHOTON_ENERGY_EV * EV
    flux = photon_flux(intensity, photon_energy, config.spot_diameter_um * UM)
    r4 = four_photon_rate(
        species, intensity_to_field(intensity),
        lineshape_factor_au=config.lineshape_factor_au,
    )
    alpha = absorption_coefficient(4, r4, density, intensity, photon_energy)
    frac = attenuation_fraction(intensity, alpha, config.path_length_mm * MM, 4)
    pair_rate = flux * frac / 4.0
    steps = {
        "pump_photon_flux": ReportEntry(flux, "1/s",
                                        "I*(pi d^2/4)/(hbar w)"),
        "four_photon_rate_per_atom": ReportEntry(
            r4, "au_rate",
            f"2*pi*L*[(E0/2)^4 D4]^2, L={config.lineshape_factor_au} a.u."),
        "absorption_coefficient": ReportEntry(alpha, "W^-3 cm^5",
                                              "4*hbar*w*R*N/I^4"),
        "absorbed_fraction": ReportEntry(frac, "",
                                         "1-(1+3 a L I0^3)^(-1/3)"),
    }
    return pair_rate, steps


def biphoton_rate_narrowband(config: SimpleNamespace, species: SpeciesData) -> RateReport:
    """Pairs per second: pump flux x absorbed fraction / 4 photons per excitation."""
    pair_rate, steps = _narrowband_steps(config, species)
    return RateReport(
        scheme="narrowband-4photon",
        final_rate=ReportEntry(pair_rate, "1/s",
                               "flux * absorbed_fraction / 4 photons per pair"),
        steps=steps,
    )


def four_photon_rate_broadband(config: SimpleNamespace, species: SpeciesData) -> RateReport:
    """Incoherent broadband pumping: the resonant narrowband rate scaled by the
    fraction of pump spectral density overlapping the transition linewidth.

    The pump density at the four-photon resonance is 1/delta for a flat-top
    spectrum of bandwidth delta; the transition linewidth is the natural
    width 1/lifetime_2s.
    """
    delta_hz = config.bandwidth_hz
    pair_rate, steps = _narrowband_steps(config, species)
    width_hz = 1.0 / species.lifetime_2s.value
    peak_density = 1.0 / delta_hz
    overlap = width_hz * peak_density
    rate = pair_rate * overlap
    steps.update({
        "resonant_pair_rate": ReportEntry(pair_rate, "1/s",
                                          "narrowband chain at full intensity"),
        "transition_linewidth": ReportEntry(width_hz, "Hz", "1/lifetime_2s"),
        "spectral_density_at_resonance": ReportEntry(
            peak_density, "1/Hz", "flat-top of bandwidth delta"),
    })
    return RateReport(
        scheme="broadband-4photon",
        final_rate=ReportEntry(rate, "1/s",
                               "resonant rate * linewidth * density(resonance)"),
        steps=steps,
    )


def one_photon_rate(
    f: float,
    intensity_au: float,
    photon_energy_au: float,
    lineshape_factor_au: float,
) -> float:
    """One-photon excitation rate pi*|f|*E0^2*L/w, atomic units."""
    if intensity_au < 0:
        raise ValueError("intensity must be >= 0")
    _positive("lineshape_factor_au", lineshape_factor_au)
    e0 = intensity_to_field(intensity_au)
    return math.pi * abs(f) * e0**2 * lineshape_factor_au / photon_energy_au


def steady_state_fraction(r1_au: float, tau_2p_au: float) -> float:
    """Steady-state excited fraction (1 - 1/(1 + 2 R1 tau))/2; saturates at 1/2."""
    x = r1_au * tau_2p_au
    if x < 0:
        raise ValueError("R1*tau must be >= 0")
    return 0.5 * (1.0 - 1.0 / (1.0 + 2.0 * x))


def biphoton_rate_sequential(config: SimpleNamespace, species: SpeciesData) -> RateReport:
    """Lamp (1s^2 -> 1s2p) plus 2059 nm laser (1s2p -> 1s2s) budget.

    The generation rate is the smaller of the excited-state inventory
    turnover (steady-state fraction x focal-volume atoms per second) and the
    lamp photon supply; the binding constraint is named in the report.
    """
    tau_au = config.tau_2p_ns * NS
    lamp_intensity = LAMP_INTENSITY_WCM2 * W_CM2
    lamp_energy = LAMP_PHOTON_ENERGY_EV * EV
    r1 = one_photon_rate(species.f_g2p, lamp_intensity, lamp_energy, tau_au)
    r2 = one_photon_rate(species.f_2p2s, LASER_INTENSITY_WCM2 * W_CM2,
                         LASER_PHOTON_ENERGY_EV * EV, tau_au)
    frac = steady_state_fraction(r1, tau_au)
    atoms = config.n_atoms
    if atoms is None:
        atoms = atoms_in_focal_volume(config.pressure_bar, config.temperature_k,
                                      config.spot_diameter_um * UM,
                                      config.path_length_mm * MM)
    inventory = frac * atoms
    lamp_supply = photon_flux(lamp_intensity, lamp_energy,
                              config.spot_diameter_um * UM)
    rate = min(inventory, lamp_supply)
    binding = "excited-inventory" if inventory <= lamp_supply else "lamp-photon-supply"
    saturated = r2 * tau_au > 1.0
    steps = {
        "lamp_rate_r1": ReportEntry(r1 / PER_S, "1/s",
                                    "pi*f*E0^2*tau_2p/w, f=1s^2->1s2p"),
        "laser_rate_r2": ReportEntry(r2 / PER_S, "1/s",
                                     "pi*|f|*E0^2*tau_2p/w, f=1s2p->1s2s"),
        "laser_step_saturated": ReportEntry(float(saturated), "",
                                            "R2*tau_2p > 1"),
        "steady_state_fraction": ReportEntry(frac, "",
                                             "(1 - 1/(1+2 R1 tau))/2"),
        "atoms_in_focal_volume": ReportEntry(atoms, "", "N*pi*(d/2)^2*L"),
        "excited_inventory": ReportEntry(inventory, "1/s",
                                         "fraction * atoms per second"),
        "lamp_photon_supply": ReportEntry(lamp_supply, "1/s",
                                          "lamp flux through the focal spot"),
        "binding_constraint": ReportEntry(
            float(inventory <= lamp_supply), "", binding),
    }
    return RateReport(
        scheme="sequential",
        final_rate=ReportEntry(rate, "1/s",
                               f"min(excited inventory, lamp supply) = {binding}"),
        steps=steps,
    )


def lz_integral(omega_hz: float, bandwidth_hz: float, pulse_duration_s: float,
                window: str = "ramp") -> float:
    """Closed-form integral over the sweep of the Landau-Zener leakage rate
    Gamma(t) = W^2 g / (D(t)^2 + g^2/4), g = sqrt(delta/(4 pi tau)),
    D(t) = t*delta/tau, in ordinary frequencies: W is the effective Rabi
    frequency and delta the bandwidth, both in Hz, and tau is in seconds.

    window="ramp": [0, tau] as the rate formula is written ->
    (2 W^2 tau/delta) * arctan(2 delta/g); window="centered": [-tau/2, tau/2]
    -> (4 W^2 tau/delta) * arctan(delta/g).
    """
    tau = pulse_duration_s
    g = math.sqrt(bandwidth_hz / (4.0 * math.pi * tau))
    pref = 2.0 * omega_hz**2 * tau / bandwidth_hz
    if window == "ramp":
        return pref * math.atan(2.0 * bandwidth_hz / g)
    if window == "centered":
        return 2.0 * pref * math.atan(bandwidth_hz / g)
    raise ValueError(f"window must be 'ramp' or 'centered', got {window!r}")


@dataclass(frozen=True)
class ScrapResult:
    """Transfer probability and its LZ exponent on the ramp window [0, tau],
    then on the centered window [-tau/2, tau/2]."""

    probability: float
    exponent: float
    probability_other_window: float
    exponent_other_window: float


def scrap_transfer_probability(config: SimpleNamespace, species: SpeciesData) -> ScrapResult:
    """Population-transfer probability P = 1 - exp(-integral Gamma dt).

    The effective Rabi frequency squared is W^2 = W_eg^2 + (delta/2)^2 where
    W_eg is the four-photon Rabi frequency expressed in the budget's
    2*pi-per-a.u.-time convention.  Both integration windows are reported.
    """
    delta_hz = config.bandwidth_hz
    field_au = intensity_to_field(config.intensity_wcm2 * W_CM2)
    omega_eg_hz = 2.0 * math.pi * four_photon_rabi(species, field_au) / AU_TIME_S
    omega_hz = math.sqrt(omega_eg_hz**2 + (delta_hz / 2.0) ** 2)
    tau = config.pulse_duration_fs * FS / S
    exponent = lz_integral(omega_hz, delta_hz, tau, window="ramp")
    exponent_other = lz_integral(omega_hz, delta_hz, tau, window="centered")
    return ScrapResult(
        probability=1.0 - math.exp(-exponent),
        exponent=exponent,
        probability_other_window=1.0 - math.exp(-exponent_other),
        exponent_other_window=exponent_other,
    )


def scrap_biphoton_rate(config: SimpleNamespace, species: SpeciesData) -> RateReport:
    """Excited fraction x focal-volume atoms x pulse repetition rate."""
    res = scrap_transfer_probability(config, species)
    atoms = config.n_atoms
    per_pulse = config.excitation_fraction * atoms
    rate = per_pulse * config.repetition_rate_hz
    steps = {
        "transfer_probability": ReportEntry(
            res.probability, "",
            f"1-exp(-{res.exponent:.3g}), window=ramp"),
        "transfer_probability_centered": ReportEntry(
            res.probability_other_window, "",
            f"1-exp(-{res.exponent_other_window:.3g}), window=centered"),
        "excitation_fraction": ReportEntry(
            config.excitation_fraction, "",
            "assumed surviving fraction after ionization/LICS losses"),
        "atoms_in_focal_volume": ReportEntry(atoms, "", "N*pi*(d/2)^2*L"),
        "atoms_excited_per_pulse": ReportEntry(per_pulse, "",
                                               "fraction * atoms"),
        "repetition_rate": ReportEntry(config.repetition_rate_hz, "Hz", "input"),
    }
    return RateReport(
        scheme="scrap",
        final_rate=ReportEntry(rate, "1/s", "per-pulse excitations * rep rate"),
        steps=steps,
    )


def etpa_ion_rate(config: SimpleNamespace) -> RateReport:
    """ETPA detection budget: sigma_e = sigma2/(A_e T_e), rate per molecule
    sigma_e x (photon rate / A_e), ions/s = per-molecule rate x molecules."""
    sigma_e = SIGMA2_CM4S / (ENTANGLEMENT_AREA_CM2 * ENTANGLEMENT_TIME_S)
    flux_density = config.photon_rate_hz / ENTANGLEMENT_AREA_CM2
    per_molecule = sigma_e * flux_density
    ions = per_molecule * config.molecules
    return RateReport(
        scheme="etpa",
        final_rate=ReportEntry(ions, "1/s", "per-molecule rate * molecules"),
        steps={
            "sigma_e": ReportEntry(sigma_e, "cm^2", "sigma2/(A_e*T_e)"),
            "photon_flux_density": ReportEntry(flux_density, "1/(cm^2 s)",
                                               "photon rate / A_e"),
            "per_molecule_rate": ReportEntry(per_molecule, "1/s",
                                             "sigma_e * flux density"),
            "molecules": ReportEntry(config.molecules, "", "input"),
        },
    )


@dataclass(frozen=True)
class Scheme:
    """One excitation scheme: its ``(config, species) -> RateReport`` runner,
    and ``defaults``, which maps each key the runner reads (the override keys
    a scenario may set on it) to its value in the reference scenario."""

    run: Callable[[SimpleNamespace, SpeciesData], RateReport]
    defaults: dict[str, float | None]

    def config(self, /, **overrides) -> SimpleNamespace:
        """The runner's inputs: ``defaults`` updated by ``overrides``.

        Raises ``ValueError`` on a key the runner does not read, and on a
        value that is not finite and positive (``excitation_fraction``: not
        in [0, 1]); ``None`` is accepted only where the default is ``None``.
        """
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)}; "
                             f"allowed: {sorted(self.defaults)}")
        values = {**self.defaults, **overrides}
        for key, value in values.items():
            if key == "excitation_fraction":
                if not 0 <= value <= 1:
                    raise ValueError(f"{key} must be in [0, 1], got {value}")
            elif value is not None or self.defaults[key] is not None:
                _positive(key, value)
        return SimpleNamespace(**values)


# Scheme inputs are plain numbers in the unit their key names; the defaults
# are the reference scenario: 100 um spot, 1 mm path, 1 bar, 293 K, pump at
# 1e14 W/cm^2.  The printed inputs that no scenario varies are the module
# constants above.
_GAS_CELL = {"spot_diameter_um": 100.0, "path_length_mm": 1.0,
             "pressure_bar": 1.0, "temperature_k": 293.0}
_PUMP = {"intensity_wcm2": 1e14, **_GAS_CELL, "lineshape_factor_au": 1.0}

# scheme id -> Scheme; the only place that knows a scheme's inputs
SCHEMES = {
    "narrowband-4photon": Scheme(biphoton_rate_narrowband, _PUMP),
    "broadband-4photon": Scheme(four_photon_rate_broadband,
                                {**_PUMP, "bandwidth_hz": 5e12}),
    # n_atoms None: the focal-volume count of the gas cell
    "sequential": Scheme(biphoton_rate_sequential,
                         {"tau_2p_ns": 2.05, **_GAS_CELL, "n_atoms": None}),
    "scrap": Scheme(scrap_biphoton_rate,
                    {"intensity_wcm2": 1e14, "bandwidth_hz": 8.8e12,
                     "pulse_duration_fs": 50.0, "repetition_rate_hz": 1e5,
                     "excitation_fraction": 0.01, "n_atoms": 1e13}),
    "etpa": Scheme(lambda config, species: etpa_ion_rate(config),
                   {"photon_rate_hz": 1e12, "molecules": 1e12}),
}


def collection_fraction(solid_angle_fraction: float) -> float:
    """Probability that both photons of a pair fall in one collection cone.

    The pair relative-angle density is proportional to 1 + cos^2(theta);
    the double cone integral reduces to (3/(64 pi^2)) * (W_c^2 + Tr(M^2))
    with W_c the cone solid angle and M the cone's direction second moment,
    whose axial entry is M_zz = 2 pi (1 - cos^3 alpha)/3.
    """
    f = solid_angle_fraction
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"solid-angle fraction must be in [0, 1], got {f}")
    cos_alpha = 1.0 - 2.0 * f
    omega_c = 4.0 * math.pi * f
    m_zz = 2.0 * math.pi * (1.0 - cos_alpha**3) / 3.0
    m_xx = (omega_c - m_zz) / 2.0
    tr_m2 = 2.0 * m_xx**2 + m_zz**2
    return 3.0 / (64.0 * math.pi**2) * (omega_c**2 + tr_m2)


def r_trans(
    theta_factor: float,
    field_au: float,
    species: SpeciesData,
    emitter: BiphotonSpectrum,
) -> float:
    """Coherent excitation-emission-absorption transfer rate in the cavity.

    R = 2*pi * | Theta * E0^4/(256 c^6) * D4 * K |^2 with
    K = integral_0^D [w(D-w)]^3 A(w) S(w) dw over the emission window, where
    S is the emitter chain and A(w) = sqrt(3 f_g2p/(2 D_jg))/(w - D_jg) the
    species' 1s^2 -> 1s2p absorber pole (D_jg its 2p level), integrated on
    the nodes of the sampled ``emitter`` spectrum; the excitation and
    absorption lineshapes are unit (1 a.u.).  ``field_au`` is the peak
    electric field; the rate is in atomic units.
    Scales as E0^8 and as Theta^2.
    """
    if species.d4_eg is None:
        raise ValueError(f"{species.name}: four-photon matrix element not available")
    if abs(emitter.delta_eg_au - species.delta_eg.au) > 1e-9:
        raise ValueError(
            "emitter spectrum level gap "
            f"({emitter.delta_eg_au} a.u.) does not match species "
            f"{species.name} ({species.delta_eg.au} a.u.)"
        )
    djg = species.e_2p.au
    absorber = math.sqrt(3.0 * species.f_g2p / (2.0 * djg)) / (emitter.omega_au - djg)
    k = float(np.dot(emitter.weights_au, emitter.amplitude * absorber))
    amp = theta_factor * field_au**4 / (256.0 * C_AU**6) * species.d4_eg * k
    return 2.0 * math.pi * amp**2
