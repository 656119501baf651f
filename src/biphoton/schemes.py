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
from dataclasses import dataclass, field, asdict

import numpy as np

from .registry import SpeciesData
from .spectrum import BiphotonSpectrum
# nothing here calls it; perfbench/test_tracing.py traces a call through this binding
from .spectrum import spectral_amplitude  # noqa: F401
from .units import (
    AU_TIME_S,
    C_AU,
    HARTREE_EV,
    Quantity,
    atoms_in_focal_volume,
    intensity_to_field,
    number_density,
    photon_flux,
    photon_flux_density,
)

__all__ = [
    "SCHEMES",
    "SCHEME_RUNNERS",
    "SchemeConfig",
    "ReportEntry",
    "RateReport",
    "AbsorberChain",
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
    "lz_leakage_rate",
    "lz_integral",
    "scrap_transfer_probability",
    "scrap_biphoton_rate",
    "etpa_ion_rate",
    "collection_fraction",
    "he_absorber",
    "r_trans",
]

_NEEDS_BANDWIDTH = ("broadband-4photon", "scrap")


def _positive(name, value):
    if value is not None and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class SchemeConfig:
    """Inputs for one scheme estimate.  Defaults are the reference scenario:
    100 um spot, 1 mm path, 1 bar, 240 nm pump at 1e14 W/cm^2."""

    scheme: str
    intensity: Quantity = Quantity(1e14, "W/cm^2")
    photon_energy: Quantity = Quantity(5.155, "eV")
    spot_diameter: Quantity = Quantity(100.0, "um")
    path_length: Quantity = Quantity(1.0, "mm")
    pressure_bar: float = 1.0
    temperature_k: float = 293.0
    lineshape_factor_au: float = 1.0
    # broadband / scrap
    bandwidth: Quantity | None = None              # ordinary frequency
    transition_linewidth: Quantity | None = None   # defaults to 1/lifetime_2s
    density_model: str = "flat-top"
    pulse_duration: Quantity = Quantity(50.0, "fs")
    repetition_rate_hz: float = 1e5
    excitation_fraction: float = 0.01
    n_atoms: float | None = None                   # override for focal-volume count
    # sequential
    lamp_intensity: Quantity = Quantity(34.0, "W/cm^2")
    lamp_photon_energy: Quantity = Quantity(21.22, "eV")
    laser_intensity: Quantity = Quantity(1e12, "W/cm^2")
    laser_photon_energy: Quantity = Quantity(0.602, "eV")
    tau_2p: Quantity = Quantity(2.05e-9, "s")
    # etpa
    sigma2_cm4s: float = 1e-50
    entanglement_time: Quantity = Quantity(1e-15, "s")
    entanglement_area_cm2: float = 1e-8
    photon_rate_hz: float = 1e12
    molecules: float = 1e12
    # collection
    collection_solid_angle: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; one of {SCHEMES}")
        for name in ("intensity", "lamp_intensity", "laser_intensity"):
            q = getattr(self, name)
            if q.value < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("photon_energy", "spot_diameter", "path_length",
                     "pulse_duration", "tau_2p", "entanglement_time"):
            _positive(name, getattr(self, name).value)
        _positive("pressure_bar", self.pressure_bar)
        _positive("temperature_k", self.temperature_k)
        _positive("lineshape_factor_au", self.lineshape_factor_au)
        _positive("repetition_rate_hz", self.repetition_rate_hz)
        _positive("sigma2_cm4s", self.sigma2_cm4s)
        _positive("entanglement_area_cm2", self.entanglement_area_cm2)
        if self.scheme in _NEEDS_BANDWIDTH:
            if self.bandwidth is None or not self.bandwidth.value > 0:
                raise ValueError(f"scheme {self.scheme!r} requires a positive bandwidth")
        elif self.bandwidth is not None:
            raise ValueError(f"scheme {self.scheme!r} does not take a bandwidth")
        if self.density_model not in ("flat-top", "gaussian"):
            raise ValueError("density_model must be 'flat-top' or 'gaussian'")
        if not 0 <= self.excitation_fraction <= 1:
            raise ValueError("excitation_fraction must be in [0, 1]")

    def atoms(self) -> float:
        if self.n_atoms is not None:
            return self.n_atoms
        return atoms_in_focal_volume(
            self.pressure_bar, self.temperature_k, self.spot_diameter, self.path_length
        )


@dataclass(frozen=True)
class ReportEntry:
    value: float
    unit: str
    provenance: str


@dataclass(frozen=True)
class RateReport:
    """Per-step budget with units and provenance; lossless JSON round-trip."""

    scheme: str
    final_rate: ReportEntry
    steps: dict[str, ReportEntry]
    schema_version: int = 1

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RateReport":
        raw = json.loads(text)
        return cls(
            scheme=raw["scheme"],
            final_rate=ReportEntry(**raw["final_rate"]),
            steps={k: ReportEntry(**v) for k, v in raw["steps"].items()},
            schema_version=raw["schema_version"],
        )


def _field_au(intensity: Quantity | None, field_q: Quantity | None) -> float:
    if (intensity is None) == (field_q is None):
        raise ValueError("give exactly one of intensity or field")
    if field_q is not None:
        if field_q.dimension != "electric-field":
            raise ValueError(f"field must be an electric field, got {field_q.dimension}")
        return field_q.au
    return intensity_to_field(intensity).au


def four_photon_rabi(
    species: SpeciesData,
    intensity: Quantity | None = None,
    field: Quantity | None = None,
) -> Quantity:
    """Four-photon Rabi frequency (E0/2)^4 * D4, atomic units."""
    if species.d4_eg is None:
        raise ValueError(f"{species.name}: four-photon matrix element not available")
    e0 = _field_au(intensity, field)
    return Quantity((e0 / 2.0) ** 4 * species.d4_eg, "au_angular_frequency")


def four_photon_rate(
    species: SpeciesData,
    intensity: Quantity | None = None,
    field: Quantity | None = None,
    lineshape_factor_au: float = 1.0,
) -> Quantity:
    """Resonant per-atom four-photon transition rate 2*pi*L*[(E0/2)^4 D4]^2 (a.u.)."""
    omega4 = four_photon_rabi(species, intensity=intensity, field=field).au
    return Quantity(2.0 * math.pi * lineshape_factor_au * omega4**2, "au_rate")


def absorption_coefficient(
    n: int,
    rate_per_atom: Quantity,
    density_cm3: float,
    intensity: Quantity,
    photon_energy: Quantity,
) -> float:
    """n-photon absorption coefficient alpha = n*hbar*w*R*N/I^n.

    Returned in the mixed SI units W^-(n-1) cm^(2n-3) (cm^-1 for n = 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = rate_per_atom.to("1/s").value
    e_j = photon_energy.to("J").value
    i = intensity.to("W/cm^2").value
    return n * e_j * r * density_cm3 / i**n


def attenuation_fraction(
    intensity: Quantity, alpha: float, path_length: Quantity, n: int
) -> float:
    """Absorbed fraction after propagation: 1 - exp(-aL) for n = 1, else
    1 - (1 + (n-1) a L I0^(n-1))^(-1/(n-1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    l_cm = path_length.to("cm").value
    if n == 1:
        return 1.0 - math.exp(-alpha * l_cm)
    i0 = intensity.to("W/cm^2").value
    x = (n - 1) * alpha * l_cm * i0 ** (n - 1)
    return 1.0 - (1.0 + x) ** (-1.0 / (n - 1))


def _narrowband_steps(config: SchemeConfig, species: SpeciesData):
    density = number_density(config.pressure_bar, config.temperature_k)
    flux = photon_flux(config.intensity, config.photon_energy, config.spot_diameter)
    r4 = four_photon_rate(
        species, intensity=config.intensity,
        lineshape_factor_au=config.lineshape_factor_au,
    )
    alpha = absorption_coefficient(
        4, r4, density, config.intensity, config.photon_energy
    )
    frac = attenuation_fraction(config.intensity, alpha, config.path_length, 4)
    pair_rate = flux.value * frac / 4.0
    steps = {
        "pump_photon_flux": ReportEntry(flux.value, "1/s",
                                        "I*(pi d^2/4)/(hbar w)"),
        "four_photon_rate_per_atom": ReportEntry(
            r4.value, "au_rate",
            f"2*pi*L*[(E0/2)^4 D4]^2, L={config.lineshape_factor_au} a.u."),
        "absorption_coefficient": ReportEntry(alpha, "W^-3 cm^5",
                                              "4*hbar*w*R*N/I^4"),
        "absorbed_fraction": ReportEntry(frac, "",
                                         "1-(1+3 a L I0^3)^(-1/3)"),
    }
    return pair_rate, steps


def biphoton_rate_narrowband(config: SchemeConfig, species: SpeciesData) -> RateReport:
    """Pairs per second: pump flux x absorbed fraction / 4 photons per excitation."""
    if config.scheme != "narrowband-4photon":
        raise ValueError(f"expected narrowband-4photon config, got {config.scheme!r}")
    pair_rate, steps = _narrowband_steps(config, species)
    return RateReport(
        scheme=config.scheme,
        final_rate=ReportEntry(pair_rate, "1/s",
                               "flux * absorbed_fraction / 4 photons per pair"),
        steps=steps,
    )


def four_photon_rate_broadband(config: SchemeConfig, species: SpeciesData) -> RateReport:
    """Incoherent broadband pumping: the resonant narrowband rate scaled by the
    fraction of pump spectral density overlapping the transition linewidth.

    The pump density at the four-photon resonance is 1/delta for a flat-top
    spectrum of bandwidth delta (or the equal-FWHM Gaussian peak density);
    the transition linewidth defaults to the natural width 1/lifetime_2s.
    """
    if config.scheme != "broadband-4photon":
        raise ValueError(f"expected broadband-4photon config, got {config.scheme!r}")
    pair_rate, steps = _narrowband_steps(config, species)
    delta_hz = config.bandwidth.to("Hz").value
    if config.transition_linewidth is not None:
        width_hz = config.transition_linewidth.to("Hz").value
    else:
        if species.lifetime_2s is None:
            raise ValueError(f"{species.name}: no lifetime to derive a linewidth from")
        width_hz = 1.0 / species.lifetime_2s.to("s").value
    if config.density_model == "flat-top":
        peak_density = 1.0 / delta_hz
    else:
        sigma = delta_hz / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        peak_density = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    overlap = width_hz * peak_density
    rate = pair_rate * overlap
    steps.update({
        "resonant_pair_rate": ReportEntry(pair_rate, "1/s",
                                          "narrowband chain at full intensity"),
        "transition_linewidth": ReportEntry(width_hz, "Hz", "1/lifetime_2s"),
        "spectral_density_at_resonance": ReportEntry(
            peak_density, "1/Hz", f"{config.density_model} of bandwidth delta"),
    })
    return RateReport(
        scheme=config.scheme,
        final_rate=ReportEntry(rate, "1/s",
                               "resonant rate * linewidth * density(resonance)"),
        steps=steps,
    )


def one_photon_rate(
    f: float,
    intensity: Quantity,
    photon_energy: Quantity,
    lineshape_factor_au: float,
) -> Quantity:
    """One-photon excitation rate pi*|f|*E0^2*L/w (a.u. -> s^-1)."""
    if intensity.value < 0:
        raise ValueError("intensity must be >= 0")
    _positive("lineshape_factor_au", lineshape_factor_au)
    e0 = intensity_to_field(intensity).au
    w = photon_energy.au
    rate_au = math.pi * abs(f) * e0**2 * lineshape_factor_au / w
    return Quantity(rate_au, "au_rate").to("1/s")


def steady_state_fraction(r1: Quantity, tau_2p: Quantity) -> float:
    """Steady-state excited fraction (1 - 1/(1 + 2 R1 tau))/2; saturates at 1/2."""
    x = r1.to("1/s").value * tau_2p.to("s").value
    if x < 0:
        raise ValueError("R1*tau must be >= 0")
    return 0.5 * (1.0 - 1.0 / (1.0 + 2.0 * x))


def biphoton_rate_sequential(config: SchemeConfig, species: SpeciesData) -> RateReport:
    """Lamp (1s^2 -> 1s2p) plus 2059 nm laser (1s2p -> 1s2s) budget.

    The generation rate is the smaller of the excited-state inventory
    turnover (steady-state fraction x focal-volume atoms per second) and the
    lamp photon supply; the binding constraint is named in the report.
    """
    if config.scheme != "sequential":
        raise ValueError(f"expected sequential config, got {config.scheme!r}")
    tau_au = config.tau_2p.au
    r1 = one_photon_rate(
        species.f_g2p, config.lamp_intensity, config.lamp_photon_energy, tau_au
    )
    r2 = one_photon_rate(
        species.f_2p2s, config.laser_intensity, config.laser_photon_energy, tau_au
    )
    frac = steady_state_fraction(r1, config.tau_2p)
    atoms = config.atoms()
    inventory = frac * atoms
    lamp_supply = photon_flux(
        config.lamp_intensity, config.lamp_photon_energy, config.spot_diameter
    ).value
    rate = min(inventory, lamp_supply)
    binding = "excited-inventory" if inventory <= lamp_supply else "lamp-photon-supply"
    saturated = r2.value * config.tau_2p.to("s").value > 1.0
    steps = {
        "lamp_rate_r1": ReportEntry(r1.value, "1/s",
                                    "pi*f*E0^2*tau_2p/w, f=1s^2->1s2p"),
        "laser_rate_r2": ReportEntry(r2.value, "1/s",
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
        scheme=config.scheme,
        final_rate=ReportEntry(rate, "1/s",
                               f"min(excited inventory, lamp supply) = {binding}"),
        steps=steps,
    )


def lz_leakage_rate(t: Quantity, omega_hz: float, bandwidth_hz: float,
                    pulse_duration: Quantity) -> float:
    """Landau-Zener leakage rate during a Stark sweep, ordinary-frequency units.

    Gamma(t) = W^2 g / (D(t)^2 + g^2/4) with g = sqrt(delta/(4 pi tau)),
    D(t) = t*delta/tau; W is the effective Rabi frequency in Hz.
    """
    _positive("bandwidth_hz", bandwidth_hz)
    tau = pulse_duration.to("s").value
    _positive("pulse_duration", tau)
    g = math.sqrt(bandwidth_hz / (4.0 * math.pi * tau))
    d = t.to("s").value * bandwidth_hz / tau
    return omega_hz**2 * g / (d * d + g * g / 4.0)


def lz_integral(omega_hz: float, bandwidth_hz: float, pulse_duration: Quantity,
                window: str = "ramp") -> float:
    """Closed-form integral of the leakage rate over the sweep.

    window="ramp": [0, tau] as the rate formula is written ->
    (2 W^2 tau/delta) * arctan(2 delta/g); window="centered": [-tau/2, tau/2]
    -> (4 W^2 tau/delta) * arctan(delta/g).
    """
    tau = pulse_duration.to("s").value
    g = math.sqrt(bandwidth_hz / (4.0 * math.pi * tau))
    pref = 2.0 * omega_hz**2 * tau / bandwidth_hz
    if window == "ramp":
        return pref * math.atan(2.0 * bandwidth_hz / g)
    if window == "centered":
        return 2.0 * pref * math.atan(bandwidth_hz / g)
    raise ValueError(f"window must be 'ramp' or 'centered', got {window!r}")


@dataclass(frozen=True)
class ScrapResult:
    probability: float
    exponent: float
    window: str
    probability_other_window: float
    exponent_other_window: float
    omega_hz: float
    gamma_hz: float


def scrap_transfer_probability(
    config: SchemeConfig, species: SpeciesData, window: str = "ramp"
) -> ScrapResult:
    """Population-transfer probability P = 1 - exp(-integral Gamma dt).

    The effective Rabi frequency squared is W^2 = W_eg^2 + (delta/2)^2 where
    W_eg is the four-photon Rabi frequency expressed in the budget's
    2*pi-per-a.u.-time convention.  Both integration windows are reported.
    """
    if config.scheme != "scrap":
        raise ValueError(f"expected scrap config, got {config.scheme!r}")
    delta_hz = config.bandwidth.to("Hz").value
    omega_eg_hz = (
        2.0 * math.pi
        * four_photon_rabi(species, intensity=config.intensity).au / AU_TIME_S
    )
    omega_hz = math.sqrt(omega_eg_hz**2 + (delta_hz / 2.0) ** 2)
    tau = config.pulse_duration
    other = "centered" if window == "ramp" else "ramp"
    exponent = lz_integral(omega_hz, delta_hz, tau, window=window)
    exponent_other = lz_integral(omega_hz, delta_hz, tau, window=other)
    g = math.sqrt(delta_hz / (4.0 * math.pi * tau.to("s").value))
    return ScrapResult(
        probability=1.0 - math.exp(-exponent),
        exponent=exponent,
        window=window,
        probability_other_window=1.0 - math.exp(-exponent_other),
        exponent_other_window=exponent_other,
        omega_hz=omega_hz,
        gamma_hz=g,
    )


def scrap_biphoton_rate(config: SchemeConfig, species: SpeciesData) -> RateReport:
    """Excited fraction x focal-volume atoms x pulse repetition rate."""
    if config.scheme != "scrap":
        raise ValueError(f"expected scrap config, got {config.scheme!r}")
    res = scrap_transfer_probability(config, species)
    atoms = config.atoms()
    per_pulse = config.excitation_fraction * atoms
    rate = per_pulse * config.repetition_rate_hz
    steps = {
        "transfer_probability": ReportEntry(
            res.probability, "",
            f"1-exp(-{res.exponent:.3g}), window={res.window}"),
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
        scheme=config.scheme,
        final_rate=ReportEntry(rate, "1/s", "per-pulse excitations * rep rate"),
        steps=steps,
    )


def etpa_ion_rate(config: SchemeConfig) -> RateReport:
    """ETPA detection budget: sigma_e = sigma2/(A_e T_e), rate per molecule
    sigma_e x (photon rate / A_e), ions/s = per-molecule rate x molecules."""
    if config.scheme != "etpa":
        raise ValueError(f"expected etpa config, got {config.scheme!r}")
    t_e = config.entanglement_time.to("s").value
    sigma_e = config.sigma2_cm4s / (config.entanglement_area_cm2 * t_e)
    flux_density = config.photon_rate_hz / config.entanglement_area_cm2
    per_molecule = sigma_e * flux_density
    ions = per_molecule * config.molecules
    return RateReport(
        scheme=config.scheme,
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


# scheme id -> (config, species) -> RateReport
SCHEME_RUNNERS = {
    "narrowband-4photon": biphoton_rate_narrowband,
    "broadband-4photon": four_photon_rate_broadband,
    "sequential": biphoton_rate_sequential,
    "scrap": scrap_biphoton_rate,
    "etpa": lambda config, species: etpa_ion_rate(config),
}
SCHEMES = tuple(SCHEME_RUNNERS)


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
    if f == 0.0:
        return 0.0
    cos_alpha = 1.0 - 2.0 * f
    omega_c = 4.0 * math.pi * f
    m_zz = 2.0 * math.pi * (1.0 - cos_alpha**3) / 3.0
    m_xx = (omega_c - m_zz) / 2.0
    tr_m2 = 2.0 * m_xx**2 + m_zz**2
    return 3.0 / (64.0 * math.pi**2) * (omega_c**2 + tr_m2)


@dataclass(frozen=True)
class AbsorberChain:
    """Single-resonance absorption chain D/(w - D_mi) for the cavity transfer."""

    strength_au: float
    delta_mi_au: float
    name: str = "absorber"

    def chain(self, omega_au):
        return self.strength_au / (np.asarray(omega_au, dtype=float) - self.delta_mi_au)


def he_absorber(species: SpeciesData) -> AbsorberChain:
    """Ground-state 1s^2 -> 1s2p absorption chain from the oscillator strength."""
    djg = species.e_2p.au
    return AbsorberChain(
        strength_au=math.sqrt(3.0 * species.f_g2p / (2.0 * djg)),
        delta_mi_au=djg,
        name=f"{species.name} 1s2p",
    )


def r_trans(
    theta_factor: float,
    field: Quantity,
    species: SpeciesData,
    emitter: BiphotonSpectrum,
    absorber: AbsorberChain,
    lineshape_exc_au: float = 1.0,
    lineshape_abs_au: float = 1.0,
) -> Quantity:
    """Coherent excitation-emission-absorption transfer rate in the cavity.

    R = 2*pi*L_abs * | Theta * E0^4/(256 c^6) * D4 * L_exc * K |^2 with
    K = integral_0^D [w(D-w)]^3 A(w) S(w) dw over the emission window, where
    A is the absorber chain and S the emitter chain, integrated on the nodes
    of the sampled ``emitter`` spectrum.  Scales as E0^8 and as Theta^2.
    """
    if species.d4_eg is None:
        raise ValueError(f"{species.name}: four-photon matrix element not available")
    if abs(emitter.delta_eg_au - species.delta_eg.au) > 1e-9:
        raise ValueError(
            "emitter spectrum level gap "
            f"({emitter.delta_eg_au} a.u.) does not match species "
            f"{species.name} ({species.delta_eg.au} a.u.)"
        )
    e0 = field.au if field.dimension == "electric-field" else _field_au(field, None)
    k = float(np.dot(emitter.weights_au,
                     emitter.amplitude * absorber.chain(emitter.omega_au)))
    amp = theta_factor * e0**4 / (256.0 * C_AU**6) * species.d4_eg * lineshape_exc_au * k
    return Quantity(2.0 * math.pi * lineshape_abs_au * amp**2, "au_rate")
