"""Dimensioned scalars and unit conversion.

Everything downstream computes in Hartree atomic units; SI shows up only at
the I/O boundary.  This is deliberately *not* a general units library: only
the dimensions the rate formulas touch are supported.

Conventions
-----------
* Intensity <-> field uses the Gaussian-units, cycle-peak relation
  E0 = sqrt(8*pi*I/c) with the intensity expressed in the Gaussian atomic
  intensity unit (6.436e15 W/cm^2).  Equivalently E0[a.u.] =
  sqrt(I / 3.50945e16 W cm^-2).  This pairing gives 0.0534 a.u. at
  1e14 W/cm^2.  An RMS convention would differ by sqrt(2); see README.
* Gas number density is calibrated to 1e19 cm^-3 at (1 bar, 293 K) -- the
  benchmark every downstream particle budget in this package assumes.  A
  strict ideal-gas evaluation P/kT would give 2.47e19 cm^-3 at the same
  state point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Quantity",
    "DimensionError",
    "UnknownUnitError",
    "intensity_to_field",
    "photon_flux",
    "photon_flux_density",
    "number_density",
    "atoms_in_focal_volume",
    "HARTREE_EV",
    "AU_TIME_S",
    "C_AU",
    "BOHR_CM",
    "AU_INTENSITY_WCM2",
    "AU_INTENSITY_GAUSSIAN_WCM2",
]

# CODATA 2018
HARTREE_EV = 27.211386245988          # eV per hartree
HARTREE_J = 4.3597447222071e-18       # J per hartree
AU_TIME_S = 2.4188843265857e-17       # s per a.u. time
C_AU = 137.035999084                  # speed of light, a.u. (1/alpha)
BOHR_M = 5.29177210903e-11
BOHR_CM = BOHR_M * 1e2

# Intensity at which E0 = 1 a.u. under the SI relation I = eps0*c*E^2/2.
AU_INTENSITY_WCM2 = 3.50944758e16
# Same field point expressed in the Gaussian unit where I = c*E^2/(8*pi):
AU_INTENSITY_GAUSSIAN_WCM2 = 8.0 * math.pi * AU_INTENSITY_WCM2 / C_AU

# Budget-convention gas density benchmark (see module docstring).
DENSITY_1BAR_293K_CM3 = 1.0e19

ENERGY = "energy"
TIME = "time"
LENGTH = "length"
FIELD = "electric-field"
INTENSITY = "intensity"
FREQUENCY = "frequency"
ANGULAR_FREQUENCY = "angular-frequency"
RATE = "rate"
DIMENSIONLESS = "dimensionless"


class DimensionError(TypeError):
    """Conversion between incompatible dimensions."""


class UnknownUnitError(ValueError):
    """Unit symbol not in the conversion table."""


# unit symbol -> (dimension, value of 1 unit in the a.u. base of that dimension)
_UNITS: dict[str, tuple[str, float]] = {
    # energy (base: hartree)
    "hartree": (ENERGY, 1.0),
    "eV": (ENERGY, 1.0 / HARTREE_EV),
    "J": (ENERGY, 1.0 / HARTREE_J),
    # time (base: a.u.)
    "au_time": (TIME, 1.0),
    "s": (TIME, 1.0 / AU_TIME_S),
    "fs": (TIME, 1e-15 / AU_TIME_S),
    "ns": (TIME, 1e-9 / AU_TIME_S),
    # length (base: bohr)
    "bohr": (LENGTH, 1.0),
    "cm": (LENGTH, 1e-2 / BOHR_M),
    "mm": (LENGTH, 1e-3 / BOHR_M),
    "um": (LENGTH, 1e-6 / BOHR_M),
    "nm": (LENGTH, 1e-9 / BOHR_M),
    # electric field (base: a.u.)
    "au_field": (FIELD, 1.0),
    # intensity (base: the Gaussian a.u. unit used by intensity_to_field)
    "au_intensity": (INTENSITY, 1.0),
    "W/cm^2": (INTENSITY, 1.0 / AU_INTENSITY_GAUSSIAN_WCM2),
    # frequency, ordinary cycles (base: 1/a.u. time)
    "au_frequency": (FREQUENCY, 1.0),
    "Hz": (FREQUENCY, AU_TIME_S),
    # angular frequency == energy with hbar=1 (base: a.u.)
    "au_angular_frequency": (ANGULAR_FREQUENCY, 1.0),
    # rate (base: 1/a.u. time)
    "au_rate": (RATE, 1.0),
    "1/s": (RATE, AU_TIME_S),
    # dimensionless
    "": (DIMENSIONLESS, 1.0),
}


def _unit(symbol: str) -> tuple[str, float]:
    try:
        return _UNITS[symbol]
    except KeyError:
        raise UnknownUnitError(
            f"unknown unit {symbol!r}; known: {sorted(_UNITS)}"
        ) from None


@dataclass(frozen=True)
class Quantity:
    """A scalar with a unit.  It converts but does no arithmetic: formulas
    work on ``.au`` floats."""

    value: float
    unit: str

    def __post_init__(self):
        _unit(self.unit)

    @property
    def dimension(self) -> str:
        return _unit(self.unit)[0]

    def to(self, unit: str) -> "Quantity":
        dim, factor = _unit(unit)
        if dim != self.dimension:
            raise DimensionError(
                f"cannot convert {self.dimension} to {dim} ({self.unit} -> {unit})"
            )
        return Quantity(self.value * _unit(self.unit)[1] / factor, unit)

    @property
    def au(self) -> float:
        """Value in the atomic-unit base of this dimension."""
        return self.value * _unit(self.unit)[1]

    def __repr__(self):
        return f"{self.value:.12g} {self.unit}".rstrip()


def intensity_to_field(intensity: Quantity) -> Quantity:
    """Peak field E0 = sqrt(8*pi*I/c) in a.u. (Gaussian cycle-peak convention).

    Reproduces the 1e14 W/cm^2 <-> 0.053 a.u. pairing.
    """
    if intensity.dimension != INTENSITY:
        raise DimensionError(f"expected intensity, got {intensity.dimension}")
    i_au = intensity.au
    if i_au < 0:
        raise ValueError(f"negative intensity: {intensity}")
    return Quantity(math.sqrt(8.0 * math.pi * i_au / C_AU), "au_field")


def photon_flux_density(intensity: Quantity, photon_energy: Quantity) -> float:
    """Per-area photon flux J = I/(hbar*omega), in photons cm^-2 s^-1."""
    i_wcm2 = intensity.to("W/cm^2").value
    e_j = photon_energy.to("J").value
    if i_wcm2 < 0 or e_j <= 0:
        raise ValueError("intensity must be >= 0 and photon energy > 0")
    return i_wcm2 / e_j


def photon_flux(
    intensity: Quantity, photon_energy: Quantity, spot_diameter: Quantity
) -> Quantity:
    """Photons per second through a focal spot of the given diameter."""
    d_cm = spot_diameter.to("cm").value
    if d_cm <= 0:
        raise ValueError("spot diameter must be positive")
    area = math.pi * d_cm**2 / 4.0
    return Quantity(photon_flux_density(intensity, photon_energy) * area, "1/s")


def number_density(pressure_bar: float, temperature_k: float = 293.0) -> float:
    """Gas number density in cm^-3: the calibrated benchmark 1e19 cm^-3 at
    (1 bar, 293 K), scaled linearly in P and inversely in T."""
    if pressure_bar < 0 or temperature_k <= 0:
        raise ValueError("need pressure >= 0 and temperature > 0")
    return DENSITY_1BAR_293K_CM3 * pressure_bar * (293.0 / temperature_k)


def atoms_in_focal_volume(
    pressure_bar: float,
    temperature_k: float,
    spot_diameter: Quantity,
    path_length: Quantity,
) -> float:
    """Atom count in the cylindrical focal volume pi*(d/2)^2 * L."""
    d_cm = spot_diameter.to("cm").value
    l_cm = path_length.to("cm").value
    if d_cm <= 0 or l_cm < 0:
        raise ValueError("need spot diameter > 0 and path length >= 0")
    volume = math.pi * (d_cm / 2.0) ** 2 * l_cm
    return number_density(pressure_bar, temperature_k) * volume
