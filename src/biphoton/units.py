"""Unit constants and the unit conversions at the I/O boundary.

Everything downstream computes in Hartree atomic units; SI shows up only at
the I/O boundary.  A value enters atomic units by multiplication with its
unit constant (``5.155 * EV`` is 5.155 eV in hartree) and leaves them by
division (``e_au / J`` is that energy in joules).  The helpers below take
atomic-unit floats named ``*_au`` and return floats named for their unit.

Conventions
-----------
* Intensity <-> field uses the Gaussian-units, cycle-peak relation
  E0 = sqrt(8*pi*I/c) with the intensity expressed in the Gaussian atomic
  intensity unit (6.436e15 W/cm^2), so ``W_CM2`` is the inverse of that
  unit.  Equivalently E0[a.u.] = sqrt(I / 3.50945e16 W cm^-2).  This
  pairing gives 0.0534 a.u. at 1e14 W/cm^2.  An RMS convention would differ
  by sqrt(2); see README.
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
    "UnknownUnitError",
    "intensity_to_field",
    "photon_flux",
    "photon_flux_density",
    "number_density",
    "atoms_in_focal_volume",
    "HARTREE_EV",
    "AU_TIME_S",
    "C_AU",
    "AU_INTENSITY_WCM2",
    "AU_INTENSITY_GAUSSIAN_WCM2",
    "EV",
    "J",
    "S",
    "FS",
    "NS",
    "CM",
    "MM",
    "UM",
    "W_CM2",
    "PER_S",
]

# CODATA 2018
HARTREE_EV = 27.211386245988          # eV per hartree
HARTREE_J = 4.3597447222071e-18       # J per hartree
AU_TIME_S = 2.4188843265857e-17       # s per a.u. time
C_AU = 137.035999084                  # speed of light, a.u. (1/alpha)
BOHR_M = 5.29177210903e-11

# Intensity at which E0 = 1 a.u. under the SI relation I = eps0*c*E^2/2.
AU_INTENSITY_WCM2 = 3.50944758e16
# Same field point expressed in the Gaussian unit where I = c*E^2/(8*pi):
AU_INTENSITY_GAUSSIAN_WCM2 = 8.0 * math.pi * AU_INTENSITY_WCM2 / C_AU

# Budget-convention gas density benchmark (see module docstring).
DENSITY_1BAR_293K_CM3 = 1.0e19

# One unit in atomic units: x * EV is x eV in hartree, y / EV is y hartree in eV.
EV = 1.0 / HARTREE_EV
J = 1.0 / HARTREE_J
S = 1.0 / AU_TIME_S
FS = 1e-15 / AU_TIME_S
NS = 1e-9 / AU_TIME_S
CM = 1e-2 / BOHR_M
MM = 1e-3 / BOHR_M
UM = 1e-6 / BOHR_M
W_CM2 = 1.0 / AU_INTENSITY_GAUSSIAN_WCM2
PER_S = AU_TIME_S

# the units a Quantity may carry: those the registry and the spectrum hand back
_UNITS = {"eV": EV, "s": S, "1/s": PER_S}


class UnknownUnitError(ValueError):
    """Unit symbol not in the table of ``Quantity`` units."""


@dataclass(frozen=True)
class Quantity:
    """A value labelled with its unit, as the registry and the spectrum hand
    it back; ``.au`` is the value in atomic units."""

    value: float
    unit: str

    def __post_init__(self):
        if self.unit not in _UNITS:
            raise UnknownUnitError(
                f"unknown unit {self.unit!r}; known: {sorted(_UNITS)}")

    @property
    def au(self) -> float:
        return self.value * _UNITS[self.unit]

    def __repr__(self):
        return f"{self.value:.12g} {self.unit}"


def intensity_to_field(intensity_au: float) -> float:
    """Peak field E0 = sqrt(8*pi*I/c) in a.u. (Gaussian cycle-peak convention).

    Reproduces the 1e14 W/cm^2 <-> 0.053 a.u. pairing.
    """
    if intensity_au < 0:
        raise ValueError(f"negative intensity: {intensity_au} a.u.")
    return math.sqrt(8.0 * math.pi * intensity_au / C_AU)


def photon_flux_density(intensity_au: float, photon_energy_au: float) -> float:
    """Per-area photon flux J = I/(hbar*omega), in photons cm^-2 s^-1."""
    i_wcm2 = intensity_au / W_CM2
    e_j = photon_energy_au / J
    if i_wcm2 < 0 or e_j <= 0:
        raise ValueError("intensity must be >= 0 and photon energy > 0")
    return i_wcm2 / e_j


def photon_flux(intensity_au: float, photon_energy_au: float,
                spot_diameter_au: float) -> float:
    """Photons per second through a focal spot of the given diameter."""
    d_cm = spot_diameter_au / CM
    if d_cm <= 0:
        raise ValueError("spot diameter must be positive")
    area = math.pi * d_cm**2 / 4.0
    return photon_flux_density(intensity_au, photon_energy_au) * area


def number_density(pressure_bar: float, temperature_k: float = 293.0) -> float:
    """Gas number density in cm^-3: the calibrated benchmark 1e19 cm^-3 at
    (1 bar, 293 K), scaled linearly in P and inversely in T."""
    if pressure_bar < 0 or temperature_k <= 0:
        raise ValueError("need pressure >= 0 and temperature > 0")
    return DENSITY_1BAR_293K_CM3 * pressure_bar * (293.0 / temperature_k)


def atoms_in_focal_volume(
    pressure_bar: float,
    temperature_k: float,
    spot_diameter_au: float,
    path_length_au: float,
) -> float:
    """Atom count in the cylindrical focal volume pi*(d/2)^2 * L."""
    d_cm = spot_diameter_au / CM
    l_cm = path_length_au / CM
    if d_cm <= 0 or l_cm < 0:
        raise ValueError("need spot diameter > 0 and path length >= 0")
    volume = math.pi * (d_cm / 2.0) ** 2 * l_cm
    return number_density(pressure_bar, temperature_k) * volume
