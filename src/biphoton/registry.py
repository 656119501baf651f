"""Per-species atomic data registry.

The one shipped record, helium's, is a constant of this module holding the
source's printed values; every record is checked for the level-ordering
invariants when it is built.  Helium-like ions are synthesized on demand from
the helium record by screened hydrogenic scaling: the 1s->2s gap is modeled
as (3/8)*(Z - sigma)^2 hartree with the screening constant fixed by the
helium gap, and the two-photon lifetime scales with the sixth power of the
effective charge.
"""

from __future__ import annotations

import math
import re
import types
from dataclasses import dataclass

from .units import HARTREE_EV, Quantity

__all__ = ["SpeciesData", "SpeciesNotFound", "species", "default_registry"]

_HE_LIKE = re.compile(r"^He-like\(Z=(\d+)\)$")
# The largest He-like Z: the scaling is non-relativistic, and the relativistic
# corrections it leaves out grow as (Z alpha)^2, which passes 5% above Z = 30
# ((30/137.036)^2 = 0.048).
_MAX_HE_LIKE_Z = 30


class SpeciesNotFound(KeyError):
    """Unknown species name; prints its message as is (KeyError quotes it)."""

    __str__ = Exception.__str__


@dataclass(frozen=True)
class SpeciesData:
    """Atomic inputs for one emitter species.  Only ``d4_eg`` may be None."""

    name: str
    delta_eg: Quantity          # E(1s2s) - E(1s^2), in eV
    e_2p: Quantity              # E(1s2p) - E(1s^2), in eV
    f_g2p: float                # oscillator strength 1s^2 -> 1s2p
    f_2p2s: float               # oscillator strength 1s2p -> 1s2s (negative: downward)
    d4_eg: float | None         # four-photon matrix element, a.u.
    lifetime_2s: Quantity       # in s
    z: int

    def __post_init__(self):
        if not self.delta_eg.au > 0:
            raise ValueError(f"{self.name}: delta_eg must be positive")
        if not self.delta_eg.au < self.e_2p.au:
            raise ValueError(f"{self.name}: expected delta_eg < e_2p")
        if self.d4_eg is not None and not self.d4_eg > 0:
            raise ValueError(f"{self.name}: d4_eg must be positive")
        if not self.lifetime_2s.au > 0:
            raise ValueError(f"{self.name}: lifetime_2s must be positive")

    @property
    def delta_ej(self) -> Quantity:
        """E(1s2s) - E(1s2p); negative for helium."""
        return Quantity(self.delta_eg.value - self.e_2p.value, "eV")


# name -> shipped record, read-only: helium's printed levels, oscillator
# strengths, four-photon element and 2s lifetime
_SHIPPED = types.MappingProxyType({"He": SpeciesData(
    name="He",
    delta_eg=Quantity(20.62, "eV"),
    e_2p=Quantity(21.22, "eV"),
    f_g2p=0.28,
    f_2p2s=-0.36,
    d4_eg=149.0,
    lifetime_2s=Quantity(0.0197, "s"),
    z=2,
)})


def default_registry() -> types.MappingProxyType[str, SpeciesData]:
    """The shipped species records by name, read-only; the same object on
    every call."""
    return _SHIPPED


def _he_like(z: int) -> SpeciesData:
    he = _SHIPPED["He"]
    # screening constant from the helium 1s2s-1s^2 gap
    sigma = he.z - math.sqrt(he.delta_eg.au / 0.375)
    zeff = z - sigma
    zeff_he = he.z - sigma
    return SpeciesData(
        name=f"He-like(Z={z})",
        delta_eg=Quantity(0.375 * zeff**2 * HARTREE_EV, "eV"),
        e_2p=Quantity(he.e_2p.au * (zeff / zeff_he) ** 2 * HARTREE_EV, "eV"),
        f_g2p=he.f_g2p,
        f_2p2s=he.f_2p2s,
        d4_eg=None,
        lifetime_2s=Quantity(he.lifetime_2s.value * (zeff_he / zeff) ** 6, "s"),
        z=z,
    )


def species(name: str) -> SpeciesData:
    """A shipped species by name, or ``He-like(Z=n)`` scaled from helium."""
    if name in _SHIPPED:
        return _SHIPPED[name]
    m = _HE_LIKE.match(name)
    if m:
        z = int(m.group(1))
        if z < 2:
            raise SpeciesNotFound(f"He-like requires Z >= 2, got {z}")
        if z > _MAX_HE_LIKE_Z:
            raise SpeciesNotFound(
                f"He-like requires Z <= {_MAX_HE_LIKE_Z}, got {z}: the scaling is "
                "non-relativistic, and (Z alpha)^2 passes 5% above that")
        return _SHIPPED["He"] if z == 2 else _he_like(z)
    raise SpeciesNotFound(
        f"unknown species {name!r}; available: {sorted(_SHIPPED) + ['He-like(Z=n)']}"
    )
