"""Per-species atomic data registry.

Entries ship as a versioned JSON file next to this module; each entry is
checked for unknown keys and for the level-ordering invariants.  Helium-like
ions are synthesized on demand from the helium entry by screened hydrogenic
scaling: the 1s->2s gap is modeled as (3/8)*(Z - sigma)^2 hartree with the
screening constant fixed by the helium gap, and the two-photon lifetime scales
with the sixth power of the effective charge.
"""

from __future__ import annotations

import functools
import json
import math
import re
import types
from dataclasses import dataclass
from importlib import resources

from .units import HARTREE_EV, Quantity

__all__ = ["SpeciesData", "SpeciesNotFound", "species", "default_registry"]

_HE_LIKE = re.compile(r"^He-like\(Z=(\d+)\)$")


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


def _entry_to_species(name: str, raw: dict) -> SpeciesData:
    known = {"delta_eg_ev", "e_2p_ev", "f_g2p", "f_2p2s", "d4_eg_au", "lifetime_2s_s", "z"}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"species {name!r}: unknown keys {sorted(extra)}")
    return SpeciesData(
        name=name,
        delta_eg=Quantity(raw["delta_eg_ev"], "eV"),
        e_2p=Quantity(raw["e_2p_ev"], "eV"),
        f_g2p=raw["f_g2p"],
        f_2p2s=raw["f_2p2s"],
        d4_eg=raw.get("d4_eg_au"),
        lifetime_2s=Quantity(raw["lifetime_2s_s"], "s"),
        z=raw["z"],
    )


@functools.cache
def default_registry() -> types.MappingProxyType[str, SpeciesData]:
    """The shipped species records by name, read-only; loaded once per process."""
    raw = json.loads(
        resources.files("biphoton").joinpath("data/species.json").read_text()
    )
    return types.MappingProxyType(
        {k: _entry_to_species(k, v) for k, v in raw["species"].items()})


def _he_like(z: int) -> SpeciesData:
    he = default_registry()["He"]
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
    shipped = default_registry()
    if name in shipped:
        return shipped[name]
    m = _HE_LIKE.match(name)
    if m:
        z = int(m.group(1))
        if z < 2:
            raise SpeciesNotFound(f"He-like requires Z >= 2, got {z}")
        return shipped["He"] if z == 2 else _he_like(z)
    raise SpeciesNotFound(
        f"unknown species {name!r}; available: {sorted(shipped) + ['He-like(Z=n)']}"
    )
