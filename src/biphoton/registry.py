"""Per-species atomic data registry.

Entries ship as a versioned JSON file next to this module; each entry is
checked for unknown keys and for the level-ordering invariants.  Helium-like
ions are synthesized on demand from the helium entry by screened hydrogenic
scaling: the 1s->2s gap is modeled as (3/8)*(Z - sigma)^2 hartree with the
screening constant fixed by the helium gap, and the two-photon lifetime scales
with the sixth power of the effective charge.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources

from .units import HARTREE_EV, Quantity

__all__ = ["SpeciesData", "SpeciesNotFound", "Registry", "species", "default_registry"]

_HE_LIKE = re.compile(r"^He-like\(Z=(\d+)\)$")


class SpeciesNotFound(KeyError):
    """Unknown species name; prints its message as is (KeyError quotes it)."""

    __str__ = Exception.__str__


@dataclass(frozen=True)
class SpeciesData:
    """Atomic inputs for one emitter species.  All optional fields may be None."""

    name: str
    delta_eg: Quantity          # E(1s2s) - E(1s^2), in eV
    e_2p: Quantity              # E(1s2p) - E(1s^2), in eV
    f_g2p: float                # oscillator strength 1s^2 -> 1s2p
    f_2p2s: float               # oscillator strength 1s2p -> 1s2s (negative: downward)
    d4_eg: float | None         # four-photon matrix element, a.u.
    lifetime_2s: Quantity | None   # in s
    z: int

    def __post_init__(self):
        if not self.delta_eg.au > 0:
            raise ValueError(f"{self.name}: delta_eg must be positive")
        if not self.delta_eg.au < self.e_2p.au:
            raise ValueError(f"{self.name}: expected delta_eg < e_2p")
        if self.d4_eg is not None and not self.d4_eg > 0:
            raise ValueError(f"{self.name}: d4_eg must be positive")
        if self.lifetime_2s is not None and not self.lifetime_2s.au > 0:
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
        lifetime_2s=(
            Quantity(raw["lifetime_2s_s"], "s") if raw.get("lifetime_2s_s") else None
        ),
        z=raw["z"],
    )


class Registry:
    def __init__(self, entries: dict[str, SpeciesData]):
        self._entries = dict(entries)
        he = self._entries["He"]
        # screening constant from the helium 1s2s-1s^2 gap
        self._sigma = he.z - math.sqrt(he.delta_eg.au / 0.375)

    @classmethod
    def builtin(cls) -> "Registry":
        raw = json.loads(
            resources.files("biphoton").joinpath("data/species.json").read_text()
        )
        return cls({k: _entry_to_species(k, v) for k, v in raw["species"].items()})

    def names(self) -> list[str]:
        return sorted(self._entries) + ["He-like(Z=n)"]

    def _he_like(self, z: int) -> SpeciesData:
        he = self._entries["He"]
        zeff = z - self._sigma
        zeff_he = he.z - self._sigma
        scale = (zeff / zeff_he) ** 2
        lifetime = None
        if he.lifetime_2s is not None:
            lifetime = Quantity(he.lifetime_2s.value * (zeff_he / zeff) ** 6, "s")
        return SpeciesData(
            name=f"He-like(Z={z})",
            delta_eg=Quantity(0.375 * zeff**2 * HARTREE_EV, "eV"),
            e_2p=Quantity(he.e_2p.au * scale * HARTREE_EV, "eV"),
            f_g2p=he.f_g2p,
            f_2p2s=he.f_2p2s,
            d4_eg=None,
            lifetime_2s=lifetime,
            z=z,
        )

    def species(self, name: str) -> SpeciesData:
        if name in self._entries:
            return self._entries[name]
        m = _HE_LIKE.match(name)
        if m:
            z = int(m.group(1))
            if z < 2:
                raise SpeciesNotFound(f"He-like requires Z >= 2, got {z}")
            if z == 2:
                return self._entries["He"]
            return self._he_like(z)
        raise SpeciesNotFound(
            f"unknown species {name!r}; available: {self.names()}"
        )


_DEFAULT: Registry | None = None


def default_registry() -> Registry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Registry.builtin()
    return _DEFAULT


def species(name: str) -> SpeciesData:
    """Look up a species in the built-in registry."""
    return default_registry().species(name)
