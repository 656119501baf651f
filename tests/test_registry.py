import dataclasses
import math

import pytest

from biphoton.registry import (
    SpeciesNotFound,
    default_registry,
    species,
)
from biphoton.units import Quantity


class TestHelium:
    def test_reference_values(self):
        he = species("He")
        assert he.delta_eg.value == pytest.approx(20.62)
        assert he.delta_eg.unit == "eV"
        assert he.e_2p.value == pytest.approx(21.22)
        assert he.f_g2p == pytest.approx(0.28)
        assert he.f_2p2s == pytest.approx(-0.36)
        assert he.d4_eg == pytest.approx(149.0)
        assert he.lifetime_2s.value == pytest.approx(0.0197)

    def test_delta_ej_negative(self):
        assert species("He").delta_ej.value == pytest.approx(-0.60, abs=1e-9)

    def test_immutability(self):
        a, b = species("He"), species("He")
        assert a == b
        with pytest.raises(Exception):
            a.f_g2p = 1.0


class TestHeLike:
    def test_z2_is_helium(self):
        assert species("He-like(Z=2)") == species("He")

    def test_neon_gap(self):
        ne = species("He-like(Z=10)")
        assert ne.delta_eg.value == pytest.approx(915.0, rel=0.02)

    def test_lifetime_z6_scaling(self):
        he, ne = species("He"), species("He-like(Z=10)")
        sigma = 2 - math.sqrt(he.delta_eg.au / 0.375)
        lam = (10 - sigma) / (2 - sigma)
        ratio = he.lifetime_2s.value / ne.lifetime_2s.value
        assert ratio == pytest.approx(lam**6, rel=1e-12)

    @pytest.mark.parametrize("z, delta_eg, e_2p, lifetime_2s", [
        (3, 59.83544314820485, 61.57653266755126, 0.0008062257660027316),
        (5, 199.49194849808757, 205.29675786272634, 2.175484995606747e-05),
        (10, 905.782656351387, 932.1390867010876, 2.3241288778812527e-07),
        (20, 3849.0045483948106, 3961.002740879626, 3.028913954770956e-09),
    ], ids=["Z3", "Z5", "Z10", "Z20"])
    def test_records_pinned_bit_for_bit(self, z, delta_eg, e_2p, lifetime_2s):
        ion = species(f"He-like(Z={z})")
        assert (ion.delta_eg.value, ion.e_2p.value, ion.lifetime_2s.value) == (
            delta_eg, e_2p, lifetime_2s)
        assert ion.d4_eg is None

    def test_invalid_z(self):
        with pytest.raises(SpeciesNotFound) as err:
            species("He-like(Z=1)")
        assert str(err.value) == "He-like requires Z >= 2, got 1"

    def test_z_above_the_non_relativistic_range(self):
        assert species("He-like(Z=30)").z == 30
        for z in (31, 1000):
            with pytest.raises(SpeciesNotFound,
                               match=rf"^He-like requires Z <= 30, got {z}: .*alpha"):
                species(f"He-like(Z={z})")

    def test_unknown_lists_names(self):
        with pytest.raises(SpeciesNotFound) as err:
            species("Xe")
        assert "He" in str(err.value)
        # printed as is, not quoted the way KeyError prints its key
        assert str(err.value).startswith("unknown species 'Xe'; available: [")


class TestDefaultRegistry:
    def test_one_read_only_mapping(self):
        shipped = default_registry()
        assert shipped is default_registry()
        assert list(shipped) == ["He"]
        with pytest.raises(TypeError):
            shipped["He"] = None
        assert species("He") is shipped["He"]


class TestSpeciesData:
    """The checks every species record passes, the shipped helium record
    included."""

    def test_invariants_enforced(self):
        he = species("He")
        with pytest.raises(ValueError, match="delta_eg < e_2p"):
            dataclasses.replace(he, delta_eg=Quantity(22.0, "eV"))
        with pytest.raises(ValueError, match="lifetime_2s must be positive"):
            dataclasses.replace(he, lifetime_2s=Quantity(0.0, "s"))
