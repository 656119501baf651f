import math

import pytest

from biphoton.registry import (
    SpeciesNotFound,
    _entry_to_species,
    default_registry,
    species,
)


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

    def test_unknown_lists_names(self):
        with pytest.raises(SpeciesNotFound) as err:
            species("Xe")
        assert "He" in str(err.value)
        # printed as is, not quoted the way KeyError prints its key
        assert str(err.value).startswith("unknown species 'Xe'; available: [")


class TestDefaultRegistry:
    def test_loaded_once_and_read_only(self):
        shipped = default_registry()
        assert shipped is default_registry()
        assert list(shipped) == ["He"]
        with pytest.raises(TypeError):
            shipped["He"] = None
        assert species("He") is shipped["He"]


class TestUserOverlay:
    """The checks every species entry passes, those of the shipped
    ``species.json`` included."""

    ENTRY = {"delta_eg_ev": 20.0, "e_2p_ev": 21.0, "f_g2p": 0.3,
             "f_2p2s": -0.3, "lifetime_2s_s": 0.02, "z": 2}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="typo_field"):
            _entry_to_species("X", {**self.ENTRY, "typo_field": 1})

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="delta_eg < e_2p"):
            _entry_to_species("X", {**self.ENTRY, "delta_eg_ev": 22.0})
        with pytest.raises(ValueError, match="lifetime_2s must be positive"):
            _entry_to_species("X", {**self.ENTRY, "lifetime_2s_s": 0.0})
