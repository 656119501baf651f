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
        sigma = default_registry()._sigma
        lam = (10 - sigma) / (2 - sigma)
        ratio = he.lifetime_2s.value / ne.lifetime_2s.value
        assert ratio == pytest.approx(lam**6, rel=1e-12)

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


class TestUserOverlay:
    """The checks every species entry passes, those of the shipped
    ``species.json`` included."""

    ENTRY = {"delta_eg_ev": 20.0, "e_2p_ev": 21.0, "f_g2p": 0.3,
             "f_2p2s": -0.3, "z": 2}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="typo_field"):
            _entry_to_species("X", {**self.ENTRY, "typo_field": 1})

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="delta_eg < e_2p"):
            _entry_to_species("X", {**self.ENTRY, "delta_eg_ev": 22.0})
