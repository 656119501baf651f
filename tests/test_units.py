import pytest

from biphoton.units import (
    DimensionError,
    Quantity,
    UnknownUnitError,
    atoms_in_focal_volume,
    intensity_to_field,
    number_density,
    photon_flux,
    photon_flux_density,
)


class TestConvert:
    def test_ev_to_hartree(self):
        q = Quantity(20.62, "eV").to("hartree")
        assert q.value == pytest.approx(20.62 / 27.211386245988, rel=1e-12)
        assert q.value == pytest.approx(0.7578, rel=1e-4)

    def test_identity(self):
        q = Quantity(1.0, "hartree").to("hartree")
        assert q.value == 1.0

    def test_seconds_to_au(self):
        q = Quantity(1.93e-16, "s").to("au_time")
        assert q.value == pytest.approx(7.98, rel=1e-3)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            Quantity(1.0, "eV").to("s")

    def test_unknown_unit_raises(self):
        with pytest.raises(UnknownUnitError):
            Quantity(1.0, "furlong")

    def test_round_trip(self):
        pairs = [("eV", "hartree"), ("s", "au_time"), ("nm", "bohr"),
                 ("W/cm^2", "au_intensity"), ("Hz", "au_frequency"),
                 ("1/s", "au_rate")]
        for a, b in pairs:
            q = Quantity(3.14159, a)
            back = q.to(b).to(a)
            assert back.value == pytest.approx(q.value, rel=1e-12), (a, b)


class TestIntensityToField:
    def test_reference_pairing(self):
        e0 = intensity_to_field(Quantity(1e14, "W/cm^2"))
        assert e0.au == pytest.approx(0.053, rel=0.02)

    def test_zero(self):
        assert intensity_to_field(Quantity(0.0, "W/cm^2")).au == 0.0

    def test_sqrt_scaling(self):
        e1 = intensity_to_field(Quantity(1e14, "W/cm^2")).au
        e4 = intensity_to_field(Quantity(4e14, "W/cm^2")).au
        assert e4 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            intensity_to_field(Quantity(-1.0, "W/cm^2"))


class TestPhotonFlux:
    def test_240nm_reference(self):
        flux = photon_flux(Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"),
                           Quantity(100.0, "um"))
        assert flux.value == pytest.approx(1e28, rel=0.2)

    def test_area_scaling(self):
        f1 = photon_flux(Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"),
                         Quantity(100.0, "um")).value
        f2 = photon_flux(Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"),
                         Quantity(200.0, "um")).value
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)

    def test_flux_density(self):
        j = photon_flux_density(Quantity(1e14, "W/cm^2"), Quantity(5.155, "eV"))
        assert j == pytest.approx(1e14 / (5.155 * 1.602176634e-19), rel=1e-12)


class TestDensityAndAtoms:
    def test_benchmark_density(self):
        assert number_density(1.0, 293.0) == pytest.approx(1e19, rel=1e-12)

    def test_focal_volume_reference(self):
        n = atoms_in_focal_volume(1.0, 293.0, Quantity(100.0, "um"),
                                  Quantity(1.0, "mm"))
        assert n == pytest.approx(7.8e13, rel=0.10)

    def test_linear_in_path(self):
        n1 = atoms_in_focal_volume(1.0, 293.0, Quantity(100.0, "um"),
                                   Quantity(1.0, "mm"))
        n2 = atoms_in_focal_volume(1.0, 293.0, Quantity(100.0, "um"),
                                   Quantity(2.0, "mm"))
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)

    def test_zero_path(self):
        assert atoms_in_focal_volume(1.0, 293.0, Quantity(100.0, "um"),
                                     Quantity(0.0, "mm")) == 0.0
