import pytest

from biphoton.units import (
    EV,
    MM,
    S,
    UM,
    W_CM2,
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
        assert 20.62 * EV == pytest.approx(20.62 / 27.211386245988, rel=1e-12)
        assert 20.62 * EV == pytest.approx(0.7578, rel=1e-4)
        assert Quantity(20.62, "eV").au == 20.62 * EV

    def test_seconds_to_au(self):
        assert 1.93e-16 * S == pytest.approx(7.98, rel=1e-3)
        assert Quantity(1.93e-16, "s").au == 1.93e-16 * S

    def test_unknown_unit_raises(self):
        with pytest.raises(UnknownUnitError):
            Quantity(1.0, "furlong")


class TestIntensityToField:
    def test_reference_pairing(self):
        assert intensity_to_field(1e14 * W_CM2) == pytest.approx(0.053, rel=0.02)

    def test_zero(self):
        assert intensity_to_field(0.0) == 0.0

    def test_sqrt_scaling(self):
        e1 = intensity_to_field(1e14 * W_CM2)
        e4 = intensity_to_field(4e14 * W_CM2)
        assert e4 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            intensity_to_field(-1.0 * W_CM2)


class TestPhotonFlux:
    def test_240nm_reference(self):
        flux = photon_flux(1e14 * W_CM2, 5.155 * EV, 100.0 * UM)
        assert flux == pytest.approx(1e28, rel=0.2)

    def test_area_scaling(self):
        f1 = photon_flux(1e14 * W_CM2, 5.155 * EV, 100.0 * UM)
        f2 = photon_flux(1e14 * W_CM2, 5.155 * EV, 200.0 * UM)
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)

    def test_flux_density(self):
        j = photon_flux_density(1e14 * W_CM2, 5.155 * EV)
        assert j == pytest.approx(1e14 / (5.155 * 1.602176634e-19), rel=1e-12)


class TestDensityAndAtoms:
    def test_benchmark_density(self):
        assert number_density(1.0, 293.0) == pytest.approx(1e19, rel=1e-12)

    def test_focal_volume_reference(self):
        n = atoms_in_focal_volume(1.0, 293.0, 100.0 * UM, 1.0 * MM)
        assert n == pytest.approx(7.8e13, rel=0.10)

    def test_linear_in_path(self):
        n1 = atoms_in_focal_volume(1.0, 293.0, 100.0 * UM, 1.0 * MM)
        n2 = atoms_in_focal_volume(1.0, 293.0, 100.0 * UM, 2.0 * MM)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)

    def test_zero_path(self):
        assert atoms_in_focal_volume(1.0, 293.0, 100.0 * UM, 0.0) == 0.0
