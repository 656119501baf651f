import math

import pytest

from biphoton.registry import species
from biphoton.schemes import (
    RateReport,
    SchemeConfig,
    absorption_coefficient,
    attenuation_fraction,
    biphoton_rate_narrowband,
    biphoton_rate_sequential,
    collection_fraction,
    etpa_ion_rate,
    four_photon_rabi,
    four_photon_rate,
    four_photon_rate_broadband,
    he_absorber,
    lz_integral,
    lz_leakage_rate,
    one_photon_rate,
    r_trans,
    scrap_biphoton_rate,
    scrap_transfer_probability,
    steady_state_fraction,
)
from biphoton.spectrum import hydrogenic_scaled, provider_pole, spectral_amplitude
from biphoton.units import AU_TIME_S, Quantity

HE = species("He")
I_REF = Quantity(1e14, "W/cm^2")


class TestFourPhoton:
    def test_rabi_reference(self):
        w4 = four_photon_rabi(HE, intensity=I_REF)
        assert w4.au == pytest.approx(7.56e-5, rel=0.01)
        # budget convention: ordinary frequency 2*pi*Omega_au/t_au ~ 1.9e13 /s
        assert 2.0 * math.pi * w4.au / AU_TIME_S == pytest.approx(1.9e13, rel=0.05)

    def test_rabi_from_field(self):
        w4 = four_photon_rabi(HE, field=Quantity(0.053, "au_field"))
        assert w4.au == pytest.approx((0.053 / 2.0) ** 4 * 149.0, rel=1e-12)

    def test_exactly_one_drive_argument(self):
        with pytest.raises(ValueError):
            four_photon_rabi(HE)
        with pytest.raises(ValueError):
            four_photon_rabi(HE, intensity=I_REF, field=Quantity(0.05, "au_field"))

    def test_rate_reference(self):
        r4 = four_photon_rate(HE, intensity=I_REF)
        assert r4.to("1/s").value == pytest.approx(1.485e9, rel=0.01)

    def test_rate_scales_as_intensity_fourth(self):
        r1 = four_photon_rate(HE, intensity=I_REF).value
        r2 = four_photon_rate(HE, intensity=Quantity(2e14, "W/cm^2")).value
        assert r2 / r1 == pytest.approx(16.0, rel=1e-10)


class TestAttenuation:
    def test_alpha_formula(self):
        alpha = absorption_coefficient(4, Quantity(1.485e9, "1/s"), 1e19,
                                       I_REF, Quantity(5.155, "eV"))
        assert alpha == pytest.approx(4.906e-46, rel=0.01)

    def test_one_photon_limit(self):
        frac = attenuation_fraction(I_REF, 1.0, Quantity(1.0, "cm"), 1)
        assert frac == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_bounds(self):
        frac = attenuation_fraction(I_REF, 4.9e-46, Quantity(1.0, "mm"), 4)
        assert 0.0 < frac < 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            attenuation_fraction(I_REF, -1.0, Quantity(1.0, "mm"), 4)
        with pytest.raises(ValueError):
            absorption_coefficient(0, Quantity(1.0, "1/s"), 1e19, I_REF,
                                   Quantity(5.155, "eV"))


class TestNarrowband:
    def test_budget(self):
        rep = biphoton_rate_narrowband(SchemeConfig(scheme="narrowband-4photon"), HE)
        assert rep.final_rate.value == pytest.approx(1.166e23, rel=0.01)
        assert rep.steps["pump_photon_flux"].value == pytest.approx(9.51e27, rel=0.01)
        assert rep.steps["absorbed_fraction"].value == pytest.approx(4.906e-5, rel=0.01)

    def test_scheme_mismatch(self):
        cfg = SchemeConfig(scheme="sequential")
        with pytest.raises(ValueError):
            biphoton_rate_narrowband(cfg, HE)


class TestBroadband:
    CFG = SchemeConfig(scheme="broadband-4photon", bandwidth=Quantity(5e12, "Hz"))

    def test_budget(self):
        rep = four_photon_rate_broadband(self.CFG, HE)
        assert rep.final_rate.value == pytest.approx(1.184e12, rel=0.01)
        assert rep.steps["transition_linewidth"].value == pytest.approx(
            1.0 / 0.0197, rel=1e-6)

    def test_gaussian_peak_density_ratio(self):
        import dataclasses
        g = dataclasses.replace(self.CFG, density_model="gaussian")
        flat = four_photon_rate_broadband(self.CFG, HE).final_rate.value
        gauss = four_photon_rate_broadband(g, HE).final_rate.value
        # equal-FWHM Gaussian peak density is sqrt(4 ln2 / pi)/FWHM ~ 0.939/FWHM
        assert gauss / flat == pytest.approx(
            math.sqrt(4.0 * math.log(2.0) / math.pi), rel=1e-9)

    def test_bandwidth_required(self):
        with pytest.raises(ValueError, match="bandwidth"):
            SchemeConfig(scheme="broadband-4photon")


class TestSequential:
    def test_budget(self):
        rep = biphoton_rate_sequential(SchemeConfig(scheme="sequential"), HE)
        assert rep.steps["lamp_rate_r1"].value == pytest.approx(3.83e9, rel=0.01)
        assert rep.steps["steady_state_fraction"].value == pytest.approx(0.470, rel=0.01)
        assert rep.steps["laser_step_saturated"].value == 1.0
        assert rep.final_rate.value == pytest.approx(3.692e13, rel=0.01)
        assert "excited-inventory" in rep.final_rate.provenance

    def test_one_photon_rate_scaling(self):
        kw = dict(photon_energy=Quantity(21.22, "eV"), lineshape_factor_au=100.0)
        r1 = one_photon_rate(0.28, Quantity(34.0, "W/cm^2"), **kw).value
        r2 = one_photon_rate(0.28, Quantity(68.0, "W/cm^2"), **kw).value
        assert r2 / r1 == pytest.approx(2.0, rel=1e-10)

    def test_steady_state_limits(self):
        assert steady_state_fraction(Quantity(0.0, "1/s"), Quantity(1.0, "s")) == 0.0
        big = steady_state_fraction(Quantity(1e30, "1/s"), Quantity(1.0, "s"))
        assert big == pytest.approx(0.5, rel=1e-10)


class TestScrap:
    CFG = SchemeConfig(scheme="scrap", bandwidth=Quantity(8.8e12, "Hz"), n_atoms=1e13)

    def test_transfer_probability(self):
        res = scrap_transfer_probability(self.CFG, HE)
        assert res.exponent == pytest.approx(6.27, rel=0.01)
        assert res.exponent_other_window == pytest.approx(10.76, rel=0.01)
        assert res.probability > 0.99
        assert res.probability_other_window > 0.99

    def test_rate(self):
        rep = scrap_biphoton_rate(self.CFG, HE)
        assert rep.final_rate.value == pytest.approx(1e16, rel=1e-9)

    def test_lz_leakage_rate_peak_at_resonance(self):
        tau = Quantity(50.0, "fs")
        at0 = lz_leakage_rate(Quantity(0.0, "s"), 2e13, 8.8e12, tau)
        off = lz_leakage_rate(Quantity(25.0, "fs"), 2e13, 8.8e12, tau)
        assert at0 > off

    def test_lz_integral_windows(self):
        ramp = lz_integral(2e13, 8.8e12, Quantity(50.0, "fs"), window="ramp")
        cent = lz_integral(2e13, 8.8e12, Quantity(50.0, "fs"), window="centered")
        assert cent > ramp > 0
        with pytest.raises(ValueError):
            lz_integral(2e13, 8.8e12, Quantity(50.0, "fs"), window="sideways")


class TestEtpa:
    def test_budget(self):
        rep = etpa_ion_rate(SchemeConfig(scheme="etpa"))
        assert rep.steps["sigma_e"].value == pytest.approx(1e-27, rel=1e-9)
        assert rep.steps["per_molecule_rate"].value == pytest.approx(1e-7, rel=1e-9)
        assert rep.final_rate.value == pytest.approx(1e5, rel=1e-9)


class TestCollection:
    def test_reference_value(self):
        assert collection_fraction(0.1) == pytest.approx(1.2592e-2, rel=1e-3)

    def test_limits(self):
        assert collection_fraction(0.0) == 0.0
        assert collection_fraction(1.0) == pytest.approx(1.0, rel=1e-10)

    def test_small_cone_scaling(self):
        f = 1e-4
        assert collection_fraction(f) == pytest.approx(1.5 * f**2, rel=1e-3)

    def test_monotone(self):
        vals = [collection_fraction(f) for f in (0.01, 0.05, 0.1, 0.3, 0.7, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            collection_fraction(1.5)


class TestCavityTransfer:
    def test_field_scaling_e0_eight(self):
        ab = he_absorber(HE)
        prov = spectral_amplitude(provider_pole(HE))
        r1 = r_trans(1.0, Quantity(0.05, "au_field"), HE, prov, ab).value
        r2 = r_trans(1.0, Quantity(0.10, "au_field"), HE, prov, ab).value
        assert r2 / r1 == pytest.approx(256.0, rel=1e-10)

    def test_theta_squared_scaling(self):
        ab = he_absorber(HE)
        prov = spectral_amplitude(provider_pole(HE))
        r1 = r_trans(1.0, Quantity(0.05, "au_field"), HE, prov, ab).value
        r2 = r_trans(3.0, Quantity(0.05, "au_field"), HE, prov, ab).value
        assert r2 / r1 == pytest.approx(9.0, rel=1e-10)

    def test_reference_magnitude(self):
        rt = r_trans(1.0, Quantity(0.053, "au_field"), HE,
                     spectral_amplitude(provider_pole(HE)), he_absorber(HE))
        assert rt.to("1/s").value == pytest.approx(2.63e-22, rel=0.01)

    def test_gap_mismatch_rejected(self):
        scaled = spectral_amplitude(hydrogenic_scaled(provider_pole(HE), 2.0))
        with pytest.raises(ValueError, match="level gap"):
            r_trans(1.0, Quantity(0.05, "au_field"), HE, scaled, he_absorber(HE))


class TestReportSerialization:
    def test_round_trip(self):
        rep = biphoton_rate_narrowband(SchemeConfig(scheme="narrowband-4photon"), HE)
        again = RateReport.from_json(rep.to_json())
        assert again == rep

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeConfig(scheme="telepathy")
        with pytest.raises(ValueError, match="does not take a bandwidth"):
            SchemeConfig(scheme="etpa", bandwidth=Quantity(1e12, "Hz"))
        with pytest.raises(ValueError):
            SchemeConfig(scheme="etpa", excitation_fraction=1.5)
