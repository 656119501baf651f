import math

import pytest

from biphoton.registry import species
from biphoton.reporting import Scenario, SchemaError, bundled_scenario_path
from biphoton.schemes import (
    NonFiniteRateError,
    RateReport,
    ReportEntry,
    SCHEMES,
    absorption_coefficient,
    attenuation_fraction,
    biphoton_rate_narrowband,
    biphoton_rate_sequential,
    collection_fraction,
    etpa_ion_rate,
    four_photon_rabi,
    four_photon_rate,
    four_photon_rate_broadband,
    lz_integral,
    one_photon_rate,
    r_trans,
    scrap_biphoton_rate,
    scrap_transfer_probability,
    steady_state_fraction,
)
from biphoton.spectrum import hydrogenic_scaled, provider_pole, spectral_amplitude
from biphoton.units import AU_TIME_S, CM, EV, FS, MM, PER_S, S, W_CM2, intensity_to_field
from conftest import lz_leakage_rate

HE = species("He")
I_REF = 1e14 * W_CM2


class TestFourPhoton:
    def test_rabi_reference(self):
        w4 = four_photon_rabi(HE, field_au=intensity_to_field(I_REF))
        assert w4 == pytest.approx(7.56e-5, rel=0.01)
        # budget convention: ordinary frequency 2*pi*Omega_au/t_au ~ 1.9e13 /s
        assert 2.0 * math.pi * w4 / AU_TIME_S == pytest.approx(1.9e13, rel=0.05)

    def test_rabi_from_field(self):
        w4 = four_photon_rabi(HE, field_au=0.053)
        assert w4 == pytest.approx((0.053 / 2.0) ** 4 * 149.0, rel=1e-12)

    def test_rate_reference(self):
        r4 = four_photon_rate(HE, field_au=intensity_to_field(I_REF))
        assert r4 / PER_S == pytest.approx(1.485e9, rel=0.01)

    def test_rate_scales_as_intensity_fourth(self):
        r1 = four_photon_rate(HE, field_au=intensity_to_field(I_REF))
        r2 = four_photon_rate(HE, field_au=intensity_to_field(2e14 * W_CM2))
        assert r2 / r1 == pytest.approx(16.0, rel=1e-10)


class TestAttenuation:
    def test_alpha_formula(self):
        alpha = absorption_coefficient(4, 1.485e9 * PER_S, 1e19, I_REF, 5.155 * EV)
        assert alpha == pytest.approx(4.906e-46, rel=0.01)

    def test_one_photon_limit(self):
        frac = attenuation_fraction(I_REF, 1.0, 1.0 * CM, 1)
        assert frac == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_bounds(self):
        frac = attenuation_fraction(I_REF, 4.9e-46, 1.0 * MM, 4)
        assert 0.0 < frac < 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            attenuation_fraction(I_REF, -1.0, 1.0 * MM, 4)
        with pytest.raises(ValueError):
            absorption_coefficient(0, 1.0 * PER_S, 1e19, I_REF, 5.155 * EV)
        for intensity in (0.0, -I_REF):
            with pytest.raises(ValueError, match="intensity must be > 0"):
                absorption_coefficient(4, 1.0 * PER_S, 1e19, intensity, 5.155 * EV)


class TestNarrowband:
    def test_budget(self):
        rep = biphoton_rate_narrowband(SCHEMES["narrowband-4photon"].config(), HE)
        assert rep.final_rate.value == pytest.approx(1.166e23, rel=0.01)
        assert rep.steps["pump_photon_flux"].value == pytest.approx(9.51e27, rel=0.01)
        assert rep.steps["absorbed_fraction"].value == pytest.approx(4.906e-5, rel=0.01)

    def test_scheme_mismatch(self):
        # a narrowband scenario cannot carry the sequential scheme's inputs
        with pytest.raises(SchemaError, match=r"\$\.schemes\.narrowband-4photon"):
            Scenario.from_dict({"schemes": {"narrowband-4photon": {"tau_2p_ns": 2.0}}})


class TestBroadband:
    CFG = SCHEMES["broadband-4photon"].config()

    def test_budget(self):
        rep = four_photon_rate_broadband(self.CFG, HE)
        assert rep.final_rate.value == pytest.approx(1.184e12, rel=0.01)
        assert rep.steps["transition_linewidth"].value == pytest.approx(
            1.0 / 0.0197, rel=1e-6)


class TestSequential:
    def test_budget(self):
        rep = biphoton_rate_sequential(SCHEMES["sequential"].config(), HE)
        assert rep.steps["lamp_rate_r1"].value == pytest.approx(3.83e9, rel=0.01)
        assert rep.steps["steady_state_fraction"].value == pytest.approx(0.470, rel=0.01)
        assert rep.steps["laser_step_saturated"].value == 1.0
        assert rep.final_rate.value == pytest.approx(3.692e13, rel=0.01)
        assert "excited-inventory" in rep.final_rate.provenance

    def test_one_photon_rate_scaling(self):
        kw = dict(photon_energy_au=21.22 * EV, lineshape_factor_au=100.0)
        r1 = one_photon_rate(0.28, 34.0 * W_CM2, **kw)
        r2 = one_photon_rate(0.28, 68.0 * W_CM2, **kw)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-10)

    def test_steady_state_limits(self):
        assert steady_state_fraction(0.0, 1.0 * S) == 0.0
        big = steady_state_fraction(1e30 * PER_S, 1.0 * S)
        assert big == pytest.approx(0.5, rel=1e-10)


class TestScrap:
    CFG = SCHEMES["scrap"].config()

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
        tau_s = 50e-15
        at0 = lz_leakage_rate(0.0, 2e13, 8.8e12, tau_s)
        off = lz_leakage_rate(25e-15, 2e13, 8.8e12, tau_s)
        assert at0 > off

    def test_lz_integral_windows(self):
        tau_s = 50.0 * FS / S
        ramp = lz_integral(2e13, 8.8e12, tau_s, window="ramp")
        cent = lz_integral(2e13, 8.8e12, tau_s, window="centered")
        assert cent > ramp > 0
        with pytest.raises(ValueError):
            lz_integral(2e13, 8.8e12, tau_s, window="sideways")


class TestEtpa:
    def test_budget(self):
        rep = etpa_ion_rate(SCHEMES["etpa"].config())
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
        prov = spectral_amplitude(provider_pole(HE))
        r1 = r_trans(1.0, 0.05, HE, prov)
        r2 = r_trans(1.0, 0.10, HE, prov)
        assert r2 / r1 == pytest.approx(256.0, rel=1e-10)

    def test_theta_squared_scaling(self):
        prov = spectral_amplitude(provider_pole(HE))
        r1 = r_trans(1.0, 0.05, HE, prov)
        r2 = r_trans(3.0, 0.05, HE, prov)
        assert r2 / r1 == pytest.approx(9.0, rel=1e-10)

    def test_reference_magnitude(self):
        rt = r_trans(1.0, 0.053, HE, spectral_amplitude(provider_pole(HE)))
        assert rt / PER_S == pytest.approx(2.63e-22, rel=0.01)

    def test_gap_mismatch_rejected(self):
        scaled = spectral_amplitude(hydrogenic_scaled(provider_pole(HE), 2.0))
        with pytest.raises(ValueError, match="level gap"):
            r_trans(1.0, 0.05, HE, scaled)


class TestReportSerialization:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_step_is_rejected(self, value):
        with pytest.raises(NonFiniteRateError,
                           match="etpa: step 'sigma_e' is not finite") as info:
            RateReport(scheme="etpa", final_rate=ReportEntry(1.0, "1/s", ""),
                       steps={"sigma_e": ReportEntry(value, "cm^2", "")})
        assert isinstance(info.value, ArithmeticError)

    def test_overflowing_runner_is_rejected(self):
        config = SCHEMES["scrap"].config(n_atoms=1e300, repetition_rate_hz=1e300)
        with pytest.raises(NonFiniteRateError, match="scrap: step 'final_rate'"):
            scrap_biphoton_rate(config, HE)

    def test_config_validation(self):
        with pytest.raises(SchemaError, match="unknown scheme"):
            Scenario.from_dict({"schemes": {"telepathy": {}}})
        with pytest.raises(SchemaError,
                           match=r"\$\.schemes\.etpa: unknown key.*'bandwidth_hz'"):
            Scenario.from_dict({"schemes": {"etpa": {"bandwidth_hz": 1e12}}})
        with pytest.raises(ValueError, match=r"excitation_fraction must be in \[0, 1\]"):
            SCHEMES["scrap"].config(excitation_fraction=1.5)


class TestSchemeInputs:
    def test_defaults_are_the_bundled_scenario(self):
        scenario = Scenario.from_file(bundled_scenario_path())
        # every section's defaults, not only the schemes'
        assert scenario == Scenario.from_dict({})
        # no n_omega, or null: the spectrum grid is sized by its error
        assert scenario.n_omega is None
        assert Scenario.from_dict({"spectrum": {"n_omega": None}}) == scenario
        for scheme, entry in SCHEMES.items():
            assert scenario.configs[scheme] == entry.config()

    def test_unknown_key_names_the_allowed_keys(self):
        # the narrowband runner reads no tau_2p_ns, so setting it is an error
        allowed = sorted(SCHEMES["narrowband-4photon"].defaults)
        with pytest.raises(ValueError) as info:
            SCHEMES["narrowband-4photon"].config(tau_2p_ns=99.0)
        assert str(info.value) == f"unknown key(s) ['tau_2p_ns']; allowed: {allowed}"

    @pytest.mark.parametrize("scheme, key, value", [
        ("narrowband-4photon", "intensity_wcm2", 0.0),
        ("scrap", "intensity_wcm2", math.nan),
        ("broadband-4photon", "bandwidth_hz", -5e12),
        ("etpa", "molecules", math.inf),
        ("scrap", "n_atoms", None),
        ("scrap", "excitation_fraction", math.nan),
        # a bool or a string is no number, and fails the same check
        ("etpa", "molecules", True),
        ("etpa", "molecules", "x"),
    ])
    def test_out_of_range_value_names_the_key(self, scheme, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            SCHEMES[scheme].config(**{key: value})
