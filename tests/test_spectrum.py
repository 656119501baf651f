import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from biphoton.registry import species
from biphoton.spectrum import (
    _BLOCK_ROWS,
    PoleChain,
    PoleInGridError,
    UncalibratedProviderError,
    correlation_function,
    correlation_time,
    flat_correlation_closed_form,
    hydrogenic_scaled,
    provider_flat,
    provider_pole,
    spectral_amplitude,
    two_photon_decay_rate,
)
from biphoton.units import AU_TIME_S, C_AU, HARTREE_EV

HE = species("He")


class TestSpectralAmplitude:
    def test_symmetric_about_midpoint(self):
        spec = spectral_amplitude(provider_pole(HE))
        delta = spec.delta_eg_au
        mirrored = spec.provider.chain_sum(delta - spec.omega_au)
        direct = spec.provider.chain_sum(spec.omega_au)
        assert np.allclose(direct, mirrored, rtol=1e-12)

    def test_endpoints_vanish(self):
        """The [w(D-w)]^3 factor kills the amplitude at the first and last
        Gauss-Legendre node (2.4e-17 of the peak at n=2048)."""
        amp = np.abs(spectral_amplitude(provider_pole(HE)).amplitude)
        assert amp[0] <= 1e-15 * amp.max()
        assert amp[-1] <= 1e-15 * amp.max()

    def test_edge_enhancement_vs_flat(self):
        """Near-pole edges are enhanced relative to a flat chain."""
        pole = spectral_amplitude(provider_pole(HE))
        flat = spectral_amplitude(provider_flat(HE))
        ratio = np.abs(pole.amplitude) / np.maximum(np.abs(flat.amplitude), 1e-300)
        mid = ratio[len(ratio) // 2]
        assert ratio[5] > 2.0 * mid
        assert ratio[-6] > 2.0 * mid

    def test_omega_ev_property(self):
        spec = spectral_amplitude(provider_pole(HE), n_points=600)
        assert spec.omega_ev.max() == pytest.approx(
            spec.omega_au.max() * HARTREE_EV, rel=1e-14)

    def test_pole_in_window_rejected(self):
        chain = PoleChain(delta_eg_au=20.62 / HARTREE_EV,
                          terms=((1.0, 10.0 / HARTREE_EV),))
        with pytest.raises(PoleInGridError):
            spectral_amplitude(chain)


class TestCorrelation:
    def test_c0_is_one(self):
        spec = spectral_amplitude(provider_pole(HE))
        series = correlation_function(spec)
        i0 = np.argmin(np.abs(series.t_au))
        assert series.values[i0] == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_hermitian_symmetry(self):
        spec = spectral_amplitude(provider_pole(HE))
        series = correlation_function(spec)
        np.testing.assert_array_equal(series.t_au, -series.t_au[::-1])
        np.testing.assert_array_equal(series.values, np.conj(series.values[::-1]))

    # half grids of B-1, B, B+1 and 2B+1 rows for blocks of B rows, and the
    # two-row half grid of n_t = 2 and 3
    @pytest.mark.parametrize("n_t", [2, 3, 2 * _BLOCK_ROWS - 4, 2 * _BLOCK_ROWS - 2,
                                     2 * _BLOCK_ROWS, 4 * _BLOCK_ROWS])
    def test_block_boundaries_match_direct_transform(self, n_t):
        t_max = 7.3
        spec = spectral_amplitude(provider_pole(HE), n_points=64)
        series = correlation_function(spec, t_max_au=t_max, n_t=n_t)
        m = (n_t | 1) // 2
        exact = [float(Fraction(t_max) * k / m) for k in range(-m, m + 1)]
        np.testing.assert_allclose(series.t_au, exact, rtol=1e-15, atol=0)
        # linspace forms k*step - t_max, which cancels near t = 0, so its
        # values there carry an absolute error of about an ulp of t_max
        np.testing.assert_allclose(series.t_au, np.linspace(-t_max, t_max, n_t | 1),
                                   rtol=1e-15, atol=1e-15 * t_max)
        # bit for bit: a block of one row would take another BLAS path and
        # move the last bit of that row
        wf = spec.weights_au * spec.amplitude
        direct = np.exp(1j * np.outer(series.t_au, spec.omega_au)) @ wf / np.sum(wf)
        np.testing.assert_array_equal(series.values, direct)

    def test_memory_does_not_grow_with_n_t(self):
        """A 65537 x 512 transform, 537 MB as one complex matrix, runs in
        a few MB."""
        spec = spectral_amplitude(provider_pole(HE), n_points=512)
        tracemalloc.start()
        try:
            series = correlation_function(spec, t_max_au=40.0, n_t=65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.t_au.size == 65537
        assert peak < 32 * 2**20

    def test_correlation_time_pinned(self):
        spec = spectral_amplitude(provider_pole(HE))
        tau = correlation_time(correlation_function(spec))
        assert tau.width.value == pytest.approx(2.0057e-16, rel=1e-3)
        assert tau.width.value == pytest.approx(1.93e-16, rel=0.25)

    def test_two_time_points_give_symmetric_grid(self):
        spec = spectral_amplitude(provider_pole(HE), n_points=64)
        series = correlation_function(spec, t_max_au=1.0, n_t=2)
        np.testing.assert_array_equal(series.t_au, [-1.0, 0.0, 1.0])
        assert series.values[1] == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_nyquist_guard(self):
        spec = spectral_amplitude(provider_pole(HE), n_points=600)
        with pytest.raises(ValueError, match="too coarse"):
            correlation_function(spec, t_max_au=5000.0)

    def test_missing_zero_crossing(self):
        spec = spectral_amplitude(provider_pole(HE))
        series = correlation_function(spec, t_max_au=1.0, n_t=257)
        with pytest.raises(ValueError, match="zero crossing"):
            correlation_time(series)

    def test_grid_convergence(self):
        a = correlation_time(correlation_function(
            spectral_amplitude(provider_pole(HE), n_points=1024))).width_au
        b = correlation_time(correlation_function(
            spectral_amplitude(provider_pole(HE), n_points=4096))).width_au
        assert a == pytest.approx(b, rel=1e-6)

    def test_flat_closed_form_matches_mpmath_bessel(self):
        """Against 40-digit e^{iz} Gamma(9/2)(2/z)^(7/2) J_(7/2)(z) on 281
        points of [1e-6, 60], both sides of the z = 2 branch point (delta = 2
        makes z = t).  This form is off by 6.7e-16; scipy's jv was 6.9e-15."""
        z = np.concatenate((np.geomspace(1e-6, 2.0, 81, endpoint=False),
                            np.linspace(2.0, 60.0, 200)))
        with mpmath.workdps(40):
            exact = np.array([complex(mpmath.expj(x) * mpmath.gamma(4.5)
                                      * (2 / mpmath.mpf(x)) ** 3.5 * mpmath.besselj(3.5, x))
                              for x in z])
        got = flat_correlation_closed_form(z, 2.0)
        assert float(np.max(np.abs(got - exact))) <= 2e-15
        assert flat_correlation_closed_form(0.0, 2.0) == 1.0


@functools.cache
def _decay_rate_oracle(name: str) -> float:
    """Two-photon decay rate (1/s) of the pole chain of ``name`` by 30-digit
    adaptive quadrature of 4/(27 pi c^6) int_0^D [w(D-w)]^3 S(w)^2 dw, split
    at D/2."""
    chain = provider_pole(species(name))
    with mpmath.workdps(30):
        delta = mpmath.mpf(chain.delta_eg_au)

        def integrand(w):
            s = sum(strength * (1 / (w - (delta - djg)) + 1 / (djg - w))
                    for strength, djg in chain.terms)
            return (w * (delta - w)) ** 3 * s**2

        integral = mpmath.quad(integrand, [0, delta / 2, delta])
        rate = 4 / (27 * mpmath.pi * mpmath.mpf(C_AU) ** 6) * integral
        return float(rate / mpmath.mpf(AU_TIME_S))


class TestDecayRate:
    @pytest.mark.parametrize("n_points", [64, 256, 2048])
    @pytest.mark.parametrize("name", ["He", "He-like(Z=3)", "He-like(Z=10)"])
    def test_matches_mpmath_oracle(self, name, n_points):
        # n = 32 is left out: its error is 1.7e-10
        rate, _ = two_photon_decay_rate(provider_pole(species(name)), n_points=n_points)
        assert rate.value == pytest.approx(_decay_rate_oracle(name), rel=1e-12)

    def test_helium_rate(self):
        rate, lifetime = two_photon_decay_rate(provider_pole(HE))
        assert rate.value == pytest.approx(133.6, rel=1e-3)
        assert rate.value == pytest.approx(50.8, rel=2.0)  # order of magnitude
        assert lifetime.value == pytest.approx(1.0 / rate.value, rel=1e-12)

    def test_uncalibrated_rejected(self):
        with pytest.raises(UncalibratedProviderError):
            two_photon_decay_rate(provider_flat(HE))

    def test_hydrogenic_z6(self):
        base = provider_pole(HE)
        r0, _ = two_photon_decay_rate(base)
        for lam in (1.5, 3.0, 7.0):
            r1, _ = two_photon_decay_rate(hydrogenic_scaled(base, lam))
            assert r1.value / r0.value == pytest.approx(lam**6, rel=1e-10)

    def test_bad_charge_ratio(self):
        with pytest.raises(ValueError):
            hydrogenic_scaled(provider_pole(HE), -1.0)


class TestHydrogenicScaled:
    """A scaled pole chain is the pole chain with gap lam^2 D and terms
    (s/lam^2, lam^2 D_jg), whose sum is S(w/lam^2)/lam^4."""

    @pytest.mark.parametrize("lam", [0.5, 1.5, 7.0])
    def test_is_pole_chain_with_scaled_terms(self, lam):
        base = provider_pole(HE)
        scaled = hydrogenic_scaled(base, lam)
        assert isinstance(scaled, PoleChain)
        assert scaled.delta_eg_au == pytest.approx(lam**2 * base.delta_eg_au,
                                                   rel=1e-15)
        assert len(scaled.terms) == len(base.terms) == 1
        (s, djg), = base.terms
        (s_lam, djg_lam), = scaled.terms
        assert s_lam == pytest.approx(s / lam**2, rel=1e-15)
        assert djg_lam == pytest.approx(lam**2 * djg, rel=1e-15)

    @pytest.mark.parametrize("lam", [0.5, 1.5, 7.0])
    def test_chain_sum_is_rescaled_base(self, lam):
        base = provider_pole(HE)
        scaled = hydrogenic_scaled(base, lam)
        omega = np.linspace(0.0, scaled.delta_eg_au, 202)[1:-1]
        np.testing.assert_allclose(scaled.chain_sum(omega),
                                   base.chain_sum(omega / lam**2) / lam**4,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("lam", [0.5, 1.5, 7.0])
    def test_two_term_rate_scales_as_lambda_six(self, lam):
        he = provider_pole(HE)
        two = PoleChain(delta_eg_au=he.delta_eg_au, terms=he.terms + ((0.5, 1.5),))
        r0, _ = two_photon_decay_rate(two, n_points=256)
        r1, _ = two_photon_decay_rate(hydrogenic_scaled(two, lam), n_points=256)
        assert abs(r1.value / r0.value / lam**6 - 1.0) <= 1e-12


class TestTabulated:
    """``PoleChain`` built from a table of (strength, D_jg) terms."""

    def test_round_trip_matches_pole(self):
        # d_g2p*d_2p2s from f = 2*D*|<b|z|a>|^2, written out in eV
        djg, dej = HE.e_2p.value / HARTREE_EV, 0.60 / HARTREE_EV
        strength = 3.0 * math.sqrt(0.28 / (2 * djg)) * math.sqrt(0.36 / (2 * dej))
        tab = PoleChain(delta_eg_au=HE.delta_eg.value / HARTREE_EV,
                        terms=((strength, djg),))
        pole = provider_pole(HE)
        omega = np.linspace(0.05, 0.7, 200)
        assert np.allclose(tab.chain_sum(omega), pole.chain_sum(omega),
                           rtol=1e-10)
        assert tab.poles() == pytest.approx(pole.poles(), rel=1e-12)
        # a second state adds its own term and its own pair of poles
        far = (0.5, 1.5)
        two = PoleChain(delta_eg_au=tab.delta_eg_au, terms=tab.terms + (far,))
        one = PoleChain(delta_eg_au=tab.delta_eg_au, terms=(far,))
        assert np.allclose(two.chain_sum(omega),
                           tab.chain_sum(omega) + one.chain_sum(omega), rtol=1e-12)
        assert two.poles() == tab.poles() + one.poles()
