import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from biphoton import spectrum as spc
from biphoton.registry import species
from biphoton.spectrum import (
    _BLOCK_ROWS,
    _STEPS,
    PoleChain,
    PoleInGridError,
    SpectrumConvergenceError,
    UncalibratedProviderError,
    _decay_rate,
    _levels,
    correlation_function,
    correlation_time,
    flat_correlation_closed_form,
    hydrogenic_scaled,
    provider_flat,
    provider_pole,
    sized_spectrum,
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

    # half grids of (n_t | 1)//2 + 1 points: the two points of n_t = 2 and 3,
    # grids shorter than one row of _STEPS points, grids that end one point
    # before, on and one point after a row, and grids that fill _BLOCK_ROWS
    # rows exactly or spill one point into the next block
    @pytest.mark.parametrize("n_t", [2, 3, 60, 62, 64,
                                     2 * _STEPS - 4, 2 * _STEPS - 2, 2 * _STEPS,
                                     2 * _STEPS * _BLOCK_ROWS - 2,
                                     2 * _STEPS * _BLOCK_ROWS])
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
        # the direct transform, sum_j w_j f_j e^{i w_j t} / sum_j w_j f_j on
        # the float nodes, weights and times, summed to 30 digits
        with mpmath.workdps(30):
            omega = [mpmath.mpf(w) for w in spec.omega_au]
            wf = [mpmath.mpf(w) * mpmath.mpf(f)
                  for w, f in zip(spec.weights_au, spec.amplitude)]
            c0 = mpmath.fsum(wf)
            oracle = np.array([complex(mpmath.fdot(wf, [mpmath.expj(w * mpmath.mpf(t))
                                                         for w in omega]) / c0)
                               for t in series.t_au[m:]])
        oracle = np.concatenate((np.conj(oracle[:0:-1]), oracle))
        assert float(np.max(np.abs(series.values - oracle))) <= 2e-15

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


def _he_amplitude_mp():
    """[w(D-w)]^3 S(w) of the He pole chain at the working mpmath precision,
    and eight equal pieces of [0, D] to integrate it on (at t = 40 a.u. the
    phase e^{iwt} turns through 30 rad over the window)."""
    chain = provider_pole(HE)
    delta = mpmath.mpf(chain.delta_eg_au)

    def amplitude(w):
        s = sum(strength * (1 / (w - (delta - djg)) + 1 / (djg - w))
                for strength, djg in chain.terms)
        return (w * (delta - w)) ** 3 * s

    return amplitude, [delta * k / 8 for k in range(9)]


@functools.cache
def _correlation_oracle(t: float) -> complex:
    """C(t) of the He pole chain by 30-digit adaptive quadrature of
    int_0^D e^{iwt} [w(D-w)]^3 S(w) dw over its t = 0 value."""
    with mpmath.workdps(30):
        amplitude, pieces = _he_amplitude_mp()
        ct = mpmath.quad(lambda w: mpmath.expj(w * t) * amplitude(w), pieces)
        return complex(ct / mpmath.quad(amplitude, pieces))


@functools.cache
def _zero_crossing_oracle() -> float:
    """First zero of Re C(t) for t > 0, the half-width of the correlation
    time's central lobe, to 30 digits."""
    with mpmath.workdps(30):
        amplitude, pieces = _he_amplitude_mp()
        # the lobe of a spectrum symmetric about D/2 is about 2 pi/D wide
        return float(mpmath.findroot(
            lambda t: mpmath.quad(lambda w: mpmath.cos(w * t) * amplitude(w), pieces),
            mpmath.pi / pieces[-1]))


class TestSizedSpectrum:
    """The grid the bundled scenario's run is sized to (t_max_au = 40,
    n_t = 4096) against 30-digit mpmath.

    The sized grid settles at 128 nodes, and its Gamma is within 1e-14 of
    the mpmath integral.  A fixed 2048-node grid is 1.6e-13 off on Gamma,
    from the error of ``leggauss``'s weights, which is why the sizing
    tolerances (1e-12 on Gamma, 1e-13 on C) sit above it."""

    @pytest.fixture(scope="class")
    def sized(self):
        return sized_spectrum(provider_pole(HE), t_max_au=40.0, n_t=4096)

    def test_settles_at_128_nodes(self, sized):
        assert sized.n == 128
        assert [n for n, *_ in sized.history] == [64, 128]
        (_, d_gamma_64, d_c_64), (_, d_gamma_128, d_c_128) = sized.history
        assert d_gamma_64 > spc._GAMMA_RTOL and d_c_64 > spc._C_ATOL
        assert d_gamma_128 <= spc._GAMMA_RTOL and d_c_128 <= spc._C_ATOL

    def test_gamma_matches_mpmath_oracle(self, sized):
        rate, _ = _decay_rate(sized.spectrum)
        assert rate.value == pytest.approx(_decay_rate_oracle("He"), rel=1e-14, abs=0)

    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0, 40.0, "zero crossing"])
    def test_correlation_matches_mpmath_oracle(self, sized, t):
        t = _zero_crossing_oracle() if t == "zero crossing" else t
        exact = _correlation_oracle(t)
        # the sized spectrum's transform at exactly t
        got = correlation_function(sized.spectrum, t_max_au=t, n_t=2).values[-1]
        assert abs(got - exact) <= 1e-13
        # and the run's series, where t is one of its points
        on_grid = np.nonzero(sized.correlation.t_au == t)[0]
        for i in on_grid:
            assert abs(sized.correlation.values[i] - exact) <= 1e-13

    def test_correlation_time_brackets_the_zero(self, sized):
        # linear interpolation between points 40/2048 a.u. apart
        half = correlation_time(sized.correlation).width_au / 2.0
        assert half == pytest.approx(_zero_crossing_oracle(), abs=1e-5)

    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024])
    def test_first_level_bound_passes_the_guard(self, n):
        """n >= D*t_max - 1/2 passes the quarter-period guard, and the
        guard's real limit lies within 0.06% above that bound."""
        spec = spectral_amplitude(provider_pole(HE), n_points=n)
        delta = spec.delta_eg_au
        t_bound = (n + 0.5) / delta
        assert _levels(delta, t_bound)[0] == n
        assert _levels(delta, t_bound * (1 + 1e-12))[0] == 2 * n
        correlation_function(spec, t_max_au=t_bound, n_t=2)
        with pytest.raises(ValueError, match="too coarse"):
            correlation_function(spec, t_max_au=t_bound * 1.0006, n_t=2)

    def test_unresolvable_t_max_fails_before_any_rule(self, rule_builds):
        # no level of at most 8192 nodes passes the guard past 8192.5/D a.u.
        with pytest.raises(ValueError, match="more than 8192 frequency nodes"):
            sized_spectrum(provider_pole(HE), t_max_au=1e5)
        # one level passes, so no two can agree
        with pytest.raises(SpectrumConvergenceError, match="needs 8192 frequency nodes"):
            sized_spectrum(provider_pole(HE), t_max_au=6000.0)
        assert not rule_builds

    def test_levels_that_never_agree_raise(self, monkeypatch, rule_builds):
        monkeypatch.setattr(spc, "_MAX_N_POINTS", 128)
        monkeypatch.setattr(spc, "_GAMMA_RTOL", 0.0)
        with pytest.raises(SpectrumConvergenceError, match="did not settle by 128 nodes"):
            sized_spectrum(provider_pole(HE))
        assert sorted(n for n, _ in rule_builds) == [32, 64, 128]

    def test_decay_rate_default_is_the_sized_grid(self):
        rate, _ = two_photon_decay_rate(provider_pole(HE))
        assert rate == _decay_rate(sized_spectrum(provider_pole(HE)).spectrum)[0]
