"""Property-based invariants, >= 1000 cases per property.

Hypothesis drives the scalar laws; vectorized numpy sweeps cover the
geometric invariants where a single call validates thousands of rays.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from biphoton.cavity import Spheroid, _frames, angular_jacobian, theta_factor_mc
from biphoton.registry import species
from biphoton.schemes import (
    attenuation_fraction,
    collection_fraction,
    four_photon_rabi,
    four_photon_rate,
    he_absorber,
    lz_integral,
    lz_leakage_rate,
    one_photon_rate,
    r_trans,
    scrap_transfer_probability,
    SchemeConfig,
    steady_state_fraction,
)
from biphoton.spectrum import (
    angular_distribution,
    flat_correlation_closed_form,
    hydrogenic_scaled,
    provider_pole,
    spectral_amplitude,
    two_photon_decay_rate,
)
from biphoton.units import Quantity

HE = species("He")
MANY = settings(max_examples=1000, deadline=None)
FEW = settings(max_examples=250, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# geometry (vectorized sweeps: ~1e4 rays per assertion)


def _random_angles(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)


@pytest.mark.parametrize("ratio", [1.0, 1.7, 3.0, 12.0, 148.0])
def test_focal_path_sum_is_major_axis(ratio):
    s = Spheroid(ratio, 1.0)
    theta, phi = _random_angles(10_000, 7)
    f = _frames(s, theta, phi)
    assert np.allclose(f["lp"] + f["lm"], 2.0 * s.a, atol=1e-12 * s.a)


@pytest.mark.parametrize("ratio", [1.0, 2.5, 40.0])
def test_frames_orthonormal_right_handed(ratio):
    s = Spheroid(ratio, 1.0)
    theta, phi = _random_angles(10_000, 11)
    f = _frames(s, theta, phi)
    for trio in (("e1", "e2", "k"), ("e1p", "e2p", "kp")):
        a, b, k = (f[name] for name in trio)
        for v in (a, b, k):
            assert np.allclose(np.einsum("ix,ix->x", v, v), 1.0, atol=1e-12)
        assert np.allclose(np.einsum("ix,ix->x", a, b), 0.0, atol=1e-12)
        assert np.allclose(np.einsum("ix,ix->x", a, k), 0.0, atol=1e-12)
        cross = np.cross(k, a, axisa=0, axisb=0).T
        assert np.allclose(cross, b, atol=1e-12)


def test_jacobian_nonnegative_everywhere():
    theta = np.linspace(0.0, math.pi, 2000)
    for ratio in (1.0, 1.2, 2.0, 8.0, 50.0, 148.0):
        assert np.all(angular_jacobian(Spheroid(ratio, 1.0), theta) >= -1e-14)


def test_mc_deterministic_across_workers():
    s = Spheroid(2.0, 1.0)
    for seed in (0, 1, 7, 42, 1234):
        base = theta_factor_mc(s, 4000, seed=seed, n_workers=1)
        assert theta_factor_mc(s, 4000, seed=seed, n_workers=3) == base
        assert theta_factor_mc(s, 4000, seed=seed, n_workers=1) == base


# ---------------------------------------------------------------------------
# spectrum


@MANY
@given(st.floats(0.0, 1.0))
def test_chain_symmetric_about_midpoint(x):
    pole = provider_pole(HE)
    delta = pole.delta_eg_au
    omega = x * delta
    assert pole.chain_sum(omega) == pytest.approx(
        pole.chain_sum(delta - omega), rel=1e-10, abs=1e-12)


@MANY
@given(st.floats(0.01, 50.0), st.floats(0.1, 5.0), st.floats(0.1, 10.0))
def test_flat_correlation_fourier_reciprocity(t, delta, lam):
    # stretching time by lam while shrinking the gap by lam leaves C invariant
    a = flat_correlation_closed_form(t, delta)
    b = flat_correlation_closed_form(t * lam, delta / lam)
    assert complex(a) == pytest.approx(complex(b), rel=1e-9, abs=1e-9)


@MANY
@given(st.floats(0.0, math.pi))
def test_angular_distribution_bounded(theta):
    val = float(angular_distribution(theta))
    assert 0.0 <= val <= 3.0 / 4.0 + 1e-12


_BASE_RATE = two_photon_decay_rate(provider_pole(HE), n_points=128)[0].value


@MANY
@given(st.floats(0.5, 10.0))
def test_decay_rate_scales_as_lambda_six(lam):
    scaled = hydrogenic_scaled(provider_pole(HE), lam)
    r1, _ = two_photon_decay_rate(scaled, n_points=128)
    assert r1.value / _BASE_RATE == pytest.approx(lam**6, rel=1e-10)


# ---------------------------------------------------------------------------
# schemes: homogeneity laws


@MANY
@given(st.floats(1e10, 1e16), st.floats(1.001, 100.0))
def test_four_photon_homogeneity(i0, scale):
    w1 = four_photon_rabi(HE, intensity=Quantity(i0, "W/cm^2")).au
    w2 = four_photon_rabi(HE, intensity=Quantity(scale * i0, "W/cm^2")).au
    assert w2 / w1 == pytest.approx(scale**2, rel=1e-9)
    r1 = four_photon_rate(HE, intensity=Quantity(i0, "W/cm^2")).au
    r2 = four_photon_rate(HE, intensity=Quantity(scale * i0, "W/cm^2")).au
    assert r2 / r1 == pytest.approx(scale**4, rel=1e-9)


@MANY
@given(st.floats(1e-3, 1e14), st.floats(1.001, 1000.0))
def test_one_photon_rate_linear_in_intensity(i0, scale):
    kw = dict(photon_energy=Quantity(21.22, "eV"), lineshape_factor_au=10.0)
    r1 = one_photon_rate(0.28, Quantity(i0, "W/cm^2"), **kw).value
    r2 = one_photon_rate(0.28, Quantity(scale * i0, "W/cm^2"), **kw).value
    assert r2 / r1 == pytest.approx(scale, rel=1e-9)


@MANY
@given(st.floats(0.005, 0.2))
def test_field_doubling_powers(e0):
    w1 = four_photon_rabi(HE, field=Quantity(e0, "au_field")).au
    w2 = four_photon_rabi(HE, field=Quantity(2.0 * e0, "au_field")).au
    assert w2 / w1 == pytest.approx(16.0, rel=1e-12)
    r1 = four_photon_rate(HE, field=Quantity(e0, "au_field")).au
    r2 = four_photon_rate(HE, field=Quantity(2.0 * e0, "au_field")).au
    assert r2 / r1 == pytest.approx(256.0, rel=1e-12)


@FEW
@given(st.floats(0.01, 0.1), st.floats(1.1, 3.0))
def test_cavity_transfer_field_eighth_power(e0, scale):
    prov, ab = spectral_amplitude(provider_pole(HE), n_points=256), he_absorber(HE)
    r1 = r_trans(1.0, Quantity(e0, "au_field"), HE, prov, ab).value
    r2 = r_trans(1.0, Quantity(scale * e0, "au_field"), HE, prov, ab).value
    assert r2 / r1 == pytest.approx(scale**8, rel=1e-9)


# ---------------------------------------------------------------------------
# schemes: bounds and monotonicity


@MANY
@given(st.floats(0.0, 1e-40), st.floats(1e-3, 10.0), st.integers(1, 6))
def test_attenuation_fraction_bounds(alpha, l_cm, n):
    frac = attenuation_fraction(Quantity(1e14, "W/cm^2"), alpha,
                                Quantity(l_cm, "cm"), n)
    assert 0.0 <= frac <= 1.0


@MANY
@given(st.floats(1e-50, 1e-44), st.floats(1.001, 10.0))
def test_attenuation_fraction_monotone_in_alpha(alpha, scale):
    kw = (Quantity(1e14, "W/cm^2"), Quantity(1.0, "mm"), 4)
    a = attenuation_fraction(kw[0], alpha, kw[1], kw[2])
    b = attenuation_fraction(kw[0], scale * alpha, kw[1], kw[2])
    assert b >= a


@MANY
@given(st.floats(0.0, 1e20))
def test_steady_fraction_bounds(r1_tau):
    frac = steady_state_fraction(Quantity(r1_tau, "1/s"), Quantity(1.0, "s"))
    assert 0.0 <= frac <= 0.5
    higher = steady_state_fraction(Quantity(2.0 * r1_tau + 1.0, "1/s"),
                                   Quantity(1.0, "s"))
    assert higher >= frac


@FEW
@given(st.floats(1e-4, 1.0), st.floats(1.001, 5.0))
def test_collection_fraction_bounds_and_monotone(f, scale):
    a = collection_fraction(f)
    assert 0.0 <= a <= 1.0 + 1e-12
    if f * scale <= 1.0:
        assert collection_fraction(f * scale) >= a


@FEW
@given(st.floats(1e12, 1e15), st.floats(1.1, 4.0))
def test_scrap_probability_monotone_in_intensity(i0, scale):
    def prob(i):
        cfg = SchemeConfig(scheme="scrap", intensity=Quantity(i, "W/cm^2"),
                           bandwidth=Quantity(8.8e12, "Hz"), n_atoms=1e13)
        return scrap_transfer_probability(cfg, HE).probability
    assert prob(scale * i0) >= prob(i0) - 1e-15


# ---------------------------------------------------------------------------
# Landau-Zener closed forms vs direct numerical integration


@MANY
@given(st.floats(1e11, 1e14), st.floats(1e11, 1e13), st.floats(10.0, 500.0))
# quad's default epsabs=1.49e-8 put its ramp integral 1.8e-8 off here
@example(omega=1e11, delta=7729312336258.0, tau_fs=233.0)
def test_lz_integral_matches_quadrature(omega, delta, tau_fs):
    tau = Quantity(tau_fs, "fs")
    tau_s = tau.to("s").value

    def rate(t):
        return lz_leakage_rate(Quantity(t, "s"), omega, delta, tau)

    # a purely relative oracle tolerance: the integrals are ~1e-3, so quad's
    # default absolute tolerance is too loose for rel=1e-8
    tight = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    ramp, err = quad(rate, 0.0, tau_s, **tight)
    assert lz_integral(omega, delta, tau, window="ramp") == pytest.approx(
        ramp, rel=1e-8)
    cent, err = quad(rate, -tau_s / 2.0, tau_s / 2.0, points=[0.0], **tight)
    assert lz_integral(omega, delta, tau, window="centered") == pytest.approx(
        cent, rel=1e-8)


# ---------------------------------------------------------------------------
# units


@MANY
@given(st.floats(1e-12, 1e12),
       st.sampled_from([("eV", "hartree"), ("s", "au_time"), ("nm", "bohr"),
                        ("W/cm^2", "au_intensity"), ("Hz", "au_frequency"),
                        ("1/s", "au_rate"), ("fs", "s"), ("um", "cm")]))
def test_quantity_round_trip(value, pair):
    a, b = pair
    q = Quantity(value, a)
    assert q.to(b).to(a).value == pytest.approx(value, rel=1e-12)
