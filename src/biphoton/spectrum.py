"""Biphoton spectral amplitude, time correlation, and two-photon decay rate.

The emitted pair's spectral content is controlled by the intermediate-state
dipole chain

    S(w) = sum_j d_gj d_je [1/(w - D_ej) + 1/(D_jg - w)],

which is symmetric about half the level gap (S(w) = S(D_eg - w)) because the
two denominators swap under w -> D_eg - w.  Two providers supply S(w) in
atomic units.  ``PoleChain`` holds one (d_gj d_je, D_jg) term per
intermediate state (the registry species give one term); it is the only
calibrated chain, and ``hydrogenic_scaled`` maps it to the pole chain of a
He-like ion with another nuclear charge.  ``FlatChain`` is an uncalibrated
baseline whose Fourier transform has a closed form used as a test oracle;
the decay rate rejects it.

The amplitude-level spectrum is f(w) = [w(D_eg - w)]^3 S(w); the correlation
function is its Fourier transform over [0, D_eg], normalized to C(0) = 1.
The correlation time reported is the full width of the central lobe of
Re C(t) between its first zero crossings on either side of t = 0.

The decay rate uses

    Gamma = 4/(27*pi*c^6) * integral_0^D [w(D-w)]^3 |S(w)|^2 dw

with the photon-exchange double counting absorbed into the prefactor (the
integral runs over the full range, so each unordered frequency pair is
counted twice; the prefactor carries the compensating 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import quadrature
from ._numpy import LazyNumpy
from .registry import SpeciesData
from .units import AU_TIME_S, C_AU, HARTREE_EV, Quantity

np = LazyNumpy(globals())

__all__ = [
    "FlatChain",
    "PoleChain",
    "BiphotonSpectrum",
    "CorrelationSeries",
    "CorrelationTime",
    "provider_flat",
    "provider_pole",
    "PROVIDERS",
    "hydrogenic_scaled",
    "spectral_amplitude",
    "correlation_function",
    "correlation_time",
    "two_photon_decay_rate",
    "flat_correlation_closed_form",
    "PoleInGridError",
    "UncalibratedProviderError",
]

RATE_PREFACTOR = 4.0 / (27.0 * math.pi * C_AU**6)

# rows of e^{i t w} that correlation_function forms at once
_BLOCK_ROWS = 32


class PoleInGridError(ValueError):
    pass


class UncalibratedProviderError(ValueError):
    pass


@dataclass(frozen=True)
class FlatChain:
    """S(w) = 1; uncalibrated analytic baseline."""

    delta_eg_au: float          # level gap D_eg in hartree

    def chain_sum(self, omega_au):
        return np.ones_like(np.asarray(omega_au, dtype=float))

    def poles(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class PoleChain:
    """Sum over intermediate states j, one ``(strength, D_jg)`` term each.

    Each term contributes strength*[1/(w - D_ej) + 1/(D_jg - w)] with
    D_ej = D_eg - D_jg; energies in hartree, strengths d_gj d_je in a.u.
    """

    delta_eg_au: float
    terms: tuple[tuple[float, float], ...]

    def chain_sum(self, omega_au):
        omega = np.asarray(omega_au, dtype=float)
        out = np.zeros_like(omega)
        for strength, djg in self.terms:
            dej = self.delta_eg_au - djg
            out = out + strength * (1.0 / (omega - dej) + 1.0 / (djg - omega))
        return out

    def poles(self) -> tuple[float, ...]:
        return tuple(p for _, djg in self.terms for p in (self.delta_eg_au - djg, djg))


def provider_flat(species: SpeciesData) -> FlatChain:
    return FlatChain(delta_eg_au=species.delta_eg.au)


def provider_pole(species: SpeciesData) -> PoleChain:
    """One-term chain built from the registry oscillator strengths.

    The dipole products are recovered from f = 2*D*|<b|z|a>|^2 with the
    angular factor |<b|r|a>|^2 = 3*|<b|z|a>|^2 restoring the full vector
    matrix element, so the chain strength is
    3*sqrt(f_g2p/(2*D_jg))*sqrt(|f_2p2s|/(2*|D_ej|)).
    """
    djg = species.e_2p.au
    dej = abs(species.delta_ej.au)
    strength = 3.0 * math.sqrt(species.f_g2p / (2.0 * djg)) * math.sqrt(
        abs(species.f_2p2s) / (2.0 * dej)
    )
    return PoleChain(delta_eg_au=species.delta_eg.au, terms=((strength, djg),))


# provider kind named in a scenario file or on the command line -> factory
PROVIDERS = {"pole": provider_pole, "flat": provider_flat}


def hydrogenic_scaled(provider: PoleChain, charge_ratio: float) -> PoleChain:
    """Hydrogenic scaling of a pole chain by the charge ratio lam.

    Energies scale by e = lam^2 and dipole chains by 1/lam^4:
    S'(w) = S(w/e)/e^2 and D'_eg = e*D_eg.  Term by term this is again a pole
    chain, (strength, D_jg) -> (strength/e, e*D_jg), and the two-photon rate
    scales by exactly lam^6.
    """
    if not charge_ratio > 0:
        raise ValueError("charge_ratio must be positive")
    e = charge_ratio**2
    return PoleChain(delta_eg_au=provider.delta_eg_au * e,
                     terms=tuple((s / e, djg * e) for s, djg in provider.terms))


@dataclass(frozen=True)
class BiphotonSpectrum:
    """Amplitude f(w) = [w(D-w)]^3 S(w) sampled on Gauss-Legendre nodes."""

    provider: FlatChain | PoleChain
    omega_au: np.ndarray
    weights_au: np.ndarray
    amplitude: np.ndarray

    @property
    def delta_eg_au(self) -> float:
        return self.provider.delta_eg_au

    @property
    def omega_ev(self) -> np.ndarray:
        return self.omega_au * HARTREE_EV


# The largest grids accepted, so memory stays bounded: the eigen-solve of an
# 8192-node rule peaks near 1 GB RSS, and 2**20 time points near 0.5 GB.
_MAX_N_POINTS = 8192
_MAX_N_T = 2**20


def _check_n_points(n_points: int, name: str = "n_points") -> None:
    """Raise ``ValueError`` unless ``spectral_amplitude`` accepts ``n_points``
    nodes; the message names ``name``.  Needs no numpy."""
    if n_points < 2:
        raise ValueError(f"{name} must be >= 2, got {n_points}")
    if n_points > _MAX_N_POINTS:
        raise ValueError(f"{name} must be <= {_MAX_N_POINTS}, got {n_points}")


def spectral_amplitude(
    provider: FlatChain | PoleChain, n_points: int = 2048
) -> BiphotonSpectrum:
    """Sample the amplitude-level spectrum on [0, D_eg] at the nodes of an
    ``n_points``-node Gauss-Legendre rule; the weights are stored so
    downstream integrals reuse them."""
    _check_n_points(n_points)
    delta = provider.delta_eg_au
    omega, weights = quadrature.gauss_legendre(n_points, delta)
    for p in provider.poles():
        if 0.0 <= p <= delta:
            raise PoleInGridError(
                f"provider pole at {p * HARTREE_EV:.4f} eV lies inside "
                f"the emission window [0, {delta * HARTREE_EV:.4f}] eV"
            )
    amp = (omega * (delta - omega)) ** 3 * provider.chain_sum(omega)
    return BiphotonSpectrum(
        provider=provider, omega_au=omega, weights_au=weights, amplitude=amp
    )


@dataclass(frozen=True)
class CorrelationSeries:
    """Complex correlation C(t) on a symmetric time grid, C(0) = 1."""

    t_au: np.ndarray
    values: np.ndarray

    @property
    def t_s(self) -> np.ndarray:
        return self.t_au * AU_TIME_S

    @property
    def abs(self) -> np.ndarray:
        return np.abs(self.values)


def _check_time_grid(t_max_au: float, n_t: int, path: str = "") -> None:
    """Raise ``ValueError`` unless ``t_max_au`` and ``n_t`` make a time grid
    ``correlation_function`` accepts; ``path`` prefixes the names in the
    message.  Needs no numpy, so callers can check before any rule is built."""
    if not (math.isfinite(t_max_au) and t_max_au > 0):
        raise ValueError(f"{path}t_max_au must be finite and > 0, got {t_max_au}")
    if n_t < 2:
        raise ValueError(f"{path}n_t must be >= 2, got {n_t}: the time grid needs "
                         "points on both sides of t = 0")
    if n_t > _MAX_N_T:
        raise ValueError(f"{path}n_t must be <= {_MAX_N_T}, got {n_t}")


def correlation_function(
    spectrum: BiphotonSpectrum, t_max_au: float = 40.0, n_t: int = 4096
) -> CorrelationSeries:
    """Fourier transform of the amplitude-level spectrum, normalized to C(0)=1.

    The time grid is uniform on [-t_max_au, t_max_au] with ``n_t | 1`` points
    (odd, so it contains t = 0); ``t_max_au`` must be finite and positive.
    The frequency grid must resolve the fastest oscillation e^{i w t_max}:
    the largest node gap must stay below a quarter period, else the transform
    is silently wrong, so this raises instead.

    The amplitude is real, so C(-t) = conj C(t): only the half grid
    0 <= t <= t_max_au is transformed, and the t < 0 half is its mirror,
    t -> -t and C -> conj C.  The half grid is transformed in blocks of
    ``_BLOCK_ROWS`` rows of e^{i t w}, so memory grows with the number of
    frequency nodes and not with ``n_t``.  A trailing one-row block is merged
    into the block before it: BLAS takes another path for a single row and
    rounds that row differently.
    """
    _check_time_grid(t_max_au, n_t)
    max_gap = float(np.max(np.diff(spectrum.omega_au)))
    if max_gap * t_max_au > math.pi / 2.0:
        raise ValueError(
            f"frequency grid too coarse for |t| <= {t_max_au}: node gap {max_gap:.3e} "
            f"exceeds the quarter-period pi/(2*t_max) = {math.pi / 2 / t_max_au:.3e}"
        )
    wf = spectrum.weights_au * spectrum.amplitude
    c0 = float(np.sum(wf))
    if c0 == 0.0:
        raise ValueError("spectrum integrates to zero; cannot normalize C(0)=1")
    half = np.linspace(0.0, t_max_au, (n_t | 1) // 2 + 1)
    c_half = np.empty(half.size, dtype=complex)
    edges = [0, *range(_BLOCK_ROWS, half.size - 1, _BLOCK_ROWS), half.size]
    for i, j in zip(edges[:-1], edges[1:]):
        c_half[i:j] = np.exp(1j * np.outer(half[i:j], spectrum.omega_au)) @ wf
    t = np.concatenate((-half[:0:-1], half))
    c = np.concatenate((np.conj(c_half[:0:-1]), c_half))
    return CorrelationSeries(t_au=t, values=c / c0)


@dataclass(frozen=True)
class CorrelationTime:
    width_au: float

    @property
    def width(self) -> Quantity:
        return Quantity(self.width_au * AU_TIME_S, "s")


def correlation_time(series: CorrelationSeries) -> CorrelationTime:
    """Full width of the central lobe of Re C between its first zero crossings.

    The series must extend past the first sign change of Re C on the
    positive-time side; the crossing is located by linear interpolation and
    the (symmetric) lobe width is twice its position.
    """
    t, re = series.t_au, series.values.real
    pos = t >= 0
    t, re = t[pos], re[pos]
    order = np.argsort(t)
    t, re = t[order], re[order]
    sign_change = np.nonzero((re[:-1] > 0) & (re[1:] <= 0))[0]
    if sign_change.size == 0:
        raise ValueError(
            "Re C(t) has no zero crossing inside the time grid; extend t_max"
        )
    i = sign_change[0]
    t0 = t[i] + (t[i + 1] - t[i]) * re[i] / (re[i] - re[i + 1])
    return CorrelationTime(width_au=2.0 * t0)


def flat_correlation_closed_form(t_au, delta_au: float):
    """Closed-form normalized transform of [w(D-w)]^3 on [0, D].

    integral_0^D e^{iwt} [w(D-w)]^3 dw
        = e^{iDt/2} (D/2)^7 * 6*sqrt(pi) * (2/z)^{7/2} J_{7/2}(z),  z = tD/2,

    whose t=0 value is D^7/140.  The returned value is normalized by that, so
    the envelope is Gamma(9/2)*(2/z)^{7/2}*J_{7/2}(z) = 105*j_3(z)/z^3 with
    limit 1 at z -> 0.  The spherical Bessel function j_3 is elementary
    (DLMF 10.49.3), but that form cancels at small z, so below z = 2 the
    envelope is its power series sum_k (-z^2/2)^k 105/(k! (7+2k)!!)
    (DLMF 10.53.1), 12 terms.  Used as the analytic oracle for the flat
    provider's correlation.
    """
    t = np.asarray(t_au, dtype=float)
    z = np.abs(t) * delta_au / 2.0
    zb = np.maximum(z, 2.0)
    closed = 105.0 * ((15.0 / zb**3 - 6.0 / zb) * np.sin(zb)
                      - (15.0 / zb**2 - 1.0) * np.cos(zb)) / zb**4
    x = -0.5 * np.minimum(z, 2.0) ** 2
    term = series = np.ones_like(z)
    for k in range(1, 12):
        term = term * x / (k * (7 + 2 * k))
        series = series + term
    env = np.where(z < 2.0, series, closed)
    return np.exp(1j * delta_au * t / 2.0) * env


def two_photon_decay_rate(
    provider: FlatChain | PoleChain, n_points: int = 2048
) -> tuple[Quantity, Quantity]:
    """Two-photon decay rate and lifetime from a calibrated chain.

    Gamma = 4/(27*pi*c^6) * integral_0^D [w(D-w)]^3 |S(w)|^2 dw (a.u.); the
    prefactor carries the isotropic 1/3 contraction squared, the mode-density
    factors, and the 1/2 for photon exchange over the full-range integral.
    """
    if isinstance(provider, FlatChain):
        raise UncalibratedProviderError(
            "provider 'flat' is not calibrated in absolute a.u."
        )
    return _decay_rate(spectral_amplitude(provider, n_points=n_points))


def _decay_rate(spec: BiphotonSpectrum) -> tuple[Quantity, Quantity]:
    """Decay rate and lifetime integrated on the nodes of a sampled spectrum;
    its provider must be calibrated."""
    delta = spec.delta_eg_au
    s = spec.provider.chain_sum(spec.omega_au)
    integrand = (spec.omega_au * (delta - spec.omega_au)) ** 3 * s**2
    gamma_au = RATE_PREFACTOR * float(np.dot(spec.weights_au, integrand))
    rate = Quantity(gamma_au / AU_TIME_S, "1/s")
    return rate, Quantity(1.0 / rate.value, "s")
