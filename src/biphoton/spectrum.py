"""Biphoton spectral amplitude, time correlation, and two-photon decay rate.

The emitted pair's spectral content is controlled by the intermediate-state
dipole chain

    S(w) = sum_j d_gj d_je [1/(w - D_ej) + 1/(D_jg - w)],

which is symmetric about half the level gap (S(w) = S(D_eg - w)) because the
two denominators swap under w -> D_eg - w.  Providers supply S(w) in atomic
units; the flat provider is an uncalibrated baseline whose Fourier transform
has a closed form used as a test oracle.

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

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.special import jv

from .registry import SpeciesData
from .units import AU_TIME_S, C_AU, HARTREE_EV, Quantity

__all__ = [
    "DipoleChainProvider",
    "FlatChain",
    "PoleChain",
    "TabulatedChain",
    "ScaledChain",
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
    "angular_distribution",
    "PoleInGridError",
    "UncalibratedProviderError",
]

RATE_PREFACTOR = 4.0 / (27.0 * math.pi * C_AU**6)


class PoleInGridError(ValueError):
    pass


class UncalibratedProviderError(ValueError):
    pass


class DipoleChainProvider(ABC):
    """Source of the intermediate-state sum S(w) (atomic units)."""

    species: SpeciesData | None
    calibrated: bool

    @abstractmethod
    def chain_sum(self, omega_au):
        """S(w) for w in hartree; accepts scalars or arrays."""

    @property
    @abstractmethod
    def delta_eg_au(self) -> float:
        """Level gap D_eg in hartree."""

    def poles(self) -> tuple[float, ...]:
        """Pole locations of S(w) in hartree (may be empty)."""
        return ()

    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class FlatChain(DipoleChainProvider):
    """Constant S(w); uncalibrated analytic baseline."""

    species: SpeciesData
    value: float = 1.0
    calibrated: bool = False

    def chain_sum(self, omega_au):
        return np.full_like(np.asarray(omega_au, dtype=float), self.value)

    @property
    def delta_eg_au(self) -> float:
        return self.species.delta_eg.au

    def label(self) -> str:
        return "flat"


def _two_term_sum(omega, strength, delta_jg, delta_eg):
    omega = np.asarray(omega, dtype=float)
    out = np.zeros_like(omega)
    for s, djg in zip(strength, delta_jg):
        dej = delta_eg - djg
        out = out + s * (1.0 / (omega - dej) + 1.0 / (djg - omega))
    return out


@dataclass(frozen=True)
class PoleChain(DipoleChainProvider):
    """Single intermediate state built from the registry oscillator strengths.

    The dipole products are recovered from f = 2*D*|<b|z|a>|^2 with the
    angular factor |<b|r|a>|^2 = 3*|<b|z|a>|^2 restoring the full vector
    matrix element, so the chain strength is
    3*sqrt(f_g2p/(2*D_jg))*sqrt(|f_2p2s|/(2*|D_ej|)).
    """

    species: SpeciesData
    calibrated: bool = True

    @property
    def _strength(self) -> float:
        sp = self.species
        djg = sp.e_2p.au
        dej = abs(sp.delta_ej.au)
        return 3.0 * math.sqrt(sp.f_g2p / (2.0 * djg)) * math.sqrt(
            abs(sp.f_2p2s) / (2.0 * dej)
        )

    def chain_sum(self, omega_au):
        return _two_term_sum(
            omega_au, [self._strength], [self.species.e_2p.au], self.delta_eg_au
        )

    @property
    def delta_eg_au(self) -> float:
        return self.species.delta_eg.au

    def poles(self) -> tuple[float, ...]:
        djg = self.species.e_2p.au
        return (self.delta_eg_au - djg, djg)

    def label(self) -> str:
        return "pole"


@dataclass(frozen=True)
class TabulatedChain(DipoleChainProvider):
    """Multi-state chain loaded from a JSON file.

    Schema (all energies in eV, strengths in a.u.):

        {"schema_version": 1,
         "species_name": "He",
         "delta_eg_ev": 20.62,
         "terms": [{"delta_jg_ev": 21.22, "strength_au": 3.63}, ...]}

    Each term contributes strength*[1/(w - D_ej) + 1/(D_jg - w)] with
    D_ej = D_eg - D_jg.
    """

    name: str
    _delta_eg_au: float
    strengths: tuple[float, ...]
    deltas_jg_au: tuple[float, ...]
    species: SpeciesData | None = None
    calibrated: bool = True

    @classmethod
    def from_json(cls, path) -> "TabulatedChain":
        with open(path) as fh:
            raw = json.load(fh)
        known = {"schema_version", "species_name", "delta_eg_ev", "terms"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"tabulated chain {path}: unknown keys {sorted(extra)}")
        terms = raw["terms"]
        if not terms:
            raise ValueError(f"tabulated chain {path}: needs at least one term")
        return cls(
            name=raw.get("species_name", "tabulated"),
            _delta_eg_au=raw["delta_eg_ev"] / HARTREE_EV,
            strengths=tuple(t["strength_au"] for t in terms),
            deltas_jg_au=tuple(t["delta_jg_ev"] / HARTREE_EV for t in terms),
        )

    def chain_sum(self, omega_au):
        return _two_term_sum(
            omega_au, self.strengths, self.deltas_jg_au, self._delta_eg_au
        )

    @property
    def delta_eg_au(self) -> float:
        return self._delta_eg_au

    def poles(self) -> tuple[float, ...]:
        out = []
        for djg in self.deltas_jg_au:
            out.extend([self._delta_eg_au - djg, djg])
        return tuple(out)

    def label(self) -> str:
        return f"tabulated({self.name})"


@dataclass(frozen=True)
class ScaledChain(DipoleChainProvider):
    """Hydrogenic scaling transform of another chain.

    For a charge ratio lam, energies scale by lam^2 and dipole chains by
    1/lam^4:  S'(w) = S(w/lam^2)/lam^4, D'_eg = lam^2 D_eg.  Under this
    transform the two-photon rate scales by exactly lam^6.
    """

    base: DipoleChainProvider
    charge_ratio: float

    def __post_init__(self):
        if not self.charge_ratio > 0:
            raise ValueError("charge_ratio must be positive")

    @property
    def species(self):  # type: ignore[override]
        return self.base.species

    @property
    def calibrated(self):  # type: ignore[override]
        return self.base.calibrated

    @property
    def _e(self) -> float:
        return self.charge_ratio**2

    def chain_sum(self, omega_au):
        return self.base.chain_sum(np.asarray(omega_au, dtype=float) / self._e) / self._e**2

    @property
    def delta_eg_au(self) -> float:
        return self.base.delta_eg_au * self._e

    def poles(self) -> tuple[float, ...]:
        return tuple(p * self._e for p in self.base.poles())

    def label(self) -> str:
        return f"scaled({self.base.label()}, x{self.charge_ratio})"


def provider_flat(species: SpeciesData, value: float = 1.0) -> FlatChain:
    return FlatChain(species=species, value=value)


def provider_pole(species: SpeciesData) -> PoleChain:
    if species.f_g2p is None or species.f_2p2s is None:
        raise ValueError(f"{species.name}: oscillator strengths required")
    return PoleChain(species=species)


# provider kind named in a scenario file or on the command line -> factory
PROVIDERS = {"pole": provider_pole, "flat": provider_flat}


def hydrogenic_scaled(
    provider: DipoleChainProvider, charge_ratio: float
) -> ScaledChain:
    return ScaledChain(base=provider, charge_ratio=charge_ratio)


@dataclass(frozen=True)
class BiphotonSpectrum:
    """Sampled spectral amplitude f(w) = [w(D-w)]^3 S(w) and its square."""

    provider: DipoleChainProvider
    omega_au: np.ndarray
    weights_au: np.ndarray
    amplitude: np.ndarray
    amplitude_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitude_sq", self.amplitude**2)

    @property
    def delta_eg_au(self) -> float:
        return self.provider.delta_eg_au

    @property
    def omega_ev(self) -> np.ndarray:
        return self.omega_au * HARTREE_EV


def _gl_grid(delta: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * delta * (x + 1.0), 0.5 * delta * w


def spectral_amplitude(
    provider: DipoleChainProvider,
    grid=None,
    n_points: int = 2048,
) -> BiphotonSpectrum:
    """Sample the amplitude-level spectrum on [0, D_eg].

    With ``grid=None`` a Gauss-Legendre rule of ``n_points`` nodes is used
    (nodes and weights are stored so downstream integrals reuse them); an
    explicit grid gets trapezoid weights and must have at least 512 points
    inside [0, D_eg].
    """
    delta = provider.delta_eg_au
    if grid is None:
        omega, weights = _gl_grid(delta, n_points)
    else:
        omega = np.asarray(grid, dtype=float)
        if omega.size < 512:
            raise ValueError(f"grid needs >= 512 points, got {omega.size}")
        if np.any(np.diff(omega) <= 0):
            raise ValueError("grid must be strictly increasing")
        if omega[0] < 0 or omega[-1] > delta * (1 + 1e-12):
            raise ValueError(f"grid must lie within [0, {delta}] hartree")
        weights = np.empty_like(omega)
        weights[1:-1] = (omega[2:] - omega[:-2]) / 2.0
        weights[0] = (omega[1] - omega[0]) / 2.0
        weights[-1] = (omega[-1] - omega[-2]) / 2.0
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
    normalized: bool = True

    @property
    def t_s(self) -> np.ndarray:
        return self.t_au * AU_TIME_S

    @property
    def abs(self) -> np.ndarray:
        return np.abs(self.values)


def correlation_function(
    spectrum: BiphotonSpectrum, t_grid=None, t_max_au: float = 40.0, n_t: int = 4096
) -> CorrelationSeries:
    """Fourier transform of the amplitude-level spectrum, normalized to C(0)=1.

    ``t_grid`` (a.u.) must be symmetric about zero; the default is uniform on
    [-t_max_au, t_max_au].  The frequency grid must resolve the fastest
    oscillation e^{i w t_max}: the largest node gap must stay below a quarter
    period, else the transform is silently wrong, so this raises instead.
    """
    if t_grid is None:
        t_grid = np.linspace(-t_max_au, t_max_au, n_t | 1)  # odd => contains 0
    t = np.asarray(t_grid, dtype=float)
    if not np.allclose(t, -t[::-1], atol=1e-12):
        raise ValueError("t_grid must be symmetric about 0")
    tmax = float(np.max(np.abs(t)))
    max_gap = float(np.max(np.diff(spectrum.omega_au)))
    if tmax > 0 and max_gap * tmax > math.pi / 2.0:
        raise ValueError(
            f"frequency grid too coarse for |t| <= {tmax}: node gap {max_gap:.3e} "
            f"exceeds the quarter-period pi/(2*t_max) = {math.pi / 2 / tmax:.3e}"
        )
    wf = spectrum.weights_au * spectrum.amplitude
    c = np.exp(1j * np.outer(t, spectrum.omega_au)) @ wf
    c0 = float(np.sum(wf))
    if c0 == 0.0:
        raise ValueError("spectrum integrates to zero; cannot normalize C(0)=1")
    return CorrelationSeries(t_au=t, values=c / c0)


@dataclass(frozen=True)
class CorrelationTime:
    width_au: float

    @property
    def width(self) -> Quantity:
        return Quantity(self.width_au * AU_TIME_S, "s")

    @property
    def half_width_au(self) -> float:
        return self.width_au / 2.0


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
    the envelope is Gamma(9/2)*(2/z)^{7/2}*J_{7/2}(z) with limit 1 at z -> 0.
    Used as the analytic oracle for the flat provider's correlation.
    """
    t = np.asarray(t_au, dtype=float)
    z = np.abs(t) * delta_au / 2.0
    small = z < 1e-8
    gamma_92 = 105.0 * math.sqrt(math.pi) / 16.0
    with np.errstate(invalid="ignore", divide="ignore"):
        env = gamma_92 * (2.0 / z) ** 3.5 * jv(3.5, z)
    env = np.where(small, 1.0, env)
    return np.exp(1j * delta_au * t / 2.0) * env


def two_photon_decay_rate(
    provider: DipoleChainProvider, n_points: int = 2048
) -> tuple[Quantity, Quantity]:
    """Two-photon decay rate and lifetime from a calibrated chain.

    Gamma = 4/(27*pi*c^6) * integral_0^D [w(D-w)]^3 |S(w)|^2 dw (a.u.); the
    prefactor carries the isotropic 1/3 contraction squared, the mode-density
    factors, and the 1/2 for photon exchange over the full-range integral.
    """
    if not provider.calibrated:
        raise UncalibratedProviderError(
            f"provider {provider.label()!r} is not calibrated in absolute a.u."
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


def angular_distribution(theta_rel):
    """Normalized pair relative-angle density 3(1+cos^2)sin/8 on [0, pi]."""
    theta = np.asarray(theta_rel, dtype=float)
    if np.any((theta < 0) | (theta > math.pi)):
        raise ValueError("theta must be in [0, pi]")
    return 3.0 / 8.0 * (1.0 + np.cos(theta) ** 2) * np.sin(theta)
