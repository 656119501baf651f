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

Gamma and C(t) are integrals over the emission window on one Gauss-Legendre
grid.  ``sized_spectrum`` sizes that grid by its error: it doubles n from 32,
or from the first level that resolves the time grid, until two levels agree,
and every caller that is given no grid size uses it.

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
    "SizedSpectrum",
    "provider_flat",
    "provider_pole",
    "PROVIDERS",
    "hydrogenic_scaled",
    "spectral_amplitude",
    "correlation_function",
    "correlation_time",
    "sized_spectrum",
    "two_photon_decay_rate",
    "flat_correlation_closed_form",
    "PoleInGridError",
    "UncalibratedProviderError",
    "SpectrumConvergenceError",
]

RATE_PREFACTOR = 4.0 / (27.0 * math.pi * C_AU**6)

# correlation_function writes the time index as k = _STEPS*a + b with
# 0 <= b < _STEPS, and forms the factors of _BLOCK_ROWS values of a at once
_STEPS = 64
_BLOCK_ROWS = 32


class PoleInGridError(ValueError):
    pass


class UncalibratedProviderError(ValueError):
    pass


class SpectrumConvergenceError(ArithmeticError):
    """No two grid levels of at most ``_MAX_N_POINTS`` nodes agree."""


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
    t_k = k*h, 0 <= k < K, h = t_max_au/(K - 1), is transformed, and the t < 0
    half is its mirror, t -> -t and C -> conj C.  With k = _STEPS*a + b,
    e^{i w t_k} = e^{i w _STEPS a h} e^{i w b h}, so the half grid is the
    matrix product G @ H with G[a, j] = w_j f_j e^{i w_j _STEPS a h} and
    H[j, b] = e^{i w_j b h}: (K/_STEPS + _STEPS)*n complex exponentials for n
    frequency nodes instead of K*n.  H is built once and G ``_BLOCK_ROWS``
    rows at a time, each block one complex matrix product, so memory grows
    with n and not with ``n_t``.  For He at t_max_au = 40 on 128 to 2048
    nodes it is within 1.3e-15 of the discrete sum summed to 30 digits, as
    the sum of one exponential per time point and node is.
    """
    _check_time_grid(t_max_au, n_t)
    omega = spectrum.omega_au
    max_gap = float(np.max(np.diff(omega)))
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
    h = t_max_au / (half.size - 1)
    rows = -(-half.size // _STEPS)
    step_table = _expi(omega, np.arange(_STEPS) * h)
    c_half = np.empty((rows, _STEPS), dtype=complex)
    for i in range(0, rows, _BLOCK_ROWS):
        block = _expi(np.arange(i, min(i + _BLOCK_ROWS, rows)) * (_STEPS * h), omega)
        block *= wf
        np.matmul(block, step_table, out=c_half[i:i + _BLOCK_ROWS])
    # freed before the outputs are allocated, so they leave no hole below them
    del step_table, block
    c_half = c_half.ravel()[:half.size]
    t = np.concatenate((-half[:0:-1], half))
    c = np.concatenate((np.conj(c_half[:0:-1]), c_half))
    return CorrelationSeries(t_au=t, values=c / c0)


def _expi(x, y):
    """The matrix e^{i x_r y_c}, exponentiated in place."""
    out = np.zeros((x.size, y.size), dtype=complex)
    np.outer(x, y, out=out.imag)
    return np.exp(out, out=out)


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


def _check_calibrated(provider: FlatChain | PoleChain) -> None:
    if isinstance(provider, FlatChain):
        raise UncalibratedProviderError(
            "provider 'flat' is not calibrated in absolute a.u."
        )


def two_photon_decay_rate(
    provider: FlatChain | PoleChain, n_points: int | None = None
) -> tuple[Quantity, Quantity]:
    """Two-photon decay rate and lifetime from a calibrated chain.

    Gamma = 4/(27*pi*c^6) * integral_0^D [w(D-w)]^3 |S(w)|^2 dw (a.u.); the
    prefactor carries the isotropic 1/3 contraction squared, the mode-density
    factors, and the 1/2 for photon exchange over the full-range integral.
    The integral runs on an ``n_points``-node rule, or, with ``n_points``
    None, on the grid ``sized_spectrum`` sizes by its error: 128 nodes for
    He, where Gamma is 6e-15 (relative) off a 30-digit mpmath integral (a
    fixed 2048-node rule is 1.6e-13 off, from ``leggauss``'s weights).
    """
    _check_calibrated(provider)
    if n_points is None:
        return _decay_rate(sized_spectrum(provider).spectrum)
    return _decay_rate(spectral_amplitude(provider, n_points=n_points))


def _gamma_au(spec: BiphotonSpectrum) -> float:
    """Gamma in a.u. integrated on the nodes of a sampled spectrum."""
    delta = spec.delta_eg_au
    s = spec.provider.chain_sum(spec.omega_au)
    integrand = (spec.omega_au * (delta - spec.omega_au)) ** 3 * s**2
    return RATE_PREFACTOR * float(np.dot(spec.weights_au, integrand))


def _decay_rate(spec: BiphotonSpectrum) -> tuple[Quantity, Quantity]:
    """Decay rate and lifetime integrated on the nodes of a sampled spectrum;
    its provider must be calibrated."""
    rate = Quantity(_gamma_au(spec) / AU_TIME_S, "1/s")
    return rate, Quantity(1.0 / rate.value, "s")


# The sizing loop's tolerances.  Two levels agree when Gamma moves by at most
# _GAMMA_RTOL of itself and C(t) by at most _C_ATOL (C(0) = 1).  Both sit
# above leggauss's own weight error, which moves Gamma by about 1.5e-13
# between the 1024-, 2048- and 4096-node rules: with a 1e-13 tolerance on
# Gamma, t_max_au = 1000 settled only at 8192 nodes.
_GAMMA_RTOL = 1e-12
_C_ATOL = 1e-13
_FIRST_LEVEL = 32


def _levels(delta_eg_au: float, t_max_au: float | None, path: str = "") -> list[int]:
    """The grid sizes ``sized_spectrum`` may try: 32, 64, ... up to
    ``_MAX_N_POINTS``, from the first that passes the quarter-period guard of
    ``correlation_function`` at ``t_max_au`` (from 32 without a time grid).

    An n-node rule on [0, D] has its widest gap at the centre, just under
    pi*D/(2n + 1), so n >= D*t_max - 1/2 passes the guard; the guard's real
    limit lies above that bound by 0.05% at n = 32 and by less at larger n.
    Raises ``ValueError`` when no level passes the guard, and
    ``SpectrumConvergenceError`` when only one does, since then no two levels
    can agree; ``path`` prefixes ``t_max_au`` in both messages.  Needs no
    numpy, so both fail before any rule is built.
    """
    need = delta_eg_au * t_max_au - 0.5 if t_max_au is not None else 0.0
    levels, n = [], _FIRST_LEVEL
    while n <= _MAX_N_POINTS:
        if n >= need:
            levels.append(n)
        n *= 2
    if not levels:
        raise ValueError(
            f"{path}t_max_au = {t_max_au:g} needs more than {_MAX_N_POINTS} frequency "
            f"nodes to pass the quarter-period guard; the largest t_max_au the "
            f"sized grid resolves is {(_MAX_N_POINTS + 0.5) / delta_eg_au:.4g}"
        )
    if len(levels) < 2:
        raise SpectrumConvergenceError(
            f"{path}t_max_au = {t_max_au:g} needs {levels[0]} frequency nodes, so the "
            f"grid cannot be sized by comparing two levels of at most "
            f"{_MAX_N_POINTS} nodes; set the number of nodes instead"
        )
    return levels


@dataclass(frozen=True)
class SizedSpectrum:
    """The spectrum on the finer of the first two grid levels that agree,
    its correlation on the requested time grid (None without one), and the
    level-to-level history: one ``(n, |dGamma|/Gamma, max|dC|)`` per level
    after the first, each against the level below it (max|dC| is 0.0
    without a time grid)."""

    spectrum: BiphotonSpectrum
    correlation: CorrelationSeries | None
    history: tuple[tuple[int, float, float], ...]

    @property
    def n(self) -> int:
        return self.spectrum.omega_au.size


def sized_spectrum(
    provider: FlatChain | PoleChain, t_max_au: float | None = None, n_t: int = 4096
) -> SizedSpectrum:
    """The spectrum on a grid sized by its error.

    Builds the spectrum at n = 32, 64, 128, ... (``_levels``) and at each
    level integrates Gamma and, when ``t_max_au`` is given, transforms C(t)
    on that time grid (``correlation_function``).  It stops at the first
    level whose Gamma is within ``_GAMMA_RTOL`` of the level below's,
    relative, and whose C(t) is within ``_C_ATOL`` of it at every t.  For He
    at t_max_au = 40 that is 128 nodes: 32 -> 64 moves Gamma by 1.7e-10 and
    C by 4.3e-12, 64 -> 128 by 7.7e-15 and 7.1e-16.  Raises
    ``SpectrumConvergenceError`` when no two levels of at most
    ``_MAX_N_POINTS`` nodes agree.
    """
    if t_max_au is not None:
        _check_time_grid(t_max_au, n_t)
    history, last = [], None
    for n in _levels(provider.delta_eg_au, t_max_au):
        spec = spectral_amplitude(provider, n_points=n)
        gamma = _gamma_au(spec)
        corr = (correlation_function(spec, t_max_au=t_max_au, n_t=n_t)
                if t_max_au is not None else None)
        if last is not None:
            last_gamma, last_corr = last
            # Gamma >= 0, and 0 only for a chain that vanishes at every node
            d_gamma = abs(gamma - last_gamma) / gamma if gamma else 0.0
            d_c = (float(np.max(np.abs(corr.values - last_corr.values)))
                   if corr is not None else 0.0)
            history.append((n, d_gamma, d_c))
            if d_gamma <= _GAMMA_RTOL and d_c <= _C_ATOL:
                return SizedSpectrum(spec, corr, tuple(history))
        last = gamma, corr
    n, d_gamma, d_c = history[-1]
    raise SpectrumConvergenceError(
        f"the spectrum grid did not settle by {n} nodes: the last level moved "
        f"Gamma by {d_gamma:.2g} relative (tolerance {_GAMMA_RTOL:g}) and C(t) "
        f"by {d_c:.2g} (tolerance {_C_ATOL:g})"
    )
