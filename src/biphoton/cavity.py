"""Spheroid-cavity ray and polarization transport.

A photon emitted at one focus of a prolate spheroid reflects once and passes
through the other focus.  Rays are parameterized by the angles (theta, phi)
of the surface point, with

    k  = (b sin(t) cos(p), b sin(t) sin(p), l + a cos(t)) / L+
    k' = (-b sin(t) cos(p), -b sin(t) sin(p), l - a cos(t)) / L-
    L+- = sqrt(b^2 sin^2(t) + (l -+ a cos(t))^2),   l = sqrt(a^2 - b^2)

k' points from the surface toward the second focus.  (The same construction
is sometimes written with the opposite sign on the z component of k'; that
variant does not pass through the second focus and is not used here.)

The polarization basis is eps1 (s, perpendicular to the plane of incidence),
eps2 = k x eps1, and the transported basis eps1' = eps1, eps2' = k' x eps1'.
A perfect mirror maps the s component to -eps1' and the p component to +eps2'
(tangential field flips, normal field survives); the relative sign between
the two channels is what the geometry factor is sensitive to.  ``convention=
"printed"`` drops the s-channel sign flip and is kept only for comparison:
it shifts the sphere value from 64*pi^2/27 to 32*pi^2/27 and breaks the
monotone decrease of the curve.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

from . import quadrature
from ._numpy import LazyNumpy

np = LazyNumpy(globals())

__all__ = [
    "Spheroid",
    "ThetaConvergenceError",
    "angular_jacobian",
    "theta_factor_quadrature",
    "theta_factor_mc",
    "theta_curve",
    "THETA_SPHERE",
    "THETA_PLATEAU",
]

THETA_SPHERE = 64.0 * math.pi**2 / 27.0
THETA_PLATEAU = 8.0 * math.pi**2 / 9.0


class ThetaConvergenceError(RuntimeError):
    def __init__(self, msg, estimate):
        super().__init__(msg)
        self.estimate = estimate


@dataclass(frozen=True)
class Spheroid:
    """Prolate spheroid with semi-major axis a (along z) and semi-minor b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= self.b > 0):
            raise ValueError(f"need finite a >= b > 0, got a={self.a}, b={self.b}")

    @property
    def l(self) -> float:
        """Focal half-distance sqrt(a^2 - b^2)."""
        return math.sqrt(self.a**2 - self.b**2)

    @property
    def ratio(self) -> float:
        return self.a / self.b


def _pol_basis(s: Spheroid, theta, phi):
    """Polarization basis (e1, e2, e2', L+, L-) where theta and phi broadcast
    together; e1' = e1.

    L+- and the theta factors keep theta's shape, so a column of theta nodes
    against a row of phi nodes takes n_theta + n_phi sines and square roots.
    """
    a, b, l = s.a, s.b, s.l
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    zp, zm = l + a * ct, a * ct - l
    lp = np.sqrt(b * b * st * st + zp**2)
    lm = np.sqrt(b * b * st * st + zm**2)
    e1, e2, e2p = np.empty((3, 3, *np.broadcast_shapes(np.shape(st), np.shape(sp))))
    e1[0], e1[1], e1[2] = -sp, cp, 0.0
    e2[0], e2[1], e2[2] = -zp * cp, -zp * sp, b * st
    e2p[0], e2p[1], e2p[2] = zm * cp, zm * sp, -b * st
    e2 /= lp
    e2p /= lm
    return e1, e2, e2p, lp, lm


def _frames(s: Spheroid, theta, phi):
    """Vectorized ray/polarization frames; returns a dict of arrays."""
    a, b, l = s.a, s.b, s.l
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    e1, e2, e2p, lp, lm = _pol_basis(s, theta, phi)
    k = np.stack([b * st * cp, b * st * sp, l + a * ct]) / lp
    kp = np.stack([-b * st * cp, -b * st * sp, l - a * ct]) / lm
    return {"k": k, "kp": kp, "e1": e1, "e2": e2, "e1p": e1, "e2p": e2p,
            "lp": lp, "lm": lm}


def angular_jacobian(s: Spheroid, theta):
    """d(solid angle)/(dtheta dphi): the bracketed surface factor times sin(theta).

    Integrates to 4*pi over the full parameter range for any aspect ratio.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any((theta < 0) | (theta > math.pi)):
        raise ValueError("theta must be in [0, pi]")
    a, l = s.a, s.l
    st, ct = np.sin(theta), np.cos(theta)
    lp = np.sqrt(s.b**2 * st * st + (l + a * ct) ** 2)
    return (a / lp - l * (l + a * ct) * (a + l * ct) / lp**3) * st


def _pol_tensor_sum(s: Spheroid, theta, phi, convention: str):
    """sum_i sigma_i eps_i (x) eps_i' at each point; shape (3, 3, ...).

    e1 = (-sin(phi), cos(phi), 0) does not depend on theta, so e1 (x) e1 is
    formed on phi's shape and added in place to e2 (x) e2', broadcast over
    theta.  A level then holds two full-size tensors, the basis block and the
    result: a traced peak of 4.8 MiB at 512 x 64 and 19 MiB at 2048 x 64
    (a full-size e1 (x) e1 as a third would take 7.0 and 28 MiB).  The
    elementwise products and sums are those of the full-size form, so the
    result has the same bits.
    """
    e1, e2, e2p, _lp, _lm = _pol_basis(s, theta, phi)
    sign_s = -1.0 if convention == "physical" else 1.0
    t = np.einsum("a...,b...->ab...", e2, e2p)
    e1 = e1[(..., *map(slice, np.shape(phi)))]  # phi's extent on phi's axes
    t += sign_s * np.einsum("a...,b...->ab...", e1, e1)
    return t


def _pol_tensor_mean(s: Spheroid, theta, phi, convention: str) -> np.ndarray:
    """Mean of ``_pol_tensor_sum`` over 1-D points, as two (3, n) @ (n, 3)
    matrix products instead of a (3, 3, n) tensor."""
    e1, e2, e2p, _lp, _lm = _pol_basis(s, theta, phi)
    sign_s = -1.0 if convention == "physical" else 1.0
    # keep this (sign_s * e1) @ e1.T: numpy sends x @ x.T on one buffer to
    # BLAS syrk, which sums in another order than gemm and moves every MC pin
    return (sign_s * e1 @ e1.T + e2 @ e2p.T) / len(theta)


def _check_convention(convention: str):
    if convention not in ("physical", "printed"):
        raise ValueError(f"convention must be 'physical' or 'printed', got {convention!r}")


# node count -> theta rule, shared by the ratios of one theta_curve call and
# unset outside it, so a standalone quadrature builds its own rules
_CURVE_RULES: ContextVar[dict] = ContextVar("_CURVE_RULES")


def _grid(n_theta: int, n_phi: int):
    rules = _CURVE_RULES.get({})
    if n_theta not in rules:
        rules[n_theta] = quadrature.gauss_legendre(n_theta, math.pi)
    th, wth = rules[n_theta]
    ph = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wph = np.full(n_phi, 2.0 * math.pi / n_phi)
    return th, wth, ph, wph


def _theta_on_grid(s: Spheroid, n_theta: int, n_phi: int, convention: str) -> float:
    th, wth, ph, wph = _grid(n_theta, n_phi)
    w = np.outer(wth, wph) * angular_jacobian(s, th)[:, None]
    t = _pol_tensor_sum(s, th[:, None], ph[None, :], convention)
    m = np.einsum("abxy,xy->ab", t, w)
    return float((m * m).sum()) / 9.0


def _theta_literal(s: Spheroid, n_theta: int, n_phi: int, convention: str) -> float:
    """Direct double-angle evaluation of the polarization integral (debug path).

    O(N^2) in grid points; use small grids.  Kept to check the factorized
    single-photon-tensor evaluation against the integral as written.
    """
    th, wth, ph, wph = _grid(n_theta, n_phi)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    w = (np.outer(wth, wph) * angular_jacobian(s, tt)).ravel()
    f = _frames(s, tt, pp)
    sign = np.array([-1.0 if convention == "physical" else 1.0, 1.0])
    e = np.stack([f["e1"], f["e2"]], axis=1).reshape(3, 2, -1)      # (3, i, x)
    ep = np.stack([f["e1p"], f["e2p"]], axis=1).reshape(3, 2, -1)
    ep = ep * sign[None, :, None]
    dot = np.einsum("aix,ajy->ixjy", e, e)
    dotp = np.einsum("aix,ajy->ixjy", ep, ep)
    return float(np.einsum("ixjy,ixjy,x,y->", dot, dotp, w, w)) / 9.0


def theta_factor_quadrature(
    s: Spheroid,
    rel_tol: float = 1e-9,
    convention: str = "physical",
    literal: bool = False,
) -> float:
    """Geometry factor Theta by adaptive tensor-product quadrature.

    Sphere limit is 64*pi^2/27; the large-aspect-ratio plateau is 8*pi^2/9.
    The theta node count doubles from 32 (n_phi from 16, capped at 64) until
    two levels agree to ``rel_tol``.  The finest level is 2048 x 64: past
    n_theta = 512 the level-to-level change is roundoff (about 1e-11 at
    a/b = 148), so a ``rel_tol`` below that floor raises
    ``ThetaConvergenceError`` after the 2048-node level instead of building
    ever larger rules.

    A level's working set is two (3, 3, n_theta, n_phi) tensors (see
    ``_pol_tensor_sum``): 4.8 MiB traced at 512 x 64 and 19 MiB at 2048 x 64.
    Building the 2048-node rule takes a transient of about 64 MiB in
    ``leggauss``, which stays the ceiling of a run that reaches that level.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError("rel_tol must be finite and positive")
    _check_convention(convention)
    if literal:
        return _theta_literal(s, 48, 24, convention)
    n_theta, n_phi = 32, 16
    prev = _theta_on_grid(s, n_theta, n_phi, convention)
    while n_theta <= 1024:
        n_theta, n_phi = 2 * n_theta, min(2 * n_phi, 64)
        cur = _theta_on_grid(s, n_theta, n_phi, convention)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise ThetaConvergenceError(
        f"theta quadrature did not reach rel_tol={rel_tol} "
        f"for aspect ratio {s.ratio}", estimate=prev,
    )


def _theta_cdf(s: Spheroid, n: int = 8192):
    """Cumulative distribution of the theta marginal of the solid angle."""
    u = np.linspace(0.0, 1.0, n)
    th = 0.5 * math.pi * (1.0 - np.cos(math.pi * u))  # clusters at both poles
    pdf = angular_jacobian(s, th)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(th) / 2.0)])
    cdf /= cdf[-1]
    return th, cdf


_BATCHES = 32
# Draws evaluated at once.  A slice's 1-D float64 work arrays are then 64 KB
# each, and _pol_basis holds its e1, e2 and e2' as one (3, 3, 2**13) block of
# 576 KB, above glibc's default 128 KB mmap threshold.  A slice's
# _pol_tensor_mean peaks at 1.3 MB traced, which fits a 2 MB per-core L2 cache.
_SLICE = 2**13


def theta_factor_mc(
    s: Spheroid,
    n_samples: int,
    seed: int = 42,
    convention: str = "physical",
    n_workers: int = 1,
) -> tuple[float, float]:
    """Monte-Carlo estimate of Theta with a bootstrap standard error.

    Emission directions are drawn from the true solid-angle density via an
    inverse-CDF table in theta (phi is uniform).  Work is split into a fixed
    number of batches, each with its own counter-derived substream, so the
    result is bit-identical for a given seed regardless of ``n_workers``.
    A batch is evaluated in slices of at most 2**13 draws, so the memory a
    worker holds does not grow with ``n_samples``.  Up to 32 * 2**13 =
    262,144 samples a batch is one slice; larger runs differ from an unsliced
    evaluation only in summation order.
    """
    if n_samples < 1000:
        raise ValueError("need n_samples >= 1000")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    _check_convention(convention)
    th_grid, cdf = _theta_cdf(s)
    sizes = np.full(_BATCHES, n_samples // _BATCHES)
    sizes[: n_samples % _BATCHES] += 1

    def run_batch(b: int) -> np.ndarray:
        n = int(sizes[b])
        u_rng = np.random.default_rng([seed, b])
        # phi continues the batch's stream where its n theta draws end
        phi_rng = np.random.Generator(np.random.PCG64([seed, b]).advance(n))
        mean = np.zeros((3, 3))
        for start in range(0, n, _SLICE):
            m = min(_SLICE, n - start)
            u = u_rng.random(m)
            # interpolate the draws in sorted order, then put theta back in draw order
            order = np.argsort(u)
            theta = np.empty(m)
            theta[order] = np.interp(u[order], cdf, th_grid)
            phi = phi_rng.random(m) * 2.0 * math.pi
            mean += m / n * _pol_tensor_mean(s, theta, phi, convention)
        return mean

    # imported here, not at the top: it loads threading and logging
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        means = np.stack(list(pool.map(run_batch, range(_BATCHES))))  # (batch, 3, 3)
    weights = sizes / sizes.sum()

    def theta_of(mean_t: np.ndarray):
        m = 4.0 * math.pi * mean_t
        return (m * m).sum(axis=(-2, -1)) / 9.0

    estimate = float(theta_of(np.einsum("b,bij->ij", weights, means)))

    boot_rng = np.random.default_rng([seed, 2**31])
    resamples = boot_rng.integers(0, _BATCHES, size=(500, _BATCHES))
    boot = theta_of(means[resamples].mean(axis=1))
    return estimate, float(boot.std(ddof=1))


def theta_curve(ratios, rel_tol: float = 1e-7) -> list[dict]:
    """Theta over a list of aspect ratios a/b >= 1 (quadrature).

    Every ratio is checked before the first quadrature, and each level's
    Gauss-Legendre rule is built once and shared by all ratios of the call.
    """
    spheroids = []
    for r in ratios:
        if r < 1:
            raise ValueError(f"aspect ratio must be >= 1, got {r}")
        spheroids.append(Spheroid(float(r), 1.0))
    token = _CURVE_RULES.set({})
    try:
        return [{"ratio": s.a, "theta": theta_factor_quadrature(s, rel_tol=rel_tol),
                 "method": "quadrature", "stderr": 0.0} for s in spheroids]
    finally:
        _CURVE_RULES.reset(token)
