"""Gauss-Legendre rules on [0, length], the one rule builder of the package."""

from __future__ import annotations

from ._numpy import LazyNumpy

np = LazyNumpy(globals())


def gauss_legendre(n: int, length: float):
    """Nodes and weights of the n-point Gauss-Legendre rule mapped to [0, length]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * length * (x + 1.0), 0.5 * length * w
