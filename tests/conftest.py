"""Hypothesis draws the same examples on every run, so no verdict depends
on a random draw or on examples replayed from a local database.  Also holds
the helpers more than one test file reads."""

import math
from collections import Counter

import pytest
from hypothesis import settings

from biphoton import quadrature

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def count_rule_builds(mp) -> Counter:
    """Count the Gauss-Legendre rules built, by (n, length), at
    ``quadrature.gauss_legendre``, the one binding the package builds rules
    through.  A rule above 2048 nodes fails with an AssertionError, which is
    neither a numerical nor a configuration error, so the CLI lets it out."""
    builds, build = Counter(), quadrature.gauss_legendre

    def counting(n, length):
        assert n <= 2048, f"built a {n}-node rule"
        builds[n, length] += 1
        return build(n, length)

    mp.setattr(quadrature, "gauss_legendre", counting)
    return builds


@pytest.fixture
def rule_builds(monkeypatch):
    return count_rule_builds(monkeypatch)


def lz_leakage_rate(t_s, omega_hz, bandwidth_hz, pulse_duration_s):
    """The Landau-Zener leakage rate that ``schemes.lz_integral`` integrates
    in closed form, in Hz and seconds."""
    g = math.sqrt(bandwidth_hz / (4.0 * math.pi * pulse_duration_s))
    d = t_s * bandwidth_hz / pulse_duration_s
    return omega_hz**2 * g / (d * d + g * g / 4.0)
