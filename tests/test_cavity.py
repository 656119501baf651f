import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest

from biphoton import cavity
from biphoton.cavity import (
    Spheroid,
    THETA_PLATEAU,
    THETA_SPHERE,
    _frames,
    _grid,
    _pol_basis,
    _pol_tensor_mean,
    _pol_tensor_sum,
    angular_jacobian,
    theta_curve,
    theta_factor_mc,
    theta_factor_quadrature,
)


class TestSpheroid:
    def test_focal_distance(self):
        assert Spheroid(2.0, 1.0).l == pytest.approx(math.sqrt(3.0))
        assert Spheroid(1.0, 1.0).l == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Spheroid(1.0, 2.0)
        with pytest.raises(ValueError):
            Spheroid(1.0, 0.0)
        for a, b in [(math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="finite"):
                Spheroid(a, b)


class TestEmissionRay:
    """Ray geometry of the frames ``_frames`` builds."""

    def test_sphere_backreflection(self):
        f = _frames(Spheroid(1.0, 1.0), 0.7, 1.3)
        assert np.allclose(f["kp"], -f["k"], atol=1e-12)
        assert np.allclose(f["e2p"], -f["e2"], atol=1e-12)

    def test_symmetry_point(self):
        f = _frames(Spheroid(2.0, 1.0), math.pi / 2.0, 0.0)
        assert f["lp"] == pytest.approx(2.0, rel=1e-12)
        assert f["lm"] == pytest.approx(2.0, rel=1e-12)

    def test_reflected_ray_hits_second_focus(self):
        s = Spheroid(3.0, 1.3)
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.0, math.pi, 100)
        phi = rng.uniform(0.0, 2.0 * math.pi, 100)
        f = _frames(s, theta, phi)
        surface = np.stack([s.b * np.sin(theta) * np.cos(phi),
                            s.b * np.sin(theta) * np.sin(phi),
                            s.l + s.a * np.cos(theta)])
        # first focus sits at the origin; the second at z = 2l
        reach = surface + f["lm"] * f["kp"]
        assert np.allclose(reach, [[0.0], [0.0], [2.0 * s.l]], atol=1e-12)


class TestJacobian:
    def test_sphere_is_sin(self):
        theta = np.linspace(0.0, math.pi, 64)
        assert np.allclose(angular_jacobian(Spheroid(1.0, 1.0), theta),
                           np.sin(theta), atol=1e-14)

    @pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 5.0, 20.0, 148.0])
    def test_solid_angle_conserved(self, ratio):
        s = Spheroid(ratio, 1.0)
        x, w = np.polynomial.legendre.leggauss(400)
        theta = 0.5 * math.pi * (x + 1.0)
        total = 2.0 * math.pi * 0.5 * math.pi * np.dot(
            w, angular_jacobian(s, theta))
        assert total == pytest.approx(4.0 * math.pi, rel=1e-9)

    def test_vanishes_at_poles(self):
        assert angular_jacobian(Spheroid(2.0, 1.0), 0.0) == 0.0
        assert angular_jacobian(Spheroid(2.0, 1.0), math.pi) == pytest.approx(
            0.0, abs=1e-12)


def theta_closed_form(ratio: float, convention: str) -> float:
    """Theta = (2 Mxx^2 + Mzz^2)/9 from the closed-form moments of the
    prolate spheroid with eccentricity e = sqrt(1 - (b/a)^2), in 50 digits;
    the printed convention adds 4 pi to Mxx."""
    with mpmath.workdps(50):
        e = mpmath.sqrt(1 - 1 / mpmath.mpf(ratio) ** 2)
        atanh_e = mpmath.atanh(e)
        mxx = mpmath.pi / (2 * e**3) * (e * (e**4 - 6 * e**2 + 1)
                                        - (1 - e**2) ** 2 * (1 + e**2) * atanh_e)
        mzz = mpmath.pi / e**3 * ((1 - e**2) ** 3 * atanh_e - e * (1 - e**4))
        if convention == "printed":
            mxx += 4 * mpmath.pi
        return float((2 * mxx**2 + mzz**2) / 9)


class TestThetaQuadrature:
    @pytest.mark.parametrize("convention", ["physical", "printed"])
    @pytest.mark.parametrize("ratio", [1.0001, 1.01, 2.0, 7.0, 40.0, 148.0])
    def test_matches_closed_form(self, ratio, convention):
        got = theta_factor_quadrature(Spheroid(ratio, 1.0), convention=convention)
        assert got == pytest.approx(theta_closed_form(ratio, convention), rel=1e-9)

    def test_sphere_value(self):
        got = theta_factor_quadrature(Spheroid(1.0, 1.0))
        assert got == pytest.approx(THETA_SPHERE, rel=1e-10)

    def test_plateau(self):
        got = theta_factor_quadrature(Spheroid(148.0, 1.0), rel_tol=1e-7)
        assert got == pytest.approx(THETA_PLATEAU, rel=0.02)
        sphere = theta_factor_quadrature(Spheroid(1.0, 1.0))
        assert sphere / got == pytest.approx(8.0 / 3.0, rel=0.02)

    def test_scale_invariance(self):
        a = theta_factor_quadrature(Spheroid(2.0, 1.0))
        b = theta_factor_quadrature(Spheroid(6.0, 3.0))
        assert a == pytest.approx(b, rel=1e-9)

    def test_printed_convention_halves_sphere(self):
        got = theta_factor_quadrature(Spheroid(1.0, 1.0), convention="printed")
        assert got == pytest.approx(THETA_SPHERE / 2.0, rel=1e-10)

    def test_literal_matches_factorized(self):
        for ratio in (1.0, 2.0):
            s = Spheroid(ratio, 1.0)
            lit = theta_factor_quadrature(s, literal=True)
            fac = theta_factor_quadrature(s)
            assert lit == pytest.approx(fac, rel=1e-8)

    def test_unreachable_tolerance_fails_after_the_2048_level(self, rule_builds):
        # at a/b = 148 the 2048 level changes Theta by 2.3e-12 on leggauss
        # rules and by 4e-14 on Newton-refined ones: 1e-15 is out of reach
        with pytest.raises(cavity.ThetaConvergenceError) as info:
            theta_factor_quadrature(Spheroid(148.0, 1.0), rel_tol=1e-15)
        assert math.isfinite(info.value.estimate)

    @pytest.mark.parametrize("convention", ["physical", "printed"])
    def test_level_working_set(self, convention):
        """A 512 x 64 level holds two (3, 3, n_theta, n_phi) tensors, the basis
        block and the summed tensor: 4.8 MiB traced, against 7.0 MiB with a
        full-size e1 (x) e1 as a third."""
        token = cavity._CURVE_RULES.set({})
        try:
            _grid(512, 64)  # build the rule outside the trace
            tracemalloc.start()
            try:
                cavity._theta_on_grid(Spheroid(148.0, 1.0), 512, 64, convention)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            cavity._CURVE_RULES.reset(token)
        assert peak <= 2.5 * 9 * 512 * 64 * 8

    def test_bad_args(self):
        with pytest.raises(ValueError):
            theta_factor_quadrature(Spheroid(2.0, 1.0), rel_tol=0.0)
        with pytest.raises(ValueError):
            theta_factor_quadrature(Spheroid(2.0, 1.0), convention="mirror")

    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan])
    def test_non_finite_rel_tol_rejected_before_any_rule(self, rel_tol, rule_builds):
        # with inf any two levels agree: the coarsest pair would be returned
        with pytest.raises(ValueError, match="rel_tol must be finite and positive"):
            theta_factor_quadrature(Spheroid(148.0, 1.0), rel_tol=rel_tol)
        assert rule_builds == Counter()


class TestThetaMC:
    @pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 4.0, 10.0])
    def test_agrees_with_quadrature(self, ratio):
        s = Spheroid(ratio, 1.0)
        est, se = theta_factor_mc(s, 1_000_000, seed=42)
        ref = theta_factor_quadrature(s)
        assert abs(est - ref) <= 3.0 * se

    def test_deterministic(self):
        s = Spheroid(2.0, 1.0)
        a = theta_factor_mc(s, 50_000, seed=11)
        b = theta_factor_mc(s, 50_000, seed=11)
        assert a == b

    def test_worker_count_independent(self):
        s = Spheroid(3.0, 1.0)
        a = theta_factor_mc(s, 50_000, seed=11, n_workers=1)
        b = theta_factor_mc(s, 50_000, seed=11, n_workers=4)
        assert a[0] == b[0]

    @pytest.mark.parametrize("convention", ["physical", "printed"])
    @pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-12, 3.0, 148.0])
    def test_batch_mean_matches_tensor_mean(self, ratio, convention):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.0, math.pi, 5000)
        phi = rng.uniform(0.0, 2.0 * math.pi, 5000)
        s = Spheroid(ratio, 1.0)
        got = _pol_tensor_mean(s, theta, phi, convention)
        ref = _pol_tensor_sum(s, theta, phi, convention).mean(axis=-1)
        assert got.shape == (3, 3)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n_workers", [0, -2])
    def test_worker_count_must_be_positive(self, n_workers):
        with pytest.raises(ValueError, match="n_workers"):
            theta_factor_mc(Spheroid(2.0, 1.0), 1000, n_workers=n_workers)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            theta_factor_mc(Spheroid(2.0, 1.0), 10)

    def test_slices_change_only_summation_order(self, monkeypatch):
        # 3125-draw batches in slices of 1000, 1000, 1000 and 125 draws
        s = Spheroid(2.5, 1.0)
        whole = theta_factor_mc(s, 100_000, seed=4, n_workers=2)
        monkeypatch.setattr(cavity, "_SLICE", 1000)
        sliced = theta_factor_mc(s, 100_000, seed=4, n_workers=2)
        np.testing.assert_allclose(sliced, whole, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_memory_does_not_grow_with_samples(self, n_workers):
        """3.2M samples in 100k-draw batches: 16 MB held at once unsliced,
        about 1.7 MB per worker in 2**13-draw slices."""
        tracemalloc.start()
        try:
            theta_factor_mc(Spheroid(2.0, 1.0), 3_200_000, seed=5, n_workers=n_workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestGridBasis:
    @pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-12, 148.0])
    def test_broadcast_matches_meshgrid_bit_for_bit(self, ratio):
        s = Spheroid(ratio, 1.0)
        th, _wth, ph, _wph = _grid(64, 32)
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        for grid, point in zip(_pol_basis(s, th[:, None], ph[None, :]),
                               _pol_basis(s, tt, pp)):
            grid = np.broadcast_to(grid, point.shape)
            np.testing.assert_array_equal(grid.view(np.int64), point.view(np.int64))

    @pytest.mark.parametrize("convention", ["physical", "printed"])
    @pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-12, 148.0])
    def test_tensor_sum_matches_meshgrid_bit_for_bit(self, ratio, convention):
        s = Spheroid(ratio, 1.0)
        th, _wth, ph, _wph = _grid(64, 32)
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        e1, e2, e2p, _lp, _lm = _pol_basis(s, tt, pp)
        sign_s = -1.0 if convention == "physical" else 1.0
        point = (sign_s * np.einsum("a...,b...->ab...", e1, e1)
                 + np.einsum("a...,b...->ab...", e2, e2p))
        grid = _pol_tensor_sum(s, th[:, None], ph[None, :], convention)
        assert grid.shape == point.shape
        np.testing.assert_array_equal(grid.view(np.int64), point.view(np.int64))


# theta_factor_mc(Spheroid(ratio, 1.0), 100_003, seed=9, convention=...)
MC_PINS = {
    (1.0, "physical"): (23.394692654029104, 0.00013686091400947625),
    (1.0, "printed"): (11.703471057011479, 0.041206530723823895),
    (2.5, "physical"): (9.2432448102828, 0.025942240688566973),
    (2.5, "printed"): (8.564636842349117, 0.02564252787523462),
    (148.0, "physical"): (8.822169363956357, 0.026544977367838517),
    (148.0, "printed"): (8.724095364862135, 0.026332229039967715),
}


class TestPinnedBits:
    """Theta and the Monte-Carlo results keep their recorded bits."""

    def test_curve_matches_benchmark_reference(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        reference = json.loads(path.read_text())["theta_curve"]
        rows = theta_curve(np.geomspace(1.0, 148.0, 25), rel_tol=1e-9)
        assert [row["theta"] for row in rows] == reference

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("ratio, convention", list(MC_PINS))
    def test_mc_matches_pinned_values(self, ratio, convention, n_workers):
        got = theta_factor_mc(Spheroid(ratio, 1.0), 100_003, seed=9,
                              convention=convention, n_workers=n_workers)
        assert got == MC_PINS[ratio, convention]


class TestThetaCurve:
    def test_monotone_and_endpoints(self):
        ratios = [1, 1.5, 2, 3, 5, 8, 12, 20, 40, 80, 148]
        rows = theta_curve(ratios, rel_tol=1e-7)
        values = [r["theta"] for r in rows]
        assert values[0] == pytest.approx(THETA_SPHERE, rel=1e-6)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(THETA_PLATEAU, rel=0.02)

    def test_rejects_sub_unit_ratio(self):
        with pytest.raises(ValueError):
            theta_curve([0.5])

    def test_checks_every_ratio_before_building_a_rule(self, rule_builds):
        for ratios in ([2.0, 0.5], [2.0, math.inf]):
            with pytest.raises(ValueError):
                theta_curve(ratios)
        assert rule_builds == Counter()

    def test_matches_standalone_quadrature_bit_for_bit(self, rule_builds):
        ratios = np.geomspace(1.0, 148.0, 25)
        rows = theta_curve(ratios, rel_tol=1e-9)
        # the curve builds each level's rule once for all its ratios
        assert rule_builds and set(rule_builds.values()) == {1}
        for r, row in zip(ratios, rows):
            assert row["ratio"] == r
            assert row["theta"] == theta_factor_quadrature(
                Spheroid(float(r), 1.0), rel_tol=1e-9)


class TestRuleLifetime:
    """The rules a theta_curve call shares live only for that call."""

    def test_standalone_quadratures_build_their_own_rules(self, rule_builds):
        s = Spheroid(3.0, 1.0)
        theta_factor_quadrature(s)
        first = Counter(rule_builds)
        theta_factor_quadrature(s)
        assert first and rule_builds == first + first

    def test_failed_curve_leaves_no_rules_behind(self, rule_builds, monkeypatch):
        quadrature, calls = cavity.theta_factor_quadrature, []

        def fail_on_second(s, **kwargs):
            calls.append(s.ratio)
            if len(calls) == 2:
                raise RuntimeError("stop")
            return quadrature(s, **kwargs)

        monkeypatch.setattr(cavity, "theta_factor_quadrature", fail_on_second)
        with pytest.raises(RuntimeError, match="stop"):
            theta_curve([2.0, 3.0])
        assert calls == [2.0, 3.0] and rule_builds
        assert cavity._CURVE_RULES.get(None) is None
        rule_builds.clear()
        quadrature(Spheroid(2.0, 1.0))
        assert rule_builds and set(rule_builds.values()) == {1}
