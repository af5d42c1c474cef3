import numpy as np
import pytest

from chaoslab.errors import GridResolution
from chaoslab.meanfield import (LogPartition, critical_coupling,
                                ghs_concavity_check, magnetization,
                                magnetization_derivative, moment, pi_map_mean,
                                solve_fixed_point, tilted_measure)
from chaoslab.model import curie_weiss_model, gaussian_model
from conftest import F_AT_1, H_STAR_SUPER, J_CRIT, X2_MOMENT


class TestMoments:
    def test_zeroth_moment(self, quartic_model):
        assert moment(tilted_measure(quartic_model, 0.0), 0) == 1.0

    def test_odd_moment_vanishes(self, quartic_model):
        assert abs(moment(tilted_measure(quartic_model, 0.0), 1)) < 1e-10

    def test_second_moment_regression(self, quartic_model):
        assert moment(tilted_measure(quartic_model, 0.0), 2) == pytest.approx(
            X2_MOMENT, abs=1e-10)

    def test_variance_positive(self, quartic_model, rng):
        for t in rng.uniform(-3, 3, size=5):
            mu = tilted_measure(quartic_model, t)
            assert moment(mu, 2) - moment(mu, 1) ** 2 > 0

    def test_power_range(self, quartic_model):
        with pytest.raises(ValueError):
            moment(tilted_measure(quartic_model, 0.0), 9)


class TestLogPartition:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0])
    def test_gaussian_closed_form(self, sigma):
        zs = np.linspace(-20.0, 20.0, 81)
        exact = zs**2 / (2.0 * sigma) + 0.5 * np.log(2.0 * np.pi / sigma)
        got = LogPartition(gaussian_model(sigma, 0.1 * sigma))(zs)
        assert np.all(np.abs(got - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))

    def test_query_order_does_not_matter(self, quartic_model):
        small_first = LogPartition(quartic_model)
        a0 = small_first.cgf(0.0)
        a20 = small_first.cgf(np.array([-20.0, 20.0]))
        large_first = LogPartition(quartic_model)
        b20 = large_first.cgf(np.array([-20.0, 20.0]))
        b0 = large_first.cgf(0.0)
        assert a0 == b0 == 0.0
        np.testing.assert_allclose(a20, b20, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(
            large_first(np.array([0.0, 20.0])),
            LogPartition(quartic_model)(np.array([0.0, 20.0])), rtol=1e-14, atol=0.0)

    def test_matches_adaptive_quadrature(self, quartic_model):
        kernel = LogPartition(quartic_model)
        for z in (0.0, 0.7, -3.0, 12.0):
            assert kernel(z) == pytest.approx(tilted_measure(quartic_model, z).log_z,
                                              abs=1e-10)

    def test_fixed_window_does_not_grow(self, quartic_model):
        kernel = LogPartition(quartic_model, (-8.0, 8.0))
        kernel(np.array([-30.0, 30.0]))
        assert kernel.window == (-8.0, 8.0)

    def test_underresolved_window_raises(self):
        with pytest.raises(GridResolution):
            LogPartition(gaussian_model(1e8, 1.0))(0.0)

    def test_failed_growth_keeps_raising(self):
        # sd 0.01: resolved on the z = 0 window, not once z = 1e5 widens it.
        kernel = LogPartition(gaussian_model(1e4, 1.0))
        before = kernel(0.0)
        for _ in range(2):
            with pytest.raises(GridResolution):
                kernel(1e5)
        assert kernel(0.0) == before


class TestMagnetization:
    def test_zero_at_origin(self, quartic_model):
        assert abs(magnetization(quartic_model, 0.0)) < 1e-12

    def test_oddness(self, quartic_model):
        for h in (0.3, 1.0, 2.5):
            assert magnetization(quartic_model, -h) == pytest.approx(
                -magnetization(quartic_model, h), abs=1e-10)

    def test_frozen_value(self, quartic_model):
        assert magnetization(quartic_model, 1.0) == pytest.approx(F_AT_1, abs=1e-10)

    def test_strictly_increasing(self, quartic_model):
        hs = np.linspace(-2, 2, 9)
        vals = [magnetization(quartic_model, h) for h in hs]
        assert np.all(np.diff(vals) > 0)


class TestMagnetizationDerivative:
    def test_value_at_zero(self, quartic_model, quartic_jc):
        expected = quartic_model.coupling / quartic_jc
        assert magnetization_derivative(quartic_model, 0.0) == pytest.approx(
            expected, abs=1e-10)

    def test_matches_finite_difference(self, quartic_model):
        h, step = 0.7, 1e-5
        fd = (magnetization(quartic_model, h + step)
              - magnetization(quartic_model, h - step)) / (2 * step)
        assert magnetization_derivative(quartic_model, h) == pytest.approx(fd, rel=1e-6)

    def test_positive_on_grid(self, quartic_model):
        for h in np.linspace(-5, 5, 11):
            assert magnetization_derivative(quartic_model, h) > 0

    def test_maximal_at_zero(self, quartic_model):
        f0 = magnetization_derivative(quartic_model, 0.0)
        for h in np.linspace(0.2, 4, 8):
            assert magnetization_derivative(quartic_model, h) <= f0 + 1e-8


class TestCriticalCoupling:
    def test_pure_gaussian_unit(self):
        assert critical_coupling(gaussian_model(1.0, 0.1)) == pytest.approx(1.0, abs=1e-9)

    def test_pure_gaussian_scaled(self):
        assert critical_coupling(gaussian_model(2.5, 0.1)) == pytest.approx(2.5, abs=1e-8)

    def test_quartic_regression(self, quartic_model):
        assert critical_coupling(quartic_model) == pytest.approx(J_CRIT, abs=1e-9)


class TestFixedPoint:
    def test_subcritical_is_centered(self, quartic_model):
        res = solve_fixed_point(quartic_model, tol=1e-10)
        assert abs(res.h_star) <= 1e-9
        assert abs(res.residual) <= 1e-10

    def test_zero_coupling(self):
        m = curie_weiss_model(1.0, 1.0, 0.0)
        res = solve_fixed_point(m, tol=1e-10)
        assert res.h_star == pytest.approx(0.0, abs=1e-12)
        assert res.iterations == 1

    def test_supercritical_branch(self):
        m = curie_weiss_model(1.0, 1.0, 1.5 * J_CRIT)
        res = solve_fixed_point(m, tol=1e-10, h0=1.0)
        assert res.h_star == pytest.approx(H_STAR_SUPER, abs=1e-8)


class TestPiMap:
    def test_zero(self, quartic_model):
        assert abs(pi_map_mean(quartic_model, 0.0)) < 1e-12

    def test_idempotent_at_fixed_point(self, quartic_model):
        res = solve_fixed_point(quartic_model, tol=1e-10)
        assert pi_map_mean(quartic_model, res.h_star) == pytest.approx(
            res.h_star, abs=1e-9)

    def test_equals_magnetization(self, quartic_model):
        assert pi_map_mean(quartic_model, 0.8) == magnetization(quartic_model, 0.8)


class TestGhsConcavity:
    def test_subcritical_quartic(self, quartic_model):
        rep = ghs_concavity_check(quartic_model, np.linspace(0.1, 5, 12))
        assert rep.passed

    def test_double_well(self):
        m = curie_weiss_model(1.0, -2.0, 0.5)
        rep = ghs_concavity_check(m, np.linspace(0.1, 5, 12))
        assert rep.passed

    def test_convexity_on_negative_axis(self, quartic_model):
        grid = np.linspace(0.1, 3, 8)
        rep = ghs_concavity_check(quartic_model, grid)
        # f odd implies f'' odd: second differences at -h are the negatives.
        fd = 1e-2
        for h, d in zip(rep.grid, rep.second_differences):
            fm = magnetization(quartic_model, -h - fd)
            f0 = magnetization(quartic_model, -h)
            fp = magnetization(quartic_model, -h + fd)
            neg = (fp - 2 * f0 + fm) / fd**2
            assert neg == pytest.approx(-d, abs=1e-8)
            assert neg >= -1e-6
