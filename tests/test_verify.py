import numpy as np
import pytest

from chaoslab.bounds import curie_weiss_constants, jw_rhs
from chaoslab.errors import DivergentIntegral
from chaoslab.meanfield import critical_coupling, magnetization, moment, tilted_measure
from chaoslab.metrics import quantile_from_density
from chaoslab.model import curie_weiss_model, gaussian_model
from chaoslab.verify import (bolley_villani_moment_check, jw_log_mgf,
                             linear_lsi_scan, magnetization_inverse,
                             marginal_t1_ratio_scan, nonlinear_lsi_scan,
                             phi_positivity_scan, psi_positivity_scan)
from conftest import J_CRIT
from oracles import nested_quad_jw_log_mgf

GRID = np.concatenate([-np.geomspace(0.01, 5.0, 6)[::-1],
                       np.geomspace(0.01, 5.0, 6)])


@pytest.fixture(scope="module")
def bundle128(quartic_model):
    return curie_weiss_constants(1.0, 1.0, 0.5 * J_CRIT, 128)


class TestNonlinearLsi:
    def test_zero_tilt_anchor(self, quartic_model, bundle128):
        rep = nonlinear_lsi_scan(quartic_model, bundle128, [0.0])
        assert abs(rep.lhs[0]) < 1e-10 and abs(rep.rhs[0]) < 1e-10

    def test_passes_with_verbatim_constants(self, quartic_model, bundle128):
        assert nonlinear_lsi_scan(quartic_model, bundle128, GRID).passed

    def test_inflated_rho_fails(self, quartic_model, bundle128):
        import dataclasses
        inflated = dataclasses.replace(bundle128, rho=100.0 * bundle128.rho)
        rep = nonlinear_lsi_scan(quartic_model, inflated,
                                 np.geomspace(0.001, 0.1, 8))
        assert not rep.passed


class TestLinearLsi:
    def test_gaussian_ratio_exact(self, gauss_model):
        b = type("B", (), {"rho0": 1.0})
        rep = linear_lsi_scan(gauss_model, b, [0.5, 1.0, 2.0])
        # Gaussian translates achieve equality in the LSI: I = 2 rho0 H.
        assert np.allclose(rep.lhs, rep.rhs, atol=1e-8)
        assert rep.passed

    def test_quartic_passes(self, quartic_model, bundle128):
        assert linear_lsi_scan(quartic_model, bundle128, GRID).passed


class TestMagnetizationInverse:
    def test_roundtrip(self, quartic_model):
        for h in (0.0, 0.4, -1.2, 2.5):
            ell = magnetization_inverse(quartic_model, h)
            assert magnetization(quartic_model, ell) == pytest.approx(h, abs=1e-10)


class TestPhiPositivity:
    def test_anchor_zero(self, quartic_model):
        rep = phi_positivity_scan(quartic_model, None, [1e-12])
        assert abs(rep.rhs[0]) < 1e-10

    def test_passes_near_critical(self):
        m = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        rep = phi_positivity_scan(m, None, np.geomspace(0.01, 3.0, 8))
        assert rep.passed

    def test_eps_one_fails_near_critical(self):
        m = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        rep = phi_positivity_scan(m, 1.0, np.geomspace(0.01, 3.0, 12))
        assert not rep.passed


class TestPsiPositivity:
    def test_anchor_zero(self, quartic_model):
        from chaoslab.verify import solve_interpolated_fixed_point
        m = curie_weiss_model(1.0, 1.0, 0.8 * J_CRIT)
        h_star = solve_interpolated_fixed_point(m, 0.0, 0.0)
        rep = psi_positivity_scan(m, 0.0, 0.0, [h_star])
        assert abs(rep.rhs[0]) < 1e-10

    def test_alpha_zero_passes(self):
        m = curie_weiss_model(1.0, 1.0, 0.8 * J_CRIT)
        grid = np.concatenate([-np.geomspace(0.01, 3, 6)[::-1],
                               np.geomspace(0.01, 3, 6)])
        assert psi_positivity_scan(m, 0.0, 0.0, grid).passed

    def test_alpha_half_passes(self):
        m = curie_weiss_model(1.0, 1.0, 0.8 * J_CRIT)
        assert psi_positivity_scan(m, 0.5, 1.0, np.geomspace(0.01, 3, 8)).passed


class TestJwLogMgf:
    def test_weak_coupling_vanishes(self):
        m = curie_weiss_model(1.0, 1.0, 1e-6)
        assert abs(jw_log_mgf(m, 16)) < 1e-5

    def test_gaussian_determinant_value(self, gauss_model):
        assert jw_log_mgf(gauss_model, 16) == pytest.approx(
            -0.5 * np.log(1 - 0.5), abs=1e-8)

    def test_frozen_quartic_values(self, quartic_model):
        assert jw_log_mgf(quartic_model, 16) == pytest.approx(
            0.34236805701379813, abs=1e-9)
        assert jw_log_mgf(quartic_model, 64) == pytest.approx(
            0.34547721192367986, abs=1e-9)

    @pytest.mark.parametrize("frac", [0.5, 0.9])
    @pytest.mark.parametrize("n", [16, 1024])
    def test_matches_nested_quadrature_oracle(self, frac, n):
        m = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
        assert jw_log_mgf(m, n) == pytest.approx(nested_quad_jw_log_mgf(m, n),
                                                 abs=1e-11)

    @pytest.mark.parametrize("n", [16, 1024])
    def test_gaussian_closed_form_tight(self, gauss_model, n):
        assert jw_log_mgf(gauss_model, n) == pytest.approx(
            -0.5 * np.log(1 - 0.5), abs=1e-12)

    def test_increasing_in_j(self):
        vals = []
        for frac in (0.2, 0.4, 0.6, 0.8):
            m = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
            vals.append(jw_log_mgf(m, 32))
        assert np.all(np.diff(vals) > 0)

    def test_bound_holds(self, quartic_model):
        J = quartic_model.coupling
        eps = min(J_CRIT / J - 1.0, 1.0) / 2.0
        var = moment(tilted_measure(quartic_model, 0.0), 2)
        assert jw_log_mgf(quartic_model, 64) <= jw_rhs(eps, J, var) + 1e-9


class TestBolleyVillani:
    def test_gaussian_boundary_equality(self):
        from scipy.stats import norm
        rho0 = 1.7
        q = lambda u: norm.ppf(u, scale=1.0 / np.sqrt(rho0))
        val = bolley_villani_moment_check(q, rho0, 0.0)
        assert val == pytest.approx(np.sqrt(2), abs=5e-4)
        assert val <= np.sqrt(2) * 1.0 + 5e-4

    def test_smaller_variance_strictly_below(self):
        from scipy.stats import norm
        rho = 1.0
        q = lambda u: norm.ppf(u, scale=np.sqrt(1.0 / (2 * rho)))
        assert bolley_villani_moment_check(q, rho, 0.0) < np.sqrt(2) - 0.1

    def test_marginal_with_pipeline_constants(self, quartic_model, bundle128):
        from chaoslab.marginals import build_mixture, marginal_grid_density
        law = build_mixture(quartic_model, 32)
        g = marginal_grid_density(law)
        q = quantile_from_density(
            lambda x: np.interp(x, g.xs, g.values, left=0.0, right=0.0),
            g.lo, g.hi)
        val = bolley_villani_moment_check(q, bundle128.lambda_n / 2.0,
                                          2.0 * bundle128.delta_n)
        assert val <= np.sqrt(2) * np.exp(2.0 * bundle128.delta_n)

    def test_heavy_tail_rejected(self):
        q = lambda u: np.tan(np.pi * (np.asarray(u) - 0.5))  # Cauchy
        with pytest.raises(DivergentIntegral):
            bolley_villani_moment_check(q, 4.0, 0.0)


class TestMarginalT1:
    def test_passes_and_margin_scale(self, quartic_model, bundle128):
        rep = marginal_t1_ratio_scan(quartic_model, 128, bundle128,
                                     np.linspace(-0.5, 0.5, 5))
        assert rep.passed
        # Shrinking the constant below the measured min ratio must fail.
        ratios = rep.lhs[rep.rhs > 0] / rep.rhs[rep.rhs > 0]
        worst = ratios.max()
        assert worst <= 1.0
        scaled = rep.rhs * (0.9 * worst)
        assert np.min(scaled - rep.lhs) < -1e-9

    def test_single_point_grid(self, quartic_model, bundle128):
        rep = marginal_t1_ratio_scan(quartic_model, 128, bundle128, [0.0])
        assert len(rep.grid) == 1
        assert rep.passed
