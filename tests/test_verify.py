import dataclasses

import numpy as np
import pytest

import chaoslab.marginals as marginals
import chaoslab.meanfield as meanfield
import chaoslab.numerics as numerics
import chaoslab.verify as verify
from chaoslab.bounds import jw_rhs
from chaoslab.cli import parse_config, run
from chaoslab.errors import (DivergentIntegral, GridResolution, RegimeViolation,
                             Supercritical)
from chaoslab.marginals import build_mixture
from chaoslab.meanfield import (LogPartition, critical_coupling, magnetization,
                                solve_fixed_point, tilted_measure)
from chaoslab.model import (MAX_PARTICLES, GeneralPotential, ModelSpec,
                            RankOneInteraction, curie_weiss_model, gaussian_model)
from chaoslab.numerics import FINE_POINTS, GridDensity
from chaoslab.verify import (bolley_villani_moment_check, jw_log_mgf, lsi_scans,
                             marginal_t1_ratio_scan, phi_positivity_scan,
                             psi_positivity_scan)
from conftest import J_CRIT, constants_of, counting_quartic
from oracles import (fisher_information_1d, full_read_jw_log_mgf, longdouble_jw_log_mgf,
                     magnetization_inverse, nested_quad_jw_log_mgf, phi_at_magnetizations,
                     solve_interpolated_fixed_point, t1_ratio_scan_per_tilt,
                     window_search_by_full_scans)


def stand_in_bundle(model, n=None, **constants):
    """A bundle with only ``constants``, built for ``model``'s coupling and N = n."""
    return type("B", (), dict(constants, coupling=model.coupling, n_particles=n))


def nonlinear_lsi_scan(model, bundle, tilt_grid):
    """The non-linear LSI report of ``lsi_scans``."""
    return lsi_scans(model, bundle, tilt_grid)[0]


def linear_lsi_scan(model, bundle, tilt_grid):
    """The linear LSI report of ``lsi_scans``."""
    return lsi_scans(model, bundle, tilt_grid)[1]


GRID = np.concatenate([-np.geomspace(0.01, 5.0, 6)[::-1],
                       np.geomspace(0.01, 5.0, 6)])


@pytest.fixture(scope="module")
def bundle128(quartic_model):
    return constants_of(quartic_model, 128)


class TestNonlinearLsi:
    def test_zero_tilt_anchor(self, quartic_model, bundle128):
        rep = nonlinear_lsi_scan(quartic_model, bundle128, [0.0])
        assert abs(rep.lhs[0]) < 1e-10 and abs(rep.rhs[0]) < 1e-10

    def test_passes_with_verbatim_constants(self, quartic_model, bundle128):
        assert nonlinear_lsi_scan(quartic_model, bundle128, GRID).passed

    def test_inflated_rho_fails(self, quartic_model, bundle128):
        inflated = dataclasses.replace(bundle128, rho=100.0 * bundle128.rho)
        rep = nonlinear_lsi_scan(quartic_model, inflated,
                                 np.geomspace(0.001, 0.1, 8))
        assert not rep.passed


class TestLinearLsi:
    def test_gaussian_ratio_exact(self, gauss_model):
        b = stand_in_bundle(gauss_model, rho=1.0, rho0=1.0)
        rep = linear_lsi_scan(gauss_model, b, [0.5, 1.0, 2.0])
        # Gaussian translates achieve equality in the LSI: I = 2 rho0 H.
        assert np.allclose(rep.lhs, rep.rhs, atol=1e-8)
        assert rep.passed

    def test_quartic_passes(self, quartic_model, bundle128):
        assert linear_lsi_scan(quartic_model, bundle128, GRID).passed

    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                                       curie_weiss_model(1.0, -1.0, 1.0),
                                       gaussian_model(1.0, 0.5)],
                             ids=["quartic", "double-well", "gaussian"])
    def test_fisher_side_matches_quadrature(self, model):
        b = stand_in_bundle(model, rho=1.0, rho0=1.0)
        rep = linear_lsi_scan(model, b, GRID)
        for ell, rhs in zip(GRID, rep.rhs):
            mu = tilted_measure(model, model.coupling * ell)
            exact = fisher_information_1d(
                lambda x: -model.grad_potential(x) + mu.tilt,
                lambda x: -model.grad_potential(x), mu.density)
            assert rhs == pytest.approx(exact, rel=1e-12)


class TestMagnetizationInverse:
    # The inverse route of ``oracles.phi_at_magnetizations``.
    def test_roundtrip(self, quartic_model):
        for h in (0.0, 0.4, -1.2, 2.5):
            ell = magnetization_inverse(LogPartition(quartic_model), h)
            assert magnetization(quartic_model, ell) == pytest.approx(h, abs=1e-10)

    @pytest.mark.parametrize("h", [0.0, 0.1, -0.5])
    def test_roundtrip_without_even_potential(self, h):
        # V = x^4/4 + x^2/2 - x/2 is not even: f(0) = 0.2314, so f^-1(0) != 0,
        # and f^-1(h) for small h > 0 lies at a negative l.
        m = ModelSpec(GeneralPotential(v=lambda x: x**4 / 4 + x**2 / 2 - x / 2,
                                       grad_v=lambda x: x**3 + x - 0.5),
                      RankOneInteraction(0.5))
        assert magnetization(m, 0.0) == pytest.approx(0.2314, abs=1e-4)
        ell = magnetization_inverse(LogPartition(m), h)
        assert magnetization(m, ell) == pytest.approx(h, abs=1e-10)

    @pytest.mark.parametrize("h", [0.01, 2.5, -3.0])
    def test_builds_pi_zero_at_most_once(self, quartic_model, monkeypatch, h):
        # Every f(l) is read from the one kernel of the call, whose first
        # grid, pi[0]'s, is built once.
        kernels = []
        init = LogPartition.__init__

        def counting(self, model):
            kernels.append(model)
            init(self, model)

        monkeypatch.setattr(LogPartition, "__init__", counting)
        magnetization_inverse(LogPartition(quartic_model), h)
        assert kernels == [quartic_model]


# The tilt grid of the phi scan in the CLI's ``verify`` and the acceptance
# gate: its magnetizations cover [0.01, 3] from 0.3 J_c to 0.9 J_c.
PHI_GRID = np.geomspace(0.003, 50.0, 8)
PHI_MODELS = {
    "quartic-0.5Jc": curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
    "quartic-0.9Jc": curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT),
    "double-well": curie_weiss_model(1.0, -1.0, 0.3),
    "gaussian": gaussian_model(1.0, 0.5),
}


class TestPhiPositivity:
    def test_anchor_zero(self, quartic_model):
        rep = phi_positivity_scan(quartic_model, None, [1e-12])
        assert abs(rep.rhs[0]) < 1e-10

    def test_passes_near_critical(self):
        m = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        rep = phi_positivity_scan(m, None, PHI_GRID)
        assert rep.passed

    def test_eps_one_fails_near_critical(self):
        m = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        rep = phi_positivity_scan(m, 1.0, np.geomspace(0.01, 3.0, 12))
        assert not rep.passed

    @pytest.mark.parametrize("eps", [None, 1.0], ids=["default-eps", "eps-one"])
    @pytest.mark.parametrize("name", list(PHI_MODELS))
    def test_matches_the_inverse_route(self, name, eps):
        # At l = f^{-1}(h), phi read on the tilt family is phi at h of the
        # route that solves the inverse for each h.
        model = PHI_MODELS[name]
        ell, want = phi_at_magnetizations(model, eps, np.geomspace(0.01, 3.0, 8))
        rep = phi_positivity_scan(model, eps, ell)
        np.testing.assert_allclose(rep.rhs, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("eps, grid", [
        (None, PHI_GRID), (None, np.geomspace(0.02, 6.0, 8)),
        (1.0, np.geomspace(0.02, 6.0, 8))],
        ids=["default-eps", "default-eps-h-to-3", "eps-one-h-to-3"])
    def test_gaussian_closed_form(self, eps, grid):
        # V = sigma x^2 / 2: f(l) = J l / sigma, and phi(f(l)) = h^2 ((1 - eps)
        # sigma / 2 - J + J^2 / (2 sigma)), which is 0 at the default
        # eps = (1 - J / sigma)^2.  The h-to-3 grids hold h = f(l) in
        # [0.01, 3].  With eps = 1 at l = 50 (h = 25, phi = -234) the scan
        # reads 5e-12 off: log Z(J h) = 79 is resolved to 1e-12 relative.
        sigma, J = 1.0, 0.5
        rep = phi_positivity_scan(gaussian_model(sigma, J), eps, grid)
        e = (1.0 - J / sigma) ** 2 if eps is None else eps
        h = J * grid / sigma
        exact = h * h * ((1.0 - e) * sigma / 2.0 - J + J * J / (2.0 * sigma))
        np.testing.assert_allclose(rep.rhs, exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, f * J_CRIT)
                                       for f in (0.3, 0.6, 0.9)]
                             + [PHI_MODELS["double-well"], PHI_MODELS["gaussian"]],
                             ids=["quartic-0.3Jc", "quartic-0.6Jc", "quartic-0.9Jc",
                                  "double-well", "gaussian"])
    def test_one_kernel_two_measures_no_newton(self, model, monkeypatch):
        # One kernel, whose construction grows it to z = 0; one measure of the
        # family, which may grow it once; one measure at J f(l), which grows
        # nothing since |f(l)| < |l|; and no Newton solve.
        calls = []
        init, measure, grow = LogPartition.__init__, LogPartition.measure, LogPartition._grow
        monkeypatch.setattr(LogPartition, "__init__",
                            lambda self, m: calls.append("init") or init(self, m))
        monkeypatch.setattr(LogPartition, "measure",
                            lambda self, t: calls.append("measure") or measure(self, t))
        monkeypatch.setattr(LogPartition, "_grow",
                            lambda self, z: calls.append("grow") or grow(self, z))

        def no_newton(*args):
            raise AssertionError("the phi scan solved an equation")

        for module in (numerics, meanfield):
            monkeypatch.setattr(module, "newton_root", no_newton)
        phi_positivity_scan(model, None, PHI_GRID)
        assert calls in (["init", "grow", "measure", "measure"],
                         ["init", "grow", "measure", "grow", "measure"])


class TestPsiPositivity:
    def test_anchor_zero(self, quartic_model):
        m = curie_weiss_model(1.0, 1.0, 0.8 * J_CRIT)
        h_star = solve_fixed_point(LogPartition(m), 1e-12).h_star
        rep = psi_positivity_scan(m, 0.0, 0.0, [h_star])
        assert abs(rep.rhs[0]) < 1e-10

    def test_alpha_zero_passes(self):
        m = curie_weiss_model(1.0, 1.0, 0.8 * J_CRIT)
        grid = np.concatenate([-np.geomspace(0.01, 3, 6)[::-1],
                               np.geomspace(0.01, 3, 6)])
        assert psi_positivity_scan(m, 0.0, 0.0, grid).passed

    @pytest.mark.parametrize("ratio", [0.9, 0.95, 0.99])
    def test_subcritical_from_one_reaches_zero(self, ratio):
        # h = f(h) has the one root h = 0 below J_c, where f'(0) = J/J_c
        # approaches 1.
        m = curie_weiss_model(1.0, 1.0, ratio * J_CRIT)
        assert abs(solve_fixed_point(LogPartition(m), 1e-12, 1.0).h_star) <= 1e-12
        assert psi_positivity_scan(m, 0.0, 1.0, np.geomspace(0.01, 3, 8)).passed

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

    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [16, 1024])
    def test_matches_nested_quadrature_oracle(self, frac, n):
        m = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
        assert jw_log_mgf(m, n) == pytest.approx(nested_quad_jw_log_mgf(m, n),
                                                 abs=1e-11)

    def test_rejects_n_above_range(self, gauss_model):
        with pytest.raises(ValueError):
            jw_log_mgf(gauss_model, MAX_PARTICLES + 1)

    def test_supercritical_raises(self):
        with pytest.raises(Supercritical):
            jw_log_mgf(curie_weiss_model(1.0, 1.0, 1.5 * J_CRIT), 16)

    @pytest.mark.parametrize("n", [16, 1024, 65536])
    def test_gaussian_closed_form_tight(self, gauss_model, n):
        assert jw_log_mgf(gauss_model, n) == pytest.approx(
            -0.5 * np.log(1 - 0.5), abs=1e-12)

    def test_increasing_in_j(self):
        vals = []
        for frac in (0.2, 0.4, 0.6, 0.8):
            m = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
            vals.append(jw_log_mgf(m, 32))
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("n", [1, 16, 1024, MAX_PARTICLES])
    @pytest.mark.parametrize("model", [gaussian_model(1.0, 0.5)]
                             + [curie_weiss_model(1.0, 1.0, f * J_CRIT)
                                for f in (0.5, 0.9, 0.99)],
                             ids=["gaussian", "quartic-0.5Jc", "quartic-0.9Jc",
                                  "quartic-0.99Jc"])
    def test_matches_full_scans(self, model, n, monkeypatch):
        # The chord-bounded doubling search reads the same final scan, bit
        # for bit, as one that reads every point of every scan.
        got = jw_log_mgf(model, n)
        monkeypatch.setattr(verify, "window_search", window_search_by_full_scans)
        assert got == jw_log_mgf(model, n)

    @pytest.mark.parametrize("n", [1, 16, 1024, MAX_PARTICLES])
    @pytest.mark.parametrize("model", [gaussian_model(1.0, f) for f in (0.1, 0.5, 0.9, 0.99)]
                             + [curie_weiss_model(1.0, 1.0, f * J_CRIT)
                                for f in (0.1, 0.5, 0.9, 0.99)],
                             ids=[f"gaussian-{f}" for f in (0.1, 0.5, 0.9, 0.99)]
                             + [f"quartic-{f}Jc" for f in (0.1, 0.5, 0.9, 0.99)])
    def test_matches_the_full_read(self, model, n):
        # The search from |t| = 16 ends on the scan that the search from
        # |t| = 1 ends on, and the coarse-to-fine read stops within 1e-12 of
        # the trapezoid on every point of it.
        assert jw_log_mgf(model, n) == pytest.approx(full_read_jw_log_mgf(model, n),
                                                     rel=0.0, abs=1e-12)

    def test_one_kernel(self, monkeypatch):
        # The sub-critical check reads pi[0] of the kernel the integrand uses.
        kernels = []
        init = LogPartition.__init__
        monkeypatch.setattr(LogPartition, "__init__",
                            lambda self, model: kernels.append(model) or init(self, model))
        model = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        jw_log_mgf(model, 1024)
        assert kernels == [model]

    def test_asymmetric_confinement_raises(self):
        # pi[0] of V = x^4/4 + x^2/2 - x/2 has mean 0.2314: m_* = pi[0] is not
        # the mean-field limit.
        m = ModelSpec(GeneralPotential(v=lambda x: x**4 / 4 + x**2 / 2 - x / 2,
                                       grad_v=lambda x: x**3 + x - 0.5),
                      RankOneInteraction(0.5))
        with pytest.raises(RegimeViolation):
            jw_log_mgf(m, 16)

    @pytest.mark.parametrize("n", [2**p for p in range(14, 21)])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_quartic_large_n_matches_long_double(self, frac, n):
        # N (log Z_1(z) - log Z_1(0)) in float64 carried N eps of rounding
        # and failed the halving check from N = 2^14 on; the expm1 form of
        # LogPartition.cgf keeps its rounding relative.
        m = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
        assert jw_log_mgf(m, n) == pytest.approx(longdouble_jw_log_mgf(m, n), rel=1e-10)

    def test_quartic_limit_at_max_particles(self):
        # N = 2^20 is close to the N -> infinity limit -log(1 - J/J_c)/2.
        for frac, want in ((0.1, 0.0526802570), (0.5, 0.3465735223), (0.9, 1.1512870443)):
            m = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
            assert jw_log_mgf(m, MAX_PARTICLES) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("model", [gaussian_model(1.0, 0.5)]
                             + [curie_weiss_model(1.0, 1.0, f * J_CRIT)
                                for f in (0.5, 0.9, 0.99)],
                             ids=["gaussian", "quartic-0.5Jc", "quartic-0.9Jc",
                                  "quartic-0.99Jc"])
    def test_cgf_keeps_log_z1_at_zero_of_each_grid(self, model, monkeypatch):
        # After every growth, the log Z_1(0) that cgf subtracts is the one a
        # read of z = 0 gives on the grid, bit for bit.
        kept = []
        grow = LogPartition._grow

        def recorded(self, z_max):
            out = grow(self, z_max)
            kept.append((float(self._log_z0).hex(), float(self(0.0)).hex()))
            return out

        monkeypatch.setattr(LogPartition, "_grow", recorded)
        jw_log_mgf(model, 1024)
        assert len(kept) >= 2
        assert all(a == b for a, b in kept)

    def test_log_z1_work(self, monkeypatch):
        # Full scans read 1548 log Z_1 rows here: six scans of 257 points,
        # each with the row of log Z_1(0).  The search from |t| = 16 stops on its
        # second scan, whose integral is read on 65 of its points: 86 rows.
        rows = []
        cgf = LogPartition.cgf

        def counted(self, zs):
            rows.append(np.size(zs) + 1)
            return cgf(self, zs)

        monkeypatch.setattr(LogPartition, "cgf", counted)
        jw_log_mgf(curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT), 1024)
        assert sum(rows) <= 120

    def test_bound_holds(self, quartic_model):
        J = quartic_model.coupling
        eps = min(J_CRIT / J - 1.0, 1.0) / 2.0
        var = tilted_measure(quartic_model, 0.0).second_moment
        assert jw_log_mgf(quartic_model, 64) <= jw_rhs(eps, J, var) + 1e-9


class TestBolleyVillani:
    @staticmethod
    def normal(var, half_width=20.0):
        """N(0, var) as a grid density on [-half_width, half_width]."""
        return GridDensity.from_callable(
            lambda x: np.exp(-x * x / (2.0 * var)), -half_width, half_width, FINE_POINTS)

    def test_gaussian_boundary_equality(self):
        # Under N(0, 1/rho0) the integrand is a Gaussian of twice the
        # variance, with integral sqrt(2).
        rho0 = 1.7
        val = bolley_villani_moment_check(self.normal(1.0 / rho0), rho0)
        assert val == pytest.approx(np.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("half_width", [40.0, 41.0, 50.0])
    def test_wide_grid_is_not_divergent(self, half_width):
        # The exponent passes 700 beyond |x| = 40.6, where the density is
        # already 0.0: those points add 0, where they once raised
        # DivergentIntegral on [-41, 41] and [-50, 50].
        val = bolley_villani_moment_check(self.normal(1.0 / 1.7, half_width), 1.7)
        assert val == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_smaller_variance_strictly_below(self):
        rho = 1.0
        assert bolley_villani_moment_check(self.normal(1.0 / (2 * rho)), rho) < np.sqrt(2) - 0.1

    def test_marginal_with_pipeline_constants(self, quartic_model, bundle128):
        from chaoslab.marginals import build_mixture, marginal_grid_density
        law = build_mixture(quartic_model, 32)
        val = bolley_villani_moment_check(marginal_grid_density(law),
                                          bundle128.lambda_n / 2.0)
        assert val <= np.sqrt(2) * np.exp(2.0 * bundle128.delta_n)

    def test_heavy_tail_rejected(self):
        # Cauchy on a grid wide enough to show its tail.
        cauchy = GridDensity.from_callable(lambda x: 1.0 / (1.0 + x * x),
                                           -1000.0, 1000.0, FINE_POINTS)
        with pytest.raises(DivergentIntegral):
            bolley_villani_moment_check(cauchy, 4.0)


class TestMarginalT1:
    def test_passes_and_margin_scale(self, quartic_model, bundle128):
        rep = marginal_t1_ratio_scan(build_mixture(quartic_model, 128), bundle128,
                                     np.linspace(-0.5, 0.5, 5))
        assert rep.passed
        # Shrinking the constant below the measured min ratio must fail.
        ratios = rep.lhs[rep.rhs > 0] / rep.rhs[rep.rhs > 0]
        worst = ratios.max()
        assert worst <= 1.0
        scaled = rep.rhs * (0.9 * worst)
        assert np.min(scaled - rep.lhs) < -1e-9

    def test_single_point_grid(self, quartic_model, bundle128):
        rep = marginal_t1_ratio_scan(build_mixture(quartic_model, 128), bundle128, [0.0])
        assert len(rep.grid) == 1
        assert rep.passed

    @pytest.mark.parametrize("n", [128, 1024, 2**16])
    def test_gaussian_w1_matches_mpmath(self, gauss_model, n):
        # pi[J l] = N(J l, 1) and m^{N,1} = N(0, s^2), s^2 = 1 + J / (N (1 - J)),
        # so W_1 = int |Phi(x - J l) - Phi(x / s)| dx, whose integrand changes
        # sign at x = 0 for l = 0 and at x = J l s / (s - 1) otherwise.  The
        # quantile form read 2.1e-4 too low at l = 0.
        import mpmath
        J = gauss_model.coupling
        grid = np.linspace(-0.5, 0.5, 5)
        rep = marginal_t1_ratio_scan(build_mixture(gauss_model, n),
                                     stand_in_bundle(gauss_model, n, lambda_n=1.0,
                                                     delta_n=0.0), grid)
        with mpmath.workdps(30):
            s = mpmath.sqrt(1 + mpmath.mpf(J) / (n * (1 - mpmath.mpf(J))))
            for ell, lhs in zip(grid, rep.lhs):
                a = mpmath.mpf(J * ell)
                cross = a * s / (s - 1)
                cuts = sorted({mpmath.mpf(0), a, cross})
                exact = mpmath.quad(lambda x: abs(mpmath.ncdf(x - a) - mpmath.ncdf(x / s)),
                                    [-mpmath.inf, *cuts, mpmath.inf])
                assert np.sqrt(lhs) == pytest.approx(float(exact), rel=2e-6), ell

    @pytest.mark.parametrize("n", [128, 512, 1024, 2**16])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.75, 0.9])
    def test_one_grid_matches_per_tilt_grids(self, frac, n):
        # The constant is 64 (lambda_N = 1, delta_N = 0), so rhs is 64 H.  The
        # verbatim lambda_N is not positive at 0.75 J_c, N = 128, and elsewhere
        # scales rhs by up to 5e4: H at l = 0 is about 1e-11 there, and its
        # rounding noise, about 5e-18, would then exceed atol.
        model = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
        bundle = stand_in_bundle(model, n, lambda_n=1.0, delta_n=0.0)
        law = build_mixture(model, n)
        grid = np.linspace(-0.5, 0.5, 5)
        rep = marginal_t1_ratio_scan(law, bundle, grid)
        lhs, rhs = t1_ratio_scan_per_tilt(model, bundle, grid, law)
        np.testing.assert_allclose(rep.lhs, lhs, rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(rep.rhs, rhs, rtol=1e-9, atol=1e-13)

    def test_marginal_evaluated_once(self, quartic_model, bundle128, monkeypatch):
        # One scan evaluates log m^{N,1} on its grid once, for every tilt,
        # and builds no marginal grid density of its own.
        law = build_mixture(quartic_model, 128)
        calls = {"marginal_log_grid": 0, "marginal_grid_density": 0}
        for name in calls:
            fn = getattr(marginals, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            for module in (marginals, verify):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        marginal_t1_ratio_scan(law, bundle128, np.linspace(-0.5, 0.5, 5))
        assert calls == {"marginal_log_grid": 1, "marginal_grid_density": 0}


class TestBundleMismatch:
    # A bundle for 0.1 J_c and N = 4096 at 0.5 J_c, N = 128 turned the T1
    # margin from 0.876 into 0.019 and the non-linear LSI margin from 1.5e-5
    # into -0.093, with no error.
    @pytest.fixture(scope="class")
    def other(self):
        return constants_of(curie_weiss_model(1.0, 1.0, 0.1 * J_CRIT), 4096)

    def test_lsi_scans_reject_another_coupling(self, quartic_model, other):
        with pytest.raises(ValueError, match="bundle is for J"):
            lsi_scans(quartic_model, other, GRID)

    def test_t1_scan_rejects_another_coupling(self, quartic_model, other):
        with pytest.raises(ValueError, match="bundle is for J"):
            marginal_t1_ratio_scan(build_mixture(quartic_model, 128), other, [0.0])

    def test_t1_scan_rejects_another_n(self, quartic_model):
        bundle = constants_of(quartic_model, 4096)
        with pytest.raises(ValueError, match="bundle is for N = 4096, not N = 128"):
            marginal_t1_ratio_scan(build_mixture(quartic_model, 128), bundle, [0.0])

    def test_lsi_scans_take_a_bundle_of_any_n(self, quartic_model, bundle128):
        # The LSI constants do not depend on N.
        bundle = constants_of(quartic_model, 4096)
        for rep, ref in zip(lsi_scans(quartic_model, bundle, GRID),
                            lsi_scans(quartic_model, bundle128, GRID)):
            assert np.array_equal(rep.rhs, ref.rhs) and np.array_equal(rep.lhs, ref.lhs)


class TestOneKernelPerScan:
    @staticmethod
    def scans(model, bundle, law, ell_max):
        """The five reports of the CLI ``verify`` command, by name, with the
        phi scan's tilts up to ``ell_max``."""
        grid = np.concatenate([-np.geomspace(0.01, 3.0, 8)[::-1],
                               np.geomspace(0.01, 3.0, 8)])
        return {
            "nonlinear_lsi": lambda: nonlinear_lsi_scan(model, bundle, grid),
            "linear_lsi": lambda: linear_lsi_scan(model, bundle, grid),
            "phi_positivity": lambda: phi_positivity_scan(
                model, None, np.geomspace(0.01, ell_max, 4)),
            "psi_positivity": lambda: psi_positivity_scan(
                model, 0.0, 0.0, np.geomspace(0.01, 3.0, 4)),
            "marginal_t1": lambda: marginal_t1_ratio_scan(
                law, bundle, np.linspace(-0.5, 0.5, 5)),
        }

    def test_at_most_one_grid_per_scan(self):
        # Every tilt of a scan is read from one kernel, and here no tilt
        # widens its window beyond that of z = 0, so a scan evaluates V on
        # one 4097-node grid (one per tilt before, each on its own window).
        model, sizes = counting_quartic(0.5 * J_CRIT)
        bundle = stand_in_bundle(model, 128, rho=0.1, rho0=1.0, lambda_n=1.0, delta_n=0.0)
        law = build_mixture(model, 128)
        for name, scan in self.scans(model, bundle, law, 1.0).items():
            sizes.clear()
            scan()
            assert sizes.count(4097) <= 1, name
        sizes.clear()
        solve_fixed_point(LogPartition(model), tol=1e-10, h0=1.0)
        assert sizes.count(4097) <= 1

    def test_scan_order_does_not_matter(self, bundle128):
        # No kernel outlives its scan: the five scans in reverse order give
        # the same reports, bit for bit.  The phi scan's kernel grows from
        # [-4, 4] to [-8, 8] (its top tilt is J l = 96), so a kernel shared
        # between runs would change the bits of a later scan.  The verbatim
        # lambda_N is negative at 0.9 J_c, N = 128, so the scans take the
        # constants of 0.5 J_c.
        model = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        law = build_mixture(model, 128)
        bundle = dataclasses.replace(bundle128, coupling=model.coupling)
        scans = self.scans(model, bundle, law, 50.0)
        forward = {name: scan() for name, scan in scans.items()}
        backward = {name: scan() for name, scan in reversed(scans.items())}
        for name, rep in forward.items():
            other = backward[name]
            assert rep.min_margin == other.min_margin, name
            for field in ("grid", "lhs", "rhs"):
                assert np.array_equal(getattr(rep, field), getattr(other, field)), name

    def test_verify_command_measures_whole_families(self, tmp_path, monkeypatch):
        # Each scan reads its tilts in one measure of an array: the command
        # at 0.9 J_c makes 2 scalar measure calls, both in the psi scan's
        # fixed point, where it made 104 reading one tilt at a time.
        scalar = []
        measure = LogPartition.measure
        monkeypatch.setattr(LogPartition, "measure", lambda self, tilts: (
            np.ndim(tilts) == 0 and scalar.append(tilts)) or measure(self, tilts))
        doc = {"command": "verify", "n_grid": [1024], "output_dir": str(tmp_path),
               "model": {"theta": 1.0, "sigma": 1.0, "J": 0.9 * J_CRIT}}
        assert run(parse_config(doc))["passed"]
        assert len(scalar) <= 10

    def test_verify_command_builds_five_kernels(self, tmp_path, monkeypatch):
        # One kernel each for the mixture, whose pi[0] the constants read,
        # the two LSI reports, the phi scan, the psi scan and the T1 scan's
        # family.
        kernels = []
        init = LogPartition.__init__
        monkeypatch.setattr(LogPartition, "__init__",
                            lambda self, model: kernels.append(model) or init(self, model))
        doc = {"command": "verify", "n_grid": [128], "output_dir": str(tmp_path),
               "model": {"theta": 1.0, "sigma": 1.0, "J": 0.5 * J_CRIT}}
        assert run(parse_config(doc))["passed"]
        assert len(kernels) == 5


class TestEmptyGrid:
    @pytest.mark.parametrize("scan, name", [
        (lambda m, b, law: lsi_scans(m, b, []), "tilt_grid"),
        (lambda m, b, law: phi_positivity_scan(m, None, []), "ell_grid"),
        (lambda m, b, law: psi_positivity_scan(m, 0.0, 0.0, np.array([])), "ell_grid"),
        (lambda m, b, law: marginal_t1_ratio_scan(law, b, []), "tilt_grid"),
    ], ids=["lsi", "phi", "psi", "t1"])
    def test_raises_naming_the_grid_before_a_kernel(self, scan, name, monkeypatch):
        model = curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT)
        law = build_mixture(model, 32)
        bundle = stand_in_bundle(model, 32, rho=0.1, rho0=1.0, lambda_n=1.0, delta_n=0.0)
        kernels = []
        init = LogPartition.__init__
        monkeypatch.setattr(LogPartition, "__init__",
                            lambda self, model: kernels.append(model) or init(self, model))
        with pytest.raises(ValueError, match=f"^{name} is empty"):
            scan(model, bundle, law)
        assert kernels == []
