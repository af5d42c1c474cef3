import numpy as np
import pytest

from chaoslab.errors import DegenerateInput, NonFinite
from chaoslab.marginals import (_quantile_cost2, _quantile_from_density, build_mixture,
                                marginal_log_density_batch, relative_entropy_levels,
                                sample_marginal)
from chaoslab.meanfield import tilted_measure
from chaoslab.numerics import FINE_POINTS, GridDensity
from oracles import (DegenerateSample, DivergenceEstimate, fisher_information_1d, kl_knn,
                     kl_plug_in)


def _gauss_log(mu):
    return lambda x: -0.5 * (np.asarray(x) - mu) ** 2 - 0.5 * np.log(2 * np.pi)


# Self-tests of the plug-in KL oracle in ``oracles``; the last checks
# ``sample_marginal`` against the exact H_1 with it.
class TestKlPlugIn:
    def test_identical_densities(self, rng):
        s = rng.normal(size=1000)
        est = kl_plug_in(s, _gauss_log(0.0), _gauss_log(0.0))
        assert est.value == 0.0
        assert est.method == "plug-in-exact"

    def test_shifted_gaussian(self, rng):
        s = rng.normal(size=100_000)
        est = kl_plug_in(s, _gauss_log(0.0), _gauss_log(1.0))
        assert abs(est.value - 0.5) <= 3 * est.standard_error

    def test_nonnegativity_up_to_noise(self, rng):
        s = rng.normal(size=20_000)
        est = kl_plug_in(s, _gauss_log(0.0), _gauss_log(0.3))
        assert est.value >= -3 * est.standard_error

    def test_marginal_vs_exact_grid(self, quartic_model):
        law = build_mixture(quartic_model, 16)
        exact = relative_entropy_levels(law, 1).levels[1]
        draws = sample_marginal(law, 200_000, seed=9)
        mstar = tilted_measure(quartic_model, 0.0)
        est = kl_plug_in(draws,
                         lambda x: marginal_log_density_batch(law, x),
                         lambda x: mstar.log_density(np.asarray(x).ravel()))
        assert abs(est.value - exact) <= 3 * est.standard_error

    def test_nonfinite_raises(self, rng):
        s = rng.normal(size=1000)
        with pytest.raises(NonFinite):
            kl_plug_in(s, _gauss_log(0.0), lambda x: np.full_like(np.asarray(x), -np.inf))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_raise(self, n):
        # The jackknife divides by n - 1: one sample would give a NaN error.
        with pytest.raises(DegenerateInput, match="at least 2"):
            kl_plug_in(np.zeros(n), _gauss_log(0.0), _gauss_log(1.0))

    def test_two_samples(self):
        est = kl_plug_in(np.array([0.0, 1.0]), _gauss_log(0.0), _gauss_log(1.0))
        # log p - log q = x - 1/2 is -1/2 and 1/2: mean 0, jackknife error 1/2.
        assert est.value == 0.0
        assert est.standard_error == pytest.approx(0.5, rel=1e-15)


# Self-tests of the nearest-neighbor KL oracle in ``oracles``.
class TestKlKnn:
    def test_same_distribution(self, rng):
        a = rng.normal(size=(20_000, 1))
        b = rng.normal(size=(20_000, 1))
        est = kl_knn(a, b)
        assert abs(est.value) <= max(3 * est.standard_error, 0.02)

    def test_shifted_gaussian(self, rng):
        a = rng.normal(size=(100_000, 1))
        b = rng.normal(size=(100_000, 1)) + 1.0
        est = kl_knn(a, b, k_neighbors=5)
        assert abs(est.value - 0.5) <= 3 * est.standard_error + 0.05 * 0.5

    def test_correlated_2d(self, rng):
        # KL(correlated || product) = -log(1 - rho^2) / 2.
        n = 100_000
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        a = rng.multivariate_normal([0, 0], cov, size=n)
        b = rng.normal(size=(n, 2))
        target = -0.5 * np.log(1 - 0.25)
        est = kl_knn(a, b, k_neighbors=5)
        assert abs(est.value - target) <= 3 * est.standard_error + 0.05 * target

    def test_duplicates_raise(self, rng):
        a = np.zeros((2000, 1))
        b = rng.normal(size=(2000, 1))
        with pytest.raises(DegenerateSample):
            kl_knn(a, b)

    def test_minimum_sample_size(self, rng):
        with pytest.raises(ValueError):
            kl_knn(rng.normal(size=(10, 1)), rng.normal(size=(2000, 1)))


# Self-tests of the Fisher-information oracle in ``oracles``.
class TestFisherInformation:
    def test_identical(self):
        p = lambda x: np.exp(-np.asarray(x) ** 2 / 2) / np.sqrt(2 * np.pi)
        grad = lambda x: -np.asarray(x)
        assert fisher_information_1d(grad, grad, p) == pytest.approx(0.0, abs=1e-12)

    def test_constant_score_gap(self):
        mu = 0.8
        p = lambda x: np.exp(-np.asarray(x) ** 2 / 2) / np.sqrt(2 * np.pi)
        assert fisher_information_1d(
            lambda x: -np.asarray(x),
            lambda x: -(np.asarray(x) - mu), p) == pytest.approx(mu**2, abs=1e-10)

    def test_tilted_pair_constant_gap(self, quartic_model):
        # Score gap between pi[l] and Pi[pi[l]] is J (l - f(l)), a constant.
        from chaoslab.meanfield import magnetization
        J = quartic_model.coupling
        ell = 0.9
        f_ell = magnetization(quartic_model, ell)
        mu = tilted_measure(quartic_model, J * ell)
        got = fisher_information_1d(
            lambda x: -quartic_model.grad_potential(x) + J * ell,
            lambda x: -quartic_model.grad_potential(x) + J * f_ell,
            mu.density)
        assert got == pytest.approx(J**2 * (ell - f_ell) ** 2, abs=1e-10)


# The quantile cost behind ``marginals.wasserstein2_marginal``.
class TestWasserstein1d:
    def test_identical(self):
        q = lambda u: np.sqrt(2) * np.asarray(u)
        assert _quantile_cost2(q, q) == 0.0

    def test_point_masses(self):
        qa = lambda u: np.full_like(np.asarray(u, dtype=float), 1.0)
        qb = lambda u: np.full_like(np.asarray(u, dtype=float), 4.0)
        # Quantile clipping to [1e-8, 1 - 1e-8] costs O(1e-8) of mass.
        assert _quantile_cost2(qa, qb) == pytest.approx(9.0, abs=1e-6)

    def test_translated_gaussian(self):
        from scipy.stats import norm
        mu = 0.7
        qa = lambda u: norm.ppf(u)
        qb = lambda u: norm.ppf(u) + mu
        assert _quantile_cost2(qa, qb) == pytest.approx(mu**2, abs=1e-8)

    def test_triangle_inequality(self, quartic_model, rng):
        J = quartic_model.coupling
        tilts = rng.uniform(-1.5, 1.5, size=3)
        qs = []
        for t in tilts:
            mu = tilted_measure(quartic_model, J * t)
            qs.append(_quantile_from_density(
                GridDensity.from_callable(mu.density, -6, 6, FINE_POINTS)))
        w2 = lambda a, b: np.sqrt(_quantile_cost2(qs[a], qs[b]))
        assert w2(0, 2) <= w2(0, 1) + w2(1, 2) + 1e-8


class TestDivergenceEstimate:
    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            DivergenceEstimate(0.0, -1.0, "knn")
