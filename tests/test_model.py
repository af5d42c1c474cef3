import mpmath
import numpy as np
import pytest

from chaoslab.model import (GeneralKernel, GeneralPotential, ModelSpec,
                            QuarticConfinement, RankOneInteraction,
                            curie_weiss_model, gaussian_model, gibbs_target)
from oracles import _reference_log_target_and_grad


@pytest.fixture
def cw():
    return curie_weiss_model(1.0, 1.0, 1.0)


# Quartic confinement with the pair kernel W(x, y) = (x - y)^2 / 2.
_PAIR_KERNEL = ModelSpec(QuarticConfinement(1.0, 1.0),
                         GeneralKernel(w=lambda x, y: 0.5 * (x - y) ** 2,
                                       grad1_w=lambda x, y: x - y))


def _energy(model, x):
    """Potential energy per particle, diagonal terms included: minus the Gibbs
    exponent over N."""
    x = np.asarray(x, dtype=float)
    return -gibbs_target(model, x.size, 0.1)(x)[0] / x.size


def _log_density(model, x):
    x = np.asarray(x, dtype=float)
    return gibbs_target(model, x.size, 0.1)(x)[0]


class TestEnergyPerParticle:
    def test_origin(self, cw):
        assert _energy(cw, np.zeros(2)) == 0.0

    def test_two_ones(self, cw):
        # V(1) - J/2 = (1/4 + 1/2) - 1/2 = 0.25.
        assert _energy(cw, np.ones(2)) == pytest.approx(0.25, abs=1e-14)

    def test_matches_naive_double_loop(self, cw, rng):
        x = rng.normal(size=5)
        naive = sum(cw.potential(xi) for xi in x) / 5
        naive += sum(cw.kernel(xi, xj) for xi in x for xj in x) / (2 * 25)
        assert _energy(cw, x) == pytest.approx(naive, abs=1e-12)

    def test_kernel_matches_naive_double_loop(self, rng):
        x = rng.normal(size=5)
        naive = sum(_PAIR_KERNEL.potential(xi) for xi in x) / 5
        naive += sum(_PAIR_KERNEL.kernel(xi, xj) for xi in x for xj in x) / (2 * 25)
        assert _energy(_PAIR_KERNEL, x) == pytest.approx(naive, abs=1e-12)


class TestGibbsLogDensity:
    def test_origin(self, cw):
        assert _log_density(cw, np.zeros(4)) == 0.0

    def test_single_particle(self, cw):
        x = 0.7
        expected = -cw.potential(x) + cw.coupling * x**2 / 2
        assert _log_density(cw, [x]) == pytest.approx(expected, abs=1e-14)

    def test_consistency_with_energy(self, cw, rng):
        # The rank-one field J s^2 / 2N against the same W = -J x y as a
        # general kernel, whose exponent is the N x N energy double sum.
        x = rng.normal(size=7)
        kernel = ModelSpec(cw.confinement,
                           GeneralKernel(w=cw.kernel, grad1_w=cw.kernel_force))
        assert _log_density(cw, x) == pytest.approx(_log_density(kernel, x), abs=1e-12)

    def test_permutation_invariance(self, cw, rng):
        x = rng.normal(size=6)
        base = _log_density(cw, x)
        for _ in range(5):
            perm = rng.permutation(x)
            assert _log_density(cw, perm) == pytest.approx(base, abs=1e-12)

    def test_rank_one_identity(self, cw, rng):
        x = rng.normal(size=8)
        expected = -cw.potential(x).sum() + cw.coupling * x.sum() ** 2 / 16
        assert _log_density(cw, x) == pytest.approx(expected, abs=1e-12)


class TestGradients:
    def test_quartic_grad_finite_difference(self, cw):
        xs = np.linspace(-3, 3, 13)
        h = 1e-5
        fd = (cw.potential(xs + h) - cw.potential(xs - h)) / (2 * h)
        assert np.allclose(cw.grad_potential(xs), fd, rtol=1e-6, atol=1e-6)

    def test_kernel_grad_finite_difference(self, cw):
        h = 1e-5
        fd = (cw.kernel(1.0 + h, -0.7) - cw.kernel(1.0 - h, -0.7)) / (2 * h)
        assert cw.kernel_force(1.0, -0.7) == pytest.approx(fd, rel=1e-6)


_THETA_SIGMA = [(1.0, 1.0), (1.0, -1.0), (0.0, 2.0)]
_XS = np.concatenate([-np.geomspace(1e-8, 1e30, 191), np.geomspace(1e-8, 1e30, 191)])


class TestQuarticConfinement:
    """V = theta/4 x^4 + sigma/2 x^2 and V' against 50-digit mpmath.

    The error is measured in ulps of the larger term, because V itself
    vanishes at the double well's root, where a relative error is
    meaningless.
    """

    @pytest.mark.parametrize("theta, sigma", _THETA_SIGMA)
    def test_v_against_mpmath(self, theta, sigma):
        conf = QuarticConfinement(theta, sigma)
        got = conf.v(_XS)
        with mpmath.workdps(50):
            for x, g in zip(_XS, got):
                mx = mpmath.mpf(float(x))
                quartic = mpmath.mpf(theta) / 4 * mx**4
                quadratic = mpmath.mpf(sigma) / 2 * mx**2
                scale = float(max(abs(quartic), abs(quadratic)))
                assert abs(mpmath.mpf(float(g)) - (quartic + quadratic)) \
                    <= 4 * np.spacing(scale), x

    @pytest.mark.parametrize("theta, sigma", _THETA_SIGMA)
    def test_grad_v_against_mpmath(self, theta, sigma):
        conf = QuarticConfinement(theta, sigma)
        got = conf.grad_v(_XS)
        with mpmath.workdps(50):
            for x, g in zip(_XS, got):
                mx = mpmath.mpf(float(x))
                cubic = mpmath.mpf(theta) * mx**3
                linear = mpmath.mpf(sigma) * mx
                scale = float(max(abs(cubic), abs(linear)))
                assert abs(mpmath.mpf(float(g)) - (cubic + linear)) \
                    <= 4 * np.spacing(scale), x

    @pytest.mark.parametrize("theta, sigma", _THETA_SIGMA)
    def test_grad_v_central_difference(self, theta, sigma):
        conf = QuarticConfinement(theta, sigma)
        xs = np.linspace(-3.0, 3.0, 61)
        h = 1e-5
        fd = (conf.v(xs + h) - conf.v(xs - h)) / (2 * h)
        assert np.allclose(conf.grad_v(xs), fd, rtol=1e-8, atol=1e-8)

    def test_theta_zero_is_bitwise_gaussian(self, rng):
        conf = QuarticConfinement(0.0, 1.7)
        xs = np.concatenate([rng.normal(size=1000), np.geomspace(1e-150, 1e150, 301)])
        assert np.array_equal(conf.v(xs), 1.7 / 2.0 * xs**2)
        assert np.array_equal(conf.grad_v(xs), 1.7 * xs)


class TestModelSpec:
    def test_theta_zero_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            QuarticConfinement(0.0, 0.0)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            QuarticConfinement(-1.0, 1.0)

    def test_gaussian_flag(self):
        assert gaussian_model(1.0, 0.5).is_gaussian
        assert not curie_weiss_model(1.0, 1.0, 0.5).is_gaussian

    def test_fingerprint_distinguishes_models(self):
        a = curie_weiss_model(1.0, 1.0, 0.5)
        b = curie_weiss_model(1.0, 1.0, 0.6)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == curie_weiss_model(1.0, 1.0, 0.5).fingerprint()

    def test_coupling_requires_rank_one(self):
        kern = GeneralKernel(w=lambda x, y: x * y, grad1_w=lambda x, y: y)
        m = ModelSpec(QuarticConfinement(1.0, 1.0), kern)
        with pytest.raises(TypeError):
            m.coupling

    def test_general_potential_grad_consistency(self):
        gp = GeneralPotential(v=lambda x: np.cosh(x), grad_v=lambda x: np.sinh(x))
        m = ModelSpec(gp, RankOneInteraction(0.5))
        xs = np.linspace(-2, 2, 9)
        h = 1e-5
        fd = (m.potential(xs + h) - m.potential(xs - h)) / (2 * h)
        assert np.allclose(m.grad_potential(xs), fd, rtol=1e-6)


def _fused_states(n):
    """Random states of n particles and states holding |x| in {1e60, 1e100,
    1e160}, in every entry or in one; 1.3e77 is where theta x^4 overflows
    while theta/4 x^4 does not."""
    rng = np.random.default_rng(n)
    states = [rng.normal(size=n), 3.0 * rng.normal(size=n), rng.normal(size=n) * 1e-3]
    for big in (1e60, 1.3e77, 1e100, 1e160):
        signs = rng.choice([-1.0, 1.0], size=n)
        states.append(big * signs)
        one = rng.normal(size=n)
        one[n // 2] = big * signs[0]
        states.append(one)
    return states


class TestQuarticTarget:
    """``gibbs_target`` of a quartic rank-one model with theta > 0 against
    ``oracles._reference_log_target_and_grad`` and the mean y + eps grad.

    log p is two dot products and the field, so it may differ from the
    oracle by a few ulp of sum |terms|, the sum of |theta/4 y^4|,
    |sigma/2 y^2| and J s^2 / 2n.  The mean y (alpha - beta y^2) + eps J s/n
    may differ in each entry by a few ulp of |y| + eps |y| (theta y^2 +
    |sigma|) + eps J sum |y| / n.  Both must be finite exactly where the
    oracle's are.
    """

    @pytest.mark.parametrize("theta", [1.0, 0.01, 100.0])
    @pytest.mark.parametrize("sigma", [1.0, -1.0])
    @pytest.mark.parametrize("eps", [1e-3, 0.12, 0.5])
    @pytest.mark.parametrize("n", [1, 3, 32, 512])
    def test_matches_reference(self, theta, sigma, eps, n):
        j = 0.7
        model = curie_weiss_model(theta, sigma, j)
        target = gibbs_target(model, n, eps)
        with np.errstate(over="ignore", invalid="ignore"):
            for y in _fused_states(n):
                logp, mean = target(y)
                ref_logp, ref_grad = _reference_log_target_and_grad(model, y)
                ref_mean = y + eps * ref_grad
                finite = np.isfinite(logp) and np.isfinite(mean).all()
                assert finite == (np.isfinite(ref_logp) and np.isfinite(ref_mean).all()), y
                if not finite:
                    continue
                y2, abs_y = y * y, np.abs(y)
                terms = float(np.add.reduce(theta / 4 * y2 * y2 + abs(sigma) / 2 * y2)
                              + j * float(np.add.reduce(y)) ** 2 / (2 * n))
                assert abs(logp - ref_logp) <= 8 * np.spacing(terms), y
                scale = (abs_y + eps * abs_y * (theta * y2 + abs(sigma))
                         + eps * j * float(np.add.reduce(abs_y)) / n)
                assert np.all(np.abs(mean - ref_mean) <= 8 * np.spacing(scale)), y


class TestEmptyConfiguration:
    """Zero particles is a ValueError."""

    @pytest.mark.parametrize("kernel", [False, True], ids=["rank-one", "kernel"])
    def test_zero_particles_raise(self, cw, kernel):
        with pytest.raises(ValueError, match="at least one particle"):
            gibbs_target(_PAIR_KERNEL if kernel else cw, 0, 0.1)
