import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import bounds
from chaoslab.bounds import (ConstantsBundle, chaos_bound_conditional,
                             chaos_bound_marginal, curie_weiss_constants,
                             defective_t2_constants, jw_rhs,
                             lemma51_coefficient_check, prop25_constants,
                             t1_particle_constant, verify_upper_solution)
from chaoslab.errors import (AssertionFailure, InvalidConstants, RegimeViolation,
                             Supercritical)
from chaoslab.meanfield import LogPartition, critical_coupling
from chaoslab.model import (GeneralPotential, ModelSpec, RankOneInteraction,
                            curie_weiss_model, gaussian_model)
from conftest import J_CRIT, constants_of

log_uniform = st.floats(math.log(1e-2), math.log(1e2)).map(math.exp)


def _bundle(rho=1.0, gamma=0.0, big_m=1.0):
    nan = float("nan")
    return ConstantsBundle(rho, gamma, big_m, 1.0, nan, nan, nan, 1.0, "test")


class TestChaosBounds:
    def test_marginal_gamma_zero(self):
        assert chaos_bound_marginal(_bundle(), 10, 1) == pytest.approx(0.36)

    def test_marginal_gamma_equals_rho(self):
        c = _bundle(rho=2.0, gamma=2.0, big_m=3.0)
        expected = 144.0 * 3.0 * (4 + 7 * 2) / (2.0 * 100)
        assert chaos_bound_marginal(c, 10, 2) == pytest.approx(expected)

    def test_conditional_gamma_zero(self):
        assert chaos_bound_conditional(_bundle(big_m=2.0), 10, 3) == pytest.approx(
            36 * 2.0 * 3 / 100)

    def test_conditional_example(self):
        c = _bundle(rho=1.0, gamma=1.0, big_m=1.0)
        assert chaos_bound_conditional(c, 10, 3) == pytest.approx(17.28)

    def test_chain_rule_identity(self):
        c = _bundle(rho=1.3, gamma=0.7, big_m=2.1)
        for n, k in ((10, 1), (50, 7), (128, 4)):
            g = c.gamma / c.rho
            rhs = 36 * (1 + g) ** 3 * c.big_m / (c.rho * n * n) * (
                k * k + (1 + 6 * g) * k)
            assert 2 * chaos_bound_marginal(c, n, k) == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("bound", [chaos_bound_marginal, chaos_bound_conditional])
    def test_requires_positive_rho(self, bound):
        c = ConstantsBundle(-1.0, 0.0, 1.0, 1.0, float("nan"), float("nan"),
                            float("nan"), 1.0, "test")
        with pytest.raises(InvalidConstants):
            bound(c, 10, 1)

    @pytest.mark.parametrize("bound", [chaos_bound_marginal, chaos_bound_conditional])
    @pytest.mark.parametrize("k", [0, 11])
    def test_requires_k_in_range(self, bound, k):
        with pytest.raises(ValueError):
            bound(_bundle(), 10, k)

    @given(m1=log_uniform, m2=log_uniform)
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_m_and_n(self, m1, m2):
        lo, hi = sorted([m1, m2])
        c_lo, c_hi = _bundle(big_m=lo), _bundle(big_m=hi)
        assert chaos_bound_marginal(c_lo, 16, 2) <= chaos_bound_marginal(c_hi, 16, 2)
        assert chaos_bound_marginal(c_hi, 32, 2) <= chaos_bound_marginal(c_hi, 16, 2)
        assert chaos_bound_marginal(c_hi, 16, 2) <= chaos_bound_marginal(c_hi, 16, 3)

    @given(rho=log_uniform, gamma=log_uniform, big_m=log_uniform,
           n=st.sampled_from([2, 10, 100, 1000]))
    @settings(max_examples=100, deadline=None)
    def test_marginal_is_sum_of_conditionals(self, rho, gamma, big_m, n):
        # chaos-scan prints both sums, in the bound_conditional_sum and
        # bound_marginal columns.
        c = _bundle(rho, gamma, big_m)
        total = 0.0
        for k in range(1, min(n, 20) + 1):
            total += chaos_bound_conditional(c, n, k)
            assert total == pytest.approx(chaos_bound_marginal(c, n, k), rel=1e-13)


class TestT1Constants:
    def test_particle_examples(self):
        assert t1_particle_constant(1.0, 0.0) == 64.0
        assert t1_particle_constant(2.0, 1.0) == 128.0
        assert t1_particle_constant(0.88, 12.0) == pytest.approx(64 * 169 / 0.88)

    def test_particle_rejects_nonpositive_lambda(self):
        with pytest.raises(InvalidConstants):
            t1_particle_constant(0.0, 1.0)


class TestDefectiveT2:
    def test_zero_l_minus(self):
        lam_n, delta_n = defective_t2_constants(1.7, 0.25, 0.0, 0.4, 50, 2.0)
        assert lam_n == 1.7
        assert delta_n == pytest.approx(0.4 * 2.0)

    def test_eps_half_example(self):
        lam_n, delta_n = defective_t2_constants(1.0, 0.5, 1.0, 0.0, 100, 1.0)
        assert lam_n == pytest.approx(0.88)
        assert delta_n == pytest.approx(12.0)

    def test_eps_zero_example(self):
        lam_n, delta_n = defective_t2_constants(1.0, 0.0, 1.0, 0.0, 20, 1.0)
        coeff = 2 * (math.log(20) + 3)
        assert lam_n == pytest.approx(1 - coeff / 20)
        assert delta_n == pytest.approx(coeff)

    def test_limits_in_n(self):
        lam = 1.0
        prev = None
        for n in (10, 20, 40, 80, 160):
            lam_n, delta_n = defective_t2_constants(lam, 0.25, 1.0, 0.5, n, 1.0)
            if prev is not None:
                assert abs(lam - lam_n) < abs(lam - prev[0])
                assert delta_n == prev[1]  # eps > 0 branch is N-independent
            prev = (lam_n, delta_n)


class TestJwRhs:
    def test_examples(self):
        assert jw_rhs(0.5, 1.0, 1.0) == pytest.approx(12.0)
        assert jw_rhs(0.125, 2.0, 0.5) == pytest.approx(15.0)
        assert jw_rhs(0.5, 0.0, 1.0) == 0.0

    def test_eps_zero_rejected(self):
        with pytest.raises(InvalidConstants):
            jw_rhs(0.0, 1.0, 1.0)


class TestProp25:
    def test_bounded_example(self):
        b = prop25_constants("flat-bounded", rho0=4.0, m_minus=0.0, m_w=1.0)
        assert (b.rho, b.gamma, b.big_m) == (4.0, 2.0, 4.0)

    def test_bounded_regime_violation(self):
        with pytest.raises(RegimeViolation):
            prop25_constants("flat-bounded", rho0=4.0, m_minus=1.0, m_w=1.0)

    def test_displacement_example(self):
        b = prop25_constants("displacement", kappa_v=1.0, l_w=1.0, d=1)
        assert b.rho == pytest.approx(0.25)
        assert b.gamma == pytest.approx(2.0)
        assert b.big_m == pytest.approx(4.0)

    def test_lipschitz_composition(self):
        b = prop25_constants("flat-lipschitz", rho0=10.0, l_minus=0.0,
                             l_plus=1.0, d=1, N=100)
        # With L^- = 0 the T2 call returns lambda unchanged.
        assert b.lambda_n == pytest.approx(10.0)
        assert b.delta_n == pytest.approx(1.0 / 10.0)
        lip = 1.0
        assert b.gamma == pytest.approx(64 * (1 + b.delta_n) ** 2 * lip**2 / b.lambda_n)

    def test_lipschitz_regime_violation(self):
        with pytest.raises(RegimeViolation):
            prop25_constants("flat-lipschitz", rho0=1.0, l_minus=0.6, N=10)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            prop25_constants("nope")

    @pytest.mark.parametrize("regime, kwargs", [
        ("flat-bounded", {"rho0": 4.0, "m_w": 1.0}),
        ("flat-lipschitz", {"rho0": 10.0, "l_plus": 1.0}),
        ("displacement", {"kappa_v": 1.0, "l_w": 1.0}),
    ])
    def test_bundle_has_no_coupling_and_its_n(self, regime, kwargs):
        b = prop25_constants(regime, N=100, **kwargs)
        assert math.isnan(b.coupling) and b.n_particles == 100


class TestCurieWeissConstants:
    def test_sigma_one_branch(self, quartic_model):
        b = constants_of(quartic_model, 128)
        assert b.rho0 == 1.0
        assert b.regime == "curie-weiss"

    def test_bundle_carries_its_model(self, quartic_model):
        b = constants_of(quartic_model, 128)
        assert (b.coupling, b.n_particles) == (quartic_model.coupling, 128)

    def test_small_sigma_branch(self):
        b = constants_of(curie_weiss_model(7.0 / 36.0, 0.0, 0.05), 4096)
        assert b.rho0 == pytest.approx(math.exp(-1.0))

    def test_frozen_bundle(self, quartic_model):
        b = constants_of(quartic_model, 128)
        assert b.j_c == pytest.approx(J_CRIT, abs=1e-9)
        assert b.rho == pytest.approx(0.25)
        assert b.lambda_n == pytest.approx(0.14982260147597404, abs=1e-12)
        assert b.gamma == pytest.approx(93193.53631417664, rel=1e-10)
        assert b.big_m == pytest.approx(7.621134255524086, rel=1e-10)

    def test_supercritical_rejected(self):
        with pytest.raises(Supercritical):
            constants_of(curie_weiss_model(1.0, 1.0, 1.1 * J_CRIT), 64)

    def test_small_n_regime_violation(self, quartic_model):
        with pytest.raises(RegimeViolation):
            constants_of(quartic_model, 8)

    def test_gaussian_small_sigma_regime_violation(self):
        # rho0 = exp(-7 (1 - sigma)^2 / (36 theta)) -> 0 as theta -> 0+.
        with pytest.raises(RegimeViolation):
            constants_of(gaussian_model(0.5, 0.25), 128)

    def test_gaussian_sigma_one_branch(self):
        b = constants_of(gaussian_model(2.0, 0.25), 128)
        assert b.rho0 == 2.0 and b.j_c == pytest.approx(2.0, rel=1e-12)

    def test_reads_its_reference_and_builds_no_kernel(self, quartic_model, monkeypatch):
        # J_c and Var(m_*) are read off the pi[0] it is given.
        reference = LogPartition(quartic_model).reference
        monkeypatch.setattr(LogPartition, "__init__",
                            lambda self, model: pytest.fail("built a kernel"))
        b = curie_weiss_constants(reference, 128)
        assert b.j_c == critical_coupling(reference)
        assert b.var_mstar == reference.second_moment

    def test_non_quartic_regime_violation(self):
        v = GeneralPotential(v=lambda x: x**4 / 4 + x**2 / 2, grad_v=lambda x: x**3 + x)
        with pytest.raises(RegimeViolation):
            constants_of(ModelSpec(v, RankOneInteraction(0.5)), 128)


class TestLemma51:
    def test_n2_alpha0(self):
        rep = lemma51_coefficient_check(2, 0.0)
        assert rep.a_sum == pytest.approx(3.0)
        assert rep.a_bound == pytest.approx(math.log(2) + 3)
        assert rep.passed

    def test_n1000_examples(self):
        assert lemma51_coefficient_check(1000, 0.25).passed
        rep = lemma51_coefficient_check(1000, 0.0)
        assert rep.passed
        assert rep.a_sum <= math.log(1000) + 3

    def test_full_sweep(self):
        for n in range(2, 1025):
            for alpha in (0.0, 0.125, 0.25, 0.5):
                assert lemma51_coefficient_check(n, alpha).passed


class TestUpperSolution:
    def test_gamma_zero(self):
        rep = verify_upper_solution(1.0, 0.0, 1.0, 20)
        assert rep.passed

    def test_unit_constants(self):
        assert verify_upper_solution(1.0, 1.0, 1.0, 100).passed

    @given(rho=log_uniform, gamma=log_uniform, big_m=log_uniform)
    @settings(max_examples=200, deadline=None)
    def test_random_triples(self, rho, gamma, big_m):
        assert verify_upper_solution(rho, gamma, big_m, 50).passed

    def test_refined_sequence_is_the_printed_bound(self, monkeypatch):
        # On the acceptance gate's triples, the sequence the certificate
        # checks is, bit for bit, the conditional bound chaos-scan prints.
        checked = {}
        real = bounds._recursion_margin

        def recorded(name, rho, gamma, h, source, boundary):
            checked[name] = h
            return real(name, rho, gamma, h, source, boundary)

        monkeypatch.setattr(bounds, "_recursion_margin", recorded)
        rng = np.random.default_rng(7)
        triples = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(1000, 3)))
        for rho, gamma, big_m in triples:
            c = _bundle(rho, gamma, big_m)
            for n in (10, 100):
                verify_upper_solution(rho, gamma, big_m, n)
                printed = [chaos_bound_conditional(c, n, k) for k in range(1, n + 1)]
                assert checked["refined"].tolist() == printed

    def test_broken_refined_sequence_raises(self, monkeypatch):
        # At gamma = 0 the refined source is rho h_k, so 0.4 h has the
        # margin -0.2 rho h_k, negative from k = 1.
        real = bounds._conditional_bound
        monkeypatch.setattr(bounds, "_conditional_bound",
                            lambda *args: 0.4 * real(*args))
        with pytest.raises(AssertionFailure, match="refined recursion violated at k = 1"):
            verify_upper_solution(1.0, 0.0, 1.0, 20)

    def test_hand_built_sequence_raises(self):
        # 2 rho h_k = 2 and 3 at k = 1, 2; 3 gamma (h_{k+1} - h_k) = 1.5 and 28.5.
        h = np.array([1.0, 1.5, 11.0])
        with pytest.raises(AssertionFailure, match="crude recursion violated at k = 2"):
            bounds._recursion_margin("crude", 1.0, 1.0, h, np.zeros(2), 0.0)
        with pytest.raises(AssertionFailure, match="refined boundary condition violated"):
            bounds._recursion_margin("refined", 1.0, 1.0, np.ones(3), np.zeros(2), 2.0)
        assert bounds._recursion_margin("crude", 1.0, 1.0, np.ones(3), np.zeros(2),
                                        1.0) == 2.0
