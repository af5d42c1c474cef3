"""Closed-form constants and proof-internal recursions.

Every formula here is a verbatim transcription (natural logarithms
throughout); no tightening or re-derivation, even where slack is visible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssertionFailure, InvalidConstants, RegimeViolation
from .meanfield import TiltedMeasure, critical_coupling, subcritical_reference

__all__ = [
    "ConstantsBundle",
    "chaos_bound_marginal",
    "chaos_bound_conditional",
    "defective_t2_constants",
    "t1_particle_constant",
    "jw_rhs",
    "prop25_constants",
    "curie_weiss_constants",
    "lemma51_coefficient_check",
    "verify_upper_solution",
    "CoefficientReport",
    "UpperSolutionReport",
]


@dataclass(frozen=True)
class ConstantsBundle:
    """The constants (rho, gamma, M, ...) governing the chaos bounds, and the
    coupling J and particle number N they were built for (NaN and None where
    a regime has none), which ``verify``'s scans check against their model."""

    rho: float
    gamma: float
    big_m: float
    rho0: float
    lambda_n: float
    delta_n: float
    j_c: float
    var_mstar: float
    regime: str
    coupling: float = math.nan
    n_particles: int | None = None

    def __post_init__(self) -> None:
        if self.gamma < 0 or self.big_m < 0:
            raise ValueError("gamma and big_m must be non-negative")
        if not math.isnan(self.delta_n) and self.delta_n < 0:
            raise ValueError("delta_n must be non-negative")


def _check_bound_args(c: ConstantsBundle, N: int, k: int) -> None:
    """The guard both chaos bounds share: rho > 0 and 1 <= k <= N."""
    if c.rho <= 0:
        raise InvalidConstants("rho must be positive to evaluate the bound")
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")


def _conditional_bound(rho, gamma, big_m, N: int, k):
    """36 (1+g)^3 M / (rho N^2) (k + 3g), g = gamma/rho, for a scalar or an
    array k: the refined upper solution of the entropy recursion."""
    g = gamma / rho
    return 36.0 * (1.0 + g) ** 3 * big_m / (rho * N * N) * (k + 3.0 * g)


def chaos_bound_marginal(c: ConstantsBundle, N: int, k: int) -> float:
    """Entropy bound for the k-particle marginal: O(k^2/N^2) with constants."""
    _check_bound_args(c, N, k)
    g = c.gamma / c.rho
    return 18.0 * (1.0 + g) ** 3 * c.big_m / (c.rho * N * N) * (k * k + (1.0 + 6.0 * g) * k)


def chaos_bound_conditional(c: ConstantsBundle, N: int, k: int) -> float:
    """Bound on the k-th conditional entropy level: O(k/N^2)."""
    _check_bound_args(c, N, k)
    return _conditional_bound(c.rho, c.gamma, c.big_m, N, k)


def defective_t2_constants(lam: float, eps: float, l_minus: float,
                           l_plus: float, N: int, var_mstar: float):
    """(lambda_N, delta_N) for the N-particle defective T2 inequality.

    eps in (0, 1/2] uses the 3(1/sqrt(2 eps) + 3) coefficient; eps = 0
    switches to 2(log N + 3).
    """
    if not 0 <= eps <= 0.5:
        raise ValueError("eps must lie in [0, 1/2]")
    if min(l_minus, l_plus, var_mstar) < 0 or N < 1:
        raise ValueError("l_minus, l_plus, var_mstar must be >= 0 and N >= 1")
    if eps == 0:
        coeff = 2.0 * (math.log(N) + 3.0)
    else:
        coeff = 3.0 * (1.0 / math.sqrt(2.0 * eps) + 3.0)
    lambda_n = lam - coeff * l_minus / N
    delta_n = (coeff * l_minus + l_plus) * var_mstar
    return lambda_n, delta_n


def t1_particle_constant(lambda_n: float, delta_n: float) -> float:
    """T1 constant 64(1+delta_N)^2/lambda_N shared by all marginals."""
    if lambda_n <= 0:
        raise InvalidConstants("lambda_n must be positive")
    return 64.0 * (1.0 + delta_n) ** 2 / lambda_n


def jw_rhs(eps: float, l_minus: float, var_mstar: float) -> float:
    """Right-hand side 3(1/sqrt(2 eps)+3) L^-_W Var(m_*) of the log-MGF bound."""
    if not 0 < eps <= 0.5:
        raise InvalidConstants("eps must lie in (0, 1/2]")
    if l_minus < 0 or var_mstar < 0:
        raise ValueError("l_minus and var_mstar must be non-negative")
    return 3.0 * (1.0 / math.sqrt(2.0 * eps) + 3.0) * l_minus * var_mstar


def prop25_constants(regime: str, *, rho0: float = 0.0,
                     m_w: float = 0.0, m_minus: float = 0.0,
                     l_plus: float = 0.0, l_minus: float = 0.0,
                     kappa_v: float = 0.0, l_w: float = 0.0,
                     d: int = 1, N: int | None = None) -> ConstantsBundle:
    """Constant bundles for the three general-interaction regimes.

    flat-bounded:   bounded interaction force, needs M^-_W < sqrt(rho0)/2.
    flat-lipschitz: Lipschitz force, needs L^-_W < rho0/2; composes the
                    defective T2 constants with eps = 1/2, Var = d/rho0 and
                    lambda = rho0 - (3/2) L^-_W.
    displacement:   displacement-convex confinement, kappa_V > 0.
    """
    nan = float("nan")
    if regime == "flat-bounded":
        if rho0 <= 0:
            raise RegimeViolation("flat-bounded requires rho0 > 0")
        if not m_minus < math.sqrt(rho0) / 2.0:
            raise RegimeViolation("flat-bounded requires M^-_W < sqrt(rho0)/2")
        rho = rho0 * (1.0 - 2.0 * m_minus / math.sqrt(rho0))
        return ConstantsBundle(rho, 2.0 * m_w, 4.0 * m_w * m_w, rho0,
                               nan, nan, nan, d / rho0, regime, n_particles=N)
    if regime == "flat-lipschitz":
        if rho0 <= 0:
            raise RegimeViolation("flat-lipschitz requires rho0 > 0")
        if not l_minus < rho0 / 2.0:
            raise RegimeViolation("flat-lipschitz requires L^-_W < rho0/2")
        if N is None or N < 1:
            raise RegimeViolation("flat-lipschitz requires N >= 1")
        rho = rho0 * (1.0 - 2.0 * l_minus / rho0)
        lam = rho0 - 1.5 * l_minus
        lambda_n, delta_n = defective_t2_constants(lam, 0.5, l_minus, l_plus,
                                                   N, d / rho0)
        if lambda_n <= 0:
            raise RegimeViolation(f"lambda_N = {lambda_n} <= 0 at N = {N}")
        lip = l_plus + l_minus
        gamma = 64.0 * (1.0 + delta_n) ** 2 * lip * lip / lambda_n
        big_m = 4.0 * lip * lip * (delta_n / (lambda_n * N) + d / rho0)
        return ConstantsBundle(rho, gamma, big_m, rho0, lambda_n, delta_n,
                               nan, d / rho0, regime, n_particles=N)
    if regime == "displacement":
        if kappa_v <= 0:
            raise RegimeViolation("displacement requires kappa_V > 0")
        rho = kappa_v / (2.0 * (1.0 + l_w * l_w / kappa_v**2))
        gamma = 2.0 * l_w * l_w / kappa_v
        finite_n = 0.0 if N is None else l_w * l_w / (kappa_v**2 * N)
        big_m = 4.0 * l_w * l_w * (1.0 + finite_n) * d / kappa_v
        return ConstantsBundle(rho, gamma, big_m, kappa_v, nan, nan, nan,
                               d / kappa_v, regime, n_particles=N)
    raise ValueError(f"unknown regime {regime!r}")


def curie_weiss_constants(reference: TiltedMeasure, N: int) -> ConstantsBundle:
    """Full constant bundle for the sub-critical quartic rank-one model.

    J_c and Var(m_*) are read off ``reference``, the model's pi[0], which must
    pass ``meanfield.subcritical_reference``; theta, sigma and J off its model.
    The small-sigma rho0 = exp(-7 (1 - sigma)^2 / (36 theta)) tends to 0 as
    theta -> 0+, and rho0 = 0 gives lambda_N < 0, so the Gaussian model
    with sigma < 1 raises ``RegimeViolation``, like every lambda_N <= 0.
    """
    model = reference.model
    if not model.is_quartic:
        raise RegimeViolation("the Curie-Weiss bundle needs a quartic confinement")
    var_mstar = subcritical_reference(reference).second_moment
    j_c = critical_coupling(reference)
    theta, sigma, J = model.confinement.theta, model.confinement.sigma, model.coupling
    if J <= 0:
        raise RegimeViolation("bundle requires 0 < J < J_c")
    if sigma >= 1.0:
        rho0 = sigma
    elif theta == 0.0:
        raise RegimeViolation("theta = 0 with sigma < 1 gives rho0 = 0 and lambda_N < 0")
    else:
        rho0 = math.exp(-7.0 * (1.0 - sigma) ** 2 / (36.0 * theta))
    r = 1.0 - J / j_c
    rho = r * r * rho0
    q = min(j_c / J - 1.0, 1.0)
    coeff = 3.0 * (1.0 / math.sqrt(q) + 3.0)
    lambda_n = r * rho0 / 2.0 - coeff * J / N
    delta_n = coeff * J / rho0
    if lambda_n <= 0:
        raise RegimeViolation(f"lambda_N = {lambda_n} <= 0 at N = {N}")
    gamma = 64.0 * (1.0 + delta_n) ** 2 * J * J / lambda_n
    big_m = 4.0 * J * J * (delta_n / (lambda_n * N) + 1.0 / rho0)
    return ConstantsBundle(rho, gamma, big_m, rho0, lambda_n, delta_n,
                           j_c, var_mstar, "curie-weiss", J, N)


@dataclass(frozen=True)
class CoefficientReport:
    """``lemma51_coefficient_check`` at (N, alpha): the A-sum and its upper
    bound, the B-sum and its lower bound, and whether both hold."""

    n_particles: int
    alpha: float
    a_sum: float
    a_bound: float
    b_sum: float
    b_bound: float
    passed: bool


def lemma51_coefficient_check(N: int, alpha: float) -> CoefficientReport:
    """Exact finite sums behind the interpolation-coefficient estimates.

    With c_k = ((k-1)/(N-1))^alpha for k = 2..N, the A-sum must stay below
    1/(2 alpha) + 3 (or log N + 3 at alpha = 0) and the B-sum above
    2/(1+alpha) - 1/(1+2 alpha) (or 1 at alpha = 0).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if not 0 <= alpha <= 0.5:
        raise ValueError("alpha must lie in [0, 1/2]")
    k = np.arange(2, N + 1, dtype=float)
    base = (k - 1.0) / (N - 1.0)
    c = np.ones_like(base) if alpha == 0 else base**alpha
    a_sum = float(np.sum(c**2 / (k - 1.0)
                         + 2.0 * c / (N - 1.0)
                         - (k - 2.0) * c**2 / ((N - 1.0) * (k - 1.0))))
    b_sum = float(np.sum(2.0 * c - (k - 2.0) * c**2 / (k - 1.0)) / (N - 1.0))
    if alpha == 0:
        a_bound = math.log(N) + 3.0
        b_bound = 1.0
    else:
        a_bound = 1.0 / (2.0 * alpha) + 3.0
        b_bound = 2.0 / (1.0 + alpha) - 1.0 / (1.0 + 2.0 * alpha)
    passed = a_sum <= a_bound + 1e-12 and b_sum >= b_bound - 1e-12
    return CoefficientReport(N, alpha, a_sum, a_bound, b_sum, b_bound, passed)


@dataclass(frozen=True)
class UpperSolutionReport:
    """``verify_upper_solution`` at (rho, gamma, M, N): the least margin of
    the crude and of the refined sequence over k; ``passed`` is True, since a
    failure raises ``AssertionFailure``."""

    rho: float
    gamma: float
    big_m: float
    n_particles: int
    min_margin_crude: float
    min_margin_refined: float
    passed: bool


def _recursion_margin(name: str, rho, gamma, h, source, boundary) -> float:
    """Least margin 2 rho h_k - source_k - 3 gamma (h_{k+1} - h_k) over
    k < N; ``AssertionFailure`` naming the sequence if a margin is below
    -1e-12 relative, or if h_N falls short of ``boundary``."""
    tol = 1e-12
    lhs = 2.0 * rho * h[:-1]
    margin = lhs - (source + 3.0 * gamma * (h[1:] - h[:-1]))
    bad = np.nonzero(margin < -tol * np.maximum(np.abs(lhs), 1.0))[0]
    if bad.size:
        raise AssertionFailure(f"{name} recursion violated at k = {int(bad[0]) + 1}")
    if h[-1] < boundary * (1.0 - tol):
        raise AssertionFailure(f"{name} boundary condition violated at k = N")
    return float(margin.min())


def verify_upper_solution(rho: float, gamma: float, big_m: float,
                          N: int) -> UpperSolutionReport:
    """Machine check that the two candidate sequences dominate the entropy
    difference recursion 2 rho h_k >= (source at k) + 3 gamma (h_{k+1} - h_k)
    with the matching boundary conditions.  The refined sequence is
    ``chaos_bound_conditional`` at k = 1..N, the bound ``chaos-scan`` prints.
    A failure would refute the transcription, never the algebra, hence
    AssertionFailure.
    """
    if rho <= 0:
        raise InvalidConstants("rho must be positive")
    if gamma < 0 or big_m < 0 or N < 2:
        raise InvalidConstants("need gamma, M >= 0 and N >= 2")
    g = gamma / rho
    k = np.arange(1, N + 1, dtype=float)

    # Crude sequence: quadratic in k with gamma-dependent offsets.
    pref = 3.0 * big_m * (1.0 + g / 2.0) / (rho * N * N)
    h = pref * (k**2 + 6.0 * g * k + 18.0 * g**2 + 3.0 * g)
    margin_crude = _recursion_margin(
        "crude", rho, gamma, h,
        3.0 * big_m * (1.0 + g / 2.0) * k[:-1] ** 2 / (N * N),
        big_m / (2.0 * rho))

    # Refined sequence: linear in k, sharper constant.
    margin_refined = _recursion_margin(
        "refined", rho, gamma, _conditional_bound(rho, gamma, big_m, N, k),
        36.0 * (1.0 + g) ** 3 * big_m * k[:-1] / (N * N),
        6.0 * (1.0 + g) ** 2 * big_m / (rho * N))

    return UpperSolutionReport(rho, gamma, big_m, N, margin_crude,
                               margin_refined, True)

