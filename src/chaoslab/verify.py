"""Numerical verification of the functional inequalities on tilted families.

Every scan uses the tilted measures pi[l] as the test family: the
variational arguments behind the sub-critical constants show these are
the extremizers of the entropy-constrained problems, so they are the
sharpest cheap probes.  Constants always come in verbatim from the
bounds module; a scan failure is a build-stopping event.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ConstantsBundle, t1_particle_constant
from .errors import DivergentIntegral, NoSignChange, NonConvergent
from .marginals import MixtureLaw, build_mixture, marginal_log_density_batch
from .meanfield import (LogPartition, TiltedMeasure, critical_coupling, magnetization,
                        tilt_window, tilted_measure)
from .metrics import fisher_information_1d, quantile_from_density, wasserstein_1d
from .model import ModelSpec
from .numerics import DEFAULT_SPEC, QuadratureSpec, find_root, log_integrate_exp

__all__ = [
    "ScanReport",
    "nonlinear_lsi_scan",
    "linear_lsi_scan",
    "phi_positivity_scan",
    "psi_positivity_scan",
    "jw_log_mgf",
    "bolley_villani_moment_check",
    "marginal_t1_ratio_scan",
    "magnetization_inverse",
]

_TOL = 1e-9


@dataclass(frozen=True)
class ScanReport:
    """Pointwise comparison over a scan grid; margin = rhs - lhs."""

    grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    min_margin: float
    passed: bool

    def __post_init__(self) -> None:
        if not (len(self.grid) == len(self.lhs) == len(self.rhs)):
            raise ValueError("grid, lhs and rhs must have equal length")


def _report(grid, lhs, rhs, tol: float = _TOL) -> ScanReport:
    grid = np.asarray(grid, dtype=float)
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    margin = float(np.min(rhs - lhs))
    return ScanReport(grid, lhs, rhs, margin, margin >= -tol)


def _entropy_between_tilts(model: ModelSpec, mu: TiltedMeasure,
                           nu: TiltedMeasure,
                           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """H(mu | nu) for two tilted measures: exact via means and normalizers."""
    from .meanfield import moment

    mean = moment(mu, 1, spec)
    return (mu.tilt - nu.tilt) * mean - mu.log_z + nu.log_z


def nonlinear_lsi_scan(model: ModelSpec, bundle: ConstantsBundle, tilt_grid,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> ScanReport:
    """Check 2 rho H(pi[l] | m_*) <= I(pi[l] | Pi[pi[l]]) on a tilt grid.

    The score gap between pi[l] and Pi[pi[l]] = pi[f(l)] is the constant
    J(l - f(l)), so the non-linear Fisher information is J^2 (l - f(l))^2.
    """
    J = model.coupling
    mstar = tilted_measure(model, 0.0, spec)
    grid = np.asarray(tilt_grid, dtype=float)
    lhs = np.empty_like(grid)
    rhs = np.empty_like(grid)
    for i, ell in enumerate(grid):
        mu = tilted_measure(model, J * ell, spec)
        lhs[i] = 2.0 * bundle.rho * _entropy_between_tilts(model, mu, mstar, spec)
        f_ell = magnetization(model, ell, spec)
        rhs[i] = J**2 * (ell - f_ell) ** 2
    return _report(grid, lhs, rhs)


def linear_lsi_scan(model: ModelSpec, bundle: ConstantsBundle, tilt_grid,
                    spec: QuadratureSpec = DEFAULT_SPEC) -> ScanReport:
    """Check 2 rho0 H(pi[l] | m_*) <= I(pi[l] | m_*).

    The Fisher side is quadrature of the squared score gap (not assumed
    constant, although it is for polynomial confinement).
    """
    J = model.coupling
    mstar = tilted_measure(model, 0.0, spec)
    grid = np.asarray(tilt_grid, dtype=float)
    lhs = np.empty_like(grid)
    rhs = np.empty_like(grid)
    for i, ell in enumerate(grid):
        mu = tilted_measure(model, J * ell, spec)
        lhs[i] = 2.0 * bundle.rho0 * _entropy_between_tilts(model, mu, mstar, spec)
        rhs[i] = fisher_information_1d(
            lambda x: -model.grad_potential(x) + mu.tilt,
            lambda x: -model.grad_potential(x),
            mu.density, spec)
    return _report(grid, lhs, rhs)


def magnetization_inverse(model: ModelSpec, h: float, tol: float = 1e-12,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """l = f^{-1}(h); f is strictly increasing and odd, so bracket by doubling."""
    if h == 0.0:
        return 0.0
    g = lambda ell: magnetization(model, ell, spec) - h
    width = max(1.0, abs(h))
    for _ in range(40):
        bracket = (0.0, width) if h > 0 else (-width, 0.0)
        try:
            return find_root(g, bracket, tol)
        except NoSignChange:
            width *= 2.0
    raise NonConvergent(f"could not bracket f^-1({h})")


def phi_positivity_scan(model: ModelSpec, eps_override: float | None,
                        h_grid, spec: QuadratureSpec = DEFAULT_SPEC) -> ScanReport:
    """Positivity of the interpolation functional phi on a magnetization grid.

    phi(h) = (1-eps) J l h - (1-eps) log Z(J l) - J h^2 + log Z(J h)
             - eps log Z(0),  l = f^{-1}(h),
    with the sub-critical choice eps = (1 - J/J_c)^2 unless overridden.
    The report's lhs is 0, rhs is phi, so margin = min phi.
    """
    J = model.coupling
    if eps_override is None:
        eps = (1.0 - J / critical_coupling(model, spec)) ** 2
    else:
        eps = eps_override
    log_z0 = tilted_measure(model, 0.0, spec).log_z
    grid = np.asarray(h_grid, dtype=float)
    phi = np.empty_like(grid)
    for i, h in enumerate(grid):
        ell = magnetization_inverse(model, h, spec=spec)
        log_z_ell = tilted_measure(model, J * ell, spec).log_z
        log_z_h = tilted_measure(model, J * h, spec).log_z
        phi[i] = ((1.0 - eps) * J * ell * h - (1.0 - eps) * log_z_ell
                  - J * h * h + log_z_h - eps * log_z0)
    return _report(grid, np.zeros_like(grid), phi)


def solve_interpolated_fixed_point(model: ModelSpec, alpha: float,
                                   h0: float, tol: float = 1e-12,
                                   spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """h_* solving h = f(alpha h0 + (1 - alpha) h) by damped iteration."""
    h = h0
    for _ in range(500):
        fh = magnetization(model, alpha * h0 + (1.0 - alpha) * h, spec)
        if abs(h - fh) <= tol:
            return h
        h = 0.5 * h + 0.5 * fh
    raise NonConvergent("interpolated fixed point did not converge")


def psi_positivity_scan(model: ModelSpec, alpha: float, m0_mean: float,
                        ell_grid, spec: QuadratureSpec = DEFAULT_SPEC) -> ScanReport:
    """Positivity of psi around the interpolated fixed point h_*.

    psi(l) = -(J_c/2)(f(l) - f(h_*))^2 + J (l - h_*) f(l)
             - log Z(J l) + log Z(J h_*),  with h_* = f(alpha h0 + (1-alpha) h_*).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    J = model.coupling
    j_c = critical_coupling(model, spec)
    h_star = solve_interpolated_fixed_point(model, alpha, m0_mean, spec=spec)
    f_star = magnetization(model, h_star, spec)
    log_z_star = tilted_measure(model, J * h_star, spec).log_z
    grid = np.asarray(ell_grid, dtype=float)
    psi = np.empty_like(grid)
    for i, ell in enumerate(grid):
        f_ell = magnetization(model, ell, spec)
        log_z_ell = tilted_measure(model, J * ell, spec).log_z
        psi[i] = (-(j_c / 2.0) * (f_ell - f_star) ** 2
                  + J * (ell - h_star) * f_ell - log_z_ell + log_z_star)
    return _report(grid, np.zeros_like(grid), psi)


def jw_log_mgf(model: ModelSpec, N: int,
               spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """log E[exp(J S_N^2 / 2N)] under m_*^{otimes N}, exactly.

    Gaussian linearization of the square gives
    log sqrt(N/2 pi J) + log int exp(-N z^2/2J + N (log Z_1(z) - log Z_0)) dz.

    The outer integral over t = z sqrt(N/J) is adaptive quadrature
    (``log_integrate_exp``, with its window search and error gate).  Each
    of its nodes takes log Z_1(z) - log Z_0 from one growing
    ``LogPartition``: a 4097-node log-trapezoid in x, both terms on the
    same grid.  The x-window starts at the support of exp(-V) and widens to
    cover the tilts +-|z| whenever a node leaves the covered range; at each
    widening the trapezoid is compared with its every-other-node version
    at z = 0 and +-|z|, and ``GridResolution`` is raised if they differ by
    more than 1e-12.
    """
    J = model.coupling
    if J <= 0:
        raise ValueError("requires J > 0")
    j_c = critical_coupling(model, spec)
    if J >= j_c:
        raise NonConvergent(f"log-MGF diverges for J = {J} >= J_c = {j_c}")
    log_z1 = LogPartition(model)

    # Substitute z = sqrt(J/N) t so the quadratic part is -t^2/2 and the
    # integrand width stays O(1) uniformly in J and N.
    scale = np.sqrt(J / N)

    def log_f(t):
        t = np.asarray(t, dtype=float)
        out = -t**2 / 2.0 + N * log_z1.cgf(scale * t)
        return out if out.ndim else float(out)

    return -0.5 * np.log(2.0 * np.pi) + log_integrate_exp(log_f, spec)


def bolley_villani_moment_check(mu_quantile, rho: float, delta: float,
                                grid_points: int = 8192) -> float:
    """int exp(rho (x - mean)^2 / 4) dmu via the quantile representation.

    The caller compares the return value against sqrt(2) exp(delta).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    # Graded grid clustering at both endpoints: the integrand can have an
    # integrable (1-u)^{-1/2}-type singularity in the boundary-equality case.
    s = np.linspace(-1.0, 1.0, grid_points)
    us = 0.5 + 0.5 * np.sign(s) * (1.0 - (1.0 - np.abs(s)) ** 4)
    us = np.clip(us, 1e-12, 1.0 - 1e-12)
    q = np.asarray(mu_quantile(us), dtype=float)
    mean = float(np.trapezoid(q, us))
    exponent = rho * (q - mean) ** 2 / 4.0
    if exponent.max() > 700.0:
        raise DivergentIntegral("tail of mu too heavy for the supplied rho")
    vals = np.exp(exponent)
    if not np.all(np.isfinite(vals)):
        raise DivergentIntegral("moment integrand overflowed")
    return float(np.trapezoid(vals, us))


def _entropy_against_marginal(model: ModelSpec, mu: TiltedMeasure,
                              law: MixtureLaw, grid_points: int = 8192) -> float:
    """H(mu | m^{N,1}) with the marginal density evaluated exactly."""
    lo, hi = tilt_window(model, mu.tilt)
    xs = np.linspace(lo, hi, grid_points)
    log_mu = mu.log_density(xs)
    p = np.exp(log_mu)
    log_m1 = marginal_log_density_batch(law, xs[:, None])
    return float(np.trapezoid(p * (log_mu - log_m1), xs))


def marginal_t1_ratio_scan(model: ModelSpec, N: int, bundle: ConstantsBundle,
                           tilt_grid, law: MixtureLaw | None = None,
                           grid_points: int = 8192,
                           spec: QuadratureSpec = DEFAULT_SPEC) -> ScanReport:
    """W_1^2(pi[l], m^{N,1}) <= 64 (1+delta_N)^2 / lambda_N * H(pi[l] | m^{N,1})."""
    from .marginals import marginal_grid_density

    if law is None:
        law = build_mixture(model, N)
    const = t1_particle_constant(bundle.lambda_n, bundle.delta_n)
    m1 = marginal_grid_density(law, grid_points)
    qm = quantile_from_density(lambda x: np.interp(x, m1.xs, m1.values,
                                                   left=0.0, right=0.0),
                               m1.lo, m1.hi, grid_points)
    J = model.coupling
    grid = np.asarray(tilt_grid, dtype=float)
    lhs = np.empty_like(grid)
    rhs = np.empty_like(grid)
    for i, ell in enumerate(grid):
        mu = tilted_measure(model, J * ell, spec)
        lo, hi = tilt_window(model, mu.tilt)
        lo, hi = min(lo, m1.lo), max(hi, m1.hi)
        qn = quantile_from_density(mu.density, lo, hi, grid_points)
        w1 = wasserstein_1d(qn, qm, order=1)
        lhs[i] = w1 * w1
        rhs[i] = const * _entropy_against_marginal(model, mu, law, grid_points)
    return _report(grid, lhs, rhs)
