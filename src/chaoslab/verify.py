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
from .errors import DivergentIntegral
from .marginals import MixtureLaw, build_mixture, marginal_log_grid
from .meanfield import (LogPartition, TiltedMeasure, critical_coupling,
                        subcritical_reference)
from .metrics import quantile_from_density, wasserstein_1d
from .model import MAX_PARTICLES, ModelSpec
from .numerics import (FINE_POINTS, GridDensity, log_trapezoid, newton_root,
                       trapezoid_log_weights, window_search)

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


def _entropy_between_tilts(mu: TiltedMeasure, nu: TiltedMeasure) -> float:
    """H(mu | nu) for two tilted measures: exact via means and normalizers."""
    return (mu.tilt - nu.tilt) * mu.mean - mu.log_z + nu.log_z


def _tilted_family(model: ModelSpec, tilt_grid):
    """(J, grid, [pi[J l] for l in grid], [H(pi[J l] | m_*) for l in grid]),
    every measure from one ``LogPartition``; the mean of pi[J l] is f(l)."""
    J = model.coupling
    grid = np.asarray(tilt_grid, dtype=float)
    kernel = LogPartition(model)
    mstar = kernel.measure(0.0)
    family = [kernel.measure(J * ell) for ell in grid]
    return J, grid, family, [_entropy_between_tilts(mu, mstar) for mu in family]


def nonlinear_lsi_scan(model: ModelSpec, bundle: ConstantsBundle, tilt_grid) -> ScanReport:
    """Check 2 rho H(pi[l] | m_*) <= I(pi[l] | Pi[pi[l]]) on a tilt grid.

    The score gap between pi[l] and Pi[pi[l]] = pi[f(l)] is the constant
    J(l - f(l)), so the non-linear Fisher information is J^2 (l - f(l))^2.
    """
    J, grid, family, entropy = _tilted_family(model, tilt_grid)
    lhs = [2.0 * bundle.rho * h for h in entropy]
    return _report(grid, lhs, J**2 * (grid - [mu.mean for mu in family]) ** 2)


def linear_lsi_scan(model: ModelSpec, bundle: ConstantsBundle, tilt_grid) -> ScanReport:
    """Check 2 rho0 H(pi[l] | m_*) <= I(pi[l] | m_*).

    The score gap between pi[l] and m_* = pi[0] is the constant J l for
    every confinement V, so the Fisher side is exactly (J l)^2.
    """
    J, grid, _, entropy = _tilted_family(model, tilt_grid)
    return _report(grid, [2.0 * bundle.rho0 * h for h in entropy], (J * grid) ** 2)


def magnetization_inverse(model: ModelSpec | LogPartition, h: float,
                          tol: float = 1e-12) -> float:
    """l = f^{-1}(h): the root of f(l) - h, whose derivative f'(l) =
    J Var(pi[J l]) is positive, by ``numerics.newton_root`` from l = h.
    ``model`` may be the ``LogPartition`` to read every f(l) from."""
    kernel = model if isinstance(model, LogPartition) else LogPartition(model)
    J = kernel.model.coupling

    def gd(ell):
        mu = kernel.measure(J * ell)
        return mu.mean - h, J * mu.variance

    return newton_root(gd, h, tol)


def phi_positivity_scan(model: ModelSpec, eps_override: float | None,
                        h_grid) -> ScanReport:
    """Positivity of the interpolation functional phi on a magnetization grid.

    phi(h) = (1-eps) J l h - (1-eps) log Z(J l) - J h^2 + log Z(J h)
             - eps log Z(0),  l = f^{-1}(h),
    with the sub-critical choice eps = (1 - J/J_c)^2 unless overridden.
    The report's lhs is 0, rhs is phi, so margin = min phi.
    """
    J = model.coupling
    kernel = LogPartition(model)
    mstar = kernel.measure(0.0)
    j_c = critical_coupling(mstar)
    eps = (1.0 - J / j_c) ** 2 if eps_override is None else eps_override
    grid = np.asarray(h_grid, dtype=float)
    phi = np.empty_like(grid)
    # Largest |h| first: its solve grows the kernel to the largest tilt of the
    # scan once.  Sub-critically, for an even V, every later solve stays
    # between h and f^{-1}(h), inside that range, and grows it no further.
    for i in np.argsort(-np.abs(grid), kind="stable"):
        h = grid[i]
        ell = magnetization_inverse(kernel, h)
        log_z_ell = kernel.measure(J * ell).log_z
        log_z_h = kernel.measure(J * h).log_z
        phi[i] = ((1.0 - eps) * J * ell * h - (1.0 - eps) * log_z_ell
                  - J * h * h + log_z_h - eps * mstar.log_z)
    return _report(grid, np.zeros_like(grid), phi)


def solve_interpolated_fixed_point(model: ModelSpec | LogPartition, alpha: float,
                                   h0: float, tol: float = 1e-12) -> float:
    """h_* solving h = f(alpha h0 + (1 - alpha) h), by ``numerics.newton_root``
    from h0 on g(h) = h - f(t), g'(h) = 1 - (1 - alpha) J Var(pi[J t]) with
    t = alpha h0 + (1 - alpha) h, every f read from one kernel (``model`` may
    be that ``LogPartition``)."""
    kernel = model if isinstance(model, LogPartition) else LogPartition(model)
    J = kernel.model.coupling

    def gd(h):
        mu = kernel.measure(J * (alpha * h0 + (1.0 - alpha) * h))
        return h - mu.mean, 1.0 - (1.0 - alpha) * J * mu.variance

    return newton_root(gd, h0, tol)


def psi_positivity_scan(model: ModelSpec, alpha: float, m0_mean: float,
                        ell_grid) -> ScanReport:
    """Positivity of psi around the interpolated fixed point h_*.

    psi(l) = -(J_c/2)(f(l) - f(h_*))^2 + J (l - h_*) f(l)
             - log Z(J l) + log Z(J h_*),  with h_* = f(alpha h0 + (1-alpha) h_*).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    J = model.coupling
    kernel = LogPartition(model)
    j_c = critical_coupling(kernel.measure(0.0))
    h_star = solve_interpolated_fixed_point(kernel, alpha, m0_mean)
    star = kernel.measure(J * h_star)  # its mean is f(h_*)
    grid = np.asarray(ell_grid, dtype=float)
    psi = np.empty_like(grid)
    for i, ell in enumerate(grid):
        mu = kernel.measure(J * ell)
        psi[i] = (-(j_c / 2.0) * (mu.mean - star.mean) ** 2
                  + J * (ell - h_star) * mu.mean - mu.log_z + star.log_z)
    return _report(grid, np.zeros_like(grid), psi)


def jw_log_mgf(model: ModelSpec, N: int) -> float:
    """log E[exp(J S_N^2 / 2N)] under m_*^{otimes N}, exactly.

    Gaussian linearization of the square gives
    log sqrt(N/2 pi J) + log int exp(-N z^2/2J + N (log Z_1(z) - log Z_0)) dz.

    The outer integral over t = z sqrt(N/J) is the log-trapezoid
    (``numerics.log_trapezoid``, halving check at 1e-12) on the final scan
    of ``window_search`` on the t-integrand.  Each scan point takes
    g = log Z_1(z) - log Z_0 from ``LogPartition.cgf`` of one fresh kernel,
    whose rounding vanishes with z, so N g keeps its digits up to N = 2^20.
    The model must pass ``meanfield.subcritical_reference``: for J >= J_c
    the log-MGF diverges (``Supercritical``).

    The t-integrand is -t^2/2 + N g with g convex, so the scans before the
    last read g only where it decides their stops (``window_search`` with
    ``convex``); the final scan, which is integrated, is read in full, and
    its values are those of full scans bit for bit.  A NaN or +inf value
    read raises ``NonFinite``; the points skipped need no check, since a
    convex g that is finite at both ends of a gap is finite inside it.
    """
    J = model.coupling
    if J <= 0:
        raise ValueError("requires J > 0")
    if not 1 <= N <= MAX_PARTICLES:
        raise ValueError(f"N must satisfy 1 <= N <= {MAX_PARTICLES}")
    subcritical_reference(model)
    log_z1 = LogPartition(model)

    # Substitute z = sqrt(J/N) t so the quadratic part is -t^2/2 and the
    # integrand width stays O(1) uniformly in J and N.
    scale = np.sqrt(J / N)

    def profile(t):
        g = log_z1.cgf(scale * t)
        return -t**2 / 2.0 + N * g, g

    ts, log_f = window_search(profile, convex=(0.5, N))
    log_int = log_trapezoid(0.0, ts, trapezoid_log_weights(ts) + log_f)
    return -0.5 * np.log(2.0 * np.pi) + float(log_int)


def bolley_villani_moment_check(mu_quantile, rho: float) -> float:
    """int exp(rho (x - mean)^2 / 4) dmu via the quantile representation.

    The caller compares the return value against sqrt(2) exp(delta), with
    the delta of its own bound.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    # Graded grid clustering at both endpoints: the integrand can have an
    # integrable (1-u)^{-1/2}-type singularity in the boundary-equality case.
    s = np.linspace(-1.0, 1.0, FINE_POINTS)
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


def marginal_t1_ratio_scan(model: ModelSpec, N: int, bundle: ConstantsBundle,
                           tilt_grid, law: MixtureLaw | None = None) -> ScanReport:
    """W_1^2(pi[l], m^{N,1}) <= 64 (1+delta_N)^2 / lambda_N * H(pi[l] | m^{N,1}).

    Every pi[l] comes from one ``LogPartition``, and every tilt uses one
    grid of ``FINE_POINTS`` points over the union of ``law.x_window`` and
    that kernel's window.  log m^{N,1} is evaluated on it once, exactly
    (``marginal_log_grid``), and gives both the quantile function
    of m^{N,1} and the log-ratio in H.  Each pi[l] is evaluated on it once,
    for its quantile function and for H.
    """
    if law is None:
        law = build_mixture(model, N)
    const = t1_particle_constant(bundle.lambda_n, bundle.delta_n)
    J = model.coupling
    grid = np.asarray(tilt_grid, dtype=float)
    kernel = LogPartition(model)
    tilts = [kernel.measure(J * ell) for ell in grid]
    lo, hi = min(law.x_window[0], kernel.window[0]), max(law.x_window[1], kernel.window[1])
    xs, log_m1 = marginal_log_grid(law, lo, hi, FINE_POINTS)
    qm = quantile_from_density(GridDensity(lo, hi, FINE_POINTS, np.exp(log_m1)))
    lhs = np.empty_like(grid)
    rhs = np.empty_like(grid)
    for i, mu in enumerate(tilts):
        log_mu = mu.log_density(xs)
        p = np.exp(log_mu)
        w1 = wasserstein_1d(quantile_from_density(GridDensity(lo, hi, FINE_POINTS, p)),
                            qm, order=1)
        lhs[i] = w1 * w1
        rhs[i] = const * float(np.trapezoid(p * (log_mu - log_m1), xs))
    return _report(grid, lhs, rhs)
