"""Numerical verification of the functional inequalities on tilted families.

Every scan uses the tilted measures pi[l] as the test family: the
variational arguments behind the sub-critical constants show these are
the extremizers of the entropy-constrained problems, so they are the
sharpest cheap probes; the phi scan reads phi at the magnetizations f(l)
of its family.  Each scan reads its family, and m_* = pi[0] as
``LogPartition.reference``, from one ``LogPartition`` of its own (both LSIs
share one, ``lsi_scans``), and an empty grid raises ``ValueError`` before
any is built.  Constants always come in verbatim from the bounds module,
and a ``ConstantsBundle`` built for another coupling (or, in the T1 scan,
another N) raises ``ValueError``; a scan failure is a build-stopping event.
The 1D transport quantities, W_1 of the T1 scan and the Bolley-Villani
moment, are integrals of densities and CDFs on a uniform grid, with no
quantile function.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ConstantsBundle, t1_particle_constant
from .errors import DivergentIntegral
from .marginals import MixtureLaw, marginal_log_grid
from .meanfield import (LogPartition, TiltedMeasure, critical_coupling,
                        solve_fixed_point, subcritical_reference)
from .model import MAX_PARTICLES, ModelSpec
from .numerics import (FINE_POINTS, GridDensity, cumulative_trapezoid,
                       nested_log_trapezoid, window_search)

__all__ = [
    "ScanReport",
    "lsi_scans",
    "phi_positivity_scan",
    "psi_positivity_scan",
    "jw_log_mgf",
    "bolley_villani_moment_check",
    "marginal_t1_ratio_scan",
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


def _scan_grid(points, name: str) -> np.ndarray:
    """``points`` as a float array; a ``ValueError`` naming the grid if it is
    empty, raised before a scan builds its kernel."""
    grid = np.asarray(points, dtype=float)
    if grid.size == 0:
        raise ValueError(f"{name} is empty: a scan needs at least one point")
    return grid


def _report(grid, lhs, rhs) -> ScanReport:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    margin = float(np.min(rhs - lhs))
    return ScanReport(grid, lhs, rhs, margin, margin >= -_TOL)


def _check_bundle(bundle: ConstantsBundle, coupling: float, n_particles=None) -> None:
    """``ValueError`` unless ``bundle`` was built for this coupling (and N)."""
    if bundle.coupling != coupling:
        raise ValueError(f"bundle is for J = {bundle.coupling}, not J = {coupling}")
    if n_particles is not None and bundle.n_particles != n_particles:
        raise ValueError(f"bundle is for N = {bundle.n_particles}, not N = {n_particles}")


def _entropy_between_tilts(mu: TiltedMeasure, nu: TiltedMeasure):
    """H(mu | nu) for tilted measures: exact via means and normalizers; an
    array for a family ``mu``."""
    return (mu.tilt - nu.tilt) * mu.mean - mu.log_z + nu.log_z


def lsi_scans(model: ModelSpec, bundle: ConstantsBundle,
              tilt_grid) -> tuple[ScanReport, ScanReport]:
    """The non-linear and the linear LSI on one family pi[J l] over l in
    ``tilt_grid``, every measure read from one ``LogPartition``; returns
    their reports in that order.

    Non-linear: 2 rho H(pi[l] | m_*) <= I(pi[l] | Pi[pi[l]]).  The score gap
    between pi[l] and Pi[pi[l]] = pi[f(l)] is the constant J(l - f(l)), so
    the Fisher side is J^2 (l - f(l))^2, the mean of pi[J l] being f(l).

    Linear: 2 rho0 H(pi[l] | m_*) <= I(pi[l] | m_*).  The score gap between
    pi[l] and m_* = pi[0] is the constant J l for every confinement V, so
    the Fisher side is exactly (J l)^2.

    ``ValueError`` unless ``bundle`` was built for the model's coupling.
    """
    grid = _scan_grid(tilt_grid, "tilt_grid")
    J = model.coupling
    _check_bundle(bundle, J)
    kernel = LogPartition(model)
    family = kernel.measure(J * grid)
    entropy = _entropy_between_tilts(family, kernel.reference)
    return (_report(grid, 2.0 * bundle.rho * entropy, J**2 * (grid - family.mean) ** 2),
            _report(grid, 2.0 * bundle.rho0 * entropy, (J * grid) ** 2))


def phi_positivity_scan(model: ModelSpec, eps_override: float | None,
                        ell_grid) -> ScanReport:
    """Positivity of the interpolation functional phi at the magnetizations
    h = f(l) of the family pi[J l] over l in ``ell_grid``.

    phi(h) = (1-eps) J l h - (1-eps) log Z(J l) - J h^2 + log Z(J h)
             - eps log Z(0),  h = f(l),
    with the sub-critical choice eps = (1 - J/J_c)^2 unless overridden.
    One ``LogPartition.measure`` at the tilts J l gives f(l) and log Z(J l),
    and a second at J f(l) gives log Z(J h): no inverse f^{-1} is solved.
    Where |f(l)| < |l|, as for an even quartic V below J_c, the second read
    does not grow the kernel.
    The report's grid is the tilt grid, its lhs is 0 and its rhs is phi,
    so margin = min phi.
    """
    grid = _scan_grid(ell_grid, "ell_grid")
    J = model.coupling
    kernel = LogPartition(model)
    j_c = critical_coupling(kernel.reference)
    eps = (1.0 - J / j_c) ** 2 if eps_override is None else eps_override
    family = kernel.measure(J * grid)
    h = family.mean
    log_z_h = kernel.measure(J * h).log_z
    phi = ((1.0 - eps) * J * grid * h - (1.0 - eps) * family.log_z
           - J * h * h + log_z_h - eps * kernel.reference.log_z)
    return _report(grid, np.zeros_like(grid), phi)


def psi_positivity_scan(model: ModelSpec, alpha: float, m0_mean: float,
                        ell_grid) -> ScanReport:
    """Positivity of psi around the interpolated fixed point h_*.

    psi(l) = -(J_c/2)(f(l) - f(h_*))^2 + J (l - h_*) f(l)
             - log Z(J l) + log Z(J h_*),  with h_* = f(alpha h0 + (1-alpha) h_*)
    solved from h0 = ``m0_mean`` to 1e-12 (``meanfield.solve_fixed_point``).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    grid = _scan_grid(ell_grid, "ell_grid")
    J = model.coupling
    kernel = LogPartition(model)
    j_c = critical_coupling(kernel.reference)
    h_star = solve_fixed_point(kernel, 1e-12, m0_mean, alpha).h_star
    star = kernel.measure(J * h_star)  # its mean is f(h_*)
    family = kernel.measure(J * grid)
    psi = (-(j_c / 2.0) * (family.mean - star.mean) ** 2
           + J * (grid - h_star) * family.mean - family.log_z + star.log_z)
    return _report(grid, np.zeros_like(grid), psi)


# The t-integrand of ``jw_log_mgf`` is read at t = _JW_T_START * v, so its
# doubling search starts at |t| = 16.
_JW_T_START = 16.0


def jw_log_mgf(model: ModelSpec, N: int) -> float:
    """log E[exp(J S_N^2 / 2N)] under m_*^{otimes N}, exactly.

    Gaussian linearization of the square gives
    log sqrt(N/2 pi J) + log int exp(-N z^2/2J + N (log Z_1(z) - log Z_0)) dz.

    The outer integral over t = z sqrt(N/J), whose quadratic part is
    -t^2/2, is the log-trapezoid on the final scan of ``window_search`` on
    the t-integrand, read coarse to fine until its halving check passes at
    1e-12 (``numerics.nested_log_trapezoid``).  Each scan point takes
    g = log Z_1(z) - log Z_0 from ``LogPartition.cgf`` of one kernel, whose
    rounding vanishes with z, so N g keeps its digits up to N = 2^20.  Its
    ``LogPartition.reference`` must pass ``meanfield.subcritical_reference``:
    for J >= J_c the log-MGF diverges (``Supercritical``).

    The search runs in v = t / 16, so its first scan spans |t| <= 16.  The
    scans it skips, |t| <= 1, 2, 4 and 8, cannot stop when the t-integrand
    peaks at t = 0, as it does for every sub-critical quartic by the GHS
    property that ``subcritical_reference`` assumes: each holds t = 0, where
    the log-integrand is 0, and its ends lie at or above -t^2/2 >= -32
    (N g >= 0 by Jensen, pi[0] having mean 0), less than ``LOG_CUT`` below
    it.  For any other
    model the search still returns a scan that meets its stop rule.

    The t-integrand is -t^2/2 + N g with g convex, so the scans read g only
    where it decides their stops (``window_search``), and the final scan
    only as far as its integral needs; every value read is that of full
    scans bit for bit.  A NaN or +inf value read raises ``NonFinite``; the
    points skipped need no check, since a convex g that is finite at both
    ends of a gap is finite inside it.
    """
    J = model.coupling
    if J <= 0:
        raise ValueError("requires J > 0")
    if not 1 <= N <= MAX_PARTICLES:
        raise ValueError(f"N must satisfy 1 <= N <= {MAX_PARTICLES}")
    log_z1 = LogPartition(model)
    subcritical_reference(log_z1.reference)
    # z = sqrt(J/N) t; t = 16 v is exact, so every t read is a point of the
    # scans in t of the same width.
    scale = np.sqrt(J / N)

    def profile(vs):
        ts = _JW_T_START * vs
        g = log_z1.cgf(scale * ts)
        return -ts**2 / 2.0 + N * g, g

    vs, log_f = window_search(profile, _JW_T_START**2 / 2.0, N)
    log_int = nested_log_trapezoid(_JW_T_START * vs, log_f,
                                   lambda idx: profile(vs[idx])[0])
    return -0.5 * np.log(2.0 * np.pi) + log_int


def bolley_villani_moment_check(density: GridDensity, rho: float) -> float:
    """int exp(rho (x - mean)^2 / 4) dmu for the grid density mu: the
    trapezoid on its own grid, the mean read the same way.

    The exponent is added to log mu, so a point where mu is 0.0 adds 0
    however large the exponent is there.  The caller compares the return
    value against sqrt(2) exp(delta), with the delta of its own bound.  An
    integrand that leaves the float range raises ``DivergentIntegral``: mu's
    tail is then too heavy for ``rho`` on the grid's span.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    xs = density.xs
    mean = float(np.trapezoid(xs * density.values, dx=density.dx))
    with np.errstate(over="ignore", divide="ignore"):
        vals = np.exp(rho * (xs - mean) ** 2 / 4.0 + np.log(density.values))
    if not np.all(np.isfinite(vals)):
        raise DivergentIntegral("moment integrand overflowed: the tail of mu is too "
                                "heavy for the supplied rho")
    return float(np.trapezoid(vals, dx=density.dx))


def marginal_t1_ratio_scan(law: MixtureLaw, bundle: ConstantsBundle,
                           tilt_grid) -> ScanReport:
    """W_1^2(pi[l], m^{N,1}) <= 64 (1+delta_N)^2 / lambda_N * H(pi[l] | m^{N,1}),
    for the model and N of ``law``, which must be those of ``bundle``
    (``ValueError``).

    Every pi[l] comes from one ``LogPartition``, and every tilt uses one
    grid of ``FINE_POINTS`` points over the union of ``law.x_window`` and
    that kernel's window.  log m^{N,1} is evaluated on it once, exactly
    (``marginal_log_grid``), and the family as one (tilts x points) array.
    W_1 is int |F_mu - F_m| dx, each CDF the ``cumulative_trapezoid`` of its
    density scaled to end at 1, and H the trapezoid of p log(p / m^{N,1}),
    both on that grid.
    """
    grid = _scan_grid(tilt_grid, "tilt_grid")
    model = law.model
    _check_bundle(bundle, model.coupling, law.n_particles)
    const = t1_particle_constant(bundle.lambda_n, bundle.delta_n)
    kernel = LogPartition(model)
    family = kernel.measure(model.coupling * grid)
    lo, hi = min(law.x_window[0], kernel.window[0]), max(law.x_window[1], kernel.window[1])
    xs, log_m1 = marginal_log_grid(law, lo, hi)
    dx = (hi - lo) / (FINE_POINTS - 1)
    log_mu = -model.potential(xs) + family.tilt[:, None] * xs - family.log_z[:, None]
    p = np.exp(log_mu)
    cdf_mu = cumulative_trapezoid(p, dx)
    cdf_m = cumulative_trapezoid(np.exp(log_m1), dx)
    gap = np.abs(cdf_mu / cdf_mu[:, -1:] - cdf_m / cdf_m[-1])
    w1 = np.trapezoid(gap, dx=dx, axis=-1)
    return _report(grid, w1 * w1, const * np.trapezoid(p * (log_mu - log_m1), xs, axis=-1))
