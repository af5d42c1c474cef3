"""One-body fixed-point machinery for rank-one interactions.

Tilted measures pi[h] with density proportional to exp(-V(x) + t x),
the magnetization map f = p o pi, its derivative, the critical coupling
and the damped solver for the mean-field fixed point h = f(h).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import GridResolution, NoSignChange, NonConvergent
from .model import ModelSpec
from .numerics import DEFAULT_SPEC, QuadratureSpec, find_root, integrate, log_integrate_exp

__all__ = [
    "TiltedMeasure",
    "LogPartition",
    "tilt_window",
    "FixedPointResult",
    "tilted_measure",
    "moment",
    "magnetization",
    "magnetization_derivative",
    "critical_coupling",
    "solve_fixed_point",
    "pi_map_mean",
    "ghs_concavity_check",
    "GhsReport",
]


@dataclass(frozen=True)
class TiltedMeasure:
    """1D measure with density exp(-V(x) + tilt*x - log_z)."""

    model: ModelSpec
    tilt: float
    log_z: float

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        return -self.model.potential(x) + self.tilt * x - self.log_z

    def density(self, x):
        return np.exp(self.log_density(x))


_LOG_CUT = 45.0
_MAX_DOUBLINGS = 40
_GRID_POINTS = 4097
_RESOLUTION_TOL = 1e-12


def tilt_window(model: ModelSpec, tilt: float):
    """Doubling search for the effective support of exp(-V(x) + tilt*x)."""
    lo, hi = -1.0, 1.0
    for _ in range(_MAX_DOUBLINGS):
        xs = np.linspace(lo, hi, 257)
        g = -model.potential(xs) + tilt * xs
        peak = g.max()
        if g[0] < peak - _LOG_CUT and g[-1] < peak - _LOG_CUT:
            return lo, hi
        lo *= 2.0
        hi *= 2.0
    raise NonConvergent("tilted density support search failed")


def _trapezoid_log_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n, np.log(dx))
    w[0] += np.log(0.5)
    w[-1] += np.log(0.5)
    return w


def _trapezoid_grid(model: ModelSpec, window):
    """Nodes, -V at the nodes and log trapezoid weights on ``window``."""
    xs = np.linspace(window[0], window[1], _GRID_POINTS)
    return xs, -model.potential(xs), _trapezoid_log_weights(_GRID_POINTS, xs[1] - xs[0])


class LogPartition:
    """log Z_1(z) = log int exp(-V(x) + z x) dx for arrays of tilts z.

    One log-trapezoid over a uniform grid of ``_GRID_POINTS`` nodes on an
    x-window, evaluated for all queried tilts in one ``logsumexp``.

    With a fixed ``window`` the grid never changes and no resolution check
    runs.  Without one the grid starts on the window of z = 0 and grows:
    whenever a query has |z| beyond the covered range z_max, the window
    becomes the union of the current one and ``tilt_window`` at +-|z|.
    Each growth compares the full trapezoid with the every-other-node
    trapezoid at z = 0 and +-z_max and raises ``GridResolution`` if they
    differ by more than ``_RESOLUTION_TOL``.
    """

    def __init__(self, model: ModelSpec, window=None):
        self.model = model
        self._log_z0 = None
        if window is None:
            self.window = (np.inf, -np.inf)
            self._grow(0.0)
        else:
            self.window, self.z_max = (float(window[0]), float(window[1])), np.inf
            self.xs, self._neg_v, self._logw = _trapezoid_grid(model, self.window)

    def _grow(self, z_max: float) -> None:
        lo, hi = self.window
        for tilt in (-z_max, z_max):
            wlo, whi = tilt_window(self.model, tilt)
            lo, hi = min(lo, wlo), max(hi, whi)
        xs, neg_v, logw = _trapezoid_grid(self.model, (lo, hi))
        zs = np.array([0.0, -z_max, z_max])
        g = neg_v[None, :] + zs[:, None] * xs[None, :]
        full = logsumexp(g + logw[None, :], axis=1)
        half_logw = _trapezoid_log_weights(len(xs[::2]), xs[2] - xs[0])
        half = logsumexp(g[:, ::2] + half_logw[None, :], axis=1)
        err = float(np.max(np.abs(full - half)))
        if not err <= _RESOLUTION_TOL:
            raise GridResolution(
                f"log Z_1 trapezoid on [{lo}, {hi}] changes by {err:.3e} "
                f"when the node count is halved")
        # Commit only a checked grid, so a failed growth leaves the kernel as
        # it was and the same query raises again.
        self.window, self.z_max = (lo, hi), z_max
        self.xs, self._neg_v, self._logw = xs, neg_v, logw
        self._log_z0 = None

    def __call__(self, zs):
        """log Z_1 at each tilt in ``zs`` (any shape), on the current grid."""
        zs = np.asarray(zs, dtype=float)
        z_max = float(np.abs(zs).max(initial=0.0))
        if z_max > self.z_max:
            self._grow(z_max)
        g = self._neg_v + zs[..., None] * self.xs
        return logsumexp(g + self._logw, axis=-1)

    def cgf(self, zs):
        """log Z_1(z) - log Z_1(0), both on the same (current) grid.

        This is the cumulant generating function of the untilted measure
        exp(-V)/Z_1(0).  log Z_1(0) is cached per grid: evaluating ``zs``
        first may grow the grid, which drops the cached value.
        """
        log_z1 = self(zs)
        if self._log_z0 is None:
            self._log_z0 = float(self(0.0))
        return log_z1 - self._log_z0


def tilted_measure(model: ModelSpec, tilt: float,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> TiltedMeasure:
    log_z = log_integrate_exp(lambda x: -model.potential(x) + tilt * x, spec)
    return TiltedMeasure(model, tilt, log_z)


def moment(mu: TiltedMeasure, power: int,
           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Return the raw moment of order ``power`` (0 <= power <= 8) of mu."""
    if not 0 <= power <= 8:
        raise ValueError("power must lie in 0..8")
    if power == 0:
        return 1.0
    return integrate(lambda x: np.asarray(x) ** power * mu.density(x), spec)


def magnetization(model: ModelSpec, h: float,
                  spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """f(h): the mean of pi[h], the tilted measure at tilt J*h."""
    mu = tilted_measure(model, model.coupling * h, spec)
    return moment(mu, 1, spec)


def magnetization_derivative(model: ModelSpec, h: float,
                             spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """f'(h) = J * Var(pi[h]); strictly positive."""
    mu = tilted_measure(model, model.coupling * h, spec)
    m1 = moment(mu, 1, spec)
    m2 = moment(mu, 2, spec)
    return model.coupling * (m2 - m1 * m1)


def critical_coupling(model: ModelSpec,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """J_c = int exp(-V) / int x^2 exp(-V) = 1 / Var(m_*)."""
    mu0 = tilted_measure(model, 0.0, spec)
    return 1.0 / moment(mu0, 2, spec)


@dataclass(frozen=True)
class FixedPointResult:
    h_star: float
    m_star: TiltedMeasure
    iterations: int
    residual: float


def solve_fixed_point(model: ModelSpec, tol: float = 1e-10,
                      h0: float = 0.0, max_iter: int = 200,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> FixedPointResult:
    """Solve h = f(h) by damped iteration with a bracketed-root fallback.

    Damping factor 0.5; sub-critically f is a global contraction so the
    iteration converges from any start.  The fallback bisects h - f(h),
    which is needed on the supercritical branch.
    """
    h = float(h0)
    for it in range(1, max_iter + 1):
        fh = magnetization(model, h, spec)
        residual = h - fh
        if abs(residual) <= tol:
            return FixedPointResult(h, tilted_measure(model, model.coupling * h, spec),
                                    it, residual)
        h = 0.5 * h + 0.5 * fh

    # Damped iteration stalled: bracket the root of h - f(h) around the
    # last iterate and polish.
    g = lambda x: x - magnetization(model, x, spec)
    width = max(1.0, abs(h))
    for _ in range(20):
        a, b = h - width, h + width
        try:
            root = find_root(g, (a, b), tol)
            return FixedPointResult(root,
                                    tilted_measure(model, model.coupling * root, spec),
                                    max_iter, g(root))
        except NoSignChange:
            width *= 2.0
    raise NonConvergent("fixed-point solver failed to converge or bracket")


def pi_map_mean(model: ModelSpec, input_mean: float,
                spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Mean of Pi[m] for any m with the given mean: p(Pi[m]) = f(p(m))."""
    return magnetization(model, input_mean, spec)


@dataclass(frozen=True)
class GhsReport:
    grid: np.ndarray
    second_differences: np.ndarray
    max_second_difference: float
    passed: bool


def ghs_concavity_check(model: ModelSpec, h_grid, fd_step: float = 1e-2,
                        tol: float = 1e-6,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> GhsReport:
    """Scan f'' <= 0 on a grid of positive tilts via second central differences."""
    grid = np.asarray(h_grid, dtype=float)
    if np.any(grid <= fd_step):
        raise ValueError("grid points must exceed the finite-difference step")
    diffs = np.empty_like(grid)
    for i, h in enumerate(grid):
        fm = magnetization(model, h - fd_step, spec)
        f0 = magnetization(model, h, spec)
        fp = magnetization(model, h + fd_step, spec)
        diffs[i] = (fp - 2.0 * f0 + fm) / fd_step**2
    worst = float(diffs.max())
    return GhsReport(grid, diffs, worst, worst <= tol)
