"""One-body fixed-point machinery for rank-one interactions.

Tilted measures pi[h] with density proportional to exp(-V(x) + t x),
normalized and integrated on the one log-trapezoid behind ``LogPartition``,
the magnetization map f = p o pi, its derivative, the critical coupling
and the damped solver for the mean-field fixed point h = f(h).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridResolution, NoSignChange, NonConvergent
from .model import ModelSpec
from .numerics import find_root, log_laplace

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


def _trapezoid_grid(model: ModelSpec, window):
    """Nodes and log(trapezoid weight * exp(-V)) on ``window``."""
    xs = np.linspace(window[0], window[1], _GRID_POINTS)
    logw = np.full(_GRID_POINTS, np.log(xs[1] - xs[0]))
    logw[[0, -1]] += np.log(0.5)
    return xs, logw - model.potential(xs)


def _check_resolution(xs, logw, zs):
    """log Z_1(zs) on the grid; ``GridResolution`` if halving the node count moves it.

    The every-other-node trapezoid keeps both end nodes (the node count is
    odd) and doubles the spacing, so its log weights are ``logw[::2]``
    plus log 2.
    """
    full = log_laplace(zs, xs, logw)
    half = log_laplace(zs, xs[::2], logw[::2]) + np.log(2.0)
    err = float(np.max(np.abs(full - half)))
    if not err <= _RESOLUTION_TOL:
        raise GridResolution(
            f"log Z_1 trapezoid on [{xs[0]}, {xs[-1]}] changes by {err:.3e} "
            f"when the node count is halved")
    return full


class LogPartition:
    """log Z_1(z) = log int exp(-V(x) + z x) dx for arrays of tilts z.

    One log-trapezoid over a uniform grid of ``_GRID_POINTS`` nodes on an
    x-window, evaluated for all queried tilts by ``numerics.log_laplace``.

    With a fixed ``window`` the grid never changes and no resolution check
    runs unless ``check_resolution`` is called.  Without one the grid starts
    on the window of z = 0 and grows: whenever a query has |z| beyond the
    covered range z_max, the window becomes the union of the current one
    and ``tilt_window`` at +-|z|.  Each growth runs the halving check at
    z = 0 and +-z_max and raises ``GridResolution`` if the full and the
    every-other-node trapezoid differ by more than ``_RESOLUTION_TOL``.
    """

    def __init__(self, model: ModelSpec, window=None):
        self.model = model
        self._log_z0 = None
        if window is None:
            self.window = (np.inf, -np.inf)
            self._grow(0.0)
        else:
            self.window, self.z_max = (float(window[0]), float(window[1])), np.inf
            self.xs, self._logw = _trapezoid_grid(model, self.window)

    def _grow(self, z_max: float) -> None:
        lo, hi = self.window
        for tilt in (-z_max, z_max):
            wlo, whi = tilt_window(self.model, tilt)
            lo, hi = min(lo, wlo), max(hi, whi)
        xs, logw = _trapezoid_grid(self.model, (lo, hi))
        _check_resolution(xs, logw, [0.0, -z_max, z_max])
        # Commit only a checked grid, so a failed growth leaves the kernel as
        # it was and the same query raises again.
        self.window, self.z_max = (lo, hi), z_max
        self.xs, self._logw = xs, logw
        self._log_z0 = None

    def check_resolution(self, zs) -> None:
        """The growth's halving check at ``zs``, on the current grid."""
        _check_resolution(self.xs, self._logw, zs)

    def __call__(self, zs):
        """log Z_1 at each tilt in ``zs`` (any shape), on the current grid."""
        zs = np.asarray(zs, dtype=float)
        z_max = float(np.abs(zs).max(initial=0.0))
        if z_max > self.z_max:
            self._grow(z_max)
        return log_laplace(zs, self.xs, self._logw)

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


def tilted_measure(model: ModelSpec, tilt: float) -> TiltedMeasure:
    """pi[tilt], normalized by the log-trapezoid on ``tilt_window(model, tilt)``.

    log Z comes from the ``_GRID_POINTS``-node grid and ``log_laplace``
    kernel behind ``LogPartition``.  The halving check runs at ``tilt``:
    ``GridResolution`` is raised if the every-other-node trapezoid moves
    log Z by more than ``_RESOLUTION_TOL``.
    """
    tilt = float(tilt)
    xs, logw = _trapezoid_grid(model, tilt_window(model, tilt))
    log_z = _check_resolution(xs, logw, tilt)
    return TiltedMeasure(model, tilt, float(log_z))


def moment(mu: TiltedMeasure, power: int) -> float:
    """Return the raw moment of order ``power`` (0 <= power <= 8) of mu.

    The trapezoid sum on the grid that normalized mu:
    sum_i exp(log w_i + tilt * x_i - log_z) * x_i^power.
    """
    if not 0 <= power <= 8:
        raise ValueError("power must lie in 0..8")
    if power == 0:
        return 1.0
    xs, logw = _trapezoid_grid(mu.model, tilt_window(mu.model, mu.tilt))
    weights = np.exp(mu.tilt * xs + logw - mu.log_z)
    return float(np.sum(weights * xs**power))


def magnetization(model: ModelSpec, h: float) -> float:
    """f(h): the mean of pi[h], the tilted measure at tilt J*h."""
    mu = tilted_measure(model, model.coupling * h)
    return moment(mu, 1)


def magnetization_derivative(model: ModelSpec, h: float) -> float:
    """f'(h) = J * Var(pi[h]); strictly positive."""
    mu = tilted_measure(model, model.coupling * h)
    m1 = moment(mu, 1)
    m2 = moment(mu, 2)
    return model.coupling * (m2 - m1 * m1)


def critical_coupling(model: ModelSpec) -> float:
    """J_c = int exp(-V) / int x^2 exp(-V) = 1 / <x^2> under pi[0].

    This is 1 / Var(pi[0]) only when pi[0] has mean zero (an even V); for
    an asymmetric confinement it is not the critical coupling.
    """
    mu0 = tilted_measure(model, 0.0)
    return 1.0 / moment(mu0, 2)


@dataclass(frozen=True)
class FixedPointResult:
    h_star: float
    m_star: TiltedMeasure
    iterations: int
    residual: float


def solve_fixed_point(model: ModelSpec, tol: float = 1e-10,
                      h0: float = 0.0, max_iter: int = 200) -> FixedPointResult:
    """Solve h = f(h) by damped iteration with a bracketed-root fallback.

    Damping factor 0.5; sub-critically f is a global contraction so the
    iteration converges from any start.  The fallback bisects h - f(h),
    which is needed on the supercritical branch.
    """
    h = float(h0)
    for it in range(1, max_iter + 1):
        fh = magnetization(model, h)
        residual = h - fh
        if abs(residual) <= tol:
            return FixedPointResult(h, tilted_measure(model, model.coupling * h),
                                    it, residual)
        h = 0.5 * h + 0.5 * fh

    # Damped iteration stalled: bracket the root of h - f(h) around the
    # last iterate and polish.
    g = lambda x: x - magnetization(model, x)
    width = max(1.0, abs(h))
    for _ in range(20):
        a, b = h - width, h + width
        try:
            root = find_root(g, (a, b), tol)
            return FixedPointResult(root,
                                    tilted_measure(model, model.coupling * root),
                                    max_iter, g(root))
        except NoSignChange:
            width *= 2.0
    raise NonConvergent("fixed-point solver failed to converge or bracket")


def pi_map_mean(model: ModelSpec, input_mean: float) -> float:
    """Mean of Pi[m] for any m with the given mean: p(Pi[m]) = f(p(m))."""
    return magnetization(model, input_mean)


@dataclass(frozen=True)
class GhsReport:
    grid: np.ndarray
    second_differences: np.ndarray
    max_second_difference: float
    passed: bool


def ghs_concavity_check(model: ModelSpec, h_grid, fd_step: float = 1e-2,
                        tol: float = 1e-6) -> GhsReport:
    """Scan f'' <= 0 on a grid of positive tilts via second central differences."""
    grid = np.asarray(h_grid, dtype=float)
    if np.any(grid <= fd_step):
        raise ValueError("grid points must exceed the finite-difference step")
    diffs = np.empty_like(grid)
    for i, h in enumerate(grid):
        fm = magnetization(model, h - fd_step)
        f0 = magnetization(model, h)
        fp = magnetization(model, h + fd_step)
        diffs[i] = (fp - 2.0 * f0 + fm) / fd_step**2
    worst = float(diffs.max())
    return GhsReport(grid, diffs, worst, worst <= tol)
