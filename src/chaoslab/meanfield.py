"""One-body fixed-point machinery for rank-one interactions.

Tilted measures pi[h] with density proportional to exp(-V(x) + t x), each
normalized by ``LogPartition.measure``, the magnetization map f = p o pi,
the critical coupling, the one sub-critical guard on m_* = pi[0] (measured
once per kernel, ``LogPartition.reference``) and the safeguarded Newton
solver for the mean-field fixed point h = f(h) and its interpolation
h = f(alpha h0 + (1 - alpha) h), which the psi scan of ``verify`` reads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, NonFinite, RegimeViolation, Supercritical
from .model import ModelSpec
from .numerics import (log_laplace, log_laplace_grid, log_mgf, log_trapezoid,
                       newton_root, tilted_windows, trapezoid_log_weights)

__all__ = [
    "TiltedMeasure",
    "LogPartition",
    "tilt_windows",
    "FixedPointResult",
    "tilted_measure",
    "magnetization",
    "critical_coupling",
    "subcritical_reference",
    "solve_fixed_point",
]


@dataclass(frozen=True)
class TiltedMeasure:
    """1D measure with density exp(-V(x) + tilt*x - log_z), and its first two
    raw moments, summed on the grid of the ``LogPartition`` that normalized it.
    A family of them has arrays of one shape for its fields, one entry per
    tilt; the density methods take one measure."""

    model: ModelSpec
    tilt: float
    log_z: float
    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean * self.mean

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        return -self.model.potential(x) + self.tilt * x - self.log_z

    def density(self, x):
        return np.exp(self.log_density(x))


_GRID_POINTS = 4097


def tilt_windows(model: ModelSpec, tilts) -> np.ndarray:
    """The effective support of exp(-V(x) + t x) for each t in ``tilts``, as
    an (n, 2) array of window ends: the doubling search on each, with V
    evaluated once per block of doubling levels
    (``numerics.tilted_windows``)."""
    return tilted_windows(lambda x: -model.potential(x), tilts)


def _trapezoid_grid(model: ModelSpec, window):
    """Nodes and log(trapezoid weight * exp(-V)) on ``window``."""
    xs = np.linspace(window[0], window[1], _GRID_POINTS)
    return xs, trapezoid_log_weights(xs) - model.potential(xs)


class LogPartition:
    """log Z_1(z) = log int exp(-V(x) + z x) dx for arrays of tilts z, and the
    tilted measures pi[z] (``measure``); pi[0] is measured once, on the first
    grid (``reference``).

    One log-trapezoid over a uniform grid of ``_GRID_POINTS`` nodes on an
    x-window, evaluated for all queried tilts by ``numerics.log_laplace``
    (``numerics.log_laplace_grid`` for uniform tilts, ``linspace``).
    The grid starts on the window of z = 0 and grows: whenever a query has
    |z| beyond the covered range z_max, the window becomes the union of the
    current one and ``tilt_windows`` at +-|z|, rebuilt only if that is wider.
    Each growth runs the halving check at z = 0 and +-z_max and raises
    ``GridResolution`` if the full and the every-other-node trapezoid differ
    by more than ``numerics._RESOLUTION_TOL`` (``numerics.log_trapezoid``).
    A NaN tilt raises ``NonFinite``.  Its values depend on the queries that
    grew it: it serves one call.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        self.window = (np.inf, -np.inf)
        self._reference = self._tilted(np.array(0.0), self._grow(0.0))

    @property
    def reference(self) -> TiltedMeasure:
        """m_* = pi[0] on the first grid: bitwise a fresh kernel's ``measure(0.0)``."""
        return self._reference

    def _grow(self, z_max: float) -> np.ndarray:
        """Cover +-``z_max``; log Z_1 at the tilts it checked, z = 0 first."""
        tilts = [-z_max, z_max] if z_max else [0.0]
        ends = tilt_windows(self.model, tilts)
        lo = min(self.window[0], float(ends[:, 0].min()))
        hi = max(self.window[1], float(ends[:, 1].max()))
        xs, logw = ((self.xs, self._logw) if (lo, hi) == self.window
                    else _trapezoid_grid(self.model, (lo, hi)))
        log_z = log_trapezoid([0.0, *tilts] if z_max else tilts, xs, logw)
        # Commit only a checked grid, so a failed growth leaves the kernel as
        # it was and the same query raises again.
        self.window, self.z_max = (lo, hi), z_max
        self.xs, self._logw, self._log_z0 = xs, logw, log_z[0]
        return log_z

    def _cover(self, zs) -> None:
        zs = np.asarray(zs, dtype=float)
        if np.isnan(zs).any():
            raise NonFinite("log Z_1 queried at a NaN tilt")
        z_max = float(np.abs(zs).max(initial=0.0))
        if z_max > self.z_max:
            self._grow(z_max)

    def __call__(self, zs):
        """log Z_1 at each tilt in ``zs`` (any shape), on the current grid."""
        zs = np.asarray(zs, dtype=float)
        self._cover(zs)
        return log_laplace(zs, self.xs, self._logw)

    def linspace(self, lo: float, hi: float, n: int) -> np.ndarray:
        """log Z_1 at ``np.linspace(lo, hi, n)``, grown as a query of ``lo`` and
        ``hi`` grows the grid, by ``numerics.log_laplace_grid``: within a few
        ulp of ``__call__`` there, for far fewer exps."""
        self._cover([lo, hi])
        return log_laplace_grid(lo, (hi - lo) / (n - 1), n, self.xs, self._logw)

    def cgf(self, zs):
        """log Z_1(z) - log Z_1(0) on one grid, the cumulant generating function
        of exp(-V)/Z_1(0).  ``zs`` goes first, since it may grow the grid.

        It is ``numerics.log_mgf`` of pi[0]'s grid weights, whose rounding
        vanishes as z -> 0; that of log Z_1(z) - log Z_1(0) does not, and
        ``verify.jw_log_mgf`` multiplies it by N.  log Z_1(0) is the value
        the last growth's halving check read at z = 0 on the current grid:
        bitwise ``self(0.0)``, the same shifted exps summed by row.
        """
        self._cover(zs)
        return log_mgf(zs, self.xs, self._logw - self._log_z0)

    def measure(self, tilts):
        """pi[t] on the grid grown as ``__call__`` grows it, with the halving
        check at every tilt (``GridResolution`` above 1e-12); the moments
        are sums sum_i exp(log w_i + t x_i - log_z) x_i^p on it.  A float
        tilt gives float fields; an array of tilts gives the family, one
        ``TiltedMeasure`` whose fields are arrays in the tilts' shape.

        All tilts share one ``log_trapezoid`` and one block of weights, and
        each row is summed on its own, so each entry of a family is the one
        a call with its tilt alone gives on the same grid, bit for bit.
        """
        ts = np.array(tilts, dtype=float)
        self._cover(ts)
        return self._tilted(ts, log_trapezoid(ts.reshape(-1), self.xs, self._logw))

    def _tilted(self, ts: np.ndarray, log_z: np.ndarray):
        """``measure``'s result at the tilts ``ts``, given their flat log Z_1."""
        flat = ts.reshape(-1)
        weights = np.exp(flat[:, None] * self.xs + self._logw - log_z[:, None])
        fields = (flat, log_z, (weights * self.xs).sum(axis=1),
                  (weights * self.xs**2).sum(axis=1))
        if ts.ndim == 0:
            return TiltedMeasure(self.model, *(float(f[0]) for f in fields))
        return TiltedMeasure(self.model, *(f.reshape(ts.shape) for f in fields))


def tilted_measure(model: ModelSpec, tilt: float) -> TiltedMeasure:
    """pi[tilt] on a kernel of its own; several tilts share one kernel."""
    return LogPartition(model).measure(tilt)


def magnetization(model: ModelSpec, h: float) -> float:
    """f(h): the mean of pi[h], the tilted measure at tilt J*h."""
    return tilted_measure(model, model.coupling * h).mean


def critical_coupling(mstar: TiltedMeasure) -> float:
    """J_c = int exp(-V) / int x^2 exp(-V) = 1 / <x^2> under pi[0], read off
    ``mstar``, the model's pi[0] (a TiltedMeasure at tilt 0).

    This is 1 / Var(pi[0]) only when pi[0] has mean zero (an even V); for an
    asymmetric confinement it is not the critical coupling.
    """
    return 1.0 / mstar.second_moment


def subcritical_reference(mstar: TiltedMeasure) -> TiltedMeasure:
    """``mstar``, the model's pi[0] (a TiltedMeasure at tilt 0, such as
    ``LogPartition.reference``), once it is checked to be m_*.

    Every quantity taken against m_* = pi[0] (the entropy levels, the
    Curie-Weiss constants, the log-MGF) needs pi[0] to be the mean-field
    limit, which holds for an even confinement below the critical coupling.
    Raises ``Supercritical`` for J >= ``critical_coupling(mstar)``, and
    ``RegimeViolation`` for a non-quartic confinement whose pi[0] has
    |mean| > 1e-10 sd: the fixed point is then not h = 0.  (Quartic
    confinements are even, so the mean is not checked for them.)
    """
    model = mstar.model
    if not model.is_quartic:
        mean = mstar.mean
        if abs(mean) > 1e-10 * np.sqrt(mstar.variance):
            raise RegimeViolation(
                f"pi[0] has mean {mean:.3e}: m_* = pi[0] is the mean-field "
                f"limit for an even confinement only")
    j_c = critical_coupling(mstar)
    if model.coupling >= j_c:
        raise Supercritical(f"J = {model.coupling} >= J_c = {j_c}: m_* = pi[0] is "
                            f"the mean-field limit below J_c only")
    return mstar


@dataclass(frozen=True)
class FixedPointResult:
    """A solve of h = f(alpha h0 + (1 - alpha) h): the root ``h_star``, the
    measure pi[J t] read at its last step, t = alpha h0 + (1 - alpha) h_star
    (pi[J h_star] for alpha = 0), the number of measures read, and the
    residual h_star - f(t)."""

    h_star: float
    m_star: TiltedMeasure
    iterations: int
    residual: float


def solve_fixed_point(kernel: LogPartition, tol: float = 1e-10, h0: float = 0.0,
                      alpha: float = 0.0) -> FixedPointResult:
    """Solve h = f(alpha h0 + (1 - alpha) h) from ``h0`` by
    ``numerics.newton_root`` on g(h) = h - f(t), g'(h) = 1 - (1 - alpha) J
    Var(pi[J t]) with t = alpha h0 + (1 - alpha) h, every pi[J t] read from
    ``kernel``; ``iterations`` counts them.  alpha = 0 is the mean-field fixed
    point h = f(h).

    Sub-critically g is increasing, so the solve converges from any start.
    A root with (1 - alpha) f'(t) > 1 (as h = 0 above J_c for an even V and
    alpha = 0) is unstable: the solve restarts one standard deviation of
    pi[J t] up, towards the stable root, and raises ``NonConvergent`` if it
    comes back no higher.
    """
    J = kernel.model.coupling
    measured = []

    def gd(h):
        mu = kernel.measure(J * (alpha * h0 + (1.0 - alpha) * h))
        measured.append(mu)
        return h - mu.mean, 1.0 - (1.0 - alpha) * J * mu.variance

    h, unstable = newton_root(gd, h0, tol), -np.inf
    while (1.0 - alpha) * J * measured[-1].variance > 1.0:
        if not h > unstable:
            raise NonConvergent(f"fixed-point solver came back to the unstable h = {h}")
        unstable = h
        h = newton_root(gd, h + np.sqrt(measured[-1].variance), tol)
    mu = measured[-1]
    return FixedPointResult(h, mu, len(measured), h - mu.mean)
