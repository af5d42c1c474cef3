"""Divergence estimators: relative entropy and 1D transport."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.spatial import cKDTree

from .errors import DegenerateSample, NonFinite
from .numerics import FINE_POINTS, GridDensity

__all__ = [
    "DivergenceEstimate",
    "kl_plug_in",
    "kl_knn",
    "wasserstein_1d",
    "quantile_from_density",
]


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    standard_error: float
    method: str

    def __post_init__(self) -> None:
        if self.standard_error < 0:
            raise ValueError("standard_error must be non-negative")


def kl_plug_in(samples: np.ndarray, log_p, log_q) -> DivergenceEstimate:
    """MC relative entropy with both densities known: mean of log p - log q.

    Samples must come from p.  Standard error by leave-one-out jackknife
    (coincides with the usual sigma/sqrt(n) for a plain mean).
    """
    samples = np.asarray(samples, dtype=float)
    vals = np.asarray(log_p(samples), dtype=float) - np.asarray(log_q(samples), dtype=float)
    vals = vals.reshape(-1)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("log-density non-finite at a sample point")
    n = vals.size
    total = vals.sum()
    loo = (total - vals) / (n - 1)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return DivergenceEstimate(float(vals.mean()), se, "plug-in-exact")


def kl_knn(samples_p: np.ndarray, samples_q: np.ndarray,
           k_neighbors: int = 5, n_folds: int = 10) -> DivergenceEstimate:
    """Nearest-neighbor ratio estimator of KL(p | q) from two sample sets.

    Consistent but not unbiased; the standard error comes from disjoint
    subsample estimates.  Euclidean metric.
    """
    xp = np.atleast_2d(np.asarray(samples_p, dtype=float))
    xq = np.atleast_2d(np.asarray(samples_q, dtype=float))
    if xp.ndim == 2 and xp.shape[0] == 1 and xp.shape[1] > 1:
        xp, xq = xp.T, xq.T
    if xp.shape[1] != xq.shape[1]:
        raise ValueError("sample sets must share dimension")
    if len(xp) < 1000 or len(xq) < 1000:
        raise ValueError("need at least 1000 points in each sample set")

    def estimate(a: np.ndarray, b: np.ndarray) -> float:
        n, d = a.shape
        m = len(b)
        tree_a = cKDTree(a)
        tree_b = cKDTree(b)
        # k+1 within p (self is distance 0), k within q.
        rho = tree_a.query(a, k=k_neighbors + 1)[0][:, -1]
        nu = tree_b.query(a, k=k_neighbors)[0][:, -1]
        if np.any(rho <= 0) or np.any(nu <= 0):
            raise DegenerateSample("duplicate points break the kNN distance ratio")
        return float(d * np.mean(np.log(nu / rho)) + np.log(m / (n - 1)))

    value = estimate(xp, xq)
    folds = []
    idx_p = np.array_split(np.arange(len(xp)), n_folds)
    idx_q = np.array_split(np.arange(len(xq)), n_folds)
    for ip, iq in zip(idx_p, idx_q):
        folds.append(estimate(xp[ip], xq[iq]))
    se = float(np.std(folds, ddof=1) / np.sqrt(n_folds))
    return DivergenceEstimate(value, se, "knn")


def wasserstein_1d(quantile_p, quantile_q, order: int = 2) -> float:
    """1D transport cost int_0^1 |F^-1 - G^-1|^order du, by the trapezoid in u.

    Not exact: on the standard normal the rule's ``FINE_POINTS`` uniform u in
    [1e-8, 1 - 1e-8] give int q^2 du = 1.00178.  No root is taken.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    us = np.linspace(1e-8, 1.0 - 1e-8, FINE_POINTS)
    diff = np.abs(np.asarray(quantile_p(us), dtype=float)
                  - np.asarray(quantile_q(us), dtype=float))
    return float(np.trapezoid(diff**order, us))


def quantile_from_density(g: GridDensity):
    """Quantile function of the grid density ``g``: the inverse of its
    trapezoid CDF (scaled to end at 1), interpolated linearly."""
    cdf = cumulative_trapezoid(g.values, dx=g.dx, initial=0.0)
    cdf /= cdf[-1]
    xs = g.xs

    def quantile(u):
        return np.interp(np.asarray(u, dtype=float), cdf, xs)

    return quantile
