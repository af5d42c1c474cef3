"""Divergence estimators: relative entropy and 1D transport."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NonFinite
from .numerics import FINE_POINTS, GridDensity, cumulative_trapezoid

__all__ = [
    "DivergenceEstimate",
    "kl_plug_in",
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

    Samples must come from p, at least two of them.  Standard error by
    leave-one-out jackknife (coincides with the usual sigma/sqrt(n) for a
    plain mean).
    """
    samples = np.asarray(samples, dtype=float)
    vals = np.asarray(log_p(samples), dtype=float) - np.asarray(log_q(samples), dtype=float)
    vals = vals.reshape(-1)
    n = vals.size
    if n < 2:
        raise DegenerateInput("need at least 2 samples for a standard error")
    if not np.all(np.isfinite(vals)):
        raise NonFinite("log-density non-finite at a sample point")
    total = vals.sum()
    loo = (total - vals) / (n - 1)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return DivergenceEstimate(float(vals.mean()), se, "plug-in-exact")


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
    cdf = cumulative_trapezoid(g.values, g.dx)
    cdf /= cdf[-1]
    xs = g.xs

    def quantile(u):
        return np.interp(np.asarray(u, dtype=float), cdf, xs)

    return quantile
