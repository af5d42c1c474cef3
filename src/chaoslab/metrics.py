"""1D transport: quantile functions of grid densities and the W_p cost between them."""
from __future__ import annotations

import numpy as np

from .numerics import FINE_POINTS, GridDensity, cumulative_trapezoid

__all__ = [
    "wasserstein_1d",
    "quantile_from_density",
]


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
