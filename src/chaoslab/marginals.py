"""Exact k-particle marginals of the rank-one N-particle Gibbs measure.

The quadratic term (J/2N)(sum x_i)^2 in the Gibbs exponent is linearized
by a Gaussian auxiliary field z, turning every marginal into a mixture of
IID tilted products:

    m^{N,k}(x^{[k]}) = sum_j w_j prod_{i<=k} rho_{z_j}(x_i),

with rho_z the tilted density exp(-V(x) + z x)/Z_1(z) and mixing weights
w(z) proportional to exp(-N z^2 / 2J) Z_1(z)^N.  Relative entropies then
reduce to 1D integrals because the density ratio against the product
reference depends on the point only through s = sum x_i.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import GridResolution, NonConvergent, NonPositiveDefinite
from .meanfield import LogPartition, TiltedMeasure, tilt_window
from .model import ModelSpec
from .numerics import GridDensity, convolve

__all__ = [
    "MixtureLaw",
    "EntropyLevels",
    "build_mixture",
    "marginal_log_density",
    "relative_entropy_levels",
    "conditional_entropy_level",
    "gaussian_entropy_oracle",
    "wasserstein2_marginal",
    "marginal_grid_density",
    "marginal_moment",
    "sample_marginal",
]

_LOG_CUT = 45.0
_MAX_DOUBLINGS = 40


@dataclass(frozen=True)
class MixtureLaw:
    """Auxiliary-field mixture representation of m^{N,k} for all k <= N."""

    model: ModelSpec
    n_particles: int
    z_nodes: np.ndarray = field(repr=False)
    z_log_weights: np.ndarray = field(repr=False)
    log_z0: float = 0.0
    node_log_z1: np.ndarray = field(default=None, repr=False)
    x_window: tuple = (0.0, 0.0)

    def node_log_density(self, x):
        """Matrix of log rho_{z_j}(x): shape (n_points, n_nodes)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (-self.model.potential(x)[:, None]
                + x[:, None] * self.z_nodes[None, :]
                - self.node_log_z1[None, :])


def build_mixture(model: ModelSpec, N: int, node_count: int = 257) -> MixtureLaw:
    """Construct the z-mixture for the N-particle Gibbs measure.

    Requires a rank-one interaction with J > 0: for J < 0 the Gaussian
    linearization would need an imaginary field.
    """
    if not model.is_rank_one:
        raise TypeError("mixture representation requires a rank-one interaction")
    J = model.coupling
    if J <= 0:
        raise ValueError("mixture representation requires J > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    if node_count < 32:
        raise ValueError("need at least 32 auxiliary-field nodes")
    if model.is_gaussian and J >= model.confinement.sigma:
        raise NonConvergent("Gaussian model needs J < sigma for a normalizable mixture")

    def log_weight_profile(zs):
        zlo, zhi = float(zs.min()), float(zs.max())
        wlo = tilt_window(model, zlo)
        whi = tilt_window(model, zhi)
        window = (min(wlo[0], whi[0]), max(wlo[1], whi[1]))
        logz1 = LogPartition(model, window)(zs)
        return -N * zs**2 / (2.0 * J) + N * logz1, logz1, window

    # Locate the effective support of the mixing weight by doubling search
    # from [-1, 1], then shrink with two refinement passes.
    zlo, zhi = -1.0, 1.0
    for _ in range(_MAX_DOUBLINGS):
        zs = np.linspace(zlo, zhi, 801)
        logw = log_weight_profile(zs)[0]
        peak = logw.max()
        if logw[0] < peak - _LOG_CUT and logw[-1] < peak - _LOG_CUT:
            break
        zlo *= 2.0
        zhi *= 2.0
    else:
        raise NonConvergent("mixing-weight support search failed")
    for _ in range(3):
        zs = np.linspace(zlo, zhi, 801)
        logw = log_weight_profile(zs)[0]
        above = np.nonzero(logw >= logw.max() - _LOG_CUT)[0]
        pad = zs[1] - zs[0]
        zlo, zhi = float(zs[above[0]] - pad), float(zs[above[-1]] + pad)

    # Gauss-Legendre nodes on the discovered support.
    gl_x, gl_w = np.polynomial.legendre.leggauss(node_count)
    z_nodes = 0.5 * (zhi - zlo) * gl_x + 0.5 * (zhi + zlo)
    scale = 0.5 * (zhi - zlo)

    logw_nodes, log_z1, x_window = log_weight_profile(z_nodes)
    raw = logw_nodes + np.log(gl_w * scale)
    log_weights = raw - logsumexp(raw)

    log_z0 = float(LogPartition(model, tilt_window(model, 0.0))(np.array([0.0]))[0])

    return MixtureLaw(
        model=model,
        n_particles=N,
        z_nodes=z_nodes,
        z_log_weights=log_weights,
        log_z0=log_z0,
        node_log_z1=log_z1,
        x_window=x_window,
    )


def marginal_log_density(law: MixtureLaw, k: int, point) -> float:
    """log m^{N,k} at a single k-dimensional point."""
    pts = np.asarray(point, dtype=float).reshape(1, -1)
    if not 1 <= pts.shape[1] <= law.n_particles or pts.shape[1] != k:
        raise ValueError("point must have length k with 1 <= k <= N")
    return float(marginal_log_density_batch(law, pts)[0])


def marginal_log_density_batch(law: MixtureLaw, points: np.ndarray,
                               chunk: int = 65536) -> np.ndarray:
    """log m^{N,k} for an (n, k) array of points (chunked to bound memory)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    k = pts.shape[1]
    # sum_i log rho_z(x_i) = -sum V(x_i) + z * s - k log Z_1(z)
    s = pts.sum(axis=1)
    vsum = law.model.potential(pts).sum(axis=1)
    out = np.empty(len(pts))
    for start in range(0, len(pts), chunk):
        sl = slice(start, start + chunk)
        inner = (law.z_log_weights[None, :]
                 + s[sl, None] * law.z_nodes[None, :]
                 - k * law.node_log_z1[None, :])
        out[sl] = logsumexp(inner, axis=1)
    return -vsum + out


@dataclass(frozen=True)
class EntropyLevels:
    """H(m^{N,k} | m_*^{otimes k}) for k = 0..k_max (levels[0] = 0)."""

    n_particles: int
    levels: np.ndarray
    std_errors: np.ndarray

    def __post_init__(self) -> None:
        if self.levels[0] != 0.0:
            raise ValueError("levels[0] must be zero")


def _node_grid_densities(law: MixtureLaw, grid_points: int):
    """Per-node tilted densities on a shared grid covering +-12 std."""
    xlo, xhi = law.x_window
    xs = np.linspace(xlo, xhi, grid_points)
    dens = np.exp(law.node_log_density(xs)).T  # (nodes, nx)
    dx = xs[1] - xs[0]
    means = np.trapezoid(xs[None, :] * dens, dx=dx, axis=1)
    variances = np.trapezoid((xs[None, :] - means[:, None]) ** 2 * dens, dx=dx, axis=1)
    sig = float(np.sqrt(variances.max()))
    lo = min(float(means.min()) - 12.0 * sig, xlo)
    hi = max(float(means.max()) + 12.0 * sig, xhi)
    xs = np.linspace(lo, hi, grid_points)
    dens = np.exp(law.node_log_density(xs)).T
    return xs, dens


def _log_gk(law: MixtureLaw, k: int, s: np.ndarray) -> np.ndarray:
    """log of the density ratio m^{N,k}/m_*^{otimes k} as a function of s."""
    inner = (law.z_log_weights[None, :]
             + s[:, None] * law.z_nodes[None, :]
             + k * (law.log_z0 - law.node_log_z1)[None, :])
    return logsumexp(inner, axis=1)


def relative_entropy_levels(law: MixtureLaw, k_max: int,
                            method: str = "exact-grid",
                            grid_points: int = 4096,
                            mc_samples: int = 200_000,
                            seed: int = 0) -> EntropyLevels:
    """Entropy levels H(m^{N,k}|m_*^{otimes k}) for k = 1..k_max.

    exact-grid: deterministic; the level-k entropy is a double integral
    over the auxiliary field and the sum s = x_1 + ... + x_k whose density
    per node is a k-fold grid convolution.  Capped at k = 4.

    mc-with-exact-density: averages the exact log-ratio over exchangeable
    samples from the mixture and reports a standard error.
    """
    if not 1 <= k_max <= min(law.n_particles, 8):
        raise ValueError("k_max must satisfy 1 <= k_max <= min(N, 8)")
    if method == "exact-grid":
        if k_max > 4:
            raise ValueError("exact-grid path is capped at k_max = 4; use the mc path")
        return _entropy_exact(law, k_max, grid_points)
    if method == "mc-with-exact-density":
        return _entropy_mc(law, k_max, mc_samples, seed)
    raise ValueError(f"unknown method {method!r}")


def _entropy_exact(law: MixtureLaw, k_max: int, grid_points: int) -> EntropyLevels:
    xs, dens = _node_grid_densities(law, grid_points)
    lo, hi = float(xs[0]), float(xs[-1])
    weights = np.exp(law.z_log_weights)
    base = [GridDensity(lo, hi, grid_points, d) for d in dens]

    levels = np.zeros(k_max + 1)
    current = base
    for k in range(1, k_max + 1):
        if k > 1:
            current = [convolve(p, b) for p, b in zip(current, base)]
        n_s = current[0].n_points
        s_grid = current[0].xs
        dx = current[0].dx
        for p in current:
            if max(p.values[0], p.values[-1]) > 1e-6 * p.values.max():
                raise GridResolution("convolution grid underresolves the sum density")
        log_g = _log_gk(law, k, s_grid)
        vals = np.stack([p.values for p in current])  # (nodes, n_s)
        per_node = np.trapezoid(vals * log_g[None, :], dx=dx, axis=1)
        levels[k] = float(weights @ per_node)
    return EntropyLevels(law.n_particles, levels, np.zeros(k_max + 1))


def _entropy_mc(law: MixtureLaw, k_max: int, mc_samples: int, seed: int) -> EntropyLevels:
    rng = np.random.Generator(np.random.Philox(key=seed))
    levels = np.zeros(k_max + 1)
    errors = np.zeros(k_max + 1)
    log_mstar_z = law.log_z0
    for k in range(1, k_max + 1):
        pts = sample_marginal(law, mc_samples, rng=rng, k=k)
        log_num = marginal_log_density_batch(law, pts)
        log_den = (-law.model.potential(pts) - log_mstar_z).sum(axis=1)
        vals = log_num - log_den
        levels[k] = float(vals.mean())
        errors[k] = float(vals.std(ddof=1) / np.sqrt(mc_samples))
    return EntropyLevels(law.n_particles, levels, errors)


def conditional_entropy_level(levels: EntropyLevels, k: int) -> float:
    """H_k = levels[k] - levels[k-1] (chain-rule conditional entropy)."""
    if not 1 <= k < len(levels.levels):
        raise IndexError(f"k={k} outside computed levels")
    return float(levels.levels[k] - levels.levels[k - 1])


def gaussian_entropy_oracle(sigma: float, J: float, N: int, k: int) -> float:
    """Closed-form KL(m^{N,k} | m_*^{otimes k}) for the theta = 0 model.

    The joint is centered Gaussian with precision sigma*I - (J/N) ones;
    Sherman-Morrison gives the k x k marginal covariance
    (1/sigma) I + c ones with c = J / (N sigma (sigma - J)), and the KL
    against N(0, 1/sigma)^k reduces to (u - log(1+u))/2, u = k sigma c.
    """
    if sigma <= 0 or not 1 <= k <= N:
        raise ValueError("need sigma > 0 and 1 <= k <= N")
    if sigma - J <= 0:
        raise NonPositiveDefinite("precision sigma*I - (J/N) ones is not PD")
    u = k * J / (N * (sigma - J))
    if 1.0 + u <= 0:
        raise NonPositiveDefinite("marginal covariance not PD")
    return 0.5 * (u - np.log1p(u))


def marginal_grid_density(law: MixtureLaw, grid_points: int = 8192) -> GridDensity:
    """The one-particle marginal density m^{N,1} on a grid."""
    xs, dens = _node_grid_densities(law, grid_points)
    weights = np.exp(law.z_log_weights)
    return GridDensity(float(xs[0]), float(xs[-1]), grid_points, weights @ dens)


def marginal_moment(law: MixtureLaw, power: int, grid_points: int = 8192) -> float:
    g = marginal_grid_density(law, grid_points)
    return float(np.trapezoid(g.xs**power * g.values, dx=g.dx))


def _grid_quantile(g: GridDensity):
    from scipy.integrate import cumulative_trapezoid

    cdf = cumulative_trapezoid(g.values, dx=g.dx, initial=0.0)
    cdf /= cdf[-1]
    xs = g.xs

    def quantile(u):
        return np.interp(np.asarray(u, dtype=float), cdf, xs)

    return quantile


def wasserstein2_marginal(law: MixtureLaw, k1_reference: TiltedMeasure,
                          quantile_points: int = 8192,
                          grid_points: int = 8192) -> float:
    """W_2(m^{N,1}, reference) by inverse-CDF coupling on a quantile grid."""
    gm = marginal_grid_density(law, grid_points)
    ref = GridDensity.from_callable(k1_reference.density, gm.lo, gm.hi, grid_points)
    qp = _grid_quantile(gm)
    qq = _grid_quantile(ref)
    us = np.linspace(1e-8, 1.0 - 1e-8, quantile_points)
    diff2 = (qp(us) - qq(us)) ** 2
    return float(np.sqrt(np.trapezoid(diff2, us)))


def sample_marginal(law: MixtureLaw, n: int, seed: int = 0, k: int = 1,
                    rng: np.random.Generator | None = None,
                    grid_points: int = 8192) -> np.ndarray:
    """Exchangeable draws from m^{N,k}: pick a field node, then IID tilts."""
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=seed))
    xs, dens = _node_grid_densities(law, grid_points)
    weights = np.exp(law.z_log_weights)
    weights = weights / weights.sum()
    from scipy.integrate import cumulative_trapezoid

    node_idx = rng.choice(len(weights), size=n, p=weights)
    out = np.empty((n, k))
    for j in np.unique(node_idx):
        mask = node_idx == j
        cdf = cumulative_trapezoid(dens[j], dx=xs[1] - xs[0], initial=0.0)
        cdf /= cdf[-1]
        us = rng.random((int(mask.sum()), k))
        out[mask] = np.interp(us, cdf, xs)
    return out
