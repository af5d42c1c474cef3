"""Exact k-particle marginals of the rank-one N-particle Gibbs measure.

The quadratic term (J/2N)(sum x_i)^2 in the Gibbs exponent is linearized
by a Gaussian auxiliary field z, turning every marginal into a mixture of
IID tilted products:

    m^{N,k}(x^{[k]}) = sum_j w_j prod_{i<=k} rho_{z_j}(x_i),

with rho_z the tilted density exp(-V(x) + z x)/Z_1(z) and mixing weights
w(z) proportional to exp(-N z^2 / 2J) Z_1(z)^N.  The ratio g_k of m^{N,k}
to m_*^{otimes k}, m_* = pi[0], depends on x only through s = sum x_i, so
entropies are 1D integrals and every density is read as pi[0]^{otimes k} g_k.

W_2(m^{N,1}, m_*) is the library's one quantity read through quantile
functions: the inverse trapezoid CDFs of the two grid densities, and the
trapezoid in u of their squared gap (``_quantile_from_density``,
``_quantile_cost2``).  Every other 1D transport quantity reads the densities
on their grid (``verify``).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .errors import GridResolution, NonPositiveDefinite, Supercritical
from .meanfield import LogPartition, TiltedMeasure, subcritical_reference, tilt_windows
from .model import MAX_PARTICLES, ModelSpec
from .numerics import (FINE_POINTS, LOG_CUT, GridDensity, _check_edges, _checked,
                       convolution_powers, cumulative_trapezoid, log_laplace,
                       log_laplace_grid, window_search)

__all__ = [
    "MixtureLaw",
    "EntropyLevels",
    "MAX_LEVEL",
    "build_mixture",
    "relative_entropy_levels",
    "conditional_entropy_level",
    "gaussian_entropy_oracle",
    "wasserstein2_marginal",
    "marginal_grid_density",
    "marginal_log_grid",
    "marginal_moment",
    "sample_marginal",
]

# Highest entropy level k: tests gate the levels on the Gaussian oracle up to
# k = 8, and the s-grid of level k has k times the x-grid's points.
MAX_LEVEL = 8
# Points of the x-grid behind the entropy levels.
_LEVEL_POINTS = 4096
# The tilted reference rows behind the levels k >= 2 (``_reference_tilts``,
# ``_log_reference_powers``): a point of level k's s-grid is dropped where
# the best row's k-fold power lies below _ROW_CUT of its peak; adjacent rows'
# k_max-fold sums have means within _ROW_SPACING standard deviations; at most
# _MAX_ROWS rows.
_ROW_CUT = 1e-14
_ROW_SPACING = 3.0
_MAX_ROWS = 257
# The refinement passes of the field support (``_refine_support``), each a
# grid read of _REFINE_POINTS points.  Its log w lies within _GRID_SLACK *
# N (1 + max|log Z_1| + max|z| max|x|) of per-point reads (1.2e-15 at
# most, measured over 17 models and N up to 2^20).
_REFINE_PASSES = 3
_REFINE_POINTS = 801
_GRID_SLACK = 1e-9


@cache
def _gauss_legendre():
    """Gauss-Legendre nodes and weights of the auxiliary field z on [-1, 1].

    Built on the first mixture, not at import: ``leggauss`` costs about
    15 ms.  The arrays are shared, so they are read-only.
    """
    rule = np.polynomial.legendre.leggauss(257)
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True)
class MixtureLaw:
    """Auxiliary-field mixture representation of m^{N,k} for all k <= N.

    ``reference`` is m_* = pi[0], its kernel's ``LogPartition.reference``;
    ``log_z0`` is log Z_1(0) on that kernel grown by the field search, whose
    bits the levels keep.  ``x_window`` carries every node density.
    """

    model: ModelSpec
    n_particles: int
    z_nodes: np.ndarray = field(repr=False)
    z_log_weights: np.ndarray = field(repr=False)
    reference: TiltedMeasure = field(repr=False)
    log_z0: float = 0.0
    node_log_z1: np.ndarray = field(default=None, repr=False)
    x_window: tuple = (0.0, 0.0)


def build_mixture(model: ModelSpec, N: int) -> MixtureLaw:
    """Construct the z-mixture for the N-particle Gibbs measure.

    Requires a rank-one interaction with J > 0: for J < 0 the Gaussian
    linearization would need an imaginary field.  A Gaussian model at
    J >= sigma = J_c raises ``Supercritical``: its mixing weight is not
    normalizable.

    Every log Z_1 (field search, Gauss-Legendre nodes, and log Z_1(0), the
    normalizer of m_*) and m_* itself come from one growing ``LogPartition``,
    the kernel ``verify.jw_log_mgf`` uses: each growth runs the halving check
    at z = 0 and +-z_max and raises ``GridResolution`` above 1e-12.  The check is
    conservative: the Gaussian model with sigma = 1e6 raises although its
    entropy levels are right to about 2e-9 relative, a typed error where a
    number would have been usable, never a wrong number.

    The doubling search reads log Z_1 only where it decides its stops
    (``numerics.window_search``: the log weight is -N z^2 / 2J plus N times
    the convex log Z_1), and each refinement pass reads all of its points in
    one grid sum (``LogPartition.linspace``).
    Both raise ``NonFinite`` where a value they read is NaN or +inf.  The
    points the search skips need no check: log Z_1 is convex, and a convex
    function that is finite at both ends of a gap is finite inside it.
    """
    if not model.is_rank_one:
        raise TypeError("mixture representation requires a rank-one interaction")
    J = model.coupling
    if J <= 0:
        raise ValueError("mixture representation requires J > 0")
    if not 1 <= N <= MAX_PARTICLES:
        raise ValueError(f"N must satisfy 1 <= N <= {MAX_PARTICLES}")
    if model.is_gaussian and J >= model.confinement.sigma:
        raise Supercritical(f"J = {J} >= J_c = sigma = {model.confinement.sigma}: "
                            f"the Gaussian mixture is not normalizable")

    kernel = LogPartition(model)
    log_weight_profile = partial(_log_weight_profile, kernel, N, J)

    # Locate the effective support of the mixing weight by the doubling
    # search, then shrink it with the refinement passes.  Only the search's
    # final window is kept.
    zs = window_search(log_weight_profile, N / (2.0 * J), N)[0]
    zlo, zhi = _refine_support(kernel, N, J, float(zs[0]), float(zs[-1]))

    # Gauss-Legendre nodes on the discovered support.
    gl_nodes, gl_weights = _gauss_legendre()
    scale = 0.5 * (zhi - zlo)
    z_nodes = scale * gl_nodes + 0.5 * (zhi + zlo)

    logw_nodes, log_z1 = log_weight_profile(z_nodes)
    raw = logw_nodes + np.log(gl_weights * scale)
    # At t = 0 the Laplace sum is the plain log-sum-exp of ``raw``.
    log_weights = raw - log_laplace(0.0, z_nodes, raw)

    # The node densities are sized on the tilt windows of the end nodes, not
    # on the kernel's window: that one can end a doubling wider, and a wider
    # sizing pass coarsens the node grid.
    ends = tilt_windows(model, z_nodes[[0, -1]])
    law = MixtureLaw(
        model=model,
        n_particles=N,
        z_nodes=z_nodes,
        z_log_weights=log_weights,
        reference=kernel.reference,
        log_z0=float(kernel(0.0)),
        node_log_z1=log_z1,
        x_window=(float(ends[:, 0].min()), float(ends[:, 1].max())),
    )
    return replace(law, x_window=_node_density_window(law))


def _log_weight_profile(kernel: LogPartition, N: int, J: float, zs):
    """log w(z) = -N z^2 / 2J + N log Z_1(z) of the mixing weight, and log Z_1."""
    logz1 = kernel(zs)
    return _log_weight(N, J, zs, logz1), logz1


def _log_weight(N: int, J: float, zs, logz1):
    return -N * zs**2 / (2.0 * J) + N * logz1


def _refine_support(kernel: LogPartition, N: int, J: float, zlo: float, zhi: float):
    """Shrink the field support [zlo, zhi] of the mixing weight
    log w(z) = -N z^2 / 2J + N log Z_1(z) by ``_REFINE_PASSES`` passes.

    Each pass reads log Z_1 at ``_REFINE_POINTS`` points on the support with
    one ``LogPartition.linspace``, finds the first and last point where
    log w lies within ``LOG_CUT`` of its maximum, and pads them by one step.
    A point can lie on the cut to the last bit (the Gaussian sigma = 0.2,
    J = 0.1 at N = 2), so the points that the grid's rounding could move
    across the maximum or the cut are read again one by one: the windows
    are those of per-point scans, bit for bit
    (``tests/oracles.refine_support_by_full_scans``).
    """
    for _ in range(_REFINE_PASSES):
        zs = np.linspace(zlo, zhi, _REFINE_POINTS)
        logz1 = kernel.linspace(zlo, zhi, _REFINE_POINTS)
        logw = _log_weight(N, J, zs, logz1)
        slack = 2.0 * _GRID_SLACK * N * (1.0 + np.max(np.abs(logz1))
                                         + np.max(np.abs(zs)) * np.max(np.abs(kernel.xs)))
        top = np.max(_checked(zs, logw))
        near = (logw >= top - slack) | (np.abs(logw - (top - LOG_CUT)) <= slack)
        logw[near] = _checked(zs[near], _log_weight_profile(kernel, N, J, zs[near])[0])
        above = np.flatnonzero(logw >= np.max(logw) - LOG_CUT)
        pad = zs[1] - zs[0]
        zlo, zhi = float(zs[above[0]] - pad), float(zs[above[-1]] + pad)
    return zlo, zhi


def _check_level(law: MixtureLaw, k: int) -> None:
    if not 1 <= k <= law.n_particles:
        raise ValueError(f"k = {k}: m^{{N,k}} needs 1 <= k <= N = {law.n_particles}")


def marginal_log_density_batch(law: MixtureLaw, points: np.ndarray) -> np.ndarray:
    """log m^{N,k} = log g_k(s) - sum V(x_i) - k log Z_1(0), s = sum x_i, at
    the rows of an (n, k) array; ``ValueError`` unless 1 <= k <= N."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    k = pts.shape[1]
    _check_level(law, k)
    vsum = law.model.potential(pts).sum(axis=1)
    return _log_gk(law, k, pts.sum(axis=1)) - vsum - k * law.log_z0


@dataclass(frozen=True)
class EntropyLevels:
    """H(m^{N,k} | m_*^{otimes k}) for k = 0..k_max (levels[0] = 0)."""

    n_particles: int
    levels: np.ndarray

    def __post_init__(self) -> None:
        if self.levels[0] != 0.0:
            raise ValueError("levels[0] must be zero")


_SIZING_POINTS = 513


def _node_density_window(law: MixtureLaw):
    """+-12 std of the widest node around the node means, and ``law.x_window``.

    The means and std are the ``_row_moments`` of the node densities on
    ``_SIZING_POINTS`` points over ``law.x_window``.  Where the +-12 std lie
    inside that window, as for the Gaussian sigma = 1, J = 0.5, it is kept
    to the bit, whatever order the moments are summed in.
    """
    xs = _node_grid(law, _SIZING_POINTS)
    rows = _node_rows(law, slice(None), xs, -law.model.potential(xs))
    _, means, variances = _row_moments(rows, xs)
    sig = float(np.sqrt(variances.max()))
    return (min(float(means.min()) - 12.0 * sig, law.x_window[0]),
            max(float(means.max()) + 12.0 * sig, law.x_window[1]))


def _row_moments(rows: np.ndarray, xs: np.ndarray):
    """Trapezoid mass, mean and variance of each row of ``rows`` on the
    uniform grid ``xs``.

    One ``np.einsum`` per moment: it sums in its own loop, with no BLAS
    product, so no thread count can move a bit.
    """
    weights = np.full(xs.size, xs[1] - xs[0])
    weights[[0, -1]] /= 2.0
    mass = np.einsum("ij,j->i", rows, weights)
    means = np.einsum("ij,j->i", rows, weights * xs) / mass
    squares = xs - means[:, None]
    squares *= squares
    variances = np.einsum("ij,ij,j->i", rows, squares, weights) / mass
    return mass, means, variances


def _node_grid(law: MixtureLaw, n_points: int) -> np.ndarray:
    """``n_points`` uniform points over ``law.x_window``, the node-density grid."""
    return np.linspace(law.x_window[0], law.x_window[1], n_points)


def _node_rows(law: MixtureLaw, nodes, xs: np.ndarray, neg_v: np.ndarray) -> np.ndarray:
    """rho_{z_j}(xs) = exp(z_j x - V(x) - log Z_1(z_j)) for the nodes ``nodes``,
    one C-ordered row each; ``neg_v`` is -V(xs)."""
    rows = np.multiply.outer(law.z_nodes[nodes], xs)
    rows += neg_v
    rows -= law.node_log_z1[nodes, None]
    return np.exp(rows, out=rows)


def _gk_log_weights(law: MixtureLaw, k: int) -> np.ndarray:
    """log w_j + k (log Z_1(0) - log Z_1(z_j)): their Laplace sum at s is the
    log of the density ratio m^{N,k}/m_*^{otimes k} at x_1 + ... + x_k = s."""
    return law.z_log_weights + k * (law.log_z0 - law.node_log_z1)


def _log_gk(law: MixtureLaw, k: int, s: np.ndarray) -> np.ndarray:
    """log of the density ratio m^{N,k}/m_*^{otimes k} as a function of s."""
    return log_laplace(s, law.z_nodes, _gk_log_weights(law, k))


def relative_entropy_levels(law: MixtureLaw, k_max: int) -> EntropyLevels:
    """Entropy levels H(m^{N,k}|m_*^{otimes k}) for k = 1..k_max, k_max <= MAX_LEVEL.

    Deterministic: level k is an integral over the sum s = x_1 + ... + x_k
    of the mixed density p_k = q_k g_k, with q_k = pi[0]^{*k} (closed form
    at k = 1, a k-fold grid convolution of a few tilted reference rows
    above) and g_k the exact density ratio summed over the field nodes
    (``_entropy_exact``).

    It takes m_* = pi[0], the untilted measure, so ``law.reference`` must
    pass ``meanfield.subcritical_reference``: ``RegimeViolation`` for a
    non-quartic confinement whose pi[0] has a non-zero mean (the levels
    would tend to a positive constant), ``Supercritical`` for J >= J_c.
    J > 0 makes every level positive, so a level that reads <= 0 (all its
    digits lost, as at J = 1e-30) raises ``GridResolution``.
    """
    if not 1 <= k_max <= min(law.n_particles, MAX_LEVEL):
        raise ValueError(f"k_max must satisfy 1 <= k_max <= min(N, {MAX_LEVEL})")
    subcritical_reference(law.reference)
    out = _entropy_exact(law, k_max)
    zero = np.flatnonzero(out.levels[1:] <= 0.0)
    if zero.size:
        k = int(zero[0]) + 1
        raise GridResolution(f"level {k} reads {out.levels[k]} <= 0 at J > 0: "
                             f"the level grids lost every digit")
    return out


def _phi(x: np.ndarray) -> np.ndarray:
    """phi(x) = x + expm1(-x) >= 0, by its Taylor series where |x| < 1e-3."""
    small = np.abs(x) < 1e-3
    return np.where(small,
                    x * x * (0.5 - x / 6.0 + x * x / 24.0 - x**3 / 120.0),
                    x + np.expm1(-x))


def _entropy_exact(law: MixtureLaw, k_max: int) -> EntropyLevels:
    """Level k is int p log g ds, with p = sum_j w_j rho_j^{*k} the mixed
    density of s = x_1 + ... + x_k and g = p / q its ratio to the reference
    density q = pi[0]^{*k}.

    Adding int q - int p = 0 turns the integrand into p * phi(log g) with
    phi(x) = x + expm1(-x) >= 0, so nothing cancels and the level keeps its
    relative accuracy as H -> 0.  The plain per-node form
    sum_j w_j int rho_j^{*k} log g cancels terms far larger than H.

    Every level is p = q * g, the exact Esscher tilt identity
    rho_j^{*k}(s) = q(s) exp(z_j s - k Lambda(z_j)).  At k = 1, q is
    pi[0] = exp(-V - log Z_1(0)) in closed form and log g_1 is read point by
    point on the x-grid; p_1 is edge-checked (``GridResolution`` for mass at
    an end of ``law.x_window``).  At k >= 2, q comes from a few tilted rows
    (``_log_reference_powers``) and log g is the exact ratio on the uniform
    s-points where q was kept, summed by ``numerics.log_laplace_grid``; p_k
    is scaled to unit trapezoid mass.
    """
    xs = _node_grid(law, _LEVEL_POINTS)
    lo, hi = float(xs[0]), float(xs[-1])
    # GridDensity's spacing, not xs[1] - xs[0]: level 1's last bits were
    # measured with it.
    dx = (hi - lo) / (_LEVEL_POINTS - 1)

    levels = np.zeros(k_max + 1)
    # Level 1 reads log g_1 point by point and keeps p_1 = pi[0] g_1 as it
    # is: a grid read of log g_1, or p_1 scaled to unit mass, puts the
    # Gaussian H_1 further from its closed form.
    log_g = _log_gk(law, 1, xs)
    p_1 = np.exp(log_g - law.model.potential(xs) - law.log_z0)
    _check_edges(p_1)
    levels[1] = float(np.trapezoid(p_1 * _phi(log_g), dx=dx))
    for k, log_q in _log_reference_powers(law, xs, dx, k_max):
        live = np.flatnonzero(log_q > -np.inf)
        first, last = int(live[0]), int(live[-1]) + 1
        log_g = log_laplace_grid(k * lo + dx * first, dx, last - first,
                                 law.z_nodes, _gk_log_weights(law, k))
        log_p = log_q[first:last] + log_g
        p_k = np.exp(log_p - log_p.max())
        p_k /= np.trapezoid(p_k, dx=dx)
        levels[k] = float(np.trapezoid(p_k * _phi(log_g), dx=dx))
    return EntropyLevels(law.n_particles, levels)


def _tilted_rows(law: MixtureLaw, xs: np.ndarray, n_rows: int):
    """``n_rows`` tilts z_m evenly spaced on [z_nodes[0], z_nodes[-1]], and the
    rows exp(z_m x - V(x) - shift_m) on ``xs``, each with peak 1."""
    zs = np.linspace(law.z_nodes[0], law.z_nodes[-1], n_rows)
    log_rows = np.multiply.outer(zs, xs) - law.model.potential(xs)
    shifts = log_rows.max(axis=1)
    return zs, np.exp(log_rows - shifts[:, None]), shifts


def _reference_tilts(law: MixtureLaw, xs: np.ndarray, k_max: int):
    """``_tilted_rows`` with M rows, M doubled nested (3, 5, 9, 17, ...) until
    the k_max-fold sums of adjacent rows have means within ``_ROW_SPACING``
    standard deviations, each row's mean and variance its ``_row_moments``.
    A model that needs more than ``_MAX_ROWS`` rows raises ``GridResolution``.
    """
    n_rows = 3
    while n_rows <= _MAX_ROWS:
        zs, rows, shifts = _tilted_rows(law, xs, n_rows)
        _, means, variances = _row_moments(rows, xs)
        sds = np.sqrt(variances)
        gaps = np.sqrt(k_max) * np.diff(means)
        if np.all(gaps <= _ROW_SPACING * np.minimum(sds[:-1], sds[1:])):
            return zs, rows, shifts
        n_rows = 2 * n_rows - 1
    raise GridResolution(f"the levels need more than {_MAX_ROWS} tilted reference rows")


def _log_reference_powers(law: MixtureLaw, xs: np.ndarray, dx: float, k_max: int):
    """[(k, log q_k)] for k = 2..k_max on the s-grids k*xs[0] + l*dx.

    q_k = pi[0]^{*k}, up to a factor shared by all s, is read off the k-fold
    power of each tilted row (``_reference_tilts``), untilted:
    log q_k(s) = log row_m^{*k}(s) + k shift_m - z_m s.  At each s it is taken
    from the row that is largest relative to its own peak, and it is -inf
    where even that row lies below ``_ROW_CUT`` of its peak: a truncation of
    q_k's far tails, not a noise floor.  Untilting one row everywhere would
    amplify its FFT noise by exp(z s).
    """
    if k_max < 2:
        return []
    zs, rows, shifts = _reference_tilts(law, xs, k_max)
    sizes = {k: k * (xs.size - 1) + 1 for k in range(2, k_max + 1)}
    best = {k: np.full(size, np.log(_ROW_CUT)) for k, size in sizes.items()}
    log_q = {k: np.full(size, -np.inf) for k, size in sizes.items()}
    for z, row, shift in zip(zs, rows, shifts):
        for k, power in convolution_powers(row, k_max):
            with np.errstate(divide="ignore"):
                log_power = np.log(power)
            rel = log_power - log_power.max()
            take = np.flatnonzero(rel >= best[k])
            best[k][take] = rel[take]
            s = k * xs[0] + dx * take
            log_q[k][take] = log_power[take] + k * shift - z * s
    return list(log_q.items())


def conditional_entropy_level(levels: EntropyLevels, k: int) -> float:
    """H_k = levels[k] - levels[k-1] (chain-rule conditional entropy)."""
    if not 1 <= k < len(levels.levels):
        raise IndexError(f"k={k} outside computed levels")
    return float(levels.levels[k] - levels.levels[k - 1])


_SERIES_U = 0.25
_SERIES_TERMS = 30


def gaussian_entropy_oracle(sigma: float, J: float, N: int, k: int) -> float:
    """Closed-form KL(m^{N,k} | m_*^{otimes k}) for the theta = 0 model.

    The joint is centered Gaussian with precision sigma*I - (J/N) ones;
    Sherman-Morrison gives the k x k marginal covariance
    (1/sigma) I + c ones with c = J / (N sigma (sigma - J)), and the KL
    against N(0, 1/sigma)^k reduces to (u - log(1+u))/2, u = k sigma c.
    For |u| < 1/4 that difference would cancel (to 4.9e-12 relative at
    u = 2^-16), so there it is summed as (1/2) sum_{n>=2} (-u)^n / n.
    """
    if sigma <= 0 or not 1 <= k <= N:
        raise ValueError("need sigma > 0 and 1 <= k <= N")
    if sigma - J <= 0:
        raise NonPositiveDefinite("precision sigma*I - (J/N) ones is not PD")
    u = k * J / (N * (sigma - J))
    if abs(u) < _SERIES_U:
        # Horner in -u for sum_{n>=2} (-u)^(n-2) / n; at |u| < 1/4 the
        # terms past n = _SERIES_TERMS are below 2^-56 of the first.
        s = 0.0
        for n in range(_SERIES_TERMS, 1, -1):
            s = 1.0 / n - u * s
        return 0.5 * u * u * s
    return 0.5 * (u - np.log1p(u))


def marginal_log_grid(law: MixtureLaw, lo: float, hi: float):
    """The points np.linspace(lo, hi, FINE_POINTS) and log m^{N,1} there:
    log g_1(x) - V(x) - log Z_1(0), log g_1 by ``numerics.log_laplace_grid``."""
    xs = np.linspace(lo, hi, FINE_POINTS)
    log_m = log_laplace_grid(lo, (hi - lo) / (FINE_POINTS - 1), FINE_POINTS,
                             law.z_nodes, _gk_log_weights(law, 1))
    log_m -= law.model.potential(xs)
    log_m -= law.log_z0
    return xs, log_m


def marginal_grid_density(law: MixtureLaw) -> GridDensity:
    """The one-particle marginal density m^{N,1} on ``FINE_POINTS`` points over
    ``law.x_window``, exp of ``marginal_log_grid``."""
    xs, log_m = marginal_log_grid(law, *law.x_window)
    return GridDensity(float(xs[0]), float(xs[-1]), FINE_POINTS, np.exp(log_m))


def marginal_moment(law: MixtureLaw, power: int) -> float:
    """E[x^power] under m^{N,1}: the trapezoid on ``marginal_grid_density``."""
    g = marginal_grid_density(law)
    return float(np.trapezoid(g.xs**power * g.values, dx=g.dx))


def _quantile_from_density(g: GridDensity):
    """Quantile function of the grid density ``g``: the inverse of its
    trapezoid CDF (scaled to end at 1), interpolated linearly."""
    cdf = cumulative_trapezoid(g.values, g.dx)
    cdf /= cdf[-1]
    xs = g.xs
    return lambda u: np.interp(np.asarray(u, dtype=float), cdf, xs)


def _quantile_cost2(quantile_p, quantile_q) -> float:
    """int_0^1 (F^-1 - G^-1)^2 du, by the trapezoid on ``FINE_POINTS`` uniform
    u in [1e-8, 1 - 1e-8].  Not exact: on the standard normal the rule gives
    int q^2 du = 1.00178."""
    us = np.linspace(1e-8, 1.0 - 1e-8, FINE_POINTS)
    diff = np.asarray(quantile_p(us), dtype=float) - np.asarray(quantile_q(us), dtype=float)
    return float(np.trapezoid(diff**2, us))


def wasserstein2_marginal(law: MixtureLaw) -> float:
    """W_2(m^{N,1}, m_*), m_* = ``law.reference``, by inverse-CDF coupling: the
    root of ``_quantile_cost2`` between the quantile functions of the two
    grid densities on ``marginal_grid_density``'s grid.

    Not exact: the cost is a trapezoid in u on [1e-8, 1 - 1e-8], which puts
    W_2^2 about 1.8e-3 (relative) above the Gaussian closed form.
    """
    gm = marginal_grid_density(law)
    ref = GridDensity.from_callable(law.reference.density, gm.lo, gm.hi, FINE_POINTS)
    return float(np.sqrt(_quantile_cost2(_quantile_from_density(gm),
                                         _quantile_from_density(ref))))


def sample_marginal(law: MixtureLaw, n: int, seed: int = 0, k: int = 1) -> np.ndarray:
    """Exchangeable draws from m^{N,k}: pick a field node, then IID tilts.
    ``ValueError`` unless 1 <= k <= N."""
    _check_level(law, k)
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = _node_grid(law, FINE_POINTS)
    weights = np.exp(law.z_log_weights)
    weights = weights / weights.sum()
    node_idx = rng.choice(len(weights), size=n, p=weights)
    # CDFs of the drawn nodes only.
    drawn = np.unique(node_idx)
    cdfs = cumulative_trapezoid(_node_rows(law, drawn, xs, -law.model.potential(xs)),
                                xs[1] - xs[0])
    cdfs /= cdfs[:, -1:]
    out = np.empty((n, k))
    for j, cdf in zip(drawn, cdfs):
        mask = node_idx == j
        us = rng.random((int(mask.sum()), k))
        out[mask] = np.interp(us, cdf, xs)
    return out
