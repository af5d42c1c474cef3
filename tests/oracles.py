"""Independent brute-force oracles used by the library's tests.

Everything here works from raw definitions: tensor quadrature, adaptive
Gauss-Kronrod quadrature on the real line (``integrate``,
``log_integrate_exp``), a pairwise grid-density convolution and the
relative Fisher information by quadrature, with no reference to the
mixture representation or the log-trapezoid kernels under test; the
entropy levels by the route the library's tilted reference rows replaced,
every node density convolved (``node_row_entropy_levels``); the node
densities as one full (points, nodes) matrix (``node_grid_densities``,
``unit_mass_rows``), each node row's exp taken one row at a time
(``node_rows_per_row``), the field-support refinement and the
doubling window search that scan every point (``refine_support_by_full_scans``,
``window_search_by_full_scans``), the bitwise references of the kernels that
compute only what they keep; the sizing pass by ``np.trapezoid``
(``node_density_window_by_trapezoid``), the reference of its moments; each
tilt's window by its own window search (``tilt_window``), the reference of
``meanfield.tilt_windows``; each tilted measure on its own window and grid
(``tilted_measure_per_tilt``), the reference of the tilted measures read from
one ``LogPartition``; pi[0] as a fresh kernel's ``measure(0.0)``
(``fresh_kernel_pi_zero``), the reference of ``LogPartition.reference``;
the T1 scan with each tilt on its own grids
(``t1_ratio_scan_per_tilt``), the reference of the one-grid scan; the
log-MGF summed in long double (``longdouble_jw_log_mgf``) and read in
full from |t| = 1 (``full_read_jw_log_mgf``); the interpolated fixed point
h = f(alpha h0 + (1 - alpha) h) by the Newton solve of its own that
``verify`` once kept (``solve_interpolated_fixed_point``), the reference of
``meanfield.solve_fixed_point``; a sample file written from a batch in
memory (``save_batch``), the byte reference of ``run_chain`` with a path;
the marginals and entropy levels of m^N at small N by the composite-Simpson
tensor rule on [lo, hi]^N, with no auxiliary field, summed by convolution
powers of the weighted exp(-V) (``tensor_marginal_log_density``,
``tensor_entropy_levels``);
the relative entropy from samples, with both densities known (``kl_plug_in``)
or from samples alone (``kl_knn``); the Langevin chain loop as first
written, one step at a time with nothing cached between steps; the GHS
concavity f'' <= 0 of the magnetization map on positive tilts
(``ghs_concavity_check``), which ``meanfield.subcritical_reference``
assumes for a quartic V; and the smoothed Coulomb kernel
(``regularized_coulomb_kernel``), the general-kernel fixture of the sampler
tests.
"""
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft
from scipy import integrate as _sciint
from scipy.spatial import cKDTree
from scipy.special import erf, xlogy

from chaoslab.errors import (ChaosLabError, DegenerateInput, DivergentChain,
                             GridResolution, NonConvergent, NonFinite)
from chaoslab.bounds import t1_particle_constant
from chaoslab.marginals import _LEVEL_POINTS, _log_gk, _phi, marginal_log_density_batch
from chaoslab.meanfield import (LogPartition, TiltedMeasure, _trapezoid_grid,
                                subcritical_reference)
from chaoslab.model import GeneralKernel
from chaoslab.numerics import (FINE_POINTS, LOG_CUT, GridDensity, _chunk_rows,
                               log_trapezoid, newton_root, trapezoid_log_weights)
from chaoslab.sampler import (_ENERGY_CEILING, SampleBatch, _sample_file,
                              _write_sidecar)

# Adaptive quadrature tolerances and window truncation of integrate and
# log_integrate_exp.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 60
_LOG_TRUNCATION = np.log(1e-12)
# exp(x) is exactly 0.0 in float64 for every x below this: it rounds to 0
# below -745.1332, half the smallest subnormal.
EXP_UNDERFLOW = -745.2

_MAX_DOUBLINGS = 40
_SCAN_POINTS = 129


def _find_window(log_f):
    """Doubling search for a window outside which exp(log_f) is negligible.

    Starts from [-1, 1] and doubles until both endpoint values of ``log_f``
    drop below its running peak on the scanned grids plus
    ``_LOG_TRUNCATION``.  Returns (lo, hi, peak).  A ``log_f`` that is -inf
    on every scanned point (an identically-zero integrand, e.g. a vanishing
    score gap) ends the search at [-8, 8] with peak -inf.
    """
    lo, hi = -1.0, 1.0
    peak = -np.inf
    for _ in range(_MAX_DOUBLINGS):
        xs = np.linspace(lo, hi, _SCAN_POINTS)
        vals = np.asarray(log_f(xs), dtype=float)
        if np.any(np.isnan(vals)) or np.any(vals == np.inf):
            raise NonFinite("integrand returned a non-finite value inside the window")
        peak = max(peak, float(vals.max()))
        if peak == -np.inf:
            if hi >= 8.0:
                return lo, hi, peak
        elif vals[0] <= peak + _LOG_TRUNCATION and vals[-1] <= peak + _LOG_TRUNCATION:
            return lo, hi, peak
        lo *= 2.0
        hi *= 2.0
    raise NonConvergent("doubling search did not find a decaying window")


def _quad(g, lo: float, hi: float) -> float:
    """Adaptive Gauss-Kronrod quadrature of ``g`` on [lo, hi], error-gated."""
    value, abserr = _sciint.quad(g, lo, hi, epsabs=_ABS_TOL, epsrel=_REL_TOL,
                                 limit=_MAX_SUBDIVISIONS)
    if abserr > 100.0 * max(_ABS_TOL, _REL_TOL * abs(value)):
        raise NonConvergent(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance on [{lo}, {hi}]"
        )
    return value


def integrate(f) -> float:
    """Integrate ``f`` over the real line.

    The effective support is discovered by doubling search on log|f|; the
    window integral is then delegated to adaptive Gauss-Kronrod quadrature.
    """
    def log_abs_f(x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(f(np.asarray(x)), dtype=float)))

    lo, hi, _ = _find_window(log_abs_f)

    def f_checked(x: float) -> float:
        y = float(f(x))
        if not np.isfinite(y):
            raise NonFinite(f"integrand non-finite at x={x}")
        return y

    return _quad(f_checked, lo, hi)


def log_integrate_exp(log_f) -> float:
    """Return log of the integral of exp(log_f) with overflow-safe shifting."""
    lo, hi, shift = _find_window(log_f)
    if shift == -np.inf:
        raise NonConvergent("log-integrand is -inf on every scanned window")

    def g(x: float) -> float:
        v = float(log_f(x))
        if np.isnan(v) or v == np.inf:
            raise NonFinite(f"log-integrand non-finite at x={x}")
        return float(np.exp(v - shift))

    value = _quad(g, lo, hi)
    if value <= 0.0:
        raise NonConvergent("shifted integral evaluated to a non-positive value")
    return shift + float(np.log(value))


def fisher_information_1d(density_log_grad_p, density_log_grad_q, p_density) -> float:
    """int |d/dx log p - d/dx log q|^2 p dx by adaptive quadrature."""
    def integrand(x):
        x = np.asarray(x, dtype=float)
        gap = np.asarray(density_log_grad_p(x), dtype=float) \
            - np.asarray(density_log_grad_q(x), dtype=float)
        return gap**2 * np.asarray(p_density(x), dtype=float)

    return integrate(integrand)


def convolve(p: GridDensity, q: GridDensity) -> GridDensity:
    """Density of the sum of independent variables with densities p and q.

    One FFT product per pair: the reference that ``mixed_convolution_powers``
    is checked against.  Raises
    ``ValueError`` if the two grid spacings differ.
    """
    if abs(p.dx - q.dx) > 1e-12 * max(p.dx, q.dx):
        raise ValueError(f"grid spacings differ: {p.dx} vs {q.dx}")
    n_out = p.n_points + q.n_points - 1
    n_fft = _fft.next_fast_len(n_out, real=True)
    raw = _fft.irfft(_fft.rfft(p.values, n_fft) * _fft.rfft(q.values, n_fft),
                     n_fft)[:n_out]
    vals = np.maximum(raw, 0.0) * p.dx
    return GridDensity(p.lo + q.lo, p.hi + q.hi, n_out, vals)


# Workspace of one chunk of rows in mixed_convolution_powers: about 1 MB of
# float64 values.
_CHUNK_BYTES = 1 << 20
_EDGE_FRACTION = 1e-6


def _chunk_rows(n_points: int) -> int:
    """Rows of ``n_points`` float64 values that fit in one chunk."""
    return max(1, _CHUNK_BYTES // (8 * n_points))


def _row_masses(vals: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid mass of each (C-contiguous) row; ``GridResolution`` for a row
    whose edge value exceeds ``_EDGE_FRACTION`` of its peak."""
    edges = np.maximum(vals[:, 0], vals[:, -1])
    if np.any(edges > _EDGE_FRACTION * vals.max(axis=1)):
        raise GridResolution("grid underresolves the density: mass at its edge")
    mass = np.trapezoid(vals, dx=dx, axis=1)
    if not np.all(mass > 0.0):
        raise ValueError("density has zero mass")
    return mass


def unit_mass_rows(rows, dx: float) -> np.ndarray:
    """Density rows clipped at zero, edge-checked and scaled to unit trapezoid
    mass, as a C-ordered copy of the whole matrix.

    In C order each row's sum runs in the same order as ``GridDensity``'s on
    a 1D array, so ``weights @ unit_mass_rows(rows, dx)`` is the mix of the
    rows' ``GridDensity`` values, as ``mixed_convolution_powers`` mixes them
    at k = 1.
    """
    base = np.maximum(np.asarray(rows, dtype=float), 0.0, order="C")
    base /= _row_masses(base, dx)[:, None]
    return base


def node_grid_densities(law, n_points: int):
    """The points and the node densities rho_{z_j}(x) on ``n_points`` points
    over ``law.x_window``, one row per node: shape (n_nodes, n_points).

    Built in one (n_points, n_nodes) buffer, exp of the whole of it, and
    returned as its transpose: the reference of the marginal's node
    densities.  ``weights @ rows`` then sums each point's node values from
    contiguous memory.
    """
    xs = np.linspace(law.x_window[0], law.x_window[1], n_points)
    dens = np.multiply.outer(xs, law.z_nodes)
    dens += -law.model.potential(xs)[:, None]
    dens -= law.node_log_z1
    return xs, np.exp(dens, out=dens).T


def node_rows_per_row(law, nodes, xs: np.ndarray, neg_v: np.ndarray) -> np.ndarray:
    """``marginals._node_rows`` as first written: each row's exp runs from its
    first to its last exponent at or above ``EXP_UNDERFLOW`` (NaN counts as
    above), one row at a time, and the tails outside are set to 0.0."""
    rows = np.multiply.outer(law.z_nodes[nodes], xs)
    rows += neg_v
    rows -= law.node_log_z1[nodes, None]
    for row in rows:
        live = np.flatnonzero(~(row < EXP_UNDERFLOW))
        i, j = (live[0], live[-1] + 1) if live.size else (0, 0)
        row[:i] = 0.0
        row[j:] = 0.0
        np.exp(row[i:j], out=row[i:j])
    return rows


def node_density_window_by_trapezoid(law):
    """``marginals._node_density_window`` as first written: the node means and
    variances of the 513-point sizing pass by ``np.trapezoid`` on the
    transposed (points, nodes) buffer, the means not divided by the mass."""
    xlo, xhi = law.x_window
    xs = np.linspace(xlo, xhi, 513)
    dens = np.multiply.outer(xs, law.z_nodes)
    dens += -law.model.potential(xs)[:, None]
    dens -= law.node_log_z1
    dens = np.exp(dens, out=dens).T
    dx = xs[1] - xs[0]
    means = np.trapezoid(xs * dens, dx=dx, axis=1)
    variances = np.trapezoid((xs - means[:, None]) ** 2 * dens, dx=dx, axis=1)
    sig = float(np.sqrt(variances.max()))
    return (min(float(means.min()) - 12.0 * sig, xlo),
            max(float(means.max()) + 12.0 * sig, xhi))


def refine_support_by_full_scans(kernel, N, J, zlo, zhi):
    """The field-support refinement of ``build_mixture`` as first written:
    three passes, each evaluating log Z_1 at all 801 points of its scan."""
    for _ in range(3):
        zs = np.linspace(zlo, zhi, 801)
        logw = -N * zs**2 / (2.0 * J) + N * kernel(zs)
        above = np.nonzero(logw >= logw.max() - LOG_CUT)[0]
        pad = zs[1] - zs[0]
        zlo, zhi = float(zs[above[0]] - pad), float(zs[above[-1]] + pad)
    return zlo, zhi


def window_search_by_full_scans(log_f, *convex):
    """``numerics.window_search`` as first written: every scan reads all 257
    of its points.  Called as ``window_search`` is, with ``convex`` = (c, n),
    ``log_f`` returns the profile and g, and only the profile is kept;
    called with ``log_f`` alone, it is the plain search on log_f."""
    lo, hi = -1.0, 1.0
    for _ in range(40):
        xs = np.linspace(lo, hi, 257)
        vals = log_f(xs)[0] if convex else log_f(xs)
        vals = np.asarray(vals, dtype=float)
        bad = np.isnan(vals) | (vals == np.inf)
        if bad.any():
            raise NonFinite(f"log-integrand is {vals[bad][0]} at x = {xs[bad][0]}")
        cut = vals.max() - LOG_CUT
        if vals[0] < cut and vals[-1] < cut:
            return xs, vals
        lo *= 2.0
        hi *= 2.0
    raise NonConvergent("doubling search did not find a decaying window")


def tilt_window(model, tilt):
    """The window of ``meanfield.tilt_windows`` at one tilt as first
    written: its own doubling search on -V(x) + tilt x, every scan read
    whole (``window_search_by_full_scans``)."""
    xs = window_search_by_full_scans(lambda x: -model.potential(x) + tilt * x)[0]
    return float(xs[0]), float(xs[-1])


def tilted_measure_per_tilt(model, tilt):
    """``meanfield.tilted_measure`` as first written: pi[tilt] on its own
    4097-node grid over ``tilt_window(model, tilt)``, found by its own window
    search, with the halving check at ``tilt``.  Returns the measure and
    that window."""
    tilt = float(tilt)
    window = tilt_window(model, tilt)
    xs, logw = _trapezoid_grid(model, window)
    log_z = float(log_trapezoid(tilt, xs, logw))
    weights = np.exp(tilt * xs + logw - log_z)
    return TiltedMeasure(model, tilt, log_z, float(np.sum(weights * xs)),
                         float(np.sum(weights * xs**2))), window


def fresh_kernel_pi_zero(model):
    """pi[0] by the route ``meanfield.subcritical_reference`` once took: the
    ``measure(0.0)`` of a fresh kernel, before any query has grown it."""
    return LogPartition(model).measure(0.0)


def t1_ratio_scan_per_tilt(model, bundle, tilt_grid, law):
    """(lhs, rhs) of ``verify.marginal_t1_ratio_scan`` with each tilt on its
    own grids.  W_1 is int |F - G| dx on ``FINE_POINTS`` points over the union
    of ``law.x_window`` and pi[l]'s window, with m^{N,1} evaluated there point
    by point and each CDF scipy's cumulative trapezoid scaled to end at 1; H
    evaluates log m^{N,1} afresh on ``FINE_POINTS`` points of pi[l]'s window."""
    const = t1_particle_constant(bundle.lambda_n, bundle.delta_n)
    grid = np.asarray(tilt_grid, dtype=float)
    lhs = np.empty_like(grid)
    rhs = np.empty_like(grid)
    for i, ell in enumerate(grid):
        mu, window = tilted_measure_per_tilt(model, model.coupling * ell)
        xs = np.linspace(min(window[0], law.x_window[0]), max(window[1], law.x_window[1]),
                         FINE_POINTS)
        cdfs = _sciint.cumulative_trapezoid(
            [mu.density(xs), np.exp(marginal_log_density_batch(law, xs[:, None]))],
            xs, initial=0.0)
        cdfs /= cdfs[:, -1:]
        w1 = np.trapezoid(np.abs(cdfs[0] - cdfs[1]), xs)
        lhs[i] = w1 * w1
        xs = np.linspace(window[0], window[1], FINE_POINTS)
        log_mu = mu.log_density(xs)
        log_m1 = marginal_log_density_batch(law, xs[:, None])
        rhs[i] = const * float(np.trapezoid(np.exp(log_mu) * (log_mu - log_m1), xs))
    return lhs, rhs


def mixed_convolution_powers(rows, dx: float, weights, k_max: int) -> list:
    """p_k = sum_j weights[j] * rho_j^{*k} for k = 1..k_max, every row convolved.

    ``rows`` is a (nodes, n) array of densities rho_j on one uniform grid of
    spacing ``dx``; rho_j^{*k} lives on the k-times wider grid with
    k*(n-1)+1 points.  Every rho_j and rho_j^{*k} is clipped at zero,
    checked for mass at its grid edge (``GridResolution``) and scaled to unit
    trapezoid mass before it is mixed.  The rows go through the FFT in
    chunks of ``_chunk_rows(n_fft)``: one ``rfft`` per chunk, then per level
    one ``irfft`` of the spectrum's k-th power.
    """
    base = np.maximum(np.asarray(rows, dtype=float), 0.0, order="C")
    base /= _row_masses(base, dx)[:, None]
    weights = np.asarray(weights, dtype=float)
    n = base.shape[1]
    mixed = [weights @ base] + [np.zeros(k * (n - 1) + 1) for k in range(2, k_max + 1)]
    if k_max == 1:
        return mixed
    n_fft = _fft.next_fast_len(k_max * (n - 1) + 1, real=True)
    step = _chunk_rows(n_fft)
    for start in range(0, len(base), step):
        spectrum = _fft.rfft(base[start:start + step], n_fft, axis=-1)
        power = spectrum.copy()
        for k in range(2, k_max + 1):
            power *= spectrum
            vals = np.maximum(_fft.irfft(power, n_fft, axis=-1)[:, :k * (n - 1) + 1], 0.0)
            w = weights[start:start + step] / _row_masses(vals, dx)
            mixed[k - 1] += w @ vals
    return mixed


def node_row_entropy_levels(law, k_max: int) -> np.ndarray:
    """Levels 0..k_max with every node's k-fold sum density convolved.

    The route that ``marginals._entropy_exact`` replaced, pi[0] g_1 at k = 1
    and the tilted reference rows above: all node densities on the
    4096-point level grid go through ``mixed_convolution_powers``, and level
    k is int p * phi(log g) over the whole s-grid.  Its Gaussian-oracle error
    is about 2e-10.
    """
    xs, dens = node_grid_densities(law, _LEVEL_POINTS)
    lo, hi = float(xs[0]), float(xs[-1])
    dx = (hi - lo) / (_LEVEL_POINTS - 1)
    mixed = mixed_convolution_powers(dens, dx, np.exp(law.z_log_weights), k_max)
    levels = np.zeros(k_max + 1)
    for k, p_mix in enumerate(mixed, start=1):
        s_grid = np.linspace(k * lo, k * hi, p_mix.size)
        levels[k] = float(np.trapezoid(p_mix * _phi(_log_gk(law, k, s_grid)), dx=dx))
    return levels


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


class DegenerateSample(ChaosLabError):
    """A sample set contains duplicate points that break the kNN estimator."""


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


def _tensor_sums(model, N, lo, hi, n):
    """The composite-Simpson rule for the N-particle Gibbs measure on the
    tensor grid of [lo, hi]^N, summed by convolution, with no auxiliary field.

    With p = w exp(-V) / Z_0 on the grid (w the Simpson weights, Z_0 = sum
    w exp(-V)), c_j is the j-fold ``np.convolve`` power of p: the rule's
    law of x_1 + ... + x_j, on the points j lo + m dx.  The joint weight is
    p^{otimes N} exp(J s^2 / 2N), so every sum over the grid is a sum over
    the N-fold grid of E(u) = exp(J u^2 / 2N).  Returns (Z_0, [c_0, ..., c_N],
    E, Z_N) with Z_N = sum c_N E.  ``NonFinite`` on an exp that overflows,
    ``GridResolution`` where the rule's law of one coordinate weighs more
    than 1e-16 of its peak at an end of [lo, hi].
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd n >= 3")
    J = model.coupling
    xs = np.linspace(lo, hi, n)
    dx = (hi - lo) / (n - 1)
    w = np.where(np.arange(n) % 2 == 1, 4.0, 2.0)
    w[0] = w[-1] = 1.0
    with np.errstate(over="ignore"):
        a = w * dx / 3.0 * np.exp(-model.potential(xs))
        u = N * lo + dx * np.arange(N * (n - 1) + 1)
        e = np.exp(J * u**2 / (2.0 * N))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(e))):
        raise NonFinite(f"an exp overflows on [{lo}, {hi}] at N = {N}")
    z0 = a.sum()
    p = a / z0
    c = [np.ones(1)]
    for _ in range(N):
        c.append(np.convolve(c[-1], p))
    z_n = float(c[N] @ e)
    one = p * np.correlate(e, c[N - 1], mode="valid")
    if max(one[0], one[-1]) > 1e-16 * one.max():
        raise GridResolution(f"the rule on [{lo}, {hi}] is truncated at N = {N}")
    return z0, c, e, z_n


def tensor_marginal_log_density(model, N, points, lo, hi, n):
    """log m^{N,k} at an (n_points, k) array of points, by the composite-Simpson
    tensor rule on [lo, hi]^N with n points a side (``_tensor_sums``).

    With s the sum of a point's coordinates, m^{N,k}(x) = exp(-sum V(x_i))
    sum_m c_{N-k}[m] exp(J (s + u_m)^2 / 2N) / (Z_0^k Z_N), u_m = (N - k) lo
    + m dx: the tensor rule over the other N - k coordinates.
    """
    z0, c, _, z_n = _tensor_sums(model, N, lo, hi, n)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[1]
    if not 1 <= k <= N:
        raise ValueError(f"m^{{N,k}} needs 1 <= k <= N = {N}, got k = {k}")
    dx = (hi - lo) / (n - 1)
    u = (N - k) * lo + dx * np.arange(c[N - k].size)
    with np.errstate(over="ignore"):
        e = np.exp(model.coupling * (pts.sum(axis=1)[:, None] + u) ** 2 / (2.0 * N))
    if not np.all(np.isfinite(e)):
        raise NonFinite(f"an exp overflows at a point's sum at N = {N}")
    return (np.log(e @ c[N - k]) - model.potential(pts).sum(axis=1)
            - k * np.log(z0) - np.log(z_n))


def tensor_entropy_levels(model, N, k_max, lo, hi, n):
    """H(m^{N,k} | m_*^{otimes k}) for k = 0..k_max (level 0 is 0), with
    m_* = exp(-V) / Z_0 (the mean-field limit of an even V below J_c), by
    the tensor rule of ``_tensor_sums``.

    On the k-fold grid the ratio m^{N,k} / m_*^{otimes k} depends on the sum
    s only: R_k = (c_{N-k} correlated with E) / Z_N.  Level k is
    sum c_k (R log R - R + 1); the added terms sum to zero in the rule and
    make every term non-negative.
    """
    _, c, e, z_n = _tensor_sums(model, N, lo, hi, n)
    levels = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        r = np.correlate(e, c[N - k], mode="valid") / z_n
        levels[k] = c[k] @ (xlogy(r, r) - r + 1.0)
    return levels


def nested_quad_jw_log_mgf(model, N):
    """log E[exp(J S_N^2 / 2N)] under exp(-V)^{otimes N} / Z_0^N.

    Hubbard-Stratonovich with z = sqrt(J/N) t, and an adaptive
    ``log_integrate_exp`` for log Z_1(z) at every node of the adaptive
    outer integral over t (quadrature inside quadrature).
    """
    J = model.coupling

    def log_z1(z):
        return log_integrate_exp(lambda x: -model.potential(x) + z * x)

    log_z0 = log_z1(0.0)
    scale = np.sqrt(J / N)

    def log_f(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array([-tt**2 / 2.0 + N * (log_z1(scale * tt) - log_z0)
                        for tt in ts])
        return out if np.ndim(t) else float(out[0])

    return -0.5 * np.log(2.0 * np.pi) + log_integrate_exp(log_f)


def full_read_jw_log_mgf(model, N):
    """``verify.jw_log_mgf`` as first written: the doubling search in t from
    |t| <= 1 with every point of every scan read
    (``window_search_by_full_scans``), and the log-trapezoid on every point
    of the final scan."""
    kernel = LogPartition(model)
    subcritical_reference(kernel.reference)
    scale = np.sqrt(model.coupling / N)
    ts, log_f = window_search_by_full_scans(
        lambda ts: -ts**2 / 2.0 + N * kernel.cgf(scale * ts))
    log_int = log_trapezoid(0.0, ts, trapezoid_log_weights(ts) + log_f)
    return -0.5 * np.log(2.0 * np.pi) + float(log_int)


def longdouble_jw_log_mgf(model, N):
    """``verify.jw_log_mgf`` of a quartic model summed in numpy long double (a
    64-bit mantissa on x86-64), so the rounding of log Z_1(z) - log Z_1(0) is
    far below float64's, which the integrand multiplies by N: about N 1e-19
    absolute, below 1e-11 relative at N <= 2^20 and 0.1 J_c or more.  Fixed
    trapezoids: 513 nodes in x on [-8, 8], 1025 nodes in t on [-64, 64],
    wide enough for N >= 2^10 below 0.99 J_c, where |z| <= 64 sqrt(J/N)."""
    ld = np.longdouble
    theta, sigma = ld(model.confinement.theta), ld(model.confinement.sigma)
    J = ld(model.coupling)
    xs = np.linspace(ld(-8), ld(8), 513)
    logw = -xs * xs * (theta / 4 * xs * xs + sigma / 2)

    def log_sum_exp(a):
        peak = a.max(axis=-1)
        return peak + np.log(np.exp(a - peak[..., None]).sum(axis=-1))

    log_z0 = log_sum_exp(logw)
    ts = np.linspace(ld(-64), ld(64), 1025)
    zs = np.sqrt(J / N) * ts
    g = np.concatenate([log_sum_exp(zc[:, None] * xs + logw) - log_z0
                        for zc in np.array_split(zs, 8)])
    log_int = log_sum_exp(-ts * ts / 2 + N * g) + np.log(ts[1] - ts[0])
    return float(log_int - np.log(2 * np.pi * ld(1)) / 2)


def _reference_log_target_and_grad(model, x):
    """Gibbs exponent -sum V - (1/2N) sum W and its gradient, vectorized."""
    n = x.size
    v = model.potential(x)
    gv = model.grad_potential(x)
    if model.is_rank_one:
        s = x.sum()
        logp = -v.sum() + model.coupling * s * s / (2.0 * n)
        grad = -gv + model.coupling * s / n
    else:
        wmat = model.kernel(x[:, None], x[None, :])
        logp = -v.sum() - wmat.sum() / (2.0 * n)
        grad = -gv - model.kernel_force(x[:, None], x[None, :]).sum(axis=1) / n
    return logp, grad


def reference_run_chain(model, cfg):
    """The MALA/ULA loop as first written: the reference for ``run_chain``.

    It recomputes eps * grad and the forward residual every step, and reads
    the same two Philox streams of the seed one draw at a time: the noise,
    a ``normal(size=n)`` for the initial state and one per step, from the
    key; the accept uniforms, one ``random()`` per MALA step whether or not
    its proposal is finite, from the key jumped before any draw.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    accept_rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped())
    n = cfg.n_particles
    eps = cfg.step_size
    x = rng.normal(size=n) * 0.1

    logp, grad = _reference_log_target_and_grad(model, x)
    if not np.isfinite(logp) or not np.all(np.isfinite(grad)):
        raise NonFinite("non-finite target at the initial state")

    draws = np.empty((cfg.n_kept, n))
    kept = 0
    accepted = 0
    proposed = 0
    mala = cfg.algorithm == "mala"
    sqrt2e = np.sqrt(2.0 * eps)

    for step in range(cfg.n_steps):
        xi = rng.normal(size=n)
        y = x + eps * grad + sqrt2e * xi
        logp_y, grad_y = _reference_log_target_and_grad(model, y)
        if mala:
            proposed += 1
            u = accept_rng.random()
            if np.isfinite(logp_y) and np.all(np.isfinite(grad_y)):
                # log q(x | y) - log q(y | x) for the Langevin proposal.
                fwd = y - x - eps * grad
                bwd = x - y - eps * grad_y
                log_alpha = (logp_y - logp
                             + (fwd @ fwd - bwd @ bwd) / (4.0 * eps))
                if np.log(u) < log_alpha:
                    x, logp, grad = y, logp_y, grad_y
                    accepted += 1
        else:
            if not np.isfinite(logp_y) or not np.all(np.isfinite(grad_y)):
                raise NonFinite(f"ULA left the finite-energy region at step {step}")
            x, logp, grad = y, logp_y, grad_y
        if -logp > _ENERGY_CEILING:
            raise DivergentChain(f"energy {-logp:.3e} exceeded ceiling at step {step}")
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thinning == 0:
            draws[kept] = x
            kept += 1

    rate = accepted / proposed if mala else None
    return SampleBatch(draws=draws[:kept], acceptance_rate=rate,
                       seed=cfg.seed, model_fingerprint=model.fingerprint())


def save_batch(batch, cfg, path) -> None:
    """Write ``batch`` as a sample file at ``path``: the 16-byte header, the
    draws as row-major little-endian float64, about 1 MB of rows at a time,
    and the JSON sidecar of ``cfg``.  The file replaces ``path`` atomically,
    so saving a batch that ``load_batch`` mapped from ``path`` back to
    ``path`` is safe."""
    n_kept, n = batch.draws.shape
    with _sample_file(path, n) as write:
        rows = _chunk_rows(n)
        for start in range(0, n_kept, rows):
            write(batch.draws[start:start + rows])
    _write_sidecar(path, cfg, n_kept, batch.acceptance_rate, batch.model_fingerprint)


def solve_interpolated_fixed_point(kernel, alpha, h0, tol=1e-12):
    """h_* solving h = f(alpha h0 + (1 - alpha) h), by ``numerics.newton_root``
    from h0 on g(h) = h - f(t), g'(h) = 1 - (1 - alpha) J Var(pi[J t]) with
    t = alpha h0 + (1 - alpha) h, every f read from ``kernel``, with no
    restart away from an unstable root."""
    J = kernel.model.coupling

    def gd(h):
        mu = kernel.measure(J * (alpha * h0 + (1.0 - alpha) * h))
        return h - mu.mean, 1.0 - (1.0 - alpha) * J * mu.variance

    return newton_root(gd, h0, tol)


def magnetization_inverse(kernel, h):
    """l = f^{-1}(h): the root of f(l) - h, whose derivative f'(l) =
    J Var(pi[J l]) is positive, by ``numerics.newton_root`` from l = h to
    1e-12, every f(l) read from ``kernel``."""
    J = kernel.model.coupling

    def gd(ell):
        mu = kernel.measure(J * ell)
        return mu.mean - h, J * mu.variance

    return newton_root(gd, h, 1e-12)


def phi_at_magnetizations(model, eps_override, h_grid):
    """(l, phi) at each magnetization h of ``h_grid`` by the inverse route:
    l = f^{-1}(h) solved for each h alone (``magnetization_inverse``), then
    phi(h) = (1-eps) J l h - (1-eps) log Z(J l) - J h^2 + log Z(J h)
    - eps log Z(0), with eps = (1 - J/J_c)^2 unless overridden, every
    measure read from one kernel."""
    hs = np.asarray(h_grid, dtype=float)
    J = model.coupling
    kernel = LogPartition(model)
    j_c = 1.0 / kernel.reference.second_moment
    eps = (1.0 - J / j_c) ** 2 if eps_override is None else eps_override
    ell = np.array([magnetization_inverse(kernel, h) for h in hs])
    log_z_ell = kernel.measure(J * ell).log_z
    log_z_h = kernel.measure(J * hs).log_z
    phi = ((1.0 - eps) * J * ell * hs - (1.0 - eps) * log_z_ell
           - J * hs * hs + log_z_h - eps * kernel.reference.log_z)
    return ell, phi


@dataclass(frozen=True)
class GhsReport:
    grid: np.ndarray
    second_differences: np.ndarray
    max_second_difference: float
    passed: bool


def ghs_concavity_check(model, h_grid, fd_step: float = 1e-2,
                        tol: float = 1e-6) -> GhsReport:
    """Scan f'' <= 0 on a grid of positive tilts via second central differences,
    every f(h) read from one kernel."""
    grid = np.asarray(h_grid, dtype=float)
    if np.any(grid <= fd_step):
        raise ValueError("grid points must exceed the finite-difference step")
    kernel = LogPartition(model)
    f = lambda h: kernel.measure(model.coupling * h).mean
    diffs = np.array([(f(h + fd_step) - 2.0 * f(h) + f(h - fd_step)) / fd_step**2
                      for h in grid])
    worst = float(diffs.max())
    return GhsReport(grid, diffs, worst, worst <= tol)


def regularized_coulomb_kernel(epsilon: float) -> GeneralKernel:
    """Smoothed attractive 1D Coulomb kernel W_eps(x, y) ~ -|x - y|.

    |r| is mollified by a centered Gaussian of variance 2*eps, giving
    w(r) = -(r erf(r/(2 sqrt(eps))) + 2 sqrt(eps/pi) exp(-r^2/(4 eps)))
    whose r-derivative is -erf(r / (2 sqrt(eps))).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    c = 2.0 * np.sqrt(epsilon)

    def w(x, y):
        r = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return -(r * erf(r / c) + (c / np.sqrt(np.pi)) * np.exp(-(r / c) ** 2))

    def grad1_w(x, y):
        r = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return -erf(r / c)

    return GeneralKernel(w=w, grad1_w=grad1_w)
