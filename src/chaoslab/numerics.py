"""Deterministic 1D numerical kernels.

The one doubling window search and the one checked log-trapezoid behind
every integral of the library: the search on a concave quadratic plus a
convex function, which reads it only where it decides a stop
(``window_search``), the search for a family of tilts with one evaluation
per block of levels (``tilted_windows``) and the coarse-to-fine read of a
trapezoid (``nested_log_trapezoid``).  Then the chunked log-Laplace
reduction behind every field/grid sum, its separable form on a uniform
grid of points (``log_laplace_grid``: one matrix product, few exps) and
its expm1 form for a log moment generating function (``log_mgf``), the
k-fold self-convolutions of one density row in one spectral pass, the
cumulative trapezoid, and safeguarded Newton root finding for one
equation.  There is no adaptive quadrature: the integrands are analytic
and decay fast, so the uniform trapezoid converges exponentially, and
halving its node count checks it.
Nothing here imports scipy: the FFT is numpy's, and the cumulative
trapezoid is a port that gives scipy's bits.
Everything here is pure and reentrant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridResolution, NonConvergent, NonFinite

__all__ = [
    "GridDensity",
    "FINE_POINTS",
    "LOG_CUT",
    "window_search",
    "tilted_windows",
    "trapezoid_log_weights",
    "log_trapezoid",
    "nested_log_trapezoid",
    "log_laplace",
    "log_laplace_grid",
    "log_mgf",
    "convolution_powers",
    "cumulative_trapezoid",
    "newton_root",
]

# Points of every fine uniform grid: the one-particle marginal density and
# its draws, the densities whose quantile functions enter W_1 and W_2, the
# one grid of the T1 scan, and the integrals in u of W_1, W_2 and the
# Bolley-Villani moment.
FINE_POINTS = 8192

# A grid density whose edge value exceeds this fraction of its peak is cut off.
_EDGE_FRACTION = 1e-6

# A window ends where its log-integrand lies LOG_CUT nats below the peak.
LOG_CUT = 45.0
_SCAN_POINTS = 257
_MAX_DOUBLINGS = 40
# Doubling levels that ``tilted_windows`` evaluates its log_f on in one call.
_LEVEL_BLOCK = 8
# Largest change of a log-trapezoid allowed when its node count is halved.
_RESOLUTION_TOL = 1e-12
# Largest |t x| of the expm1 form of ``log_mgf``: expm1 overflows above 709.78.
_EXPM1_MAX = 700.0
# A scan of ``window_search`` first reads every _CHORD_STRIDE-th point, the
# last among them (_SCAN_POINTS - 1 is a multiple of it), and bounds each gap
# between two of those with a rounding margin of _CHORD_MARGIN relative.
_CHORD_STRIDE = 16
_CHORD_MARGIN = 1e-9


def _checked(xs, vals) -> np.ndarray:
    """``vals`` as floats; ``NonFinite`` for a NaN or +inf value."""
    vals = np.asarray(vals, dtype=float)
    bad = np.isnan(vals) | (vals == np.inf)
    if bad.any():
        raise NonFinite(f"log-integrand is {vals[bad][0]} at x = {xs[bad][0]}")
    return vals


def window_search(profile, c: float, n: float):
    """Doubling search for a window outside which f is negligible, for a
    profile log f(u) = -c u^2 + n g(u) with g convex.

    ``profile(us)`` returns log f and g at ``us``, point by point, so a
    value does not depend on which other points are read with it.  The
    search scans ``_SCAN_POINTS`` uniform points over [-1, 1], then [-2, 2],
    [-4, 4], ..., and stops at the first scan whose two end values both lie
    more than ``LOG_CUT`` below that scan's peak.  Returns the scan's points
    and values, NaN where a value was not needed.

    Each scan first reads every ``_CHORD_STRIDE``-th point, the two ends
    among them, in one call, so a kernel that grows with the largest |u| it
    is asked for grows as on a read of all points.  On each gap between two
    read points g lies below its chord, so log f lies below a concave
    quadratic: the gap's bound is that quadratic's maximum on the gap plus
    a rounding margin of ``_CHORD_MARGIN`` times n (1 + |g|) + c u^2 at the
    gap's ends.  If the read points do not stop the scan, the inner points
    of every gap whose bound lies more than ``LOG_CUT`` above both ends are
    read, in one call; no other gap can stop it.  The stops, the window and
    every value read are those of scans that read all their points, bit
    for bit.

    Raises ``NonFinite`` for a NaN or +inf log f at a point read, and
    ``NonConvergent`` after ``_MAX_DOUBLINGS`` doublings.  The points left
    unread need no check: a convex g that is finite at both ends of a gap
    is finite inside it, and so is -c u^2.
    """
    read = np.arange(0, _SCAN_POINTS, _CHORD_STRIDE)
    a, b = read[:-1], read[1:]
    for level in range(_MAX_DOUBLINGS):
        us = np.linspace(-1.0, 1.0, _SCAN_POINTS) * 2.0**level  # exact
        vals, g = np.full(us.size, np.nan), np.full(us.size, np.nan)
        vals[read], g[read] = profile(us[read])
        _checked(us[read], vals[read])
        ends = max(vals[0], vals[-1])
        if not ends < np.nanmax(vals) - LOG_CUT:
            slope = (g[b] - g[a]) / (us[b] - us[a])
            top = np.clip(n * slope / (2.0 * c), us[a], us[b])
            margin = _CHORD_MARGIN * (
                n * (1.0 + np.maximum(np.abs(g[a]), np.abs(g[b])))
                + c * np.maximum(us[a] ** 2, us[b] ** 2))
            bound = -c * top**2 + n * (g[a] + slope * (top - us[a])) + margin
            # A gap whose bound minus LOG_CUT does not clear the ends cannot
            # stop the search; a NaN bound bounds nothing.
            gaps = a[np.isnan(bound) | (bound - LOG_CUT > ends)]
            if gaps.size:
                inner = (gaps[:, None] + np.arange(1, _CHORD_STRIDE)).reshape(-1)
                vals[inner] = _checked(us[inner], profile(us[inner])[0])
        if ends < np.nanmax(vals) - LOG_CUT:
            return us, vals
    raise NonConvergent("doubling search did not find a decaying window")


def tilted_windows(log_f, tilts) -> np.ndarray:
    """The window of the doubling search on log_f(x) + t x for each t in
    ``tilts``, as an (n, 2) array of their ends: the scans and stop rule of
    ``window_search``, with every point of a scan read.

    ``log_f`` is evaluated once per ``_LEVEL_BLOCK`` doubling levels, on all
    of their scans in one call, and every tilt reads those values: each
    search stops at the level a search of its own stops at, with the same
    scan values.  ``NonFinite`` is raised for a NaN or +inf value only at a
    level a tilt's search reaches, and ``NonConvergent`` after
    ``_MAX_DOUBLINGS`` doublings.
    """
    tilts = np.asarray(tilts, dtype=float).reshape(-1)
    ends = np.empty((tilts.size, 2))
    live = np.arange(tilts.size)
    for first in range(0, _MAX_DOUBLINGS, _LEVEL_BLOCK):
        half = 2.0 ** np.arange(first, min(first + _LEVEL_BLOCK, _MAX_DOUBLINGS))
        xs = np.linspace(-1.0, 1.0, _SCAN_POINTS) * half[:, None]  # exact
        vals = np.asarray(log_f(xs.reshape(-1)), dtype=float).reshape(xs.shape)
        vals = vals + tilts[live, None, None] * xs
        bad = (np.isnan(vals) | (vals == np.inf)).any(axis=2)
        stop = np.maximum(vals[..., 0], vals[..., -1]) < vals.max(axis=2) - LOG_CUT
        level = (bad | stop).argmax(axis=1)
        rows = np.arange(live.size)
        for i in np.flatnonzero(bad[rows, level]):
            _checked(xs[level[i]], vals[i, level[i]])
        done = stop[rows, level]
        ends[live[done]] = xs[level[done]][:, [0, -1]]
        live = live[~done]
        if not live.size:
            return ends
    raise NonConvergent("doubling search did not find a decaying window")


def trapezoid_log_weights(xs) -> np.ndarray:
    """log of the trapezoid weights on the uniform grid ``xs``."""
    logw = np.full(xs.size, np.log(xs[1] - xs[0]))
    logw[[0, -1]] += np.log(0.5)
    return logw


def log_trapezoid(ts, nodes, log_weights):
    """``log_laplace(ts, nodes, log_weights)``, checked by halving the node count.

    ``log_weights`` holds the trapezoid log weights on the uniform grid
    ``nodes`` plus the log-integrand there.  The node count is odd, so the
    every-other-node trapezoid keeps both end nodes and doubles the
    spacing: its sum is twice the full sum's terms at the even nodes, taken
    from the same exp'd row under the same max-shift.  Raises
    ``GridResolution`` if the relative change of the sum,
    |log1p((half - full) / full)|, exceeds ``_RESOLUTION_TOL`` at any t:
    the change of log Z without the rounding of log Z itself, which is
    about eps |log Z| and would exceed the tolerance once |log Z| ~ 1e4.
    """
    full, err = _halved_log_trapezoid(ts, nodes, log_weights)
    if not err <= _RESOLUTION_TOL:
        raise GridResolution(
            f"log-trapezoid on [{nodes[0]}, {nodes[-1]}] changes by {err:.3e} "
            f"when the node count is halved")
    return full


def _halved_log_trapezoid(ts, nodes, log_weights):
    """The values of ``log_trapezoid`` and the largest change of its halving
    check, unchecked."""
    ts = np.asarray(ts, dtype=float)
    flat = ts.reshape(-1)
    full = np.empty(flat.shape)
    change = np.empty(flat.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for part, terms, shift in _shifted_exps(flat, nodes, log_weights):
            total = terms.sum(axis=1)
            half = 2.0 * terms[:, ::2].sum(axis=1)
            np.log(total, out=full[part])
            full[part] += shift
            change[part] = np.log1p((half - total) / total)
    return full.reshape(ts.shape), float(np.max(np.abs(change), initial=0.0))


# Node strides of the coarse-to-fine reads of ``nested_log_trapezoid``.
_NESTED_STRIDES = (8, 4, 2)


def nested_log_trapezoid(nodes, values, read) -> float:
    """log of the trapezoid integral of exp(f) on the uniform ``nodes``, read
    coarse to fine until its halving check passes.

    ``values`` holds log f at ``nodes`` where it is known and NaN elsewhere,
    and ``read(idx)`` returns log f at ``nodes[idx]``.  The node count is
    8 k + 1.  The trapezoid runs on every 8th node, then every 4th, 2nd and
    1st, each set holding the one before, and reads only the values still
    missing; it returns the first whose halving change (``log_trapezoid``)
    is at most ``_RESOLUTION_TOL``.  On every node it is
    ``log_trapezoid(0, nodes, trapezoid_log_weights(nodes) + log f)``, which
    raises ``GridResolution``.  ``NonFinite`` for a NaN or +inf value read.

    A coarse check passes where the coarse sets alias an oscillation alike:
    exp(-t^2/2) (2 + cos 22 t) on 257 nodes over [-16, 16] passes on every
    2nd node and fails on every node.  It is meant for a smooth unimodal
    integrand, such as the t-integrand of ``verify.jw_log_mgf``.
    """
    values = np.array(values, dtype=float)
    for stride in _NESTED_STRIDES + (1,):
        idx = np.arange(0, nodes.size, stride)
        missing = idx[np.isnan(values[idx])]
        if missing.size:
            values[missing] = _checked(nodes[missing], read(missing))
        sub = nodes[idx]
        log_weights = trapezoid_log_weights(sub) + values[idx]
        if stride == 1:
            return float(log_trapezoid(0.0, sub, log_weights))
        full, err = _halved_log_trapezoid(0.0, sub, log_weights)
        if err <= _RESOLUTION_TOL:
            return float(full)


# Workspace of one chunk of rows in log_laplace and log_mgf, and of the
# sampler's block of kept states: about 1 MB of float64 values.
_CHUNK_BYTES = 1 << 20


def _chunk_rows(n_nodes: int) -> int:
    """Rows of ``n_nodes`` float64 values that fit in one chunk."""
    return max(1, _CHUNK_BYTES // (8 * n_nodes))


def _shifted_exps(flat, nodes, log_weights):
    """Yield (part, terms, shift) for the t of ``flat`` one chunk of rows at a
    time: terms[i, j] = exp(log_weights[j] + t_i nodes[j] - shift[i]), with
    shift[i] the row's largest exponent (0 where that is not finite), in one
    reused buffer of about ``_CHUNK_BYTES``, and ``part`` the rows' slice of
    ``flat``."""
    nodes = np.asarray(nodes, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    rows = _chunk_rows(nodes.size)
    buf = np.empty((min(rows, flat.size), nodes.size))
    for start in range(0, flat.size, rows):
        t = flat[start:start + rows]
        g = buf[:t.size]
        np.multiply(t[:, None], nodes, out=g)
        g += log_weights
        shift = g.max(axis=1)
        shift[~np.isfinite(shift)] = 0.0
        g -= shift[:, None]
        np.exp(g, out=g)
        yield slice(start, start + rows), g, shift


def log_laplace(ts, nodes, log_weights) -> np.ndarray:
    """log sum_j exp(log_weights[j] + t * nodes[j]) for each t in ``ts``.

    ``ts`` may have any shape (0-d included) and the result has the same
    shape.  The (t, node) matrix is never formed whole: rows go through one
    reused buffer of about ``_CHUNK_BYTES``, where the max-shift, exp, sum
    and log run in place.  If every term of a row is -inf the row gives
    -inf.  For ts on a uniform grid, ``log_laplace_grid`` needs far fewer
    exps.
    """
    ts = np.asarray(ts, dtype=float)
    flat = ts.reshape(-1)
    out = np.empty(flat.shape)
    with np.errstate(divide="ignore"):
        for part, terms, shift in _shifted_exps(flat, nodes, log_weights):
            np.log(terms.sum(axis=1), out=out[part])
            out[part] += shift
    return out.reshape(ts.shape)


# Points per block of ``log_laplace_grid``: near sqrt(FINE_POINTS), which
# makes its (n / B + B) exps per node smallest on the fine grids.
_GRID_BLOCK = 64
# Largest max|z| * B * step of one block of ``log_laplace_grid``, in nats.
_GRID_BLOCK_NATS = 40.0


def log_laplace_grid(lo: float, step: float, n: int, nodes, log_weights) -> np.ndarray:
    """``log_laplace`` at the n uniform points t_i = lo + i * step.

    On a uniform grid the exponentials separate: with t = t_b + r * step,
    t_b the start of block b and 0 <= r < B, exp(t z) = exp(t_b z) *
    exp(r * step * z).  So the sum over the nodes z is one matrix product of
    the (blocks, nodes) exps at the block starts and the (B, nodes) exps of
    the offsets r * step * z; then one log.  That is about (n / B + B) exps
    per node, not n.  Each start's row is shifted by its own log-sum,
    ``log_laplace`` at the block starts: its terms then sum to 1, the
    product stays near 1 and its log rounds at its own small size, and the
    float shift is exact, since the row's exps are taken against it.  Each
    offset row is shifted by its largest exponent.

    B is ``_GRID_BLOCK``, made smaller where max|z| * B * step would exceed
    ``_GRID_BLOCK_NATS``.  Within a block no exponent then moves by more
    than that against the block start, so at every point the largest term
    of the product is at least exp(-2 * _GRID_BLOCK_NATS) / len(nodes):
    nothing that counts underflows.  A point whose terms are all -inf gives
    -inf.

    The block starts are rounded as ``np.linspace`` rounds its points, and
    t_b + r * step differs from that rounding of t_i by up to an ulp of
    i * step.  The product sums each point's terms one node after the
    other, so the nodes go in order of increasing log weight: the small
    terms of the bulk are added first, and the sums round about as
    ``log_laplace``'s pairwise sums do.
    """
    order = np.argsort(log_weights, kind="stable")
    nodes = np.asarray(nodes, dtype=float)[order]
    log_weights = np.asarray(log_weights, dtype=float)[order]
    reach = float(np.abs(nodes).max(initial=0.0)) * abs(step)
    block = max(1, min(n, _GRID_BLOCK if reach * _GRID_BLOCK <= _GRID_BLOCK_NATS
                       else int(_GRID_BLOCK_NATS / reach)))
    starts = np.arange(0, n, block) * step + lo
    heads = np.multiply.outer(starts, nodes)
    heads += log_weights
    shift = log_laplace(starts, nodes, log_weights)
    shift[~np.isfinite(shift)] = 0.0
    heads -= shift[:, None]
    np.exp(heads, out=heads)
    offsets = np.multiply.outer(step * np.arange(block), nodes)
    offset_shift = offsets.max(axis=1)
    offsets -= offset_shift[:, None]
    np.exp(offsets, out=offsets)
    with np.errstate(divide="ignore"):
        out = np.log(heads @ offsets.T)
    out += shift[:, None]
    out += offset_shift
    return out.reshape(-1)[:n]


def log_mgf(ts, nodes, log_probs) -> np.ndarray:
    """log sum_j exp(log_probs[j] + t * nodes[j]) for each t in ``ts``: the log
    moment generating function of the grid distribution exp(log_probs).

    Where no |t * nodes[j]| exceeds ``_EXPM1_MAX`` it is computed as
    log1p(sum_j p_j expm1(t * nodes[j])): exactly 0 at t = 0, with a rounding
    of a few eps times sum_j p_j |expm1(t * nodes[j])|, which vanishes with
    t, where ``log_laplace`` rounds to about eps times its terms.  Where expm1
    could overflow, or the expm1 sum lies below -1/2 so that log1p would
    cancel, it is ``log_laplace``.  Rows go through one reused buffer of
    about ``_CHUNK_BYTES``, as in ``log_laplace``, and each value depends on
    its own t only.
    """
    ts = np.asarray(ts, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    log_probs = np.asarray(log_probs, dtype=float)
    flat = ts.reshape(-1)
    out = np.full(flat.shape, np.nan)
    near = np.flatnonzero(np.abs(flat) * np.abs(nodes).max(initial=0.0) <= _EXPM1_MAX)
    probs = np.exp(log_probs)
    rows = _chunk_rows(nodes.size)
    buf = np.empty((min(rows, near.size), nodes.size))
    for start in range(0, near.size, rows):
        idx = near[start:start + rows]
        g = buf[:idx.size]
        np.multiply(flat[idx, None], nodes, out=g)
        np.expm1(g, out=g)
        g *= probs
        out[idx] = np.log1p(g.sum(axis=1))
    far = ~(out > -np.log(2.0))  # NaN where not near
    out[far] = log_laplace(flat[far], nodes, log_probs)
    return out.reshape(ts.shape)


@dataclass(frozen=True)
class GridDensity:
    """A probability density sampled on a uniform grid over [lo, hi], scaled to
    unit trapezoid mass.  ``NonFinite`` for a NaN or infinite value;
    ``ValueError`` for a negative value, no mass or a malformed grid."""

    lo: float
    hi: float
    n_points: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError("hi must exceed lo")
        if self.n_points < 2:
            raise ValueError("need at least two grid points")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n_points,):
            raise ValueError("values length must equal n_points")
        if not np.isfinite(vals).all():
            raise NonFinite("density values must be finite")
        if np.any(vals < 0):
            raise ValueError("density values must be non-negative")
        mass = np.trapezoid(vals, dx=self.dx)
        if mass <= 0:
            raise ValueError("density has zero mass")
        object.__setattr__(self, "values", vals / mass)

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)

    @classmethod
    def from_callable(cls, f, lo: float, hi: float, n_points: int) -> "GridDensity":
        xs = np.linspace(lo, hi, n_points)
        return cls(lo, hi, n_points, np.maximum(np.asarray(f(xs), dtype=float), 0.0))


def _check_edges(vals: np.ndarray) -> None:
    """Raise ``GridResolution`` if a row's edge value exceeds ``_EDGE_FRACTION``
    of its peak: the grid then cuts off part of the density."""
    edges = np.maximum(vals[..., 0], vals[..., -1])
    if np.any(edges > _EDGE_FRACTION * vals.max(axis=-1)):
        raise GridResolution("grid underresolves the density: mass at its edge")


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n: a real FFT length pocketfft factors into
    radices 2, 3 and 5 (``scipy.fft.next_fast_len(n, real=True)``)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest p35 * 2^j >= n.
            cand = p35 << (-(-n // p35) - 1).bit_length()
            best = min(best, cand)
            p35 *= 3
        p5 *= 5
    return best


def convolution_powers(row, k_max: int):
    """Yield (k, row^{*k}) for k = 2..k_max, the k-fold self-convolution sums.

    row^{*k}[l] is the sum of row[i_1] * ... * row[i_k] over i_1 + ... + i_k
    = l, on k*(n-1)+1 points: for a density sampled on a uniform grid of
    spacing dx it is dx^(1-k) times the density of a sum of k independent
    draws, on the k-times wider grid.  One ``rfft`` of the row at a 5-smooth
    length, then per level one ``irfft`` of the spectrum's k-th power.  The
    row and every power are clipped at zero.

    Only the row is edge-checked (``GridResolution`` for mass at its edge,
    ``_check_edges``).  A power needs no check of its own: its edge value is
    row[0]^k (row[-1]^k), and its peak is at least max(row)^k, so its edge
    fraction is at most the row's raised to the k-th power, below
    ``_EDGE_FRACTION`` whenever the row's is, up to FFT round-off of about
    1e-16 of the peak.
    """
    row = np.maximum(np.asarray(row, dtype=float), 0.0)
    _check_edges(row)
    n = row.size
    n_fft = _next_fast_len(k_max * (n - 1) + 1)
    spectrum = np.fft.rfft(row, n_fft)
    power = spectrum.copy()
    for k in range(2, k_max + 1):
        power *= spectrum
        yield k, np.maximum(np.fft.irfft(power, n_fft)[:k * (n - 1) + 1], 0.0)


def cumulative_trapezoid(y, dx: float) -> np.ndarray:
    """Running trapezoid integral of ``y`` along its last axis, from 0.

    The formula of ``scipy.integrate.cumulative_trapezoid(y, dx=dx,
    initial=0)``, cumsum(dx * (y[1:] + y[:-1]) / 2) after a leading 0, so the
    sums come out in the same order and give the same bits.
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    np.cumsum(dx * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1, out=out[..., 1:])
    return out


# Evaluations of ``newton_root`` before it raises ``NonConvergent``.
_NEWTON_MAX_EVALS = 100


def newton_root(gd, x0: float, tol: float) -> float:
    """Root of g by safeguarded Newton (``rtsafe``, Press et al., Numerical
    Recipes, 3rd ed., 2007), for a g negative far left and positive far right.

    ``gd(x)`` returns g(x) and g'(x).  From ``x0`` the iterates only move
    towards -sign(g), each point evaluated becoming the lower (g < 0) or
    upper (g > 0) end of the bracket.  Before a sign change a step goes at
    most ``cap`` = max(1, |x0|), doubled at every step; after it, the bracket
    bounds it.  A Newton step x - g/g' outside those limits bisects them.
    Returns the first point evaluated whose Newton step is at most ``tol``:
    a converged start costs one evaluation and comes back bit for bit.
    Raises ``NonConvergent`` for a NaN g or g', or after
    ``_NEWTON_MAX_EVALS`` evaluations.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = float(x0)
    lo, hi = -math.inf, math.inf
    cap = max(1.0, abs(x))
    for _ in range(_NEWTON_MAX_EVALS):
        g, dg = map(float, gd(x))
        if math.isnan(g) or math.isnan(dg):
            raise NonConvergent(f"g({x}) = {g}, g'({x}) = {dg}: NaN")
        if abs(g) <= tol * abs(dg):
            return x
        if g < 0.0:
            lo = x
        else:
            hi = x
        a, b = max(lo, x - cap), min(hi, x + cap)
        cap *= 2.0
        step = x - g / dg if dg != 0.0 else math.nan
        x = step if a < step < b else 0.5 * (a + b)
    raise NonConvergent(f"no root within {_NEWTON_MAX_EVALS} evaluations")
