"""Deterministic 1D numerical kernels.

Adaptive quadrature on the real line with automatic window discovery,
log-domain integration, the chunked log-Laplace reduction behind every
field/grid sum, grid-based density convolution (one pair, or the mixed
k-fold self-convolutions of many rows in one spectral pass) and bracketed
root finding.
Everything here is pure and reentrant.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft
from scipy import integrate as _sciint
from scipy import optimize as _sciopt

from .errors import GridMismatch, GridResolution, NoSignChange, NonConvergent, NonFinite

__all__ = [
    "GridDensity",
    "integrate",
    "log_integrate_exp",
    "log_laplace",
    "convolve",
    "mixed_convolution_powers",
    "find_root",
]

# Direct O(n^2) convolution below this output size, FFT above.
_FFT_THRESHOLD = 1024
# A grid density whose edge value exceeds this fraction of its peak is cut off.
_EDGE_FRACTION = 1e-6


# Adaptive quadrature tolerances and window truncation of integrate and
# log_integrate_exp.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 60
_LOG_TRUNCATION = np.log(1e-12)

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


# Workspace of one chunk of rows in log_laplace and mixed_convolution_powers:
# about 1 MB of float64 values.
_CHUNK_BYTES = 1 << 20


def _chunk_rows(n_nodes: int) -> int:
    """Rows of ``n_nodes`` float64 values that fit in one chunk."""
    return max(1, _CHUNK_BYTES // (8 * n_nodes))


def log_laplace(ts, nodes, log_weights) -> np.ndarray:
    """log sum_j exp(log_weights[j] + t * nodes[j]) for each t in ``ts``.

    ``ts`` may have any shape (0-d included) and the result has the same
    shape.  The (t, node) matrix is never formed whole: rows go through one
    reused buffer of about ``_CHUNK_BYTES``, where the max-shift, exp, sum
    and log run in place.  If every term of a row is -inf the row gives
    -inf.
    """
    ts = np.asarray(ts, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    flat = ts.reshape(-1)
    out = np.empty(flat.shape)
    rows = _chunk_rows(nodes.size)
    buf = np.empty((min(rows, flat.size), nodes.size))
    with np.errstate(divide="ignore"):
        for start in range(0, flat.size, rows):
            t = flat[start:start + rows]
            g = buf[:t.size]
            np.multiply(t[:, None], nodes, out=g)
            g += log_weights
            shift = g.max(axis=1)
            shift[~np.isfinite(shift)] = 0.0
            g -= shift[:, None]
            np.exp(g, out=g)
            np.log(g.sum(axis=1), out=out[start:start + rows])
            out[start:start + rows] += shift
    return out.reshape(ts.shape)


@dataclass(frozen=True)
class GridDensity:
    """A probability density sampled on a uniform grid over [lo, hi]."""

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

    def mean(self) -> float:
        return float(np.trapezoid(self.xs * self.values, dx=self.dx))

    def variance(self) -> float:
        m = self.mean()
        return float(np.trapezoid((self.xs - m) ** 2 * self.values, dx=self.dx))


def convolve(p: GridDensity, q: GridDensity) -> GridDensity:
    """Density of the sum of independent variables with densities p and q."""
    if abs(p.dx - q.dx) > 1e-12 * max(p.dx, q.dx):
        raise GridMismatch(f"grid spacings differ: {p.dx} vs {q.dx}")
    n_out = p.n_points + q.n_points - 1
    if n_out < _FFT_THRESHOLD:
        raw = np.convolve(p.values, q.values)
    else:
        n_fft = _fft.next_fast_len(n_out, real=True)
        raw = _fft.irfft(_fft.rfft(p.values, n_fft) * _fft.rfft(q.values, n_fft),
                         n_fft)[:n_out]
    vals = np.maximum(raw, 0.0) * p.dx
    return GridDensity(p.lo + q.lo, p.hi + q.hi, n_out, vals)


def _row_masses(vals: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid mass of each row of ``vals`` (non-negative densities).

    The rows must be C-contiguous: then each row's sum runs in the same order
    as ``GridDensity``'s on a 1D array.  Raises ``GridResolution`` if a row's
    edge value exceeds ``_EDGE_FRACTION`` of its peak (the grid then cuts off
    part of the density), and ``ValueError`` if a row has no mass.
    """
    edges = np.maximum(vals[:, 0], vals[:, -1])
    if np.any(edges > _EDGE_FRACTION * vals.max(axis=1)):
        raise GridResolution("grid underresolves the density: mass at its edge")
    mass = np.trapezoid(vals, dx=dx, axis=1)
    if not np.all(mass > 0.0):
        raise ValueError("density has zero mass")
    return mass


def mixed_convolution_powers(rows, dx: float, weights, k_max: int) -> list:
    """p_k = sum_j weights[j] * rho_j^{*k} for k = 1..k_max.

    ``rows`` is a (nodes, n) array of densities rho_j on one uniform grid of
    spacing ``dx``; rho_j^{*k}, the density of a sum of k independent draws
    from rho_j, lives on the k-times wider grid with k*(n-1)+1 points and
    the same spacing.  Every rho_j and rho_j^{*k} is clipped at zero, checked
    for mass at its grid edge (``GridResolution``) and scaled to unit
    trapezoid mass before it is mixed; that scaling also absorbs the Riemann
    factor dx^(k-1) of the convolution sum.

    p_1 is ``weights @ rows`` after scaling, as ``GridDensity`` rows would
    give it.  For k >= 2 the scaled rows go through the FFT in chunks of
    ``_chunk_rows(n_fft)`` rows, so the workspace stays near ``_CHUNK_BYTES``
    whatever the node count: one ``rfft`` per chunk, then per level one
    ``irfft`` of the spectrum's k-th power.  Each row's own spectrum is
    raised to the power; nothing is tilted in Fourier space.  Returns the
    list [p_1, ..., p_kmax].
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
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


def find_root(g, bracket, tol: float) -> float:
    """Root of ``g`` on a sign-changing bracket (Brent: bisection + secant/IQI)."""
    a, b = bracket
    ga, gb = float(g(a)), float(g(b))
    if ga == 0.0:
        return float(a)
    if gb == 0.0:
        return float(b)
    if np.sign(ga) == np.sign(gb):
        raise NoSignChange(f"g({a})={ga} and g({b})={gb} have the same sign")
    return float(_sciopt.brentq(g, a, b, xtol=tol))
