"""Independent brute-force oracles used by the marginal and verify tests.

Everything here works from the raw N-particle Gibbs definition by tensor
quadrature or nested adaptive quadrature, with no reference to the
mixture representation or the log-partition kernel under test.
"""
import numpy as np
from scipy.integrate import simpson

from chaoslab.numerics import log_integrate_exp


def brute_marginal_log_density_n2(model, points, lo=-8.0, hi=8.0, n=2001):
    """log m^{2,k} for k = 1 or 2 via direct 2D tensor quadrature."""
    J = model.coupling
    xs = np.linspace(lo, hi, n)
    ex = np.exp(-model.potential(xs))
    # Z_2 = int int exp(-V1 - V2 + J (x1+x2)^2 / 4)
    mat = np.exp(J * (xs[:, None] + xs[None, :]) ** 2 / 4.0)
    inner = simpson(ex[None, :] * mat, x=xs, axis=1)
    z2 = simpson(ex * inner, x=xs)
    out = []
    for pt in np.atleast_2d(points):
        if len(pt) == 1:
            x1 = pt[0]
            row = np.exp(-model.potential(xs) + J * (x1 + xs) ** 2 / 4.0)
            val = np.exp(-model.potential(np.array([x1]))[0]) * simpson(row, x=xs)
        else:
            x1, x2 = pt
            val = np.exp(-model.potential(np.array([x1]))[0]
                         - model.potential(np.array([x2]))[0]
                         + J * (x1 + x2) ** 2 / 4.0)
        out.append(np.log(val) - np.log(z2))
    return np.array(out)


def brute_marginal_log_density_n3(model, points, lo=-8.0, hi=8.0, n=801):
    """log m^{3,k} for k = 1 or 2 via direct 3D tensor quadrature.

    The x1 direction is looped to keep memory at one (n, n) slice.
    """
    J = model.coupling
    xs = np.linspace(lo, hi, n)
    v = model.potential(xs)
    pair = xs[:, None] + xs[None, :]
    slice_z = np.empty(n)
    for i, x1 in enumerate(xs):
        mat = np.exp(-v[:, None] - v[None, :] + J * (x1 + pair) ** 2 / 6.0)
        slice_z[i] = simpson(simpson(mat, x=xs, axis=1), x=xs)
    z3 = simpson(np.exp(-v) * slice_z, x=xs)

    out = []
    for pt in np.atleast_2d(points):
        if len(pt) == 1:
            x1 = pt[0]
            mat = np.exp(-v[:, None] - v[None, :] + J * (x1 + pair) ** 2 / 6.0)
            val = np.exp(-model.potential(np.array([x1]))[0]) * simpson(
                simpson(mat, x=xs, axis=1), x=xs)
        else:
            x1, x2 = pt
            row = np.exp(-v + J * (x1 + x2 + xs) ** 2 / 6.0)
            val = np.exp(-model.potential(np.array([x1]))[0]
                         - model.potential(np.array([x2]))[0]) * simpson(row, x=xs)
        out.append(np.log(val) - np.log(z3))
    return np.array(out)


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
