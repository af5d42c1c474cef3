"""Model zoo: confinement and interaction potentials.

Potential handles are expected to be numpy-vectorized (accept arrays).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "MAX_PARTICLES",
    "QuarticConfinement",
    "RankOneInteraction",
    "GeneralPotential",
    "GeneralKernel",
    "ModelSpec",
    "curie_weiss_model",
    "gaussian_model",
    "gibbs_target",
]

# Largest particle count N of the exact quantities (mixture, entropy levels,
# log-MGF), the range the acceptance tests gate.  Above it the levels drift
# with no typed error: N^2 H_1 of curie_weiss_model(1, 1, 1) is 0.138255 at
# 2^20, 0.138343 at 2^24, 0.1587 at 2^26 and 5.11 at 2^28.
MAX_PARTICLES = 2**20


@dataclass(frozen=True)
class QuarticConfinement:
    """V(x) = theta/4 x^4 + sigma/2 x^2."""

    theta: float
    sigma: float

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        if self.theta == 0 and self.sigma <= 0:
            raise ValueError("theta = 0 requires sigma > 0 (Gaussian oracle model)")

    # Horner forms in x2 = x*x: no libm pow, and with theta = 0 they are
    # bitwise sigma/2 x^2 and sigma x.
    def v(self, x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        return x2 * (self.theta / 4.0 * x2 + self.sigma / 2.0)

    def grad_v(self, x):
        x = np.asarray(x, dtype=float)
        return x * (self.theta * (x * x) + self.sigma)


@dataclass(frozen=True)
class RankOneInteraction:
    """W(x, y) = -J x y."""

    J: float

    def w(self, x, y):
        return -self.J * np.asarray(x, dtype=float) * np.asarray(y, dtype=float)

    def grad1_w(self, x, y):
        return -self.J * np.asarray(y, dtype=float) * np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class GeneralPotential:
    """A confinement V given by its values ``v`` and its derivative
    ``grad_v``, both elementwise on arrays."""

    v: Callable[[np.ndarray], np.ndarray]
    grad_v: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GeneralKernel:
    """An interaction W(x, y) and its first-argument gradient.

    W must be symmetric, W(x, y) = W(y, x): only then is the sampler's
    interaction drift -(1/N) sum_j grad1 W(x_i, x_j) the gradient of the
    Gibbs exponent's interaction part.
    """

    w: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad1_w: Callable[[np.ndarray, np.ndarray], np.ndarray]


Confinement = Union[QuarticConfinement, GeneralPotential]
Interaction = Union[RankOneInteraction, GeneralKernel]


@dataclass(frozen=True)
class ModelSpec:
    """A mean-field model: the confinement V and the interaction W, nothing else."""

    confinement: Confinement
    interaction: Interaction

    @property
    def is_rank_one(self) -> bool:
        return isinstance(self.interaction, RankOneInteraction)

    @property
    def is_quartic(self) -> bool:
        return isinstance(self.confinement, QuarticConfinement)

    @property
    def is_gaussian(self) -> bool:
        """True for the closed-form oracle family (theta = 0, sigma > 0)."""
        return self.is_quartic and self.confinement.theta == 0.0

    @property
    def coupling(self) -> float:
        if not self.is_rank_one:
            raise TypeError("coupling is defined for rank-one interactions only")
        return self.interaction.J

    def potential(self, x):
        return self.confinement.v(x)

    def grad_potential(self, x):
        return self.confinement.grad_v(x)

    def kernel(self, x, y):
        return self.interaction.w(x, y)

    def kernel_force(self, x, y):
        return self.interaction.grad1_w(x, y)

    def fingerprint(self) -> str | None:
        """Stable hash of the model parameters, or None for a model that is
        not quartic rank-one: a general handle is a function, which has no
        value to hash that stays the same from one process to the next."""
        if not (self.is_quartic and self.is_rank_one):
            return None
        payload = {
            "family": "quartic-rank-one",
            "theta": self.confinement.theta,
            "sigma": self.confinement.sigma,
            "J": self.interaction.J,
            "d": 1,  # models are one-dimensional; kept so fingerprints stay put
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def curie_weiss_model(theta: float, sigma: float, J: float) -> ModelSpec:
    """Quartic confinement with rank-one coupling."""
    if theta <= 0:
        raise ValueError("Curie-Weiss model requires theta > 0")
    return ModelSpec(QuarticConfinement(theta, sigma), RankOneInteraction(J))


def gaussian_model(sigma: float, J: float) -> ModelSpec:
    """Pure Gaussian oracle model: theta = 0, closed forms available downstream."""
    return ModelSpec(QuarticConfinement(0.0, sigma), RankOneInteraction(J))


def gibbs_target(model: ModelSpec, n: int, step_size: float):
    """y -> (log p(y), y + eps grad log p(y)) for a float array y of n
    particles and eps = ``step_size``: the Gibbs exponent
    log p = -sum_i V(y_i) - (1/2n) sum_{i,j} W(y_i, y_j) and the mean of
    the Langevin proposal from y.  Built once, called many times; the one
    place that splits the exponent by model family.

    A quartic rank-one model with theta > 0 makes one pass over y: with
    y2 = y*y and s = y.1, the mean is y (alpha - beta y2) + eps J s / n,
    alpha = 1 - eps sigma and beta = eps theta, and
    log p = J s^2 / 2n - (theta/4 y2.y2 + sigma/2 y.y).  A sum of V that
    is not finite is recomputed from the terms of ``v``: y2.y2 overflows
    before theta/4 y^4 does, and inf - inf would be NaN where ``v``
    gives inf.

    Every other model forms grad log p and then the mean eps*grad + y.  A
    rank-one W adds the field J s^2 / 2n and J s / n to -sum V, from
    ``potential``, and -grad V, from ``grad_potential``; any other W
    forms the n x n matrices of ``kernel`` and ``kernel_force``.  The
    exponent is a Python float and the mean a fresh array: the one
    ``grad_potential`` returns is never written to, because a general
    handle may return its argument or an array it keeps.
    """
    if n < 1:
        raise ValueError("the Gibbs measure needs at least one particle")
    if model.is_rank_one and model.is_quartic and not model.is_gaussian:
        conf, j = model.confinement, model.coupling
        quarter_theta, half_sigma = conf.theta / 4.0, conf.sigma / 2.0
        alpha = np.array(1.0 - step_size * conf.sigma)
        neg_beta = np.array(-step_size * conf.theta)
        field, half_j = step_size * j / n, j / (2.0 * n)
        ones = np.ones(n)
        isfinite = math.isfinite

        def quartic_target(y):
            y2 = y * y
            s = float(y.dot(ones))
            sum_v = quarter_theta * float(y2.dot(y2)) + half_sigma * float(y.dot(y))
            if not isfinite(sum_v):
                sum_v = float(np.add.reduce(conf.v(y)))
            y2 *= neg_beta
            y2 += alpha
            y2 *= y
            y2 += field * s
            return half_j * s * s - sum_v, y2

        return quartic_target
    add_reduce = np.add.reduce
    eps = np.array(step_size)  # a ufunc takes a 0-d array faster than a float
    if model.is_rank_one:
        j = model.coupling

        def log_target(x):
            s = float(add_reduce(x))
            return (j * s * s / (2.0 * n) - float(add_reduce(model.potential(x))),
                    j * s / n - model.grad_potential(x))
    else:
        def log_target(x):
            v, gv = model.potential(x), model.grad_potential(x)
            wmat = model.kernel(x[:, None], x[None, :])
            logp = (-float(add_reduce(v))
                    - float(add_reduce(wmat, axis=None)) / (2.0 * n))
            grad = add_reduce(model.kernel_force(x[:, None], x[None, :]), axis=1) / n
            grad += gv
            return logp, np.negative(grad, out=grad)

    def target(x):
        logp, mean = log_target(x)
        mean *= eps
        mean += x
        return logp, mean

    return target

