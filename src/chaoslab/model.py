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

    def fused_v_and_grad_v(self):
        """The function x -> (sum_i V(x_i), grad V(x)) of a float array x,
        built once to be called many times; it forms x*x once.

        The gradient is bitwise ``grad_v(x)``.  The sum is two dot products,
        (theta x^2).x^2 / 4 + sigma/2 x.x; it differs from
        ``np.add.reduce(v(x))`` by a few ulp of sum_i |theta/4 x_i^4| +
        |sigma/2 x_i^2|.
        theta x^2 is exactly 0 for theta = 0 wherever x^2 is finite, so
        theta = 0 stays sigma/2 x.x, never 0 * inf.  A sum that is not
        finite is recomputed from the terms of ``v``: theta x^4 overflows
        before theta/4 x^4 does, and inf - inf would be NaN where ``v``
        gives inf.  The coefficients are 0-d arrays, which a ufunc takes
        faster than Python floats.
        """
        theta, sigma = np.array(self.theta), np.array(self.sigma)
        half_sigma = 0.5 * self.sigma
        isfinite = math.isfinite

        def sum_v_and_grad_v(x):
            x2 = x * x
            grad = x2 * theta
            total = 0.25 * float(grad.dot(x2)) + half_sigma * float(x.dot(x))
            grad += sigma
            grad *= x
            if not isfinite(total):
                total = float(np.add.reduce(self.v(x)))
            return total, grad

        return sum_v_and_grad_v


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


def gibbs_target(model: ModelSpec, n: int):
    """x -> (log p(x), grad log p(x)) for a float array x of n particles,
    log p = -sum_i V(x_i) - (1/2n) sum_{i,j} W(x_i, x_j); built once, called
    many times.  The one place that splits the exponent by model family.

    A rank-one W adds the field J s^2 / 2n and J s / n, s = sum_i x_i, to
    -sum V and -grad V, which a quartic V takes from one x*x
    (``fused_v_and_grad_v``) and any other V from ``potential`` and then
    ``grad_potential``.  Any other W forms the n x n matrices of ``kernel``
    and ``kernel_force``.  The exponent is a Python float and the gradient
    a fresh array: the one ``grad_potential`` returns is never written to,
    because a general handle may return its argument or an array it keeps.
    """
    if n < 1:
        raise ValueError("the Gibbs measure needs at least one particle")
    add_reduce = np.add.reduce
    if not model.is_rank_one:
        def kernel_target(x):
            v, gv = model.potential(x), model.grad_potential(x)
            wmat = model.kernel(x[:, None], x[None, :])
            logp = (-float(add_reduce(v))
                    - float(add_reduce(wmat, axis=None)) / (2.0 * n))
            grad = add_reduce(model.kernel_force(x[:, None], x[None, :]), axis=1) / n
            grad += gv
            return logp, np.negative(grad, out=grad)

        return kernel_target
    if model.is_quartic:
        sum_v_and_grad_v = model.confinement.fused_v_and_grad_v()
    else:
        def sum_v_and_grad_v(x):
            return float(add_reduce(model.potential(x))), model.grad_potential(x)
    j = model.coupling

    def rank_one_target(x):
        sum_v, grad_v = sum_v_and_grad_v(x)
        s = float(add_reduce(x))
        return j * s * s / (2.0 * n) - sum_v, j * s / n - grad_v

    return rank_one_target

