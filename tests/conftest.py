import numpy as np
import pytest

from chaoslab.bounds import curie_weiss_constants
from chaoslab.meanfield import LogPartition, critical_coupling, tilted_measure
from chaoslab.model import (GeneralPotential, ModelSpec, RankOneInteraction,
                            curie_weiss_model, gaussian_model)

# Frozen regression constants, all produced by independent oracles
# (composite Simpson with 1e6+1 points on [-10, 10] unless noted) and
# cross-checked before freezing.
QUARTIC_NORM = 2.563693352040848          # int exp(-x^4/4)
LOG_QUARTIC_GAUSS = 0.6602353898558172    # log int exp(-x^4/4 - x^2/2)
X2_MOMENT = 0.4679199169736652            # <x^2> for theta=1, sigma=1, tilt 0
J_CRIT = 2.1371178351792204               # 1 / X2_MOMENT
F_AT_1 = 0.47684226501271426              # f(1) at J = 0.5 * J_CRIT
TANH_ROOT = 0.9575040240772688            # root of tanh(2x) = x (brentq oracle)
H_STAR_SUPER = 1.3145644300027486         # h = f(h) root at J = 1.5 * J_CRIT
GAUSS_JOINT_KL = 0.15342640972002736      # 4x4 matrix oracle, N=4, J=0.5, k=4
N2_KL_LIMIT_SAMPLE = 0.24983735869955126  # N^2 * KL(k=1) at N = 2^10
W2_N32 = 0.007580132839907034             # W2(m^{32,1}, m_*) at J = 0.5 * J_CRIT


def counting_quartic(coupling):
    """The quartic theta = sigma = 1 model as a GeneralPotential, and the list
    of the sizes of the arrays its V is evaluated on."""
    sizes = []

    def v(x):
        sizes.append(np.size(x))
        return x**4 / 4 + x**2 / 2

    return ModelSpec(GeneralPotential(v=v, grad_v=lambda x: x**3 + x),
                     RankOneInteraction(coupling)), sizes


@pytest.fixture(scope="session")
def quartic_model():
    """Sub-critical quartic model at half the critical coupling."""
    return curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT)


def critical_coupling_of(model):
    """J_c of ``model``, read off its pi[0]."""
    return critical_coupling(tilted_measure(model, 0.0))


def constants_of(model, N):
    """The Curie-Weiss bundle of ``model`` at N, read off a kernel's pi[0]."""
    return curie_weiss_constants(LogPartition(model).reference, N)


@pytest.fixture(scope="session")
def quartic_jc(quartic_model):
    return critical_coupling_of(quartic_model)


@pytest.fixture(scope="session")
def gauss_model():
    return gaussian_model(1.0, 0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
