import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

import chaoslab
from chaoslab import sampler
from chaoslab.errors import DivergentChain, NonFinite
from chaoslab.marginals import build_mixture, marginal_moment
from chaoslab.model import (MAX_PARTICLES, GeneralPotential, ModelSpec,
                            QuarticConfinement, RankOneInteraction, curie_weiss_model,
                            gaussian_model, gibbs_target)
from chaoslab.numerics import _chunk_rows
from chaoslab.sampler import ChainConfig, SampleBatch, load_batch, run_chain
from conftest import J_CRIT
from oracles import (_reference_log_target_and_grad, reference_run_chain,
                     regularized_coulomb_kernel, save_batch)

WALL = 1.5


def _walled_model(where):
    """x^2/2 inside |x| <= WALL; outside, V (where="v") or V' (where="grad") is
    inf, or V is -inf (where="-v"), which makes log p +inf."""
    def v(x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * x * x
        if where == "grad":
            return out
        return np.where(np.abs(x) > WALL, np.inf if where == "v" else -np.inf, out)

    def grad_v(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > WALL, np.inf, x) if where == "grad" else x

    return ModelSpec(GeneralPotential(v=v, grad_v=grad_v), RankOneInteraction(0.5))


@pytest.fixture(scope="module")
def short_batch(quartic_model):
    cfg = ChainConfig(n_particles=32, step_size=0.12, n_steps=60_000,
                      burn_in=10_000, seed=42)
    return run_chain(quartic_model, cfg)


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(4, 0.0, 100)
        with pytest.raises(ValueError):
            ChainConfig(4, 0.1, 100, burn_in=100)
        with pytest.raises(ValueError):
            ChainConfig(4, 0.1, 100, thinning=0)
        with pytest.raises(ValueError):
            ChainConfig(4, 0.1, 100, algorithm="hmc")

    def test_n_kept(self):
        cfg = ChainConfig(4, 0.1, 1000, burn_in=200, thinning=4)
        assert cfg.n_kept == 200

    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_size(self, step):
        with pytest.raises(ValueError, match="^step_size"):
            ChainConfig(4, step, 100)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="^seed"):
            ChainConfig(4, 0.1, 100, seed=-1)

    def test_n_particles_above_max_particles(self):
        # Only the config is built: a chain this size is never run.
        assert ChainConfig(MAX_PARTICLES, 0.1, 100).n_particles == MAX_PARTICLES
        with pytest.raises(ValueError, match="^n_particles"):
            ChainConfig(MAX_PARTICLES + 1, 0.1, 100)

    def test_thinning_that_does_not_divide_the_kept_steps(self, quartic_model):
        # Steps 0, 3, 6 are kept; step 9 would overrun the n_kept rows.
        cfg = ChainConfig(2, 0.1, 10, thinning=3, seed=3)
        assert run_chain(quartic_model, cfg).draws.shape == (cfg.n_kept, 2) == (3, 2)


    def test_thinning_that_keeps_no_draws(self):
        with pytest.raises(ValueError, match="^thinning 50 keeps no draws"):
            ChainConfig(4, 0.1, 20, thinning=50)


class TestRunChain:
    def test_seed_determinism(self, quartic_model):
        cfg = ChainConfig(8, 0.2, 2000, burn_in=100, seed=17)
        a = run_chain(quartic_model, cfg)
        b = run_chain(quartic_model, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_mean_near_zero(self, short_batch):
        means = short_batch.draws.mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(_ess(means))
        assert abs(means.mean()) <= 3 * se

    def test_variance_matches_exact_marginal(self, quartic_model, short_batch):
        law = build_mixture(quartic_model, 32)
        exact = marginal_moment(law, 2)
        x2 = (short_batch.draws**2).mean(axis=1)
        se = x2.std(ddof=1) / np.sqrt(_ess(x2))
        assert abs(x2.mean() - exact) <= 3 * se

    def test_exchangeability_ks(self, short_batch):
        a = short_batch.draws[::5, 3]
        b = short_batch.draws[::5, 27]
        stat = ks_2samp(a, b).statistic
        crit = 1.63 * np.sqrt(2 / len(a))  # 1% critical value
        assert stat < crit

    def test_gaussian_covariance(self, gauss_model):
        cfg = ChainConfig(4, 0.3, 120_000, burn_in=20_000, seed=5)
        batch = run_chain(gauss_model, cfg)
        n = 4
        target = np.linalg.inv(np.eye(n) - (0.5 / n) * np.ones((n, n)))
        emp = np.cov(batch.draws.T)
        # Conservative MC tolerance for autocorrelated draws.
        assert np.max(np.abs(emp - target)) < 0.1

    def test_ula_runs_without_acceptance(self, quartic_model):
        cfg = ChainConfig(8, 0.05, 2000, burn_in=100, algorithm="ula", seed=2)
        batch = run_chain(quartic_model, cfg)
        assert batch.acceptance_rate is None
        assert batch.draws.shape == (1900, 8)


_COULOMB = ModelSpec(QuarticConfinement(1.0, 1.0), regularized_coulomb_kernel(0.1))


class TestAgainstReferenceLoop:
    """run_chain against ``reference_run_chain`` on the same Philox streams.

    The cached proposal mean, the rearranged acceptance ratio and the block
    draws move the draws only at round-off, so every accept/reject decision
    must be the same.  The reference draws one uniform per MALA step, so
    the walled cases, whose proposals are often non-finite (more than 2000
    of the 3000), check that uniform t stays with step t across rejected
    non-finite proposals.
    """

    @pytest.mark.parametrize("model, cfg", [
        pytest.param(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                     ChainConfig(3, 0.3, 4000, burn_in=500, seed=1), id="quartic-n3"),
        pytest.param(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                     ChainConfig(32, 0.12, 4000, burn_in=500, thinning=5, seed=2),
                     id="quartic-n32"),
        pytest.param(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                     ChainConfig(512, 0.04, 1500, burn_in=200, seed=3), id="quartic-n512"),
        pytest.param(gaussian_model(1.0, 0.5),
                     ChainConfig(32, 0.3, 4000, burn_in=500, seed=4), id="gaussian"),
        pytest.param(_COULOMB, ChainConfig(16, 0.1, 1500, burn_in=200, seed=5),
                     id="coulomb-kernel"),
        pytest.param(curie_weiss_model(1.0, -1.0, 0.5),
                     ChainConfig(32, 0.05, 3000, burn_in=500, seed=6, algorithm="ula"),
                     id="quartic-ula"),
        pytest.param(_walled_model("v"), ChainConfig(8, 0.5, 3000, burn_in=100, seed=7),
                     id="infinite-potential"),
        pytest.param(_walled_model("grad"), ChainConfig(8, 0.5, 3000, burn_in=100, seed=8),
                     id="infinite-gradient"),
    ])
    def test_same_chain(self, model, cfg):
        new = run_chain(model, cfg)
        ref = reference_run_chain(model, cfg)
        assert new.acceptance_rate == ref.acceptance_rate
        assert new.draws.shape == ref.draws.shape
        assert np.max(np.abs(new.draws - ref.draws)) <= 1e-12


class TestStreamPins:
    """sha256 of the draws (little-endian float64) of short versions of the
    benchmark's two chains, a Gaussian chain, a ULA chain and a general-kernel
    chain, all at seed 1.

    They pin what a seed reproduces: the draws to the bit, not only to the
    1e-12 of ``TestAgainstReferenceLoop``.  The MALA digests and rates were
    recomputed when the accept uniforms moved to their own stream (the key
    jumped), one per step whether or not the proposal is finite, where they
    had been drawn from the noise stream after each finite proposal's
    noise.  The three quartic digests were recomputed again, with their
    rates unchanged, when the quartic target began to form the proposal
    mean y (alpha - beta y^2) + eps J s / n itself: their draws moved by
    at most 8.9e-16.  The Gaussian digest was recomputed, with its rate
    unchanged, when the Gaussian (theta = 0) took that same quartic pass:
    its draws moved by at most 1.3e-15.  The Coulomb chain forms the mean
    as eps grad + y, as before, and keeps its digest.
    """

    @pytest.mark.parametrize("model, cfg, digest, rate", [
        pytest.param(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                     ChainConfig(32, 0.12, 4000, burn_in=500, seed=1),
                     "1ef0be2f9da75e409d6e12f66b061b0532b404c7b876fe4ea8cea3a739d1c43e",
                     0.5885, id="quartic-n32"),
        pytest.param(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                     ChainConfig(512, 0.04, 2000, burn_in=200, seed=1),
                     "615d8e7678b059ae87e235382e82e488954003a0e09f8b265d3588f4a63416c0",
                     0.606, id="quartic-n512"),
        pytest.param(gaussian_model(1.0, 0.5),
                     ChainConfig(32, 0.3, 4000, burn_in=500, seed=1),
                     "a96de71fdab8875e74d117d21fa792cd00da13da3f1e5abedd866cd0f8214905",
                     0.757, id="gaussian-n32"),
        pytest.param(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                     ChainConfig(32, 0.05, 3000, burn_in=500, seed=1, algorithm="ula"),
                     "c9077a3d35d3e9d6db413faf417be44561dd68f8ac582aebbf60af0b71f27dcd",
                     None, id="quartic-ula-n32"),
        pytest.param(_COULOMB, ChainConfig(16, 0.1, 1500, burn_in=200, seed=1),
                     "988da21574542300017baeb04ee48e724b993c9c27bed057597cb2469ac666b9",
                     1096 / 1500, id="coulomb-n16"),
    ])
    def test_draws_are_pinned(self, model, cfg, digest, rate):
        batch = run_chain(model, cfg)
        raw = np.ascontiguousarray(batch.draws, dtype="<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest
        assert batch.acceptance_rate == rate


class TestTarget:
    """``gibbs_target`` against the chain's oracle: the log-density of
    ``oracles._reference_log_target_and_grad`` and the proposal mean
    y + eps grad from its gradient.  A quartic rank-one model, the Gaussian
    included, forms both in one pass: its log-density is within a few ulp
    of its terms and its mean within a few ulp of
    |y| + eps |y| (theta y^2 + |sigma|) + eps J sum |y| / n in each entry.
    Every other model evaluates the oracle's expressions and then
    eps*grad + y: both outputs are bitwise."""

    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                                       curie_weiss_model(1.0, -1.0, 0.5),
                                       gaussian_model(1.0, 0.5)],
                             ids=["quartic", "double-well", "gaussian"])
    @pytest.mark.parametrize("n", [1, 32, 512])
    @pytest.mark.parametrize("eps", [1e-3, 0.12, 0.5])
    def test_quartic_matches_reference(self, model, n, eps, rng):
        target = gibbs_target(model, n, eps)
        theta, sigma, j = model.confinement.theta, abs(model.confinement.sigma), model.coupling
        for scale in (0.1, 1.0, 5.0):
            y = scale * rng.normal(size=n)
            logp, mean = target(y)
            ref_logp, ref_grad = _reference_log_target_and_grad(model, y)
            x2, abs_y = y * y, np.abs(y)
            terms = (float(np.add.reduce(x2 * x2)) + float(np.add.reduce(x2))
                     + j * float(np.add.reduce(y)) ** 2 / n)
            assert abs(logp - ref_logp) <= 8 * np.spacing(terms)
            bound = 8 * np.spacing(abs_y + eps * abs_y * (theta * x2 + sigma)
                                   + eps * j * float(np.add.reduce(abs_y)) / n)
            assert np.all(np.abs(mean - (y + eps * ref_grad)) <= bound)

    @pytest.mark.parametrize("model", [
        _COULOMB,
        ModelSpec(GeneralPotential(v=np.cosh, grad_v=np.sinh), RankOneInteraction(0.7)),
    ], ids=["coulomb-kernel", "general-rank-one"])
    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_other_models_are_bitwise(self, model, n, rng):
        eps = 0.12
        target = gibbs_target(model, n, eps)
        for scale in (0.1, 1.0, 5.0):
            y = scale * rng.normal(size=n)
            logp, mean = target(y)
            ref_logp, ref_grad = _reference_log_target_and_grad(model, y)
            assert type(logp) is float
            assert np.float64(logp).tobytes() == np.float64(ref_logp).tobytes()
            assert mean.tobytes() == (eps * ref_grad + y).tobytes()

    def test_gaussian_far_out_is_finite(self):
        # y^4 overflows at |y| = 1e100 but y^2 does not: the theta = 0 target
        # is finite there, as -sum V from the terms of v is, and its mean is
        # within the 8 ulp of test_quartic_matches_reference.
        model, eps = gaussian_model(1.0, 0.5), 0.12
        y = np.full(32, 1e100)
        with np.errstate(over="ignore"):  # y2.y2 overflows, as it should
            logp, mean = gibbs_target(model, 32, eps)(y)
        ref_logp, ref_grad = _reference_log_target_and_grad(model, y)
        assert logp == pytest.approx(ref_logp, rel=1e-15)
        assert logp == pytest.approx(-8e200, rel=1e-15)
        abs_y = np.abs(y)
        bound = 8 * np.spacing(abs_y + eps * abs_y * model.confinement.sigma
                               + eps * model.coupling * float(np.add.reduce(abs_y)) / 32)
        assert np.all(np.abs(mean - (y + eps * ref_grad)) <= bound)


class TestErrorPaths:
    def test_non_finite_initial_state(self):
        model = ModelSpec(GeneralPotential(v=lambda x: np.full(np.shape(x), np.nan),
                                           grad_v=lambda x: np.zeros(np.shape(x))),
                          RankOneInteraction(0.5))
        with pytest.raises(NonFinite, match="initial state"):
            run_chain(model, ChainConfig(4, 0.1, 10))

    @pytest.mark.parametrize("where", ["v", "grad", "-v"])
    def test_mala_never_accepts_a_non_finite_proposal(self, where):
        batch = run_chain(_walled_model(where), ChainConfig(8, 0.5, 5000, seed=9))
        assert 0.0 < batch.acceptance_rate < 1.0
        assert np.all(np.isfinite(batch.draws))
        assert np.max(np.abs(batch.draws)) <= WALL
        # The wall is reached: without it the chain would leave |x| <= 1.5.
        assert np.max(np.abs(batch.draws)) > 0.5 * WALL

    @pytest.mark.parametrize("where", ["v", "grad"])
    def test_ula_raises_when_it_leaves_the_finite_region(self, where):
        # An infinite V' gives an infinite proposal mean: ULA raises at the
        # step where the reference loop finds the gradient not finite, step
        # 43 of this chain.
        cfg = ChainConfig(8, 0.01, 5000, algorithm="ula", seed=9)
        with pytest.raises(NonFinite, match="ULA left") as ref:
            reference_run_chain(_walled_model(where), cfg)
        with pytest.raises(NonFinite, match="ULA left") as got:
            run_chain(_walled_model(where), cfg)
        assert str(got.value) == str(ref.value)

    def test_energy_ceiling_raises_divergent_chain(self):
        # V shifted by 1e11 puts the energy of 32 particles above the
        # ceiling of 1e10 at every state.
        shifted = ModelSpec(GeneralPotential(v=lambda x: x**4 / 4 + x**2 / 2 + 1e11,
                                             grad_v=lambda x: x**3 + x),
                            RankOneInteraction(0.5))
        cfg = ChainConfig(32, 0.12, 5000, seed=1)
        with pytest.raises(DivergentChain, match="exceeded ceiling"):
            run_chain(shifted, cfg)


def _failing_model(after, value):
    """x^2/2, until V has been called ``after`` times; then every V is ``value``."""
    calls = []

    def v(x):
        calls.append(None)
        x = np.asarray(x, dtype=float)
        return np.full_like(x, value) if len(calls) > after else 0.5 * x * x

    return ModelSpec(GeneralPotential(v=v, grad_v=lambda x: np.asarray(x, dtype=float)),
                     RankOneInteraction(0.5))


_QUARTIC = curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT)


class TestStreamedChain:
    """``run_chain(model, cfg, path)`` against ``save_batch(run_chain(model, cfg))``."""

    @pytest.mark.parametrize("model, cfg", [
        # The TestStreamPins chains: one partial buffer (n <= 32), and seven
        # full buffers of 256 rows and one of 8 (n = 512).
        pytest.param(_QUARTIC, ChainConfig(32, 0.12, 4000, burn_in=500, seed=1),
                     id="quartic-n32"),
        pytest.param(_QUARTIC, ChainConfig(512, 0.04, 2000, burn_in=200, seed=1),
                     id="quartic-n512"),
        pytest.param(gaussian_model(1.0, 0.5),
                     ChainConfig(32, 0.3, 4000, burn_in=500, seed=1), id="gaussian-n32"),
        pytest.param(_QUARTIC, ChainConfig(32, 0.05, 3000, burn_in=500, seed=1,
                                           algorithm="ula"), id="quartic-ula-n32"),
        pytest.param(_COULOMB, ChainConfig(16, 0.1, 1500, burn_in=200, seed=1),
                     id="coulomb-n16"),
        # Thinned: 1833 draws, three full buffers of 512 rows and one of 297.
        pytest.param(_QUARTIC, ChainConfig(256, 0.05, 6000, burn_in=500, thinning=3,
                                           seed=2), id="thinned-n256"),
        # Exactly two full buffers, no partial one.
        pytest.param(_QUARTIC, ChainConfig(512, 0.04, 612, burn_in=100, seed=3),
                     id="whole-buffers-n512"),
    ])
    def test_streamed_file_equals_saved_batch(self, model, cfg, tmp_path):
        saved, streamed = tmp_path / "saved.bin", tmp_path / "streamed.bin"
        save_batch(run_chain(model, cfg), cfg, saved)
        batch = run_chain(model, cfg, streamed)
        assert streamed.read_bytes() == saved.read_bytes()
        assert (streamed.with_name("streamed.bin.json").read_bytes()
                == saved.with_name("saved.bin.json").read_bytes())
        assert batch.draws.shape == (cfg.n_kept, cfg.n_particles)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "saved.bin", "saved.bin.json", "streamed.bin", "streamed.bin.json"]

    def test_buffer_sizes_of_the_cases(self):
        assert _chunk_rows(32) > 3500 and _chunk_rows(16) > 1300
        assert _chunk_rows(512) == 256 and _chunk_rows(256) == 512

    @pytest.mark.parametrize("value, algorithm, error", [
        (np.nan, "ula", NonFinite),
        (1e11, "ula", DivergentChain),
    ], ids=["non-finite", "divergent"])
    @pytest.mark.parametrize("existing", [None, b"an older file"], ids=["new", "existing"])
    def test_failed_chain_leaves_no_file(self, value, algorithm, error, existing,
                                         tmp_path):
        # The chain fails at step 1000, after three full buffers of 256 rows.
        path = tmp_path / "samples.bin"
        if existing is not None:
            path.write_bytes(existing)
        cfg = ChainConfig(512, 0.05, 2000, seed=1, algorithm=algorithm)
        with pytest.raises(error):
            run_chain(_failing_model(1000, value), cfg, path)
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_bytes() == existing

    def test_save_over_the_loaded_file(self, quartic_model, tmp_path):
        cfg = ChainConfig(512, 0.04, 1000, burn_in=100, seed=5)
        path = tmp_path / "samples.bin"
        run_chain(quartic_model, cfg, path)
        raw = path.read_bytes()
        loaded = load_batch(path)
        save_batch(loaded, cfg, path)
        assert path.read_bytes() == raw
        assert loaded.draws.tobytes() == raw[16:]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "samples.bin", "samples.bin.json"]

    def test_loaded_draws_are_a_private_copy(self, quartic_model, tmp_path):
        cfg = ChainConfig(8, 0.2, 500, seed=6)
        path = tmp_path / "samples.bin"
        run_chain(quartic_model, cfg, path)
        raw = path.read_bytes()
        draws = load_batch(path).draws
        assert type(draws) is np.ndarray and draws.flags.writeable
        draws[:] = 0.0
        assert not draws.any()
        assert path.read_bytes() == raw
        assert load_batch(path).draws.tobytes() == raw[16:]

    def test_memory_stays_at_the_buffer(self, quartic_model, tmp_path):
        # 2048 kept draws of 512 particles are 8 MiB; the buffer is 1 MiB.
        cfg = ChainConfig(512, 0.04, 2048, seed=7)
        path = tmp_path / "samples.bin"
        # A first chain imports numpy.random's lazy submodules (0.7 MB).
        run_chain(quartic_model, ChainConfig(512, 0.04, 2, seed=7), path)
        tracemalloc.start()
        try:
            run_chain(quartic_model, cfg, path)
            _, chain_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            batch = load_batch(path)
            load_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert batch.draws.nbytes == 8 << 20
        assert chain_peak < 2e6
        assert load_peak < 1e6

    def test_small_n_block_memory(self, quartic_model):
        # At N = 1, 8192 steps per block held two 8192-float lists, a peak
        # of 0.99 MB; the block is capped at 1024 steps (0.13 MB).
        buf = np.empty((1, 1))
        sampler._run(quartic_model, ChainConfig(1, 0.5, 2, seed=7), buf, lambda rows: None)
        tracemalloc.start()
        try:
            sampler._run(quartic_model, ChainConfig(1, 0.5, 20000, seed=7), buf,
                         lambda rows: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e5


class TestBlockDraws:
    """A block of b steps draws what b single steps draw, so a chain's draws
    and rate do not depend on how many steps share a block: one, or seven,
    which divides neither n_steps nor n_kept here."""

    @pytest.mark.parametrize("model, cfg, streamed", [
        pytest.param(_QUARTIC, ChainConfig(32, 0.12, 3000, burn_in=500, seed=4), False,
                     id="quartic-mala"),
        pytest.param(_QUARTIC, ChainConfig(32, 0.05, 3000, burn_in=500, seed=4,
                                           algorithm="ula"), False, id="quartic-ula"),
        pytest.param(_QUARTIC, ChainConfig(64, 0.08, 2500, burn_in=300, thinning=3,
                                           seed=4), True, id="thinned-path"),
    ])
    @pytest.mark.parametrize("steps_per_block", [1, 7])
    def test_block_size_moves_no_draw(self, model, cfg, streamed, steps_per_block,
                                      monkeypatch, tmp_path):
        assert cfg.n_steps % 7 and cfg.n_kept % 7

        def digest_and_rate(name):
            batch = run_chain(model, cfg, tmp_path / name if streamed else None)
            raw = np.ascontiguousarray(batch.draws, dtype="<f8").tobytes()
            return hashlib.sha256(raw).hexdigest(), batch.acceptance_rate

        default = digest_and_rate("default.bin")
        monkeypatch.setattr(sampler, "_BLOCK_DRAWS", steps_per_block * cfg.n_particles)
        assert digest_and_rate("blocked.bin") == default


# Self-tests of the Coulomb kernel fixture in ``oracles``.
class TestCoulombKernel:
    def test_gradient_matches_finite_difference(self):
        kern = regularized_coulomb_kernel(0.05)
        h = 1e-6
        for x, y in ((0.3, -0.2), (1.5, 1.4), (-2.0, 0.7)):
            fd = (kern.w(x + h, y) - kern.w(x - h, y)) / (2 * h)
            assert kern.grad1_w(x, y) == pytest.approx(fd, abs=1e-7)

    def test_symmetry(self):
        kern = regularized_coulomb_kernel(0.1)
        assert kern.w(0.4, -1.1) == pytest.approx(kern.w(-1.1, 0.4), abs=1e-14)

    def test_approaches_abs_for_small_eps(self):
        kern = regularized_coulomb_kernel(1e-6)
        assert kern.w(2.0, 0.0) == pytest.approx(-2.0, abs=1e-2)


class TestPersistence:
    def test_roundtrip(self, quartic_model, tmp_path):
        cfg = ChainConfig(8, 0.2, 500, burn_in=100, seed=4)
        batch = run_chain(quartic_model, cfg)
        path = tmp_path / "samples.bin"
        save_batch(batch, cfg, path)
        loaded = load_batch(path)
        assert np.array_equal(loaded.draws, batch.draws)
        assert loaded.seed == batch.seed
        assert loaded.model_fingerprint == batch.model_fingerprint
        assert loaded.acceptance_rate == pytest.approx(batch.acceptance_rate)

    def test_header_layout(self, quartic_model, tmp_path):
        cfg = ChainConfig(3, 0.2, 50, burn_in=10, seed=4)
        batch = run_chain(quartic_model, cfg)
        path = tmp_path / "s.bin"
        save_batch(batch, cfg, path)
        raw = path.read_bytes()
        assert raw[:8] == b"CHAOSLAB"
        version, n = np.frombuffer(raw[8:16], dtype="<u4")
        assert (version, n) == (1, 3)
        assert len(raw) == 16 + batch.draws.size * 8

    @pytest.mark.parametrize("layout", ["c", "strided", "fortran", "big-endian", "empty"])
    def test_file_is_header_and_draws(self, layout, tmp_path):
        draws = np.random.default_rng(7).normal(size=(40, 6))
        view = {"c": draws, "strided": draws[::2, ::-1],
                "fortran": np.asfortranarray(draws),
                "big-endian": draws.astype(">f8"), "empty": draws[:0]}[layout]
        cfg = ChainConfig(view.shape[1], 0.2, 100, seed=1)
        path = tmp_path / "s.bin"
        save_batch(SampleBatch(view, None, 1, None), cfg, path)
        header = b"CHAOSLAB" + np.array([1, view.shape[1]], dtype="<u4").tobytes()
        assert path.read_bytes() == header + np.asarray(view, dtype="<f8").tobytes()
        assert np.array_equal(load_batch(path).draws, view)

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: b"NOTCHAOS" + raw[8:], "bad magic"),
        (lambda raw: raw[:8] + np.array([2], dtype="<u4").tobytes() + raw[12:],
         "unsupported format version"),
        (lambda raw: raw[:-8], "reshape"),
        (lambda raw: raw[:-3], "reshape"),
        (lambda raw: raw[:12] + np.array([0], dtype="<u4").tobytes() + raw[16:],
         "N = 0"),
    ], ids=["magic", "version", "truncated", "ragged", "no-particles"])
    def test_load_rejects_damaged_file(self, damage, message, quartic_model, tmp_path):
        cfg = ChainConfig(3, 0.2, 50, burn_in=10, seed=4)
        path = tmp_path / "s.bin"
        save_batch(run_chain(quartic_model, cfg), cfg, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=message):
            load_batch(path)

    def test_general_model_sidecar_repeats_across_processes(self, tmp_path):
        # A general handle is a function with no hash that survives the
        # process, so the sidecar holds a null fingerprint in every run.
        code = ("import sys\n"
                "from chaoslab.model import GeneralPotential, ModelSpec, RankOneInteraction\n"
                "from chaoslab.sampler import ChainConfig, run_chain\n"
                "from oracles import save_batch\n"
                "v = GeneralPotential(v=lambda x: x**4 / 4, grad_v=lambda x: x**3)\n"
                "cfg = ChainConfig(4, 0.2, 200, burn_in=50, seed=3)\n"
                "save_batch(run_chain(ModelSpec(v, RankOneInteraction(0.5)), cfg), cfg,\n"
                "           sys.argv[1])\n")
        src = str(Path(chaoslab.__file__).resolve().parents[1])
        tests = str(Path(__file__).parent)  # for oracles
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, tests] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        sidecars = []
        for run in ("a", "b"):
            path = tmp_path / run / "samples.bin"
            path.parent.mkdir()
            subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True,
                           timeout=120)
            sidecars.append(path.with_name("samples.bin.json").read_bytes())
        assert sidecars[0] == sidecars[1]
        assert json.loads(sidecars[0])["model_fingerprint"] is None


def _ess(series: np.ndarray, max_lag: int = 200) -> float:
    """Effective sample size from the initial positive autocorrelation sum."""
    x = series - series.mean()
    n = len(x)
    acf = np.correlate(x, x, mode="full")[n - 1:n + max_lag]
    acf = acf / acf[0]
    pos = np.nonzero(acf < 0)[0]
    cut = pos[0] if pos.size else max_lag
    tau = 1.0 + 2.0 * acf[1:cut].sum()
    return max(n / max(tau, 1.0), 1.0)
