"""Langevin MCMC targeting the N-particle Gibbs measure.

MALA is the default (exact stationary law via the Metropolis correction);
ULA is opt-in with the usual O(step_size) bias.  RNG is numpy's Philox
counter-based generator, keyed by the seed, an integer in [0, 2**128), so
seeds are portable and streams splittable.

The order of draws is part of what a seed reproduces.  A chain reads two
streams of its key.  The noise comes from ``Philox(key=seed)``: one
``standard_normal(N)`` (the same draws as ``normal(size=N)``) for the initial
state, then one row of N per step.  The accept uniforms come from
``Philox(key=seed).jumped()``, jumped before any draw: one ``random()`` per
MALA step, at every step, so step t reads uniform t whether or not its
proposal is finite.  ULA reads no uniforms.  Both are drawn a block of
min(1024, max(1, 8192 // N)) steps at a time, outside the step loop; a
block of b steps holds the same draws as b single calls, so no draw
depends on the block size.

The target, y -> (log-density, proposal mean y + step_size * gradient),
is ``model.gibbs_target``, built once per chain.  Only ``model`` decides
how a model family splits the Gibbs exponent; the chain never looks at
the model's parts.  MALA rejects a proposal whose target is not finite,
where ULA raises ``NonFinite``; an energy above ``_ENERGY_CEILING`` =
1e10 raises ``DivergentChain``.

A sample file is a 16-byte header (magic, format version, N) and the kept
draws as row-major little-endian float64, with a JSON sidecar.  It is
written through one buffer of about 1 MB of rows (``run_chain`` with a
path) and read as a copy-on-write memory map (``load_batch``), so neither
side holds the draws in memory.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergentChain, NonFinite
from .model import MAX_PARTICLES, ModelSpec, gibbs_target
from .numerics import _chunk_rows

__all__ = [
    "ChainConfig",
    "SampleBatch",
    "run_chain",
    "load_batch",
]

_MAGIC = b"CHAOSLAB"
_FORMAT_VERSION = 1
# A chain draws its noise min(_BLOCK_STEPS, max(1, _BLOCK_DRAWS // N)) steps
# at a time: at most 64 KiB of float64, which spreads the generator's
# per-call cost over many steps and adds little to the memory of a chain
# streamed to a file.  The cap keeps a block's per-step lists small at N < 8.
_BLOCK_DRAWS = 8192
_BLOCK_STEPS = 1024
# A chain whose energy -log p exceeds this has diverged (``DivergentChain``).
_ENERGY_CEILING = 1e10


@dataclass(frozen=True)
class ChainConfig:
    """A checked chain: ``n_steps`` Langevin steps of ``step_size`` on
    ``n_particles``, of which every ``thinning``-th after ``burn_in`` is
    kept, by ``algorithm`` ("mala" or "ula") from the streams of ``seed``.
    A bad field raises ``ValueError`` with a message starting with its name."""

    n_particles: int
    step_size: float
    n_steps: int
    burn_in: int = 0
    thinning: int = 1
    seed: int = 0
    algorithm: str = "mala"

    def __post_init__(self) -> None:
        # Each message starts with the offending field's name, which
        # cli.parse_config reports as the config path.
        checks = (
            ("n_particles", 1 <= self.n_particles <= MAX_PARTICLES,
             f"must be in [1, {MAX_PARTICLES}]"),
            ("step_size", math.isfinite(self.step_size) and self.step_size > 0,
             "must be positive and finite"),
            ("burn_in", 0 <= self.burn_in < self.n_steps,
             "must satisfy 0 <= burn_in < n_steps"),
            ("thinning", self.thinning >= 1, "must be >= 1"),
            ("thinning", self.thinning < 1 or self.n_kept >= 1,
             f"{self.thinning} keeps no draws of the "
             f"{self.n_steps - self.burn_in} steps after burn_in"),
            ("seed", 0 <= self.seed < 2**128, "must be in [0, 2**128)"),
            ("algorithm", self.algorithm in ("mala", "ula"),
             "must be 'mala' or 'ula'"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"{name} {rule}")

    @property
    def n_kept(self) -> int:
        return (self.n_steps - self.burn_in) // self.thinning


@dataclass(frozen=True)
class SampleBatch:
    """The kept draws of a chain, one row of N per draw, with its MALA
    acceptance rate (None for ULA), its seed and its model's fingerprint."""

    draws: np.ndarray = field(repr=False)
    acceptance_rate: float | None
    seed: int
    model_fingerprint: str | None


def run_chain(model: ModelSpec, cfg: ChainConfig, path=None) -> SampleBatch:
    """Sample m^N_* with MALA (exact) or ULA (biased, documented).

    Without ``path`` the kept draws are returned in memory, as one
    (n_kept, N) array.  With ``path`` they are streamed to a sample file
    there through one buffer of about 1 MB, and the batch returned is
    ``load_batch(path)``; a chain that raises leaves no file behind.
    """
    n = cfg.n_particles
    if path is None:
        draws = np.empty((cfg.n_kept, n))
        rate = _run(model, cfg, draws, lambda block: None)
        return SampleBatch(draws=draws, acceptance_rate=rate,
                           seed=cfg.seed, model_fingerprint=model.fingerprint())
    with _sample_file(path, n) as write:
        rate = _run(model, cfg, np.empty((min(cfg.n_kept, _chunk_rows(n)), n)), write)
    _write_sidecar(path, cfg, cfg.n_kept, rate, model.fingerprint())
    return load_batch(path)


def _run(model: ModelSpec, cfg: ChainConfig, buf: np.ndarray, flush) -> float | None:
    """Run the chain, keeping its draws in the rows of ``buf``, which go to
    ``flush`` each time they are all filled and, at the end, the filled
    rows that are left; returns the MALA acceptance rate (None for ULA).

    The state x carries the mean x + eps grad(x) of its Langevin proposal,
    which the target returns with log p, so a step evaluates the target
    once, at the proposal y.  The noise and the accept uniforms are drawn
    a block of steps at a time, before the steps that use them.
    """
    key = np.random.Philox(key=cfg.seed)
    uniform = np.random.Generator(key.jumped()).random
    noise = np.random.Generator(key).standard_normal
    n = cfg.n_particles
    eps = cfg.step_size
    target = gibbs_target(model, n, eps)
    x = noise(n) * 0.1

    logp, mean = target(x)
    if not (math.isfinite(logp) and np.isfinite(mean).all()):
        raise NonFinite("non-finite target at the initial state")

    n_steps, n_kept, thinning = cfg.n_steps, cfg.n_kept, cfg.thinning
    ceiling = _ENERGY_CEILING
    rows = buf.shape[0]
    kept = filled = 0
    next_kept = cfg.burn_in
    accepted = 0
    mala = cfg.algorithm == "mala"
    sqrt2e = math.sqrt(2.0 * eps)
    four_eps = 4.0 * eps
    isfinite = math.isfinite
    block = min(_BLOCK_STEPS, max(1, _BLOCK_DRAWS // n))
    half_xi2 = log_u = [None] * block  # ULA reads neither

    for start in range(0, n_steps, block):
        xis = noise((min(block, n_steps - start), n))
        if mala:
            half_xi2 = (0.5 * np.einsum("ij,ij->i", xis, xis)).tolist()
            with np.errstate(divide="ignore"):  # u = 0 gives log u = -inf
                log_u = np.log(uniform(len(xis))).tolist()
        xis *= sqrt2e
        for step, xi, half_xi2_t, log_u_t in zip(range(start, n_steps), xis,
                                                 half_xi2, log_u):
            y = mean + xi
            logp_y, mean_y = target(y)
            if mala:
                # log q(x | y) - log q(y | x) for the Langevin proposal.  The
                # forward residual y - mean is sqrt(2 eps) xi; the backward
                # one is x - mean_y.  A mean that is not finite makes
                # |x - mean_y|^2 inf or NaN, and so the test False even at
                # log u = -inf: only log p needs its own check.
                bwd = x - mean_y
                bwd2 = float(bwd.dot(bwd))
                if (isfinite(logp_y)
                        and log_u_t < logp_y - logp + half_xi2_t - bwd2 / four_eps):
                    x, mean, logp = y, mean_y, logp_y
                    accepted += 1
            elif isfinite(logp_y) and np.isfinite(mean_y).all():
                x, mean, logp = y, mean_y, logp_y
            else:
                raise NonFinite(f"ULA left the finite-energy region at step {step}")
            if -logp > ceiling:
                raise DivergentChain(f"energy {-logp:.3e} exceeded ceiling at step {step}")
            if step == next_kept and kept < n_kept:
                buf[filled] = x
                kept += 1
                filled += 1
                next_kept += thinning
                if filled == rows:
                    flush(buf)
                    filled = 0
    if filled:
        flush(buf[:filled])

    return accepted / n_steps if mala else None


@contextmanager
def _sample_file(path, n: int):
    """Yield write(rows), which appends rows of ``n`` draws to a new sample
    file at ``path`` after its 16-byte header.

    The file is built beside ``path`` under a temporary name and moved onto
    ``path`` only when the block ends without an exception; otherwise it is
    deleted.  So a failed write leaves ``path`` as it was, and a batch that
    ``load_batch`` mapped from ``path`` keeps its bytes while ``path`` is
    rewritten.
    """
    if n < 1:
        raise ValueError("a sample file needs at least one particle")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC + np.array([_FORMAT_VERSION, n], dtype="<u4").tobytes())
            yield lambda rows: fh.write(
                memoryview(np.ascontiguousarray(rows, dtype="<f8")))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_sidecar(path, cfg: ChainConfig, n_kept: int, acceptance_rate,
                   model_fingerprint) -> None:
    sidecar = dict(asdict(cfg), n_kept=n_kept, acceptance_rate=acceptance_rate,
                   model_fingerprint=model_fingerprint)
    path = Path(path)
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_batch(path) -> SampleBatch:
    """Read a sample file: the draws are a writable, copy-on-write memory
    map of the file's body, so nothing is read until it is used, and
    writing to the draws leaves the file as it is."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(16)
    if header[:8] != _MAGIC:
        raise ValueError("bad magic; not a chaoslab sample file")
    version, n = (int(v) for v in np.frombuffer(header[8:16], dtype="<u4"))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    if n == 0:
        raise ValueError("header gives N = 0 particles")
    body = path.stat().st_size - 16
    if body % (8 * n):
        raise ValueError(f"cannot reshape a body of {body} bytes into rows of "
                         f"{n} float64 draws")
    if body:
        draws = np.memmap(path, dtype="<f8", mode="c", offset=16,
                          shape=(body // (8 * n), n)).view(np.ndarray)
    else:  # mmap cannot map zero bytes
        draws = np.empty((0, n))
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    return SampleBatch(draws=draws,
                       acceptance_rate=meta.get("acceptance_rate"),
                       seed=meta["seed"],
                       model_fingerprint=meta["model_fingerprint"])
