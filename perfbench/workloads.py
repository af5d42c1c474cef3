"""The benchmark's workloads and its own checks of their outputs.

An op is one ``chaoslab.cli.run(parse_config(doc))`` call; a pass runs every
op of a workload once, in order.  The checks here use the benchmark's own
closed forms and quadrature, never the chaoslab functions under test, except
``load_batch``, whose round trip is itself what is checked.

The configs are smaller than a full README-sized scan: every run of the
benchmark makes a warm-up pass and at least three timed passes and should
end in about half a minute on 2 vCPUs, so each pass is held to about 4-6 s.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

J_C = 2.1371178351792204        # critical coupling of theta = sigma = 1
QUARTIC = {"theta": 1.0, "sigma": 1.0}
GAUSSIAN = {"theta": 0.0, "sigma": 1.0, "J": 0.5}

W2_N32_FROZEN = 0.007580132839907034
W2_REL_TOL = 1e-9               # summation-order room, not lost digits
H1_REL_TOL = 1e-6               # Gaussian H_1 against the closed form, N <= 2^10
SLOPE_TOL = 0.1                 # fitted quartic exponent against -2
JW_ABS_TOL = 1e-8               # Gaussian log-MGF against -log(1 - J/sigma)/2
SE_MULTIPLE = 4.0               # sampler <x^2> against the exact variance
N_BATCHES = 50                  # batch means for the sampler's standard error


def quartic(fraction):
    return dict(QUARTIC, J=fraction * J_C)


@dataclass
class Op:
    name: str
    doc: dict
    checks: list = field(default_factory=list)

    def check(self, outdir: Path, summary: dict) -> list:
        """Problems found in this op's outputs (empty when they are right)."""
        problems = []
        if summary.get("passed") is not True:
            problems.append(f"summary reports passed={summary.get('passed')!r}")
        for check in self.checks:
            problems += check(self, outdir)
        return problems


# -- shared readers -----------------------------------------------------------

def read_csv(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def gaussian_h1(sigma: float, J: float, N: int) -> float:
    """Closed-form H(m^{N,1} | m_*) of the theta = 0 model: (u - log1p u)/2."""
    u = J / (N * (sigma - J))
    return 0.5 * (u - math.log1p(u))


def h1_relative_errors(outdir: Path) -> dict:
    """{N: relative error of H_1} read from a Gaussian chaos_scan.csv."""
    out = {}
    for row in read_csv(outdir / "chaos_scan.csv"):
        if int(row["k"]) == 1:
            N = int(row["N"])
            exact = gaussian_h1(GAUSSIAN["sigma"], GAUSSIAN["J"], N)
            out[N] = abs(float(row["H_exact"]) - exact) / exact
    return out


def batch_means(series: np.ndarray, n_batches: int = N_BATCHES):
    """(mean, batch-means standard error, effective sample size) of a series."""
    b = len(series) // n_batches
    means = series[: b * n_batches].reshape(n_batches, b).mean(axis=1)
    se = float(means.std(ddof=1) / math.sqrt(n_batches))
    var_bm = b * float(means.var(ddof=1))
    ess = len(series) * float(series.var(ddof=1)) / var_bm
    return float(series.mean()), se, ess


def exact_second_moment(theta, sigma, J, N) -> float:
    """E[x^2] under the one-particle marginal of the N-particle quartic model.

    Hubbard-Stratonovich mixture: weight exp(-N z^2/2J) Z_1(z)^N over the
    field z, each component the tilted density exp(-V(x) + z x)/Z_1(z).
    Both integrals run on wide uniform grids, which resolve these smooth,
    fast-decaying integrands to round-off; z goes in chunks to keep memory
    small.
    """
    x = np.linspace(-10.0, 10.0, 2001)
    z = np.linspace(-6.0, 6.0, 2001)
    v = theta / 4.0 * x**4 + sigma / 2.0 * x**2
    log_z1, second = np.empty_like(z), np.empty_like(z)
    for start in range(0, len(z), 128):
        zc = z[start:start + 128]
        a = zc[:, None] * x[None, :] - v[None, :]
        log_z1[start:start + 128] = logsumexp(a, axis=1)
        second[start:start + 128] = np.exp(logsumexp(a, b=x**2, axis=1)
                                           - log_z1[start:start + 128])
    log_w = -N * z**2 / (2.0 * J) + N * log_z1
    w = np.exp(log_w - log_w.max())
    return float(w @ second / w.sum())


# -- checks -------------------------------------------------------------------

def check_w2_frozen(op, outdir):
    for row in read_csv(outdir / "chaos_scan.csv"):
        if int(row["N"]) == 32 and int(row["k"]) == 1:
            w2 = math.sqrt(float(row["W2_sq"]))
            if abs(w2 - W2_N32_FROZEN) > W2_REL_TOL * W2_N32_FROZEN:
                return [f"W2 at N=32 is {w2!r}, frozen {W2_N32_FROZEN!r}"]
            return []
    return ["no N=32, k=1 row in chaos_scan.csv"]


def check_slope(op, outdir):
    slope = json.loads((outdir / "scaling.json").read_text())["slope"]
    if abs(slope + 2.0) > SLOPE_TOL:
        return [f"fitted slope {slope!r} is not within {SLOPE_TOL} of -2"]
    return []


def check_gaussian_h1(op, outdir):
    errors = h1_relative_errors(outdir)
    problems = [f"Gaussian H_1 at N={N} has relative error {err:.3e}"
                for N, err in errors.items() if N <= 2**10 and err > H1_REL_TOL]
    if not errors:
        problems.append("no k=1 rows in chaos_scan.csv")
    return problems


def check_gaussian_jw(op, outdir):
    model = op.doc["model"]
    exact = -0.5 * math.log(1.0 - model["J"] / model["sigma"])
    return [f"Gaussian log-MGF at N={row['N']} is {row['log_mgf']}, exact {exact!r}"
            for row in read_csv(outdir / "jw.csv")
            if abs(float(row["log_mgf"]) - exact) > JW_ABS_TOL]


def load_samples(op, outdir):
    from chaoslab.sampler import load_batch

    return load_batch(outdir / "samples.bin").draws


def check_samples_shape(op, outdir):
    chain = op.doc["chain"]
    n_kept = (chain["n_steps"] - chain.get("burn_in", 0)) // chain.get("thinning", 1)
    shape = load_samples(op, outdir).shape
    if shape != (n_kept, chain["n_particles"]):
        return [f"samples.bin holds {shape}, expected {(n_kept, chain['n_particles'])}"]
    return []


def check_second_moment(op, outdir):
    model = op.doc["model"]
    series = (load_samples(op, outdir) ** 2).mean(axis=1)
    mean, se, _ = batch_means(series)
    exact = exact_second_moment(model["theta"], model["sigma"], model["J"],
                                op.doc["chain"]["n_particles"])
    if abs(mean - exact) > SE_MULTIPLE * se:
        return [f"chain <x^2> = {mean:.6f} +- {se:.2e}, exact {exact:.6f}"]
    return []


# -- workloads ----------------------------------------------------------------

def _chaos_scan(seed):
    return [
        # README quartic model: marginals (mixture, entropy levels to k = 3,
        # W2) and numerics.convolve dominate; N spans 2^5..2^9 so the fitted
        # exponent is within 0.1 of -2.
        Op("quartic", {"command": "chaos-scan", "model": quartic(0.5),
                       "n_grid": [32, 128, 512], "k_max": 3, "seed": seed},
           [check_w2_frozen, check_slope]),
        # Gaussian accuracy probe: H_1 against the closed form at 2^10 and 2^16.
        gaussian_probe(seed),
    ]


def gaussian_probe(seed):
    return Op("gaussian", {"command": "chaos-scan", "model": dict(GAUSSIAN),
                           "n_grid": [1024, 65536], "k_max": 1, "seed": seed},
              [check_gaussian_h1])


def _inequality(seed):
    def op(name, command, model, n_grid=None, checks=()):
        doc = {"command": command, "model": model, "seed": seed}
        if n_grid is not None:
            doc["n_grid"] = n_grid
        return Op(name, doc, list(checks))

    # Scalar adaptive quadrature (numerics, meanfield, verify); jw nests quad
    # inside quad, and 0.9 J_c widens the field support.  marginals runs one
    # mixture with many point evaluations inside the T1 scan.
    return [
        op("verify-0.9", "verify", quartic(0.9), [1024]),
        op("jw-0.9", "jw", quartic(0.9), [1024]),
        op("jw-gaussian", "jw", dict(GAUSSIAN), [16], [check_gaussian_jw]),
        op("constants", "constants", quartic(0.5), [128]),
        op("fixed-point", "fixed-point", quartic(0.5)),
    ]


def _sample(seed):
    def mala(n, step, n_steps, burn_in, checks):
        chain = {"n_particles": n, "step_size": step, "n_steps": n_steps,
                 "burn_in": burn_in}
        return Op(f"mala-n{n}", {"command": "sample", "model": quartic(0.5),
                                 "chain": chain, "seed": seed}, checks)

    # All work in sampler: the N=32 chain is bound by Python-loop overhead,
    # the N=512 chain by array work; both write through save_batch.
    return [
        mala(32, 0.12, 55_000, 5_000, [check_samples_shape, check_second_moment]),
        mala(512, 0.04, 7_500, 1_000, [check_samples_shape]),
    ]


WORKLOADS = {"chaos-scan": _chaos_scan, "inequality": _inequality, "sample": _sample}


def build(workload: str, seed: int, outroot: Path) -> list:
    ops = WORKLOADS[workload](seed)
    for op in ops:
        op.doc["output_dir"] = str(outroot / op.name)
    return ops
