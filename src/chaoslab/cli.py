"""Config-driven experiment orchestration with deterministic CSV/JSON outputs.

Config files are JSON documents; all randomness flows from the single
config seed.  CSV files carry a header row and a trailing comment line
with the config hash so reruns can be compared byte-for-byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as _bounds
from . import verify as _verify
from .errors import ChaosLabError, ConfigError, DegenerateInput, RegimeViolation
from .marginals import (MAX_LEVEL, build_mixture, conditional_entropy_level,
                        relative_entropy_levels, wasserstein2_marginal)
from .meanfield import (LogPartition, critical_coupling, solve_fixed_point,
                        subcritical_reference)
from .model import MAX_PARTICLES, ModelSpec, curie_weiss_model, gaussian_model
from .sampler import ChainConfig, run_chain

__all__ = ["ExperimentConfig", "ScalingFit", "parse_config", "run", "fit_scaling",
           "main"]


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config: the model and, for ``sample`` only, the chain it runs."""

    command: str
    model: ModelSpec
    n_grid: tuple
    k_max: int = 1
    seed: int = 0
    output_dir: str = "."
    chain: ChainConfig | None = None
    raw: dict = field(default_factory=dict, repr=False)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing")
    return doc[key]


def _integer(value, path: str) -> int:
    """A JSON integer (or an integral float) as an int; anything else is a ConfigError."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    return int(value)


def _finite(value, path: str) -> float:
    """A finite JSON number as a float; anything else is a ConfigError."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"must be a finite number, got {value!r}")
    return float(value)


def _read_document(path) -> dict:
    try:
        return _object(json.loads(Path(path).read_text()), "<document>")
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc


def _object(value, path: str) -> dict:
    """A JSON object as a dict; anything else is a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(path, f"must be a JSON object, got {value!r}")
    return value


def _known_keys(block: dict, keys, path: str) -> None:
    """A ConfigError naming the first key of ``block`` not in ``keys``: a
    misspelt field would otherwise run silently with its default."""
    for key in block:
        if key not in keys:
            name = f"{path}.{key}" if path else str(key)
            raise ConfigError(name, f"unknown key; expected one of {tuple(keys)}")


_CHAIN_FIELDS = (("n_particles", _integer), ("step_size", _finite), ("n_steps", _integer),
                 ("burn_in", _integer), ("thinning", _integer))
_CHAIN_KEYS = tuple(name for name, _ in _CHAIN_FIELDS) + ("algorithm",)
_MODEL_KEYS = ("theta", "sigma", "J", "dimension")
_TOP_KEYS = ("command", "model", "n_grid", "k_max", "seed", "output_dir", "chain")


def _chain_config(block: dict, seed: int) -> ChainConfig:
    """The ``chain`` block and the seed as a ChainConfig; a bad value is a ConfigError."""
    for key in ("n_particles", "step_size", "n_steps"):
        _require(block, key, "chain")
    kwargs = {name: read(block[name], f"chain.{name}")
              for name, read in _CHAIN_FIELDS if name in block}
    if "algorithm" in block:
        kwargs["algorithm"] = block["algorithm"]
    try:
        return ChainConfig(seed=seed, **kwargs)
    except ValueError as exc:
        name = str(exc).split()[0]
        raise ConfigError(name if name == "seed" else f"chain.{name}", str(exc)) from exc


def parse_config(doc: dict) -> ExperimentConfig:
    """Check a whole config and build what its command runs on: every
    ConfigError is raised here, before ``run`` touches the disk."""
    _object(doc, "<document>")
    _known_keys(doc, _TOP_KEYS, "")
    command = _require(doc, "command", "")
    if command not in _RUNNERS:
        raise ConfigError("command", f"must be one of {tuple(_RUNNERS)}")
    model = _object(_require(doc, "model", ""), "model")
    _known_keys(model, _MODEL_KEYS, "model")
    theta, sigma, J = (_finite(_require(model, key, "model"), f"model.{key}")
                       for key in ("theta", "sigma", "J"))
    if theta < 0:
        raise ConfigError("model.theta", "must be >= 0")
    if theta == 0 and sigma <= 0:
        raise ConfigError("model.sigma", "must be > 0 when theta = 0")
    if command in ("chaos-scan", "verify", "jw") and J <= 0:
        raise ConfigError("model.J", "must be > 0: the auxiliary field needs J > 0")
    if _integer(model.get("dimension", 1), "model.dimension") != 1:
        raise ConfigError("model.dimension",
                          "must be 1: every command computes one-dimensional quantities")
    n_grid = doc.get("n_grid", [])
    if not isinstance(n_grid, (list, tuple)):
        raise ConfigError("n_grid", f"must be a list of integers, got {n_grid!r}")
    n_grid = tuple(_integer(N, "n_grid") for N in n_grid)
    if command in ("chaos-scan", "jw", "constants") and not n_grid:
        raise ConfigError("n_grid", "required for this command")
    if (any(a >= b for a, b in zip(n_grid, n_grid[1:]))
            or not all(1 <= N <= MAX_PARTICLES for N in n_grid)):
        raise ConfigError("n_grid",
                          f"must be strictly ascending, every N in [1, {MAX_PARTICLES}]")
    k_max = _integer(doc.get("k_max", 1), "k_max")
    if k_max < 1:
        raise ConfigError("k_max", "must be >= 1")
    if command == "chaos-scan" and k_max > min(MAX_LEVEL, n_grid[0]):
        raise ConfigError("k_max",
                          f"chaos-scan needs k_max <= min({MAX_LEVEL}, min(n_grid))")
    chain = _object(doc.get("chain", {}), "chain")
    _known_keys(chain, _CHAIN_KEYS, "chain")
    output_dir = doc.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir", f"must be a string, got {output_dir!r}")
    seed = _integer(doc.get("seed", 0), "seed")
    return ExperimentConfig(
        command=command,
        model=gaussian_model(sigma, J) if theta == 0.0 else curie_weiss_model(theta, sigma, J),
        n_grid=n_grid,
        k_max=k_max,
        seed=seed,
        output_dir=output_dir,
        chain=_chain_config(chain, seed) if command == "sample" else None,
        raw=doc,
    )


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return "%.17g" % x


def _write_csv(path: Path, header: list, rows: list, config_hash: str) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    lines.append(f"# config_hash={config_hash}")
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict, config_hash: str) -> None:
    payload = dict(payload)
    payload["config_hash"] = config_hash
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=float) + "\n")


@dataclass(frozen=True)
class ScalingFit:
    """A least-squares line log H = slope log N + intercept, and its R^2."""

    slope: float
    intercept: float
    r_squared: float


def fit_scaling(points) -> ScalingFit:
    """Least-squares log-log fit; the slope estimates the N-exponent of H."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3 or len(np.unique(pts[:, 0])) < 3:
        raise DegenerateInput("need (N, H) points at 3 or more distinct N")
    if np.any(pts[:, 1] <= 0):
        raise DegenerateInput("all H values must be positive")
    x = np.log(pts[:, 0])
    y = np.log(pts[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(float(slope), float(intercept), r2)


# Each runner takes (config, outdir, config_hash), writes its outputs into
# outdir and returns the command's summary.

def _run_constants(cfg: ExperimentConfig, outdir: Path, chash: str) -> dict:
    bundle = _bounds.curie_weiss_constants(LogPartition(cfg.model).reference,
                                           cfg.n_grid[-1])
    _write_json(outdir / "constants.json", asdict(bundle), chash)
    return {"command": "constants", "passed": True}


def _run_fixed_point(cfg: ExperimentConfig, outdir: Path, chash: str) -> dict:
    res = solve_fixed_point(LogPartition(cfg.model))
    _write_json(outdir / "fixed_point.json",
                {"h_star": res.h_star, "iterations": res.iterations,
                 "residual": res.residual}, chash)
    return {"command": "fixed-point", "passed": True, "h_star": res.h_star}


def _run_chaos_scan(cfg: ExperimentConfig, outdir: Path, chash: str) -> dict:
    model = cfg.model
    header = ["N", "k", "H_exact", "H_se", "W2_sq", "bound_marginal",
              "bound_conditional_sum", "lambda_n", "pass"]
    rows = []
    k1_points = []
    for N in cfg.n_grid:
        law = build_mixture(model, int(N))
        levels = relative_entropy_levels(law, cfg.k_max)
        w2 = wasserstein2_marginal(law)
        try:
            bundle = _bounds.curie_weiss_constants(law.reference, N)
        except RegimeViolation:
            bundle = None
        cond_sum = 0.0
        for k in range(1, cfg.k_max + 1):
            h = float(levels.levels[k])
            cond = conditional_entropy_level(levels, k)
            if bundle is not None:
                bm = _bounds.chaos_bound_marginal(bundle, int(N), k)
                bc = _bounds.chaos_bound_conditional(bundle, int(N), k)
                cond_sum += bc
                lam = bundle.lambda_n
                # A relative slack: an absolute one would pass any H against
                # bounds far below it, such as the 1e-28 of a tiny J.
                ok = h <= bm * (1.0 + 1e-12) and cond <= bc * (1.0 + 1e-12)
            else:
                bm = cond_sum = lam = float("nan")
                ok = True
            rows.append([int(N), k, h, 0.0,
                         w2 * w2 if k == 1 else float("nan"),
                         bm, cond_sum, lam, int(ok)])
            if k == 1:
                k1_points.append((float(N), h))
    _write_csv(outdir / "chaos_scan.csv", header, rows, chash)
    summary = {"command": "chaos-scan", "passed": all(row[-1] for row in rows),
               "rows": len(rows)}
    if len(k1_points) >= 3:
        fit = fit_scaling(k1_points)
        _write_json(outdir / "scaling.json",
                    {"slope": fit.slope, "intercept": fit.intercept,
                     "r_squared": fit.r_squared}, chash)
        summary.update(slope=fit.slope, r_squared=fit.r_squared)
    return summary


def _run_verify(cfg: ExperimentConfig, outdir: Path, chash: str) -> dict:
    model = cfg.model
    N = cfg.n_grid[-1] if cfg.n_grid else 64
    law = build_mixture(model, N)
    bundle = _bounds.curie_weiss_constants(law.reference, N)
    ells = np.geomspace(0.01, 3.0, 8)
    nonlinear_lsi, linear_lsi = _verify.lsi_scans(model, bundle,
                                                  np.concatenate([-ells[::-1], ells]))
    reports = {
        "nonlinear_lsi": nonlinear_lsi,
        "linear_lsi": linear_lsi,
        "phi_positivity": _verify.phi_positivity_scan(model, None,
                                                      np.geomspace(0.003, 50.0, 8)),
        "psi_positivity": _verify.psi_positivity_scan(model, 0.0, 0.0, ells),
        "marginal_t1": _verify.marginal_t1_ratio_scan(
            law, bundle, np.linspace(-0.5, 0.5, 5)),
    }
    payload = {name: {"min_margin": rep.min_margin, "passed": bool(rep.passed)}
               for name, rep in reports.items()}
    _write_json(outdir / "verify.json", payload, chash)
    passed = {name: v["passed"] for name, v in payload.items()}
    return {"command": "verify", "passed": all(passed.values()), **passed}


def _run_jw(cfg: ExperimentConfig, outdir: Path, chash: str) -> dict:
    rows = []
    J = cfg.model.coupling
    mstar = subcritical_reference(LogPartition(cfg.model).reference)
    rhs = _bounds.jw_rhs(min(critical_coupling(mstar) / J - 1.0, 1.0) / 2.0, J,
                         mstar.second_moment)
    for N in cfg.n_grid:
        lhs = _verify.jw_log_mgf(cfg.model, N)
        rows.append([N, float(lhs), float(rhs), int(lhs <= rhs * (1.0 + 1e-12))])
    _write_csv(outdir / "jw.csv", ["N", "log_mgf", "rhs", "pass"], rows, chash)
    return {"command": "jw", "passed": all(row[-1] for row in rows)}


def _run_sample(cfg: ExperimentConfig, outdir: Path, chash: str) -> dict:
    batch = run_chain(cfg.model, cfg.chain, outdir / "samples.bin")
    return {"command": "sample", "passed": True,
            "n_kept": int(batch.draws.shape[0]),
            "acceptance_rate": batch.acceptance_rate}


# The commands, in the order the unknown-command message lists them.
_RUNNERS = {"constants": _run_constants, "fixed-point": _run_fixed_point,
            "chaos-scan": _run_chaos_scan, "verify": _run_verify,
            "sample": _run_sample, "jw": _run_jw}


def run(config: ExperimentConfig) -> dict:
    """Execute the configured pipeline; returns a machine-readable summary."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.command](config, outdir, config.config_hash())


def main(argv=None) -> int:
    """The ``chaoslab`` command: run the config at ``--config`` and print its
    summary as one JSON line.  Returns 0 when the summary passed, 1 when it
    did not, and 2 on a ``ChaosLabError``, printed as a JSON error line."""
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Mean-field Gibbs measure laboratory: constants, "
                    "marginals, samplers and inequality verification.")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        doc = _read_document(args.config)
        if args.output_dir is not None:
            doc["output_dir"] = args.output_dir
        if args.seed is not None:
            doc["seed"] = args.seed
        summary = run(parse_config(doc))
    except ChaosLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    print(json.dumps(summary, sort_keys=True, default=float))
    return 0 if summary.get("passed", False) else 1


if __name__ == "__main__":
    sys.exit(main())
