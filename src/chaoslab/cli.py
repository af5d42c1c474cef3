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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as _bounds
from . import verify as _verify
from .errors import ChaosLabError, ConfigError, DegenerateInput, RegimeViolation
from .marginals import (build_mixture, conditional_entropy_level,
                        relative_entropy_levels, wasserstein2_marginal)
from .meanfield import critical_coupling, solve_fixed_point, tilted_measure
from .model import ModelSpec, curie_weiss_model, gaussian_model
from .sampler import ChainConfig, run_chain, save_batch

__all__ = ["ExperimentConfig", "ScalingFit", "load_config", "run", "fit_scaling", "main"]

_COMMANDS = ("constants", "fixed-point", "chaos-scan", "verify", "sample", "jw")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    model: dict
    n_grid: tuple
    k_max: int = 1
    seed: int = 0
    output_dir: str = "."
    tolerances: dict = field(default_factory=dict)
    chain: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict, repr=False)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing")
    return doc[key]


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> ExperimentConfig:
    command = _require(doc, "command", "")
    if command not in _COMMANDS:
        raise ConfigError("command", f"must be one of {_COMMANDS}")
    model = _require(doc, "model", "")
    for key in ("theta", "sigma", "J"):
        _require(model, key, "model")
    if model.get("dimension", 1) != 1:
        raise ConfigError("model.dimension",
                          "must be 1: every command computes one-dimensional quantities")
    n_grid = tuple(doc.get("n_grid", []))
    if command in ("chaos-scan", "jw", "constants") and not n_grid:
        raise ConfigError("n_grid", "required for this command")
    if list(n_grid) != sorted(n_grid):
        raise ConfigError("n_grid", "must be sorted ascending")
    k_max = int(doc.get("k_max", 1))
    if k_max < 1:
        raise ConfigError("k_max", "must be >= 1")
    chain = doc.get("chain", {})
    if command == "sample":
        for key in ("n_particles", "step_size", "n_steps"):
            _require(chain, key, "chain")
    return ExperimentConfig(
        command=command,
        model=dict(model),
        n_grid=n_grid,
        k_max=k_max,
        seed=int(doc.get("seed", 0)),
        output_dir=str(doc.get("output_dir", ".")),
        tolerances=dict(doc.get("tolerances", {})),
        chain=dict(chain),
        raw=doc,
    )


def _build_model(block: dict) -> ModelSpec:
    theta = float(block["theta"])
    sigma = float(block["sigma"])
    J = float(block["J"])
    if theta == 0.0:
        return gaussian_model(sigma, J)
    return curie_weiss_model(theta, sigma, J)


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
    slope: float
    intercept: float
    r_squared: float
    points: np.ndarray

    def __post_init__(self) -> None:
        if len(self.points) < 3:
            raise ValueError("need at least 3 points")


def fit_scaling(points) -> ScalingFit:
    """Least-squares log-log fit; the slope estimates the N-exponent of H."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 (N, H) points")
    if np.any(pts[:, 1] <= 0):
        raise DegenerateInput("all H values must be positive")
    x = np.log(pts[:, 0])
    y = np.log(pts[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(float(slope), float(intercept), r2,
                      np.column_stack([x, y]))


def _run_chaos_scan(cfg: ExperimentConfig, outdir: Path) -> dict:
    model = _build_model(cfg.model)
    chash = cfg.config_hash()
    header = ["N", "k", "H_exact", "H_se", "W2_sq", "bound_marginal",
              "bound_conditional_sum", "lambda_n", "pass"]
    rows = []
    all_pass = True
    k1_points = []
    for N in cfg.n_grid:
        law = build_mixture(model, int(N))
        levels = relative_entropy_levels(law, cfg.k_max)
        mstar = tilted_measure(model, 0.0)
        w2 = wasserstein2_marginal(law, mstar)
        try:
            bundle = _bounds.curie_weiss_constants(
                float(cfg.model["theta"]), float(cfg.model["sigma"]),
                float(cfg.model["J"]), int(N), model=model)
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
                ok = h <= bm + 1e-12 and cond <= bc + 1e-12
            else:
                bm = float("nan")
                cond_sum = float("nan")
                lam = float("nan")
                ok = True
            all_pass &= ok
            rows.append([int(N), k, h, float(levels.std_errors[k]),
                         w2 * w2 if k == 1 else float("nan"),
                         bm, cond_sum, lam, int(ok)])
            if k == 1:
                k1_points.append((float(N), h))
    _write_csv(outdir / "chaos_scan.csv", header, rows, chash)
    summary = {"command": "chaos-scan", "passed": bool(all_pass),
               "rows": len(rows)}
    if len(k1_points) >= 3:
        fit = fit_scaling(k1_points)
        _write_json(outdir / "scaling.json",
                    {"slope": fit.slope, "intercept": fit.intercept,
                     "r_squared": fit.r_squared}, chash)
        summary["slope"] = fit.slope
        summary["r_squared"] = fit.r_squared
    return summary


def _run_verify(cfg: ExperimentConfig, outdir: Path) -> dict:
    model = _build_model(cfg.model)
    chash = cfg.config_hash()
    theta = float(cfg.model["theta"])
    sigma = float(cfg.model["sigma"])
    J = float(cfg.model["J"])
    N = int(cfg.n_grid[-1]) if cfg.n_grid else 64
    bundle = _bounds.curie_weiss_constants(theta, sigma, J, N, model=model)
    grid = np.concatenate([-np.geomspace(0.01, 3.0, 8)[::-1],
                           np.geomspace(0.01, 3.0, 8)])
    reports = {
        "nonlinear_lsi": _verify.nonlinear_lsi_scan(model, bundle, grid),
        "linear_lsi": _verify.linear_lsi_scan(model, bundle, grid),
        "phi_positivity": _verify.phi_positivity_scan(
            model, None, np.geomspace(0.01, 3.0, 8)),
        "psi_positivity": _verify.psi_positivity_scan(
            model, 0.0, 0.0, np.geomspace(0.01, 3.0, 8)),
        "marginal_t1": _verify.marginal_t1_ratio_scan(
            model, N, bundle, np.linspace(-0.5, 0.5, 5)),
    }
    payload = {}
    all_pass = True
    for name, rep in reports.items():
        payload[name] = {"min_margin": rep.min_margin, "passed": bool(rep.passed)}
        all_pass &= rep.passed
    _write_json(outdir / "verify.json", payload, chash)
    return {"command": "verify", "passed": bool(all_pass), **{
        k: v["passed"] for k, v in payload.items()}}


def run(config: ExperimentConfig) -> dict:
    """Execute the configured pipeline; returns a machine-readable summary."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    chash = config.config_hash()
    model = _build_model(config.model)

    if config.command == "constants":
        bundle = _bounds.curie_weiss_constants(
            float(config.model["theta"]), float(config.model["sigma"]),
            float(config.model["J"]), int(config.n_grid[-1]), model=model)
        _write_json(outdir / "constants.json", json.loads(bundle.to_json()), chash)
        return {"command": "constants", "passed": True}

    if config.command == "fixed-point":
        res = solve_fixed_point(model)
        _write_json(outdir / "fixed_point.json",
                    {"h_star": res.h_star, "iterations": res.iterations,
                     "residual": res.residual}, chash)
        return {"command": "fixed-point", "passed": True,
                "h_star": res.h_star}

    if config.command == "chaos-scan":
        return _run_chaos_scan(config, outdir)

    if config.command == "verify":
        return _run_verify(config, outdir)

    if config.command == "jw":
        rows = []
        all_pass = True
        j_c = critical_coupling(model)
        J = model.coupling
        eps = min(j_c / J - 1.0, 1.0) / 2.0
        from .meanfield import moment
        var = moment(tilted_measure(model, 0.0), 2)
        for N in config.n_grid:
            lhs = _verify.jw_log_mgf(model, int(N))
            rhs = _bounds.jw_rhs(eps, J, var)
            ok = lhs <= rhs + 1e-9
            all_pass &= ok
            rows.append([int(N), float(lhs), float(rhs), int(ok)])
        _write_csv(outdir / "jw.csv", ["N", "log_mgf", "rhs", "pass"],
                   rows, chash)
        return {"command": "jw", "passed": bool(all_pass)}

    if config.command == "sample":
        chain = ChainConfig(
            n_particles=int(config.chain["n_particles"]),
            step_size=float(config.chain["step_size"]),
            n_steps=int(config.chain["n_steps"]),
            burn_in=int(config.chain.get("burn_in", 0)),
            thinning=int(config.chain.get("thinning", 1)),
            seed=config.seed,
            algorithm=str(config.chain.get("algorithm", "mala")),
        )
        batch = run_chain(model, chain)
        save_batch(batch, chain, outdir / "samples.bin")
        return {"command": "sample", "passed": True,
                "n_kept": int(batch.draws.shape[0]),
                "acceptance_rate": batch.acceptance_rate}

    raise ConfigError("command", f"unhandled command {config.command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Mean-field Gibbs measure laboratory: constants, "
                    "marginals, samplers and inequality verification.")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        doc = dict(cfg.raw)
        if args.output_dir is not None:
            doc["output_dir"] = args.output_dir
        if args.seed is not None:
            doc["seed"] = args.seed
        cfg = parse_config(doc)
        summary = run(cfg)
    except ChaosLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    print(json.dumps(summary, sort_keys=True, default=float))
    return 0 if summary.get("passed", False) else 1


if __name__ == "__main__":
    sys.exit(main())
