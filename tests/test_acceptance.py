"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package and prints a
single pass/fail line; together they cover the exact-marginal oracles,
the chaos scaling law, every bound formula at its stated tolerance, the
inequality scans, the particle sampler, and byte-level reproducibility.
"""
import json
import time

import numpy as np
import pytest

from chaoslab.bounds import (chaos_bound_conditional, chaos_bound_marginal,
                             curie_weiss_constants, jw_rhs,
                             lemma51_coefficient_check, verify_upper_solution)
from chaoslab.cli import fit_scaling, parse_config, run
from chaoslab.errors import RegimeViolation
from chaoslab.marginals import (build_mixture, conditional_entropy_level,
                                gaussian_entropy_oracle, marginal_grid_density,
                                marginal_log_density_batch, marginal_moment,
                                relative_entropy_levels, sample_marginal)
from chaoslab.meanfield import tilted_measure
from chaoslab.model import curie_weiss_model, gaussian_model
from chaoslab.sampler import ChainConfig, run_chain
from chaoslab.verify import (bolley_villani_moment_check, jw_log_mgf, lsi_scans,
                             marginal_t1_ratio_scan, phi_positivity_scan,
                             psi_positivity_scan)
from conftest import J_CRIT
from oracles import kl_knn, tensor_marginal_log_density

SCAN_NS = (8, 16, 32, 64, 128)


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status} in {elapsed:.1f}s "
          f"(budget {budget:.0f}s){suffix}", flush=True)
    assert ok, f"{name} failed{suffix}"
    assert elapsed < budget, f"{name} exceeded {budget:.0f}s budget"


@pytest.fixture(scope="module")
def chaos_scan(quartic_model):
    """Entropy levels and constants bundles on the shared N-grid."""
    out = {}
    t0 = time.perf_counter()
    for n in SCAN_NS:
        law = build_mixture(quartic_model, n)
        levels = relative_entropy_levels(law, 4)
        try:
            bundle = curie_weiss_constants(law.reference, n)
        except RegimeViolation:
            bundle = None
        out[n] = (law, levels, bundle)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_gaussian_marginal_matches_closed_form():
    t0 = time.perf_counter()
    model = gaussian_model(1.0, 0.5)
    worst = 0.0
    for n in (4, 8, 16, 32, 64):
        levels = relative_entropy_levels(build_mixture(model, n), 2)
        for k in (1, 2):
            oracle = gaussian_entropy_oracle(1.0, 0.5, n, k)
            worst = max(worst, abs(levels.levels[k] - oracle))
    _report("gaussian-closed-form", worst <= 1e-6,
            time.perf_counter() - t0, 10.0, f"max abs err {worst:.2e}")


def test_entropy_levels_stay_accurate_at_large_n(quartic_model):
    t0 = time.perf_counter()
    model = gaussian_model(1.0, 0.5)
    worst = 0.0
    for n in (2**14, 2**18, 2**20):
        levels = relative_entropy_levels(build_mixture(model, n), 2)
        for k in (1, 2):
            oracle = gaussian_entropy_oracle(1.0, 0.5, n, k)
            worst = max(worst, abs(levels.levels[k] / oracle - 1.0))
    scaled = [n * n * relative_entropy_levels(build_mixture(quartic_model, n), 1).levels[1]
              for n in (2**14, 2**18)]
    drift = abs(scaled[1] - scaled[0])
    _report("large-n-entropy", worst <= 1e-8 and drift <= 1e-4,
            time.perf_counter() - t0, 30.0,
            f"max rel err {worst:.2e}, N^2 H_1 {scaled[0]:.6f} -> {scaled[1]:.6f}")


def test_small_system_matches_brute_force(quartic_model):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240824)
    worst = 0.0
    for n, n_grid in ((2, 2001), (3, 801)):
        law = build_mixture(quartic_model, n)
        for k in (1, 2):
            pts = rng.uniform(-2.5, 2.5, size=(20, k))
            got = marginal_log_density_batch(law, pts)
            want = tensor_marginal_log_density(quartic_model, n, pts, -8.0, 8.0, n_grid)
            worst = max(worst, float(np.max(np.abs(got - want))))
    _report("brute-force-small-systems", worst <= 1e-6,
            time.perf_counter() - t0, 60.0, f"max abs err {worst:.2e}")


def test_chaos_scaling_law(chaos_scan):
    t0 = time.perf_counter()
    fit = fit_scaling([(n, chaos_scan[n][1].levels[1]) for n in SCAN_NS])
    lev = chaos_scan[128][1].levels
    ratios = [lev[k] / k**2 for k in range(1, 5)]
    quad_ok = max(ratios) / min(ratios) < 2.0
    ok = -2.2 <= fit.slope <= -1.8 and fit.r_squared >= 0.999 and quad_ok
    _report("chaos-scaling", ok,
            chaos_scan["elapsed"] + time.perf_counter() - t0, 300.0,
            f"slope {fit.slope:.4f}, r2 {fit.r_squared:.6f}, "
            f"k2-spread {max(ratios) / min(ratios):.3f}")


def test_entropy_bounds_hold_where_constants_apply(chaos_scan):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in SCAN_NS:
        _, levels, bundle = chaos_scan[n]
        if bundle is None or bundle.lambda_n <= 0:
            continue
        for k in range(1, 5):
            checked += 1
            ok &= levels.levels[k] <= chaos_bound_marginal(bundle, n, k) + 1e-12
            cond = conditional_entropy_level(levels, k)
            ok &= cond <= chaos_bound_conditional(bundle, n, k) + 1e-12
    _report("entropy-bounds", ok and checked > 0,
            time.perf_counter() - t0, 300.0, f"{checked} cells checked")


def test_conditional_levels_monotone(chaos_scan):
    t0 = time.perf_counter()
    ok = True
    for n in SCAN_NS:
        cond = [conditional_entropy_level(chaos_scan[n][1], k)
                for k in range(1, 5)]
        ok &= bool(np.all(np.diff(cond) >= -1e-10))
    _report("conditional-monotonicity", ok, time.perf_counter() - t0, 300.0)


def test_interaction_log_mgf_bound(quartic_model, gauss_model):
    t0 = time.perf_counter()
    J = quartic_model.coupling
    eps = min(J_CRIT / J - 1.0, 1.0) / 2.0
    var = tilted_measure(quartic_model, 0.0).second_moment
    rhs = jw_rhs(eps, J, var)
    ok = all(jw_log_mgf(quartic_model, n) <= rhs + 1e-9
             for n in (16, 64, 256))
    gauss_err = abs(jw_log_mgf(gauss_model, 16) + 0.5 * np.log(1 - 0.5))
    ok &= gauss_err <= 1e-8
    _report("interaction-log-mgf", ok, time.perf_counter() - t0, 30.0,
            f"gaussian err {gauss_err:.2e}")


def test_recursion_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    triples = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(1000, 3)))
    for rho, gamma, big_m in triples:
        for n in (10, 100):
            ok &= verify_upper_solution(rho, gamma, big_m, n).passed
    for n in range(2, 1025):
        for alpha in (0.0, 0.125, 0.25, 0.5):
            ok &= lemma51_coefficient_check(n, alpha).passed
    _report("recursion-certificates", ok, time.perf_counter() - t0, 10.0)


def test_inequality_scans_across_couplings():
    t0 = time.perf_counter()
    tilt_grid = np.concatenate([-np.geomspace(0.01, 3.0, 6)[::-1],
                                np.geomspace(0.01, 3.0, 6)])
    # The phi scan's tilts, whose magnetizations f(l) must cover [0.01, 3].
    phi_grid = np.geomspace(0.003, 50.0, 8)
    ok = True
    detail = []
    for frac, n in ((0.3, 128), (0.6, 128), (0.9, 1024)):
        model = curie_weiss_model(1.0, 1.0, frac * J_CRIT)
        law = build_mixture(model, n)
        bundle = curie_weiss_constants(law.reference, n)
        nlsi, llsi = lsi_scans(model, bundle, tilt_grid)
        h = tilted_measure(model, model.coupling * phi_grid).mean
        scans = {
            "nlsi": nlsi.passed,
            "llsi": llsi.passed,
            "phi": phi_positivity_scan(model, None, phi_grid).passed,
            "phi_span": h[0] <= 0.01 and h[-1] >= 3.0,
            "psi": psi_positivity_scan(
                model, 0.0, 0.0, np.geomspace(0.01, 3.0, 8)).passed,
            "t1": marginal_t1_ratio_scan(law, bundle, np.linspace(-0.5, 0.5, 5)).passed,
        }
        val = bolley_villani_moment_check(marginal_grid_density(law), bundle.lambda_n / 2.0)
        scans["bv"] = val <= np.sqrt(2.0) * np.exp(2.0 * bundle.delta_n)
        ok &= all(scans.values())
        detail.append(f"{frac:.1f}Jc:" + ("ok" if all(scans.values()) else
                      ",".join(k for k, v in scans.items() if not v)))
    _report("inequality-scans", ok, time.perf_counter() - t0, 120.0,
            " ".join(detail))


def test_sampler_matches_exact_marginal(quartic_model):
    t0 = time.perf_counter()
    n = 32
    kept = 1_000_000
    cfg = ChainConfig(n_particles=n, step_size=0.12, n_steps=kept + 50_000,
                      burn_in=50_000, seed=20240824)
    batch = run_chain(quartic_model, cfg)
    draws = batch.draws

    def batch_se(series, n_batches=1000):
        m = len(series) // n_batches
        means = series[:m * n_batches].reshape(n_batches, m).mean(axis=1)
        return float(means.std(ddof=1) / np.sqrt(n_batches))

    step_mean = draws.mean(axis=1)
    mean_ok = abs(step_mean.mean()) <= 3 * batch_se(step_mean)
    law = build_mixture(quartic_model, n)
    exact_var = marginal_moment(law, 2) - marginal_moment(law, 1) ** 2
    step_sq = (draws**2).mean(axis=1)
    var_ok = abs(step_sq.mean() - exact_var) <= 3 * batch_se(step_sq)

    # One coordinate per retained step, rotating particles so successive
    # samples come from different chains.
    idx = np.arange(0, kept, 10)
    coords = draws[idx, idx % n].reshape(-1, 1)
    reference = sample_marginal(law, len(coords), seed=99).reshape(-1, 1)
    est = kl_knn(coords, reference)
    kl_ok = est.value < 0.01 + 3 * est.standard_error
    _report("sampler-vs-exact-marginal", mean_ok and var_ok and kl_ok,
            time.perf_counter() - t0, 300.0,
            f"acc {batch.acceptance_rate:.2f}, mean {step_mean.mean():+.1e}, "
            f"var err {step_sq.mean() - exact_var:+.1e}, kl {est.value:.4f}")


def test_outputs_reproduce_byte_identically(tmp_path):
    t0 = time.perf_counter()
    ok = True
    for command, name, extra in (
            ("chaos-scan", "chaos_scan.csv", {"n_grid": [8, 16, 32], "k_max": 2}),
            ("jw", "jw.csv", {"n_grid": [16, 32]})):
        doc = {"command": command, "model":
               {"theta": 1.0, "sigma": 1.0, "J": 0.5 * J_CRIT},
               "seed": 3, "output_dir": str(tmp_path / command), **extra}
        cfg = parse_config(doc)
        run(cfg)
        first = (tmp_path / command / name).read_bytes()
        run(parse_config(json.loads(json.dumps(doc))))
        ok &= (tmp_path / command / name).read_bytes() == first
    _report("byte-identical-reruns", ok, time.perf_counter() - t0, 120.0)
