import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaoslab
from chaoslab.cli import fit_scaling, main, parse_config, run
from chaoslab.errors import ConfigError, DegenerateInput
from chaoslab.meanfield import LogPartition, magnetization
from chaoslab.model import curie_weiss_model
from conftest import H_STAR_SUPER, J_CRIT

MODEL = {"theta": 1.0, "sigma": 1.0, "J": 0.5 * J_CRIT}
GAUSS_NARROW = {"theta": 0.0, "sigma": 0.5, "J": 0.25}
# H_1 of perfbench's Gaussian probe (sigma = 1, J = 0.5) at N = 2^10 and 2^16,
# whose bits its h1_relerr_* metrics read against the closed form.  Level 1
# is frozen until an exact reference can tell a better sum from noise, so a
# change that moves these bits updates this pin and says why in CHANGES.md.
GAUSSIAN_PROBE_H1 = {1024: 2.3826347227054668e-07, 65536: 5.820706880105949e-11}


def _cfg(tmp_path, **over):
    doc = {"command": "chaos-scan", "model": dict(MODEL),
           "n_grid": [8, 16, 32], "k_max": 2, "seed": 1,
           "output_dir": str(tmp_path / "out")}
    doc.update(over)
    return doc


class TestConfigParsing:
    def test_missing_theta_names_field(self, tmp_path):
        doc = _cfg(tmp_path)
        del doc["model"]["theta"]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "model.theta"

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_cfg(tmp_path, command="frobnicate"))
        assert err.value.field == "command"

    def test_unsorted_n_grid(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_cfg(tmp_path, n_grid=[16, 8]))
        assert err.value.field == "n_grid"

    @pytest.mark.parametrize("n_grid", [[32, 32, 32], [8, 16, 16, 32]])
    def test_repeated_n_grid(self, tmp_path, n_grid):
        # A repeated N would feed the scaling fit one N twice.
        with pytest.raises(ConfigError) as err:
            parse_config(_cfg(tmp_path, n_grid=n_grid))
        assert err.value.field == "n_grid"

    def test_malformed_json_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["--config", str(p)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"

    def test_dimension_other_than_one_rejected(self, tmp_path):
        doc = _cfg(tmp_path)
        for dimension in (2, True):  # True == 1, but it is no integer
            doc["model"]["dimension"] = dimension
            with pytest.raises(ConfigError) as err:
                parse_config(doc)
            assert err.value.field == "model.dimension"
        doc["model"]["dimension"] = 1
        assert parse_config(doc).model.is_quartic

    def test_tolerances_block_rejected(self, tmp_path):
        doc = _cfg(tmp_path)
        doc["tolerances"] = {"abs_tol": 1e-8}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "tolerances"

    @pytest.mark.parametrize("command, block, key, field", [
        ("chaos-scan", None, "k_mx", "k_mx"),
        ("sample", None, "sead", "sead"),
        ("chaos-scan", "model", "dimesnion", "model.dimesnion"),
        ("sample", "chain", "thining", "chain.thining"),
        ("fixed-point", "chain", "n_step", "chain.n_step"),
    ], ids=["top-level", "top-level-sample", "model", "chain", "chain-unread"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command, block, key,
                                         field):
        # A misspelt field ran with its default: "k_mx": 4 scanned k = 1 only.
        doc = _cfg(tmp_path, command=command,
                   chain={"n_particles": 4, "step_size": 0.3, "n_steps": 200})
        (doc if block is None else doc[block])[key] = 4
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == field
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "ConfigError" and f"'{field}'" in out["message"]
        assert not (tmp_path / "out").exists()

    def test_sample_requires_chain_block(self, tmp_path):
        doc = _cfg(tmp_path, command="sample")
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field.startswith("chain")


class TestFitScaling:
    def test_exact_inverse_square(self):
        ns = np.array([8, 16, 32, 64])
        fit = fit_scaling(np.column_stack([ns, 3.7 / ns**2]))
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse(self):
        ns = np.array([8, 16, 32, 64])
        fit = fit_scaling(np.column_stack([ns, 0.2 / ns]))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DegenerateInput):
            fit_scaling([(8, 1.0), (16, 0.0), (32, 0.1)])

    def test_rejects_too_few(self):
        with pytest.raises(DegenerateInput):
            fit_scaling([(8, 1.0), (16, 0.5)])

    def test_rejects_too_few_distinct_n(self):
        # At one N the slope is undetermined, yet polyfit returns one.
        with pytest.raises(DegenerateInput):
            fit_scaling([(32, 1e-3), (32, 1.1e-3), (32, 0.9e-3)])
        with pytest.raises(DegenerateInput):
            fit_scaling([(8, 1e-2), (32, 1e-3), (32, 1.1e-3)])


class TestRun:
    def test_constants_command(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path, command="constants", n_grid=[128]))
        summary = run(cfg)
        assert summary["passed"]
        doc = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert doc["regime"] == "curie-weiss"
        assert doc["rho"] == pytest.approx(0.25)
        assert doc["coupling"] == MODEL["J"] and doc["n_particles"] == 128

    def test_fixed_point_command(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path, command="fixed-point"))
        summary = run(cfg)
        assert abs(summary["h_star"]) < 1e-9

    def test_fixed_point_command_supercritical(self, tmp_path):
        # Above J_c, h = 0 is an unstable fixed point: the command reports
        # the stable h_* > 0.
        doc = _cfg(tmp_path, command="fixed-point",
                   model=dict(MODEL, J=1.5 * J_CRIT))
        summary = run(parse_config(doc))
        assert summary["passed"]
        assert summary["h_star"] == pytest.approx(H_STAR_SUPER, abs=1e-8)
        out = json.loads((tmp_path / "out" / "fixed_point.json").read_text())
        assert out["h_star"] == summary["h_star"]

    def test_fixed_point_command_just_above_critical(self, tmp_path):
        # At 1.05 J_c the stable root is h_* = 0.4835: the command reports it
        # with a positive sign, as it does further above J_c.
        model = dict(MODEL, J=1.05 * J_CRIT)
        summary = run(parse_config(_cfg(tmp_path, command="fixed-point", model=model)))
        h_star = summary["h_star"]
        assert h_star == pytest.approx(0.4835, abs=1e-4)
        m = curie_weiss_model(MODEL["theta"], MODEL["sigma"], model["J"])
        assert magnetization(m, h_star) == pytest.approx(h_star, abs=1e-10)

    def test_chaos_scan_outputs(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path))
        summary = run(cfg)
        assert summary["passed"]
        csv = (tmp_path / "out" / "chaos_scan.csv").read_text().splitlines()
        assert csv[0] == ("N,k,H_exact,H_se,W2_sq,bound_marginal,"
                          "bound_conditional_sum,lambda_n,pass")
        assert csv[-1].startswith("# config_hash=")
        assert len(csv) == 1 + 3 * 2 + 1

    def test_chaos_scan_builds_one_kernel_per_n(self, tmp_path, monkeypatch):
        # Each N's levels, W2 and constants read the pi[0] of its mixture's
        # kernel.
        kernels = []
        init = LogPartition.__init__
        monkeypatch.setattr(LogPartition, "__init__",
                            lambda self, model: kernels.append(model) or init(self, model))
        cfg = parse_config(_cfg(tmp_path))
        assert run(cfg)["passed"]
        assert len(kernels) == len(cfg.n_grid)

    def test_gaussian_probe_level_one_is_pinned(self, tmp_path):
        doc = _cfg(tmp_path, model={"theta": 0.0, "sigma": 1.0, "J": 0.5},
                   n_grid=[1024, 65536], k_max=1)
        assert run(parse_config(doc))["passed"]
        rows = [row.split(",") for row in
                (tmp_path / "out" / "chaos_scan.csv").read_text().splitlines()[1:-1]]
        assert {int(row[0]): float(row[2]).hex() for row in rows} == {
            n: h.hex() for n, h in GAUSSIAN_PROBE_H1.items()}

    def test_jw_command(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path, command="jw", n_grid=[16]))
        assert run(cfg)["passed"]

    def test_jw_command_large_n(self, tmp_path):
        # The quartic log-MGF at N = 2^16, 0.9 J_c used to raise GridResolution.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, command="jw", n_grid=[65536],
                                     model=dict(MODEL, J=0.9 * J_CRIT))))
        assert main(["--config", str(p)]) == 0

    def test_sample_command(self, tmp_path):
        doc = _cfg(tmp_path, command="sample", n_grid=[])
        doc["chain"] = {"n_particles": 4, "step_size": 0.3, "n_steps": 500,
                        "burn_in": 100}
        summary = run(parse_config(doc))
        assert summary["n_kept"] == 400
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "samples.bin", "samples.bin.json"]

    @pytest.mark.parametrize("chain, seed, field", [
        ({"step_size": float("nan")}, 1, "chain.step_size"),
        ({"step_size": float("inf")}, 1, "chain.step_size"),
        ({"step_size": 0}, 1, "chain.step_size"),
        ({"thinning": 0}, 1, "chain.thinning"),
        ({"n_steps": float("nan")}, 1, "chain.n_steps"),
        ({}, -1, "seed"),
        ({"n_particles": 8.7}, 1, "chain.n_particles"),
        ({"n_particles": True}, 1, "chain.n_particles"),
        ({"n_steps": 20.9}, 1, "chain.n_steps"),
        ({"burn_in": "10"}, 1, "chain.burn_in"),
        ({"step_size": "0.1"}, 1, "chain.step_size"),
        ({"step_size": True}, 1, "chain.step_size"),
        ({"thinning": 2.5}, 1, "chain.thinning"),
        ({"n_steps": 20, "thinning": 50}, 1, "chain.thinning"),
        ({"algorithm": 5}, 1, "chain.algorithm"),
        ({"n_particles": 2**20 + 1}, 1, "chain.n_particles"),
        ({"n_particles": 1e13}, 1, "chain.n_particles"),
        pytest.param({}, 2**128, "seed", id="seed-2**128"),
        pytest.param({}, 1e40, "seed", id="seed-1e40"),
    ])
    def test_bad_chain_setting_is_config_error(self, tmp_path, capsys, chain, seed, field):
        # parse_config alone rejects the chain, so no output directory is made.
        doc = _cfg(tmp_path, command="sample", n_grid=[], seed=seed)
        doc["chain"] = {"n_particles": 4, "step_size": 0.3, "n_steps": 200, **chain}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == field
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "ConfigError" and f"'{field}'" in out["message"]
        assert not (tmp_path / "out").exists()

    def test_largest_seed_builds_the_chain(self, tmp_path):
        doc = _cfg(tmp_path, command="sample", n_grid=[], seed=2**128 - 1)
        doc["chain"] = {"n_particles": 4, "step_size": 0.3, "n_steps": 200}
        assert parse_config(doc).chain.seed == 2**128 - 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = parse_config(_cfg(tmp_path, output_dir=str(tmp_path / "a")))
        cfg_b = parse_config(_cfg(tmp_path, output_dir=str(tmp_path / "b")))
        run(cfg_a)
        run(cfg_b)
        a = (tmp_path / "a" / "chaos_scan.csv").read_bytes()
        b = (tmp_path / "b" / "chaos_scan.csv").read_bytes()
        # Differing output_dir changes the config hash line; compare rows.
        assert a.splitlines()[:-1] == b.splitlines()[:-1]
        run(cfg_a)
        assert (tmp_path / "a" / "chaos_scan.csv").read_bytes() == a


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, command="fixed-point")))
        rc = main(["--config", str(p)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["command"] == "fixed-point"

    def test_seed_override(self, tmp_path, capsys):
        doc = _cfg(tmp_path, command="sample", n_grid=[])
        doc["chain"] = {"n_particles": 4, "step_size": 0.3, "n_steps": 200}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "--seed", "7"]) == 0

    @pytest.mark.parametrize("over, flag", [({"seed": -1}, "--seed"), ({"seed": 1.5}, "--seed"),
                                            ({"output_dir": 5}, "--output-dir")])
    def test_overrides_are_checked_after_they_apply(self, tmp_path, capsys, over, flag):
        # A bad value in the file that a flag replaces is never read.
        doc = _cfg(tmp_path, command="sample", n_grid=[], **over)
        doc["chain"] = {"n_particles": 4, "step_size": 0.3, "n_steps": 200}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        value = "3" if flag == "--seed" else str(tmp_path / "out")
        assert main(["--config", str(p), flag, value]) == 0
        assert (tmp_path / "out" / "samples.bin").exists()

    def test_threads_flag_removed(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, command="fixed-point")))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(p), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        doc = _cfg(tmp_path, command="constants", n_grid=[128])
        doc["model"]["J"] = 3 * J_CRIT  # supercritical
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p)]) == 2

    @pytest.mark.parametrize("command, over, field", [
        ("chaos-scan", {"n_grid": [0, 8, 16]}, "n_grid"),
        ("chaos-scan", {"n_grid": "abc"}, "n_grid"),
        ("jw", {"n_grid": [8.5]}, "n_grid"),
        ("chaos-scan", {"k_max": "two"}, "k_max"),
        ("chaos-scan", {"k_max": 9}, "k_max"),
        ("chaos-scan", {"n_grid": [2, 4], "k_max": 3}, "k_max"),
        ("fixed-point", {"seed": 1.5}, "seed"),
        ("chaos-scan", {"model": dict(MODEL, J="x")}, "model.J"),
        ("constants", {"model": dict(MODEL, sigma=float("nan"))}, "model.sigma"),
        ("fixed-point", {"model": dict(MODEL, theta=-1)}, "model.theta"),
        ("fixed-point", {"model": dict(MODEL, theta=0, sigma=0)}, "model.sigma"),
        ("chaos-scan", {"model": dict(MODEL, J=-1)}, "model.J"),
        ("jw", {"model": dict(MODEL, J=-1)}, "model.J"),
        ("verify", {"model": dict(MODEL, J=0)}, "model.J"),
        ("jw", {"n_grid": [2**20 + 1]}, "n_grid"),
        ("chaos-scan", {"model": "theta sigma J"}, "model"),
        ("sample", {"n_grid": [], "chain": "n_particles step_size n_steps"}, "chain"),
        ("fixed-point", {"output_dir": 5}, "output_dir"),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, command, over,
                                              field):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, command=command, **over)))
        assert main(["--config", str(p)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "ConfigError" and f"'{field}'" in out["message"]
        assert not (tmp_path / "out").exists()

    def test_document_not_an_object_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(["command"]))
        assert main(["--config", str(p)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "ConfigError" and "'<document>'" in out["message"]

    @pytest.mark.parametrize("command", ["chaos-scan", "jw", "constants", "verify"])
    def test_supercritical_is_typed_error(self, tmp_path, capsys, command):
        p = tmp_path / "cfg.json"
        gaussian = {"theta": 0.0, "sigma": 1.0, "J": 1.5}
        for model in (dict(MODEL, J=1.5 * J_CRIT), gaussian):
            doc = _cfg(tmp_path, command=command, model=model, n_grid=[64, 128, 256],
                       k_max=1)
            p.write_text(json.dumps(doc))
            assert main(["--config", str(p)]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == "Supercritical"

    @pytest.mark.parametrize("command", ["chaos-scan", "jw", "constants", "verify"])
    def test_supercritical_writes_no_file(self, tmp_path, command):
        # The Gaussian raises from its first mixture or its pi[0], the quartic
        # from its first pi[0] check: before any output is written.
        gaussian = {"theta": 0.0, "sigma": 1.0, "J": 1.5}
        for model in (dict(MODEL, J=1.5 * J_CRIT), gaussian):
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(_cfg(tmp_path, command=command, model=model,
                                         n_grid=[64, 128, 256], k_max=1)))
            assert main(["--config", str(p)]) == 2
            assert list((tmp_path / "out").iterdir()) == []

    def test_gaussian_sigma_below_one_chaos_scan_has_no_bound(self, tmp_path):
        # rho0 of the Curie-Weiss bundle tends to 0 as theta -> 0+, so there
        # is no bound: NaN columns, and the levels alone decide the pass.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, model=GAUSS_NARROW)))
        assert main(["--config", str(p)]) == 0
        rows = (tmp_path / "out" / "chaos_scan.csv").read_text().splitlines()[1:-1]
        assert len(rows) == 3 * 2
        for row in rows:
            assert row.split(",")[5:8] == ["nan", "nan", "nan"]

    def test_level_above_a_tiny_bound_fails(self, tmp_path, capsys):
        # At J = 1e-12 the bounds are near 1e-28, and the levels have lost
        # their digits (H_1 reads 3.75e-28 against a bound of 1.37e-28 at
        # N = 1024): an absolute slack of 1e-12 passed both rows.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, model=dict(MODEL, J=1e-12),
                                     n_grid=[1024, 2048, 4096], k_max=1)))
        assert main(["--config", str(p)]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        rows = [row.split(",") for row in
                (tmp_path / "out" / "chaos_scan.csv").read_text().splitlines()[1:-1]]
        fails = {int(row[0]): row for row in rows if row[-1] == "0"}
        assert set(fails) >= {1024, 4096}
        for row in fails.values():
            assert float(row[2]) > float(row[5])

    def test_log_mgf_above_a_tiny_bound_fails(self, tmp_path, capsys, monkeypatch):
        # At J = 1e-12 the bound is about 5.6e-12: a log-MGF ten times above
        # it must fail, where an absolute slack of 1e-9 passed it.
        monkeypatch.setattr(chaoslab.verify, "jw_log_mgf", lambda model, N: 5.6e-11)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, command="jw", model=dict(MODEL, J=1e-12),
                                     n_grid=[16])))
        assert main(["--config", str(p)]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        (row,) = (tmp_path / "out" / "jw.csv").read_text().splitlines()[1:-1]
        N, lhs, rhs, passed = row.split(",")
        assert passed == "0" and 5.0 * float(rhs) < float(lhs) < 20.0 * float(rhs)

    def test_zero_entropy_level_is_typed_error(self, tmp_path, capsys):
        # At J = 1e-30 level 1 reads 0.0: the scan stops before it writes
        # rows with H = 0 that would pass every bound.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, model=dict(MODEL, J=1e-30),
                                     n_grid=[1024, 2048, 4096], k_max=1)))
        assert main(["--config", str(p)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "GridResolution"
        assert not (tmp_path / "out" / "chaos_scan.csv").exists()

    @pytest.mark.parametrize("command", ["constants", "verify"])
    def test_gaussian_sigma_below_one_is_typed_error(self, tmp_path, capsys, command):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_cfg(tmp_path, command=command, model=GAUSS_NARROW,
                                     n_grid=[128])))
        assert main(["--config", str(p)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "RegimeViolation"


@pytest.mark.parametrize("command, n_grid", [("chaos-scan", [8, 32, 128]),
                                              ("verify", [64])])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, command, n_grid):
    # The same run on 1 and on 3 BLAS/OpenMP threads writes the same bytes:
    # no output may depend on how a BLAS product splits its work.
    src = str(Path(chaoslab.__file__).resolve().parents[1])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cfg(tmp_path, command=command, n_grid=n_grid)))
    outputs = []
    for threads in ("1", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                if p]))
        subprocess.run([sys.executable, "-m", "chaoslab.cli", "--config", str(cfg)],
                       env=env, capture_output=True, check=True, timeout=300)
        outdir = tmp_path / "out"
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


def _fresh_import(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this checkout."""
    src = str(Path(chaoslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.strip()


def test_cli_import_leaves_heavy_scipy_modules_out():
    # scipy.signal (and the scipy.stats it pulls in) cost about 0.8 s of a
    # fresh `import chaoslab.cli`; nothing in the package needs them.
    assert _fresh_import(
        "import sys, chaoslab.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    ) == "[]"


def test_numerics_import_leaves_scipy_integrate_out():
    # The library's integrals are log-trapezoids; adaptive quadrature lives
    # only in the test oracles.
    assert _fresh_import(
        "import sys, chaoslab.numerics; print('scipy.integrate' in sys.modules)") == "False"


_MODULES = ("bounds", "cli", "errors", "marginals", "meanfield", "model", "numerics",
            "sampler", "verify")


def test_cli_import_loads_no_scipy_module():
    # numpy is the library's only runtime dependency: importing every module
    # loads no scipy module (scipy is for the tests and perfbench).
    imports = "; ".join(f"import chaoslab.{m}" for m in _MODULES)
    assert _fresh_import(
        f"import sys; {imports}; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))") == "[]"


@pytest.mark.parametrize("name", ["chaoslab"] + [
    f"chaoslab.{m}" for m in _MODULES if m != "errors"])
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    if name == "chaoslab.cli":
        assert "parse_config" in module.__all__
