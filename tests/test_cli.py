import json

import numpy as np
import pytest

from chaoslab.cli import fit_scaling, load_config, main, parse_config, run
from chaoslab.errors import ConfigError, DegenerateInput
from conftest import J_CRIT

MODEL = {"theta": 1.0, "sigma": 1.0, "J": 0.5 * J_CRIT}


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

    def test_malformed_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_dimension_other_than_one_rejected(self, tmp_path):
        doc = _cfg(tmp_path)
        doc["model"]["dimension"] = 2
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "model.dimension"
        doc["model"]["dimension"] = 1
        assert parse_config(doc).model["dimension"] == 1

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


class TestRun:
    def test_constants_command(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path, command="constants", n_grid=[128]))
        summary = run(cfg)
        assert summary["passed"]
        doc = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert doc["regime"] == "curie-weiss"
        assert doc["rho"] == pytest.approx(0.25)

    def test_fixed_point_command(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path, command="fixed-point"))
        summary = run(cfg)
        assert abs(summary["h_star"]) < 1e-9

    def test_chaos_scan_outputs(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path))
        summary = run(cfg)
        assert summary["passed"]
        csv = (tmp_path / "out" / "chaos_scan.csv").read_text().splitlines()
        assert csv[0] == ("N,k,H_exact,H_se,W2_sq,bound_marginal,"
                          "bound_conditional_sum,lambda_n,pass")
        assert csv[-1].startswith("# config_hash=")
        assert len(csv) == 1 + 3 * 2 + 1

    def test_jw_command(self, tmp_path):
        cfg = parse_config(_cfg(tmp_path, command="jw", n_grid=[16]))
        assert run(cfg)["passed"]

    def test_sample_command(self, tmp_path):
        doc = _cfg(tmp_path, command="sample", n_grid=[])
        doc["chain"] = {"n_particles": 4, "step_size": 0.3, "n_steps": 500,
                        "burn_in": 100}
        summary = run(parse_config(doc))
        assert summary["n_kept"] == 400
        assert (tmp_path / "out" / "samples.bin").exists()

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
