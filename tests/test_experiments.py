import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from cascadim.errors import ConfigError
from cascadim.experiments import (
    load_config,
    rational_approximation,
    run_experiment,
    validate_config,
)

SMALL_CASCADE = {
    "experiment": "cascade-dim",
    "seed": 11,
    "trials": 5,
    "depth": 10,
}


def _mask_runtime(text: str) -> str:
    return re.sub(r'"runtime_s": [0-9.eE+-]+', '"runtime_s": X', text)


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"experiment": "cascade-dim", "dept": 12})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config({"experiment": "nope"})

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="missing key"):
            validate_config({"depth": 12})

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match="type"):
            validate_config({"experiment": "cascade-dim", "depth": "twelve"})

    def test_probability_range(self):
        with pytest.raises(ConfigError, match="p"):
            validate_config({"experiment": "cascade-dim", "p": 1.5})

    @pytest.mark.parametrize(
        "extra, match",
        [
            ({"experiment": "cascade-dim", "alphabet": 1}, "alphabet"),
            ({"experiment": "projection-scan", "probs_a": [0.5]}, "probability vector"),
            ({"experiment": "cascade-dim", "base_probs": [0.7, 0.7]}, "probability vector"),
            ({"experiment": "sumset-dim", "s_values": ["x"]}, "list of numbers"),
            ({"experiment": "perc-image-dim", "subshift": [[1, "a"], [1, 1]]}, "list of lists"),
            ({"experiment": "cascade-dim", "trials": None}, "null"),
            ({"experiment": "cascade-dim", "depth": None}, "null"),
            ({"experiment": "perc-image-dim", "gamma_nmax": 2}, "gamma_nmax"),
            ({"experiment": "gamma", "n_max": 2}, "n_max"),
            ({"experiment": "bconv", "beta_a": 1.5}, "beta_a"),
            ({"experiment": "projection-scan", "atom_cap": 0}, "atom_cap"),
            ({"experiment": "bconv", "atom_cap": -3}, "atom_cap"),
            ({"experiment": "bconv", "sample_size": -5}, "sample_size"),
            ({"experiment": "projection-scan", "sample_size": -1}, "sample_size"),
            ({"experiment": "sumset-dim", "s_values": []}, "s_values"),
            ({"experiment": "projection-scan", "s_grid": []}, "s_grid"),
            ({"experiment": "bconv", "sample_size": 1}, "sample_size"),
            ({"experiment": "projection-scan", "sample_size": 1}, "sample_size"),
            ({"experiment": "sumset-dim", "s_values": [float("nan")]}, "finite"),
            ({"experiment": "gamma", "tolerance": float("nan")}, "finite"),
            ({"experiment": "gamma", "tolerance": -1}, "tolerance"),
            ({"experiment": "perc-image-dim", "ifs": [[0.5, 0.0], [0.5, float("inf")]]}, "finite"),
            ({"experiment": "cascade-dim", "p": float("-inf")}, "finite"),
        ],
    )
    def test_bad_values_rejected(self, extra, match):
        with pytest.raises(ConfigError, match=match):
            validate_config(extra)

    def test_defaults_applied(self):
        cfg = validate_config({"experiment": "cascade-dim"})
        assert cfg["depth"] == 16
        assert cfg["trials"] == 32
        assert cfg["tolerance"] == 0.06

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestRationalityCheck:
    def test_equal_logs_detected(self):
        assert rational_approximation(math.log(1 / 3) / math.log(1 / 3)) == (1, 1)

    def test_exact_fraction_detected(self):
        assert rational_approximation(3 / 7) == (3, 7)

    def test_log2_over_log3_not_flagged(self):
        assert rational_approximation(math.log(2) / math.log(3)) is None

    def test_denominator_cap(self):
        # 1/97 is rational but beyond the q <= 50 search window
        assert rational_approximation(1 / 97, max_den=50) is None
        assert rational_approximation(1 / 97, max_den=100) == (1, 97)


class TestReports:
    def test_report_fields_schema(self, tmp_path):
        rep = run_experiment(SMALL_CASCADE)
        rep.write(tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        for key in (
            "experiment",
            "params",
            "seed",
            "target",
            "estimate",
            "verdict",
            "discarded_seeds",
            "runtime_s",
        ):
            assert key in data
        assert set(data["target"]) >= {"value", "formula"}
        assert set(data["estimate"]) == {"value", "stderr"}
        csv = (tmp_path / "scales.csv").read_text().splitlines()
        assert csv[0] == "trial,label,scale,observable"
        assert len(csv) > 1

    def test_outputs_reproducible(self, tmp_path):
        run_experiment(SMALL_CASCADE).write(tmp_path / "a")
        run_experiment(dict(SMALL_CASCADE)).write(tmp_path / "b")
        csv_a = (tmp_path / "a" / "scales.csv").read_bytes()
        csv_b = (tmp_path / "b" / "scales.csv").read_bytes()
        assert csv_a == csv_b
        rep_a = _mask_runtime((tmp_path / "a" / "report.json").read_text())
        rep_b = _mask_runtime((tmp_path / "b" / "report.json").read_text())
        assert rep_a == rep_b

    def test_threads_do_not_change_results(self, tmp_path):
        serial = dict(SMALL_CASCADE)
        parallel = dict(SMALL_CASCADE, threads=4)
        run_experiment(serial).write(tmp_path / "s")
        run_experiment(parallel).write(tmp_path / "p")
        assert (tmp_path / "s" / "scales.csv").read_bytes() == (tmp_path / "p" / "scales.csv").read_bytes()
        rep_s = json.loads((tmp_path / "s" / "report.json").read_text())
        rep_p = json.loads((tmp_path / "p" / "report.json").read_text())
        assert rep_s["estimate"] == rep_p["estimate"]
        assert rep_s["per_trial"] == rep_p["per_trial"]
        assert rep_s["discarded_seeds"] == rep_p["discarded_seeds"]

    def test_plot_written_when_asked(self, tmp_path):
        rep = run_experiment(SMALL_CASCADE)
        rep.write(tmp_path, plot=True)
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_discard_rate_matches_extinction(self):
        # survival conditioning: discards follow the Galton-Watson recursion
        p, depth, trials = 0.55, 10, 60
        rep = run_experiment(
            {"experiment": "cascade-dim", "p": p, "depth": depth, "trials": trials, "seed": 4}
        )
        s = 1.0
        for _ in range(depth):
            s = 1.0 - (1.0 - p * s) ** 2
        draws = trials + rep.discarded_seeds
        se = math.sqrt(s * (1 - s) / draws)
        assert abs(trials / draws - s) < 4 * se

    def test_gamma_report_has_counts(self):
        rep = run_experiment(
            {"experiment": "gamma", "alphabet": 2, "subshift": "full", "ifs": "tiling",
             "n_max": 8, "expect_gamma": 0.0}
        )
        assert rep.passed
        assert rep.extra["overlap_counts"][1] == 4

    def test_perc_image_bound_only_mode(self):
        # overlapping system that is not the known exact-overlap pair:
        # falls back to checking the covering upper bound
        rep = run_experiment(
            {
                "experiment": "perc-image-dim",
                "alphabet": 3,
                "subshift": "full",
                "ifs": [[0.5, 0.0], [0.5, 0.1], [0.5, 0.5]],
                "p": 0.9,
                "depth": 10,
                "trials": 4,
                "gamma_nmax": 8,
                "seed": 3,
            }
        )
        assert rep.target["mode"] in ("bound-only", "additive")
        if rep.target["mode"] == "bound-only":
            assert rep.estimate["value"] <= rep.target["value"] + 0.1

    @pytest.mark.parametrize("p, mode", [(0.8, "overlap-example"), (0.7, "bound-only")])
    def test_perc_image_exact_overlap_target(self, p, mode):
        # {x/2, x/2, x/2 + 1/2}: preimage counts branch supercritically when
        # log(2p) + log(p) > 0, and the image then has dimension 1; below
        # that (2p^2 = 0.98 at p = 0.7) only the covering bound is checked
        rep = run_experiment(
            {
                "experiment": "perc-image-dim",
                "alphabet": 3,
                "subshift": "full",
                "ifs": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]],
                "p": p,
                "depth": 10,
                "trials": 4,
                "seed": 3,
            }
        )
        assert rep.target["mode"] == mode
        if mode == "overlap-example":
            assert rep.target["value"] == 1.0
            assert "supercritical" in rep.target["formula"]
            assert rep.warnings == []
        else:
            assert rep.target["value"] == rep.extra["covering_bound"]
            assert any("subcritical preimage branching" in w for w in rep.warnings)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "cascadim.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_pass_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gamma", "alphabet": 2, "subshift": "full",
                                   "ifs": "tiling", "n_max": 6, "expect_gamma": 0.0}))
        out = self._run("gamma", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "scales.csv").exists()

    def test_fail_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gamma", "alphabet": 2, "subshift": "full",
                                   "ifs": "tiling", "n_max": 6, "expect_gamma": 0.8}))
        out = self._run("gamma", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert out.returncode == 2

    def test_config_error_exit_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gamma", "bogus": 1}))
        out = self._run("gamma", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert out.returncode == 1
        assert "unknown key" in out.stderr

    @pytest.mark.parametrize(
        "cfg",
        [
            {"experiment": "cascade-dim", "alphabet": 1},
            {"experiment": "projection-scan", "probs_a": [0.5]},
            {"experiment": "sumset-dim", "s_values": ["x"]},
            {"experiment": "cascade-dim", "law": "lognormal", "sigma": -1},
            {"experiment": "perc-image-dim", "gamma_nmax": 2},
            {"experiment": "gamma", "n_max": 2},
            {"experiment": "bconv", "beta_a": 1.5},
            {"experiment": "perc-image-dim", "subshift": [[1, 2], [1, 1]]},
            {"experiment": "cascade-dim", "trials": None},
            {"experiment": "cascade-dim", "depth": None},
            # subcritical: almost every realization is extinct at depth 16
            {"experiment": "cascade-dim", "p": 0.3, "trials": 1},
            {"experiment": "projection-scan", "atom_cap": 0},
            {"experiment": "bconv", "atom_cap": -3},
            {"experiment": "bconv", "sample_size": -5},
            {"experiment": "perc-image-dim", "ifs": [[0.5]]},
            {"experiment": "gamma", "ifs": [[1.5, 0.0], [0.5, 0.5]]},
            {"experiment": "sumset-dim", "s_values": []},
            {"experiment": "projection-scan", "s_grid": []},
            {"experiment": "bconv", "sample_size": 1},
            # json.dumps writes these as NaN and Infinity, which json.load accepts
            {"experiment": "sumset-dim", "s_values": [float("nan")]},
            {"experiment": "gamma", "tolerance": float("nan")},
            {"experiment": "gamma", "tolerance": -1},
            {"experiment": "perc-image-dim", "ifs": [[0.5, 0.0], [0.5, float("inf")]]},
        ],
    )
    def test_bad_config_one_error_line(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = self._run(cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 1
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr

    def test_subcommand_config_mismatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gamma"}))
        out = self._run("cascade-dim", "--config", str(cfg))
        assert out.returncode == 1

    def test_overrides_apply(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "cascade-dim", "depth": 9, "trials": 3}))
        out = self._run(
            "cascade-dim", "--config", str(cfg), "--seed", "5", "--trials", "2",
            "--out", str(tmp_path / "out")
        )
        assert out.returncode == 0, out.stderr
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["seed"] == 5
        assert data["params"]["trials"] == 2

    def test_cross_process_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "cascade-dim", "depth": 9, "trials": 3, "seed": 12}))
        for sub in ("a", "b"):
            out = self._run("cascade-dim", "--config", str(cfg), "--out", str(tmp_path / sub))
            assert out.returncode == 0, out.stderr
        assert (tmp_path / "a" / "scales.csv").read_bytes() == (tmp_path / "b" / "scales.csv").read_bytes()
        rep_a = _mask_runtime((tmp_path / "a" / "report.json").read_text())
        rep_b = _mask_runtime((tmp_path / "b" / "report.json").read_text())
        assert rep_a == rep_b
