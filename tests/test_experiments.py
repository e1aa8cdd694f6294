import hashlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from cascadim import Subshift, experiments
from cascadim.cli import main
from cascadim.errors import CascadimError, ConfigError
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

    @pytest.mark.parametrize(
        "cfg, survival",
        [
            # s_16 = 2.0e-4: about 160k draws for 32 trials
            ({"experiment": "cascade-dim", "p": 0.3}, "0.0002"),
            ({"experiment": "perc-image-dim", "p": 0.4}, "0.00032"),
            ({"experiment": "sumset-dim", "p_a": 0.3}, "0.00018"),
        ],
    )
    def test_hopeless_survival_refused_before_drawing(self, monkeypatch, cfg, survival):
        def draw(*args):
            raise AssertionError("drew realizations")

        monkeypatch.setattr(experiments, "_collect_surviving", draw)
        with pytest.raises(CascadimError, match=f"probability {survival} < 1e-3"):
            run_experiment(cfg)

    def test_survival_recursion(self):
        # full 2-shift, one type: s_n = 1 - (1 - p s_{n-1})^2
        s = 1.0
        for _ in range(10):
            s = 1.0 - (1.0 - 0.55 * s) ** 2
        assert experiments._survival(Subshift.full(2).successor_table(), 0.55, 10) == pytest.approx(s, rel=1e-12)
        # golden mean: after a 1 both letters may follow, after a 2 only a 1
        q1 = q2 = 1.0
        for _ in range(18):
            q1, q2 = 1.0 - (1.0 - 0.8 * q1) * (1.0 - 0.8 * q2), 0.8 * q1
        assert experiments._survival(Subshift.golden_mean().successor_table(), 0.8, 18) == pytest.approx(q1, rel=1e-12)

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
            {"experiment": "cascade-dim", "p": 0.3},
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


_EXACT_OVERLAP = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]]


class TestReportPins:
    """sha256 of report.json (runtime masked), scales.csv and plot.svg per report mode.

    Each small config runs through ``cascadim.cli.main`` with ``--plot``; a
    report that changes a target, check, verdict, fit row or plotted series
    changes its digests.  The digests were taken from the runners that each
    assembled their own report.
    """

    PINS = {
        "cascade-percolation": (
            {"experiment": "cascade-dim", "depth": 10, "trials": 4, "seed": 11},
            0,
            "9422e8b8123abcc8f82e1b25b479db2a1bee9164e894754f80425fce8f4b9648",
            "c8fc1b42176adf8dcf072acf185d1785afe779aaf8834375e81d4d63ce0ba25c",
            "d85001f6d24eb38f67043a7c6c7a5e14a0a29385bd5518403f8d3158b424df74",
        ),
        "cascade-lognormal": (
            {"experiment": "cascade-dim", "law": "lognormal", "sigma": 0.5, "depth": 10, "trials": 4, "seed": 11},
            0,
            "a96fac859ecf48340d4b0557d9e8f45f03691ec5b40c4c9860a77440528a712a",
            "6147046f1824a3fcdf7600da7424bb998949e0b8b70a2c84fe6d2c754aa88828",
            "50331b70c6acf4004340236c4b44ee7ef7c35ede160521178403fb4c4aedba40",
        ),
        "image-additive": (
            {"experiment": "perc-image-dim", "depth": 10, "trials": 4, "gamma_nmax": 8, "seed": 3},
            0,
            "bbe61716936d568a69d68e2b0bd039badc3bf3ee9208c42794a0c47ebf00d91f",
            "31c1b2a56050fa0e53f704cc8b686d95d8fe0ed997540c4785f3ab822c649279",
            "70a71e21fa3ceeea64c152fcefb3ff43e52df1310e83306074916eb3c6ba09ab",
        ),
        "image-overlap-example": (
            {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full", "ifs": _EXACT_OVERLAP,
             "p": 0.8, "depth": 10, "trials": 4, "gamma_nmax": 8, "seed": 3},
            0,
            "93d0ed6ce9431bc3128bd3738ade9c3acc3c9ccf12733ed44dd5fde930bdad39",
            "024c67145fc0cda452639796578b596c71193b90ee16caad61f4c6d4bf4246a6",
            "bcd0a41df8cfea80eb2a0e2c6e27daea2cdac2b44f16f9e665593f0319e850a1",
        ),
        "image-bound-only": (
            {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full",
             "ifs": [[0.5, 0.0], [0.5, 0.1], [0.5, 0.5]], "p": 0.9, "depth": 10, "trials": 4,
             "gamma_nmax": 8, "seed": 3},
            0,
            "8f5620e4c37dc1d0075217d90b2d2754be4a2a8cf69eb870963f3f28dcd32e43",
            "a3e7a6630bd5861f1714d33f036751c43068b6f272a5ce149ecef3642e59e755",
            "2e401bb07277bf593367ac52aabc6b31469000a5503d7239a73dec220696b82a",
        ),
        "sumset": (
            {"experiment": "sumset-dim", "depth_a": 10, "depth_b": 6, "trials": 3, "seed": 5},
            0,
            "3f04809c597eedeaae96998508199992fd604c2382dcabe44ec786460dc11b34",
            "a4ff5fac987ee272812b40a6913cb234718ca9adac43b3e54dc431559606e4fc",
            "7356b2acc64b6e44d590a5a45de02f8b2c37acd6900bb7441ad3d419197aaada",
        ),
        "sumset-advisory": (
            # log 2 / log 4 = 1/2 is rational: the verdict is advisory
            {"experiment": "sumset-dim", "alphabet_b": 4, "depth_a": 10, "depth_b": 5, "p_b": 0.5,
             "trials": 4, "seed": 5},
            0,
            "b30e17aa3b2caed535704b7e2f5680f9b00793cc5392df08b2275024dcff464e",
            "d8191858e79e4beedc333f70c5bb036dfdc4e88cbb457789d3a9877e3fd62507",
            "8c861b60c80f7b3bce7028511c79edb035a96a0ebb5b73569aa575165faf58f2",
        ),
        "projection-sampled": (
            # 2^10 * 3^6 pairs against an atom cap of 20,000: the sampled product
            {"experiment": "projection-scan", "depth_a": 10, "depth_b": 6, "s_grid": [-0.5, 1.0],
             "atom_cap": 20000, "sample_size": 500, "seed": 7},
            2,
            "8e83a785f72571b1cd9f405a06a3ae9ba423b1e2acca8b2284c1aaa17cc348f3",
            "52e91a6b9187656f4c9732785e67981fd0fe2a5e5aee564da49a4a1e063f9df2",
            "6efc3431cf297b3cf6398a531b084cd3397fa3fa9b4d2bd0dc6660693ee7e468",
        ),
        "bconv": (
            {"experiment": "bconv", "depth": 10, "atom_cap": 20000, "sample_size": 500, "seed": 7},
            0,
            "c3e87cbd068800eac2b0e8f2369e305d75beae1d0e2ec55abe31950671c475a4",
            "d58cb2f8d35cadb552e56dde5d6ce9e767e1e62f606cd95bc5739161274866ce",
            "2c092f75d34ccab5fab07664426e8a3377497fb38f2510df8690093647b800cc",
        ),
        "bconv-advisory": (
            {"experiment": "bconv", "beta_a": 1 / 3, "beta_b": 1 / 3, "depth": 10, "atom_cap": 20000,
             "sample_size": 500, "seed": 7},
            2,
            "8294b35c70261dc0ba427a5e3b3bf5dff4a6e25d44223d9688ef3f9f4ea12a84",
            "c9158e1e288ee9e1ad9eab4f9b9e5c6f8b889ab68c23619b30c104880079ea78",
            "4c521f5e38e5875f6bbe9a459b9f12c87cd63818e79370e2fdf8e4a93658dbf9",
        ),
        "gamma": (
            {"experiment": "gamma", "n_max": 8},
            0,
            "865cfc705f2230373ee9adc0a1987bfe6dd54c3c6f9e9121a1b406ba6b356b29",
            "7c38485fb848d65d7c870c6c8e45cc1ef50ed3ba51a75837f6c96d9af86c017c",
            "2d4e2fefe1a6fcad42780f68d8043911532987f0602e04b3651d5cd5a095c4a3",
        ),
    }

    @pytest.mark.parametrize("name", list(PINS), ids=list(PINS))
    def test_report_digest(self, name, tmp_path):
        cfg, code, *digests = self.PINS[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([cfg["experiment"], "--config", str(path), "--out", str(out), "--plot"]) == code
        files = [_mask_runtime((out / "report.json").read_text()).encode()]
        files += [(out / f).read_bytes() for f in ("scales.csv", "plot.svg")]
        assert [hashlib.sha256(f).hexdigest() for f in files] == digests
        verdict = json.loads((out / "report.json").read_text())["verdict"]
        assert verdict.startswith("advisory-") == name.endswith("-advisory")
        if name == "sumset-advisory":
            assert verdict == "advisory-pass"
