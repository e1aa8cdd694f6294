import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadim import KeyedRng, Subshift, WeightLaw, cli, experiments, ifs as ifs_module
from cascadim.cli import main
from cascadim.dimension import entropy_dimension
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


def _src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, for a subprocess."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _mask_runtime(text: str) -> str:
    return re.sub(r'"runtime_s": [0-9.eE+-]+', '"runtime_s": X', text)


# every integer key of every schema but three sizes something and must be
# bounded: a seed is masked to 64 bits, threads are capped by the core count,
# and a large trial count costs only time
SIZE_KEYS = [
    (name, key)
    for name, exp in experiments.EXPERIMENTS.items()
    for key, (types, _, _) in {**experiments._COMMON, **exp["schema"]}.items()
    if int in (types if isinstance(types, tuple) else (types,)) and key not in ("seed", "threads", "trials")
]

# every key of every schema, with the keys that select it: a law's keys follow
# their law, and a discrete law's other key takes a valid value
LAW_CONFIGS = {"percolation": {}, "lognormal": {}, "discrete": {"values": [1.0], "probs": [1.0]}}
SCHEMA_KEYS = [pytest.param(name, {}, key, id=f"{name}-{key}") for name, exp in experiments.EXPERIMENTS.items()
               for key in {**experiments._COMMON, **exp["schema"]}] + [
    pytest.param(name, {"law": law, **LAW_CONFIGS[law]}, key, id=f"{name}-{law}-{key}")
    for name, exp in experiments.EXPERIMENTS.items() if "law" in exp["schema"]
    for law, keys in experiments._LAWS.items() for key in keys
]

# any JSON value: integers past a float's range, past int64 and within every
# size key's range, non-finite floats, and nested lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.floats()
    | st.integers(-10**400, 10**400) | st.integers(-2**64, 2**64) | st.integers(-3, 70),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)

# an integer past the largest float, where a run reads every number as a float
HUGE_INTEGERS = [
    {"experiment": "cascade-dim", "p": 10**400},
    {"experiment": "gamma", "tolerance": -10**400},
    {"experiment": "sumset-dim", "s_values": [10**400]},
    {"experiment": "projection-scan", "s_grid": [10**400]},
    {"experiment": "cascade-dim", "base_probs": [10**400, 0]},
    {"experiment": "cascade-dim", "law": "discrete", "values": [10**400], "probs": [1]},
    {"experiment": "gamma", "ifs": [[0.5, 10**400], [0.5, 0.5]]},
]


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
            ({"experiment": "sumset-dim", "pair_cap": 5}, "unknown key"),
            # only the experiments that draw trials take a trial count
            ({"experiment": "projection-scan", "trials": 2}, "unknown key"),
            ({"experiment": "bconv", "trials": 2}, "unknown key"),
            ({"experiment": "gamma", "trials": 2}, "unknown key"),
            # the plot is the CLI's --plot, not a config key
            ({"experiment": "gamma", "plot": True}, "unknown key"),
            ({"experiment": "sumset-dim", "s_values": [1.0, 0.0]}, "no zero entry"),
            ({"experiment": "cascade-dim", "law": "gaussian"}, "law must be one of"),
            # each law takes its own keys only
            ({"experiment": "cascade-dim", "law": "lognormal", "p": 0.2}, "unknown key 'p'"),
            ({"experiment": "cascade-dim", "law": "percolation", "sigma": 0.5}, "unknown key 'sigma'"),
            ({"experiment": "cascade-dim", "law": "discrete", "values": [1.0], "probs": [1.0], "p": 0.5},
             "unknown key 'p'"),
            ({"experiment": "cascade-dim", "law": "discrete"}, "missing key: values"),
            ({"experiment": "cascade-dim", "law": "discrete", "values": [1.0]}, "missing key: probs"),
            # an unhashable name is an unknown experiment, not a TypeError
            ({"experiment": ["gamma"]}, "unknown experiment"),
            ({"experiment": {"a": 1}}, "unknown experiment"),
            # both take the tables' budget, DEFAULT_WORD_CAP = 2*10^7
            ({"experiment": "bconv", "atom_cap": 20_000_001}, "atom_cap must lie in"),
            ({"experiment": "projection-scan", "sample_size": 20_000_001}, "sample_size must be"),
            *((cfg, "must hold finite numbers only") for cfg in HUGE_INTEGERS),
        ],
    )
    def test_bad_values_rejected(self, extra, match):
        with pytest.raises(ConfigError, match=match):
            validate_config(extra)

    @pytest.mark.parametrize("name, key", SIZE_KEYS, ids=[f"{n}-{k}" for n, k in SIZE_KEYS])
    def test_integer_key_refused_at_two_to_the_62(self, name, key):
        # a new size key with no bound fails here, not in a walk or an allocation
        with pytest.raises(ConfigError, match=key):
            experiments._build(validate_config({"experiment": name, key: 2**62}))

    @pytest.mark.parametrize("name, selected, key", SCHEMA_KEYS)
    @given(value=JSON_VALUES)
    @example(value=10**400)  # past the largest float, drawn too rarely to rely on
    @example(value=[10**400])
    @example(value=[[0.5, 10**400], [0.5, 0.0]])
    @settings(max_examples=40, deadline=None)
    def test_any_json_value_builds_or_is_refused(self, name, selected, key, value):
        # validation and the build step either accept a value or raise ConfigError, never anything else
        try:
            experiments._build(validate_config({"experiment": name, **selected, key: value}))
        except ConfigError:
            pass

    def test_defaults_applied(self):
        cfg = validate_config({"experiment": "cascade-dim"})
        assert cfg["depth"] == 16
        assert cfg["trials"] == 32
        assert cfg["tolerance"] == 0.06

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        # the second is nested too deep to parse
        for text in ("{not json", '{"ifs": ' + "[" * 100_000 + "]" * 100_000 + "}"):
            path.write_text(text)
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

    def test_threads_bounded_by_the_cores(self, monkeypatch, tmp_path):
        # the pool and its waves stop at the core count, and one worker builds
        # no pool; the stand-in pool records what it was asked for and runs
        # on at most 2 threads
        asked = []

        class Pool(experiments.ThreadPoolExecutor):
            def __init__(self, max_workers):
                asked.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
        runs = ((1, 64), (1, 1), (2, 64), (2, 1))
        for cores, threads in runs:
            monkeypatch.setattr(experiments.os, "cpu_count", lambda cores=cores: cores)
            run_experiment(dict(SMALL_CASCADE, threads=threads)).write(tmp_path / f"{cores}-{threads}")
        assert asked == [2]
        outs = [tmp_path / f"{cores}-{threads}" for cores, threads in runs]
        assert len({(out / "scales.csv").read_bytes() for out in outs}) == 1
        assert len({_mask_runtime((out / "report.json").read_text()) for out in outs}) == 1

    @pytest.mark.parametrize(
        "cfg, echoed",
        [
            ({"experiment": "cascade-dim", "law": "discrete", "values": [0.5, 1.5], "probs": [0.5, 0.5],
              "depth": 10, "trials": 2}, ("values", "probs")),
            ({"experiment": "cascade-dim", "law": "lognormal", "depth": 10, "trials": 2}, ("sigma",)),
            ({"experiment": "perc-image-dim", "alphabet": 2, "depth": 8, "trials": 2, "gamma_nmax": 6},
             ("gamma_nmax",)),
            ({"experiment": "sumset-dim", "depth_a": 8, "depth_b": 5, "trials": 2}, ("s_values",)),
            ({"experiment": "projection-scan", "depth_a": 10, "depth_b": 6, "s_grid": [1.0], "atom_cap": 20000,
              "sample_size": 200}, ("sample_size",)),
            ({"experiment": "bconv", "depth": 8, "atom_cap": 20000, "sample_size": 200}, ("beta_a",)),
            ({"experiment": "gamma", "alphabet": 3, "n_max": 6}, ("expect_gamma",)),
            # an alphabet left out is the subshift's, resolved by validation
            ({"experiment": "perc-image-dim", "depth": 8, "trials": 2, "gamma_nmax": 6}, ("alphabet",)),
            ({"experiment": "gamma", "n_max": 6}, ("alphabet",)),
            ({"experiment": "perc-image-dim", "subshift": [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "depth": 8, "trials": 2,
              "gamma_nmax": 5}, ("alphabet",)),
        ],
        ids=["cascade-discrete", "cascade-lognormal", "perc-image", "sumset", "projection", "bconv", "gamma",
             "perc-image-golden-mean", "gamma-full", "perc-image-matrix"],
    )
    def test_params_echo_the_keys_read(self, cfg, echoed):
        # params is the validated config, in schema order, without the
        # experiment, seed and thread count
        read = validate_config(cfg)
        assert read.get("alphabet", 0) is not None
        rep = run_experiment(cfg)
        unechoed = ("experiment", "seed", "threads")
        assert list(rep.params.items()) == [(k, v) for k, v in read.items() if k not in unechoed]
        assert set(echoed) <= set(rep.params)

    def test_threads_leave_the_warning_filters_alone(self):
        # the filter list is shared by every thread, so no run may change it.
        # Importing scipy.special adds filters of its own, and building a
        # lognormal law is what imports it, so the snapshot is taken after
        # one is built.
        WeightLaw.lognormal(0.5)
        before = list(warnings.filters)
        for seed in range(6):
            run_experiment({"experiment": "cascade-dim", "law": "lognormal", "depth": 10, "trials": 16,
                            "threads": 2, "seed": seed})
            assert warnings.filters == before

    def test_degenerate_cascade_warning_stays_in_the_report(self):
        # h_V = -log 0.45 > log 2: the report says it once, and no draw warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_experiment({"experiment": "cascade-dim", "p": 0.45, "depth": 8, "trials": 3,
                                  "threads": 2, "seed": 1})
        assert caught == []
        assert [w for w in rep.warnings if w.startswith("degenerate regime")] == [
            "degenerate regime: h_V >= h_mu, cascade dies almost surely: verdict is advisory"
        ]

    def test_dying_cascades_are_the_discarded_draws(self):
        # a draw whose cascade dies out is an empty measure, which the worker discards
        cfg = validate_config({"experiment": "cascade-dim", "p": 0.55, "depth": 8, "trials": 4, "seed": 3,
                               "threads": 1})
        built = experiments._build(cfg)
        alive = [len(experiments.cascade_measure(built["base"], built["shift"], built["law"], 8,
                                                 KeyedRng(3).derive(i))) > 0 for i in range(200)]
        last = [i for i, a in enumerate(alive) if a][3]
        assert alive[: last + 1].count(False) > 0
        assert run_experiment(cfg).discarded_seeds == alive[: last + 1].count(False)

    def test_degenerate_cascade_is_advisory(self):
        # h_V = -log 0.45 > log 2: the target (h_mu - h_V)/log 2 = -0.15 is no dimension
        rep = run_experiment({"experiment": "cascade-dim", "p": 0.45, "depth": 8, "trials": 3, "seed": 1})
        assert rep.target["value"] < 0 and rep.verdict.startswith("advisory-")
        assert not run_experiment({"experiment": "cascade-dim", "p": 0.55, "depth": 8, "trials": 3}).verdict.startswith(
            "advisory-"
        )

    @pytest.mark.parametrize(
        "cfg, alive",
        [
            ({"experiment": "sumset-dim", "p_a": 0.45, "depth_a": 10, "depth_b": 6, "trials": 4}, {"p_a": 0.55}),
            ({"experiment": "perc-image-dim", "subshift": "full", "p": 0.5, "depth": 10, "trials": 4}, {"p": 0.55}),
            # h_top = 0: only p = 1 survives
            ({"experiment": "perc-image-dim", "subshift": [[0, 1], [1, 0]], "p": 0.8, "depth": 10, "trials": 4},
             {"p": 1.0}),
        ],
        ids=["sumset-p_a", "image-full-critical", "image-periodic"],
    )
    def test_subcritical_percolation_is_advisory(self, cfg, alive):
        # p e^h_top <= 1 (0.9, 1 and 0.8): the factor dies almost surely, so
        # the target's dimension formula does not apply
        rep = run_experiment(cfg)
        assert rep.verdict.startswith("advisory-")
        assert [w for w in rep.warnings if w.startswith("degenerate regime")], rep.warnings
        rep = run_experiment({**cfg, **alive})
        assert not rep.verdict.startswith("advisory-")
        assert not [w for w in rep.warnings if w.startswith("degenerate regime")], rep.warnings

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
        assert rep.verdict == "pass"
        assert rep.extra["overlap_counts"][1] == 4

    def test_unstated_alphabet_is_the_subshifts(self):
        rep = run_experiment(
            {"experiment": "gamma", "subshift": "golden-mean", "ifs": "tiling", "n_max": 6, "expect_gamma": 0.0}
        )
        assert rep.params["alphabet"] == 2

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

    def test_perc_image_full_shift_as_all_ones_matrix(self):
        # the full 3-shift written as its all-ones matrix is the same system:
        # same mode, target, estimate and verdict as "full"
        cfg = {"experiment": "perc-image-dim", "alphabet": 3, "ifs": _EXACT_OVERLAP,
               "p": 0.8, "depth": 10, "trials": 4, "gamma_nmax": 8, "seed": 3}
        full, ones = (
            run_experiment(dict(cfg, subshift=spec)).to_dict() for spec in ("full", [[1, 1, 1]] * 3)
        )
        assert full["target"]["mode"] == "overlap-example"
        masked = {"params": None, "runtime_s": None}
        assert ones | masked == full | masked


class TestFullSumEntropy:
    """``sample_size: 0`` takes the full-sum entropy: every estimate is ``entropy_dimension`` with no sampling."""

    CONFIGS = {
        "bconv": {"experiment": "bconv", "depth": 10, "atom_cap": 20000, "sample_size": 0},
        "projection-scan": {"experiment": "projection-scan", "depth_a": 9, "depth_b": 6, "atom_cap": 20000,
                            "s_grid": [0.5, 1.0], "sample_size": 0},
    }

    @pytest.mark.parametrize("name", list(CONFIGS), ids=list(CONFIGS))
    def test_estimates_are_the_full_sum(self, name, monkeypatch):
        calls = []

        def spy(measure, scales, sample_size=None, rng=None):
            calls.append((measure, sample_size))
            return entropy_dimension(measure, scales, sample_size, rng)

        monkeypatch.setattr(experiments, "entropy_dimension", spy)
        report = run_experiment(dict(self.CONFIGS[name]))
        checks = report.scan or [{"estimate": report.estimate["value"]}]
        rows = {}
        for _, label, scale, _ in report.scales_rows:
            rows.setdefault(label, []).append(scale)
        assert len(calls) == len(checks) == len(rows) > 0
        for (measure, sample_size), check, scales in zip(calls, checks, rows.values()):
            assert sample_size is None
            assert check["estimate"] == entropy_dimension(measure, scales, sample_size=None).slope


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "cascadim.cli", *args],
            env=_src_env(),
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
            # an IFS's maps share one ratio, and it has the subshift's alphabet
            {"experiment": "gamma", "alphabet": 2, "ifs": [[0.5, 0.0], [0.25, 0.5]]},
            {"experiment": "gamma", "alphabet": 2, "ifs": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]]},
            # a stated alphabet must be the subshift's
            {"experiment": "gamma", "alphabet": 3, "subshift": "golden-mean", "ifs": "tiling", "n_max": 6,
             "expect_gamma": 0.0},
            {"experiment": "perc-image-dim", "alphabet": 3, "subshift": [[1, 1], [1, 0]]},
            # bconv draws no trials
            {"experiment": "bconv", "trials": 5, "depth": 10, "atom_cap": 20000, "sample_size": 500},
            # a depth of 0 fails in validation, not in the walk
            {"experiment": "sumset-dim", "depth_a": 0},
            {"experiment": "bconv", "depth": 0},
            {"experiment": "projection-scan", "depth_b": 0},
            # 3^45 > 2^62: the walk refuses the code range before any node
            {"experiment": "cascade-dim", "alphabet": 3, "depth": 45},
            # 0.5^-2000 overflows a float
            {"experiment": "projection-scan", "s_grid": [-2000.0], "depth_a": 8, "depth_b": 5, "atom_cap": 2000,
             "sample_size": 100},
            # past DEFAULT_WORD_CAP: a draw or an exact grid too large to allocate
            {"experiment": "bconv", "depth": 10, "sample_size": 4611686018427387904},
            {"experiment": "bconv", "depth": 18, "atom_cap": 10**11},
            *HUGE_INTEGERS,
        ],
    )
    def test_bad_config_one_error_line(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = self._run(cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 1
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch, capsys, sub):
        def run(cfg):
            raise AssertionError("ran the experiment")

        monkeypatch.setattr(cli, "run_experiment", run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["gamma", "--out", str(blocker / sub)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "cfg",
        [
            # a word of more than 62 letters has no 62-bit code on any alphabet
            {"experiment": "cascade-dim", "depth": 200000},
            {"experiment": "perc-image-dim", "depth": 200000},
            {"experiment": "sumset-dim", "depth_a": 200000},
            {"experiment": "projection-scan", "depth_b": 200000},
            {"experiment": "bconv", "depth": 200000},
            # 3^40 > 2^62: refused before the first factor is walked
            {"experiment": "sumset-dim", "depth_b": 40},
            {"experiment": "projection-scan", "depth_b": 40},
        ],
    )
    def test_depth_past_the_code_range_refused_before_any_recursion(self, tmp_path, monkeypatch, capsys, cfg):
        def ran(*args):
            raise AssertionError("ran past validation")

        for name in ("_survival", "gamma_estimate", "percolation_codes", "cascade_measure", "bernoulli_convolution"):
            monkeypatch.setattr(experiments, name, ran)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "must" in err, err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"experiment": "perc-image-dim", "subshift": [[1, 1, 1], [1, 1]]},
            # the golden mean shift has two letters
            {"experiment": "perc-image-dim", "alphabet": 3},
            {"experiment": "gamma", "alphabet": 2, "subshift": "full", "ifs": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]]},
            {"experiment": "gamma", "alphabet": 2, "ifs": [[0.5, 0.0], [0.25, 0.5]]},
            {"experiment": "perc-image-dim", "subshift": "full", "ifs": [[0.5, 0.0], [0.25, 0.5]]},
            # E(V) = 0.75
            {"experiment": "cascade-dim", "law": "discrete", "values": [0.5, 1.0], "probs": [0.5, 0.5]},
            {"experiment": "sumset-dim", "depth_b": 40},
            {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full",
             "ifs": [[0.33, 0.0], [0.33, 0.33], [0.33, 0.66]], "depth": 45},
            {"experiment": "projection-scan", "s_grid": [-2000.0], "depth_a": 8, "depth_b": 5, "atom_cap": 2000,
             "sample_size": 100},
            # two words per level, but overlap_count lists them by base-2 codes: 2^63 > 2^62
            {"experiment": "gamma", "subshift": [[0, 1], [1, 0]], "ifs": "tiling", "n_max": 70, "expect_gamma": 0.0},
        ],
        ids=["matrix-not-square", "alphabet-not-the-subshifts", "ifs-alphabet", "gamma-unequal-ratio",
             "image-unequal-ratio", "law-mean", "factor-code-range", "ifs-code-range", "s-grid-overflow",
             "gamma-code-range"],
    )
    def test_refused_before_any_walk(self, tmp_path, monkeypatch, capsys, cfg):
        # validation and the build step refuse each config before anything a run computes
        def ran(*args, **kwargs):
            raise AssertionError("ran past the build step")

        for name in ("_survival", "gamma_estimate", "percolation_codes", "cascade_measure", "bernoulli_convolution",
                     "product"):
            monkeypatch.setattr(experiments, name, ran)
        monkeypatch.setattr(Subshift, "successor_table", ran)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("value", [4472, 100000])
    @pytest.mark.parametrize(
        "experiment, key",
        [("cascade-dim", "alphabet"), ("perc-image-dim", "alphabet"), ("gamma", "alphabet"),
         ("sumset-dim", "alphabet_a"), ("sumset-dim", "alphabet_b"),
         ("projection-scan", "alphabet_a"), ("projection-scan", "alphabet_b")],
    )
    def test_alphabet_past_the_table_bound_refused_before_any_table(
        self, tmp_path, monkeypatch, capsys, experiment, key, value
    ):
        # (a+1)*a <= DEFAULT_WORD_CAP = 2*10^7 gives a <= 4,471: (4471+1)*4471 = 19,994,312
        cfg = {"experiment": experiment, key: 4471}
        if key != "alphabet":  # a factor keeps alphabet^depth <= 2^62
            cfg["depth" + key[-2:]] = 4
        if experiment == "projection-scan":  # and a factor law of one entry per letter
            cfg["probs" + key[-2:]] = [1 / 4471] * 4471
        assert validate_config(cfg)[key] == 4471

        def built(*args):
            raise AssertionError("built a successor table")

        monkeypatch.setattr(Subshift, "successor_table", built)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, key: value}))
        assert main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must lie in [2, 4471]") and err.count("\n") == 1, err

    def test_code_numbered_ifs_past_the_code_range_refused_before_gamma(self, tmp_path, monkeypatch, capsys):
        class Fitted(Exception):
            pass

        def fit(*args):
            raise Fitted

        monkeypatch.setattr(experiments, "gamma_estimate", fit)
        # ratio 0.33 routes no lattice, so the walk numbers base-3 codes: 3^45 > 2^62
        cfg = {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full",
               "ifs": [[0.33, 0.0], [0.33, 0.33], [0.33, 0.66]], "depth": 45}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["perc-image-dim", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: would need ") and "code range at level 40 of 45" in err, err
        assert err.count("\n") == 1, err
        # within the range the run goes on to gamma: base-2 codes at depth 62 stay below 2^62
        path.write_text(json.dumps({**cfg, "alphabet": 2, "ifs": [[0.33, 0.0], [0.33, 0.66]], "depth": 62}))
        with pytest.raises(Fitted):
            main(["perc-image-dim", "--config", str(path), "--out", str(tmp_path / "out")])

    def test_config_not_utf8_one_error_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"experiment": "gamma", "n_max": 5\xff}')
        out = self._run("gamma", "--config", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 1
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert "UTF-8" in out.stderr

    def test_trials_flag_refused_where_unread(self, tmp_path, capsys):
        # every subcommand keeps --trials; bconv draws no trials and refuses it
        assert main(["bconv", "--trials", "5", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'trials'") and err.count("\n") == 1, err

    def test_gamma_nmax_past_the_word_cap_counts_no_level(self, tmp_path, monkeypatch, capsys):
        # 3^40 words at the last level: refused before levels 1..15 are counted
        counted = []
        monkeypatch.setattr(ifs_module, "overlap_count", lambda *args: counted.append(args))
        cfg = {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full",
               "ifs": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]], "gamma_nmax": 40}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["perc-image-dim", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: would need ") and err.count("\n") == 1, err
        assert counted == []

    def test_plot_flag_writes_the_svg(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gamma", "alphabet": 2, "subshift": "full",
                                   "ifs": "tiling", "n_max": 6, "expect_gamma": 0.0}))
        for out, flags in ((tmp_path / "plain", []), (tmp_path / "plot", ["--plot"])):
            assert main(["gamma", "--config", str(cfg), "--out", str(out), *flags]) == 0
        assert not (tmp_path / "plain" / "plot.svg").exists()
        assert (tmp_path / "plot" / "plot.svg").read_text().startswith("<svg")

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
    assembled their own report; the ``report.json`` digests of the
    ``cascade-*`` and ``image-*`` entries were retaken when ``params`` came to
    echo exactly the keys a run reads (a law's own keys, and ``gamma_nmax``).

    The ``cascade-lognormal`` and ``cascade-alphabet4`` digests assume numpy's
    ``X86_V4`` (AVX-512) ``exp`` kernels, under which they were taken: a
    lognormal weight's last bit follows numpy's dispatched ``exp``, and with
    ``NPY_DISABLE_CPU_FEATURES=X86_V4`` those two pins fail.
    """

    PINS = {
        "cascade-percolation": (
            {"experiment": "cascade-dim", "depth": 10, "trials": 4, "seed": 11},
            0,
            "3b84304e56ba4ac24b2a44906489fe8f56e3e9af872a61b2a67594545d24e3ee",
            "c8fc1b42176adf8dcf072acf185d1785afe779aaf8834375e81d4d63ce0ba25c",
            "d85001f6d24eb38f67043a7c6c7a5e14a0a29385bd5518403f8d3158b424df74",
        ),
        "cascade-lognormal": (
            {"experiment": "cascade-dim", "law": "lognormal", "sigma": 0.5, "depth": 10, "trials": 4, "seed": 11},
            0,
            "1736f41dac39c429ec5bb55cb32488ed54e3d29643cb6f61b3cedab2d520a59b",
            "6147046f1824a3fcdf7600da7424bb998949e0b8b70a2c84fe6d2c754aa88828",
            "50331b70c6acf4004340236c4b44ee7ef7c35ede160521178403fb4c4aedba40",
        ),
        "cascade-alphabet4": (
            # tiling(4): lattice ball masses with m = 4
            {"experiment": "cascade-dim", "alphabet": 4, "law": "lognormal", "sigma": 0.5, "depth": 8,
             "trials": 4, "seed": 11},
            0,
            "8255003ee533425a5a7d488f5591e6e7846901493fddaaf6d541b2c8f5c9d91b",
            "960a593fed98277f907839e9010384253d046682c582c90f79cdc069a15dbb1f",
            "7de4b730d77eaaac8d9c60911068789114ccdf14aa82bb26a5d124d4b0c4d8f1",
        ),
        "image-additive": (
            {"experiment": "perc-image-dim", "depth": 10, "trials": 4, "gamma_nmax": 8, "seed": 3},
            0,
            "1f4a14c4f5b3619308acb8275a67cb81de97012b1054b3af4e4d81ea75ac3728",
            "31c1b2a56050fa0e53f704cc8b686d95d8fe0ed997540c4785f3ab822c649279",
            "70a71e21fa3ceeea64c152fcefb3ff43e52df1310e83306074916eb3c6ba09ab",
        ),
        "image-overlap-example": (
            {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full", "ifs": _EXACT_OVERLAP,
             "p": 0.8, "depth": 10, "trials": 4, "gamma_nmax": 8, "seed": 3},
            0,
            "7738c9b8132b32c6f736b42a7896d1fd01fd5a748b49adf3a3f0f9a74cec3f92",
            "024c67145fc0cda452639796578b596c71193b90ee16caad61f4c6d4bf4246a6",
            "bcd0a41df8cfea80eb2a0e2c6e27daea2cdac2b44f16f9e665593f0319e850a1",
        ),
        "image-bound-only": (
            {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full",
             "ifs": [[0.5, 0.0], [0.5, 0.1], [0.5, 0.5]], "p": 0.9, "depth": 10, "trials": 4,
             "gamma_nmax": 8, "seed": 3},
            0,
            "ea6c97f1fee2dfe487939ff1dd898a42fda99eeea22c0f6881d796e49ebececa",
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


class TestFreshInterpreter:
    """Start-up imports, seen from a new interpreter.

    The test process itself has scipy loaded (the acceptance tests import
    ``scipy.stats``), so only a subprocess can show what a run imports.
    """

    @staticmethod
    def _python(code, *args):
        out = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(), capture_output=True, text=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    def test_scipy_loads_only_with_a_lognormal_law(self):
        # scipy.special costs about 0.3 s to import; only the lognormal law needs it.
        # Every other pinned report mode runs first.
        configs = [cfg for cfg, *_ in TestReportPins.PINS.values() if cfg.get("law") != "lognormal"]
        seen = self._python(
            "import json, sys\n"
            "import cascadim, cascadim.cli\n"
            "from cascadim import WeightLaw\n"
            "from cascadim.experiments import run_experiment, validate_config\n"
            "for cfg in json.loads(sys.argv[1]):\n"
            "    validate_config(cfg)\n"
            "    run_experiment(cfg)\n"
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "WeightLaw.lognormal(0.5)\n"
            "print(json.dumps([before, 'scipy.special' in sys.modules]))\n",
            json.dumps(configs),
        )
        assert seen == [[], True]

    def test_validation_loads_no_scipy(self):
        # the benchmark's setup_s times this call in a new interpreter: a
        # lognormal config is validated there, and no law is built
        config = Path(__file__).resolve().parent.parent / "configs" / "cascade_dim_lognormal.json"
        seen = self._python(
            "import json, sys\n"
            "from cascadim.experiments import load_config, validate_config\n"
            "cfg = validate_config(load_config(sys.argv[1]))\n"
            "print(json.dumps([cfg['law'], sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n",
            str(config),
        )
        assert seen == ["lognormal", []]

    def test_lognormal_threads_match_in_a_fresh_interpreter(self, tmp_path):
        # the run that imports scipy: two worker threads against one
        cfg = TestReportPins.PINS["cascade-lognormal"][0]
        outputs = []
        for threads in (2, 1):
            path = tmp_path / f"cfg{threads}.json"
            path.write_text(json.dumps({**cfg, "threads": threads}))
            out = tmp_path / f"out{threads}"
            loaded = self._python(
                "import json, sys\n"
                "from cascadim.cli import main\n"
                "before = 'scipy' in sys.modules\n"
                "code = main(sys.argv[1:])\n"
                "print(json.dumps([before, code]))\n",
                "cascade-dim", "--config", str(path), "--out", str(out),
            )
            assert loaded == [False, 0]
            outputs.append([_mask_runtime((out / "report.json").read_text()), (out / "scales.csv").read_bytes()])
        assert outputs[0] == outputs[1]
