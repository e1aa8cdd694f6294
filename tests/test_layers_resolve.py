"""Every name the benchmark's tracer wraps must exist where it looks for it.

``perfbench/layers.py`` swaps wrappers in by ``owner.__dict__[attr]``, so a
renamed or deleted function would only show as a failing ``--trace 1`` run.
This reads the target list from that file and checks each name, then runs
each experiment under the tracer and checks that it reaches its layers.
"""
import importlib.util
import json
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
TARGETS = [(owner, attr) for owner, attr, _, _ in layers._TARGETS]
TARGETS.append((layers.cascadim.experiments, "_collect_surviving"))


@pytest.mark.parametrize(
    "owner, attr",
    TARGETS,
    ids=[f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}" for owner, attr in TARGETS],
)
def test_traced_name_resolves(owner, attr):
    assert attr in owner.__dict__


# One small config per experiment, with the layer counts its run must reach.
# A runner that stops calling a wrapped name through ``cascadim.experiments``
# still resolves above, but its layer reads 0 here.  A case named otherwise
# gives its experiment in its config.
REACHED = {
    "cascade-dim": (
        {"depth": 10, "trials": 4, "seed": 11},
        ("cascade.walk_calls", "euclid.image_in", "dimension.ball_queries"),
    ),
    "perc-image-dim": (
        {"depth": 10, "trials": 4, "gamma_nmax": 8, "seed": 3},
        ("cascade.walk_calls", "euclid.image_in", "ifs.gamma_s", "dimension.box_queries"),
    ),
    # the exact-overlap IFS on its cell lattice: the image reads every word the walk numbered
    "perc-image-dim overlap": (
        {"experiment": "perc-image-dim", "alphabet": 3, "subshift": "full", "ifs": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]], "p": 0.8,
         "depth": 10, "trials": 4, "gamma_nmax": 8, "seed": 3},
        ("cascade.walk_calls", "euclid.image_in", "ifs.gamma_s", "dimension.box_queries"),
    ),
    "sumset-dim": (
        {"depth_a": 10, "depth_b": 6, "trials": 3, "seed": 5},
        ("cascade.walk_calls", "euclid.image_in", "euclid.sumset_calls", "dimension.box_queries"),
    ),
    "projection-scan": (
        {"depth_a": 10, "depth_b": 6, "s_grid": [1.0], "atom_cap": 20000, "sample_size": 500},
        ("cascade.walk_calls", "euclid.image_in", "euclid.atoms", "dimension.ball_queries"),
    ),
    "bconv": (
        {"depth": 10, "atom_cap": 20000, "sample_size": 500},
        ("cascade.walk_calls", "euclid.atoms", "dimension.ball_queries"),
    ),
    "gamma": ({"n_max": 8}, ("ifs.gamma_s",)),
}


@pytest.mark.parametrize("experiment", list(REACHED))
def test_experiment_reaches_its_layers(experiment, tmp_path):
    cfg, reached = REACHED[experiment]
    cfg = dict({"experiment": experiment}, **cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with layers.installed(layers.Tracer()) as tracer:
        layers.traced_main(tracer, [cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "out")])
    summary = tracer.summary()
    assert [name for name in reached if summary[name] <= 0] == []
    assert summary["experiments.accepted"] == cfg.get("trials", 0)
    if cfg["experiment"] == "perc-image-dim":
        assert summary["euclid.image_in"] == summary["cascade.leaves"]
