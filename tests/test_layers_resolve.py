"""Every name the benchmark's tracer wraps must exist where it looks for it.

``perfbench/layers.py`` swaps wrappers in by ``owner.__dict__[attr]``, so a
renamed or deleted function would only show as a failing ``--trace 1`` run.
This reads the target list from that file and checks each name.
"""
import importlib.util
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
