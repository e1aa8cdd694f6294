"""The report comparison tool names the top-level keys in which two reports differ.

``tools/compare_reports.py`` is a script, not a module of the package, so
it is loaded by path.
"""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _load_tool()


def _report(**changes):
    report = {"experiment": "cascade-dim", "params": {"p": 0.7, "sigma": 0.5}, "seed": 1,
              "estimate": {"value": 0.9, "stderr": 0.01}, "runtime_s": None}
    report.update(changes)
    return json.dumps(report, indent=2).encode()


def test_only_the_params_differ():
    base, head = _report(), _report(params={"p": 0.7})
    assert compare_reports.differing_keys(base, head) == ["params"]


def test_added_removed_and_changed_keys_in_order():
    base, head = _report(warnings=["w"]), _report(seed=2, scan=[])
    assert compare_reports.differing_keys(base, head) == ["seed", "warnings", "scan"]


def test_masked_runtime_and_layout_do_not_differ():
    compact = json.dumps(json.loads(_report())).encode()
    assert compare_reports.differing_keys(_report(), compact) == []
