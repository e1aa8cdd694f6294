"""The paired benchmark comparison's statistics, on fixed numbers.

``tools/bench_pairs.py`` is a script, not a module of the package, so it is
loaded by path.
"""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool()


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([0.7]) == (0.7, 0.7, 0.7)


def test_lower_is_better_claim_met():
    base = [0.25, 0.24, 0.26, 0.25, 0.27, 0.24, 0.25, 0.26, 0.25, 0.24]
    head = [0.18, 0.19, 0.18, 0.25, 0.18, 0.17, 0.18, 0.19, 0.18, 0.18]
    stats = bench_pairs.compare(base, head, "lower")
    assert stats["pairs"] == 10
    assert stats["wins"] == 9  # the tie at 0.25 counts for neither side
    assert stats["base"]["median"] == 0.25 and stats["head"]["median"] == 0.18
    assert stats["base_iqr"] == pytest.approx(0.2575 - 0.2425)
    assert stats["gain"] == pytest.approx(0.07)
    assert stats["beyond_iqr"] is True


def test_gain_inside_the_base_spread_is_not_beyond():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    head = [0.5, 1.5, 2.5, 3.5, 4.5]
    stats = bench_pairs.compare(base, head, "lower")
    assert stats["wins"] == 5 and stats["gain"] == 0.5 and stats["base_iqr"] == 2.0
    assert stats["beyond_iqr"] is False


def test_higher_is_better_and_worse_head():
    stats = bench_pairs.compare([1.0, 1.0, 1.0], [0.9, 1.0, 0.8], "higher")
    assert stats["wins"] == 0 and stats["gain"] == pytest.approx(-0.1)
    assert stats["beyond_iqr"] is False
    same = bench_pairs.compare([1.0, 1.0], [1.0, 1.0], "higher")
    assert same["gain"] == 0.0 and str(same["gain"]) == "0.0"


def test_loss_beyond_the_base_spread_is_a_loss():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    head = [1.2, 1.19, 1.21, 1.2, 1.22]
    stats = bench_pairs.compare(base, head, "lower")
    assert stats["gain"] == pytest.approx(-0.2) and stats["base_iqr"] == pytest.approx(0.01)
    assert stats["verdict"] == "loss" and stats["beyond_iqr"] is False
    line = bench_pairs.report_line("w.run_s", stats)
    assert "is a loss beyond the BASE interquartile distance" in line and "within" not in line
    assert stats["bound"] is None and stats["past_bound"] is None  # no bound given, none printed
    # the same loss inside a wider spread is within it
    wide = bench_pairs.compare([0.7, 0.9, 1.0, 1.1, 1.3], head, "lower")
    assert wide["verdict"] == "within"
    assert "is within the BASE interquartile distance" in bench_pairs.report_line("w.run_s", wide)
    gain = bench_pairs.compare(head, base, "lower")
    assert gain["verdict"] == "gain" and "is a gain beyond" in bench_pairs.report_line("w.run_s", gain)


@pytest.mark.parametrize("head", [[1.5], [0.5], [1.0]], ids=["worse", "better", "equal"])
def test_one_pair_is_unresolved(head):
    # one pair has no interquartile distance, so no move is a gain or a loss beyond it
    stats = bench_pairs.compare([1.0], head, "lower", 0.25)
    assert stats["base_iqr"] == 0.0 and stats["verdict"] == "unresolved" and stats["beyond_iqr"] is False
    line = bench_pairs.report_line("w.run_s", stats)
    assert "is unresolved: one pair has no BASE interquartile distance" in line
    assert "gain beyond" not in line and "loss beyond" not in line and "is within the" not in line
    assert stats["past_bound"] is (head[0] > 1.25)  # the bound still reads the one pair
    assert bench_pairs.compare([1.0, 1.0], [1.5, 1.5], "lower")["verdict"] == "loss"


@pytest.mark.parametrize(
    "base, head, better, bound, change, past",
    [
        ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.25, 0.3, True),
        ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", 0.25, 0.2, False),
        ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], "lower", 0.25, -0.5, False),  # a gain is never past its bound
        ([1.0, 1.0], [0.98, 0.98], "higher", 0.01, -0.02, True),
        ([1.0, 1.0], [0.995, 0.995], "higher", 0.01, -0.005, False),
    ],
)
def test_relative_change_against_the_bound(base, head, better, bound, change, past):
    stats = bench_pairs.compare(base, head, better, bound)
    assert stats["relative_change"] == pytest.approx(change) and stats["past_bound"] is past
    where = "past" if past else "within"
    assert f"median change {change:+.2%}, {where} bound {bound:.0%}" in bench_pairs.report_line("w.m", stats)


def test_unpaired_values_refused():
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.compare([], [], "lower")


def test_summarize_pairs_runs_by_seed():
    def run(side, seed, run_s, rss):
        metrics = {"w.run_s": {"value": run_s, "unit": "s"}, "w.peak_rss_mb": {"value": rss, "unit": "MB"}}
        return {"side": side, "seed": seed, "result": {"metrics": metrics}}

    runs = [run("BASE", 1, 0.30, 100.0), run("HEAD", 1, 0.20, 101.0),
            run("HEAD", 2, 0.21, 99.0), run("BASE", 2, 0.31, 100.0),
            run("BASE", 3, 0.29, 100.0)]  # seed 3 has no HEAD run, so no pair
    summary = bench_pairs.summarize(runs, {"run_s": "lower", "peak_rss_mb": "lower"})
    assert summary["w.run_s"]["pairs"] == 2 and summary["w.run_s"]["wins"] == 2
    assert summary["w.run_s"]["base"]["runs"] == [0.30, 0.31]
    assert summary["w.peak_rss_mb"]["wins"] == 1
    line = bench_pairs.report_line("w.run_s", summary["w.run_s"])
    assert "HEAD better in 2 of 2 pairs" in line and "beyond" in line


def _traced(**counts):
    metrics = {name.replace("_", ".", 1): {"value": value, "unit": "count"} for name, value in counts.items()}
    metrics["euclid.atomic_s"] = {"value": 0.3, "unit": "s"}
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


def test_count_differences_names_each_changed_count():
    base = _traced(euclid_atoms=1648318, dimension_ball_queries=40000, cascade_leaves=7)
    head = _traced(euclid_atoms=1648318, dimension_ball_queries=40001)
    head["metrics"]["euclid.atomic_s"]["value"] = 0.2  # a time is not a count
    assert bench_pairs.count_differences(base, head) == [
        "cascade.leaves: BASE 7, HEAD None",
        "dimension.ball_queries: BASE 40000, HEAD 40001",
    ]
    assert bench_pairs.count_differences(base, base) == []


@pytest.mark.parametrize("head_atoms, code", [(1648318, 0), (1648319, 1)])
def test_counts_pass_exits_1_on_any_changed_count(tmp_path, monkeypatch, capsys, head_atoms, code):
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    (tmp_path / "base" / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": [{"name": "run_s", "better": "lower"}]}')
    calls = []

    def run_side(side, workload, seed, seconds, trace=False):
        calls.append((side.name, workload, seed, trace))
        return 0, _traced(euclid_atoms=head_atoms if side.name == "head" else 1648318), ""

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "out.json"
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "bconv", "--pairs", "0", "--counts",
            "--out", str(out)]
    assert bench_pairs.main(argv) == code
    assert calls == [("base", "bconv", 1, True), ("head", "bconv", 1, True)]
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())
    if code:
        assert "count differs: euclid.atoms: BASE 1648318, HEAD 1648319" in printed
        assert report["counts"]["differences"] == ["euclid.atoms: BASE 1648318, HEAD 1648319"]
    else:
        assert "every per-layer count is the same" in printed and report["counts"]["differences"] == []


def test_out_summary_holds_the_verdict_and_the_bound(tmp_path, monkeypatch, capsys):
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    (tmp_path / "base" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.25}]}))

    def run_side(side, workload, seed, seconds, trace=False):
        slow = side.name == "head"
        metrics = {"run_s": {"value": (0.40 if slow else 0.30) + seed / 1000, "unit": "s"},
                   "peak_rss_mb": {"value": 90.0 + seed / 100, "unit": "MB"}}
        return 0, {"metrics": metrics}, ""

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "out.json"
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "bconv", "--pairs", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    summary = json.loads(out.read_text())["summary"]
    run_s, rss = summary["bconv.run_s"], summary["bconv.peak_rss_mb"]
    assert run_s["verdict"] == "loss" and run_s["bound"] == 0.25 and run_s["past_bound"] is True
    assert run_s["relative_change"] == pytest.approx(0.1 / 0.302)
    assert rss["verdict"] == "within" and rss["past_bound"] is False and rss["relative_change"] == 0.0
    printed = capsys.readouterr().out
    assert "bconv.run_s:" in printed and "is a loss beyond" in printed and "past bound 25%" in printed
    assert "median change +0.00%, within bound 25%" in printed


def test_out_records_each_sides_machine(tmp_path, capsys):
    # two stand-in checkouts whose benchmark prints a machine line, a metric line and its JSON line
    script = (
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "print('machine ' + json.dumps({'cores': 2, 'cpu': CPU}))\n"
        "print('bconv run_s 0.3 s')\n"
        "traced = sys.argv[sys.argv.index('--trace') + 1] == '1'\n"
        "metric = {'euclid.atoms': {'value': 5, 'unit': 'count'}} if traced else {\n"
        "    'run_s': {'value': 0.3 + seed / 100, 'unit': 's'}}\n"
        "print(json.dumps({'metrics': metric}))\n"
    )
    for side in ("base", "head"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(f"CPU = {side + ' cpu'!r}\n" + script)
    (tmp_path / "base" / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": [{"name": "run_s", "better": "lower"}]}')
    out = tmp_path / "out.json"
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "bconv", "--pairs", "2", "--counts",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["machine"] == {"BASE": {"cores": 2, "cpu": "base cpu"}, "HEAD": {"cores": 2, "cpu": "head cpu"}}
    assert all("machine" not in run["result"] for run in report["runs"])  # stated once per side
    assert "machine" not in report["counts"]["base"] and report["counts"]["differences"] == []
    assert report["summary"]["bconv.run_s"]["base"]["runs"] == [0.31, 0.32]
    assert "every per-layer count is the same" in capsys.readouterr().out
