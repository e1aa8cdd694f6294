"""Alternate the benchmark between two checkouts and compare their end-to-end metrics.

Usage: python tools/bench_pairs.py BASE HEAD --workload W --pairs N [--seconds S] [--counts] [--out FILE]

BASE and HEAD are checkout directories, BASE the parent.  Pair k (k = 1..N)
runs ``python3 perfbench/run.py --workload W --seed k --seconds S --trace 0``
in each checkout, BASE first at odd k and HEAD first at even k, one run at a
time.  ``--seconds`` defaults to BASE's ``BENCHMARK.json`` ``run_seconds``;
W may be ``all``.

For each end-to-end metric of each workload it prints both sides' median and
quartiles (``statistics.quantiles`` with the inclusive method), the pairs in
which HEAD is better (ties count for neither side), and whether HEAD's median
is better than BASE's by more than BASE's interquartile distance (a gain),
worse by more than it (a loss), or neither (within).  A gain may be claimed
only when HEAD wins at least nine tenths of the pairs and its median is a
gain.  It also prints the median's relative change against the metric's
``bound`` in BASE's ``BENCHMARK.json``: "past bound" when HEAD's median is
worse than BASE's by more than that fraction of it, else "within bound".

``--counts`` first runs one ``--trace 1`` pass of seed 1 in each checkout
and prints every per-layer count (a metric of unit ``count``) that differs
between the two; ``--pairs 0`` then runs no pairs.  ``--out`` writes every
run, the summary and the count comparison as JSON.  The exit code is 1 if
any run exited non-zero or any count differs, else 0.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, by the inclusive method."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base, head, better: str, bound: float | None = None) -> dict:
    """Paired comparison of one metric: ``base[k]`` and ``head[k]`` come from pair k.

    ``better`` is ``"lower"`` or ``"higher"``.  ``gain`` is how much better
    HEAD's median is than BASE's (negative when it is worse), and
    ``beyond_iqr`` whether that gain exceeds BASE's interquartile distance.
    ``verdict`` is ``"gain"`` then, ``"loss"`` when the loss exceeds that
    distance, else ``"within"``.  ``relative_change`` is HEAD's median less
    BASE's, over BASE's; ``past_bound`` says whether HEAD is worse by more
    than ``bound`` in those terms (None without a bound).
    """
    if len(base) != len(head) or not base:
        raise ValueError("need one BASE and one HEAD value per pair")
    sign = 1.0 if better == "lower" else -1.0
    b, h = quartiles(base), quartiles(head)
    gain = sign * (b[1] - h[1]) + 0.0  # + 0.0: no -0.0 for equal medians
    iqr = b[2] - b[0]
    change = h[1] - b[1]
    relative = change / abs(b[1]) if b[1] else (0.0 if change == 0 else math.copysign(math.inf, change))
    return {
        "pairs": len(base),
        "wins": sum(sign * (x - y) > 0 for x, y in zip(base, head)),
        "base": {"q1": b[0], "median": b[1], "q3": b[2], "runs": list(base)},
        "head": {"q1": h[0], "median": h[1], "q3": h[2], "runs": list(head)},
        "gain": gain,
        "base_iqr": iqr,
        "beyond_iqr": gain > iqr,
        "verdict": "gain" if gain > iqr else "loss" if -gain > iqr else "within",
        "relative_change": relative,
        "bound": bound,
        "past_bound": None if bound is None else sign * relative > bound,
    }


def summarize(runs: list[dict], directions: dict[str, str], bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """``compare`` for every metric of the runs, keyed by metric name.

    ``runs`` holds one ``{"side", "seed", "result"}`` entry per run, where
    ``result`` is the benchmark's JSON line; ``directions`` maps a metric's
    last name part (``run_s``) to its ``better``, and ``bounds`` to its
    ``bound``.
    """
    bounds = bounds or {}
    values: dict[str, dict[str, dict[int, float]]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, {"BASE": {}, "HEAD": {}})[run["side"]][run["seed"]] = metric["value"]
    summary = {}
    for name, sides in values.items():
        seeds = sorted(set(sides["BASE"]) & set(sides["HEAD"]))
        base = [sides["BASE"][s] for s in seeds]
        head = [sides["HEAD"][s] for s in seeds]
        last = name.rsplit(".", 1)[-1]
        summary[name] = compare(base, head, directions[last], bounds.get(last))
    return summary


_VERDICTS = {"gain": "is a gain beyond", "loss": "is a loss beyond", "within": "is within"}


def report_line(name: str, stats: dict) -> str:
    b, h = stats["base"], stats["head"]
    line = (
        f"{name}: BASE {b['median']:.6g} ({b['q1']:.6g}..{b['q3']:.6g}), "
        f"HEAD {h['median']:.6g} ({h['q1']:.6g}..{h['q3']:.6g}); "
        f"HEAD better in {stats['wins']} of {stats['pairs']} pairs; "
        f"median gain {stats['gain']:.6g} {_VERDICTS[stats['verdict']]} "
        f"the BASE interquartile distance {stats['base_iqr']:.6g}"
    )
    if stats["bound"] is not None:
        where = "past" if stats["past_bound"] else "within"
        line += f"; median change {stats['relative_change']:+.2%}, {where} bound {stats['bound']:.0%}"
    return line


def count_differences(base: dict, head: dict) -> list[str]:
    """One line per per-layer count that differs between BASE's and HEAD's traced results.

    A count is a metric of unit ``count``; one that only one side reports
    differs too.
    """
    names = sorted({name for result in (base, head) for name, metric in result["metrics"].items()
                    if metric["unit"] == "count"})
    lines = []
    for name in names:
        b, h = (result["metrics"].get(name, {}).get("value") for result in (base, head))
        if b != h:
            lines.append(f"{name}: BASE {b}, HEAD {h}")
    return lines


def run_side(side: Path, workload: str, seed: int, seconds: float,
             trace: bool = False) -> tuple[int, dict | None, str]:
    """One benchmark run in checkout ``side``: exit code, its JSON line (or None), and stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--counts", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, failed, counts = [], 0, None
    if args.counts:
        traced = {}
        for label, side in (("BASE", args.base), ("HEAD", args.head)):
            code, traced[label], err = run_side(side, args.workload, 1, seconds, trace=True)
            print(f"counts {label}: exit {code} at {time.strftime('%H:%M:%S')}", flush=True)
            if traced[label] is None:
                failed += 1
                sys.stderr.write(err)
        if None not in traced.values():
            differences = count_differences(traced["BASE"], traced["HEAD"])
            counts = {"base": traced["BASE"], "head": traced["HEAD"], "differences": differences}
            for line in differences:
                print(f"count differs: {line}")
            if not differences:
                print("every per-layer count is the same")
    for seed in range(1, args.pairs + 1):
        order = [("BASE", args.base), ("HEAD", args.head)]
        for label, side in order if seed % 2 else order[::-1]:
            code, result, err = run_side(side, args.workload, seed, seconds)
            finished = time.strftime("%H:%M:%S")
            print(f"pair {seed} {label}: exit {code} at {finished}", flush=True)
            if result is None:
                failed += 1
                sys.stderr.write(err)
                continue
            if args.workload != "all":  # name the metrics as a run of all workloads does
                result["metrics"] = {f"{args.workload}.{k}": v for k, v in result["metrics"].items()}
            runs.append({"side": label, "seed": seed, "finished": finished, "result": result})
    summary = summarize(runs, directions, bounds)
    for name, stats in summary.items():
        print(report_line(name, stats))
    if args.out is not None:
        command = f"python3 perfbench/run.py --workload {args.workload} --seed N --seconds {seconds:g} --trace 0"
        report = {"command": command, "runs": runs, "summary": summary}
        if args.counts:
            report["counts"] = counts
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed or (counts and counts["differences"]) else 0


if __name__ == "__main__":
    sys.exit(main())
