"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py --seeds 1 2 3 4 5 [--workloads overlap-image ...]
                                   [--seconds S] [--trace 1] [--out summary.json]

For every workload and metric it prints the median of the per-seed values,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json.  Spreads above a
third of the bound are marked.  ``--out`` writes the summary, together with
the machine it ran on, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("machine "))
    return json.loads(lines[-1]), machine


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list] = {}
        failed = attempted = 0
        for seed in args.seeds:
            result, summary["machine"] = run(workload, seed, args.seconds, args.trace)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            mark = " *" if bound is not None and spread > bound / 3 else ""
            print(f"{workload:22s} {name:28s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound}{mark}", flush=True)
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
