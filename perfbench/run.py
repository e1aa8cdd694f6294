"""cascadim benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics, measured with tracing off:

  run_s        wall time of one experiment run (``cascadim.cli.main`` in
               process, after import): the median of each realization's
               runs, averaged over the pool of realizations (``POOL``).  The
               window runs the pool in passes, in an order set by --seed,
               after one untimed warm-up run; the first pass always completes
  setup_s      median wall time of a fresh interpreter through
               ``import cascadim.cli`` and config validation; one sample
               follows each timed run, so the samples span the window as
               the runs do, and the window is topped up to
               ``SETUP_SAMPLES`` samples
  peak_rss_mb  peak resident memory of this process over the warm-up and
               the first pass
  pass_rate    1 - fail_rate: a run fails if it exits 1, raises, or its
               report.json fails the workload's output check

With ``--trace 1`` it repeats one input, the first realization of the pool in
the order --seed sets, alternating untraced and traced
runs, and reports median per-layer self times, the layer counts (which must
repeat exactly from run to run), the tracing overhead (the median, over
pairs, of a traced run's wall time minus that of the untraced run next to it;
the printed line gives the quartiles of the pairs too) and the share of the traced run_s that named layer spans cover.  Metric names
and units are those BENCHMARK.json declares.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Experiment seeds of the timed runs: a fixed pool, the same for every --seed.
# Percolation tree sizes vary from one realization to the next (a run of
# overlap-image holds 1.4M to 3.9M leaves, and its time follows), so with
# seed-drawn realizations the spread of run_s over seeds was 0.24-0.32, against
# 0.06 for bconv, whose input does not depend on the seed.  A fixed pool makes
# run_s compare code, not realizations; --seed sets the order of the pool.
POOL = tuple(101 + k for k in range(4))
MIN_TRACED_PAIRS = 3
SETUP_SAMPLES = 9
# stop starting runs here whatever --seconds says, so a run always ends in time
HARD_STOP_S = 120.0

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import cascadim.cli; "
    "from cascadim.experiments import load_config, validate_config; "
    "validate_config(load_config({config!r}))"
)


def metric_units() -> dict[str, dict[str, str]]:
    """{"end_to_end"|"per_layer": {metric name: unit}}, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure_setup(config: Path) -> float:
    """Wall time of one fresh interpreter through import and config validation."""
    code = SETUP_CODE.format(src=str(SRC), config=str(config))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds each sample up to 50 ms
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t0


class Runner:
    """Runs one workload through the CLI entry point and checks each report."""

    def __init__(self, workload):
        self.workload = workload
        self.outdir = OUT / workload.name
        self.attempted = 0
        self.failed = 0

    def once(self, seed: int, tracer=None) -> float:
        """Wall time of one experiment run; failures are counted, not raised."""
        import cascadim.cli
        import layers
        from workloads import check_report

        argv = self.workload.argv(seed, self.outdir)
        report = self.outdir / "report.json"
        report.unlink(missing_ok=True)
        self.attempted += 1
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                if tracer is None:
                    code = cascadim.cli.main(argv)
                else:
                    with layers.installed(tracer):
                        code = layers.traced_main(tracer, argv)
            elapsed = time.perf_counter() - t0
            if code == 1:
                problem = f"exit 1: {err.getvalue().strip()}"
            else:
                problem = check_report(self.workload, json.loads(report.read_text()), seed)
        except Exception as exc:  # a traceback from the program is a failed run
            elapsed = time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            print(f"FAILED {self.workload.name} seed {seed}: {problem}", file=sys.stderr)
        return elapsed


def _done(start: float, seconds: float, runs: int, min_runs: int) -> bool:
    elapsed = time.perf_counter() - start
    return (elapsed >= seconds and runs >= min_runs) or elapsed >= HARD_STOP_S


def pool_order(seed: int) -> list[int]:
    """The pool of experiment seeds, rotated by the workload seed."""
    return [POOL[(seed + k) % len(POOL)] for k in range(len(POOL))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float) -> tuple[Runner, dict, dict]:
    config = HERE / "configs" / workload.config
    runner = Runner(workload)
    order = pool_order(seed)
    start = time.perf_counter()
    runner.once(order[0])  # warm-up: first-touch memory and lazy imports
    times = {exp_seed: [] for exp_seed in order}
    setup = []
    runs = 0
    peak_rss_mb = None
    while not _done(start, seconds, runs, len(order)):
        exp_seed = order[runs % len(order)]
        times[exp_seed].append(runner.once(exp_seed))
        runs += 1
        if runs == len(order):
            # the high-water mark over the whole pool, so a faster program
            # that fits more passes into the window reads the same
            peak_rss_mb = _peak_rss_mb()
        # set-up samples spread over the window, so a slow stretch of the
        # machine weighs on them as it does on the runs
        setup.append(measure_setup(config))
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(config))
    metrics = {
        # every realization weighs the same, however many passes it got
        "run_s": statistics.fmean(statistics.median(ts) for ts in times.values() if ts),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
        "pass_rate": 1.0 - runner.failed / runner.attempted,
    }
    return runner, metrics, {"run_s": [t for ts in times.values() for t in ts], "setup_s": setup}


def traced(workload, seed: int, seconds: float) -> tuple[Runner, dict, dict, dict]:
    """Per-layer metrics from alternating untraced and traced runs of one input."""
    import layers

    names = metric_units()["per_layer"]
    runner = Runner(workload)
    exp_seed = pool_order(seed)[0]
    start = time.perf_counter()
    runner.once(exp_seed)  # warm-up
    overheads, summaries = [], []
    while not _done(start, seconds, len(summaries), MIN_TRACED_PAIRS):
        tracer = layers.Tracer()
        # alternate the order, so that neither kind always runs second
        if len(summaries) % 2 == 0:
            plain = runner.once(exp_seed)
            overheads.append(runner.once(exp_seed, tracer) - plain)
        else:
            with_trace = runner.once(exp_seed, tracer)
            overheads.append(with_trace - runner.once(exp_seed))
        summaries.append(tracer.summary())
    counts = {k: summaries[0][k] for k in layers.COUNT_METRICS}
    for s in summaries[1:]:
        if any(s[k] != v for k, v in counts.items()):
            runner.failed += 1
            print(f"FAILED {workload.name}: layer counts differ between runs", file=sys.stderr)
    metrics = {}
    for name in names:
        if name in counts:
            metrics[name] = counts[name]
        elif name in summaries[0]:
            metrics[name] = statistics.median(s[name] for s in summaries)
    metrics["cascade.ns_per_leaf"] = statistics.median(
        1e9 * s["cascade.walk_s"] / s["cascade.leaves"] if s["cascade.leaves"] else 0.0
        for s in summaries
    )
    draws = counts["experiments.draws"]
    metrics["experiments.accept_ratio"] = counts["experiments.accepted"] / draws if draws else 1.0
    # median of paired differences: each traced run against the untraced run next to it
    metrics["trace.overhead_s"] = statistics.median(overheads)
    samples = {"trace.overhead_s": overheads}
    return runner, {name: metrics[name] for name in names}, samples, counts


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    units = metric_units()["per_layer" if trace else "end_to_end"]
    if trace:
        runner, metrics, samples, _ = traced(workload, seed, seconds)
    else:
        runner, metrics, samples = end_to_end(workload, seed, seconds)
    print("machine " + json.dumps(machine()))
    for key, value in metrics.items():
        line = f"{name} {key} {value:.6g} {units[key]}"
        if key in samples:
            vals = samples[key]
            q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else [value] * 3
            line += f" ({len(vals)} samples: median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g}, max {max(vals):.6g})"
        print(line)
    if not trace:
        print(f"{name} fail_rate {runner.failed / runner.attempted:.6g} ratio")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cascadim" / "__init__.py").is_file():
        print(f"error: no cascadim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
