"""Per-layer tracing of cascadim from outside the package.

Spans are recorded by wrapping the public functions of each module at the
names through which callers reach them (``cascadim.experiments.sumset``,
``cascadim.cascade.codes_to_letters``, ...).  Nothing under ``src/`` knows
about tracing: ``installed()`` swaps the wrappers in and restores the
originals on exit.

A span is (layer, start, end, parent, counts).  A layer's self time is the
span's duration minus the part of that interval its child spans cover.
Spans opened in a worker thread of the experiment driver's pool have no
parent on their own thread; they take the innermost span open on the thread
that created the tracer, which is the driver's run span.  Self times are
summed over spans, so with threads they are thread-seconds.
"""
from __future__ import annotations

import contextlib
import threading
import time
from pathlib import Path

import cascadim.cascade
import cascadim.cli
import cascadim.euclid
import cascadim.experiments
import cascadim.ifs

# span layer -> per-layer time metric
TIME_METRICS = {
    "cascade.walk": "cascade.walk_s",
    "symbolic.decode": "symbolic.decode_s",
    "ifs.map": "ifs.map_s",
    "ifs.gamma": "ifs.gamma_s",
    "euclid.image": "euclid.image_s",
    "euclid.sumset": "euclid.sumset_s",
    "euclid.atomic": "euclid.atomic_s",
    "dimension.entropy": "dimension.entropy_s",
    "dimension.box": "dimension.box_s",
    "experiments.run": "experiments.driver_s",
    "cli.write": "cli.write_s",
}

COUNT_METRICS = (
    "cascade.walk_calls",
    "cascade.leaves",
    "symbolic.decoded_letters",
    "ifs.mapped_points",
    "euclid.image_in",
    "euclid.image_out",
    "euclid.sumset_calls",
    "euclid.sumset_pairs",
    "euclid.sumset_out",
    "euclid.atoms",
    "dimension.ball_queries",
    "dimension.box_queries",
    "experiments.draws",
    "experiments.accepted",
    "experiments.discarded",
    "experiments.unused_draws",
)

ROOT = "cli.main"


class Span:
    __slots__ = ("layer", "parent", "start", "end", "counts")

    def __init__(self, layer: str, parent: "Span | None"):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict = {}


class Tracer:
    """Collects spans in memory; one tracer per traced experiment run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, args, kwargs, count=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(layer, parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    def summary(self) -> dict:
        """Per-layer self times and counts of every span recorded so far."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        self_time = {}
        counts = {}
        for s in self.spans:
            covered = _union_length(
                [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), [])]
            )
            self_time[s.layer] = self_time.get(s.layer, 0.0) + (s.end - s.start) - covered
            for k, v in s.counts.items():
                counts[k] = counts.get(k, 0) + v
        roots = [s for s in self.spans if s.layer == ROOT]
        run_s = sum(s.end - s.start for s in roots)
        out = {name: self_time.get(layer, 0.0) for layer, name in TIME_METRICS.items()}
        out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
        # not a work count: the report holds the run's own wall time
        out["cli.report_bytes"] = counts.get("cli.report_bytes", 0)
        out["run_s"] = run_s
        uncovered = self_time.get(ROOT, 0.0) + self_time.get("experiments.run", 0.0)
        out["trace.coverage"] = 1.0 - uncovered / run_s if run_s > 0 else 0.0
        return out


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


# -- counters: what each wrapped call did, read from its arguments and result


def _leaves(args, kwargs, result):
    return {"cascade.walk_calls": 1, "cascade.leaves": len(result)}


def _decoded(args, kwargs, result):
    return {"symbolic.decoded_letters": int(result.size)}


def _mapped(args, kwargs, result):
    return {"ifs.mapped_points": int(result.shape[0])}


def _image(args, kwargs, result):
    # codes or cylinders in, merged intervals or atoms out
    return {"euclid.image_in": len(args[0]), "euclid.image_out": len(result)}


def _sumset(args, kwargs, result):
    return {
        "euclid.sumset_calls": 1,
        "euclid.sumset_pairs": len(args[0]) * len(args[1]),
        "euclid.sumset_out": len(result),
    }


def _atoms(args, kwargs, result):
    return {"euclid.atoms": len(result)}


def _ball_queries(args, kwargs, result):
    sample_size = args[2] if len(args) > 2 else kwargs.get("sample_size")
    centers = len(args[0]) if sample_size is None else sample_size
    return {"dimension.ball_queries": centers * len(result.scales)}


def _box_queries(args, kwargs, result):
    return {"dimension.box_queries": len(args[0]) * len(result.scales)}


def _report(args, kwargs, result):
    return {"experiments.discarded": result.discarded_seeds}


def _written(args, kwargs, result):
    outdir = Path(args[1])
    names = ("report.json", "scales.csv", "plot.svg")
    return {"cli.report_bytes": sum((outdir / n).stat().st_size for n in names if (outdir / n).exists())}


# (owner, attribute, layer, counter): every name a workload reaches a layer by
_TARGETS = [
    (cascadim.experiments, "percolation_codes", "cascade.walk", _leaves),
    (cascadim.experiments, "cascade_measure", "cascade.walk", _leaves),
    (cascadim.euclid, "cascade_measure", "cascade.walk", _leaves),
    (cascadim.cascade, "codes_to_letters", "symbolic.decode", _decoded),
    (cascadim.ifs, "codes_to_letters", "symbolic.decode", _decoded),
    (cascadim.ifs.AffineIfs, "points_for_letters", "ifs.map", _mapped),
    (cascadim.experiments, "gamma_estimate", "ifs.gamma", None),
    (cascadim.experiments, "set_image", "euclid.image", _image),
    (cascadim.experiments, "pushforward", "euclid.image", _image),
    (cascadim.euclid, "pushforward", "euclid.image", _image),
    (cascadim.experiments, "sumset", "euclid.sumset", _sumset),
    (cascadim.experiments, "product", "euclid.atomic", _atoms),
    (cascadim.euclid, "product", "euclid.atomic", _atoms),
    (cascadim.experiments, "project", "euclid.atomic", _atoms),
    (cascadim.experiments, "marginal", "euclid.atomic", _atoms),
    (cascadim.experiments, "convolve", "euclid.atomic", _atoms),
    (cascadim.experiments, "bernoulli_convolution", "euclid.atomic", _atoms),
    (cascadim.experiments, "entropy_dimension", "dimension.entropy", _ball_queries),
    (cascadim.experiments, "box_dimension", "dimension.box", _box_queries),
    (cascadim.cli, "run_experiment", "experiments.run", _report),
    (cascadim.experiments.ExperimentReport, "write", "cli.write", _written),
]


def _span_wrapper(tracer: Tracer, layer: str, fn, count):
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, count)

    return wrapper


def _survival_wrapper(tracer: Tracer, fn):
    """Counts the draws of the survival loop; its time stays the driver's."""

    def wrapper(master, need, worker, threads):
        calls = []

        def counted(rng, idx):
            calls.append(idx)
            return worker(rng, idx)

        results, discarded = fn(master, need, counted, threads)
        counts = Span("experiments.draws", None)  # carries counts only
        counts.counts = {
            "experiments.draws": len(calls),
            "experiments.accepted": len(results),
            "experiments.unused_draws": len(calls) - len(results) - discarded,
        }
        tracer.spans.append(counts)
        return results, discarded

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced name through ``tracer`` for the duration."""
    saved = []
    try:
        for owner, attr, layer, count in _TARGETS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _span_wrapper(tracer, layer, fn, count))
        fn = cascadim.experiments._collect_surviving
        saved.append((cascadim.experiments, "_collect_surviving", fn))
        cascadim.experiments._collect_surviving = _survival_wrapper(tracer, fn)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def traced_main(tracer: Tracer, argv: list[str]) -> int:
    """``cascadim.cli.main(argv)`` as the root span of ``tracer``."""
    return tracer.call(ROOT, cascadim.cli.main, (argv,), {})
