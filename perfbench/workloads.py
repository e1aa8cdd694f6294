"""The four benchmark workloads and the output check behind ``fail_rate``.

Each workload is one CLI experiment run in process, closed loop, one client:
the next run starts when the previous one has written its report.  The
config files under ``perfbench/configs`` are copies of the repository's
acceptance configs; the benchmark overrides only the seed, the trial count
(so that one run fits many times into a measurement) and the thread count.

Why each workload was chosen is written next to its definition below; the
one-line ``why`` of each in BENCHMARK.json summarises it.  Shares quoted are
shares of run time, single thread unless noted, measured on a 2-core Intel
Xeon virtual machine at the commit that introduced the benchmark.  They count
the word decoding and coding-map calls made inside a walk or an image as part
of it; ``--trace 1`` reports those as layers of their own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"

# Estimate of the exact-overlap image dimension measured by this code at the
# benchmark's first commit (seed 101, 32 trials, depth 16).  The literature
# value 0.8096 fails by design (acceptance 5c), so the check compares against
# what the program measured, not against the formula target in the report.
OVERLAP_REFERENCE = 0.9691


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: str
    trials: int | None
    threads: int

    def argv(self, seed: int, outdir: Path) -> list[str]:
        argv = [self.experiment, "--config", str(CONFIGS / self.config), "--seed", str(seed)]
        argv += ["--out", str(outdir), "--threads", str(self.threads)]
        if self.trials is not None:
            argv += ["--trials", str(self.trials)]
        return argv


WORKLOADS = {
    w.name: w
    for w in [
        # Tree walk and coding map.  Per trial (1.6-2.0 s): cascade walk ~48%,
        # euclid.set_image ~48% (it decodes the codes twice), gamma ~4%.
        # Exercises the walker and the image; bypasses sumset, atomic measures
        # and ball-mass entropy.  32 trials take 45 s, so a run has 2: one
        # single-thread wave of draws, none of them walked in vain.
        Workload("overlap-image", "perc-image-dim", "perc_image_overlap.json", 2, 1),
        # Erosion sumset.  euclid.sumset ~95%, walk and image ~4%.  The
        # workload that bypasses the walker: a faster walk must not move it.
        # About one trial in five is sparse enough for the brute path, which
        # costs about three times as much; in the timed pool (run.POOL) 12 of
        # the 48 sumsets take it.
        Workload("sumset-dense", "sumset-dim", "sumset_dim_supercritical.json", 4, 1),
        # Unpruned depth-18 walk (262k leaves) imaged to points, then the
        # convolution materialises and lexsorts 3M planar atoms:
        # euclid.convolve ~80%, peak RSS ~330 MB.  Exercises atomic measures.
        Workload("bconv", "bconv", "bconv.json", None, 1),
        # Full-sum ball-mass entropy ~52%, lognormal cascade_measure ~31%,
        # pushforward ~16%.  The only workload that runs the driver's
        # per-wave thread pool (2 threads = cores) and the full-sum entropy.
        # 16 trials is a multiple of the 2-thread wave (4 draws), and
        # lognormal cascades never die, so no draw is discarded.
        Workload("cascade-lognormal-t2", "cascade-dim", "cascade_dim_lognormal.json", 16, 2),
    ]
}


def _band(estimate: dict, tolerance: float) -> float:
    return max(tolerance, 3.0 * estimate["stderr"])


def _h(p: float) -> float:
    return -(p * math.log(p) + (1 - p) * math.log(1 - p)) if 0 < p < 1 else 0.0


def check_report(workload: Workload, report: dict, seed: int) -> str | None:
    """None when ``report.json`` is right for the workload, else the reason.

    Targets are recomputed here from the experiment's formula, and the
    estimate must lie within the experiment's own band, max(tolerance,
    3 stderr), of them.
    """
    if report.get("experiment") != workload.experiment or report.get("seed") != seed:
        return "report is for another experiment or seed"
    p = report["params"]
    tol = p["tolerance"]
    if workload.experiment == "perc-image-dim":
        est = report["estimate"]
        if abs(est["value"] - OVERLAP_REFERENCE) > _band(est, tol):
            return f"estimate {est['value']:.4f} vs measured reference {OVERLAP_REFERENCE}"
        return None
    if workload.experiment == "sumset-dim":
        a, b = p["alphabet_a"], p["alphabet_b"]
        target = min(1.0, 2.0 + math.log(p["p_a"]) / math.log(a) + math.log(p["p_b"]) / math.log(b))
        entries = [{"value": e["estimate"], "stderr": e["stderr"]} for e in report["scan"]]
        if len(entries) != len(p["s_values"]):
            return "sumset scan misses an s value"
    elif workload.experiment == "bconv":
        target = min(
            1.0,
            _h(p["p_a"]) / math.log(1 / p["beta_a"]) + _h(p["p_b"]) / math.log(1 / p["beta_b"]),
        )
        entries = [report["estimate"]]
    else:  # cascade-dim, lognormal law
        a = p["alphabet"]
        target = (math.log(a) - p["sigma"] ** 2 / 2.0) / math.log(a)
        entries = [report["estimate"]]
    if not math.isclose(report["target"]["value"], target, rel_tol=1e-9):
        return f"report target {report['target']['value']} differs from formula {target}"
    for est in entries:
        if abs(est["value"] - target) > _band(est, tol):
            return f"estimate {est['value']:.4f} outside band of target {target:.4f}"
    return None
