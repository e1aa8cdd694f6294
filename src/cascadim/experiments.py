"""Named experiments reproducing the closed-form dimension predictions.

Every runner draws its targets from the formula oracles (entropies, Perron
eigenvalues, weight entropies) at run time, never from hard-coded constants,
and returns its ``Findings``; ``run_experiment``, the one driver, builds
every report from them, with estimate, target and verdict.  Reports are
exactly reproducible from (config, master seed): trials derive their streams
from the master seed by index, and survival conditioning assigns the first
surviving draws to trials in draw order, independent of thread count.
"""
from __future__ import annotations

import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cascade import KeyedRng, WeightLaw, cascade_measure, degenerate_regime, percolation_codes
from .dimension import box_dimension, default_scales, entropy_dimension
from .errors import CascadimError, ConfigError, DegenerateCascadeWarning
from .euclid import (
    bernoulli_convolution,
    convolve,
    marginal,
    product,
    project,
    pushforward,
    set_image,
    sumset,
)
from .ifs import AffineIfs, gamma_estimate
from .svgplot import write_loglog_svg
from .symbolic import DEFAULT_WORD_CAP, Subshift, SymbolicMeasure, _numbering

__all__ = [
    "ExperimentReport",
    "load_config",
    "validate_config",
    "run_experiment",
    "EXPERIMENTS",
    "rational_approximation",
]


# ---------------------------------------------------------------------------
# configuration


def rational_approximation(x: float, max_den: int = 50, tol: float = 1e-9):
    """The closest fraction p/q to x with q <= max_den, if within tol.

    Returns (p, q) when |x - p/q| < tol, else None.  Used to warn when a
    log-ratio hypothesis ("irrational") is numerically violated.
    """
    f = Fraction(x).limit_denominator(max_den)
    if abs(x - f.numerator / f.denominator) < tol:
        return f.numerator, f.denominator
    return None


def _rational_ratio_warnings(ratio: float, name: str) -> list:
    """The warning that makes a verdict advisory when ``ratio`` is numerically rational."""
    approx = rational_approximation(ratio)
    if approx is None:
        return []
    return [
        f"{name} ~ {approx[0]}/{approx[1]} is rational: "
        "the additivity hypothesis fails, verdict is advisory"
    ]


# A schema entry is (types, default, rule): a default of None makes the key
# optional and _REQUIRED required; the rule is None, a range (test, what a
# value must be), or a dict that gives each value the keys that follow it.
_REQUIRED = object()
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_DEPTH = (lambda v: 1 <= v <= 62, "must lie in [1, 62]: a longer word has no 62-bit code on any alphabet")
# a run builds (a+1)-by-a successor and step tables before any walk, so every
# alphabet key keeps (a+1)*a within DEFAULT_WORD_CAP entries: a <= 4,471
_MAX_ALPHABET = (math.isqrt(4 * DEFAULT_WORD_CAP + 1) - 1) // 2
_ALPHABET = (
    lambda v: 2 <= v <= _MAX_ALPHABET,
    f"must lie in [2, {_MAX_ALPHABET}]: a run's (a+1) x a tables hold at most {DEFAULT_WORD_CAP} entries",
)
_FIT_LENGTH = (lambda v: v >= 4, "must be >= 4")
_PROBABILITY = (lambda v: 0.0 < v <= 1.0, "must lie in (0,1]")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must lie in (0,1)")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_NONEMPTY = (lambda v: len(v) > 0, "must not be empty")
_NONZERO = (lambda v: len(v) > 0 and 0 not in v, "must be nonempty, with no zero entry")
_SAMPLE_SIZE = (lambda v: v == 0 or v >= 2, "must be 0 (sum over all atoms) or >= 2 (the sample std needs two centers)")

# each weight law's keys, in the order its WeightLaw constructor takes them
_LAWS = {
    "percolation": {"p": (float, 0.7, _PROBABILITY)},
    "lognormal": {"sigma": (float, 0.5, _POSITIVE)},
    "discrete": {"values": (list, _REQUIRED, None), "probs": (list, _REQUIRED, None)},
}

_COMMON = {
    "experiment": (str, None, None),
    "seed": (int, 1, None),
    # every experiment accepts it, since perfbench passes --threads to each
    # workload; only the trial loops read it, and no result depends on it
    "threads": (int, 1, _AT_LEAST_1),
}

def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # bad JSON, bytes that are not UTF-8, or an over-long integer
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    return cfg


def validate_config(cfg: dict) -> dict:
    """Apply the typed schema: unknown keys are errors, defaults fill gaps.

    Returns exactly the keys the run reads, in schema order, with a law's
    keys right after ``law``.
    """
    if "experiment" not in cfg:
        raise ConfigError("missing key: experiment")
    name = cfg["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    todo = [*_COMMON.items(), *EXPERIMENTS[name]["schema"].items()]
    out = {}
    while todo:
        key, (types, default, rule) = todo.pop(0)
        value = cfg.get(key, default)
        if key not in cfg:
            if default is _REQUIRED:
                raise ConfigError(f"missing key: {key}")
        elif value is None:
            if default is not None:
                raise ConfigError(f"key {key!r} must not be null")
        else:
            types = types if isinstance(types, tuple) else (types,)
            if int in types and isinstance(value, bool):
                raise ConfigError(f"key {key!r} must be an integer")
            if float in types and _is_number(value):
                value = float(value)
            elif not isinstance(value, types):
                raise ConfigError(f"key {key!r} must have type {types}")
            rows = [[value]]
            if isinstance(value, list):
                # subshift matrices and IFS maps are lists of rows
                rows = value if str in types else [value]
                if not all(isinstance(r, list) and all(map(_is_number, r)) for r in rows):
                    what = "lists of numbers" if str in types else "numbers"
                    raise ConfigError(f"key {key!r} must be a list of {what}")
            if any(isinstance(v, float) and not math.isfinite(v) for r in rows for v in r):
                raise ConfigError(f"key {key!r} must hold finite numbers only")
        if isinstance(rule, dict):
            if value not in rule:
                raise ConfigError(f"{key} must be one of {sorted(rule)}, not {value!r}")
            todo[:0] = rule[value].items()
        elif rule is not None and value is not None and not rule[0](value):
            raise ConfigError(f"{key} {rule[1]}")
        out[key] = value
    for key in cfg:
        if key not in out:
            raise ConfigError(f"unknown key {key!r} for experiment {name!r}")
    for key, alphabet in (("base_probs", "alphabet"), ("probs_a", "alphabet_a"), ("probs_b", "alphabet_b")):
        probs = out.get(key)
        if probs is not None and (len(probs) != out[alphabet] or min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-12):
            raise ConfigError(f"{key} must be a probability vector of length {alphabet} = {out[alphabet]}")
    for key, alphabet in (("depth_a", "alphabet_a"), ("depth_b", "alphabet_b")):
        # the factors' walks number words by codes; refused here, not after the first factor's walk
        if key in out and out[alphabet] ** out[key] > 2**62:
            raise ConfigError(f"{key} must keep {alphabet}^{key} <= 2^62, the walk's code range")
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build_subshift(spec, alphabet: int) -> Subshift:
    if spec == "full":
        return Subshift.full(alphabet)
    if spec == "golden-mean":
        return Subshift.golden_mean()
    if isinstance(spec, list):
        try:
            return Subshift.sft(spec)
        except ValueError as exc:
            raise ConfigError(f"bad subshift matrix: {exc}") from exc
    raise ConfigError(f"bad subshift spec {spec!r}")


def _build_ifs(spec, alphabet: int) -> AffineIfs:
    if spec == "tiling":
        return AffineIfs.tiling(alphabet)
    if isinstance(spec, list):
        if any(len(row) != 2 for row in spec):
            raise ConfigError("bad ifs maps: each map must be a pair [ratio, translation]")
        try:
            return AffineIfs.from_maps(spec)
        except ValueError as exc:
            raise ConfigError(f"bad ifs maps: {exc}") from exc
    raise ConfigError(f"bad ifs spec {spec!r}")


def _build_system(cfg: dict, use: str, full_alphabet: int) -> tuple[Subshift, AffineIfs]:
    """The config's subshift and IFS: equal-ratio, on one alphabet, as ``use`` needs them.

    A stated ``alphabet`` must be the subshift's; one left out is the
    subshift's, and ``full_alphabet`` for ``"full"``.  ``cfg["alphabet"]``
    becomes the alphabet used, so the report echoes it.
    """
    stated = cfg["alphabet"]
    shift = _build_subshift(cfg["subshift"], full_alphabet if stated is None else stated)
    if stated not in (None, shift.alphabet_size):
        raise ConfigError(f"alphabet {stated} differs from the subshift's {shift.alphabet_size}")
    cfg["alphabet"] = shift.alphabet_size
    ifs = _build_ifs(cfg["ifs"], shift.alphabet_size)
    if ifs.alphabet_size != shift.alphabet_size:
        raise ConfigError("ifs and subshift alphabets differ")
    if ifs.equal_ratio is None:
        raise ConfigError(f"{use} needs an equal-ratio IFS")
    return shift, ifs


def _build_law(cfg: dict) -> WeightLaw:
    """The ``WeightLaw`` constructor named by ``law``, called with that law's keys."""
    kind = cfg["law"]
    try:
        return getattr(WeightLaw, kind)(*(cfg[key] for key in _LAWS[kind]))
    except ValueError as exc:
        raise ConfigError(f"bad {kind} law: {exc}") from exc


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    seed: int
    target: dict
    estimate: dict
    verdict: str
    discarded_seeds: int
    runtime_s: float
    plot_data: tuple  # (xs, ys, slope, label, target slope) for plot.svg
    warnings: list = field(default_factory=list)
    scan: list | None = None
    per_trial: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    scales_rows: list = field(default_factory=list)  # (trial, label, scale, observable)

    def to_dict(self) -> dict:
        keys = ("experiment", "params", "seed", "target", "estimate", "verdict", "discarded_seeds", "runtime_s")
        out = {k: getattr(self, k) for k in keys}
        if self.warnings:
            out["warnings"] = self.warnings
        if self.scan is not None:
            out["scan"] = self.scan
        if self.per_trial:
            out["per_trial"] = self.per_trial
        if self.extra:
            out.update(self.extra)
        return out

    def write(self, outdir, plot: bool = False) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "report.json", "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        with open(outdir / "scales.csv", "w") as fh:
            fh.write("trial,label,scale,observable\n")
            for trial, label, scale, obs in self.scales_rows:
                fh.write(f"{trial},{label},{scale:.17g},{obs:.17g}\n")
        if plot:
            write_loglog_svg(outdir / "plot.svg", *self.plot_data)


@dataclass
class Findings:
    """What one run of an experiment found; ``run_experiment`` reports it."""

    target: dict
    checks: list  # from _check; the report's estimate is the worst of them
    fits: list  # (trial, label, scales, observables): the rows of scales.csv
    plot: tuple  # (xs, ys, slope, label) for plot.svg, drawn against the target
    scan: bool = False  # report every check, not just the worst
    warnings: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    discarded: int = 0
    trial_fits: list = field(default_factory=list)  # one per_trial row each
    advisory: bool = False  # a hypothesis of the target fails: prefix the verdict


def _check(slopes, target: float, tolerance: float, stderr=None, upper=False, **label) -> dict:
    """Judge the mean of ``slopes`` (one estimate or the trials') against ``target``.

    ``stderr`` defaults to the standard error of that mean over the trials.
    Monte Carlo noise must not flake the check: the band is the stated
    tolerance or three standard errors, whichever is wider.  An ``upper``
    bound is checked from above only.  ``label`` names a scan entry.
    """
    arr = np.asarray(slopes, dtype=float)
    est = float(arr.mean())
    if stderr is None:
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    band = max(tolerance, 3.0 * stderr)
    ok = est <= target + band if upper else abs(est - target) <= band
    return dict(label, estimate=est, stderr=stderr, target=target, verdict="pass" if ok else "fail")


def _survival(table: np.ndarray, keep: float, depth: int) -> float:
    """Chance that a walk of ``table`` (see ``walk_tree``) keeps a node at ``depth``.

    Multi-type Galton-Watson recursion, a node's type being its last letter
    (row ``a``: the root): each nonzero entry is a child, kept with
    probability ``keep``, so q_i(n) = 1 - prod_j (1 - keep q_j(n-1)).
    """
    edges = np.asarray(table) != 0
    q = np.ones(len(edges))
    for _ in range(depth):
        q = 1.0 - np.prod(np.where(edges, 1.0 - keep * q[:-1], 1.0), axis=1)
    return float(q[-1])


def _collect_surviving(master: KeyedRng, need: int, worker, threads: int):
    """First ``need`` non-None worker(draw_rng, draw_index) results in index order.

    Draw index doubles as the derived-stream index, so the realizations and
    their assignment to trials do not depend on the thread count.  Threads
    past the core count gain nothing, so the pool and its waves stop there.
    """
    results = []
    discarded = 0
    draw = 0
    workers = min(threads, os.cpu_count() or 1)
    wave = workers * 2
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = pool.map if workers > 1 else map
        while len(results) < need:
            outs = list(run(lambda i: worker(master.derive(i), i), range(draw, draw + wave)))
            draw += wave
            for out in outs:
                if len(results) == need:
                    break  # draws past the last accepted one never count
                if out is None:
                    discarded += 1
                else:
                    results.append(out)
            if draw > 1000 * max(need, 1):
                raise CascadimError(
                    f"survival conditioning gave up after {draw} draws with {len(results)} of "
                    f"{need} realizations alive: the process almost surely dies out by this depth"
                )
    return results, discarded


def _surviving(cfg: dict, survival: float, worker):
    """The config's trials from ``_collect_surviving``, refused before the first
    draw when the ``trials / survival`` draws expected exceed its budget of
    1000 per trial, that is when ``survival`` < 1e-3."""
    if survival < 1e-3:
        raise CascadimError(
            f"a realization survives to full depth with probability {survival:.2g} < 1e-3: "
            f"{cfg['trials']} trials would take more than {1000 * cfg['trials']} draws"
        )
    return _collect_surviving(KeyedRng(cfg["seed"]), cfg["trials"], worker, cfg["threads"])


def run_experiment(cfg: dict) -> ExperimentReport:
    """Validate ``cfg``, run its experiment and report what it found."""
    cfg = validate_config(cfg)
    spec = EXPERIMENTS[cfg["experiment"]]
    t0 = time.perf_counter()
    found = spec["run"](cfg)
    worst = max(found.checks, key=lambda c: abs(c["estimate"] - c["target"]))
    verdict = "pass" if all(c["verdict"] == "pass" for c in found.checks) else "fail"
    return ExperimentReport(
        experiment=cfg["experiment"],
        params={k: v for k, v in cfg.items() if k not in _COMMON},
        seed=cfg["seed"],
        target=found.target,
        estimate={"value": worst["estimate"], "stderr": worst["stderr"]},
        verdict=f"advisory-{verdict}" if found.advisory else verdict,
        discarded_seeds=found.discarded,
        runtime_s=round(time.perf_counter() - t0, 3),
        plot_data=(*found.plot, found.target["value"]),
        warnings=found.warnings,
        scan=found.checks if found.scan else None,
        per_trial=[{"trial": i, "slope": f.slope, "stderr": f.stderr} for i, f in enumerate(found.trial_fits)],
        extra=found.extra,
        scales_rows=[(t, label, s, o) for t, label, scales, obs in found.fits for s, o in zip(scales, obs)],
    )


# ---------------------------------------------------------------------------
# runners


def run_cascade_dim(cfg: dict) -> Findings:
    a = cfg["alphabet"]
    probs = cfg["base_probs"]
    base = SymbolicMeasure.uniform(a) if probs is None else SymbolicMeasure.bernoulli(probs)
    law = _build_law(cfg)
    shift = Subshift.full(a)
    ifs = AffineIfs.tiling(a)
    depth = cfg["depth"]
    h_mu = base.entropy()
    h_v = law.weight_entropy()
    target = (h_mu - h_v) / math.log(a)
    warnings_list = []
    if degenerate_regime(h_v, h_mu):
        warnings_list.append("degenerate regime: h_V >= h_mu, cascade dies almost surely")
    scales = default_scales(1.0 / a, depth)

    def worker(rng, idx):
        cm = cascade_measure(base, shift, law, depth, rng)
        if cm.is_degenerate:
            return None
        return entropy_dimension(pushforward(cm, ifs), scales)

    table = shift.successor_table() * base.step_table()
    # the report carries the degenerate regime as a warning of its own; the
    # filter is set here, not in the workers, because the filter list is
    # shared by every thread
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCascadeWarning)
        fits, discarded = _surviving(cfg, _survival(table, law.positive_probability(), depth), worker)
    return Findings(
        target={"value": target, "formula": "(h_mu - h_V) / log(1/delta), delta = 1/a"},
        checks=[_check([f.slope for f in fits], target, cfg["tolerance"])],
        fits=[(i, "H_r", f.scales, f.observable) for i, f in enumerate(fits)],
        plot=(-np.log(fits[0].scales), fits[0].observable, fits[0].slope, "cascade scaling entropy (trial 0)"),
        warnings=warnings_list, discarded=discarded, trial_fits=fits,
    )


def _dedup_overlap_structure(ifs: AffineIfs):
    """Detect the exactly-overlapping dyadic pattern {x/2+c, x/2+c, x/2+c+1/2}.

    Returns the multiplicities (m_left, m_right) when the deduplicated system
    is a dyadic tiling with the left map doubled, else None.  This is the only
    overlap structure with a closed-form target: on the full 3-shift it gives
    the ``overlap-example`` mode, and every other overlapping IFS is checked
    against the covering upper bound only.
    """
    if ifs.equal_ratio != 0.5 or ifs.alphabet_size != 3:
        return None
    ts = sorted(ifs.translations)
    if ts[0] == ts[1] and ts[2] == ts[0] + 0.5:
        return (2, 1)
    return None


def run_percolation_image_dim(cfg: dict) -> Findings:
    shift, ifs = _build_system(cfg, "percolation image experiment", 2)
    delta = ifs.equal_ratio
    p = cfg["p"]
    depth = cfg["depth"]
    # the numbering percolation_codes walks with, refused past 2^62 before gamma_estimate runs
    lattice = ifs.lattice(depth)
    _numbering(shift.alphabet_size, depth, None if lattice is None else lattice[:2])
    profile = gamma_estimate(shift, ifs, cfg["gamma_nmax"])
    gamma = profile.gamma_estimate
    warnings_list = []
    bound = shift.topological_entropy() / math.log(1.0 / delta) + gamma - math.log(p) / math.log(delta)
    extra = {"gamma_estimate": gamma, "overlap_counts": list(profile.counts), "covering_bound": bound}
    mode = "additive"
    if gamma <= 0.05:
        target = shift.topological_entropy() / math.log(1.0 / delta) - math.log(p) / math.log(delta)
        formula = "h_top/log(1/delta) - log(p)/log(delta)  [gamma ~ 0]"
    else:
        mults = _dedup_overlap_structure(ifs) if shift.is_full_shift else None
        # Surviving preimages of a dyadic cell branch as Bin(m*Z, p) per digit:
        # a branching process in a random environment, supercritical exactly
        # when its mean log-growth (log(m_left p) + log(m_right p))/2 is > 0.
        # Then a fixed fraction of cells survives at every level: dimension 1.
        if mults is not None and sum(math.log(m * p) for m in mults) > 0:
            target = 1.0
            formula = "1, since log(m_left p) + log(m_right p) > 0  [exact-overlap pair, supercritical preimage branching]"
            mode = "overlap-example"
        else:
            target = bound
            formula = "upper bound only: dim_B X_I + gamma - log(p)/log(delta)"
            mode = "bound-only"
            reason = (
                "exact-overlap pair with subcritical preimage branching "
                "(log(m_left p) + log(m_right p) <= 0), no closed form"
                if mults is not None
                else "gamma > 0 and no known overlap structure"
            )
            warnings_list.append(f"{reason}: checking the covering upper bound only")
    scales = default_scales(delta, depth)

    def worker(rng, idx):
        words = percolation_codes(shift, p, depth, rng, ifs)
        if words.size == 0:
            return None
        img = set_image(words, ifs, length=depth)
        return box_dimension(img, scales)

    fits, discarded = _surviving(cfg, _survival(shift.successor_table(), p, depth), worker)
    f0 = fits[0]
    return Findings(
        target={"value": target, "formula": formula, "mode": mode},
        checks=[_check([f.slope for f in fits], target, cfg["tolerance"], upper=mode == "bound-only")],
        fits=[(i, "logN", f.scales, f.observable) for i, f in enumerate(fits)],
        plot=(np.log(1 / f0.scales), np.log(f0.observable), f0.slope, "percolation image box counts (trial 0)"),
        warnings=warnings_list, extra=extra, discarded=discarded, trial_fits=fits,
    )


# The most interval pairs a sumset of two percolation images may take.
_SUMSET_PAIR_CAP = 200_000_000


def run_sumset_dim(cfg: dict) -> Findings:
    a, b = cfg["alphabet_a"], cfg["alphabet_b"]
    pa, pb = cfg["p_a"], cfg["p_b"]
    da, db = cfg["depth_a"], cfg["depth_b"]
    shift_a, shift_b = Subshift.full(a), Subshift.full(b)
    ifs_a, ifs_b = AffineIfs.tiling(a), AffineIfs.tiling(b)
    s_values = [float(s) for s in cfg["s_values"]]
    dim_sum = 2.0 + math.log(pa) / math.log(a) + math.log(pb) / math.log(b)
    target = min(1.0, dim_sum)
    rational = _rational_ratio_warnings(math.log(1.0 / a) / math.log(1.0 / b), "log delta / log rho")
    # probe scales: dyadic ladder floored at the coarser of the two set scales
    floor = max(1.0 / a**da, 1.0 / b**db) * 2
    ks = range(3, int(-math.log2(floor)) + 1)
    scales = [2.0**-k for k in ks]

    def worker(rng, idx):
        ca = percolation_codes(shift_a, pa, da, rng.derive(1), ifs_a)
        cb = percolation_codes(shift_b, pb, db, rng.derive(2), ifs_b)
        if ca.size == 0 or cb.size == 0:
            return None
        img_a = set_image(ca, ifs_a, length=da)
        img_b = set_image(cb, ifs_b, length=db)
        return {s: box_dimension(sumset(img_a, img_b, s, pair_cap=_SUMSET_PAIR_CAP), scales) for s in s_values}

    # a draw counts when both factors survive
    survival = _survival(shift_a.successor_table(), pa, da) * _survival(shift_b.successor_table(), pb, db)
    results, discarded = _surviving(cfg, survival, worker)
    f0 = results[0][s_values[0]]
    return Findings(
        target={"value": target, "formula": "min{1, 2 + log(p)/log(a) + log(p')/log(b)}"},
        checks=[_check([fits[s].slope for fits in results], target, cfg["tolerance"], s=s) for s in s_values],
        fits=[(i, f"s={s:g}", fits[s].scales, fits[s].observable) for i, fits in enumerate(results) for s in s_values],
        plot=(np.log(1 / f0.scales), np.log(f0.observable), f0.slope, "sumset box counts (trial 0)"),
        scan=True, warnings=rational, discarded=discarded, advisory=bool(rational),
    )


def run_projection_scan(cfg: dict) -> Findings:
    a, b = cfg["alphabet_a"], cfg["alphabet_b"]
    base_a = SymbolicMeasure.bernoulli(cfg["probs_a"])
    base_b = SymbolicMeasure.bernoulli(cfg["probs_b"])
    da, db = cfg["depth_a"], cfg["depth_b"]
    delta = 1.0 / a
    d1 = base_a.entropy() / math.log(a)
    d2 = base_b.entropy() / math.log(b)
    target = min(1.0, d1 + d2)
    warnings_list = []
    if d1 + d2 >= 1.0:
        warnings_list.append(
            f"factor dimensions sum to {d1 + d2:.4f} >= 1: projections saturate at 1"
        )
    rng = KeyedRng(cfg["seed"])
    triv = WeightLaw.percolation(1.0)
    m1 = pushforward(cascade_measure(base_a, Subshift.full(a), triv, da, rng), AffineIfs.tiling(a))
    m2 = pushforward(cascade_measure(base_b, Subshift.full(b), triv, db, rng), AffineIfs.tiling(b))
    prod = product(m1, m2, atom_cap=cfg["atom_cap"], rng=rng.derive(101))
    floor = prod.resolution * 8
    ks = range(5, max(9, int(-math.log2(floor))) + 1)
    scales = [2.0**-k for k in ks]
    sample_size = cfg["sample_size"] or None
    checks, fits = [], []

    def scan(label, measure, tgt, stream):
        fit = entropy_dimension(measure, scales, sample_size, rng.derive(stream))
        checks.append(_check(fit.slope, tgt, cfg["tolerance"], fit.stderr, projection=label))
        fits.append((0, label, fit.scales, fit.observable))

    for s in [float(v) for v in cfg["s_grid"]]:
        for sign in (+1, -1):
            scan(f"pi[s={s:g},{'+' if sign > 0 else '-'}]", project(prod, s, sign, delta), target, 202)
    for axis, tgt, name in ((0, d1, "pi_1"), (1, d2, "pi_2")):
        scan(name, marginal(prod, axis), tgt, 203)
    _, _, f0_scales, f0_obs = fits[0]
    return Findings(
        target={
            "value": target,
            "formula": "min{1, h(mu)/log a + h(nu)/log b}; coordinate projections drop to the factor dimension",
            "factor_dims": [d1, d2],
        },
        checks=checks,
        fits=fits,
        plot=(-np.log(f0_scales), f0_obs, checks[0]["estimate"], "projected scaling entropy"),
        scan=True, warnings=warnings_list,
    )


def run_bernoulli_convolution(cfg: dict) -> Findings:
    b1, p1 = cfg["beta_a"], cfg["p_a"]
    b2, p2 = cfg["beta_b"], cfg["p_b"]
    depth = cfg["depth"]
    warnings_list = []
    for beta in (b1, b2):
        if beta >= 0.5:
            warnings_list.append(
                f"beta {beta} >= 1/2: factor dimension formula assumes the separated regime"
            )
    rational = _rational_ratio_warnings(math.log(b1) / math.log(b2), "log beta / log beta'")
    warnings_list += rational

    def h(p):
        return -(p * math.log(p) + (1 - p) * math.log(1 - p)) if 0 < p < 1 else 0.0

    dsum = h(p1) / math.log(1 / b1) + h(p2) / math.log(1 / b2)
    target = min(1.0, dsum)
    rng = KeyedRng(cfg["seed"])
    m1 = bernoulli_convolution(b1, p1, depth)
    m2 = bernoulli_convolution(b2, p2, depth)
    conv = convolve(m1, m2, atom_cap=cfg["atom_cap"], rng=rng.derive(3))
    diam = (m1.points[-1] - m1.points[0]) + (m2.points[-1] - m2.points[0])
    # coarse radii see the support boundary, not the scaling law: start deep
    scales = [diam * 2.0**-k for k in range(6, 16)]
    fit = entropy_dimension(conv, scales, cfg["sample_size"] or None, rng.derive(4))
    return Findings(
        target={"value": target, "formula": "min{1, h(p)/log(1/beta) + h(p')/log(1/beta')}"},
        checks=[_check(fit.slope, target, cfg["tolerance"], fit.stderr)],
        fits=[(0, "H_r", fit.scales, fit.observable)],
        plot=(-np.log(fit.scales), fit.observable, fit.slope, "convolution scaling entropy"),
        warnings=warnings_list, advisory=bool(rational),
    )


def run_gamma(cfg: dict) -> Findings:
    shift, ifs = _build_system(cfg, "overlap counting", 3)
    profile = gamma_estimate(shift, ifs, cfg["n_max"])
    target = cfg["expect_gamma"]
    est = profile.gamma_estimate
    ns = np.arange(1, cfg["n_max"] + 1)
    return Findings(
        target={"value": target, "formula": "limsup log(t_n) / (n log(1/delta))"},
        checks=[_check(est, target, cfg["tolerance"], 0.0)],
        fits=[(0, "t_n", [float(profile.delta**n) for n in ns], [float(c) for c in profile.counts])],
        plot=(ns * math.log(1 / profile.delta), np.log(profile.counts), est, "overlap count growth"),
        extra={"overlap_counts": list(profile.counts), "fit_window": list(profile.fit_window)},
    )


# ---------------------------------------------------------------------------
# the experiments: config schema beyond _COMMON, in report order, and runner

EXPERIMENTS = {
    "cascade-dim": {
        "schema": {
            "alphabet": (int, 2, _ALPHABET),
            "base_probs": (list, None, None),  # None -> uniform
            "law": (str, "percolation", _LAWS),
            "depth": (int, 16, _DEPTH),
            "trials": (int, 32, _AT_LEAST_1),
            "tolerance": (float, 0.06, _NONNEGATIVE),
        },
        "run": run_cascade_dim,
    },
    "perc-image-dim": {
        "schema": {
            "alphabet": (int, None, _ALPHABET),  # the subshift's; 2 for "full"
            "subshift": ((str, list), "golden-mean", None),  # full | golden-mean | matrix rows
            "ifs": ((str, list), "tiling", None),  # tiling | [[r, t], ...]
            "p": (float, 0.8, _PROBABILITY),
            "depth": (int, 18, _DEPTH),
            "gamma_nmax": (int, 10, _FIT_LENGTH),
            "trials": (int, 32, _AT_LEAST_1),
            "tolerance": (float, 0.08, _NONNEGATIVE),
        },
        "run": run_percolation_image_dim,
    },
    "sumset-dim": {
        "schema": {
            "alphabet_a": (int, 2, _ALPHABET),
            "alphabet_b": (int, 3, _ALPHABET),
            "p_a": (float, 0.55, _PROBABILITY),
            "p_b": (float, 0.6, _PROBABILITY),
            "depth_a": (int, 16, _DEPTH),
            "depth_b": (int, 10, _DEPTH),
            "s_values": (list, [1.0, -1.0, math.sqrt(2.0)], _NONZERO),
            "trials": (int, 32, _AT_LEAST_1),
            "tolerance": (float, 0.10, _NONNEGATIVE),
        },
        "run": run_sumset_dim,
    },
    "projection-scan": {
        "schema": {
            "alphabet_a": (int, 2, _ALPHABET),
            "probs_a": (list, [0.1, 0.9], None),
            "alphabet_b": (int, 3, _ALPHABET),
            "probs_b": (list, [0.1, 0.8, 0.1], None),
            "depth_a": (int, 16, _DEPTH),
            "depth_b": (int, 10, _DEPTH),
            "s_grid": (list, [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], _NONEMPTY),
            "atom_cap": (int, 2_000_000, _AT_LEAST_1),
            "sample_size": (int, 4000, _SAMPLE_SIZE),
            "tolerance": (float, 0.08, _NONNEGATIVE),
        },
        "run": run_projection_scan,
    },
    "bconv": {
        "schema": {
            "beta_a": (float, 0.4, _OPEN_UNIT),
            "p_a": (float, 0.9, _PROBABILITY),
            "beta_b": (float, 0.35, _OPEN_UNIT),
            "p_b": (float, 0.85, _PROBABILITY),
            "depth": (int, 18, _DEPTH),
            "atom_cap": (int, 3_000_000, _AT_LEAST_1),
            "sample_size": (int, 4000, _SAMPLE_SIZE),
            "tolerance": (float, 0.08, _NONNEGATIVE),
        },
        "run": run_bernoulli_convolution,
    },
    "gamma": {
        "schema": {
            "alphabet": (int, None, _ALPHABET),  # the subshift's; 3 for "full"
            "subshift": ((str, list), "full", None),
            "ifs": ((str, list), [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]], None),
            "n_max": (int, 13, _FIT_LENGTH),
            "expect_gamma": (float, 1.0, None),
            "tolerance": (float, 0.05, _NONNEGATIVE),
        },
        "run": run_gamma,
    },
}
