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

import contextlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .cascade import KeyedRng, WeightLaw, cascade_measure, degenerate_regime, percolation_codes
from .dimension import box_dimension, default_scales, entropy_dimension
from .errors import CapExceeded, CascadimError, ConfigError
from .euclid import (
    bernoulli_convolution,
    convolve,
    marginal,
    product,
    project,
    projection_coefficient,
    pushforward,
    set_image,
    sumset,
)
from .ifs import AffineIfs, gamma_estimate
from .svgplot import write_loglog_svg
from .symbolic import DEFAULT_WORD_CAP, Subshift, SymbolicMeasure, numbering

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


def _extinction_warnings(p: float, shift: Subshift, name: str) -> list:
    """The warning that makes a verdict advisory when percolation at ``p`` on ``shift`` dies almost surely,
    that is when p e^h_top <= 1: the image is then almost surely empty, and its dimension formula fails."""
    h_top = shift.topological_entropy()
    if not degenerate_regime(-math.log(p), h_top):
        return []
    return [f"degenerate regime: {name} e^h_top = {p * math.exp(h_top):.4g} <= 1, the percolation dies "
            "almost surely: verdict is advisory"]


# A schema entry is (types, default, rule): a default of None makes the key
# optional and _REQUIRED required; the rule is None, a range (test, what a
# value must be), or a dict that gives each value the keys that follow it.
_REQUIRED = object()
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_DEPTH = (lambda v: 1 <= v <= 62, "must lie in [1, 62], an input bound that keeps m^depth small in the lattice test")
# a run builds (a+1)-by-a successor and step tables before any walk, so every
# alphabet key keeps (a+1)*a within DEFAULT_WORD_CAP entries: a <= 4,471
_MAX_ALPHABET = (math.isqrt(4 * DEFAULT_WORD_CAP + 1) - 1) // 2
_ALPHABET = (
    lambda v: 2 <= v <= _MAX_ALPHABET,
    f"must lie in [2, {_MAX_ALPHABET}]: a run's (a+1) x a tables hold at most {DEFAULT_WORD_CAP} entries",
)
_SUBSHIFT = (lambda v: isinstance(v, list) or v in ("full", "golden-mean"), "must be full, golden-mean or matrix rows")
_IFS = (lambda v: v == "tiling" or all(len(row) == 2 for row in v), "must be tiling or [ratio, translation] maps")
_FIT_LENGTH = (lambda v: v >= 4, "must be >= 4")
_PROBABILITY = (lambda v: 0.0 < v <= 1.0, "must lie in (0,1]")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must lie in (0,1)")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_NONEMPTY = (lambda v: len(v) > 0, "must not be empty")
_NONZERO = (lambda v: len(v) > 0 and 0 not in v, "must be nonempty, with no zero entry")
# a product's atoms and a run's drawn centres take the same budget as its tables
_ATOM_CAP = (lambda v: 1 <= v <= DEFAULT_WORD_CAP, f"must lie in [1, {DEFAULT_WORD_CAP}]")
_SAMPLE_SIZE = (
    lambda v: v == 0 or 2 <= v <= DEFAULT_WORD_CAP,
    f"must be 0 (sum over all atoms) or in [2, {DEFAULT_WORD_CAP}] (the sample std needs two centers)",
)

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
        except (ValueError, RecursionError) as exc:  # bad JSON, bytes not UTF-8, an over-long integer, deep nesting
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    return cfg


def validate_config(cfg: dict) -> dict:
    """Apply the typed schema: unknown keys are errors, defaults fill gaps.

    Returns exactly the keys the run reads, in schema order, with a law's
    keys right after ``law``: the report's ``params``.  An ``alphabet`` left
    out is the subshift's: a matrix's row count, 2 for ``"golden-mean"`` and
    the experiment's ``full_alphabet`` for ``"full"``.  Nothing is built.
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
            numeric = float in types and _is_number(value)
            if not (numeric or isinstance(value, types)):
                raise ConfigError(f"key {key!r} must have type {types}")
            rows = [[value]] if numeric else []
            if isinstance(value, list):
                # subshift matrices and IFS maps are lists of rows
                rows = value if str in types else [value]
                if not all(isinstance(r, list) and all(map(_is_number, r)) for r in rows):
                    what = "lists of numbers" if str in types else "numbers"
                    raise ConfigError(f"key {key!r} must be a list of {what}")
            # each number a run reads as a float; float() of an int past the largest float overflows
            if not all(abs(v) <= sys.float_info.max for r in rows for v in r):
                raise ConfigError(f"key {key!r} must hold finite numbers only")
            if numeric:
                value = float(value)
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
    if out.get("alphabet", 0) is None:
        spec = out["subshift"]
        full = EXPERIMENTS[name]["full_alphabet"]
        out["alphabet"] = len(spec) if isinstance(spec, list) else 2 if spec == "golden-mean" else full
    for key, alphabet in (("base_probs", "alphabet"), ("probs_a", "alphabet_a"), ("probs_b", "alphabet_b")):
        probs = out.get(key)  # summed as floats: a sum of ints may pass the largest float
        if probs is not None and (len(probs) != out[alphabet] or min(probs) < 0
                                  or abs(sum(map(float, probs)) - 1.0) > 1e-12):
            raise ConfigError(f"{key} must be a probability vector of length {alphabet} = {out[alphabet]}")
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _made(what: str, make, *args):
    """``make(*args)``, its ``ValueError`` refused as one ``ConfigError``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _numbered(key: str, a: int, depth: int, numeral=None) -> None:
    """``numbering(a, depth, numeral)``, its ``CapExceeded`` refused as one ``ConfigError`` naming ``key``."""
    try:
        numbering(a, depth, numeral)
    except CapExceeded as exc:
        raise ConfigError(f"{exc}: {key} must keep the walk's numbers under the cap") from exc


def _build(cfg) -> dict:
    """The objects the run reads, by the names its runner takes, each walk's numbering checked first.

    Each ``alphabet`` key is a factor, named by its suffix: a subshift and an
    IFS on that alphabet, whose maps share one ratio (``AffineIfs.from_maps``
    refuses any other).  A factor that walks a cascade also
    gets its base measure, and the run its law (V = 1 without ``law``).  A
    cascade walk numbers words by base-a codes, a percolation walk as
    ``percolation_codes`` does for its IFS, and ``gamma_estimate``'s walks
    (``n_max``, ``gamma_nmax``) by base-a codes, as ``overlap_count`` lists
    words; ``numbering`` checks each.  Each ``s_grid`` entry must give
    ``project`` a coefficient for delta = 1/a.
    """
    walks = EXPERIMENTS[cfg["experiment"]].get("walks")
    built = {}
    if walks == "cascade":
        kind = cfg.get("law")
        built["law"] = WeightLaw.percolation(1.0) if kind is None else _made(
            f"{kind} law", getattr(WeightLaw, kind), *(cfg[key] for key in _LAWS[kind])
        )
    for key in [k for k in cfg if k.startswith("alphabet")]:
        sfx, a = key[len("alphabet"):], cfg[key]
        spec = cfg.get("subshift", "full")
        shift = (_made("subshift matrix", Subshift.sft, spec) if isinstance(spec, list)
                 else Subshift.golden_mean() if spec == "golden-mean" else Subshift.full(a))
        spec = cfg.get("ifs", "tiling")
        ifs = AffineIfs.tiling(a) if spec == "tiling" else _made("ifs maps", AffineIfs.from_maps, spec)
        if shift.alphabet_size != a or ifs.alphabet_size != a:
            raise ConfigError(f"{key} {a}: the subshift has {shift.alphabet_size} letters, the ifs {ifs.alphabet_size}")
        built |= {"shift" + sfx: shift, "ifs" + sfx: ifs}
        if walks:
            depth = cfg["depth" + sfx]
            lattice = ifs.lattice(depth) if walks == "percolation" else None
            _numbered("depth" + sfx, a, depth, None if lattice is None else lattice[:2])
        if walks == "cascade":
            probs = cfg["probs" + sfx] if sfx else cfg["base_probs"]
            # the uniform measure without a law of letters
            built["base" + sfx] = _made("base measure", SymbolicMeasure.bernoulli, probs or [1.0 / a] * a)
    for key in ("n_max", "gamma_nmax"):
        if key in cfg:
            _numbered(key, cfg["alphabet"], cfg[key])
    for s in cfg.get("s_grid", ()):
        _made(f"s_grid entry {s!r}", projection_coefficient, 1.0 / cfg["alphabet_a"], float(s))
    return built


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
    past the core count gain nothing, so the pool and its waves stop there;
    one worker runs the draws in this thread, with no pool.
    """
    results = []
    discarded = 0
    draw = 0
    workers = min(threads, os.cpu_count() or 1)
    wave = workers * 2
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        run = pool.map if pool else map
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
    """Validate ``cfg``, build what its run reads, run its experiment on a read-only view and report."""
    cfg = validate_config(cfg)
    t0 = time.perf_counter()
    found = EXPERIMENTS[cfg["experiment"]]["run"](MappingProxyType(cfg), **_build(cfg))
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


def run_cascade_dim(cfg, law, shift, ifs, base) -> Findings:
    a = cfg["alphabet"]
    depth = cfg["depth"]
    h_mu = base.entropy()
    h_v = law.weight_entropy()
    target = (h_mu - h_v) / math.log(a)
    degenerate = degenerate_regime(h_v, h_mu)
    warning = "degenerate regime: h_V >= h_mu, cascade dies almost surely: verdict is advisory"
    warnings_list = [warning] if degenerate else []
    scales = default_scales(1.0 / a, depth)

    def worker(rng, idx):
        cm = cascade_measure(base, shift, law, depth, rng)
        if len(cm) == 0:
            return None
        return entropy_dimension(pushforward(cm, ifs), scales)

    table = shift.successor_table() * base.step_table()
    fits, discarded = _surviving(cfg, _survival(table, law.positive_probability(), depth), worker)
    return Findings(
        target={"value": target, "formula": "(h_mu - h_V) / log(1/delta), delta = 1/a"},
        checks=[_check([f.slope for f in fits], target, cfg["tolerance"])],
        fits=[(i, "H_r", f.scales, f.observable) for i, f in enumerate(fits)],
        plot=(-np.log(fits[0].scales), fits[0].observable, fits[0].slope, "cascade scaling entropy (trial 0)"),
        warnings=warnings_list, discarded=discarded, trial_fits=fits, advisory=degenerate,
    )


def _dedup_overlap_structure(ifs: AffineIfs):
    """Detect the exactly-overlapping dyadic pattern {x/2+c, x/2+c, x/2+c+1/2}.

    Returns the multiplicities (m_left, m_right) when the deduplicated system
    is a dyadic tiling with the left map doubled, else None.  This is the only
    overlap structure with a closed-form target: on the full 3-shift it gives
    the ``overlap-example`` mode, and every other overlapping IFS is checked
    against the covering upper bound only.
    """
    if ifs.ratio != 0.5 or ifs.alphabet_size != 3:
        return None
    ts = sorted(ifs.translations)
    if ts[0] == ts[1] and ts[2] == ts[0] + 0.5:
        return (2, 1)
    return None


def run_percolation_image_dim(cfg, shift, ifs) -> Findings:
    delta = ifs.ratio
    p = cfg["p"]
    depth = cfg["depth"]
    profile = gamma_estimate(shift, ifs, cfg["gamma_nmax"])
    gamma = profile.gamma_estimate
    degenerate = _extinction_warnings(p, shift, "p")
    warnings_list = list(degenerate)
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
        warnings=warnings_list, extra=extra, discarded=discarded, trial_fits=fits, advisory=bool(degenerate),
    )


# The most interval pairs a sumset of two percolation images may take.
_SUMSET_PAIR_CAP = 200_000_000


def run_sumset_dim(cfg, shift_a, ifs_a, shift_b, ifs_b) -> Findings:
    a, b = cfg["alphabet_a"], cfg["alphabet_b"]
    pa, pb = cfg["p_a"], cfg["p_b"]
    da, db = cfg["depth_a"], cfg["depth_b"]
    s_values = [float(s) for s in cfg["s_values"]]
    dim_sum = 2.0 + math.log(pa) / math.log(a) + math.log(pb) / math.log(b)
    target = min(1.0, dim_sum)
    advisories = _rational_ratio_warnings(math.log(1.0 / a) / math.log(1.0 / b), "log delta / log rho")
    advisories += _extinction_warnings(pa, shift_a, "p_a") + _extinction_warnings(pb, shift_b, "p_b")
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
        scan=True, warnings=advisories, discarded=discarded, advisory=bool(advisories),
    )


def run_projection_scan(cfg, law, shift_a, ifs_a, base_a, shift_b, ifs_b, base_b) -> Findings:
    a, b = cfg["alphabet_a"], cfg["alphabet_b"]
    da, db = cfg["depth_a"], cfg["depth_b"]
    delta = 1.0 / a
    d1 = base_a.entropy() / math.log(a)
    d2 = base_b.entropy() / math.log(b)
    target = min(1.0, d1 + d2)
    saturate = [f"factor dimensions sum to {d1 + d2:.4f} >= 1: projections saturate at 1"] if d1 + d2 >= 1.0 else []
    rng = KeyedRng(cfg["seed"])
    m1 = pushforward(cascade_measure(base_a, shift_a, law, da, rng), ifs_a)
    m2 = pushforward(cascade_measure(base_b, shift_b, law, db, rng), ifs_b)
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
        scan=True, warnings=saturate,
    )


def run_bernoulli_convolution(cfg) -> Findings:
    b1, p1 = cfg["beta_a"], cfg["p_a"]
    b2, p2 = cfg["beta_b"], cfg["p_b"]
    depth = cfg["depth"]
    rational = _rational_ratio_warnings(math.log(b1) / math.log(b2), "log beta / log beta'")
    warnings_list = [
        f"beta {beta} >= 1/2: factor dimension formula assumes the separated regime" for beta in (b1, b2) if beta >= 0.5
    ] + rational

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


def run_gamma(cfg, shift, ifs) -> Findings:
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
# the experiments: config schema beyond _COMMON, in report order, runner, what
# each factor walks (see _build) and the alphabet of an unstated "full" subshift

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
        "walks": "cascade",
    },
    "perc-image-dim": {
        "schema": {
            "alphabet": (int, None, _ALPHABET),  # None: the subshift's
            "subshift": ((str, list), "golden-mean", _SUBSHIFT),
            "ifs": ((str, list), "tiling", _IFS),
            "p": (float, 0.8, _PROBABILITY),
            "depth": (int, 18, _DEPTH),
            "gamma_nmax": (int, 10, _FIT_LENGTH),
            "trials": (int, 32, _AT_LEAST_1),
            "tolerance": (float, 0.08, _NONNEGATIVE),
        },
        "run": run_percolation_image_dim,
        "walks": "percolation",
        "full_alphabet": 2,
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
        "walks": "percolation",
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
            "atom_cap": (int, 2_000_000, _ATOM_CAP),
            "sample_size": (int, 4000, _SAMPLE_SIZE),
            "tolerance": (float, 0.08, _NONNEGATIVE),
        },
        "run": run_projection_scan,
        "walks": "cascade",
    },
    "bconv": {
        "schema": {
            "beta_a": (float, 0.4, _OPEN_UNIT),
            "p_a": (float, 0.9, _PROBABILITY),
            "beta_b": (float, 0.35, _OPEN_UNIT),
            "p_b": (float, 0.85, _PROBABILITY),
            "depth": (int, 18, _DEPTH),
            "atom_cap": (int, 3_000_000, _ATOM_CAP),
            "sample_size": (int, 4000, _SAMPLE_SIZE),
            "tolerance": (float, 0.08, _NONNEGATIVE),
        },
        "run": run_bernoulli_convolution,
    },
    "gamma": {
        "schema": {
            "alphabet": (int, None, _ALPHABET),  # None: the subshift's
            "subshift": ((str, list), "full", _SUBSHIFT),
            "ifs": ((str, list), [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]], _IFS),
            "n_max": (int, 13, _FIT_LENGTH),
            "expect_gamma": (float, 1.0, None),
            "tolerance": (float, 0.05, _NONNEGATIVE),
        },
        "run": run_gamma,
        "full_alphabet": 3,
    },
}
