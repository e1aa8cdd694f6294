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
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import KeyedRng, WeightLaw, cascade_measure, percolation_codes
from .dimension import box_dimension, default_scales, entropy_dimension
from .errors import CascadimError, ConfigError
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
from .symbolic import Subshift, SymbolicMeasure

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
    """Best continued-fraction convergent p/q with q <= max_den, if within tol.

    Returns (p, q) when |x - p/q| < tol, else None.  Used to warn when a
    log-ratio hypothesis ("irrational") is numerically violated.
    """
    h_prev, h = 1, int(math.floor(x))
    k_prev, k = 0, 1
    frac = x - math.floor(x)
    while True:
        if abs(x - h / k) < tol:
            return h, k
        if frac == 0:
            return None
        a = int(math.floor(1.0 / frac))
        frac = 1.0 / frac - a
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if k > max_den:
            return None


_COMMON = {
    "experiment": (str, None),
    "seed": (int, 1),
    "trials": (int, 32),
    "threads": (int, 1),
    "tolerance": (float, None),  # per-experiment default applied when None
    "plot": (bool, False),
}

def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    return cfg


def validate_config(cfg: dict) -> dict:
    """Apply the typed schema: unknown keys are errors, defaults fill gaps."""
    if "experiment" not in cfg:
        raise ConfigError("missing key: experiment")
    name = cfg["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    schema = dict(_COMMON)
    schema.update(EXPERIMENTS[name]["schema"])
    out = {}
    for key, value in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for experiment {name!r}")
        types, default = schema[key]
        types = types if isinstance(types, tuple) else (types,)
        if value is None:
            if default is not None:
                raise ConfigError(f"key {key!r} must not be null")
        else:
            if int in types and isinstance(value, bool):
                raise ConfigError(f"key {key!r} must be an integer")
            if float in types and isinstance(value, (int, float)) and not isinstance(value, bool):
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
        out[key] = value
    for key, (types, default) in schema.items():
        out.setdefault(key, default)
    if out["tolerance"] is None:
        out["tolerance"] = EXPERIMENTS[name]["tolerance"]
    if out["tolerance"] < 0:
        raise ConfigError("tolerance must be >= 0")
    for key in ("trials", "threads", "atom_cap"):
        if key in out and out[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    if "sample_size" in out and not (out["sample_size"] == 0 or out["sample_size"] >= 2):
        raise ConfigError("sample_size must be 0 (sum over all atoms) or >= 2 (the sample std needs two centers)")
    for key in ("s_values", "s_grid"):
        if key in out and not out[key]:
            raise ConfigError(f"{key} must not be empty")
    for key in ("p", "p_a", "p_b"):
        if key in out and not 0.0 < out[key] <= 1.0:
            raise ConfigError(f"{key} must lie in (0,1]")
    for key in ("alphabet", "alphabet_a", "alphabet_b"):
        if key in out and out[key] < 2:
            raise ConfigError(f"{key} must be an integer >= 2")
    for key in ("gamma_nmax", "n_max"):
        if key in out and out[key] < 4:
            raise ConfigError(f"{key} must be >= 4")
    for key in ("beta_a", "beta_b"):
        if key in out and not 0.0 < out[key] < 1.0:
            raise ConfigError(f"{key} must lie in (0,1)")
    for key, alphabet in (("base_probs", "alphabet"), ("probs_a", "alphabet_a"), ("probs_b", "alphabet_b")):
        probs = out.get(key)
        if probs is not None and (
            len(probs) != out[alphabet] or min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-12
        ):
            raise ConfigError(f"{key} must be a probability vector of length {alphabet} = {out[alphabet]}")
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


def _build_law(cfg: dict) -> WeightLaw:
    kind = cfg["law"]
    if kind == "discrete" and (not cfg["values"] or not cfg["probs"]):
        raise ConfigError("discrete law needs values and probs")
    try:
        if kind == "percolation":
            return WeightLaw.percolation(cfg["p"])
        if kind == "lognormal":
            return WeightLaw.lognormal(cfg["sigma"])
        if kind == "discrete":
            return WeightLaw.discrete(cfg["values"], cfg["probs"])
    except ValueError as exc:
        raise ConfigError(f"bad {kind} law: {exc}") from exc
    raise ConfigError(f"unknown weight law {kind!r}")


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
    warnings: list = field(default_factory=list)
    scan: list | None = None
    per_trial: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    scales_rows: list = field(default_factory=list)  # (trial, label, scale, observable)
    plot_data: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

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
        if plot and self.plot_data is not None:
            xs, ys, slope, label, target_slope = self.plot_data
            write_loglog_svg(outdir / "plot.svg", xs, ys, slope, label, target_slope)


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
    their assignment to trials do not depend on the thread count.
    """
    results = []
    discarded = 0
    draw = 0
    wave = max(threads, 1) * 2
    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        run = pool.map if threads > 1 else map
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
        params={k: cfg[k] for k in spec["params"]},
        seed=cfg["seed"],
        target=found.target,
        estimate={"value": worst["estimate"], "stderr": worst["stderr"]},
        verdict=f"advisory-{verdict}" if found.advisory else verdict,
        discarded_seeds=found.discarded,
        runtime_s=round(time.perf_counter() - t0, 3),
        warnings=found.warnings,
        scan=found.checks if found.scan else None,
        per_trial=[{"trial": i, "slope": f.slope, "stderr": f.stderr} for i, f in enumerate(found.trial_fits)],
        extra=found.extra,
        scales_rows=[(t, label, s, o) for t, label, scales, obs in found.fits for s, o in zip(scales, obs)],
        plot_data=(*found.plot, found.target["value"]),
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
    if h_v >= h_mu:
        warnings_list.append("degenerate regime: h_V >= h_mu, cascade dies almost surely")
    scales = default_scales(1.0 / a, depth)

    def worker(rng, idx):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cm = cascade_measure(base, shift, law, depth, rng)
        if cm.is_degenerate:
            return None
        return entropy_dimension(pushforward(cm, ifs), scales)

    table = shift.successor_table() * base.step_table()
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
    a = cfg["alphabet"]
    shift = _build_subshift(cfg["subshift"], a)
    ifs = _build_ifs(cfg["ifs"], shift.alphabet_size)
    if ifs.alphabet_size != shift.alphabet_size:
        raise ConfigError("ifs and subshift alphabets differ")
    delta = ifs.equal_ratio
    if delta is None:
        raise ConfigError("percolation image experiment needs an equal-ratio IFS")
    p = cfg["p"]
    depth = cfg["depth"]
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
        codes = percolation_codes(shift, p, depth, rng)
        if codes.size == 0:
            return None
        img = set_image(codes, ifs, length=depth)
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


def run_sumset_dim(cfg: dict) -> Findings:
    a, b = cfg["alphabet_a"], cfg["alphabet_b"]
    pa, pb = cfg["p_a"], cfg["p_b"]
    da, db = cfg["depth_a"], cfg["depth_b"]
    shift_a, shift_b = Subshift.full(a), Subshift.full(b)
    ifs_a, ifs_b = AffineIfs.tiling(a), AffineIfs.tiling(b)
    s_values = [float(s) for s in cfg["s_values"]]
    if any(s == 0 for s in s_values):
        raise ConfigError("s values must be nonzero")
    dim_sum = 2.0 + math.log(pa) / math.log(a) + math.log(pb) / math.log(b)
    target = min(1.0, dim_sum)
    warnings_list = []
    ratio = math.log(1.0 / a) / math.log(1.0 / b)
    approx = rational_approximation(ratio)
    if approx is not None:
        warnings_list.append(
            f"log delta / log rho ~ {approx[0]}/{approx[1]} is rational: "
            "the additivity hypothesis fails, verdict is advisory"
        )
    # probe scales: dyadic ladder floored at the coarser of the two set scales
    floor = max(1.0 / a**da, 1.0 / b**db) * 2
    ks = range(3, int(-math.log2(floor)) + 1)
    scales = [2.0**-k for k in ks]

    def worker(rng, idx):
        ca = percolation_codes(shift_a, pa, da, rng.derive(1))
        cb = percolation_codes(shift_b, pb, db, rng.derive(2))
        if ca.size == 0 or cb.size == 0:
            return None
        img_a = set_image(ca, ifs_a, length=da)
        img_b = set_image(cb, ifs_b, length=db)
        return {s: box_dimension(sumset(img_a, img_b, s, pair_cap=cfg["pair_cap"]), scales) for s in s_values}

    # a draw counts when both factors survive
    survival = _survival(shift_a.successor_table(), pa, da) * _survival(shift_b.successor_table(), pb, db)
    results, discarded = _surviving(cfg, survival, worker)
    f0 = results[0][s_values[0]]
    return Findings(
        target={"value": target, "formula": "min{1, 2 + log(p)/log(a) + log(p')/log(b)}"},
        checks=[_check([fits[s].slope for fits in results], target, cfg["tolerance"], s=s) for s in s_values],
        fits=[(i, f"s={s:g}", fits[s].scales, fits[s].observable) for i, fits in enumerate(results) for s in s_values],
        plot=(np.log(1 / f0.scales), np.log(f0.observable), f0.slope, "sumset box counts (trial 0)"),
        scan=True, warnings=warnings_list, discarded=discarded, advisory=approx is not None,
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
    ratio = math.log(b1) / math.log(b2)
    approx = rational_approximation(ratio)
    if approx is not None:
        warnings_list.append(
            f"log beta / log beta' ~ {approx[0]}/{approx[1]} is rational: "
            "the additivity hypothesis fails, verdict is advisory"
        )

    def h(p):
        return -(p * math.log(p) + (1 - p) * math.log(1 - p)) if 0 < p < 1 else 0.0

    dsum = h(p1) / math.log(1 / b1) + h(p2) / math.log(1 / b2)
    target = min(1.0, dsum)
    rng = KeyedRng(cfg["seed"])
    m1 = bernoulli_convolution(b1, p1, depth, rng=rng.derive(1))
    m2 = bernoulli_convolution(b2, p2, depth, rng=rng.derive(2))
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
        warnings=warnings_list, advisory=approx is not None,
    )


def run_gamma(cfg: dict) -> Findings:
    shift = _build_subshift(cfg["subshift"], cfg["alphabet"])
    ifs = _build_ifs(cfg["ifs"], shift.alphabet_size)
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
# the experiments: config schema beyond _COMMON, default tolerance, report
# params in order (not every schema key is reported), runner

EXPERIMENTS = {
    "cascade-dim": {
        "schema": {
            "alphabet": (int, 2),
            "base_probs": (list, None),  # None -> uniform
            "law": (str, "percolation"),  # percolation | lognormal | discrete
            "p": (float, 0.7),
            "sigma": (float, 0.5),
            "values": (list, None),
            "probs": (list, None),
            "depth": (int, 16),
        },
        "params": ("alphabet", "base_probs", "law", "p", "sigma", "depth", "trials", "tolerance"),
        "tolerance": 0.06, "run": run_cascade_dim,
    },
    "perc-image-dim": {
        "schema": {
            "alphabet": (int, 2),
            "subshift": ((str, list), "golden-mean"),  # full | golden-mean | matrix rows
            "ifs": ((str, list), "tiling"),  # tiling | [[r, t], ...]
            "p": (float, 0.8),
            "depth": (int, 18),
            "gamma_nmax": (int, 10),
        },
        "params": ("alphabet", "subshift", "ifs", "p", "depth", "trials", "tolerance"),
        "tolerance": 0.08, "run": run_percolation_image_dim,
    },
    "sumset-dim": {
        "schema": {
            "alphabet_a": (int, 2),
            "alphabet_b": (int, 3),
            "p_a": (float, 0.55),
            "p_b": (float, 0.6),
            "depth_a": (int, 16),
            "depth_b": (int, 10),
            "s_values": (list, [1.0, -1.0, math.sqrt(2.0)]),
            "pair_cap": (int, 200_000_000),
        },
        "params": ("alphabet_a", "alphabet_b", "p_a", "p_b", "depth_a", "depth_b", "s_values", "trials", "tolerance"),
        "tolerance": 0.10, "run": run_sumset_dim,
    },
    "projection-scan": {
        "schema": {
            "alphabet_a": (int, 2),
            "probs_a": (list, [0.1, 0.9]),
            "alphabet_b": (int, 3),
            "probs_b": (list, [0.1, 0.8, 0.1]),
            "depth_a": (int, 16),
            "depth_b": (int, 10),
            "s_grid": (list, [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
            "atom_cap": (int, 2_000_000),
            "sample_size": (int, 4000),
        },
        "params": ("alphabet_a", "probs_a", "alphabet_b", "probs_b", "depth_a", "depth_b", "s_grid", "atom_cap",
                   "sample_size", "tolerance"),
        "tolerance": 0.08, "run": run_projection_scan,
    },
    "bconv": {
        "schema": {
            "beta_a": (float, 0.4),
            "p_a": (float, 0.9),
            "beta_b": (float, 0.35),
            "p_b": (float, 0.85),
            "depth": (int, 18),
            "atom_cap": (int, 3_000_000),
            "sample_size": (int, 4000),
        },
        "params": ("beta_a", "p_a", "beta_b", "p_b", "depth", "atom_cap", "sample_size", "tolerance"),
        "tolerance": 0.08, "run": run_bernoulli_convolution,
    },
    "gamma": {
        "schema": {
            "alphabet": (int, 3),
            "subshift": ((str, list), "full"),
            "ifs": ((str, list), [[0.5, 0.0], [0.5, 0.0], [0.5, 0.5]]),
            "n_max": (int, 13),
            "expect_gamma": (float, 1.0),
        },
        "params": ("alphabet", "subshift", "ifs", "n_max", "expect_gamma", "tolerance"),
        "tolerance": 0.05, "run": run_gamma,
    },
}
