"""Monte Carlo experiments: tail curves against explicit bounds, surface
validity, existence probing, equivariance and monotonicity checks, and the
config-file driven runner behind the command line.

Estimates are accounted pessimistically: a replicate the certification
budget cannot resolve widens the reported interval (miss on the lower
side, hit on the upper side) and is counted in unresolved_frac, never
silently dropped.  Replicate seeds derive from (master_seed,
replicate_index) through the lattice mixing, so any partition of the
replicate range over workers merges by plain count addition; outputs are
a pure function of the experiment description.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import __version__ as _version
from .bounds import (HypothesisError, spread_rate, spread_tail_bound,
                     surface_tail_bound)
from .brw import OffspringLaw, martingale_table, survival_curve
from .lattice import (BoxRegion, Column, PercolationField, SignedPermutationField,
                      replicate_closed_masks)
from .reach import (Budget, StepSet, column_run, column_runs, floor_reach_masks,
                    floor_reach_sandwich)
from .stats import Z_99, wilson_interval
from .surface import Cert, build_surface, minimal_cover, verify_surface

TAIL_CSV_HEADER = "k,trials,hits_lo,hits_hi,p_lo,p_hi,ci_lo,ci_hi,bound,unresolved_frac"

TAIL_KINDS = ("f_tail", "radh_tail", "rho_tail")


class ConfigError(ValueError):
    """Invalid experiment description; the message names the offending field."""

    def __init__(self, field_name: str, problem: str):
        self.field_name = field_name
        super().__init__(f"config field '{field_name}': {problem}")


class BudgetExceededError(RuntimeError):
    """Certification left more replicates unresolved than the threshold allows."""


@dataclass(frozen=True)
class Experiment:
    """One experiment description; JSON configs mirror these fields."""

    kind: str
    d: int = 2
    p: float = 0.99
    p_grid: tuple[float, ...] | None = None
    replicates: int = 1000
    seed: int = 0
    k_max: int = 4
    box_margin: int = 6
    box_height: int = 8
    growth_cap: int = 3
    step_mode: StepSet = StepSet.FULL
    base_radius: int = 5
    mu: float = 0.6931471805599453
    runs: int = 1000
    generations: int = 8
    depth_cap: int = 30
    weight_floor: float = 0.0
    unresolved_threshold: float = 1e-3

    @property
    def budget(self) -> Budget:
        return Budget(self.box_margin, self.box_height, self.growth_cap)


_FIELD_TYPES = {
    "kind": str, "d": int, "p": float, "p_grid": list, "replicates": int,
    "seed": int, "k_max": int, "n_max": int, "box_margin": int,
    "box_height": int, "growth_cap": int, "step_mode": str,
    "base_radius": int, "mu": float, "runs": int, "generations": int,
    "depth_cap": int, "weight_floor": float, "unresolved_threshold": float,
    "out": str, "format": str,
}


def experiment_from_config(obj: dict) -> Experiment:
    """Validate a raw config mapping; every failure names its field."""
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key, val in obj.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(key, "unknown field")
        want = _FIELD_TYPES[key]
        if want is float and isinstance(val, int) and not isinstance(val, bool):
            continue
        if not isinstance(val, want) or isinstance(val, bool):
            raise ConfigError(key, f"expected {want.__name__}, got {type(val).__name__}")
    if "kind" not in obj:
        raise ConfigError("kind", "missing (one of %s)" % ", ".join(KINDS))
    if obj["kind"] not in KINDS:
        raise ConfigError("kind", f"unknown kind '{obj['kind']}'")
    kwargs = {k: v for k, v in obj.items() if k in Experiment.__dataclass_fields__}
    if "n_max" in obj:
        kwargs["k_max"] = obj["n_max"]
    if "step_mode" in obj:
        modes = {s.value: s for s in StepSet}
        if obj["step_mode"] not in modes:
            raise ConfigError("step_mode", f"expected one of {sorted(modes)}")
        kwargs["step_mode"] = modes[obj["step_mode"]]
    if "p_grid" in obj and obj["p_grid"] is not None:
        grid = obj["p_grid"]
        if not grid or any(not isinstance(x, (int, float)) or isinstance(x, bool)
                           for x in grid):
            raise ConfigError("p_grid", "must be a nonempty list of numbers")
        if sorted(grid) != list(grid):
            raise ConfigError("p_grid", "must be sorted ascending")
        if any(not 0.0 < x < 1.0 for x in grid):
            raise ConfigError("p_grid", "entries must lie in (0,1)")
        kwargs["p_grid"] = tuple(float(x) for x in grid)
    exp = Experiment(**kwargs)
    if exp.d < 2:
        raise ConfigError("d", "must be >= 2")
    if not 0.0 < exp.p < 1.0:
        raise ConfigError("p", "must lie in (0,1)")
    if exp.replicates < 1:
        raise ConfigError("replicates", "must be >= 1")
    if exp.k_max < 0:
        raise ConfigError("k_max", "must be >= 0")
    if exp.box_margin < 1 or exp.box_height < 1:
        raise ConfigError("box_margin/box_height", "must be >= 1")
    if exp.growth_cap < 0:
        raise ConfigError("growth_cap", "must be >= 0")
    if exp.kind == "existence_curve" and exp.p_grid is None:
        raise ConfigError("p_grid", "required for existence_curve")
    if exp.kind in ("radh_tail", "rho_tail") and exp.step_mode is not StepSet.FULL:
        raise ConfigError("step_mode",
                          "spread/cover tails are defined for the full step set only")
    return exp


@dataclass(frozen=True)
class TailRow:
    k: int
    trials: int
    hits_lo: int
    hits_hi: int
    ci_lo: float
    ci_hi: float
    bound: float

    @property
    def p_lo(self) -> float:
        return self.hits_lo / self.trials

    @property
    def p_hi(self) -> float:
        return self.hits_hi / self.trials

    @property
    def unresolved_frac(self) -> float:
        return (self.hits_hi - self.hits_lo) / self.trials


@dataclass(frozen=True)
class TailCurve:
    """Per-level tail estimates with Wilson 99% intervals and the matching
    closed-form bound column (recomputed from the bounds module, never
    cached elsewhere)."""

    kind: str
    d: int
    p: float
    rows: tuple[TailRow, ...]

    def max_unresolved_frac(self) -> float:
        return max((r.unresolved_frac for r in self.rows), default=0.0)

    def to_csv(self) -> str:
        return _rows_to_csv(self.to_json()["rows"], TAIL_CSV_HEADER)

    def to_json(self) -> dict:
        # row keys are the TAIL_CSV_HEADER columns, which to_csv relies on
        return {"kind": self.kind, "d": self.d, "p": self.p,
                "rows": [{"k": r.k, "trials": r.trials, "hits_lo": r.hits_lo,
                          "hits_hi": r.hits_hi, "p_lo": r.p_lo, "p_hi": r.p_hi,
                          "ci_lo": r.ci_lo, "ci_hi": r.ci_hi, "bound": r.bound,
                          "unresolved_frac": r.unresolved_frac}
                         for r in self.rows]}


def _tail_curve(exp: Experiment, kind: str, levels: int, runs, bound_at,
                restricted: bool = False) -> TailCurve:
    """Tail rows for levels 0..levels-1.  `runs` yields, per chunk of
    replicates, integer arrays (lo, hi) of the statistic's certified lower
    and upper values: level k is a sure hit where lo >= k and a possible
    hit where hi >= k.  The hypothesis is checked before any replicate runs."""
    if spread_rate(exp.d, exp.p, restricted) >= 1.0:
        raise HypothesisError(
            f"a^2*q >= 1 at d={exp.d}, p={exp.p}; tail bound hypothesis violated")
    ks = np.arange(levels)
    hits_lo = np.zeros(levels, dtype=np.int64)
    hits_hi = np.zeros(levels, dtype=np.int64)
    for lo, hi in runs:
        hits_lo += (lo[:, None] >= ks).sum(axis=0)
        hits_hi += (hi[:, None] >= ks).sum(axis=0)
    n = exp.replicates
    # Python ints: the CSV body is written with repr()
    rows = tuple(TailRow(k, n, lo, hi, wilson_interval(lo, n, Z_99)[0],
                         wilson_interval(hi, n, Z_99)[1], bound_at(k))
                 for k, (lo, hi) in enumerate(zip(hits_lo.tolist(),
                                                  hits_hi.tolist())))
    return TailCurve(kind, exp.d, exp.p, rows)


# sites hashed and swept per chunk of replicates: keeps a chunk's arrays
# to a few MB whatever the box size (about 1000 replicates of the default
# d=2 box, about 35 at d=3)
_CHUNK_SITES = 1 << 18


def _origin_box(d: int, h: int, margin: int) -> BoxRegion:
    pad = h + margin
    return BoxRegion(tuple([-pad] * (d - 1) + [0]), tuple([pad] * (d - 1) + [h]))


def _runs_settled(ro, rp, h: int, k_max: int):
    """Whether a box of height h settles the origin column: the sides agree
    strictly below the top, or every level up to k_max is already a certain
    hit.  Works elementwise on arrays of runs."""
    return ((ro == rp) & (rp < h - 1)) | (ro >= k_max)


def _origin_floor_runs(field, k_max: int, budget: Budget,
                       step_set: StepSet) -> tuple[int, int]:
    """Optimistic and pessimistic runs of the floor-reachable set in the
    origin column, grown until agreement strictly below the box top."""
    h = max(budget.height, k_max + 2)
    col = (0,) * (field.d - 1)
    ro = rp = 0
    for attempt in range(budget.growth_cap + 1):
        sw = floor_reach_sandwich(field, _origin_box(field.d, h, budget.margin),
                                  step_set)
        ro = column_run(sw.optimistic, col)
        rp = column_run(sw.pessimistic, col)
        if _runs_settled(ro, rp, h, k_max):
            break
        if attempt < budget.growth_cap:
            h *= 2
    return ro, rp


def _floor_runs(exp: Experiment):
    """Optimistic and pessimistic origin-column runs, chunk by chunk: one
    numpy pass hashes and sweeps the first box of every replicate in the
    chunk, and only the replicates that box leaves unsettled go through the
    per-replicate growth loop, which repeats the first box and goes on from
    there."""
    kmax = exp.k_max
    h = max(exp.budget.height, kmax + 2)
    box = _origin_box(exp.d, h, exp.budget.margin)
    origin = (0,) * (exp.d - 1)
    chunk = max(1, _CHUNK_SITES // box.size)
    for start in range(0, exp.replicates, chunk):
        reps = np.arange(start, min(start + chunk, exp.replicates))
        closed = replicate_closed_masks(exp.d, exp.p, exp.seed, reps, box)
        opt, pes = floor_reach_masks(closed, exp.step_mode)
        ro = column_runs(opt, box, origin)
        rp = column_runs(pes, box, origin)
        for i in np.flatnonzero(~_runs_settled(ro, rp, h, kmax)):
            field = PercolationField(exp.d, exp.p, exp.seed, int(reps[i]))
            ro[i], rp[i] = _origin_floor_runs(field, kmax, exp.budget,
                                              exp.step_mode)
        yield ro, rp


def _cover_radii(exp: Experiment, radius: str, levels: int):
    """One chunk of every replicate's minimal-cover radius (the attribute
    named `radius`) at the origin column: the radius itself on the lower
    side, and on the upper side the radius if the cover is certified, else
    `levels`, a possible hit at every level."""
    origin = (0,) * (exp.d - 1)
    lo, hi = [], []
    for rep in range(exp.replicates):
        field = PercolationField(exp.d, exp.p, exp.seed, rep)
        cover = minimal_cover(field, origin, exp.budget)
        r = getattr(cover, radius)
        lo.append(r)
        hi.append(r if cover.certified else levels)
    yield np.array(lo), np.array(hi)


def surface_tail_curve(exp: Experiment) -> TailCurve:
    """Tail of the surface height at the origin column: per replicate the
    sandwich certifies how far the origin column lies in the floor-reachable
    set, and F(0) > k exactly when the run reaches height k."""
    restricted = exp.step_mode is StepSet.NO_STRAIGHT_DOWN
    return _tail_curve(exp, "f_tail", exp.k_max + 1, _floor_runs(exp),
                       lambda k: surface_tail_bound(exp.d, exp.p, k, restricted),
                       restricted)


def spread_tail_curve(exp: Experiment) -> TailCurve:
    """Tail of the climb-set spread radius at the origin column."""
    levels = exp.k_max + 1
    return _tail_curve(exp, "radh_tail", levels,
                       _cover_radii(exp, "spread_radius", levels),
                       lambda k: spread_tail_bound(exp.d, exp.p, k))


def cover_tail_curve(exp: Experiment) -> TailCurve:
    """Tail of the minimal-cover radius at the origin column, levels
    n = 0..k_max+1; the bound column is the spread bound shifted by one
    (the cover radius exceeds the spread radius by exactly one)."""
    levels = exp.k_max + 2
    return _tail_curve(exp, "rho_tail", levels,
                       _cover_radii(exp, "cover_radius", levels),
                       lambda n: spread_tail_bound(exp.d, exp.p, max(0, n - 1)))


def surface_validity(exp: Experiment) -> dict:
    """Build replicate surfaces over a base patch and verify openness and
    the Lipschitz property on every certified column."""
    base = _base_ball(exp.d, exp.base_radius)
    total = certified = 0
    open_bad = lip_bad = 0
    for rep in range(exp.replicates):
        field = PercolationField(exp.d, exp.p, exp.seed, rep)
        patch = build_surface(field, base, exp.budget)
        report = verify_surface(field, patch)
        total += len(patch.columns)
        certified += len(patch.certified_columns())
        open_bad += len(report.openness_violations)
        lip_bad += len(report.lipschitz_violations)
    return {
        "kind": "surface_validity", "d": exp.d, "p": exp.p,
        "replicates": exp.replicates, "columns_total": total,
        "columns_certified": certified,
        "certified_fraction": certified / total if total else 1.0,
        "openness_violations": open_bad, "lipschitz_violations": lip_bad,
    }


def _base_ball(d: int, radius: int) -> list[Column]:
    rng = range(-radius, radius + 1)
    return [tuple(c) for c in itertools.product(rng, repeat=d - 1)]


_REGIME_LABEL = "outside proven regime"


def existence_curve(exp: Experiment) -> list[dict]:
    """Fraction of replicates with a fully certified surface over the base,
    per grid p, on coupled uniforms (same seed and replicate across p).

    This probes where construction succeeds; it estimates no critical
    parameter.  Rows with p at or below 1 - (2d-1)^-2 are labelled as
    outside the regime any bound covers.
    """
    if exp.p_grid is None:
        raise ConfigError("p_grid", "required for existence_curve")
    base = _base_ball(exp.d, exp.base_radius)
    threshold = 1.0 - (2 * exp.d - 1) ** -2
    rows = []
    for p in exp.p_grid:
        successes = 0
        for rep in range(exp.replicates):
            field = PercolationField(exp.d, p, exp.seed, rep)
            patch = build_surface(field, base, exp.budget)
            if all(st is Cert.CERTIFIED for st in patch.status.values()):
                successes += 1
        rows.append({
            "p": p, "successes": successes, "trials": exp.replicates,
            "fraction": successes / exp.replicates,
            "regime": "proven" if p > threshold else _REGIME_LABEL,
        })
    return rows


def signed_permutations(k: int):
    """All isometries of Z^k fixing the origin: coordinate permutations
    composed with sign flips (2^k * k! of them; 8 when k = 2)."""
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1, -1), repeat=k):
            yield perm, signs


def equivariance_check(exp: Experiment) -> dict:
    """Exact commutation of surface construction with lattice symmetries:
    building on the remapped field equals remapping the built surface,
    configuration by configuration."""
    base = _base_ball(exp.d, exp.base_radius)
    mismatches = 0
    isometries = list(signed_permutations(exp.d - 1))
    for rep in range(exp.replicates):
        field = PercolationField(exp.d, exp.p, exp.seed, rep)
        patch = build_surface(field, base, exp.budget)
        for perm, signs in isometries:
            view = SignedPermutationField(field, perm, signs)
            vpatch = build_surface(view, base, exp.budget)
            for col in vpatch.columns:
                mapped = view.map_column(col)
                if (vpatch.values[col] != patch.values[mapped]
                        or vpatch.status[col] is not patch.status[mapped]):
                    mismatches += 1
    return {"kind": "equivariance", "d": exp.d, "p": exp.p,
            "replicates": exp.replicates, "isometries": len(isometries),
            "mismatches": mismatches}


def monotonicity_check(exp: Experiment) -> dict:
    """On shared-uniform coupled fields, certified surface values must never
    increase when p increases (opening sites shrinks the floor-reachable set)."""
    if exp.p_grid is None or len(exp.p_grid) < 2:
        raise ConfigError("p_grid", "monotonicity needs a grid of at least two p values")
    base = _base_ball(exp.d, exp.base_radius)
    violations = 0
    pairs = 0
    for rep in range(exp.replicates):
        patches = []
        for p in exp.p_grid:
            field = PercolationField(exp.d, p, exp.seed, rep)
            patches.append(build_surface(field, base, exp.budget))
        for lo_patch, hi_patch in zip(patches, patches[1:]):
            for col in base:
                if (lo_patch.status[col] is Cert.CERTIFIED
                        and hi_patch.status[col] is Cert.CERTIFIED):
                    pairs += 1
                    if hi_patch.values[col] > lo_patch.values[col]:
                        violations += 1
    return {"kind": "monotonicity", "d": exp.d, "p_grid": list(exp.p_grid),
            "replicates": exp.replicates, "pairs_checked": pairs,
            "violations": violations}


BRW_CSV_HEADER = "n,mean_S,se_S,alpha_pow_n,survival_hat,survival_ci_hi,bound"
EXISTENCE_CSV_HEADER = "p,successes,trials,fraction,regime"


def brw_rows(exp: Experiment) -> list[dict]:
    """Merged martingale and survival table for the CSV interface."""
    law = OffspringLaw(exp.d, exp.p, exp.mu, exp.depth_cap, exp.weight_floor)
    mart = martingale_table(law, exp.generations, exp.runs, exp.seed)
    surv = survival_curve(law, exp.generations, exp.runs, exp.seed)
    rows = []
    for m, s in zip(mart, surv):
        rows.append({"n": m.n, "mean_S": m.mean_s, "se_S": m.se_s,
                     "alpha_pow_n": m.alpha_pow, "survival_hat": s.frequency,
                     "survival_ci_hi": s.ci_hi, "bound": s.bound})
    return rows


def _rows_to_csv(rows: list[dict], header: str) -> str:
    """Numbers go out as repr(), strings (the existence regime) as they are."""
    cols = header.split(",")
    lines = [header]
    for r in rows:
        lines.append(",".join([r[c] if isinstance(r[c], str) else repr(r[c])
                               for c in cols]))
    return "\n".join(lines) + "\n"


def _tail_job(curve: TailCurve):
    return curve.to_json(), curve.to_csv(), curve.max_unresolved_frac()


def _summary_job(payload: dict, header: str, unresolved=None):
    return payload, _rows_to_csv([payload], header), unresolved


def _table_job(kind: str, rows: list[dict], header: str):
    return {"kind": kind, "rows": rows}, _rows_to_csv(rows, header), None


def _validity_job(exp: Experiment):
    payload = surface_validity(exp)
    return _summary_job(payload, ",".join(k for k in payload if k != "kind"),
                        1.0 - payload["certified_fraction"])


# kind -> job returning (payload, CSV body, unresolved share); a share of
# None means the kind leaves nothing unresolved and never fails the budget.
# Jobs look the module-level functions up at call time, so rebinding one
# (tracing, tests) reaches the runner.
_JOBS = {
    "f_tail": lambda exp: _tail_job(surface_tail_curve(exp)),
    "radh_tail": lambda exp: _tail_job(spread_tail_curve(exp)),
    "rho_tail": lambda exp: _tail_job(cover_tail_curve(exp)),
    "surface_validity": _validity_job,
    "existence_curve": lambda exp: _table_job(
        "existence_curve", existence_curve(exp), EXISTENCE_CSV_HEADER),
    "equivariance": lambda exp: _summary_job(
        equivariance_check(exp), "d,p,replicates,isometries,mismatches"),
    "monotonicity": lambda exp: _summary_job(
        monotonicity_check(exp), "replicates,pairs_checked,violations"),
    "brw": lambda exp: _table_job("brw", brw_rows(exp), BRW_CSV_HEADER),
}
KINDS = tuple(_JOBS)


def _config_dict(config) -> dict:
    """A config mapping as given, or read from the JSON file a path names."""
    if isinstance(config, (str, bytes)):
        try:
            with open(config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError("<file>", f"cannot read config: {e}") from e
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return config


def run_experiment(config, out_path: str | None = None) -> dict:
    """Run one experiment from a config mapping or JSON file path.

    Returns {"payload": ..., "csv": ..., "paths": [...]} and, when an output
    path is given (argument or config["out"]), writes the CSV (or JSON) body
    there plus a sibling .meta.json with seed, version, and wall time.  The
    body is a pure function of the config; only the metadata carries timing.
    """
    config = _config_dict(config)
    out_path = out_path or config.get("out")
    fmt = config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format", "expected 'csv' or 'json'")
    exp = experiment_from_config(config)

    start = time.time()
    payload, csv_text, unresolved = _JOBS[exp.kind](exp)
    elapsed = time.time() - start

    paths = []
    if out_path:
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n" \
            if fmt == "json" else csv_text
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body)
        meta = {
            "config": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in config.items()},
            "kind": exp.kind, "seed": exp.seed, "version": _version,
            "wall_time_s": elapsed,
        }
        meta_path = out_path + ".meta.json"
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
        paths = [out_path, meta_path]

    if unresolved is not None and unresolved > exp.unresolved_threshold:
        raise BudgetExceededError(
            f"unresolved fraction exceeded threshold {exp.unresolved_threshold}")
    return {"payload": payload, "csv": csv_text, "paths": paths,
            "wall_time_s": elapsed}


def cover_sweep(p: float = 0.99, radius: int = 2, h_max: int = 2) -> dict:
    """Exhaustive sweep over every configuration of the d=2 box
    [-radius, radius] x [0, h_max]: the engine's minimal cover must equal
    the oracle's least fixed point wherever both certify, and the sweep
    accumulates exact spread-tail probabilities for cross-checking Monte
    Carlo intervals."""
    from .lattice import ExplicitConfig, ExplicitField
    from .oracle import NoCoverInBox, attained_spread, cover_fixed_point

    box = BoxRegion((-radius, 0), (radius, h_max))
    n = box.size
    budget = Budget(margin=radius, height=h_max, growth_cap=0)
    q = 1.0 - p
    p_pow = [p ** k for k in range(n + 1)]
    q_pow = [q ** k for k in range(n + 1)]
    origin = (0,)
    both = mismatches = 0
    spread_prob = {k: 0.0 for k in range(1, h_max + 1)}
    for bits in range(1 << n):
        config = ExplicitConfig.from_bits(box, bits)
        prob = p_pow[bits.bit_count()] * q_pow[n - bits.bit_count()]
        spread = attained_spread(config, origin)
        for k in spread_prob:
            if spread >= k:
                spread_prob[k] += prob
        fast = minimal_cover(ExplicitField(config), origin, budget)
        orc = cover_fixed_point(config, origin, h_max)
        if fast.certified and not isinstance(orc, NoCoverInBox):
            both += 1
            if (fast.entries != orc.entries
                    or fast.spread_radius != orc.spread_radius
                    or fast.cover_radius != orc.cover_radius):
                mismatches += 1
    return {"name": "cover_sweep", "configs": 1 << n, "both_certified": both,
            "mismatches": mismatches, "exact_spread_tail": spread_prob,
            "passed": mismatches == 0}


def walk_path_sweep() -> dict:
    """Every configuration of a 3x3 (d=2) box: breadth-first walk reach,
    the oracle's naive walk fixed point, and the oracle's distinct-site
    path enumeration must reach identical site sets."""
    from .lattice import ExplicitConfig, ExplicitField
    from .oracle import path_reach, walk_reach
    from .reach import reach

    box = BoxRegion((-1, 0), (1, 2))
    bottom = [(-1, 0), (0, 0), (1, 0)]
    disagreements = 0
    cases = 0
    for bits in range(1 << box.size):
        config = ExplicitConfig.from_bits(box, bits)
        field = ExplicitField(config)
        for sources, floor in (([(0, 0)], 0), (bottom, 0),
                               ([(0, 1)], None), ([(0, 2)], None)):
            cases += 1
            fast = reach(field, sources, box, height_floor=floor).reached
            slow_walk = walk_reach(config, sources, height_floor=floor)
            slow_path = path_reach(config, sources, height_floor=floor)
            if not (fast == slow_walk == slow_path):
                disagreements += 1
    return {"name": "walk_path_sweep", "cases": cases,
            "disagreements": disagreements, "passed": disagreements == 0}


def bucket_check(d: int, max_len: int, step_set: StepSet = StepSet.FULL) -> dict:
    """Every (up, down) bucket of the exhaustive path enumeration must hold
    at most a^(up+down) paths."""
    from .bounds import step_count
    from .oracle import enum_paths

    a = step_count(d, step_set is StepSet.NO_STRAIGHT_DOWN)
    enum = enum_paths(d, step_set, max_len)
    worst = 0.0
    failures = 0
    for (u, dn), cnt in enum.by_ud.items():
        ratio = cnt / a ** (u + dn)
        worst = max(worst, ratio)
        if cnt > a ** (u + dn):
            failures += 1
    return {"name": f"bucket_check(d={d},len<={max_len},{step_set.value})",
            "buckets": len(enum.by_ud), "worst_ratio": worst,
            "failures": failures, "passed": failures == 0}


def en_check(d: int, p: float, max_len: int,
             pairs: Iterable[tuple[int, int]] = ((0, 0), (1, 0), (0, 1), (-1, 1)),
             step_set: StepSet = StepSet.FULL) -> dict:
    """Truncated expected-path sums must stay below the closed-form bound."""
    from .bounds import path_sum_bound
    from .oracle import partial_expected_visits

    restricted = step_set is StepSet.NO_STRAIGHT_DOWN
    results = []
    failures = 0
    for h, r in pairs:
        partial = partial_expected_visits(d, p, h, r, max_len, step_set)
        bound = path_sum_bound(d, p, h, r, restricted)
        ok = partial <= bound
        failures += 0 if ok else 1
        results.append({"h": h, "r": r, "partial": partial, "bound": bound,
                        "ok": ok})
    return {"name": f"en_check(d={d},p={p})", "pairs": results,
            "failures": failures, "passed": failures == 0}


def oracle_suite(p: float = 0.99, max_len: int = 6) -> dict:
    """The standard oracle sweeps behind the `oracle` subcommand."""
    checks = [
        cover_sweep(p=p),
        walk_path_sweep(),
        bucket_check(2, max_len),
        bucket_check(2, max_len, StepSet.NO_STRAIGHT_DOWN),
        bucket_check(3, min(max_len, 6)),
        en_check(2, p, max_len),
        en_check(3, p, min(max_len, 6)),
    ]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
