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

import functools
import itertools
import json
import math
import operator
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__ as _version
from .bounds import path_sum_bound, spread_tail_bound, step_count, surface_tail_bound
from .brw import OffspringLaw, brw_tables
from .lattice import BoxRegion, Column, ExplicitConfig
from .oracle import (NoCoverInBox, attained_spread, cover_fixed_point, enum_paths,
                     partial_expected_visits, path_reach, walk_reach)
from .reach import Budget, ConfigError, StepSet, _hash_replicates, reach_masks
# unused here: perfbench/selftest.py checks its tracer rebinds this name
from .reach import floor_reach_sandwich  # noqa: F401
from .stats import wilson_interval
from .surface import _cover_entries, _cover_runs, _read_covers, _surface_runs, _violations

TAIL_KINDS = ("f_tail", "radh_tail", "rho_tail")


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
    box_margin: int = Budget.margin
    box_height: int = Budget.height
    growth_cap: int = Budget.growth_cap
    step_mode: StepSet = StepSet.FULL
    base_radius: int = 5
    mu: float = 0.6931471805599453
    runs: int = 1000
    generations: int = 8
    depth_cap: int = 30
    weight_floor: float = 0.0
    unresolved_threshold: float = 1e-3

    def __post_init__(self):
        # the rules of check_fields, on the fields that differ from their
        # defaults, and of check_values: a direct Experiment is checked too
        if self.kind not in _UNREAD:
            raise ConfigError("kind", f"unknown kind {self.kind!r}")
        names, values, defaults = _UNREAD[self.kind]
        if values(self) != defaults:
            changed = {n for n, v, d in zip(names, values(self), defaults) if v != d}
            raise ConfigError(*itertools.chain(
                *sorted(_unread_problems(changed, self.kind).items())))
        check_values(vars(self))

    @functools.cached_property
    def budget(self) -> Budget:
        # built and checked once per experiment; a frozen dataclass still
        # takes the cached value, which goes into the instance __dict__
        return Budget(self.box_margin, self.box_height, self.growth_cap)


_FIELD_TYPES = {
    "kind": str, "d": int, "p": float, "p_grid": list, "replicates": int,
    "seed": int, "k_max": int, "box_margin": int, "box_height": int,
    "growth_cap": int, "step_mode": str, "base_radius": int, "mu": float,
    "runs": int, "generations": int, "depth_cap": int, "weight_floor": float,
    "unresolved_threshold": float, "out": str, "format": str,
}
# the step sets each reader of step_mode takes: f_tail and bounds take both;
# every other reader builds surfaces or climb sets, defined for the full set
_STEP_MODES = dict.fromkeys(("f_tail", "bounds"), tuple(s.value for s in StepSet))


def _unread_problems(keys, reader: str) -> dict:
    """The problem of each field a reader does not read: a config field is
    'not read by' it, and any other key an unknown field."""
    return {key: f"not read by {reader}" if key in _FIELD_TYPES else "unknown field"
            for key in keys}


def check_fields(config: dict, reader: str, reads: frozenset) -> None:
    """The one check of every config before any work: each field is known,
    has its _FIELD_TYPES type (an int passes as a float, a bool as neither),
    is in the set `reader` reads, and an out path is no directory and lies
    in a writable directory.  The error quotes every offending one."""
    problems = _unread_problems(config.keys() - reads, reader)
    for key, val in config.items():
        want = _FIELD_TYPES.get(key)
        if type(val) is not want and key not in problems and not (
                isinstance(val, want) and not isinstance(val, bool)
                or want is float and type(val) is int):
            problems[key] = f"expected {want.__name__}, got {type(val).__name__}"
    if problems:
        raise ConfigError(*itertools.chain(*sorted(problems.items(), key=str)))
    if config.get("format", "csv") not in ("csv", "json"):
        raise ConfigError("format", "expected 'csv' or 'json'")
    out = config.get("out")
    if out and os.path.isdir(out):
        raise ConfigError("out", f"cannot write {out!r}: it is a directory")
    if out and not os.access(os.path.dirname(out) or ".", os.W_OK):
        raise ConfigError("out", f"cannot write {out!r}: no such writable directory")
    modes = _STEP_MODES.get(reader, ("full",))
    if config.get("step_mode", "full") not in modes:
        raise ConfigError("step_mode",
                          f"expected {' or '.join(map(repr, modes))} for {reader}")


# the least value of each bounded field, wherever it is read
_MINIMA = {"d": 2, "replicates": 1, "k_max": 0, "box_margin": 1, "box_height": 1,
           "growth_cap": 0, "base_radius": 0, "runs": 1, "generations": 1,
           "depth_cap": 1, "weight_floor": 0}


def check_values(config: dict) -> None:
    """Each numeric field of a config that passed check_fields is in range
    (NaN is in none); the error quotes every offending one."""
    problems = {key: f"must be >= {least}" for key, least in _MINIMA.items()
                if key in config and not config[key] >= least}
    if "p" in config and not 0.0 < config["p"] < 1.0:
        problems["p"] = "must lie in (0,1)"
    if "mu" in config and not config["mu"] > 0.0:
        problems["mu"] = "must be > 0"
    if math.isnan(config.get("unresolved_threshold", 0.0)):
        problems["unresolved_threshold"] = "must be a number, not NaN"
    if problems:
        raise ConfigError(*itertools.chain(*sorted(problems.items())))


def experiment_from_config(obj: dict) -> Experiment:
    """Validate a raw config mapping; every failure names its field."""
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}" if "kind" in obj
                          else "missing (one of %s)" % ", ".join(KINDS))
    check_fields(obj, kind, _READS[kind])
    kwargs = {k: v for k, v in obj.items() if k in Experiment.__dataclass_fields__}
    if "step_mode" in obj:
        kwargs["step_mode"] = StepSet(obj["step_mode"])
    if "p_grid" in obj:
        grid = obj["p_grid"]
        if not grid or any(not isinstance(x, (int, float)) or isinstance(x, bool)
                           for x in grid):
            raise ConfigError("p_grid", "must be a nonempty list of numbers")
        if sorted(grid) != list(grid):
            raise ConfigError("p_grid", "must be sorted ascending")
        if any(not 0.0 < x < 1.0 for x in grid):
            raise ConfigError("p_grid", "entries must lie in (0,1)")
        kwargs["p_grid"] = tuple(float(x) for x in grid)
    return Experiment(**kwargs)


class TailRow(NamedTuple):
    """One tail CSV row; its fields, in order, are the CSV columns."""

    k: int
    trials: int
    hits_lo: int
    hits_hi: int
    p_lo: float
    p_hi: float
    ci_lo: float
    ci_hi: float
    bound: float
    unresolved_frac: float


TAIL_CSV_HEADER = ",".join(TailRow._fields)


@dataclass(frozen=True)
class TailCurve:
    """Per-level tail estimates with Wilson 99% intervals and the matching
    closed-form bound column (recomputed from the bounds module on every
    call, never cached elsewhere)."""

    kind: str
    d: int
    p: float
    rows: tuple[TailRow, ...]

    def max_unresolved_frac(self) -> float:
        return max((r.unresolved_frac for r in self.rows), default=0.0)

    def to_csv(self) -> str:
        return _rows_to_csv(self.to_json()["rows"])

    def to_json(self) -> dict:
        return {"kind": self.kind, "d": self.d, "p": self.p,
                "rows": [r._asdict() for r in self.rows]}


def _tail_curve(exp: Experiment, kind: str, levels: int, runs, bound_at) -> TailCurve:
    """Tail rows for levels 0..levels-1.  `runs` yields, per chunk of
    replicates, arrays (lo, hi): the statistic's certified lower and upper
    values, level k a sure hit where lo >= k and a possible hit where
    hi >= k.  The bound checks its own hypothesis: bound_at(0) runs before
    the first chunk is drawn from `runs`, so a HypothesisError comes before
    any replicate is hashed."""
    bound_at(0)
    counts = np.zeros((2, levels + 1), dtype=np.int64)
    for lo, hi in runs:
        for side, values in zip(counts, (lo, hi)):
            side += np.bincount(_level_index(values, levels), minlength=levels + 1)
    # hits at level k: the values >= k, the counts at index k + 1 and up;
    # Python ints, as the CSV body is written with repr()
    hits_lo, hits_hi = counts[:, ::-1].cumsum(axis=1)[:, -2::-1].tolist()
    n = exp.replicates
    ci = {h: wilson_interval(h, n) for h in {*hits_lo, *hits_hi}}
    rows = tuple(TailRow(k, n, lo, hi, lo / n, hi / n, ci[lo][0], ci[hi][1],
                         bound_at(k), (hi - lo) / n)
                 for k, (lo, hi) in enumerate(zip(hits_lo, hits_hi)))
    return TailCurve(kind, exp.d, exp.p, rows)


def _level_index(values: np.ndarray, levels: int) -> np.ndarray:
    """values clipped to -1..levels-1, plus one: a value v hits the levels
    0..v, so index 0 hits none and index `levels` hits every level."""
    index = np.minimum(values + 1, levels)
    return np.maximum(index, 0, out=index)


def _cover_radii(exp: Experiment, levels: int):
    """Spread radii at the origin column, chunk by chunk: the minimal cover's
    radius less one on the lower side, and on the upper side the same if the
    cover is certified, else `levels`, a possible hit at every level."""
    return ((rho - 1, np.where(certified, rho - 1, levels))
            for rho, _, certified in _cover_runs(
                exp.replicates, _hash_replicates(exp.d, exp.p, exp.seed),
                (0,) * (exp.d - 1), exp.budget))


def surface_tail_curve(exp: Experiment) -> TailCurve:
    """Tail of the surface height at the origin column: build_surface's
    certificate of the origin column, in floor boxes k_max + 2 high at
    first, and F(0) > k exactly when the run reaches height k."""
    restricted = exp.step_mode is StepSet.NO_STRAIGHT_DOWN
    budget = Budget(exp.box_margin, exp.k_max + 2, exp.growth_cap)
    runs = _surface_runs(exp.replicates, _hash_replicates(exp.d, exp.p, exp.seed),
                         [(0,) * (exp.d - 1)], budget, exp.step_mode, screened=True)
    return _tail_curve(exp, "f_tail", exp.k_max + 1,
                       ((lo[:, 0], hi[:, 0]) for lo, hi, _ in runs),
                       lambda k: surface_tail_bound(exp.d, exp.p, k, restricted))


def spread_tail_curve(exp: Experiment) -> TailCurve:
    """Tail of the climb-set spread radius at the origin column."""
    levels = exp.k_max + 1
    return _tail_curve(exp, "radh_tail", levels,
                       _cover_radii(exp, levels),
                       lambda k: spread_tail_bound(exp.d, exp.p, k))


def cover_tail_curve(exp: Experiment) -> TailCurve:
    """Tail of the minimal-cover radius at the origin column, levels
    n = 0..k_max+1.  The cover radius exceeds the spread radius by exactly
    one, so row n is the spread tail's row n - 1, bound included, and row 0,
    like the spread tail's, is hit by every trial."""
    rows = spread_tail_curve(exp).rows
    return TailCurve("rho_tail", exp.d, exp.p,
                     (rows[0], *(r._replace(k=r.k + 1) for r in rows)))


def _base_runs(exp: Experiment, closed_at):
    """build_surface's runs over the base ball for every replicate of closed_at,
    in chunks set by the first box alone, which ignores p and the field."""
    return _surface_runs(exp.replicates, closed_at, _base_ball(exp.d, exp.base_radius),
                         exp.budget)


def surface_validity(exp: Experiment) -> dict:
    """Build replicate surfaces over a base patch and verify openness and
    the Lipschitz property on every certified column, on a second hash."""
    base = _base_ball(exp.d, exp.base_radius)
    hashes = _hash_replicates(exp.d, exp.p, exp.seed)
    start = certified = open_bad = lip_bad = 0
    for runs, _, settled in _base_runs(exp, hashes):
        items, start = np.arange(start, start + len(runs)), start + len(runs)
        # a surface value is one above its run
        closed, _, steep = _violations(functools.partial(hashes, items), base, runs + 1, settled)
        certified += int(settled.sum())
        open_bad += int(closed.sum())
        lip_bad += int(steep.sum())
    total = exp.replicates * len(base)
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
    threshold = 1.0 - (2 * exp.d - 1) ** -2
    rows = []
    for p in exp.p_grid:
        successes = sum(int(settled.all(axis=1).sum()) for _, _, settled
                        in _base_runs(exp, _hash_replicates(exp.d, p, exp.seed)))
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


def _isometry_view(closed: np.ndarray, perm, signs) -> np.ndarray:
    """Closed masks (B, *box.shape) seen through the column isometry y ->
    (signs[i] * y[perm[i]])_i: entry [b, y, t] is closed[b, image of y, t].
    Exact on a box whose column axes all span -m..m, which the isometry maps
    onto itself; every floor box over the base ball is one."""
    flipped = np.flip(closed, [1 + i for i, s in enumerate(signs) if s < 0])
    return flipped.transpose(0, *(1 + np.argsort(perm)).tolist(), closed.ndim - 1)


def equivariance_check(exp: Experiment) -> dict:
    """Exact commutation of surface construction with lattice symmetries:
    building on the remapped field equals remapping the built surface,
    configuration by configuration."""
    r, k = exp.base_radius, exp.d - 1
    cols = np.array(_base_ball(exp.d, r))
    field_hashes = _hash_replicates(exp.d, exp.p, exp.seed)
    # every stream reads the same read-only masks of a chunk: each (box,
    # items) is hashed once, and dropped once every stream has read it
    masks = {}

    def hashes(items, box):
        key = box, items.tobytes()
        if key not in masks:
            mask = masks[key] = field_hashes(items, box)
            mask.flags.writeable = False
        return masks[key]

    isometries = list(signed_permutations(k))
    # per isometry, the index in the base ball of each base column's image
    images = [np.ravel_multi_index((signs * cols[:, perm] + r).T, (2 * r + 1,) * k)
              for perm, signs in isometries]
    views = [_base_runs(exp, lambda reps, box, perm=perm, signs=signs:
                        _isometry_view(hashes(reps, box), perm, signs))
             for perm, signs in isometries]
    mismatches = 0
    # the field's own runs once, in lockstep with every view's
    for (values, _, settled), *seen in zip(_base_runs(exp, hashes), *views):
        # zip has drawn this chunk from every stream, so its masks are spent
        masks.clear()
        for at, (view_values, _, view_settled) in zip(images, seen):
            mismatches += int(((view_values != values[:, at])
                               | (view_settled != settled[:, at])).sum())
    return {"kind": "equivariance", "d": exp.d, "p": exp.p,
            "replicates": exp.replicates, "isometries": len(isometries),
            "mismatches": mismatches}


def monotonicity_check(exp: Experiment) -> dict:
    """On shared-uniform coupled fields, certified surface values must never
    increase when p increases (opening sites shrinks the floor-reachable set)."""
    if exp.p_grid is None or len(exp.p_grid) < 2:
        raise ConfigError("p_grid", "monotonicity needs a grid of at least two p values")
    violations = pairs = 0
    for chunks in zip(*(_base_runs(exp, _hash_replicates(exp.d, p, exp.seed))
                        for p in exp.p_grid)):
        for (lo_values, _, lo_ok), (hi_values, _, hi_ok) in zip(chunks, chunks[1:]):
            both = lo_ok & hi_ok
            pairs += int(both.sum())
            violations += int((both & (hi_values > lo_values)).sum())
    return {"kind": "monotonicity", "d": exp.d, "p_grid": list(exp.p_grid),
            "replicates": exp.replicates, "pairs_checked": pairs,
            "violations": violations}


def brw_rows(exp: Experiment) -> list[dict]:
    """Merged martingale and survival table for the CSV interface."""
    law = OffspringLaw(exp.d, exp.p, exp.mu, exp.depth_cap, exp.weight_floor)
    mart, surv = brw_tables(law, exp.generations, exp.runs, exp.seed)
    rows = []
    for m, s in zip(mart, surv):
        rows.append({"n": m.n, "mean_S": m.mean_s, "se_S": m.se_s,
                     "alpha_pow_n": m.alpha_pow, "survival_hat": s.frequency,
                     "survival_ci_hi": s.ci_hi, "bound": s.bound})
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    """A CSV body of one or more rows; its columns are the first row's keys.
    Numbers go out as repr(), strings (the existence regime) as they are."""
    cols = list(rows[0])
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join([v if type(v) is str else repr(v)
                               for v in map(r.__getitem__, cols)]))
    return "\n".join(lines) + "\n"


def _tail_job(curve: TailCurve):
    payload = curve.to_json()
    return payload, _rows_to_csv(payload["rows"]), curve.max_unresolved_frac()


def _summary_job(payload: dict, columns, unresolved=None):
    return payload, _rows_to_csv([{c: payload[c] for c in columns}]), unresolved


def _table_job(kind: str, rows: list[dict]):
    return {"kind": kind, "rows": rows}, _rows_to_csv(rows), None


def _validity_job(exp: Experiment):
    payload = surface_validity(exp)
    return _summary_job(payload, [k for k in payload if k != "kind"],
                        1.0 - payload["certified_fraction"])


_BOX_READS = ("box_margin", "box_height", "growth_cap")
# f_tail's first box is k_max + 2 high; only the radius tails read box_height
_TAIL_READS = ("d", "p", "seed", "replicates", "k_max", "step_mode", "box_margin",
               "growth_cap")
_PATCH_READS = ("d", "seed", "replicates", "base_radius", "step_mode", *_BOX_READS)

# kind -> (job, the config fields the kind reads besides the common ones).
# A job returns (payload, CSV body, unresolved share); a share of None means
# the kind leaves nothing unresolved and never fails the budget.  Jobs look
# the module-level functions up at call time, so rebinding one (tracing,
# tests) reaches the runner.
_JOBS = {
    "f_tail": (lambda exp: _tail_job(surface_tail_curve(exp)), _TAIL_READS),
    "radh_tail": (lambda exp: _tail_job(spread_tail_curve(exp)), (*_TAIL_READS, "box_height")),
    "rho_tail": (lambda exp: _tail_job(cover_tail_curve(exp)), (*_TAIL_READS, "box_height")),
    "surface_validity": (_validity_job, (*_PATCH_READS, "p")),
    "existence_curve": (lambda exp: _table_job("existence_curve", existence_curve(exp)),
                        (*_PATCH_READS, "p_grid")),
    "equivariance": (lambda exp: _summary_job(
        equivariance_check(exp), ("d", "p", "replicates", "isometries", "mismatches")),
        (*_PATCH_READS, "p")),
    "monotonicity": (lambda exp: _summary_job(
        monotonicity_check(exp), ("replicates", "pairs_checked", "violations")),
        (*_PATCH_READS, "p_grid")),
    "brw": (lambda exp: _table_job("brw", brw_rows(exp)),
            ("d", "p", "seed", "mu", "runs", "generations", "depth_cap",
             "weight_floor")),
}
KINDS = tuple(_JOBS)
# every kind reads its kind, format, out path and unresolved threshold
_READS = {kind: frozenset(("kind", "format", "out", "unresolved_threshold", *reads))
          for kind, (_, reads) in _JOBS.items()}
# per kind, the Experiment fields it does not read, a getter of their
# values and their defaults (every kind leaves at least two unread)
_UNREAD = {kind: (names, operator.attrgetter(*names),
                  tuple(Experiment.__dataclass_fields__[n].default for n in names))
           for kind, reads in _READS.items()
           for names in [tuple(n for n in Experiment.__dataclass_fields__ if n not in reads)]}


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


def run_experiment(config) -> dict:
    """Run one experiment from a config mapping or JSON file path.

    Returns {"payload": ..., "csv": ..., "paths": [...]} and, when config
    names an "out" path, writes the CSV (or JSON) body there plus a sibling
    .meta.json with seed, version, numpy version and wall time.  The body
    is a pure function of the config; only the metadata carries timing.
    """
    config = _config_dict(config)
    exp = experiment_from_config(config)
    out_path = config.get("out")
    fmt = config.get("format", "csv")

    start = time.time()
    payload, csv_text, unresolved = _JOBS[exp.kind][0](exp)
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
            "numpy": np.__version__, "wall_time_s": elapsed,
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


def _box_configs(box: BoxRegion) -> np.ndarray:
    """Closed masks of every configuration of a tiny box, shaped (2^N,
    *box.shape): entry b is the configuration ExplicitConfig.from_bits(box,
    b), whose bit i is the i-th site in lexicographic order, 1 for open."""
    bits = np.arange(1 << box.size)[:, None] >> np.arange(box.size)
    return ((bits & 1) == 0).reshape(-1, *box.shape)


def cover_sweep(p: float = 0.99, radius: int = 2, h_max: int = 2) -> dict:
    """Exhaustive sweep over every configuration of the d=2 box
    [-radius, radius] x [0, h_max]: one batched climb closes the center
    column's climb set in all of them, and the engine's minimal cover must
    equal the oracle's least fixed point wherever both certify.  The sweep
    accumulates exact spread-tail probabilities for cross-checking Monte
    Carlo intervals."""
    box = BoxRegion((-radius, 0), (radius, h_max))
    n = box.size
    origin = (0,)
    heights, rho, certified = _read_covers(_box_configs(box), box, origin)
    both = mismatches = 0
    spread_prob = {k: 0.0 for k in range(1, h_max + 1)}
    for bits, fast_rho, fast_cert in zip(range(1 << n), rho.tolist(),
                                         certified.tolist()):
        config = ExplicitConfig.from_bits(box, bits)
        prob = p ** bits.bit_count() * (1.0 - p) ** (n - bits.bit_count())
        spread = attained_spread(config, origin)
        for k in spread_prob:
            if spread >= k:
                spread_prob[k] += prob
        orc = cover_fixed_point(config, origin, h_max)
        if fast_cert and not isinstance(orc, NoCoverInBox):
            both += 1
            if (_cover_entries(heights[bits], box.lo[:-1]) != orc.entries
                    or fast_rho - 1 != orc.spread_radius
                    or fast_rho != orc.cover_radius):
                mismatches += 1
    return {"name": "cover_sweep", "configs": 1 << n, "both_certified": both,
            "mismatches": mismatches, "exact_spread_tail": spread_prob,
            "passed": mismatches == 0}


def walk_path_sweep() -> dict:
    """Every configuration of a 3x3 (d=2) box: the engine's reach (one batched
    call per source set), the oracle's naive walk fixed point, and its
    distinct-site path enumeration must reach identical site sets."""
    box = BoxRegion((-1, 0), (1, 2))
    closed = _box_configs(box)
    configs = [ExplicitConfig.from_bits(box, bits) for bits in range(len(closed))]
    bottom = [(-1, 0), (0, 0), (1, 0)]
    disagreements = cases = 0
    for sources, floor in (([(0, 0)], 0), (bottom, 0),
                           ([(0, 1)], None), ([(0, 2)], None)):
        seeds = np.zeros(closed.shape, dtype=bool)
        seeds[(slice(None), *np.subtract(sources, box.lo).T)] = True
        for config, reached in zip(configs, reach_masks(closed, seeds)):
            cases += 1
            fast = set(map(tuple, (np.argwhere(reached) + box.lo).tolist()))
            slow_walk = walk_reach(config, sources, height_floor=floor)
            slow_path = path_reach(config, sources, height_floor=floor)
            if not (fast == slow_walk == slow_path):
                disagreements += 1
    return {"name": "walk_path_sweep", "cases": cases,
            "disagreements": disagreements, "passed": disagreements == 0}


def bucket_check(d: int, max_len: int, step_set: StepSet = StepSet.FULL) -> dict:
    """Every (up, down) bucket of the exhaustive path enumeration must hold
    at most a^(up+down) paths."""
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


def en_check(d: int, p: float, max_len: int) -> dict:
    """Truncated expected-path sums of the full step set must stay below the
    closed-form bound at (h, r) = (0, 0), (1, 0), (0, 1) and (-1, 1)."""
    results = []
    failures = 0
    for h, r in ((0, 0), (1, 0), (0, 1), (-1, 1)):
        partial = partial_expected_visits(d, p, h, r, max_len)
        bound = path_sum_bound(d, p, h, r)
        ok = partial <= bound
        failures += 0 if ok else 1
        results.append({"h": h, "r": r, "partial": partial, "bound": bound,
                        "ok": ok})
    return {"name": f"en_check(d={d},p={p})", "pairs": results,
            "failures": failures, "passed": failures == 0}


def oracle_suite(p: float = 0.99) -> dict:
    """The standard oracle sweeps behind the `oracle` subcommand, on paths
    of up to six steps."""
    checks = [
        cover_sweep(p=p),
        walk_path_sweep(),
        bucket_check(2, 6),
        bucket_check(2, 6, StepSet.NO_STRAIGHT_DOWN),
        bucket_check(3, 6),
        en_check(2, p, 6),
        en_check(3, p, 6),
    ]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
