import collections
import hashlib
import itertools
import json

import numpy as np
import pytest

from lipsurf import brw, harness
from lipsurf.bounds import HypothesisError, spread_tail_bound, surface_tail_bound
from lipsurf.harness import (TAIL_CSV_HEADER, BudgetExceededError, ConfigError,
                             Experiment, cover_sweep, cover_tail_curve,
                             equivariance_check,
                             existence_curve, experiment_from_config,
                             monotonicity_check, run_experiment,
                             spread_tail_curve, surface_tail_curve,
                             surface_validity, walk_path_sweep)
from lipsurf.lattice import BoxRegion, ExplicitConfig, Field, PercolationField
from lipsurf.oracle import exact_event_prob, walk_reach
import lipsurf.reach as REACH
import lipsurf.surface as SURFACE
from lipsurf.reach import Budget, StepSet, floor_reach_sandwich, reach_masks
from lipsurf.stats import wilson_interval
from lipsurf.surface import Cert, build_surface, verify_surface

from fields import column_runs, sites


def test_experiment_from_config_valid():
    exp = experiment_from_config({"kind": "f_tail", "d": 2, "p": 0.99,
                                  "replicates": 10, "seed": 3, "k_max": 2})
    assert exp.kind == "f_tail" and exp.replicates == 10
    assert exp.step_mode is StepSet.FULL


def test_experiment_from_config_errors_name_fields():
    with pytest.raises(ConfigError, match="kind"):
        experiment_from_config({})
    with pytest.raises(ConfigError, match="wibble"):
        experiment_from_config({"kind": "f_tail", "wibble": 3})
    with pytest.raises(ConfigError, match="'p'"):
        experiment_from_config({"kind": "f_tail", "p": "high"})
    with pytest.raises(ConfigError, match="p_grid"):
        experiment_from_config({"kind": "existence_curve", "p_grid": [0.99, 0.95]})
    with pytest.raises(ConfigError, match="step_mode"):
        experiment_from_config({"kind": "f_tail", "step_mode": "sideways"})
    with pytest.raises(ConfigError, match="step_mode"):
        experiment_from_config({"kind": "radh_tail",
                                "step_mode": "no-straight-down"})
    with pytest.raises(ConfigError, match="replicates"):
        experiment_from_config({"kind": "f_tail", "replicates": 0})


# one valid value for every config field but kind
_VALID = {"d": 2, "p": 0.99, "p_grid": [0.97, 0.99], "replicates": 7,
          "seed": 3, "k_max": 3, "box_margin": 2, "box_height": 2, "growth_cap": 1,
          "step_mode": "full", "base_radius": 2, "mu": 0.5, "runs": 5,
          "generations": 2, "depth_cap": 10, "weight_floor": 0.0,
          "unresolved_threshold": 0.5, "out": "body.csv", "format": "json"}
_BOX = "box_margin box_height growth_cap"
_TAIL = f"d p seed replicates k_max step_mode {_BOX}"
_PATCH = f"d seed replicates base_radius step_mode {_BOX}"
# the fields each kind reads besides kind, format, out and
# unresolved_threshold, which every kind reads; f_tail's first box is
# k_max + 2 high, so it reads no box_height
_KIND_READS = {
    "f_tail": "d p seed replicates k_max step_mode box_margin growth_cap",
    "radh_tail": _TAIL, "rho_tail": _TAIL,
    "surface_validity": f"{_PATCH} p", "equivariance": f"{_PATCH} p",
    "existence_curve": f"{_PATCH} p_grid", "monotonicity": f"{_PATCH} p_grid",
    "brw": "d p seed mu runs generations depth_cap weight_floor",
}


def _kind_config(kind: str, **fields) -> dict:
    # existence_curve and monotonicity cannot run without a grid
    grid = {"p_grid": _VALID["p_grid"]} if "p_grid" in _KIND_READS[kind] else {}
    return {"kind": kind, **grid, **fields}


@pytest.mark.parametrize("kind", sorted(_KIND_READS))
def test_each_kind_reads_exactly_its_fields(kind):
    """Every field outside a kind's set is rejected and named; every field in
    it is accepted.  experiment_from_config runs no replicate."""
    assert set(_KIND_READS) == set(harness.KINDS)
    reads = set(_KIND_READS[kind].split()) | {"format", "out", "unresolved_threshold"}
    for field, value in _VALID.items():
        config = _kind_config(kind, **{field: value})
        if field in reads:
            assert experiment_from_config(config).kind == kind, field
        else:
            with pytest.raises(ConfigError, match=f"'{field}': not read by {kind}"):
                experiment_from_config(config)
        with pytest.raises(ConfigError, match=f"'{field}'"):  # mistyped
            experiment_from_config(_kind_config(kind, **{field: {"x": 1}}))


@pytest.mark.parametrize("kind", ["surface_validity", "existence_curve",
                                  "equivariance", "monotonicity",
                                  "radh_tail", "rho_tail"])
def test_surface_and_cover_kinds_take_the_full_step_set_only(kind):
    assert experiment_from_config(_kind_config(kind, step_mode="full")).step_mode \
        is StepSet.FULL
    with pytest.raises(ConfigError, match="'step_mode': expected 'full' for"):
        experiment_from_config(_kind_config(kind, step_mode="no-straight-down"))
    exp = experiment_from_config({"kind": "f_tail", "step_mode": "no-straight-down"})
    assert exp.step_mode is StepSet.NO_STRAIGHT_DOWN


def test_run_experiment_rejects_what_a_kind_does_not_honour():
    # a surface_validity run used to build full-step surfaces here
    with pytest.raises(ConfigError, match="'step_mode'"):
        run_experiment({"kind": "surface_validity", "step_mode": "no-straight-down"})
    # every offending field is quoted, not only the first
    with pytest.raises(ConfigError, match="'banana': unknown field; .*'k_max': not read "
                                          "by brw; .*'replicates': not read by brw"):
        run_experiment({"kind": "brw", "replicates": 9, "k_max": 3, "banana": 1})
    with pytest.raises(ConfigError) as err:  # keys a JSON file cannot give
        run_experiment({"kind": "f_tail", 1: 0, "x": 0})
    assert "'1': unknown field" in str(err.value) and "'x': unknown field" in str(err.value)
    with pytest.raises(ConfigError, match="'format': expected 'csv' or 'json'"):
        run_experiment({"kind": "f_tail", "format": "xml"})


@pytest.mark.parametrize("field", ["box_margin", "box_height"])
def test_box_size_errors_name_one_field(field):
    with pytest.raises(ConfigError) as err:
        experiment_from_config({"kind": "radh_tail", field: 0})
    assert str(err.value) == f"config field '{field}': must be >= 1"


@pytest.mark.parametrize("kind, extra", [
    ("surface_validity", {}), ("existence_curve", {"p_grid": [0.9, 0.99]}),
    ("equivariance", {}), ("monotonicity", {"p_grid": [0.9, 0.99]})])
def test_negative_base_radius_names_the_field(kind, extra):
    """An empty base ball would fail deep in the engine without naming
    base_radius; it stops at the config check instead.  Radius 0 is one
    column, and runs."""
    config = {"kind": kind, "replicates": 2, **extra}
    with pytest.raises(ConfigError) as err:
        run_experiment({**config, "base_radius": -1})
    assert str(err.value) == "config field 'base_radius': must be >= 0"
    run_experiment({**config, "base_radius": 0, "unresolved_threshold": 1.0})


@pytest.mark.parametrize("config, problem", [
    ({"kind": "existence_curve"}, "required for existence_curve"),
    ({"kind": "monotonicity", "p_grid": [0.99]},
     "monotonicity needs a grid of at least two p values")])
def test_a_missing_or_one_value_p_grid_names_the_field(config, problem, monkeypatch):
    """existence_curve needs a grid, and monotonicity two values to compare;
    either stops before the first replicate is hashed, naming p_grid."""
    def forbidden(*args):
        raise AssertionError("a replicate was hashed before the grid was checked")

    monkeypatch.setattr(REACH, "replicate_closed_masks", forbidden)
    with pytest.raises(ConfigError) as err:
        run_experiment({**config, "replicates": 2})
    assert str(err.value) == f"config field 'p_grid': {problem}"


def test_a_growth_cap_past_the_site_limit_stops_before_any_hash(monkeypatch):
    """A config whose last box would pass 2**24 sites (f_tail at k_max 0,
    margin 1 and cap 40: boxes 2 * 2**40 high) is rejected, naming
    growth_cap, before any site is hashed; every batched hash folds
    through lattice._absorb_vec."""
    def forbidden(*args):
        raise AssertionError("a site was hashed before growth_cap was checked")

    monkeypatch.setattr("lipsurf.lattice._absorb_vec", forbidden)
    config = {"kind": "f_tail", "d": 2, "p": 0.94, "k_max": 0, "box_margin": 1,
              "growth_cap": 40, "replicates": 200, "seed": 1}
    for kind, extra in (("f_tail", {}), ("radh_tail", {}), ("surface_validity", {})):
        cfg = {**config, "kind": kind, **extra}
        if kind == "surface_validity":
            del cfg["k_max"]
        with pytest.raises(ConfigError, match="^config field 'growth_cap': 40 grows"):
            run_experiment(cfg)


def test_a_direct_experiment_rejects_a_field_its_kind_does_not_read(monkeypatch):
    """An Experiment built directly names a non-default field its kind does
    not read, with check_fields' message, before any replicate is hashed:
    f_tail's box_height used to run with no effect."""
    monkeypatch.setattr("lipsurf.lattice._absorb_vec", None)
    with pytest.raises(ConfigError) as err:
        surface_tail_curve(Experiment(kind="f_tail", box_height=3, replicates=5))
    assert str(err.value) == "config field 'box_height': not read by f_tail"
    with pytest.raises(ConfigError) as err:
        Experiment(kind="brw", replicates=9, k_max=3)
    assert str(err.value) == ("config field 'k_max': not read by brw; "
                              "config field 'replicates': not read by brw")
    with pytest.raises(ConfigError, match="config field 'kind': unknown kind 'nope'"):
        Experiment(kind="nope")
    # a field at its default is no error, nor one the kind reads
    assert Experiment(kind="f_tail", box_height=Budget.height, box_margin=2).box_margin == 2


@pytest.mark.parametrize("field, value, problem", [
    ("replicates", 0, "must be >= 1"), ("k_max", -1, "must be >= 0"),
    ("p", 1.5, "must lie in (0,1)")])
def test_a_direct_experiment_checks_its_values(field, value, problem, monkeypatch):
    """An Experiment built directly names a field out of range, with
    check_values' message, before any replicate is hashed: replicates=0
    used to raise ZeroDivisionError in the tail curve, and k_max=-1 to
    return a curve with no rows."""
    monkeypatch.setattr("lipsurf.lattice._absorb_vec", None)
    with pytest.raises(ConfigError) as err:
        surface_tail_curve(Experiment(kind="f_tail", **{field: value}))
    assert str(err.value) == f"config field '{field}': {problem}"


@pytest.mark.parametrize("job, fields, problem", [
    (monotonicity_check, dict(kind="monotonicity", p_grid=(0.99, 0.97), replicates=30,
                              seed=2, base_radius=3), "'p_grid': must be sorted ascending"),
    (existence_curve, dict(kind="existence_curve", p_grid=()),
     "'p_grid': must be a nonempty list of numbers"),
    (existence_curve, dict(kind="existence_curve", p_grid=(0.9, 1.5)),
     "'p_grid': entries must lie in (0,1)"),
    (spread_tail_curve, dict(kind="radh_tail", step_mode=StepSet.NO_STRAIGHT_DOWN),
     "'step_mode': expected 'full' for radh_tail"),
    (surface_validity, dict(kind="surface_validity", step_mode=StepSet.NO_STRAIGHT_DOWN),
     "'step_mode': expected 'full' for surface_validity"),
    (surface_tail_curve, dict(kind="f_tail", step_mode="sideways"),
     "'step_mode': expected 'full' or 'no-straight-down' for f_tail")])
def test_a_direct_experiment_checks_its_grid_and_step_set(job, fields, problem, monkeypatch):
    """A direct Experiment meets experiment_from_config's grid and step-set
    rules before any replicate is hashed: a descending grid made
    monotonicity_check report violations of the exact coupling, and the
    surface and cover kinds ran the full step set whatever they were given."""
    monkeypatch.setattr("lipsurf.lattice._absorb_vec", None)
    with pytest.raises(ConfigError) as err:
        job(Experiment(**fields))
    assert str(err.value) == f"config field {problem}"


# per field, well-typed values: in range and out of it, for one kind or another
_ROUTE_VALUES = {
    "d": [2, 3, 1, 0], "p": [0.5, 0.0, 1.0, 1.5, float("nan")],
    "p_grid": [[0.9, 0.99], [0.5, 0.5], [], [0.99, 0.9], [0.9, 1.5], [0.9, "x"],
               [0.9, True], [-0.5, 0.5]],
    "replicates": [1, 0, -3], "seed": [0, -5, 2**40], "k_max": [0, 5, -1],
    "box_margin": [1, 0], "box_height": [1, 0], "growth_cap": [0, 2, -1],
    "step_mode": ["full", "no-straight-down", "sideways"], "base_radius": [0, -1],
    "mu": [0.5, 0, -1.0, float("nan")], "runs": [1, 0], "generations": [1, 0],
    "depth_cap": [1, 0], "weight_floor": [0.0, 0.5, -0.5],
    "unresolved_threshold": [0.0, 1.0, -1.0, float("nan")],
}


def _python_form(config: dict) -> dict:
    """The Experiment fields of a config, as Python code writes them: a grid
    as a tuple, and a step set as a StepSet where the name is one."""
    names = {s.value: s for s in StepSet}
    return {key: tuple(val) if key == "p_grid" else
            names.get(val, val) if key == "step_mode" else val
            for key, val in config.items() if key in Experiment.__dataclass_fields__}


def _outcome(build, config):
    try:
        return build(config)
    except ConfigError as e:
        return str(e)


@pytest.mark.parametrize("kind", sorted(_KIND_READS))
def test_config_and_direct_routes_agree(kind):
    """For every field a kind reads, alone and with a second field out of
    range: experiment_from_config and a direct Experiment raise the same
    ConfigError message or build equal experiments."""
    reads = _KIND_READS[kind].split() + ["unresolved_threshold"]
    seen = collections.Counter()
    for field in reads:
        for value in _ROUTE_VALUES[field]:
            for extra in ({}, {"replicates": 0} if kind != "brw" else {"runs": 0}):
                config = {**_kind_config(kind, **extra), field: value}
                by_config = _outcome(experiment_from_config, config)
                direct = _outcome(lambda c: Experiment(**_python_form(c)), config)
                assert by_config == direct, (config, by_config, direct)
                seen[type(direct) is str] += 1
    assert seen[False] and seen[True]


def test_a_step_set_by_name_is_the_step_set():
    """f_tail with step_mode "no-straight-down" is the Experiment with
    StepSet.NO_STRAIGHT_DOWN, and writes the same body: the restricted
    bound column, which the name used to miss."""
    by_name = Experiment(kind="f_tail", replicates=300, seed=4, k_max=2,
                         step_mode="no-straight-down")
    by_enum = Experiment(kind="f_tail", replicates=300, seed=4, k_max=2,
                         step_mode=StepSet.NO_STRAIGHT_DOWN)
    assert by_name == by_enum and by_name.step_mode is StepSet.NO_STRAIGHT_DOWN
    curve = surface_tail_curve(by_name)
    assert curve.to_csv() == surface_tail_curve(by_enum).to_csv()
    assert curve.rows[0].bound == surface_tail_bound(2, 0.99, 0, True)


def test_surface_tail_k0_row_and_bounds_column():
    exp = Experiment(kind="f_tail", d=2, p=0.99, replicates=400, seed=5, k_max=3)
    curve = surface_tail_curve(exp)
    assert curve.rows[0].p_lo == curve.rows[0].p_hi == 1.0
    assert curve.rows[0].bound >= 1.0
    for r in curve.rows:
        assert r.bound == surface_tail_bound(2, 0.99, r.k)
        assert r.p_lo <= r.p_hi
    assert curve.max_unresolved_frac() <= 0.01


def test_surface_tail_vs_exact_oracle_bracket():
    # exact bracket for P(F(0) > 1) on a 9-site box; the MC interval must
    # intersect it
    d, p = 2, 0.99
    box = BoxRegion((-1, 0), (1, 2))
    bottom = [(-1, 0), (0, 0), (1, 0)]
    side = [s for s in box.sites() if abs(s[0]) == 1]

    def opt_hit(config):
        return (0, 1) in walk_reach(config, bottom, height_floor=0)

    def pes_hit(config):
        return (0, 1) in walk_reach(config, set(bottom) | set(side),
                                    height_floor=0)

    exact_lo = exact_event_prob(d, p, box, opt_hit)
    exact_hi = exact_event_prob(d, p, box, pes_hit)
    exp = Experiment(kind="f_tail", d=d, p=p, replicates=3000, seed=9, k_max=1)
    row = surface_tail_curve(exp).rows[1]
    assert exact_lo <= exact_hi
    assert row.ci_lo <= exact_hi and exact_lo <= row.ci_hi


_BATCH_CONFIGS = [
    dict(d=2, p=0.99, replicates=200, seed=31),
    dict(d=2, p=0.99, replicates=200, seed=32, step_mode=StepSet.NO_STRAIGHT_DOWN),
    dict(d=3, p=0.99, replicates=40, seed=33),
    dict(d=3, p=0.99, replicates=40, seed=34, step_mode=StepSet.NO_STRAIGHT_DOWN),
    # small boxes at low p: the first box leaves replicates unsettled
    dict(d=2, p=0.9, replicates=300, seed=35, step_mode=StepSet.NO_STRAIGHT_DOWN,
         box_margin=1, growth_cap=2),
    dict(d=2, p=0.95, replicates=300, seed=36, box_margin=1, growth_cap=2),
]


def _spy_hashing(monkeypatch) -> list:
    """Record (replicates, box) for every box hash of the box-growth driver."""
    calls = []
    hash_masks = REACH.replicate_closed_masks

    def spy(d, p, seed, replicates, box):
        calls.append((np.asarray(replicates).tolist(), box))
        return hash_masks(d, p, seed, replicates, box)

    monkeypatch.setattr(REACH, "replicate_closed_masks", spy)
    return calls


def _hashed(calls) -> collections.Counter:
    return collections.Counter((rep, box.lo, box.hi) for reps, box in calls
                               for rep in reps)


def _spy_growth(monkeypatch) -> list:
    """Record, for every growth run of surface's readers, its tuple of
    boxes and a Counter of the replicates it read, by box index: in the
    first box of a screened run, those the screen lets through."""
    runs = []
    settle = SURFACE._settle_replicates

    def spy(count, boxes, closed_at, read, *screen):
        index = {box: i for i, box in enumerate(boxes)}
        hashed = collections.Counter()
        runs.append((boxes, hashed))

        def counting(closed, box):
            hashed[index[box]] += len(closed)
            return read(closed, box)
        return settle(count, boxes, closed_at, counting, *screen)

    monkeypatch.setattr(SURFACE, "_settle_replicates", spy)
    return runs


def _floor_screen_hit(field: Field, box: BoxRegion) -> bool:
    """Whether the screen of a floor read of the origin column lets the
    field through to its first box: (0, 1) and (0, 2) are closed, or some
    pair is, a site (u, |u|_1 + 1) with 1 <= |u|_1 <= H - 1 and a site
    (w, |w|_1) with 1 <= |w|_1 <= H, H the box top, where every u_j lies
    between 0 and w_j."""
    top, k = box.hi[-1], field.d - 1
    ring = [(y, sum(map(abs, y))) for y in itertools.product(range(-top, top + 1), repeat=k)]
    above = [u for u, r in ring if 0 < r < top and field.is_closed((*u, r + 1))]
    level = [w for w, r in ring if 0 < r <= top and field.is_closed((*w, r))]
    pair = any(all(0 <= a * b and abs(a) <= abs(b) for a, b in zip(u, w))
               for u in above for w in level)
    return pair or field.is_closed((0,) * k + (1,)) and field.is_closed((0,) * k + (2,))


def _cover_screen_hit(field: Field, box: BoxRegion) -> bool:
    """Whether the screen of a cover read of the origin column lets the
    field through to its first box: (0, 1) is closed, and so is some
    (+-e_j, 1) or, below the box top, (0, 2)."""
    k = field.d - 1
    sides = [(*(s * (i == j) for i in range(k)), 1) for j in range(k) for s in (-1, 1)]
    blocked = any(map(field.is_closed, sides)) or (
        box.hi[-1] >= 2 and field.is_closed((0,) * k + (2,)))
    return field.is_closed((0,) * k + (1,)) and blocked


def _grown_floor_runs(exp: Experiment, rep: int, boxes, tried: list) -> tuple[int, int]:
    """Reference f_tail statistic of one replicate: the per-replicate growth
    loop over floor_reach_sandwich on a single field through the given
    boxes, recording each box tried, until the two runs agree strictly
    below the box top.  The first box counts as tried only where the screen
    has a closed site; its runs are read in any case."""
    field = PercolationField(exp.d, exp.p, exp.seed, rep)
    origin = [(0,) * (exp.d - 1)]
    for i, box in enumerate(boxes):
        if i or _floor_screen_hit(field, box):
            tried.append(([rep], box))
        sandwich = np.stack(floor_reach_sandwich(field, box, exp.step_mode))
        ro, rp = column_runs(sandwich, box, origin)[:, 0].tolist()
        if ro == rp and rp < box.hi[-1] - 1:
            break
    return ro, rp


@pytest.mark.parametrize("chunk_sites", [1000, REACH._CHUNK_SITES])
@pytest.mark.parametrize("cfg", _BATCH_CONFIGS)
def test_surface_tail_batching_matches_per_replicate_path(cfg, chunk_sites,
                                                          monkeypatch):
    """The batched box-growth driver counts exactly what the per-replicate
    growth loop counts on single fields through the same boxes, and hashes
    each replicate in exactly the boxes that loop tries, so a grown box gets
    only the replicates the smaller ones left unsettled; 1000 sites per
    chunk splits every config into many chunks with a partial last one."""
    exp = Experiment(kind="f_tail", k_max=4, **cfg)
    monkeypatch.setattr(REACH, "_CHUNK_SITES", chunk_sites)
    calls = _spy_hashing(monkeypatch)
    runs = _spy_growth(monkeypatch)
    curve = surface_tail_curve(exp)
    hashed = _hashed(calls)
    (schedule, _), = runs
    want_lo, want_hi = [0] * 5, [0] * 5
    tried = []
    for rep in range(exp.replicates):
        ro, rp = _grown_floor_runs(exp, rep, schedule, tried)
        for k in range(5):
            want_lo[k] += ro >= k
            want_hi[k] += rp >= k
    assert [r.hits_lo for r in curve.rows] == want_lo
    assert [r.hits_hi for r in curve.rows] == want_hi
    assert all(type(r.hits_lo) is int and type(r.hits_hi) is int
               for r in curve.rows)
    assert "np." not in curve.to_csv()
    assert hashed == _hashed(tried)
    if exp.p < 0.99:
        first = schedule[0]
        assert any(box.hi[-1] > first.hi[-1] for _, box in calls), \
            "no replicate was hashed in a grown box"


@pytest.mark.parametrize("kind, d, p", [("f_tail", 2, 0.99), ("f_tail", 3, 0.99),
                                        ("radh_tail", 2, 0.95)])
def test_screen_stopped_replicates_are_never_hashed_in_box_0(kind, d, p, monkeypatch):
    """The tails hash the first box only for replicates whose screen lets
    them through, and for every one of those: a replicate whose screen
    sites, read one by one from PercolationField.is_closed, stop it never
    gets box 0's masks."""
    hashed = collections.defaultdict(set)  # box -> replicates given its masks
    plain = REACH.replicate_closed_masks

    def plain_spy(d, p, seed, replicates, box):
        hashed[box].update(np.asarray(replicates).tolist())
        return plain(d, p, seed, replicates, box)

    monkeypatch.setattr(REACH, "replicate_closed_masks", plain_spy)
    runs = _spy_growth(monkeypatch)
    # radh_tail's screen lets 0.7% through at p = 0.95: 3000 replicates
    exp = Experiment(kind=kind, d=d, p=p, seed=12,
                     replicates=3000 if kind == "radh_tail" else 300 if d == 2 else 60)
    (surface_tail_curve if kind == "f_tail" else spread_tail_curve)(exp)
    (boxes, _), = runs
    fields = [PercolationField(d, p, exp.seed, rep) for rep in range(exp.replicates)]
    through = {rep for rep, field in enumerate(fields)
               if (_floor_screen_hit if kind == "f_tail" else _cover_screen_hit)(
                   field, boxes[0])}
    assert 0 < len(through) < exp.replicates
    assert hashed[boxes[0]] == through


@pytest.mark.parametrize("k_max, first", [(4, 6), (7, 9), (0, 2)])
def test_f_tail_floor_boxes_start_k_max_plus_two_high(k_max, first, monkeypatch):
    """f_tail reads the origin column in build_surface's floor boxes, the
    first one k_max + 2 high: every run up to k_max can settle in it, since
    a run settles below the box top less one."""
    runs = _spy_growth(monkeypatch)
    surface_tail_curve(Experiment(kind="f_tail", p=0.99, replicates=10, seed=1,
                                  k_max=k_max, box_margin=2, growth_cap=1))
    (schedule, _), = runs
    assert schedule == SURFACE._floor_boxes((0,), (0,), Budget(2, first, 1))


def test_f_tail_first_box_k_max_plus_two_high_only_narrows_the_bracket():
    """The k_max + 2 high first box against the 8 high one f_tail used
    before at k_max = 4, on the same replicates: it settles the same runs
    up to k_max, so hits_lo is the same on every row, and it leaves fewer
    side entries unsettled, so hits_hi never rises and falls at k = 1
    (2792 -> 2789)."""
    exp = Experiment(kind="f_tail", d=2, p=0.95, replicates=50_000, seed=5)
    curve = surface_tail_curve(exp)
    lo, hi, _ = map(np.concatenate, zip(*SURFACE._surface_runs(
        exp.replicates, REACH._hash_replicates(2, 0.95, 5), [(0,)], Budget(6, 8, 3))))
    old_lo, old_hi = ([int((runs[:, 0] >= k).sum()) for k in range(exp.k_max + 1)]
                      for runs in (lo, hi))
    assert [r.hits_lo for r in curve.rows] == old_lo
    assert all(r.hits_hi <= old for r, old in zip(curve.rows, old_hi))
    assert curve.rows[1].hits_hi < old_hi[1]


_COVER_CONFIGS = [
    dict(d=2, p=0.99, replicates=301, seed=41),
    dict(d=3, p=0.99, replicates=41, seed=42),
    # low p and a small first box: climb sets often leave it, so growth runs
    dict(d=2, p=0.95, replicates=301, seed=43, box_margin=1, box_height=1),
    dict(d=3, p=0.975, replicates=161, seed=44, box_margin=1, box_height=1),
    # no growth and a narrow first box: replicates whose climb set reaches
    # its side, mostly below its top, stay uncertified
    dict(d=2, p=0.95, replicates=301, seed=45, box_margin=1, box_height=4,
         growth_cap=0),
]


def _grown_cover(exp: Experiment, rep: int, boxes: list) -> tuple[int, bool]:
    """Reference cover statistic of one replicate: the per-replicate growth
    loop over reach_masks from (0, 0) on a single field through the origin
    column's climb boxes, recording each box, until no reached site lies in
    a side column or the top layer of the box; the first box counts as
    recorded only where its screen lets the field through.  Returns the
    spread radius and whether the loop certified it."""
    field = PercolationField(exp.d, exp.p, exp.seed, rep)
    origin = (0,) * exp.d
    for i, box in enumerate(SURFACE._climb_boxes(origin[:-1], exp.budget)):
        m, h = box.hi[0], box.hi[-1]
        if i or _cover_screen_hit(field, box):
            boxes.append(([rep], box))
        closed = field.closed_mask(box)[None]
        seeds = np.zeros(closed.shape, dtype=bool)
        seeds[(0, *np.subtract(origin, box.lo))] = True
        reached = sites(reach_masks(closed, seeds)[0], box)
        certified = not any(s[-1] == h or m in map(abs, s[:-1]) for s in reached)
        if certified:
            break
    return max(sum(map(abs, s)) for s in reached), certified


@pytest.mark.parametrize("chunk_sites", [200, REACH._CHUNK_SITES])
@pytest.mark.parametrize("cfg", _COVER_CONFIGS)
def test_cover_tail_batching_matches_per_replicate_path(cfg, chunk_sites,
                                                        monkeypatch):
    """The batched box-growth driver counts exactly what a per-replicate
    growth loop of reach_masks over single fields counts, for the spread and
    the cover radius, and hashes each replicate in exactly the climb boxes
    that loop tries, so a grown box gets only the replicates the smaller
    ones left uncertified; 200 sites per chunk splits every config into
    chunks of at most four replicates with a partial last one."""
    exp = Experiment(kind="radh_tail", k_max=4,
                     **{**dict(box_margin=4, box_height=4, growth_cap=5), **cfg})
    tried = []
    covers = [_grown_cover(exp, rep, tried) for rep in range(exp.replicates)]
    monkeypatch.setattr(REACH, "_CHUNK_SITES", chunk_sites)
    calls = _spy_hashing(monkeypatch)
    for tail, shift in ((spread_tail_curve, 0), (cover_tail_curve, 1)):
        calls.clear()
        curve = tail(exp)
        levels = len(curve.rows)
        lo = [spread + shift for spread, _ in covers]
        hi = [r if certified else levels for r, (_, certified) in zip(lo, covers)]
        assert [r.hits_lo for r in curve.rows] == [
            sum(v >= k for v in lo) for k in range(levels)]
        assert [r.hits_hi for r in curve.rows] == [
            sum(v >= k for v in hi) for k in range(levels)]
        assert all(type(r.hits_lo) is int and type(r.hits_hi) is int
                   for r in curve.rows)
        assert "np." not in curve.to_csv()
        assert _hashed(calls) == _hashed(tried)
        if exp.p < 0.99 and exp.growth_cap:
            first = SURFACE._climb_boxes((0,) * (exp.d - 1), exp.budget)[0]
            assert any(box.hi[-1] > first.hi[-1] for _, box in calls), \
                "no replicate was hashed in a grown box"
    if exp.growth_cap == 0:
        assert not all(certified for _, certified in covers)


def test_box_growth_hashes_bounded_pieces(monkeypatch):
    """No hash call of the box-growth driver covers more than
    max(_CHUNK_SITES, box.size) sites.  At p=0.9 a chunk of the first box
    leaves more replicates unsettled than one piece of a grown box holds,
    so hashing a chunk's pending replicates at once would break the bound.
    At 300 sites per chunk the third and fourth boxes (351 and 1275 sites)
    are larger than a chunk, and are hashed one replicate at a time."""
    exp = Experiment(kind="f_tail", d=2, p=0.9, replicates=300, seed=35,
                     step_mode=StepSet.NO_STRAIGHT_DOWN, box_margin=1, growth_cap=3)
    calls = _spy_hashing(monkeypatch)
    for chunk_sites in (2000, 300):
        monkeypatch.setattr(REACH, "_CHUNK_SITES", chunk_sites)
        calls.clear()
        surface_tail_curve(exp)
        assert all(len(reps) * box.size <= max(chunk_sites, box.size)
                   for reps, box in calls)
        first = calls[0][1]
        chunk = chunk_sites // first.size
        pending = collections.Counter()  # (chunk, grown box) -> replicates hashed
        for reps, box in calls:
            if box != first:
                pending[reps[0] // chunk, box] += len(reps)
        assert max(n * box.size for (_, box), n in pending.items()) > chunk_sites
    assert any(box.size > chunk_sites for _, box in calls)


def test_spread_and_cover_tails():
    exp = Experiment(kind="radh_tail", d=2, p=0.99, replicates=2000, seed=6,
                     k_max=3, box_margin=4, box_height=4, growth_cap=5)
    spread = spread_tail_curve(exp)
    assert spread.rows[0].p_lo == 1.0  # the climb set always holds (0, 0)
    for r in spread.rows:
        assert r.bound == spread_tail_bound(2, 0.99, r.k)
    cover = cover_tail_curve(exp)
    # the cover always contains the center at height >= 1
    assert cover.rows[0].p_lo == 1.0 and cover.rows[1].p_lo == 1.0
    # shifted bound column
    assert cover.rows[1].bound == spread_tail_bound(2, 0.99, 0)
    assert cover.rows[3].bound == spread_tail_bound(2, 0.99, 2)


def _broadcast_hits(chunks, levels):
    """Per level k, the values >= k over every chunk, counted by a (B,
    levels) comparison."""
    ks = np.arange(levels)
    return sum((values[:, None] >= ks).sum(axis=0) for values in chunks).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_tail_hit_counts_match_the_broadcast_count(seed):
    """The tail rows count each level's hits as the (B, levels) broadcast
    does, over several chunks, with values below 0 (no level hit) and above
    the top level (every level hit), and each side's interval is its own
    Wilson interval."""
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(1, 8))
    chunks = []
    for size in rng.integers(1, 40, size=int(rng.integers(1, 5))):
        lo = rng.integers(-3, levels + 3, size=size)
        chunks.append((lo, lo + rng.integers(0, 3, size=size)))
    exp = Experiment(kind="f_tail", d=2, p=0.99, replicates=sum(len(c[0]) for c in chunks))
    curve = harness._tail_curve(exp, "f_tail", levels, iter(chunks), lambda k: 0.5 ** k)
    n = exp.replicates
    assert [r.k for r in curve.rows] == list(range(levels))
    assert [r.hits_lo for r in curve.rows] == _broadcast_hits([c[0] for c in chunks], levels)
    assert [r.hits_hi for r in curve.rows] == _broadcast_hits([c[1] for c in chunks], levels)
    for r in curve.rows:
        assert type(r.hits_lo) is int and type(r.hits_hi) is int
        assert r.ci_lo == wilson_interval(r.hits_lo, n)[0]
        assert r.ci_hi == wilson_interval(r.hits_hi, n)[1]
        assert r.bound == 0.5 ** r.k


def _repr_csv(rows, header):
    """Every cell written with repr() on its own, strings as they are."""
    cols = header.split(",")
    return "\n".join([header] + [",".join(r[c] if isinstance(r[c], str) else repr(r[c])
                                           for c in cols) for r in rows]) + "\n"


def test_csv_writer_writes_each_cell_as_its_own_repr():
    """Rows that mix 1 with 1.0 and 0.0 with -0.0, and repeat floats, come
    out cell by cell as repr() would write them: equal dict keys of another
    type or sign never share a cell's text."""
    header = "a,b,c,d"
    values = [1, 1.0, 0, 0.0, -0.0, True, 0.1, 0.1 + 0.2, 0.30000000000000004,
              1e-300, -1.0, float("inf"), float("nan"), 2 ** 70, "proven"]
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows = [{c: values[i] for c, i in zip("abcd", rng.integers(0, len(values), 4))}
                for _ in range(int(rng.integers(1, 6)))]
        assert harness._rows_to_csv(rows) == _repr_csv(rows, header)
    rows = [{"a": 1.0, "b": 1, "c": -0.0, "d": 0.0}, {"a": 1, "b": 1.0, "c": 0.0, "d": -0.0}]
    assert harness._rows_to_csv(rows) == "a,b,c,d\n1.0,1,-0.0,0.0\n1,1.0,0.0,-0.0\n"


def test_tail_hypothesis_violation_raises():
    with pytest.raises(HypothesisError):
        surface_tail_curve(Experiment(kind="f_tail", d=2, p=0.9, replicates=5))
    with pytest.raises(HypothesisError):
        spread_tail_curve(Experiment(kind="radh_tail", d=2, p=0.9, replicates=5))


def test_tail_hypothesis_fails_before_any_hash(monkeypatch):
    """Each tail raises HypothesisError where a^2 q >= 1 for the step set
    its bound is built with, before any replicate is hashed: f_tail at
    p=0.9 (full set, a^2 q = 1.6) and at p=0.85 without straight-down steps
    (a = 3, a^2 q = 1.35), radh_tail and rho_tail at p=0.9.  The restricted
    f_tail at p=0.9 (a^2 q = 0.9) goes ahead and hashes."""
    hashed = []

    def spy(*args, real=REACH.replicate_closed_masks):
        hashed.append(args)
        return real(*args)

    def sites_spy(*args, real=REACH.replicate_closed_sites):
        hashed.append(args)
        return real(*args)

    monkeypatch.setattr(REACH, "replicate_closed_masks", spy)
    monkeypatch.setattr(REACH, "replicate_closed_sites", sites_spy)
    restricted = StepSet.NO_STRAIGHT_DOWN
    for tail, kind, p, step_mode in ((surface_tail_curve, "f_tail", 0.9, StepSet.FULL),
                                     (surface_tail_curve, "f_tail", 0.85, restricted),
                                     (spread_tail_curve, "radh_tail", 0.9, StepSet.FULL),
                                     (cover_tail_curve, "rho_tail", 0.9, StepSet.FULL)):
        with pytest.raises(HypothesisError):
            tail(Experiment(kind=kind, d=2, p=p, replicates=5, step_mode=step_mode))
        assert hashed == [], kind
    surface_tail_curve(Experiment(kind="f_tail", d=2, p=0.9, replicates=5,
                                  step_mode=restricted))
    assert hashed


def test_surface_validity_experiment():
    out = surface_validity(Experiment(kind="surface_validity", d=2, p=0.98,
                                      replicates=20, seed=8, base_radius=3))
    assert out["columns_total"] == 20 * 7
    assert out["certified_fraction"] == 1.0
    assert out["openness_violations"] == 0
    assert out["lipschitz_violations"] == 0


def test_existence_curve_monotone_and_labelled():
    exp = Experiment(kind="existence_curve", d=2, p_grid=(0.85, 0.95, 0.999),
                     replicates=30, seed=4, base_radius=3,
                     box_margin=2, box_height=4, growth_cap=2)
    rows = existence_curve(exp)
    fracs = [r["fraction"] for r in rows]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    assert rows[-1]["fraction"] >= 0.9
    assert rows[0]["regime"] == "outside proven regime"  # 0.85 < 8/9
    assert rows[2]["regime"] == "proven"


def test_equivariance_and_monotonicity_checks():
    eq = equivariance_check(Experiment(kind="equivariance", d=3, p=0.98,
                                       replicates=3, seed=2, base_radius=2))
    assert eq["isometries"] == 8 and eq["mismatches"] == 0
    mono = monotonicity_check(Experiment(kind="monotonicity", d=2,
                                         p_grid=(0.97, 0.99), replicates=30,
                                         seed=2, base_radius=5))
    assert mono["violations"] == 0 and mono["pairs_checked"] > 0


@pytest.mark.parametrize("config, grows", [
    ({"kind": "equivariance", "d": 3, "p": 0.98, "replicates": 40, "seed": 2,
      "base_radius": 3}, False),
    ("equivariance_grown", True),
])
def test_equivariance_hashes_each_chunk_once(monkeypatch, config, grows):
    """Every isometry view reads the field's own masks: each (items, box)
    is hashed once, also for the replicates that grow their box."""
    if isinstance(config, str):
        config = _SURFACE_GOLDEN_CASES[config][0]
    hashed = collections.Counter()
    real = harness._hash_replicates

    def counting(d, p, seed):
        hashes = real(d, p, seed)

        def spy(items, box):
            hashed[items.tobytes(), box] += 1
            return hashes(items, box)
        return spy

    monkeypatch.setattr(harness, "_hash_replicates", counting)
    assert equivariance_check(experiment_from_config(config))["mismatches"] == 0
    assert set(hashed.values()) == {1}
    assert (len({box for _, box in hashed}) > 1) == grows


class _View(Field):
    """A field seen through a column isometry y -> (signs[i] * y[perm[i]])_i,
    heights untouched; a mask gathers each site's image from the base
    field's mask over the images' bounding box."""

    def __init__(self, base, perm, signs):
        self.base, self.d, self.perm, self.signs = base, base.d, perm, signs

    def map_column(self, col):
        return tuple(s * col[i] for s, i in zip(self.signs, self.perm))

    def is_closed(self, site):
        return self.base.is_closed((*self.map_column(site[:-1]), site[-1]))

    def closed_mask(self, box):
        sites = np.array(list(box.sites()))
        images = np.column_stack([np.multiply(self.signs, sites[:, list(self.perm)]),
                                  sites[:, -1]])
        hull = BoxRegion(tuple(images.min(axis=0)), tuple(images.max(axis=0)))
        closed = self.base.closed_mask(hull)[tuple((images - hull.lo).T)]
        return closed.reshape(box.shape)


def test_equivariance_smoke():
    base = [tuple(c) for c in itertools.product(range(-2, 3), repeat=2)]
    for rep in range(5):
        field = PercolationField(3, 0.98, master_seed=303, replicate=rep)
        patch = build_surface(field, base)
        for perm, signs in harness.signed_permutations(2):
            view = _View(field, perm, signs)
            vpatch = build_surface(view, base)
            for col in base:
                mapped = view.map_column(col)
                assert vpatch.values[col] == patch.values[mapped]
                assert vpatch.status[col] is patch.status[mapped]


def _loop_kinds(exp: Experiment, p_grid) -> dict:
    """Reference counts of the four surface kinds: per replicate, one
    PercolationField, build_surface and verify_surface, for each isometry
    build_surface on a _View of the field, and for each p of p_grid
    build_surface on the coupled field."""
    base = harness._base_ball(exp.d, exp.base_radius)
    counts = collections.Counter()
    for rep in range(exp.replicates):
        field = PercolationField(exp.d, exp.p, exp.seed, rep)
        patch = build_surface(field, base, exp.budget)
        report = verify_surface(field, patch)
        counts["certified"] += len(patch.certified_columns())
        counts["open_bad"] += len(report.openness_violations)
        counts["lip_bad"] += len(report.lipschitz_violations)
        for perm, signs in harness.signed_permutations(exp.d - 1):
            view = _View(field, perm, signs)
            vpatch = build_surface(view, base, exp.budget)
            counts["mismatches"] += sum(
                vpatch.values[c] != patch.values[view.map_column(c)]
                or vpatch.status[c] is not patch.status[view.map_column(c)]
                for c in base)
        patches = [build_surface(PercolationField(exp.d, p, exp.seed, rep), base, exp.budget)
                   for p in p_grid]
        for p, grid_patch in zip(p_grid, patches):
            counts["successes", p] += all(
                s is Cert.CERTIFIED for s in grid_patch.status.values())
        for lo, hi in zip(patches, patches[1:]):
            for c in base:
                if lo.status[c] is Cert.CERTIFIED and hi.status[c] is Cert.CERTIFIED:
                    counts["pairs"] += 1
                    counts["rises"] += hi.values[c] > lo.values[c]
    return counts


_SURFACE_KIND_CONFIGS = [
    # the size of the height-truncation residual: a 2-high box certifies
    # values a taller box reads higher, seen as Lipschitz violations
    dict(d=3, p=0.93, seed=6, base_radius=3, box_margin=1, box_height=2,
         growth_cap=1, replicates=100, p_grid=(0.93, 0.97)),
    dict(d=2, p=0.9, seed=7, base_radius=6, box_margin=1, box_height=1,
         growth_cap=2, replicates=60, p_grid=(0.9, 0.93, 0.97)),
    dict(d=2, p=0.97, seed=8, base_radius=2, box_margin=2, box_height=2,
         growth_cap=0, replicates=65, p_grid=(0.97, 0.99)),
]


@pytest.mark.parametrize("cfg", _SURFACE_KIND_CONFIGS)
def test_surface_kinds_count_what_a_per_replicate_loop_counts(cfg, monkeypatch):
    """surface_validity, existence_curve, equivariance and monotonicity on
    hashed replicate batches count exactly what a loop of build_surface and
    verify_surface over single fields counts; 1000 sites per chunk makes
    the lockstep streams span many chunks with a partial last one.  The
    grid kinds read p_grid and the others p, each in its own Experiment."""
    exp = Experiment(kind="surface_validity", **{k: v for k, v in cfg.items() if k != "p_grid"})
    grid = Experiment(kind="existence_curve", **{k: v for k, v in cfg.items() if k != "p"})
    want = _loop_kinds(exp, grid.p_grid)
    monkeypatch.setattr(REACH, "_CHUNK_SITES", 1000)
    first = SURFACE._floor_boxes((-exp.base_radius,) * (exp.d - 1),
                                 (exp.base_radius,) * (exp.d - 1), exp.budget)[0]
    chunk = max(1, 1000 // first.size)
    assert exp.replicates > 2 * chunk and (chunk == 1 or exp.replicates % chunk)
    validity = surface_validity(exp)
    n = exp.replicates * (2 * exp.base_radius + 1) ** (exp.d - 1)
    assert (validity["columns_total"], validity["columns_certified"],
            validity["openness_violations"], validity["lipschitz_violations"]) == (
        n, want["certified"], want["open_bad"], want["lip_bad"])
    assert [row["successes"] for row in existence_curve(grid)] == [
        want["successes", p] for p in grid.p_grid]
    assert equivariance_check(exp)["mismatches"] == want["mismatches"] == 0
    mono = monotonicity_check(grid)
    assert (mono["pairs_checked"], mono["violations"]) == (want["pairs"], want["rises"])
    if exp.d == 3:
        assert (want["certified"], n, want["lip_bad"]) == (4872, 4900, 18)
    assert want["certified"] < n


def test_isometry_view_matches_the_field_site_by_site():
    """The view of a batch of hashed masks under every column isometry
    reads PercolationField.is_closed at the mapped site; the identity view
    is the hashed masks themselves.  At d=4 some permutations are not their
    own inverses."""
    for d, r in ((2, 2), (3, 2), (4, 1)):
        box = BoxRegion((-r,) * (d - 1) + (0,), (r,) * (d - 1) + (3,))
        masks = REACH._hash_replicates(d, 0.7, 17)(np.arange(3), box)
        for perm, signs in harness.signed_permutations(d - 1):
            seen = harness._isometry_view(masks, perm, signs)
            for rep in range(3):
                view = _View(PercolationField(d, 0.7, 17, rep), perm, signs)
                for site in box.sites():
                    at = tuple(c - a for c, a in zip(site, box.lo))
                    assert seen[(rep, *at)] == view.is_closed(site)
        ident = harness._isometry_view(masks, tuple(range(d - 1)), (1,) * (d - 1))
        assert np.array_equal(ident, masks)


def test_run_experiment_deterministic_csv(tmp_path):
    config = {"kind": "radh_tail", "d": 2, "p": 0.99, "replicates": 300,
              "seed": 12, "k_max": 3, "out": str(tmp_path / "a.csv")}
    run_experiment(dict(config))
    config["out"] = str(tmp_path / "b.csv")
    run_experiment(dict(config))
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.splitlines()[0] == TAIL_CSV_HEADER
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 12 and "wall_time_s" in meta
    # BRW bodies come from numpy's Generator: the metadata names the numpy
    assert meta["numpy"] == np.__version__


def test_run_experiment_json_format(tmp_path):
    out = tmp_path / "curve.json"
    run_experiment({"kind": "radh_tail", "d": 2, "p": 0.99, "replicates": 50,
                    "seed": 1, "k_max": 2, "format": "json", "out": str(out)})
    payload = json.loads(out.read_text())
    assert payload["kind"] == "radh_tail"
    assert len(payload["rows"]) == 3


def test_run_experiment_config_file(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "brw", "d": 2, "p": 0.99,
                               "runs": 200, "generations": 3, "seed": 3}))
    result = run_experiment(str(cfg))
    assert result["csv"].splitlines()[0] == \
        "n,mean_S,se_S,alpha_pow_n,survival_hat,survival_ci_hi,bound"
    assert len(result["payload"]["rows"]) == 4


def test_run_experiment_budget_exceeded(tmp_path):
    out = tmp_path / "tight.csv"
    config = {"kind": "f_tail", "d": 2, "p": 0.95, "replicates": 300,
              "seed": 5, "k_max": 4, "box_margin": 1, "growth_cap": 0,
              "unresolved_threshold": 0.0001, "out": str(out)}
    with pytest.raises(BudgetExceededError):
        run_experiment(config)
    assert out.exists()  # artifacts are written before the loud failure


def test_run_experiment_rejects_nan_unresolved_threshold(tmp_path):
    # 8.5% of these replicates are unresolved: a threshold of 0 fails the
    # run, and NaN would compare false against the share and let it pass
    config = {"kind": "f_tail", "d": 2, "p": 0.95, "replicates": 200,
              "growth_cap": 0, "box_margin": 1}
    with pytest.raises(BudgetExceededError):
        run_experiment(dict(config, unresolved_threshold=0.0))
    with pytest.raises(ConfigError, match="unresolved_threshold"):
        run_experiment(dict(config, unresolved_threshold=float("nan")))
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(dict(config, unresolved_threshold=float("nan"))))
    assert "NaN" in cfg.read_text()
    with pytest.raises(ConfigError, match="unresolved_threshold"):
        run_experiment(str(cfg))


@pytest.mark.parametrize("field, bad", [("mu", float("nan")), ("mu", 0.0),
                                         ("weight_floor", float("nan")),
                                         ("weight_floor", -0.1),
                                         ("runs", 0), ("generations", 0),
                                         ("depth_cap", 0)])
def test_run_experiment_rejects_bad_brw_parameters(tmp_path, field, bad):
    # NaN compares false against every bound: a NaN weight floor would prune
    # nothing and run as a zero floor, and a NaN mu would fail deep in the
    # offspring series instead of naming the field; zero runs evolved
    # nothing and failed on an empty sample
    config = {"kind": "brw", "d": 2, "p": 0.95, "mu": 0.5, "runs": 4,
              "generations": 2}
    run_experiment(config)
    with pytest.raises(ConfigError, match=field):
        run_experiment(dict(config, **{field: bad}))
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(config, **{field: bad})))
    with pytest.raises(ConfigError, match=field):
        run_experiment(str(cfg))


def test_cover_sweep_counts_on_a_small_box(monkeypatch):
    """The sweep closes every configuration in one _climb_masks call and
    builds no cover one by one; its counts are pinned, so a reader that
    certified nothing could not pass with zero mismatches."""
    calls = []
    batched = SURFACE._climb_masks

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return batched(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("cover_sweep built a cover one configuration at a time")

    monkeypatch.setattr(SURFACE, "_climb_masks", counting)
    monkeypatch.setattr("lipsurf.surface.minimal_cover", forbidden)
    monkeypatch.setattr(ExplicitConfig, "closed_mask", forbidden)
    assert cover_sweep(p=0.99, radius=1, h_max=3) == {
        "name": "cover_sweep", "configs": 4096, "both_certified": 2048,
        "mismatches": 0, "passed": True,
        "exact_spread_tail": {1: 0.010000000000000009, 2: 0.0002970100000000001,
                              3: 4.95000100000002e-06}}
    assert calls == [(4096, 3, 4)]


def test_walk_path_sweep_closes_each_source_set_in_one_call(monkeypatch):
    """The sweep closes all 512 configurations of its box in one reach_masks
    call per source set, on the masks of _box_configs, and asks no
    configuration for its own mask."""
    calls = []
    batched = harness.reach_masks

    def counting(closed, seeds):
        calls.append(closed.shape)
        return batched(closed, seeds)

    def forbidden(*args, **kwargs):
        raise AssertionError("walk_path_sweep built a mask one configuration at a time")

    monkeypatch.setattr(harness, "reach_masks", counting)
    monkeypatch.setattr(ExplicitConfig, "closed_mask", forbidden)
    assert walk_path_sweep() == {"name": "walk_path_sweep", "cases": 2048,
                                 "disagreements": 0, "passed": True}
    assert calls == [(512, 3, 3)] * 4


def test_box_configs_match_explicit_fields():
    box = BoxRegion((-1, 0), (1, 2))
    masks = harness._box_configs(box)
    assert masks.shape == (512, 3, 3)
    for bits in range(512):
        want = ExplicitConfig.from_bits(box, bits).closed_mask(box)
        assert np.array_equal(masks[bits], want), bits


def test_oracle_suite_fast_checks():
    from lipsurf.harness import en_check, walk_path_sweep
    assert walk_path_sweep()["passed"]
    assert en_check(2, 0.99, 5)["passed"]


def test_run_experiment_rejects_non_object_config_file(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="<root>.*JSON object"):
        run_experiment(str(cfg))


# One case per code path of run_experiment: every kind, f_tail at d=2 and
# d=3 with both step sets and with the growth fallback, spread and cover
# tails with uncertified replicates, and the two failure paths.  `raises`
# is the exception the call ends in; a BudgetExceededError comes after the
# body is written, a HypothesisError before.
_SMALL_BOX = {"box_margin": 1, "box_height": 1, "growth_cap": 0}
_GOLDEN_CASES = {
    "f_tail_d2": ({"kind": "f_tail", "replicates": 300, "seed": 41}, None),
    "f_tail_d2_nsd_growth": ({"kind": "f_tail", "p": 0.9, "replicates": 200,
                              "seed": 42, "step_mode": "no-straight-down",
                              "box_margin": 1, "growth_cap": 2,
                              "unresolved_threshold": 1.0}, None),
    "f_tail_d2_growth": ({"kind": "f_tail", "p": 0.95, "replicates": 200,
                          "seed": 43, "box_margin": 1, "growth_cap": 2,
                          "unresolved_threshold": 1.0}, None),
    "f_tail_d3": ({"kind": "f_tail", "d": 3, "replicates": 20, "seed": 44,
                   "k_max": 3}, None),
    "f_tail_d3_nsd": ({"kind": "f_tail", "d": 3, "replicates": 20, "seed": 45,
                       "k_max": 3, "step_mode": "no-straight-down"}, None),
    "f_tail_budget": ({"kind": "f_tail", "p": 0.95, "replicates": 300, "seed": 5,
                       "box_margin": 1, "growth_cap": 0,
                       "unresolved_threshold": 0.0001}, BudgetExceededError),
    "f_tail_hypothesis": ({"kind": "f_tail", "p": 0.9, "replicates": 5},
                          HypothesisError),
    "radh_tail": ({"kind": "radh_tail", "replicates": 200, "seed": 46,
                   "k_max": 3, "box_margin": 4, "box_height": 4,
                   "growth_cap": 5}, None),
    "radh_tail_uncertified": ({"kind": "radh_tail", "replicates": 200,
                               "seed": 47, "k_max": 3, **_SMALL_BOX},
                              BudgetExceededError),
    "rho_tail_uncertified": ({"kind": "rho_tail", "replicates": 200, "seed": 47,
                              "k_max": 3, "unresolved_threshold": 1.0,
                              **_SMALL_BOX}, None),
    "rho_tail_hypothesis": ({"kind": "rho_tail", "p": 0.9, "replicates": 5},
                            HypothesisError),
    "surface_validity": ({"kind": "surface_validity", "p": 0.9, "replicates": 4,
                          "seed": 48, "base_radius": 2, "box_margin": 1,
                          "box_height": 2, "growth_cap": 0}, BudgetExceededError),
    "existence_curve": ({"kind": "existence_curve", "p_grid": [0.6, 0.85, 0.999],
                         "replicates": 4, "seed": 49, "base_radius": 2,
                         "box_margin": 2, "box_height": 4, "growth_cap": 1,
                         "unresolved_threshold": -1.0}, None),
    "equivariance": ({"kind": "equivariance", "p": 0.98, "replicates": 2,
                      "seed": 50, "base_radius": 2,
                      "unresolved_threshold": -1.0}, None),
    "monotonicity": ({"kind": "monotonicity", "p_grid": [0.97, 0.99],
                      "replicates": 4, "seed": 51, "base_radius": 2,
                      "unresolved_threshold": -1.0}, None),
    "brw": ({"kind": "brw", "runs": 100, "generations": 4, "seed": 52,
             "unresolved_threshold": -1.0}, None),
}


def _golden_bodies(tmp_path, name: str, cases=_GOLDEN_CASES) -> tuple:
    """SHA-256 of the CSV and JSON bodies run_experiment writes for one case
    (None where no body is written)."""
    config, raises = cases[name]
    digests = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"{name}.{fmt}"
        cfg = dict(config, format=fmt, out=str(out))
        if raises is None:
            result = run_experiment(cfg)
            if fmt == "csv":
                assert result["csv"] == out.read_text(encoding="utf-8")
        else:
            with pytest.raises(raises):
                run_experiment(cfg)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest()
                       if out.exists() else None)
    return tuple(digests)


_GOLDEN_DIGESTS = {
    "f_tail_d2": (
        "cde3b879d840cfa93a903606145f956e444202439b00eb5a4a24fdcafa91b228",
        "4ef5fb80d8e756fa46cee360ddc8cd0ffea328360669b5271299f4842af3222f"),
    "f_tail_d2_nsd_growth": (
        "a0a99e3f13bd5474f6cda125f70ad21c72bc31a9e85f89ff8eb81a6eaf352bfa",
        "d12361ed0e403b125246a1f7ccab93eae66d03a6eb91fbe5972c26e7c0956b29"),
    "f_tail_d2_growth": (
        "9eb35de80157484a71197f7148c2d6c2f4c7dc57d617592d91e30eaaefe67eb6",
        "1d685584964b687228bc69434265b2100780cf9f166f415a0250c13b4466b7b0"),
    "f_tail_d3": (
        "5ec0c6d6accb285326af1a091b11fa4bc1314d19e5f6d34ff334777a87b5976a",
        "ea84a4d0283a14f2758c5de070c6516b186c7c0ea9714eb81dc87bf20fe780ca"),
    "f_tail_d3_nsd": (
        "3f8427abfb9ef80cd80b890505b8b49489f29927aac56d02bec6e27dc51be7ef",
        "fdfaae01282b5cc000d0091a8888a5787f9e1b4f91291086864f760484c0ea21"),
    "f_tail_budget": (
        "ba50e5bd2c7ce143a9f93559eed82c453bce2cbb032a98d643788b257e183514",
        "80613ab38b3b6a5622c32ef07d5cf852e4cada615d052d4e8f3cd9da86b6bf7d"),
    "f_tail_hypothesis": (None, None),
    "radh_tail": (
        "25c0aa12093198ada46fcde8e4b0c31b280e160d09ef63a390fbec1dbe440e11",
        "5a398a266b088595f35cae2c53fd700678129c5fc39e1f2da7c04c370c76c50e"),
    "radh_tail_uncertified": (
        "7b79cd65d3e916d514a4b9d6ab89c0b8a578a26302533ae9e5353efe056f3c9d",
        "ff7b46e7f700f304bcb23f76019ce4e0c520865089fd5926682b4e5190e5fccb"),
    "rho_tail_uncertified": (
        "fa6962dd4e3e649f1ffdbc91b159978edcd3d17edeadf51e8364bdfe127a3435",
        "deb0bfe9d8f897f7a769d43704edfb663793a3651119ab42dc38b4bf8be9e7ba"),
    "rho_tail_hypothesis": (None, None),
    "surface_validity": (
        "a2d26bd4cdd368fbed64d7ce68fca4b83ad695509eb7db5f4d1fc030a6f6f3a6",
        "e65a86bda4e0179c8388df59ee7b560934ff83f3020ea3f3a329142b39188cb6"),
    "existence_curve": (
        "9b069c4c27b211777690d5d0b6209df87bda898ebbfae5e9fbcb1aef6ce0af7f",
        "5873e6d4270e604311c518effaf9251f9c218d84a0e967d2481c2e42454423ea"),
    "equivariance": (
        "85f04551aff5b7540c6c85850d74900b8ce670a338d2c305ea3b2ca83dd7fd8c",
        "407f879976fe42e4e107b39ae919250c4a5d82cba317cac0ff68e3e17f8cbbd6"),
    "monotonicity": (
        "b4ca3a845938a5d0e57973ee0b4de81652b641e1a0ab62228e75bc5a694e6bac",
        "288914cc2b6c2f3c3b1bb7a8bf32c212594dea520a49353f514462c7ccd4b471"),
    "brw": (
        "aec41c355fa356febcb652503d77a71873a660a89deec7715a5cfea8854a0ac8",
        "ed51fb777c50b381ee240fe6da5692475aaf471102f70f63badc7e644b251a99"),
}


def test_run_experiment_golden_bodies(tmp_path):
    """Every kind's CSV and JSON body, byte for byte: refactors of the
    harness must leave these digests unchanged."""
    got = {name: _golden_bodies(tmp_path, name) for name in _GOLDEN_CASES}
    assert got == _GOLDEN_DIGESTS


# BRW cases beyond the mostly-extinct one above: populations that grow
# (d=2, p=0.95) and a d=3 law, each with and without floor pruning, so the
# one-evolve and the two-evolve paths of brw_tables are both pinned.  At
# floor 0.9 the pruning changes the survival hits, so reading them off the
# unshifted run there would change the body.
_BRW_GOLDEN_CASES = {
    f"brw_d{d}_floor{floor}": ({"kind": "brw", "d": d, "p": p, "mu": 0.5,
                                "runs": 40, "generations": 4, "seed": seed,
                                "weight_floor": floor,
                                "unresolved_threshold": -1.0}, None)
    for d, p, seed, floor in ((2, 0.95, 53, 0.0), (2, 0.95, 53, 0.05),
                              (2, 0.95, 53, 0.9), (3, 0.999, 54, 0.0),
                              (3, 0.999, 54, 0.05))
}
_BRW_GOLDEN_DIGESTS = {
    "brw_d2_floor0.0": (
        "040b645d24b9ab757b7b0e5b383055885e0eead8b12a7b1dd341819aec42238e",
        "b2f9ffb15982ba950a2e739caa1784bdb4f7e2fbd0c7c13e35684d5ac8ef6fa1"),
    "brw_d2_floor0.05": (
        "813c581e6cedf7ca6ee406c40fdae259575a9e557f64115769f73f85ad84061d",
        "9f10071addeb8b4ab4c9e88696bf8f6297e30283e762a58a2628278cddb38c62"),
    "brw_d2_floor0.9": (
        "749dd3a61183f2098c099b4123928af37759d0190d3dcecabda56bafca575510",
        "021b51877bf86b6616c0a419829a3c36ef18f2291c7688755274db4259f02032"),
    "brw_d3_floor0.0": (
        "b2d9bf84092248fd7cbd8c66a0d3a788fe4acce1b25dad49d6e131f349e67515",
        "d2c1da43398334e8aaede67707324a89fcc05a81b669b31a3f22b97466328bb2"),
    "brw_d3_floor0.05": (
        "468d6acf5774b9bf86add0a0786571dc8a3728e1d3e47eee43f36c8cb7203432",
        "394a97e545d4445d94180fa525b4be7bbdf76b7d4adcdba16fafc9ea9c6c1f71"),
}


@pytest.mark.parametrize("name", sorted(_BRW_GOLDEN_CASES))
def test_brw_golden_bodies(tmp_path, name):
    assert (_golden_bodies(tmp_path, name, _BRW_GOLDEN_CASES)
            == _BRW_GOLDEN_DIGESTS[name])


# Surface kinds with grown boxes, unresolved columns and, for validity,
# nonzero Lipschitz violation counts (the height-truncation residual of a
# low first box); digests recorded on the per-replicate implementation
# these kinds had before they ran on hashed replicate batches.
_SURFACE_GOLDEN_CASES = {
    "surface_validity_grown_d2": ({"kind": "surface_validity", "p": 0.9, "replicates": 60,
                                   "seed": 7, "base_radius": 6, "box_margin": 1,
                                   "box_height": 1, "growth_cap": 2,
                                   "unresolved_threshold": 1.0}, None),
    "surface_validity_grown_d3": ({"kind": "surface_validity", "d": 3, "p": 0.93,
                                   "replicates": 100, "seed": 6, "base_radius": 3,
                                   "box_margin": 1, "box_height": 2, "growth_cap": 1,
                                   "unresolved_threshold": 1.0}, None),
    "existence_curve_grown": ({"kind": "existence_curve", "p_grid": [0.88, 0.93, 0.97],
                               "replicates": 40, "seed": 8, "base_radius": 4,
                               "box_margin": 1, "box_height": 1, "growth_cap": 2,
                               "unresolved_threshold": -1.0}, None),
    "equivariance_grown": ({"kind": "equivariance", "d": 3, "p": 0.92, "replicates": 8,
                            "seed": 9, "base_radius": 2, "box_margin": 1,
                            "box_height": 1, "growth_cap": 1,
                            "unresolved_threshold": -1.0}, None),
    "monotonicity_grown": ({"kind": "monotonicity", "d": 3, "p_grid": [0.9, 0.93, 0.97],
                            "replicates": 30, "seed": 10, "base_radius": 2,
                            "box_margin": 1, "box_height": 2, "growth_cap": 1,
                            "unresolved_threshold": -1.0}, None),
}
_SURFACE_GOLDEN_DIGESTS = {
    "surface_validity_grown_d2": (
        "7275f9d363f82883142316444bbf730966b11a5be24659ee52653d9ef02f9c7f",
        "bca664db8c18f3e86d50bf8527d3574c1a76ec5de9b7f94e2765851b276fa05a"),
    "surface_validity_grown_d3": (
        "131a3986993baaf9db066738f13daf4a967d6a581eef58c7da821b123da9e197",
        "d9e85e96db1673bbab25b4ad9eccc79051e58e7c5a6751fffbfcb9a733851623"),
    "existence_curve_grown": (
        "5c322382f77187c8a6e1b89837dfab55a1272bf347fa415a067b688a83fecb2e",
        "dd747cb9d766c094cd507750b53f4228d822e52c10cbab058830b0284aafb1b5"),
    "equivariance_grown": (
        "c8311d526f20d8069a31d6a5bf25d056a3e4f9eaec50af358db7aac790076ece",
        "79092c8ec7e6bcf8101ddd1afe8dfff852c50c8a930445585ae122f1b81656bf"),
    "monotonicity_grown": (
        "b705059516938438ad824e5052ec58a42d210666c20e38568966d10bdd2209f8",
        "3146074e6024d08276e2dc8f2287063da0017772c7fe1b95fd9c55d4047a6f0d"),
}


@pytest.mark.parametrize("name", sorted(_SURFACE_GOLDEN_CASES))
def test_surface_kind_golden_bodies(tmp_path, name):
    assert (_golden_bodies(tmp_path, name, _SURFACE_GOLDEN_CASES)
            == _SURFACE_GOLDEN_DIGESTS[name])


# Tail kinds at 1e5 replicates where many replicates grow their box, so a
# change to the growth loop or to a grown box's reader shows in a digest.
# Replicates read per box (box 0 is the first) in each format's run; box 0
# reads only the replicates its screen lets through, and the others take a
# row of the screen's table of reads:
#   f_tail_growth_d2:    box 0: 6342, boxes 1-3: 5261 each (unresolved_frac
#                        0.052 at k=1, 0.017 at k=3)
#   radh_tail_growth_d3: box 0: 11, box 1: 511, box 2: 14 (none unresolved;
#                        in a box 1 high, every climb past (0, 1) meets the top;
#                        the screen's one-step row stands for box 0's read of the
#                        other 500, unsettled there, so they grow)
# The two f_tail_kmax0 cases, at 2e4 replicates, grow the boxes of runs
# already at k_max whose sides differ, since f_tail settles a replicate
# where build_surface does.  A settle rule that also stopped at k_max read
# box 0 alone in both and wrote the same digests: the bodies clip both
# sides at k_max, and a grown floor box can only raise the optimistic run.
# Their box 1 reads more replicates than box 0: in a box 2 high the floor
# screen's run-one row is unsettled, so its replicates grow unread in box 0.
_GROWTH_GOLDEN_CASES = {
    "f_tail_growth_d2": ({"kind": "f_tail", "p": 0.95, "replicates": 100_000, "seed": 1,
                          "k_max": 3, "box_margin": 1, "growth_cap": 3,
                          "unresolved_threshold": 1.0}, None),
    "f_tail_kmax0_d2": ({"kind": "f_tail", "p": 0.94, "replicates": 20_000, "seed": 11,
                         "k_max": 0, "box_margin": 1, "growth_cap": 3,
                         "unresolved_threshold": 1.0}, None),
    "f_tail_kmax0_restricted_d2": ({"kind": "f_tail", "p": 0.95, "replicates": 20_000,
                                    "seed": 11, "step_mode": "no-straight-down",
                                    "k_max": 0, "box_margin": 1, "growth_cap": 3,
                                    "unresolved_threshold": 1.0}, None),
    "radh_tail_growth_d3": ({"kind": "radh_tail", "d": 3, "p": 0.995, "replicates": 100_000,
                             "seed": 1, "box_margin": 1, "box_height": 1, "growth_cap": 4,
                             "unresolved_threshold": 1.0}, None),
}
_GROWTH_GOLDEN = {
    "f_tail_growth_d2": ({0: 6342, 1: 5261, 2: 5261, 3: 5261}, (
        "a6b5eb9da7f127d04d2741ad200e574b5a244305f08a4f4a2e11eede5dc8951d",
        "eda29471cc07e0fca5e6653b06fc903e18ca7801ee0b10d80fde94843ee8a94e")),
    "f_tail_kmax0_d2": ({0: 349, 1: 1417, 2: 133, 3: 128}, (
        "df4b293fe0a0ffb2c093b6bf170dedfca89badf1b5a42180092fb3a148a4128d",
        "bba0d19be042aeed2c5ceaa036418a9131634920e030e00978c468ce602ee435")),
    "f_tail_kmax0_restricted_d2": ({0: 252, 1: 1169, 2: 95, 3: 93}, (
        "3d42a95772a9eb17f01fcdb2f7b016c18443a255df97dd63cea1a628d691dfc5",
        "50af2139926cd524638f0ad86ff0181f561bfd9985fb7cdf906dca6dbe75f91c")),
    "radh_tail_growth_d3": ({0: 11, 1: 511, 2: 14}, (
        "7ec4ff15aee312824d33b38693b9497979ad0f2962248ed7cdc1654963cabd72",
        "0c6b47213b0c9f87fd5f9d8f0ed01a50e07e5d2d40878b6e368670e1f1b9e447")),
}


@pytest.mark.parametrize("name", sorted(_GROWTH_GOLDEN_CASES))
def test_growth_golden_bodies(tmp_path, monkeypatch, name):
    runs = _spy_growth(monkeypatch)
    digests = _golden_bodies(tmp_path, name, _GROWTH_GOLDEN_CASES)
    hist, want = _GROWTH_GOLDEN[name]
    assert [hashed for _, hashed in runs] == [hist, hist]  # the csv run, then the json run
    assert digests == want


@pytest.mark.parametrize("floor, evolves_per_run", [(0.0, 1), (0.05, 2)])
def test_brw_rows_evolves_each_run_once_at_zero_floor(monkeypatch, floor,
                                                       evolves_per_run):
    # one entry per run index evolved, with its shift (None: unshifted)
    evolved = []
    real_evolve_runs = brw._evolve_runs

    def spy(law, generations, master_seed, run_indices, shifts=None, **kwargs):
        evolved.extend([None] * len(run_indices) if shifts is None else shifts)
        return real_evolve_runs(law, generations, master_seed, run_indices,
                                shifts, **kwargs)

    monkeypatch.setattr(brw, "_evolve_runs", spy)
    exp = Experiment(kind="brw", p=0.95, mu=0.5, runs=12, generations=3,
                     weight_floor=floor)
    harness.brw_rows(exp)
    assert len(evolved) == evolves_per_run * 12
    assert evolved.count(None) == 12
