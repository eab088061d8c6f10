import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lipsurf.lattice import ExplicitConfig, BoxRegion, PercolationField, replicate_closed_sites
import lipsurf.surface as SURFACE
from lipsurf.oracle import walk_reach
from lipsurf.reach import Budget, StepSet, _floor_column_runs, floor_reach_sandwich, reach_masks
from lipsurf.surface import (COVER_BUDGET, Cert, SurfacePatch, SurfaceReport, _climb_boxes,
                             _climb_masks, _floor_boxes, _read_covers, build_surface,
                             climb_set, minimal_cover, surface_from_covers, verify_surface)

from fields import closed_at

ALL_OPEN = closed_at(2)


def _base(radius, k=1):
    return [tuple(c) for c in itertools.product(range(-radius, radius + 1), repeat=k)]


def test_build_surface_all_open():
    patch = build_surface(ALL_OPEN, _base(3))
    assert all(v == 1 for v in patch.values.values())
    assert patch.certified_fraction() == 1.0


def test_build_surface_single_closed_site():
    field = closed_at(2, [(0, 1)])
    patch = build_surface(field, _base(3))
    expect = {(-3,): 1, (-2,): 1, (-1,): 1, (0,): 2, (1,): 1, (2,): 1, (3,): 1}
    assert patch.values == expect
    assert patch.certified_fraction() == 1.0


def test_a_repeated_base_column_counts_once(monkeypatch):
    """A patch is a surface over a set of columns: a repeated base column
    gives the patch and report of the deduplicated base, each adjacent pair
    counted once, and a repeated window center climbs once."""
    field = PercolationField(2, 0.99, master_seed=7)
    base, twice = [(0,), (1,), (2,)], [(0,), (1,), (1,), (2,)]
    patch = build_surface(field, twice)
    assert patch == build_surface(field, base)
    assert patch.columns == tuple(base)
    report = verify_surface(field, patch)
    assert (report.columns_checked, report.pairs_checked) == (3, 2)
    climbed = []
    climb = SURFACE._climb
    monkeypatch.setattr(SURFACE, "_climb",
                        lambda f, y, budget: climbed.append(y) or climb(f, y, budget))
    covers = surface_from_covers(field, twice, [(3,), *twice, (3,)])
    assert climbed == [*base, (3,)]
    assert covers == surface_from_covers(field, base, [*base, (3,)])


def test_surface_many_columns_validity():
    # one wide patch: every certified column has an open site at its value
    # and neighbours differ by at most one
    field = PercolationField(2, 0.99, master_seed=101)
    patch = build_surface(field, _base(5000))
    assert patch.certified_fraction() == 1.0
    report = verify_surface(field, patch)
    assert report.ok
    assert report.columns_checked == 10001
    assert report.pairs_checked == 10000
    assert max(patch.values.values()) >= 2  # some genuine bumps appeared


def _grown_surface(field, base, budget):
    """Reference build_surface: the growth loop over floor_reach_sandwich
    through the floor boxes of the base's min and max columns, until every
    column's two values agree strictly below the box top.  A column keeps
    the values of the box that settled it, and each value is read one site
    at a time.  Returns the values and, for each certified column, the
    attempt that certified it."""
    cols = sorted(set(base))
    lo = tuple(min(c[i] for c in cols) for i in range(field.d - 1))
    hi = tuple(max(c[i] for c in cols) for i in range(field.d - 1))
    values, settled_at = {}, {}
    for attempt, box in enumerate(_floor_boxes(lo, hi, budget)):
        h = box.hi[-1]
        opt, pes = floor_reach_sandwich(field, box)
        for c in cols:
            if c in settled_at:
                continue
            at = tuple(x - a for x, a in zip(c, box.lo))
            v_lo, v_hi = 1, 1
            while v_lo <= h and opt[(*at, v_lo)]:
                v_lo += 1
            while v_hi <= h and pes[(*at, v_hi)]:
                v_hi += 1
            values[c] = v_lo
            if v_lo == v_hi < h:
                settled_at[c] = attempt
        if len(settled_at) == len(cols):
            break
    return values, settled_at


def test_box_schedules_follow_their_formulas():
    """Attempt i of a floor box spans heights 0..h, h = height*2^i, and pads
    the columns by h + margin; attempt i of a climb box pads its column by
    margin*2^i at the same heights."""
    budget = Budget(3, 2, 3)
    assert _floor_boxes((-1, 0), (2, 1), budget) == (
        BoxRegion((-6, -5, 0), (7, 6, 2)), BoxRegion((-8, -7, 0), (9, 8, 4)),
        BoxRegion((-12, -11, 0), (13, 12, 8)), BoxRegion((-20, -19, 0), (21, 20, 16)))
    assert _climb_boxes((1, -1), budget) == (
        BoxRegion((-2, -4, 0), (4, 2, 2)), BoxRegion((-5, -7, 0), (7, 5, 4)),
        BoxRegion((-11, -13, 0), (13, 11, 8)), BoxRegion((-23, -25, 0), (25, 23, 16)))


@pytest.mark.parametrize("growth_cap", [0, 2])
@pytest.mark.parametrize("d, p, radius", [(2, 0.7, 6), (3, 0.85, 2)])
def test_build_surface_matches_a_growth_loop_over_the_sandwich(d, p, radius, growth_cap):
    """build_surface reads every column through the batched floor reader;
    its values and statuses are those of the reference loop, on fields and
    budgets that leave columns unresolved, and at growth cap 2 settle
    some columns only in a grown box."""
    budget = Budget(margin=1, height=2, growth_cap=growth_cap)
    base = _base(radius, d - 1)
    unresolved = grown = 0
    for rep in range(12):
        field = PercolationField(d, p, master_seed=13, replicate=rep)
        patch = build_surface(field, base, budget)
        values, settled_at = _grown_surface(field, base, budget)
        assert patch.values == values
        assert set(patch.certified_columns()) == set(settled_at)
        unresolved += len(patch.columns) - len(settled_at)
        grown += sum(a > 0 for a in settled_at.values())
    assert unresolved
    assert (grown > 0) == (growth_cap > 0)


def test_verify_surface_of_a_patch_with_no_certified_column():
    # a one-high box with no growth certifies none of these columns
    field = PercolationField(2, 0.6, master_seed=1)
    patch = build_surface(field, _base(3), Budget(1, 1, 0))
    assert patch.certified_columns() == []
    assert verify_surface(field, patch) == SurfaceReport(0, 0, (), ())


def test_verify_surface_fault_injection():
    field = PercolationField(2, 0.99, master_seed=7)
    patch = build_surface(field, _base(10))
    bad_values = dict(patch.values)
    bad_values[(0,)] += 2
    corrupted = SurfacePatch(patch.columns, bad_values, dict(patch.status),
                             patch.method)
    report = verify_surface(field, corrupted)
    assert report.lipschitz_violations
    assert all((0,) in (a, b) for a, b, _, _ in report.lipschitz_violations)


def test_verify_surface_lipschitz_violations_in_order_d3():
    """Violations come by column, in patch order, then by base axis, each
    pair once from its lower column; a pair with an unresolved column is
    not checked."""
    field = closed_at(3)
    patch = build_surface(field, _base(2, 2))
    assert set(patch.values.values()) == {1}
    corrupted = SurfacePatch(patch.columns, {**patch.values, (0, 0): 3},
                             {**patch.status, (2, 2): Cert.UNRESOLVED}, patch.method)
    report = verify_surface(field, corrupted)
    assert report.columns_checked == 24
    assert report.pairs_checked == 2 * 5 * 4 - 2
    assert report.lipschitz_violations == (
        ((-1, 0), (0, 0), 1, 3), ((0, -1), (0, 0), 1, 3),
        ((0, 0), (1, 0), 3, 1), ((0, 0), (0, 1), 3, 1))
    assert not report.openness_violations


def _lipschitz_loop(patch):
    """Reference Lipschitz check: every certified column against its
    certified neighbour one step up each base axis, in patch order."""
    certified = patch.certified_columns()
    pairs, bad = 0, []
    for col in certified:
        for i in range(len(col)):
            nb = col[:i] + (col[i] + 1,) + col[i + 1:]
            if nb in certified:
                pairs += 1
                if abs(patch.values[col] - patch.values[nb]) > 1:
                    bad.append((col, nb, patch.values[col], patch.values[nb]))
    return pairs, tuple(bad)


def test_verify_surface_matches_the_pairwise_loop():
    rng = random.Random(4)
    for d, radius in ((2, 8), (3, 3)):
        field = PercolationField(d, 0.95, master_seed=3)
        patch = build_surface(field, _base(radius, d - 1))
        for _ in range(20):
            values = {c: v + rng.choice((0, 0, 0, -2, 2, 3)) for c, v in patch.values.items()}
            status = {c: rng.choice((Cert.CERTIFIED,) * 4 + (Cert.UNRESOLVED,))
                      for c in patch.columns}
            corrupted = SurfacePatch(patch.columns, values, status, patch.method)
            report = verify_surface(field, corrupted)
            pairs, bad = _lipschitz_loop(corrupted)
            assert (report.pairs_checked, report.lipschitz_violations) == (pairs, bad)
            assert bad


def test_verify_surface_openness_fault_injection():
    # the closed site (0, 1) lifts column 0 to 2; lowering it to 1 puts the
    # surface on a closed site, and every neighbour still differs by at most 1
    for d in (2, 3):
        x = (0,) * (d - 1)
        field = closed_at(d, [(*x, 1)])
        patch = build_surface(field, _base(2, d - 1))
        assert patch.values[x] == 2
        corrupted = SurfacePatch(patch.columns, {**patch.values, x: 1},
                                 dict(patch.status), patch.method)
        report = verify_surface(field, corrupted)
        assert report.openness_violations == ((x, 1),)
        assert not report.lipschitz_violations


def test_surface_validity_random_d3():
    for rep in range(25):
        field = PercolationField(3, 0.98, master_seed=55, replicate=rep)
        patch = build_surface(field, _base(3, k=2))
        assert verify_surface(field, patch).ok


def test_climb_set_all_open():
    sites, cert = climb_set(ALL_OPEN, (0,))
    assert sites == frozenset({(0, 0)})
    assert cert is Cert.CERTIFIED


def test_climb_set_single_closed():
    field = closed_at(2, [(0, 1)])
    sites, cert = climb_set(field, (0,))
    assert sites == frozenset({(0, 0), (0, 1), (1, 0), (-1, 0)})
    assert cert is Cert.CERTIFIED


def test_climb_set_never_below_floor_and_contiguous():
    for rep in range(150):
        field = PercolationField(2, 0.95, master_seed=88, replicate=rep)
        sites, cert = climb_set(field, (0,))
        assert all(s[1] >= 0 for s in sites)
        by_col = {}
        for s in sites:
            by_col.setdefault(s[0], set()).add(s[1])
        for heights in by_col.values():
            assert heights == set(range(max(heights) + 1))


def test_climb_set_matches_the_oracle():
    """climb_set is the oracle's walk reach from (x, 0) floored at height 0
    on random configurations (each site open with probability 0.6) at d = 2
    and 3.  The oracle walks inside the config box only, so a draw is
    compared where climb_set certifies and the oracle's set stays off the
    box's sides and top: there it is the whole climb set."""
    rng = random.Random(31)
    compared = 0
    for box in (BoxRegion((-3, 0), (3, 4)), BoxRegion((-2, -2, 0), (2, 2, 3))):
        x = (0,) * (box.dim - 1)
        for _ in range(300):
            states = tuple(int(rng.random() < 0.6) for _ in range(box.size))
            config = ExplicitConfig(box, states)
            sites, cert = climb_set(config, x)
            want = walk_reach(config, [(*x, 0)], height_floor=0)
            inside = all(s[-1] < box.hi[-1] and all(
                a < c < b for c, a, b in zip(s[:-1], box.lo, box.hi)) for s in want)
            if cert is Cert.CERTIFIED and inside:
                compared += 1
                assert sites == want
    assert compared >= 300


def test_minimal_cover_examples():
    cover = minimal_cover(ALL_OPEN, (0,))
    assert cover.entries == {(0,): 1}
    assert cover.cover_radius == 1 and cover.spread_radius == 0
    field = closed_at(2, [(0, 1)])
    cover = minimal_cover(field, (0,))
    assert cover.entries == {(0,): 2, (1,): 1, (-1,): 1}
    assert cover.cover_radius == 2 and cover.spread_radius == 1
    assert cover.certified


def _assert_valid_cover(field, cover):
    x = cover.center
    assert cover.entries.get(x, 0) >= 1
    for col, lv in cover.entries.items():
        assert lv >= 1
        assert not field.is_closed((*col, lv))
        for i in range(len(col)):
            for s in (1, -1):
                nb = col[:i] + (col[i] + s,) + col[i + 1:]
                assert abs(lv - cover.entries.get(nb, 0)) <= 1


def test_minimal_cover_is_valid_cover():
    for rep in range(120):
        field = PercolationField(2, 0.95, master_seed=14, replicate=rep)
        cover = minimal_cover(field, (0,))
        if cover.certified:
            _assert_valid_cover(field, cover)
            assert cover.cover_radius <= cover.spread_radius + 1
    for rep in range(40):
        field = PercolationField(3, 0.97, master_seed=15, replicate=rep)
        cover = minimal_cover(field, (0, 0))
        if cover.certified:
            _assert_valid_cover(field, cover)
            assert cover.cover_radius <= cover.spread_radius + 1


def test_minimal_cover_matches_oracle_smoke():
    from lipsurf.oracle import NoCoverInBox, cover_fixed_point
    box = BoxRegion((-1, 0), (1, 2))
    budget = Budget(margin=1, height=2, growth_cap=0)
    both = 0
    for bits in range(1 << 9):
        config = ExplicitConfig.from_bits(box, bits)
        fast = minimal_cover(config, (0,), budget)
        slow = cover_fixed_point(config, (0,), 2)
        if fast.certified and not isinstance(slow, NoCoverInBox):
            both += 1
            assert fast.entries == slow.entries
            assert fast.cover_radius == slow.cover_radius
    assert both > 0


def test_minimal_cover_matches_climb_sets():
    """Entries, radii and certificate read off the climb mask agree with the
    climb set's sites and status, also on boxes whose reach touches only a
    side (narrow, tall) or only the top (wide, short).  The certificate is
    also checked against the sites: boxes grow nested, so a cover is
    certified exactly when its climb set has no site in a side column or
    the top layer of the last box the budget allows."""
    top_only = 0
    for d, p in ((2, 0.9), (3, 0.95)):
        x = (0,) * (d - 1)
        for budget in (COVER_BUDGET, Budget(margin=1, height=6, growth_cap=0),
                       Budget(margin=6, height=1, growth_cap=0)):
            for rep in range(20):
                field = PercolationField(d, p, master_seed=606, replicate=rep)
                cover = minimal_cover(field, x, budget)
                sites, cert = climb_set(field, x, budget)
                entries = {}
                for s in sites:
                    entries[s[:-1]] = max(entries.get(s[:-1], 0), s[-1] + 1)
                assert cover.entries == entries
                assert cover.spread_radius == max(
                    sum(abs(c) for c in s[:-1]) + s[-1] for s in sites)
                assert cover.cover_radius == cover.spread_radius + 1
                m, h = budget.margin << budget.growth_cap, budget.height << budget.growth_cap
                contact = any(s[-1] == h or m in map(abs, s[:-1]) for s in sites)
                assert cover.certified == (cert is Cert.CERTIFIED) == (not contact)
                top_only += (not cover.certified and budget.height == 1
                             and max(s[-1] for s in sites) == 1
                             and max(max(map(abs, s[:-1])) for s in sites) < 6)
    assert top_only


def test_surface_from_covers_examples():
    patch = surface_from_covers(ALL_OPEN, _base(2), _base(4))
    assert all(v == 1 for v in patch.values.values())
    field = closed_at(2, [(0, 1)])
    patch = surface_from_covers(field, _base(2), _base(5))
    assert patch.values[(0,)] == 2
    assert patch.values[(1,)] == 1 and patch.values[(-1,)] == 1
    assert "via-covers" in patch.method


def test_surface_from_covers_below_floor_surface():
    base = _base(2)
    window = _base(5)
    for rep in range(100):
        field = PercolationField(2, 0.97, master_seed=202, replicate=rep)
        via_covers = surface_from_covers(field, base, window)
        via_floor = build_surface(field, base)
        for col in base:
            if (via_floor.status[col] is Cert.CERTIFIED
                    and via_covers.status[col] is Cert.CERTIFIED):
                assert via_covers.values[col] <= via_floor.values[col]


def test_surface_from_covers_matches_climb_sets():
    """Each value is one plus the highest climb-set site in the column over
    the window's centers, and every status is certified exactly when every
    window climb set is; the tiny budget leaves climb sets unresolved."""
    for d, p, replicates in ((2, 0.95, 12), (3, 0.975, 24)):
        base, window = _base(1, d - 1), _base(2, d - 1)
        raised = unresolved = 0
        for budget in (COVER_BUDGET, Budget(margin=1, height=1, growth_cap=0)):
            for rep in range(replicates):
                field = PercolationField(d, p, master_seed=505, replicate=rep)
                top = dict.fromkeys(base, 0)
                all_cert = True
                for y in window:
                    sites, cert = climb_set(field, y, budget)
                    all_cert = all_cert and cert is Cert.CERTIFIED
                    for s in sites:
                        if s[:-1] in top:
                            top[s[:-1]] = max(top[s[:-1]], s[-1])
                patch = surface_from_covers(field, base, window, budget)
                assert patch.values == {c: top[c] + 1 for c in base}
                want = Cert.CERTIFIED if all_cert else Cert.UNRESOLVED
                assert patch.status == dict.fromkeys(base, want)
                raised += sum(v > 1 for v in patch.values.values())
                unresolved += not all_cert
        assert raised and unresolved, (d, raised, unresolved)


def test_antitone_coupling_in_p():
    base = _base(8)
    for rep in range(50):
        lo_field = PercolationField(2, 0.97, master_seed=404, replicate=rep)
        hi_field = PercolationField(2, 0.99, master_seed=404, replicate=rep)
        lo_patch = build_surface(lo_field, base)
        hi_patch = build_surface(hi_field, base)
        for col in base:
            if (lo_patch.status[col] is Cert.CERTIFIED
                    and hi_patch.status[col] is Cert.CERTIFIED):
                assert hi_patch.values[col] <= lo_patch.values[col]


def test_serialization_shapes():
    field = closed_at(2, [(0, 1)])
    patch = build_surface(field, _base(2))
    obj = json.loads(json.dumps(patch.to_json(), sort_keys=True))
    assert set(obj) == {"columns", "values", "status", "method"}
    assert len(obj["columns"]) == len(obj["values"]) == len(obj["status"]) == 5
    cover = minimal_cover(field, (0,))
    cov = cover.to_json()
    assert cov["status"] == "certified-finite"
    assert cov["cover_radius"] == 2 and cov["spread_radius"] == 1


def test_unresolved_on_tiny_budget():
    # growth cap zero and a one-level box cannot certify busy columns
    field = PercolationField(2, 0.9, master_seed=9)
    patch = build_surface(field, _base(2), Budget(margin=1, height=2, growth_cap=0))
    assert set(patch.status.values()) <= {Cert.CERTIFIED, Cert.UNRESOLVED}
    cover = minimal_cover(field, (0,), Budget(margin=1, height=1, growth_cap=0))
    assert isinstance(cover.certified, bool)


@st.composite
def _climb_batches(draw):
    d = draw(st.sampled_from((2, 3)))
    lo = draw(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1))
    cols = draw(st.lists(st.integers(1, 7 - d), min_size=d - 1, max_size=d - 1))
    box = BoxRegion((*lo, 0), (*(a + n - 1 for a, n in zip(lo, cols)), draw(st.integers(1, 6))))
    x = draw(st.tuples(*(st.integers(a, a + n - 1) for a, n in zip(lo, cols))))
    boxes = []
    for _ in range(draw(st.sampled_from((1, 1, 2, 5)))):
        # a site is closed unless it draws 0: closed density 1/2, 3/4 or 7/8
        odds = draw(st.sampled_from((2, 4, 8)))
        draws = draw(st.lists(st.integers(0, odds - 1), min_size=box.size, max_size=box.size))
        boxes.append(np.array(draws).reshape(box.shape) > 0)
    return np.stack(boxes), box, x


def _cover_reference(masks, center):
    """Cover heights, radius and certificate of climb masks (B, *box.shape)
    from every column's site count: a site in a rim column, or a column
    counting every height, escapes the box."""
    heights = masks.sum(axis=-1)
    axes = tuple(range(1, heights.ndim))
    grid = np.indices(heights.shape[1:])
    dist = sum(np.abs(g - c) for g, c in zip(grid, center))
    rho = np.where(heights > 0, heights + dist, 0).max(axis=axes)
    inner = heights[(slice(None),) + (slice(1, -1),) * len(axes)]
    side = heights.sum(axis=axes) > inner.sum(axis=axes)
    return heights, rho, ~side & (heights.max(axis=axes) < masks.shape[-1])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_climb_batches())
def test_climb_reader_matches_reach_masks(batch):
    """The climb sets closed on the kernel's layers are reach_masks from the
    same floor seed, and the cover reader's heights, radius and certificate
    equal those counted off the reach_masks result, at d=2 and 3, on
    batches of one and of many."""
    closed, box, x = batch
    seeds = np.zeros_like(closed)
    center = tuple(c - a for c, a in zip(x, box.lo))
    seeds[(slice(None), *center, 0)] = True
    want = reach_masks(closed, seeds)
    layers = _climb_masks(closed, box, x)
    assert layers.shape == (box.shape[-1], *box.shape[:-1], len(closed))
    np.testing.assert_array_equal(np.moveaxis(layers, (0, -1), (-1, 0)), want)
    for got, ref in zip(_read_covers(closed, box, x), _cover_reference(want, center)):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)


def _height_closure(closed, start):
    """The full step set's reach in a batch of closed masks (B, *box.shape)
    as one height per column, from start (B, *column shape): R(y) is the
    top reached height in column y, -1 for none, since straight-down moves
    make every reach a run from the floor.  Until nothing changes, climb
    each reached column whose site above R(y) is closed, then apply the
    down moves, R(y) >= R(y') - |y - y'|_1, as one forward and one backward
    running maximum per column axis.  Shares no code with the kernel."""
    top = closed.shape[-1] - 1
    heights = start
    while True:
        above = np.take_along_axis(closed, np.clip(heights + 1, 0, top)[..., None], -1)
        grown = heights + ((heights >= 0) & (heights < top) & above[..., 0])
        for axis in range(1, grown.ndim):
            at = np.arange(grown.shape[axis]).reshape(-1, *(1,) * (grown.ndim - 1 - axis))
            grown = np.maximum.accumulate(grown + at, axis=axis) - at
            back = np.flip(grown - at, axis)
            grown = np.flip(np.maximum.accumulate(back, axis=axis), axis) + at
        if np.array_equal(grown, heights):
            return heights
        heights = grown


def _height_batches(seed, count):
    """Random batches of closed masks over boxes of d=2 (up to 13 columns)
    and d=3 (up to 6 columns per axis), heights 1-9 and closed fractions
    2-80%, with a centre column, on the rim one time in three."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 4))
        cols = rng.integers(1, 14 if d == 2 else 7, d - 1)
        lo = rng.integers(-3, 4, d - 1)
        box = BoxRegion((*lo.tolist(), 0), (*(lo + cols - 1).tolist(), int(rng.integers(1, 10))))
        closed = rng.random((int(rng.integers(1, 6)), *box.shape)) < rng.uniform(0.02, 0.8)
        center = [int(rng.integers(0, n)) for n in cols]
        if rng.random() < 1 / 3:
            axis = int(rng.integers(0, d - 1))
            center[axis] = int(rng.choice([0, cols[axis] - 1]))
        yield closed, box, tuple(center)


def _side_distance(shape):
    """Per column of shape, its 1-norm distance to the nearest rim column."""
    grids = np.indices(shape)
    return np.min([np.minimum(g, n - 1 - g) for g, n in zip(grids, shape)], axis=0)


def test_floor_reader_matches_the_height_function():
    """_floor_column_runs' two sides in every column are the height-function
    closures of the floor (R = 0) and of the rim (R = max(0, H - distance to
    the nearest side)), on random boxes, many larger than the oracle's 30
    sites."""
    for closed, box, _ in _height_batches(29, 400):
        *shape, layers = box.shape
        columns = sorted({s[:-1] for s in box.sites()})
        lo, hi = _floor_column_runs(closed, box, columns, StepSet.FULL)
        batch = (len(closed), *shape)
        rim = np.maximum(0, layers - 1 - _side_distance(shape))
        for got, start in ((lo, np.zeros(batch, int)), (hi, np.broadcast_to(rim, batch))):
            want = _height_closure(closed, start)
            np.testing.assert_array_equal(got, want.reshape(len(closed), -1))


def test_climb_reader_matches_the_height_function():
    """The cover reader of _climb_masks reads the height-function closure of
    the centre column's floor site: heights R + 1, radius max(R + 1 +
    |y - x|_1) over reached columns, certified unless a reached column is a
    rim column or R reaches the top, on random boxes, many larger than the
    oracle's 30 sites."""
    for closed, box, center in _height_batches(31, 400):
        *shape, layers = box.shape
        start = np.full((len(closed), *shape), -1)
        start[(slice(None), *center)] = 0
        heights = _height_closure(closed, start)
        reached = heights >= 0
        axes = tuple(range(1, heights.ndim))
        dist = sum(np.abs(g - c) for g, c in zip(np.indices(shape), center))
        rim = _side_distance(shape) == 0
        want = (heights + 1, np.where(reached, heights + 1 + dist, 0).max(axis=axes),
                ~((reached & rim).any(axis=axes) | (heights == layers - 1).any(axis=axes)))
        x = tuple(a + c for a, c in zip(box.lo, center))
        for got, ref in zip(_read_covers(closed, box, x), want):
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)


def _screen_bits(closed: np.ndarray, box: BoxRegion, sites) -> np.ndarray:
    """The closed bits of a batch of masks (B, *box.shape) at the sites,
    shaped (len(sites), B), as a screen's test reads them."""
    return np.stack([closed[(slice(None), *np.subtract(s, box.lo))] for s in sites])


def _lid_configs(box: BoxRegion) -> np.ndarray:
    """Every configuration of the lids (the heights above the floor; no up
    step lands on the floor) of a box, as a batch of closed masks."""
    lid = box.size // box.shape[-1] * (box.shape[-1] - 1)
    lids = np.arange(1 << lid)[:, None] >> np.arange(lid) & 1 == 1
    closed = np.zeros((len(lids), *box.shape), bool)
    closed[..., 1:] = lids.reshape(-1, *box.shape[:-1], box.shape[-1] - 1)
    return closed


def _pair_sites(top: int, x) -> list:
    """The floor screen's pairs of x in a box of top H, found site by site:
    ((u, |u - x|_1 + 1), (w, |w - x|_1)) with 1 <= |u - x|_1 <= H - 1,
    1 <= |w - x|_1 <= H and each u_j between x_j and w_j."""
    ring = [(y, sum(map(abs, y))) for y in itertools.product(range(-top, top + 1),
                                                              repeat=len(x))]
    return [((*(c + i for c, i in zip(x, u)), a + 1), (*(c + j for c, j in zip(x, w)), b))
            for u, a in ring for w, b in ring
            if 0 < a < top and 0 < b <= top
            and all(0 <= i * j and abs(i) <= abs(j) for i, j in zip(u, w))]


def _pairs(closed: np.ndarray, box: BoxRegion, x) -> np.ndarray:
    """Whether each box of a batch holds a closed pair of the floor screen."""
    found = np.zeros(len(closed), bool)
    for u, w in _pair_sites(box.hi[-1], x):
        found |= _screen_bits(closed, box, [u, w]).all(axis=0)
    return found


@pytest.mark.parametrize("step_set", list(StepSet))
def test_floor_screen_stops_only_boxes_whose_runs_are_zero(step_set):
    """Every configuration of the lids of f_tail's first box at k_max = 0
    and margin 1, 7 x 3 sites: the screen lets through exactly the boxes
    with (0, 1) and (0, 2) closed or a closed pair, and wherever it gives
    row 0 or 1, the floor reader's read of the whole box is that row
    exactly: runs 0, settled as H - 1 = 1 > 0 says, in the 3200 boxes with
    (0, 1) open, and runs 1, unsettled, in the 1600 with (0, 1) closed and
    (0, 2) open.  It stops boxes with a closed site in either group of a
    pair, so its pair test counts."""
    box = _floor_boxes((0,), (0,), Budget(1, 2, 0))[0]
    assert box == BoxRegion((-3, 0), (3, 2))
    closed = _lid_configs(box)
    assert len(closed) == 1 << 14
    sites, test, *table = SURFACE._floor_screen(box, (0,), step_set)
    rows = test(_screen_bits(closed, box, sites))
    through = rows == 2
    assert (through == (_pairs(closed, box, (0,)) | closed[:, 3, 1] & closed[:, 3, 2])).all()
    assert np.bincount(rows).tolist() == [3200, 1600, (1 << 14) - 4800]
    assert [r[:2].tolist() for r in table] == [[[0], [1]], [[0], [1]], [[True], [False]]]
    for row in (0, 1):
        lo, hi, settled = SURFACE._floor_read(closed[rows == row], box, [(0,)], step_set)
        for got, want in zip((lo, hi, settled), table):
            assert (got == want[row]).all()
    stopped = closed[~through]
    for group in ([s for s in sites if s[1] == abs(s[0]) + 1 > 1],
                  [s for s in sites if s[1] == abs(s[0]) > 0]):
        assert _screen_bits(stopped, box, group).any()


def _oracle_runs(closed: np.ndarray, box: BoxRegion, step_set: StepSet) -> tuple[int, int]:
    """The origin column's runs, optimistic and pessimistic, in one closed
    mask of a box over the columns -m..m at d = 2, read off oracle.walk_reach
    from the floor, and from the floor and both side columns."""
    config = ExplicitConfig(box, tuple(int(not c) for c in closed.ravel()))
    floor = [s for s in box.sites() if s[-1] == 0]
    sides = [s for s in box.sites() if abs(s[0]) == box.hi[0]]
    runs = []
    for sources in (floor, floor + sides):
        reached = walk_reach(config, sources, step_set, height_floor=0)
        runs.append(next(t for t in range(1, box.hi[-1] + 2) if (0, t) not in reached) - 1)
    return tuple(runs)


@pytest.mark.parametrize("step_set", list(StepSet))
def test_floor_screen_rows_agree_with_the_oracle(step_set):
    """Every seventh configuration the floor screen stops in f_tail's first
    box at k_max = 0 and margin 1, 7 x 3 sites: the oracle's walks, which
    share no code with the engine, give the origin column the runs of the
    configuration's row."""
    box = _floor_boxes((0,), (0,), Budget(1, 2, 0))[0]
    closed = _lid_configs(box)
    sites, test, lo, hi, _ = SURFACE._floor_screen(box, (0,), step_set)
    rows = test(_screen_bits(closed, box, sites))
    stopped = np.flatnonzero(rows < 2)[::7]
    assert len(stopped) == 686
    for i in stopped.tolist():
        assert _oracle_runs(closed[i], box, step_set) == (lo[rows[i], 0], hi[rows[i], 0])


def test_floor_screen_pairs_need_u_between_x_and_w():
    """A closed (1, 2) above and a closed (-1, 1) level site, the rest
    open: the earlier rule, some closed site above and some closed level
    site, let the box through.  No pair is closed, since 1 does not lie
    between 0 and -1, so the screen stops the box in row 0, and its runs
    are 0, as the floor reader and the oracle read them."""
    box = _floor_boxes((0,), (0,), Budget(1, 2, 0))[0]
    closed = np.zeros((1, *box.shape), bool)
    closed[0, 4, 2] = closed[0, 2, 1] = True  # (1, 2) and (-1, 1)
    sites, test, *table = SURFACE._floor_screen(box, (0,), StepSet.FULL)
    above = [s for s in sites if s[1] == abs(s[0]) + 1 > 1]
    level = [s for s in sites if s[1] == abs(s[0]) > 0]
    assert (1, 2) in above and (-1, 1) in level
    assert _screen_bits(closed, box, above).any() and _screen_bits(closed, box, level).any()
    assert test(_screen_bits(closed, box, sites)).tolist() == [0]
    lo, hi, settled = SURFACE._floor_read(closed, box, [(0,)], StepSet.FULL)
    assert (lo.tolist(), hi.tolist(), settled.tolist()) == ([[0]], [[0]], [[True]])
    assert _oracle_runs(closed[0], box, StepSet.FULL) == (0, 0)


def test_floor_screen_pairs_take_u_equal_to_w():
    """A closed (1, 1) and (1, 2), the rest open: the climb (1, 0), (1, 1),
    (1, 2) steps down diagonally onto (0, 1), so the origin column's run is
    1.  The only pair is u = w = (1,); a screen that asked for u strictly
    between x and w would stop the box in row 0, with run 0.  The screen
    lets it through."""
    box = _floor_boxes((0,), (0,), Budget(1, 2, 0))[0]
    closed = np.zeros((1, *box.shape), bool)
    closed[0, 4, 1] = closed[0, 4, 2] = True  # (1, 1) and (1, 2)
    assert _pairs(closed, box, (0,)).tolist() == [True]
    sites, test, *table = SURFACE._floor_screen(box, (0,), StepSet.FULL)
    assert [r[0].tolist() for r in table] == [[0], [0], [True]]
    lo, hi, _ = SURFACE._floor_read(closed, box, [(0,)], StepSet.FULL)
    assert (lo.tolist(), hi.tolist()) == ([[1]], [[1]])
    assert _oracle_runs(closed[0], box, StepSet.FULL) == (1, 1)
    assert test(_screen_bits(closed, box, sites)).tolist() == [2]


@st.composite
def _screened_boxes(draw):
    """f_tail's first box for d = 2 or 3, any height H >= 2 and margin >= 1,
    a step set, a row 0 or 1, and a batch of random closed masks over it
    that the screen's test cannot let through: no closed pair, where each
    closed pair found opens its above site or, in some batches, every level
    site whose box between x and it holds a closed above site; and (x, 1)
    open for row 0, or closed with (x, 2) open for row 1."""
    d = draw(st.integers(2, 3))
    top, margin = draw(st.integers(2, 5 if d == 2 else 3)), draw(st.integers(1, 3))
    x = (0,) * (d - 1)
    box = _floor_boxes(x, x, Budget(margin, top, 0))[0]
    step_set, row = draw(st.sampled_from(list(StepSet))), draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    closed = rng.random((8, *box.shape)) < draw(st.sampled_from((0.05, 0.3, 0.7)))
    open_above = draw(st.booleans())
    for u, w in _pair_sites(top, x):
        at_u, at_w = ((slice(None), *np.subtract(s, box.lo)) for s in (u, w))
        pair = closed[at_u] & closed[at_w]
        closed[at_u if open_above else at_w] &= ~pair
    closed[(slice(None), *np.subtract((*x, 1), box.lo))] = row == 1
    closed[(slice(None), *np.subtract((*x, 2), box.lo))] = False
    return box, step_set, row, closed


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_screened_boxes())
def test_floor_screen_stopped_boxes_read_zero_runs_settled(case):
    """With no closed pair and (x, 1) open, the floor reader gives both
    runs 0 at d = 2 and 3, whatever the height, margin and step set, and
    settles them (0 < H - 1); with (x, 1) closed and (x, 2) open it gives
    both runs 1, settled where 1 < H - 1.  Each is the row the screen
    gives those boxes."""
    box, step_set, row, closed = case
    x = (0,) * (box.dim - 1)
    sites, test, *table = SURFACE._floor_screen(box, x, step_set)
    rows = test(_screen_bits(closed, box, sites))
    assert (rows == row).all()
    lo, hi, settled = SURFACE._floor_read(closed, box, [x], step_set)
    assert (lo == row).all() and (hi == row).all()
    assert (settled == (row < box.hi[-1] - 1)).all()
    assert all((r.take(rows, axis=0) == v).all()
               for r, v in zip(table, (lo, hi, settled)))


def test_cover_screen_stops_only_covers_of_radius_one():
    """All 2^15 configurations of cover_sweep's box [-2, 2] x [0, 2]: the
    cover reader gives radius 1, certified, in every one with (0, 1) open,
    which the cover screen stops, as in its row 0; with (0, 1) closed the
    radius is at least 2.  Wherever the screen gives a stopped row, the
    read of the whole box is exactly that row: radius 2, certified, in
    row 1, the 2^11 configurations with (0, 1) closed and (+-1, 1) and
    (0, 2) open."""
    box = BoxRegion((-2, 0), (2, 2))
    bits = np.arange(1 << box.size)[:, None] >> np.arange(box.size)
    closed = ((bits & 1) == 0).reshape(-1, *box.shape)
    _, rho, certified = _read_covers(closed, box, (0,))
    sites, test, *table = SURFACE._cover_screen(box, (0,))
    assert sites == ((0, 1), (-1, 1), (1, 1), (0, 2))
    rows = test(_screen_bits(closed, box, sites))
    through = rows == 2
    stopped = rows == 0
    assert stopped.sum() == 1 << 14
    assert (rho[stopped] == 1).all() and certified[stopped].all()
    assert [r[0].tolist() for r in table] == [1, 1, True]
    assert (rho[~stopped] >= 2).all()
    assert (rows == 1).sum() == 1 << 11
    assert [r[1].tolist() for r in table] == [2, 2, True]
    for got, row in zip((rho, rho, certified), table):
        np.testing.assert_array_equal(got[~through], row.take(rows[~through]))


def _cover_screen_row_1(closed: np.ndarray, box: BoxRegion, x) -> None:
    """Set the screen's sites of x in a batch of masks as its row 1 needs
    them: (x, 1) closed, and every (x +- e_j, 1) and (x, 2) in the box open."""
    sites = SURFACE._cover_screen(box, x)[0]
    for s in sites:
        closed[(slice(None), *np.subtract(s, box.lo))] = s == (*x, 1)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 4),
       st.sampled_from((0.05, 0.3, 0.7)), st.integers(0, 2**32 - 1))
@example(2, 1, 1, 0.3, 0)  # margin and height 1: the climb meets side and top
@example(2, 3, 1, 0.7, 1)  # height 1: (x, 2) is off the box, the top is met
@example(3, 1, 3, 0.3, 2)  # margin 1: the climb meets the side
def test_cover_screen_row_1_is_the_read_of_its_boxes(d, margin, height, density, seed):
    """At d = 2 and 3, any margin and height of at least 1: in a batch of
    random masks with the screen's sites set as its row 1 needs, the
    screen gives every box row 1, and the cover reader's read of every box
    is that row exactly.  The row is radius 2, certified unless the margin
    or the height is 1."""
    x = (0,) * (d - 1)
    box = SURFACE._climb_boxes(x, Budget(margin, height, 0))[0]
    closed = np.random.default_rng(seed).random((8, *box.shape)) < density
    _cover_screen_row_1(closed, box, x)
    sites, test, *table = SURFACE._cover_screen(box, x)
    assert len(sites) == 2 * d - 1 + (height >= 2)
    rows = test(_screen_bits(closed, box, sites))
    assert (rows == 1).all()
    _, rho, certified = _read_covers(closed, box, x)
    assert (rho == 2).all()
    assert certified.all() == (margin > 1 and height > 1)
    for got, row in zip((rho, rho, certified), table):
        np.testing.assert_array_equal(got, row.take(rows))


def test_cover_screen_row_1_needs_every_side_site():
    """A screen that left out (-1, 1) would give row 1, radius 2, to a box
    with (0, 1) and (-1, 1) closed and the other sites open, whose climb
    set reaches (-2, 0) on the box side: radius 3, uncertified.  The
    screen reads (-1, 1) and lets the box through."""
    box = BoxRegion((-2, 0), (2, 2))
    closed = np.zeros((1, *box.shape), bool)
    closed[0, 2, 1] = closed[0, 1, 1] = True  # (0, 1) and (-1, 1)
    sites, test, *table = SURFACE._cover_screen(box, (0,))
    without = [s for s in sites if s != (-1, 1)]
    assert len(without) == len(sites) - 1
    left = _screen_bits(closed, box, without)
    assert left[0].all() and not left[1:].any()  # row 1's test on the other sites
    _, rho, certified = _read_covers(closed, box, (0,))
    assert rho.tolist() == [3] and certified.tolist() == [False]
    assert [r[1].tolist() for r in table] == [2, 2, True]
    assert test(_screen_bits(closed, box, sites)).tolist() == [2]


# the two-sided 99.9% normal quantile
_Z_999 = 3.2905267314919255


def _screen_row_counts(d: int, p: float, screen, replicates: int) -> list[int]:
    """How many of the replicates 0..replicates-1 of seed 7 the screen's
    test maps to each row, hashing only its sites."""
    sites, test, *_ = screen
    counts = np.zeros(3, np.int64)
    for start in range(0, replicates, 100_000):
        reps = np.arange(start, min(start + 100_000, replicates))
        counts += np.bincount(test(replicate_closed_sites(d, p, 7, reps, sites)), minlength=3)
    return counts.tolist()


def _within_wilson_999(counts: list[int], law: list[float]) -> None:
    n = sum(counts)
    for k, want in zip(counts, law):
        phat, z2 = k / n, _Z_999 ** 2
        center = (phat + z2 / (2 * n)) / (1 + z2 / n)
        margin = _Z_999 / (1 + z2 / n) * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
        assert center - margin <= want <= center + margin, (counts, law)


@pytest.mark.parametrize("p", [0.99, 0.95])
def test_floor_screen_rows_follow_their_exact_law(p):
    """At d = 2, 10^6 replicates of f_tail's first box at k_max = 4 fall in
    each row of the floor screen within the 99.9% Wilson interval of its
    exact law: a pair lies on one side of x, so no pair is a product over
    the two sides, each enumerated over its 2^(2H - 1) states, and row 0
    has (x, 1) open, row 1 (x, 1) closed and (x, 2) open."""
    box = _floor_boxes((0,), (0,), Budget(6, 6, 0))[0]
    screen = SURFACE._floor_screen(box, (0,), StepSet.FULL)
    q, free = 1 - p, 1.0
    for side in (-1, 1):
        above = [s[0] for s in screen[0][2:] if s[0] * side > 0 and s[1] == abs(s[0]) + 1]
        level = [s[0] for s in screen[0][2:] if s[0] * side > 0 and s[1] == abs(s[0])]
        assert len(above) + len(level) == 2 * box.hi[-1] - 1
        none = 0.0
        for bits in itertools.product((False, True), repeat=len(above) + len(level)):
            u, w = bits[:len(above)], bits[len(above):]
            if not any(a and b and abs(i) <= abs(j) for i, a in zip(above, u)
                       for j, b in zip(level, w)):
                none += q ** sum(bits) * p ** (len(bits) - sum(bits))
        free *= none
    law = [p * free, q * p * free]
    _within_wilson_999(_screen_row_counts(2, p, screen, 10**6), [*law, 1 - sum(law)])


@pytest.mark.parametrize("p", [0.99, 0.95])
@pytest.mark.parametrize("d", [2, 3])
def test_cover_screen_rows_follow_their_exact_law(d, p):
    """10^6 replicates of the cover tails' first box fall in each row of the
    cover screen within the 99.9% Wilson interval of its exact law: row 0
    has (x, 1) open, with probability p, and row 1 (x, 1) closed and its
    2(d - 1) + 1 other sites open, q p^(2(d - 1) + 1)."""
    x = (0,) * (d - 1)
    box = _climb_boxes(x, COVER_BUDGET)[0]
    screen = SURFACE._cover_screen(box, x)
    assert len(screen[0]) == 2 * (d - 1) + 2
    law = [p, (1 - p) * p ** (2 * (d - 1) + 1)]
    _within_wilson_999(_screen_row_counts(d, p, screen, 10**6), [*law, 1 - sum(law)])


def test_schedules_past_the_site_limit_name_growth_cap():
    """A schedule whose last box would hold more than 2**24 sites stops
    before its boxes are built; cover d=3 at cap 5 (8.5 M sites), the
    largest default in use, is inside the limit."""
    assert _climb_boxes((0, 0), Budget(4, 4, 5))[-1].size == 8_520_321
    for build, args in ((_climb_boxes, ((0, 0), Budget(4, 4, 6))),
                        (_floor_boxes, ((0,), (0,), Budget(1, 2, 40)))):
        with pytest.raises(ValueError, match="config field 'growth_cap': .* over the limit"):
            build(*args)
    with pytest.raises(ValueError, match="'growth_cap'"):
        build_surface(PercolationField(2, 0.99, 1), [(0,)], Budget(6, 8, 10**6))
