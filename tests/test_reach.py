import random
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lipsurf
from lipsurf.lattice import (BoxRegion, ExplicitConfig, PercolationField,
                             replicate_closed_masks)
from lipsurf.oracle import exact_event_prob, walk_reach
import lipsurf.reach as REACH
from lipsurf.reach import (Budget, StepSet, _floor_column_runs, _hash_replicates, _rim,
                           _seed_sides, _settle_replicates, _unpack,
                           floor_reach_sandwich, reach_masks)
from lipsurf.stats import wilson_interval
from lipsurf.surface import build_surface

from fields import closed_at, column_runs, sites

ALL_OPEN = closed_at(2)


def test_reach_is_the_module():
    # the package exports no function under the submodule's name, so an
    # import of lipsurf.reach, and a patch on it, reach the module
    assert isinstance(REACH, types.ModuleType) and lipsurf.reach is REACH
    assert REACH.__name__ == "lipsurf.reach"


def _reach(field, sources, box):
    """reach_masks from a list of source sites in one field's box: the
    reached mask, shaped like the box."""
    seeds = np.zeros((1, *box.shape), dtype=bool)
    for s in sources:
        seeds[(0, *np.subtract(s, box.lo))] = True
    return reach_masks(field.closed_mask(box)[None], seeds)[0]


def _downward_cone(source, box):
    # independent recursion: only down and diagonal-down moves are possible
    # on an all-open field
    out = set()
    frontier = [source]
    while frontier:
        s = frontier.pop()
        if s in out:
            continue
        out.add(s)
        for step in ((0, -1), (1, -1), (-1, -1)):
            nxt = (s[0] + step[0], s[1] + step[1])
            if box.contains(nxt):
                frontier.append(nxt)
    return out


def test_reach_downward_cone():
    box = BoxRegion((-4, -4), (4, 4))
    src = (1, 2)
    assert sites(_reach(ALL_OPEN, [src], box), box) == _downward_cone(src, box)


def test_reach_empty_sources():
    box = BoxRegion((-2, 0), (2, 3))
    assert sites(_reach(ALL_OPEN, [], box), box) == set()


def test_reach_empty_sources_mask():
    box = BoxRegion((-2, -1, 0), (2, 1, 3))
    mask = _reach(closed_at(3, box.sites()), [], box)
    assert mask.shape == box.shape and not mask.any()


def _run_from_mask(mask, box, col):
    # the run read one site at a time up the column, from height 1
    run = 0
    idx = tuple(c - a for c, a in zip(col, box.lo))
    while run + 1 <= box.hi[-1] and mask[(*idx, run + 1)]:
        run += 1
    return run


@pytest.mark.parametrize("box", [BoxRegion((-3, 0), (3, 5)),
                                 BoxRegion((-2, -1, 0), (2, 3, 4))])
def test_column_runs_batch_matches_per_column_reads(box):
    # the reference runs the floor reader is checked against read what a
    # site-by-site climb up each column reads
    rng = np.random.default_rng(17)
    masks = rng.random((2, *box.shape)) < 0.8
    cols = sorted({s[:-1] for s in box.sites()})
    a, b, c = cols[0], cols[1], cols[-1]
    lo = tuple(x - y for x, y in zip(a, box.lo[:-1]))
    ib = tuple(x - y for x, y in zip(b, box.lo[:-1]))
    ic = tuple(x - y for x, y in zip(c, box.lo[:-1]))
    masks[(0, *lo, 1)] = False          # unreached (col, 1): run 0
    masks[(0, *ib)] = True              # full column: run H
    masks[(0, *ic)] = True
    masks[(0, *ic, 3)] = False          # broken by a gap: run 2
    masks[(1, *lo)] = True
    masks[(1, *lo, 2)] = False          # a gap at height 2: run 1
    runs = column_runs(masks, box, cols)
    assert runs.shape == (2, len(cols))
    want = [[_run_from_mask(m, box, col) for col in cols] for m in masks]
    assert runs.tolist() == want
    h = box.hi[-1]
    assert want[0][0] == 0 and want[0][1] == h and want[0][-1] == 2
    assert want[1][0] == 1
    # a sublist of columns, out of order, reads the same entries
    pick = [c, a]
    assert column_runs(masks, box, pick).tolist() == [[w[-1], w[0]] for w in want]


@pytest.mark.parametrize("column", [(-3,), (3,)])
def test_column_reads_reject_columns_outside_the_box(column):
    """A column past either side of the box fails in the index, where an
    index taken modulo the box would wrap round to the far side; the reader
    reads the box's side columns."""
    box = BoxRegion((-2, 0), (2, 3))
    reached = np.ones((2, *box.shape), dtype=bool)
    with pytest.raises(ValueError, match="invalid entry in coordinates array"):
        _floor_column_runs(~reached, box, [(0,), column], StepSet.FULL)
    # the side columns are inside: all open, only the pessimistic side climbs
    lo, hi = _floor_column_runs(~reached, box, [(-2,), (2,)], StepSet.FULL)
    assert lo.tolist() == [[0, 0]] * 2 and hi.tolist() == [[3, 3]] * 2


def test_build_surface_names_malformed_base_columns():
    """A base column of the wrong length or with a coordinate that is not an
    integer is named in an error, where an index would read another column
    or fail unnamed."""
    field = PercolationField(2, 0.9, master_seed=1)
    for cols, bad in (([(0, 99)], r"\(0, 99\)"), ([()], r"\(\)"),
                      ([(0,), (1, 2)], r"\(1, 2\)"), ([(0,), ()], r"\(\)"),
                      ([(0.5,)], r"\(0.5,\)"), ([(0,), (-1.0,)], r"\(-1.0,\)")):
        with pytest.raises(ValueError, match=rf"column {bad} does not have d - 1 = 1 integer"):
            build_surface(field, cols)
    with pytest.raises(ValueError, match=r"column \(1,\) does not have d - 1 = 2"):
        build_surface(PercolationField(3, 0.9, master_seed=1), [(0, 0), (1,)])


def test_reach_source_order_free():
    field = PercolationField(2, 0.8, master_seed=3)
    box = BoxRegion((-5, 0), (5, 5))
    bottom = [(x, 0) for x in range(-5, 6)]
    a = _reach(field, bottom, box)
    shuffled = bottom[:]
    random.Random(1).shuffle(shuffled)
    b = _reach(field, shuffled, box)
    np.testing.assert_array_equal(a, b)


def test_walk_equals_path_reach_exhaustively():
    # every configuration of a 3x3 box, several source sets and floors
    from lipsurf.harness import walk_path_sweep
    out = walk_path_sweep()
    assert out["passed"], out


def test_floor_sandwich_all_open():
    box = BoxRegion((-3, 0), (3, 3))
    opt, _ = floor_reach_sandwich(ALL_OPEN, box)
    assert {s for s in sites(opt, box) if s[1] >= 1} == set()


def test_floor_sandwich_single_closed_site():
    field = closed_at(2, [(0, 1)])
    box = BoxRegion((-3, 0), (3, 3))
    opt, _ = floor_reach_sandwich(field, box)
    assert {s for s in sites(opt, box) if s[1] >= 1} == {(0, 1)}


def test_optimistic_subset_of_pessimistic():
    for rep in range(300):
        field = PercolationField(2, 0.9, master_seed=12, replicate=rep)
        box = BoxRegion((-4, 0), (4, 4))
        opt, pes = floor_reach_sandwich(field, box)
        assert sites(opt, box) <= sites(pes, box)


def test_downward_closure():
    for rep in range(100):
        field = PercolationField(2, 0.85, master_seed=21, replicate=rep)
        box = BoxRegion((-4, 0), (4, 4))
        for mask in floor_reach_sandwich(field, box):
            reached = sites(mask, box)
            for s in reached:
                if s[1] >= 1:
                    assert (s[0], s[1] - 1) in reached


def test_antitone_in_openness():
    # opening one closed site never adds a reachable site (fixed sources)
    box = BoxRegion((-1, 0), (1, 2))
    bottom = [(-1, 0), (0, 0), (1, 0)]
    for bits in range(1 << 9):
        config = ExplicitConfig.from_bits(box, bits)
        closed = frozenset(s for s in box.sites() if config.is_closed(s))
        if not closed:
            continue
        before = sites(_reach(config, bottom, box), box)
        flip = next(iter(closed))
        opened = ExplicitConfig(
            box, tuple(1 if s == flip else st
                       for s, st in zip(box.sites(), config.states)))
        after = sites(_reach(opened, bottom, box), box)
        assert after <= before


def test_box_monotonicity():
    for rep in range(60):
        field = PercolationField(2, 0.9, master_seed=33, replicate=rep)
        small = BoxRegion((-3, 0), (3, 3))
        wide = BoxRegion((-6, 0), (6, 3))
        tall = BoxRegion((-3, 0), (3, 6))
        opt_small, pes_small = (sites(m, small) for m in floor_reach_sandwich(field, small))
        opt_wide, pes_wide = (sites(m, wide) for m in floor_reach_sandwich(field, wide))
        opt_tall = sites(floor_reach_sandwich(field, tall)[0], tall)
        inside = set(small.sites())
        # growing never shrinks the optimistic set on the old box
        assert opt_small <= (opt_wide & inside) | (opt_small - inside)
        assert opt_small <= opt_tall
        # growing sideways at fixed height never enlarges the pessimistic set
        assert (pes_wide & inside) <= pes_small


def _explicit(field, box):
    # ExplicitConfig states are 1 for open, in lexicographic (C) site order
    return ExplicitConfig(box, tuple(int(c) for c in ~field.closed_mask(box).ravel()))


def _on_side(site, box):
    return any(site[i] in (box.lo[i], box.hi[i]) for i in range(box.dim - 1))


def test_sandwich_equals_set_reach():
    """The dense layer sweep behind the sandwich reaches exactly what the
    oracle's walk reach does from the same seeds."""
    cases = [(2, BoxRegion((-4, 0), (4, 4)), 40), (2, BoxRegion((-2, 0), (3, 1)), 40),
             (3, BoxRegion((-3, -2, 0), (3, 4, 5)), 6)]
    for d, box, reps in cases:
        bottom = {s for s in box.sites() if s[-1] == 0}
        side = {s for s in box.sites() if _on_side(s, box)}
        for step_set in StepSet:
            for p in (0.95, 0.8, 0.5):
                for rep in range(reps):
                    field = PercolationField(d, p, master_seed=44, replicate=rep)
                    config = _explicit(field, box)
                    opt, pes = floor_reach_sandwich(field, box, step_set)
                    for got, seeds in ((opt, bottom), (pes, bottom | side)):
                        want = walk_reach(config, seeds, step_set, height_floor=0)
                        assert got.shape == box.shape
                        assert sites(got, box) == want


def test_reach_rejects_source_below_floor():
    # the oracle refuses a source below its floor; reach_masks' floor is the
    # box bottom, so the oracle's floor 0 is reach_masks on the box cropped
    # to height 0
    box = BoxRegion((-1, -1), (1, 2))
    all_closed = ExplicitConfig(box, (0,) * box.size)
    with pytest.raises(ValueError, match="below floor"):
        walk_reach(all_closed, [(0, -1)], height_floor=0)
    mask = _reach(all_closed, [(0, -1)], box)
    assert sites(mask, box) == walk_reach(all_closed, [(0, -1)], height_floor=-1)
    assert mask.shape == box.shape
    cropped = BoxRegion((-1, 0), (1, 2))
    assert (sites(_reach(all_closed, [(0, 0)], cropped), cropped)
            == walk_reach(all_closed, [(0, 0)], height_floor=0))


@st.composite
def _seeded_batches(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    cols = draw(st.lists(st.integers(1, 6 - d), min_size=d - 1, max_size=d - 1))
    shape = (draw(st.integers(1, 4)), *cols, draw(st.integers(1, 4 if d == 4 else 8)))
    n = int(np.prod(shape))
    # a site is closed unless it draws 0, so the closed density is 1/2, 3/4
    # or 7/8: dense fields grow towers that take several climbs
    odds = draw(st.sampled_from((2, 4, 8)))
    closed = draw(st.lists(st.integers(0, odds - 1), min_size=n, max_size=n))
    seeds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (np.array(closed).reshape(shape) > 0, np.array(seeds).reshape(shape),
            draw(st.sampled_from(StepSet)))


def _oracle_masks(closed, seeds, step_set):
    """The oracle's walk reach of each box of a batch, floored at its bottom
    layer, as a mask shaped like the batch."""
    box = BoxRegion((0,) * (closed.ndim - 1), tuple(n - 1 for n in closed.shape[1:]))
    want = np.zeros_like(closed)
    for b in range(len(closed)):
        config = ExplicitConfig(box, tuple(int(c) for c in ~closed[b].ravel()))
        sources = [tuple(i) for i in np.argwhere(seeds[b]).tolist()]
        for s in walk_reach(config, sources, step_set, height_floor=0):
            want[(b, *s)] = True
    return want


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_seeded_batches())
def test_reach_masks_matches_oracle(batch):
    """Each box of a batch, closed from random seeds, equals the oracle's
    walk reach floored at its bottom layer; boxes never leak into each other."""
    closed, seeds, step_set = batch
    reached = reach_masks(closed, seeds, step_set)
    assert reached.shape == closed.shape and reached.dtype == bool
    np.testing.assert_array_equal(reached, _oracle_masks(closed, seeds, step_set))


@st.composite
def _floor_batches(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    cols = draw(st.lists(st.integers(1, 6 - d), min_size=d - 1, max_size=d - 1))
    lo = draw(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1))
    top = draw(st.integers(1, 3 if d == 4 else 7))
    box = BoxRegion((*lo, 0), (*(a + n - 1 for a, n in zip(lo, cols)), top))
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        # all open, all closed, or a site is closed unless it draws 0, so
        # the closed density is 1/2, 3/4 or 7/8
        odds = draw(st.sampled_from((1, "closed", 2, 4, 8)))
        if odds == "closed":
            boxes.append(np.ones(box.shape, dtype=bool))
            continue
        draws = draw(st.lists(st.integers(0, odds - 1), min_size=box.size,
                              max_size=box.size))
        boxes.append(np.array(draws).reshape(box.shape) > 0)
    column = st.tuples(*(st.integers(a, a + n - 1) for a, n in zip(lo, cols)))
    columns = draw(st.lists(column, min_size=1, max_size=4))
    return np.stack(boxes), box, columns, draw(st.sampled_from(StepSet))


def _floor_reference(closed, step_set):
    """Both sides of the floor sandwich of a batch, each closed from its own
    seeds by reach_masks: the bottom layer, then the bottom layer and the
    inner side boundary."""
    seeds = np.zeros(closed.shape, dtype=bool)
    seeds[..., 0] = True
    opt = reach_masks(closed, seeds, step_set)
    _seed_sides(seeds, range(1, closed.ndim - 1))
    return opt, reach_masks(closed, seeds, step_set)


def test_floor_column_runs_match_the_floor_reference():
    """The batched reader's (lo, hi) over a list of columns are the
    reference column runs of the reference's two sides, though it closes the pessimistic side
    from the rim and the optimistic side only in boxes where some
    pessimistic run is positive.  The sample holds boxes whose optimistic
    run is positive, boxes where it is below the pessimistic one, batches
    where no pessimistic run is positive, so that the optimistic side never
    closes, and batches where it closes in some boxes only: in a box one
    layer above the floor, the rim reaches no inner column above height 0."""
    seen = set()
    box = BoxRegion((0, 0), (4, 1))
    dead = np.zeros((2, *box.shape), dtype=bool)
    live = dead.copy()
    live[1, 2, 1] = True  # a climb from the floor in the middle column

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_floor_batches())
    @example((dead, box, [(2,), (1,)], StepSet.FULL))
    @example((live, box, [(2,)], StepSet.NO_STRAIGHT_DOWN))
    def check(batch):
        closed, box, columns, step_set = batch
        lo, hi = _floor_column_runs(closed, box, columns, step_set)
        assert lo.shape == hi.shape == (len(closed), len(columns))
        opt, pes = _floor_reference(closed, step_set)
        np.testing.assert_array_equal(lo, column_runs(opt, box, columns))
        np.testing.assert_array_equal(hi, column_runs(pes, box, columns))
        # the same batch laid out in memory as the hash lays it out
        swap = (closed.ndim - 1, *range(1, closed.ndim - 1), 0)
        view = np.ascontiguousarray(closed.transpose(swap)).transpose(swap)
        for got, want in zip(_floor_column_runs(view, box, columns, step_set), (lo, hi)):
            np.testing.assert_array_equal(got, want)
        if (lo > 0).any():
            seen.add("0 < lo")
        if (lo < hi).any():
            seen.add("lo < hi")
        closes = hi.any(axis=1).sum()  # boxes whose optimistic side closes
        if not closes:
            seen.add("no positive pessimistic run")
        elif closes < len(hi):
            seen.add("the optimistic side closes in some boxes only")
        seen.add(f"d={closed.ndim - 1}")

    check()
    assert seen == {"0 < lo", "lo < hi", "no positive pessimistic run",
                    "the optimistic side closes in some boxes only", "d=2", "d=3", "d=4"}


@pytest.mark.parametrize("step_set", list(StepSet))
@pytest.mark.parametrize("shape", [(6, 4), (5, 4, 5), (4, 3, 4, 3)])
def test_rim_is_the_pessimistic_reach_of_open_boxes(shape, step_set):
    """The cached rim is the floor and the sides closed under down moves:
    on all-open boxes, where nothing climbs, it is the pessimistic side of
    the floor sandwich, and the closure of those seeds by reach_masks."""
    d = len(shape)
    closed = np.zeros((3, *shape), dtype=bool)
    seeds = np.zeros_like(closed)
    seeds[..., 0] = True
    _seed_sides(seeds, range(1, d))
    want = reach_masks(closed, seeds, step_set)
    assert (want > seeds).any()  # the sides descend into the box
    box = BoxRegion((0,) * d, tuple(n - 1 for n in shape))
    _, pes = floor_reach_sandwich(closed_at(d), box, step_set)
    np.testing.assert_array_equal(pes, want[0])
    layers = (shape[-1], *shape[:-1], len(closed))
    rim = _rim(layers, step_set)
    # one int per layer in a tuple: nothing a caller could write to
    assert isinstance(rim, tuple) and len(rim) == shape[-1]
    assert all(isinstance(x, int) for x in rim)
    assert _rim(layers, step_set) is rim
    np.testing.assert_array_equal(_unpack(rim, layers).transpose(-1, *range(1, d), 0), want)


def test_cached_per_shape_arrays_are_read_only():
    """Every array a per-shape cache hands out is shared across calls, so
    writing to one raises, and the packed layers and masks are ints in
    tuples, which no caller can write to; a second call returns the same
    objects."""
    from lipsurf.lattice import _box_coords
    from lipsurf.surface import _climb_boxes, _cover_grid, _floor_boxes
    box = BoxRegion((-2, -1, 0), (2, 3, 4))
    cached = [(_rim, ((5, 5, 5, 3), StepSet.FULL)), (_box_coords, (box,)),
              (REACH._column_spans, (box, ((0, 0), (1, 2)))),
              (REACH._moves, ((5, 5, 3), StepSet.FULL)),
              (_cover_grid, ((5, 5), (2, 1)))]
    arrays = 0
    for cache, key in cached:
        got = cache(*key)
        assert cache(*key) is got
        for a in got if isinstance(got, tuple) else (got,):
            if isinstance(a, np.ndarray):
                arrays += 1
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 1
            else:  # packed layers and masks: ints, alone or in tuples
                hash(a)
    assert arrays == 3 + 2  # coordinates, grid
    budget = Budget(2, 3, 2)
    for boxes, key in ((_floor_boxes, ((0, 0), (1, 1), budget)),
                       (_climb_boxes, ((0, 0), budget))):
        assert boxes(*key) is boxes(*key)


def _bool_close(reached, closed, step_set, top):
    """The closure on boolean layers (H+1, n_1, ..., n_(d-1), B), in place:
    the numpy kernel the packed one replaced, kept as its reference.
    Descents OR the down moves (clipped at the box sides) into the layer
    below, from the highest layer changed down to the floor; whole-array
    climbs then repeat until one adds nothing."""
    axes = tuple(range(1, reached.ndim))
    below, above, lids = reached[:-1], reached[1:], closed[1:]
    buf = np.empty_like(above)
    # (dst, src) slices of a layer per down move: straight, then +-e_j - e_d
    shifts = [((), ())] if step_set is StepSet.FULL else []
    for axis in range(reached.ndim - 2):
        lead = (slice(None),) * axis
        head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
        shifts += [(tail, head), (head, tail)]
    moves = []  # moves[t - 1]: the down moves out of layer t
    changed = top
    while True:
        for t in range(len(moves) + 1, changed + 1):
            moves.append([(reached[t - 1][a], reached[t][b]) for a, b in shifts])
        for t in range(changed, 0, -1):
            for dst, src in moves[t - 1]:
                np.logical_or(dst, src, out=dst)
        changed = 0
        while True:
            np.logical_and(below, lids, out=buf)
            np.greater(buf, above, out=buf)  # only the sites this climb adds
            rows = np.logical_or.reduce(buf, axis=axes).nonzero()[0]
            if not rows.size:
                break
            changed = max(changed, int(rows[-1]) + 1)
            np.logical_or(above, buf, out=above)
        if not changed:
            return


@st.composite
def _kernel_layers(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    cols = draw(st.lists(st.integers(1, 7 - d), min_size=d - 1, max_size=d - 1))
    batch = draw(st.integers(1, 19))
    shape = (draw(st.integers(1, 7 if d < 4 else 4)), *cols, batch)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    closed = rng.random(shape) < draw(st.sampled_from((0.0, 0.3, 0.6, 0.9, 1.0)))
    # seeds in some layers only, at a random density
    layers = draw(st.sets(st.integers(0, shape[0] - 1), max_size=shape[0]))
    seeds = np.zeros(shape, dtype=bool)
    for t in layers:
        seeds[t] = rng.random(shape[1:]) < draw(st.sampled_from((0.05, 0.3, 1.0)))
    seeded = max((t for t in range(shape[0]) if seeds[t].any()), default=0)
    top = draw(st.integers(seeded, shape[0] - 1))  # any layer at or above the seeds
    return closed, seeds, draw(st.sampled_from(StepSet)), top


def test_packed_kernel_matches_the_boolean_kernel():
    """The packed _close, from any seeds and any first layer at or above
    them, gives the boolean kernel's closure, on layers packed and unpacked
    by _pack and _unpack.  The sample covers d = 2, 3 and 4, both step
    sets, batches of one box and of a size that is not a multiple of 8,
    and a column axis of length 1, where both edge masks are empty."""
    seen = set()

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_kernel_layers())
    def check(batch):
        closed, seeds, step_set, top = batch
        want = seeds.copy()
        _bool_close(want, closed, step_set, top)
        reached = REACH._pack(seeds)
        np.testing.assert_array_equal(REACH._unpack(reached, seeds.shape), seeds)
        REACH._close(reached, REACH._pack(closed), REACH._moves(closed.shape[1:], step_set), top)
        np.testing.assert_array_equal(REACH._unpack(reached, seeds.shape), want)
        *cols, size = closed.shape[1:]
        seen.update({f"d={len(cols) + 1}", step_set})
        if size == 1:
            seen.add("B=1")
        if size % 8:
            seen.add("B not a multiple of 8")
        if 1 in cols:
            seen.add("an axis of length 1")
        if (want > seeds).any():
            seen.add("the closure adds sites")

    check()
    assert seen == {"d=2", "d=3", "d=4", *StepSet, "B=1", "B not a multiple of 8",
                    "an axis of length 1", "the closure adds sites"}


def test_empty_batches_close_to_empty_arrays():
    """A batch of no boxes is closed and read as arrays of no boxes."""
    box = BoxRegion((0, 0), (2, 3))
    none = np.zeros((0, *box.shape), dtype=bool)
    assert reach_masks(none, none).shape == none.shape
    for runs in _floor_column_runs(none, box, [(1,), (2,)], StepSet.FULL):
        assert runs.shape == (0, 2)


@pytest.mark.parametrize("step_set", list(StepSet))
@pytest.mark.parametrize("size", [1, 2, 7])
def test_boxes_of_a_batch_close_independently(size, step_set):
    """Each box of a batch closes as it would alone.  One box holds a tall
    closed tower, and the boxes at odd distance from it are empty and the
    others full, so a move across the batch axis would carry reach from a
    box into its neighbour."""
    tower = size // 2
    far = abs(np.arange(size) - tower)
    closed = np.zeros((size, 5, 3, 7), dtype=bool)
    closed[tower, 2, 1, 1:] = True
    closed[(far > 0) & (far % 2 == 0)] = True
    seeds = np.zeros_like(closed)
    seeds[:, 2, 1, 0] = True
    reached = reach_masks(closed, seeds, step_set)
    assert reached[tower, 2, 1].all()
    box = BoxRegion((0, 0, 0), (4, 2, 6))
    columns = sorted({s[:-1] for s in box.sites()})
    floor = _floor_column_runs(closed, box, columns, step_set)
    assert floor[0][tower].max() == 6  # the optimistic side climbs the tower
    for b in range(size):
        one = slice(b, b + 1)
        np.testing.assert_array_equal(
            reached[one], reach_masks(closed[one], seeds[one], step_set))
        for got, alone in zip(floor, _floor_column_runs(closed[one], box, columns, step_set)):
            np.testing.assert_array_equal(got[one], alone)


@pytest.mark.parametrize("step_set", list(StepSet))
def test_reach_masks_descends_from_the_top_of_a_climb(step_set):
    # a closed tower over the seed is the only way into columns 1-3: their
    # sites are reached only by descending from the layer the climb topped
    closed = np.zeros((1, 4, 6), dtype=bool)
    closed[0, 0, 1:] = True
    seeds = np.zeros_like(closed)
    seeds[0, 0, 0] = True
    reached = reach_masks(closed, seeds, step_set)
    x, h = np.indices((4, 6))
    np.testing.assert_array_equal(reached[0], x + h <= 5)
    np.testing.assert_array_equal(reached, _oracle_masks(closed, seeds, step_set))


@pytest.mark.parametrize("step_set", list(StepSet))
def test_reach_masks_descends_from_the_highest_layer_a_climb_changed(step_set):
    # the first climb lifts the seed at (1, 3) to (1, 4) while a tower at
    # column 7 keeps climbing up to layer 3: the descent must start at layer
    # 4, not at the layer the last climb reached, to enter (0, 3) and (2, 3)
    closed = np.zeros((1, 9, 6), dtype=bool)
    closed[0, 1, 4] = True
    closed[0, 7, 1:4] = True
    seeds = np.zeros_like(closed)
    seeds[0, 1, 3] = seeds[0, 7, 0] = True
    reached = reach_masks(closed, seeds, step_set)
    assert reached[0, 0, 3] and reached[0, 2, 3] and not reached[0, 1, 5]
    np.testing.assert_array_equal(reached, _oracle_masks(closed, seeds, step_set))


@pytest.mark.parametrize("step_set", list(StepSet))
def test_reach_masks_seeds_in_top_layer_only(step_set):
    # all open: the downward cone of each seed; all closed: every site
    closed = np.zeros((2, 7, 5), dtype=bool)
    closed[1] = True
    seeds = np.zeros_like(closed)
    seeds[:, 3, -1] = True
    reached = reach_masks(closed, seeds, step_set)
    assert reached[1].all()
    x, h = np.indices((7, 5))
    cone = abs(x - 3) <= 4 - h
    if step_set is StepSet.NO_STRAIGHT_DOWN:
        cone &= (x - 3 + h) % 2 == 0
    np.testing.assert_array_equal(reached[0], cone)
    np.testing.assert_array_equal(reached, _oracle_masks(closed, seeds, step_set))


@pytest.mark.parametrize("step_set", list(StepSet))
def test_reach_masks_no_seeds_and_one_layer_boxes(step_set):
    rng = np.random.default_rng(9)
    closed = rng.random((3, 4, 3, 6)) < 0.6
    closed[0] = True
    none = reach_masks(closed, np.zeros_like(closed), step_set)
    assert none.shape == closed.shape and not none.any()
    # a box one layer tall admits no move: the closure is the seeds
    flat = rng.random((3, 4, 3, 1)) < 0.5
    seeds = rng.random(flat.shape) < 0.5
    np.testing.assert_array_equal(reach_masks(flat, seeds, step_set), seeds)
    np.testing.assert_array_equal(reach_masks(~flat, seeds, step_set), seeds)


@pytest.mark.parametrize("d, p", [(2, 0.9), (2, 0.6), (3, 0.8)])
def test_floor_column_runs_read_the_closures_of_bottom_and_sides(d, p):
    """On the hash's own masks, the batched reader, which closes the
    pessimistic side from the rim, reads in every column of the box the
    runs of the closure of the bottom layer (lo) and of the bottom layer
    plus the sides (hi), each computed from nothing but those seeds."""
    box = BoxRegion((-4,) * (d - 1) + (0,), (4,) * (d - 1) + (6,))
    closed = replicate_closed_masks(d, p, 61, range(20), box)
    columns = sorted({s[:-1] for s in box.sites()})
    for step_set in StepSet:
        lo, hi = _floor_column_runs(closed, box, columns, step_set)
        seeds = np.zeros_like(closed)
        seeds[..., 0] = True
        np.testing.assert_array_equal(
            lo, column_runs(reach_masks(closed, seeds, step_set), box, columns))
        _seed_sides(seeds, range(1, d))
        np.testing.assert_array_equal(
            hi, column_runs(reach_masks(closed, seeds, step_set), box, columns))
        assert (hi > lo).any()


def test_sandwich_brackets_truth_under_all_side_extensions():
    """Exhaustive certificate check: for every configuration of the inner box
    and every configuration of a one-column side margin, the true floor reach
    of the widened box, restricted to the inner box, lies between the
    optimistic and pessimistic variants computed from the inner box alone."""
    inner = BoxRegion((-1, 0), (1, 2))
    outer = BoxRegion((-2, 0), (2, 2))
    inner_sites = list(inner.sites())
    margin_sites = [s for s in outer.sites() if not inner.contains(s)]
    outer_bottom = [(x, 0) for x in range(-2, 3)]
    for bits in range(1 << 9):
        inner_config = ExplicitConfig.from_bits(inner, bits)
        opt, pes = (sites(m, inner) for m in floor_reach_sandwich(inner_config, inner))
        for ext_bits in range(1 << 6):
            states = {}
            for s, st in zip(inner_sites, inner_config.states):
                states[s] = st
            for i, s in enumerate(margin_sites):
                states[s] = (ext_bits >> i) & 1
            outer_config = ExplicitConfig(
                outer, tuple(states[s] for s in outer.sites()))
            truth = walk_reach(outer_config, outer_bottom, height_floor=0)
            truth_inner = {s for s in truth if inner.contains(s)}
            assert opt <= truth_inner <= pes


# growth attempt at which each of an item's two columns settles; 9: never
_SETTLE_AT = [(0, 0), (0, 2), (1, 1), (9, 0), (2, 3), (0, 0), (1, 0)]


@pytest.mark.parametrize("columns", [2, 1])
def test_settle_replicates_keeps_settled_entries(columns, monkeypatch):
    """The growth loop on fakes: box i is 2 x (2i + 3) sites, and the first
    box's chunk holds 4 items.  A read settles an entry only in the box of
    its schedule, and says so in no later box, which reads its values
    differently: the entry keeps the settling box's values and status.  A
    row is read again while any of its columns is unsettled, until
    growth_cap; with one column (1-D reads) each item keeps the values of
    the last box it was read in."""
    cap, chunk_sites = 3, 24
    monkeypatch.setattr(REACH, "_CHUNK_SITES", chunk_sites)
    built, hashed = [], []

    def box_at(attempt):
        built.append(attempt)
        return BoxRegion((0, 0), (1, 2 * attempt + 2))

    def closed_at(items, box):
        hashed.append((items.tolist(), box))
        closed = np.zeros((items.size, *box.shape), dtype=np.int64)
        closed[:, 0, 0] = items
        return closed

    def read(closed, box):
        attempt = (box.hi[-1] - 2) // 2
        items = closed[:, 0, 0]
        cols = np.arange(columns)
        lo = 100 * items[:, None] + 10 * attempt + cols
        now = np.array([_SETTLE_AT[i][:columns] for i in items]) == attempt
        if columns == 1:
            return lo[:, 0], lo[:, 0] + 5, now[:, 0]
        return lo, lo + 5, now

    chunks = list(_settle_replicates(len(_SETTLE_AT), [box_at(i) for i in range(cap + 1)],
                                     closed_at, read))
    assert len(chunks) == 2
    lo, hi, settled = (np.concatenate(a) for a in zip(*chunks))
    assert lo.shape == settled.shape == (len(_SETTLE_AT),) + ((2,) if columns == 2 else ())
    for i, at in enumerate(_SETTLE_AT):
        at = at[:columns]
        last = min(max(at), cap)  # the last box the item's row was read in
        want = [100 * i + 10 * (a if a <= cap else last) + c for c, a in enumerate(at)]
        assert np.atleast_1d(lo[i]).tolist() == want, i
        assert np.atleast_1d(hi[i] - lo[i]).tolist() == [5] * columns
        assert np.atleast_1d(settled[i]).tolist() == [a <= cap for a in at]
        assert [box.hi[-1] for reps, box in hashed if i in reps] == [
            2 * a + 2 for a in range(last + 1)], i
    assert max(built) == cap
    assert all(len(reps) * box.size <= max(chunk_sites, box.size)
               for reps, box in hashed)
    assert any(len(reps) > 1 and box != box_at(0) for reps, box in hashed)


def test_estimate_reach_prob_vs_exact_bracket():
    """A Monte Carlo interval for P(origin reaches e_d), sandwiched on hashed
    replicates in growing boxes, must be consistent with the exact
    optimistic/pessimistic probabilities enumerated on a small box (which
    bracket the truth)."""
    d, p, target, replicates = 2, 0.99, (0, 1), 4000
    box = BoxRegion((-1, 0), (1, 2))
    bottom = [(-1, 0), (0, 0), (1, 0)]
    side = [s for s in box.sites() if abs(s[0]) == 1]

    def opt_hit(config):
        return target in walk_reach(config, [(0, 0)])

    def pes_hit(config):
        seeds = {(0, 0), *side}
        seeds.update(s for s in bottom if config.is_closed(s))
        return target in walk_reach(config, seeds)

    exact_lo = exact_event_prob(d, p, box, opt_hit)
    exact_hi = exact_event_prob(d, p, box, pes_hit)
    assert exact_lo <= exact_hi

    def box_at(attempt):
        # boxes span negative heights (paths from the origin may dip below
        # 0) and reach wider than high, so side entries need many climbs
        h = 4 << attempt
        return BoxRegion((-h - 4, -h), (h + 4, h))

    def read(closed, box):
        # optimistic: the origin alone; pessimistic: that reach plus every
        # side site and every closed bottom site (upward entry from below
        # lands only on a closed site)
        seeds = np.zeros_like(closed)
        seeds[(slice(None), *(-c for c in box.lo))] = True
        at_target = (slice(None), *(t - c for t, c in zip(target, box.lo)))
        reached = reach_masks(closed, seeds, StepSet.FULL)
        hit_lo = reached[at_target].copy()
        _seed_sides(reached, range(1, d))
        reached[..., 0] |= closed[..., 0]
        hit_hi = reach_masks(closed, reached, StepSet.FULL)[at_target]
        return hit_lo, hit_hi, hit_lo == hit_hi

    hits_lo = hits_hi = 0
    for lo, hi, _ in _settle_replicates(replicates, [box_at(i) for i in range(4)],
                                        _hash_replicates(d, p, 5), read):
        hits_lo += int(lo.sum())
        hits_hi += int(hi.sum())
    assert hits_lo <= hits_hi <= hits_lo + replicates * 0.01
    # intervals intersect
    assert wilson_interval(hits_lo, replicates)[0] <= exact_hi
    assert exact_lo <= wilson_interval(hits_hi, replicates)[1]


def test_climb_height_needs_closed_sites():
    # each unit of net climb lands an upward step on a distinct closed site
    for bits in range(0, 1 << 9, 7):
        box = BoxRegion((-1, 0), (1, 2))
        config = ExplicitConfig.from_bits(box, bits)
        closed_count = config.states.count(0)
        top = max(s[1] for s in sites(_reach(config, [(0, 0)], box), box))
        assert top <= closed_count


def test_degenerate_sandwich_box_rejected():
    with pytest.raises(ValueError):
        floor_reach_sandwich(ALL_OPEN, BoxRegion((-2, 0), (2, 0)))
    with pytest.raises(ValueError):
        floor_reach_sandwich(ALL_OPEN, BoxRegion((-2, 1), (2, 4)))
