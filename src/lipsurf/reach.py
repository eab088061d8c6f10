"""Admissible-step reachability with two-sided box certificates.

Steps move up (+e_d), straight down (-e_d), or diagonally down
(-e_d +- e_j); an upward step is admissible only when it lands on a closed
site, while every downward or diagonal step is unconditionally allowed.
Reachability inside a finite box is computed by one kernel over boolean
arrays, batched across boxes, that closes any seed masks under admissible
steps; the box bottom is the height floor.  On layers stored batch last,
(H+1, n_1, ..., n_(d-1), B), it alternates layer-by-layer descents, each
from the highest layer changed since the last one, with whole-array
climbs, and stops on a climb that adds nothing.  The hash's masks are
stored in that order, so the kernel reads them without a copy.  The
distinct-sites requirement on paths changes nothing: loop-erasing an
admissible walk keeps every remaining step (and its admissibility), so
walk- and path-reachability agree, as the oracle checks exhaustively on
tiny boxes.

Certification.  Membership is easy to certify (a path found inside the box
is a path, full stop), non-membership is the delicate direction.  For a
reach computation whose true sources live on the floor layer, outside
influence can enter a box three ways:

* horizontally, by a diagonal step through an inner side-boundary site --
  sealed exactly by seeding every side-boundary site in the pessimistic
  variant (the entering step is unconditional, so seeding is the worst
  case, and any entering path continues inside the box from the seed);
* from below, by an upward step into a floor-layer site -- floor layers
  are already sources here, so nothing is lost;
* from above the box top.  No finite computation can seal this direction:
  arbitrarily tall closed towers far away always carry positive
  probability and could feed a descent into any box.  The pessimistic
  variant is therefore exact for the model truncated at the box height,
  and the truncation is driven to irrelevance by box growth: the
  probability that sites above height h matter for a given column decays
  geometrically like (a*q)^h, with a = bounds.step_count the number of
  admissible steps (2d for the full step set).  At the parameters this
  package targets the residual is many orders below Monte Carlo
  resolution, but nothing computes or reports it yet.

Every certificate grows its boxes in _settle_replicates until its two
sides agree; the floor reach doubles the box height (the side margin
tracks the height, since a side seed at height t can influence a column
only down to height t - distance).

The pessimistic seeds closed under down moves, the rim, are the same for
every configuration of a box shape, so they are computed once per shape
(on an all-open box) and the pessimistic closure starts with a climb.
Its reach contains the optimistic one.  So one reader of column runs
serves f_tail (the origin column) and build_surface (every base column):
it closes the pessimistic side first, and the optimistic side only in the
boxes where some pessimistic run is positive; elsewhere every run is 0.
That reader and the climb sets (surface._climb_masks) seed the kernel's
layers themselves and call _close directly; reach_masks, with its checks,
seed copy and seed scan, serves the public entry points, reach and
floor_reach_sandwich, whose floor is the box bottom too.  Constants of a
shape are computed once and cached read-only, keyed by shape, box or
columns and never by seed or replicate: the rim and the index of a list
of columns (here), the hash's coordinate operands (lattice), the cover
reader's distance grid and rim mask, and the box of each growth attempt
(surface).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import BoxRegion, Column, Field, Site, replicate_closed_masks


class StepSet(Enum):
    FULL = "full"
    NO_STRAIGHT_DOWN = "no-straight-down"


@dataclass(frozen=True, eq=False)
class ReachResult:
    """Sites of a box reachable from a source set by admissible steps.

    mask is shaped like the box (BoxRegion.shape, height last) and marks
    the reached sites; reached is the same set as site tuples, built on
    first read.
    """

    mask: np.ndarray
    box: BoxRegion

    @functools.cached_property
    def reached(self) -> frozenset[Site]:
        sites = np.argwhere(self.mask) + self.box.lo
        return frozenset(map(tuple, sites.tolist()))


@dataclass(frozen=True)
class ReachSandwich:
    """Optimistic and pessimistic floor reaches over one box.

    optimistic.reached is a guaranteed subset of the true floor-reachable
    set within the box; pessimistic.reached is a superset of it for the
    height-truncated model (see the module docstring for the one direction
    finite computation cannot close).
    """

    optimistic: ReachResult
    pessimistic: ReachResult


def _close(reached: np.ndarray, closed: np.ndarray, step_set: StepSet,
           top: int) -> None:
    """Expand reached in place to its closure under admissible steps.

    Both arrays are layers first and batch last: [t] holds height t of
    every box, shape (n_1, ..., n_(d-1), B), so a column shift moves whole
    rows of B.  Descents OR the down moves (clipped at the box sides) into
    the layer below, layer by layer from the highest layer changed since
    the last descent; a layer's moves are built when first needed.
    Whole-array climbs, an up move onto closed sites at every layer at
    once, then repeat until one adds nothing; a round whose first climb
    adds nothing ends the closure.  The closure is the least fixed point
    of monotone moves, so their order does not change it.  The height
    floor is the bottom layer.

    top is the layer the first descent starts from: the highest seeded
    layer, or 0 when the seeds are already closed under down moves (the
    rim of _rim, alone or joined with the optimistic reach), so that the
    closure starts with a climb.
    """
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


def _seed_sides(mask: np.ndarray, axes) -> None:
    """Seed the inner side boundary: both end slices of each column axis."""
    for axis in axes:
        lead = (slice(None),) * axis
        mask[lead + (0,)] = True
        mask[lead + (-1,)] = True


@functools.lru_cache(maxsize=256)
def _rim(layers: tuple[int, ...], step_set: StepSet) -> np.ndarray:
    """The floor and the inner side boundary of a box whose layers have
    shape layers, (H+1, n_1, ..., n_(d-1)), closed under down moves: the
    closure of those seeds in an all-open box, where no up move is
    admissible.  Read-only, shaped (*layers, 1) to broadcast over a batch."""
    rim = np.zeros((*layers, 1), dtype=bool)
    rim[0] = True
    _seed_sides(rim, range(1, len(layers)))
    _close(rim, np.zeros_like(rim), step_set, layers[0] - 1)
    rim.flags.writeable = False
    return rim


def _swap(ndim: int) -> tuple[int, ...]:
    """The axis order that turns a batch (B, n_1, ..., n_(d-1), H+1) into
    the kernel's layers (H+1, n_1, ..., n_(d-1), B); its own inverse."""
    return (ndim - 1, *range(1, ndim - 1), 0)


def reach_masks(closed: np.ndarray, seeds: np.ndarray,
                step_set: StepSet = StepSet.FULL) -> np.ndarray:
    """Sites of a batch of boxes reachable from seed masks by admissible
    steps that stay inside each box.

    closed and seeds have shape (B, n_1, ..., n_(d-1), H+1): B boxes of
    one shape, column axes first and height last, as BoxRegion.shape orders
    them; the bottom layer is the height floor.
    Returns the closure of the seeds as a boolean array of that shape.
    """
    if closed.shape != seeds.shape or closed.ndim < 3:
        raise ValueError(f"need closed and seed masks of one batch shape, "
                         f"got {closed.shape} and {seeds.shape}")
    swap = _swap(closed.ndim)
    lids = np.ascontiguousarray(closed.transpose(swap), dtype=bool)
    reached = seeds.transpose(swap).astype(bool, order="C")
    seeded = np.logical_or.reduce(reached, axis=tuple(range(1, reached.ndim)))
    top = seeded.nonzero()[0]
    _close(reached, lids, step_set, int(top[-1]) if top.size else 0)
    return reached.transpose(swap)


def reach(field: Field, sources, box: BoxRegion) -> ReachResult:
    """All sites of the box connected to the sources by admissible steps of
    the full step set staying inside the box (reach_masks takes either step
    set); the box bottom is the height floor.

    Order-free: the result depends only on the source *set*.  Walks and
    distinct-site paths reach the same sites (loop erasure), so the
    closure reach_masks computes is exact.
    """
    d = field.d
    if box.dim != d:
        raise ValueError(f"box of dimension {box.dim} for a {d}-d field")
    seeds = np.zeros((1, *box.shape), dtype=bool)
    for s in frozenset(tuple(s) for s in sources):
        if len(s) != d:
            raise ValueError(f"source {s} has wrong dimension")
        if not box.contains(s):
            raise ValueError(f"source {s} outside box lo={box.lo} hi={box.hi}")
        seeds[(0, *(c - a for c, a in zip(s, box.lo)))] = True
    closed = field.closed_mask(box)[None]
    return ReachResult(reach_masks(closed, seeds)[0], box)


def floor_reach_sandwich(field: Field, box: BoxRegion,
                         step_set: StepSet = StepSet.FULL) -> ReachSandwich:
    """Two-sided computation of the set reachable from the height-0 layer.

    The box must span heights [0, h_max] with h_max >= 1.  The optimistic
    variant seeds the full height-0 layer of the box; the pessimistic
    variant additionally seeds every inner side-boundary site (worst-case
    horizontal entry).  For every configuration outside the box sides, the
    true reachable set of the height-truncated model, intersected with the
    box, lies between the two.  Computed by reach_masks on a batch of one
    box.
    """
    if box.lo[-1] != 0:
        raise ValueError("box must have its bottom layer at height 0")
    if box.hi[-1] < 1:
        raise ValueError(f"degenerate box: top height {box.hi[-1]} < 1")
    closed = field.closed_mask(box)[None]
    seeds = np.zeros(closed.shape, dtype=bool)
    seeds[..., 0] = True
    opt = reach_masks(closed, seeds, step_set)
    _seed_sides(seeds, range(1, box.dim))
    pes = reach_masks(closed, seeds, step_set)
    return ReachSandwich(ReachResult(opt[0], box), ReachResult(pes[0], box))


def column_runs(reached: np.ndarray, box: BoxRegion, columns) -> np.ndarray:
    """Runs of a batch of reaches over one box (shape (B, *box.shape), height
    last) in a list of columns: entry [b, i] is the largest m with
    (columns[i], 1..m) all reached in box b, 0 when (columns[i], 1) is not.
    Returns an integer array of shape (B, len(columns))."""
    return _runs(reached, _column_index(box, tuple(map(tuple, columns))))


@functools.lru_cache(maxsize=256)
def _column_index(box: BoxRegion, columns: tuple[Column, ...]) -> tuple:
    """The index of a tuple of columns, each of box.dim - 1 coordinates and
    inside the box, into a batch of masks over the box, keeping the batch and
    the heights 1 and up; a ValueError names a column that is neither.
    Cached with its index arrays read-only, once per box and columns."""
    k = box.dim - 1
    try:  # one numpy pass, not a Python loop, over a long list of columns
        cols = np.array(columns)
    except ValueError:  # columns of unequal lengths
        cols = None
    if columns and (cols is None or cols.shape != (len(columns), k)
                    or cols.dtype.kind not in "iu"):
        bad = next((c for c in columns if np.shape(c) != (k,)
                    or not all(isinstance(x, (int, np.integer)) for x in c)), columns[0])
        raise ValueError(f"column {bad!r} does not have d - 1 = {k} integer coordinates")
    at = cols.reshape(-1, k) - box.lo[:-1]
    # an index would wrap round or fail unnamed
    outside = ((at < 0) | (at > np.subtract(box.hi, box.lo)[:-1])).any(axis=1).nonzero()[0]
    if outside.size:
        c = tuple(cols[outside[0]].tolist())
        raise ValueError(f"column {c} outside box lo={box.lo} hi={box.hi}")
    at = at.astype(np.intp)
    at.flags.writeable = False
    if len(at) == 1:  # a view is cheaper than a gather of one column
        return (slice(None), *at[0].tolist(), None, slice(1, None))
    return (slice(None), *at.T, slice(1, None))


def _runs(reached: np.ndarray, index: tuple) -> np.ndarray:
    """column_runs of a batch of reaches at an index from _column_index."""
    col = reached[index]
    return np.logical_and.accumulate(col, axis=-1).sum(axis=-1)


def _floor_column_runs(closed: np.ndarray, box: BoxRegion, columns,
                       step_set: StepSet) -> tuple[np.ndarray, np.ndarray]:
    """column_runs of both sides of the floor sandwich of a batch of closed
    masks over one box (floor_reach_sandwich's seeds) in a list of columns,
    as integer arrays (lo, hi) of shape (B, len(columns)).  The pessimistic
    side closes from the rim in every box.  The optimistic side lies inside
    it, so its runs are 0 in a box where every pessimistic run is 0, and it
    closes only in the other boxes."""
    index = _column_index(box, tuple(map(tuple, columns)))
    swap = _swap(closed.ndim)
    # no copy for the hash's masks, which lie in memory as the layers do
    lids = np.ascontiguousarray(closed.transpose(swap), dtype=bool)
    pes = np.empty_like(lids)
    pes[...] = _rim(lids.shape[:-1], step_set)
    _close(pes, lids, step_set, 0)
    hi = _runs(pes.transpose(swap), index)
    # np.zeros, not zeros_like: a few us less per call on f_tail's chunks
    lo = np.zeros(hi.shape, hi.dtype)
    live = hi.max(axis=1).nonzero()[0]
    if live.size:
        lids = np.take(lids, live, axis=-1)
        opt = np.zeros(lids.shape, bool)
        opt[0] = True
        _close(opt, lids, step_set, 0)
        lo[live] = _runs(opt.transpose(swap), index)
    return lo, hi


@dataclass(frozen=True)
class Budget:
    """Box-growth policy: initial margin and height, and how many doublings."""

    margin: int = 6
    height: int = 8
    growth_cap: int = 3

    def __post_init__(self):
        if self.margin < 1 or self.height < 1 or self.growth_cap < 0:
            raise ValueError("budget fields must be positive (growth_cap >= 0)")


# sites hashed and swept per piece of replicates: keeps a piece's arrays to
# a few MB whatever the box size, in the first box and in every grown one
# (about 1000 replicates of f_tail's default d=2 box, about 35 at d=3)
_CHUNK_SITES = 1 << 18


def _hash_replicates(d: int, p: float, master_seed: int):
    """Replicates of PercolationField(d, p, master_seed) as the closed_at of
    _settle_replicates; replicate_closed_masks is looked up at each call."""
    return lambda reps, box: replicate_closed_masks(d, p, master_seed, reps, box)


def _settle_replicates(count: int, growth_cap: int, box_at, closed_at, read):
    """Grow boxes over items 0..count-1 until each one settles.

    box_at(i) is the box of growth attempt i (attempt 0 is the first box);
    closed_at(items, box) hashes an index array of items in a box, shaped
    (len(items), *box.shape); read(closed, box) returns arrays (lo, hi,
    settled), shaped (B,) or (B, columns): a statistic's certified lower
    and upper values, and whether the box settles them.  Per chunk of
    items, one pass hashes and reads every item in the first box; each
    further attempt, up to growth_cap, hashes only the items with an
    unsettled entry, in pieces of at most _CHUNK_SITES sites.  An entry
    keeps the values of the box that settled it, or else of the last box
    it was read in.  Yields (lo, hi, settled) per chunk.
    """
    first = box_at(0)
    chunk = max(1, _CHUNK_SITES // first.size)
    for start in range(0, count, chunk):
        items = np.arange(start, min(start + chunk, count))
        lo, hi, settled = read(closed_at(items, first), first)
        for attempt in range(1, growth_cap + 1):
            if settled.all():  # the usual chunk settles in its first box
                break
            pending = np.flatnonzero(~settled.reshape(items.size, -1).all(axis=1))
            box = box_at(attempt)
            piece = max(1, _CHUNK_SITES // box.size)
            for i in range(0, pending.size, piece):
                idx = pending[i:i + piece]
                now_lo, now_hi, now = read(closed_at(items[idx], box), box)
                was = settled[idx]
                lo[idx] = np.where(was, lo[idx], now_lo)
                hi[idx] = np.where(was, hi[idx], now_hi)
                settled[idx] = was | now
        yield lo, hi, settled
