"""Admissible-step reachability with two-sided box certificates.

Steps move up (+e_d), straight down (-e_d), or diagonally down
(-e_d +- e_j); an upward step is admissible only when it lands on a closed
site, while every downward or diagonal step is unconditionally allowed.
Reachability inside a finite box is computed by one kernel, batched across
boxes, that closes any seed masks under admissible steps; the box bottom is
the height floor.  It works on packed layers: height layer t of a batch of
B boxes is one Python int, whose bit i is the C-order index i over
(n_1, ..., n_(d-1), B).  That is the order the hash's masks lie in memory
(height first, batch last), so packing a chunk is one packbits call with no
transpose, and every move is one interpreter operation on a whole layer:
a down move is a shift by a column axis' stride under one of that axis'
two edge masks (cached per shape), an up move an AND with the next layer's
closed sites.  A descent from the highest layer changed closes every layer
under down moves, one upward sweep then climbs whole chains, and the two
repeat until a sweep adds nothing.  The distinct-sites requirement on paths
changes nothing: loop-erasing an admissible walk keeps every remaining step
(and its admissibility), so walk- and path-reachability agree, as the
oracle checks exhaustively on tiny boxes.

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
sides agree, walking a tuple of boxes that surface builds whole.  The two
one-column readers of replicates, f_tail's floor read and the cover read,
put an exact screen, a table of reads, ahead of the first box
(surface._floor_screen and _cover_screen give the arguments), which
_settle_replicates applies through the same hash as its boxes.  The
floor reach doubles the box height h and pads the columns by h + margin,
with the margin fixed (surface._floor_boxes).  So in every box, whatever
the attempt, the rim below reaches the columns at distance margin + t from
the columns read at height t: a taller box does not keep the sides further
away.  ROADMAP item 11 records what that does to growth.

The pessimistic seeds closed under down moves, the rim, are the same for
every configuration of a batch shape, so they are computed once per shape
(on all-open boxes) and cached as packed ints, and the pessimistic closure
starts with a sweep.  Its reach contains the optimistic one.  One reader
of column runs serves f_tail (the origin column) and build_surface (every
base column): it packs a batch's lids once, closes the pessimistic side,
and closes the optimistic side on the same lids unless every pessimistic
run is 0.  It reads runs off the packed layers, gathering only the
requested columns' bits.  That reader and the climb sets (_climb_masks)
seed the packed layers themselves and call _close directly.  The public
face is boolean masks alone: reach_masks, with its checks and seed scan,
closes any seed masks, and floor_reach_sandwich gives the two sides of one
box's floor reach as masks shaped like the box; both floor at the box
bottom and unpack once, at the end, as the climb sets do.  Constants of a
shape are computed once and cached read-only, keyed by shape, box or
columns and never by seed or replicate: the rim, the edge masks and the
index spans of a list of columns (here), the hash's operands of a box
or a tuple of sites (lattice), the cover reader's distance grid and rim
mask, each growth schedule's boxes and each screen's sites and table
(surface).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import (BoxRegion, Column, Field, replicate_closed_masks,
                      replicate_closed_sites)


class StepSet(Enum):
    FULL = "full"
    NO_STRAIGHT_DOWN = "no-straight-down"


def _pack(layers: np.ndarray) -> list[int]:
    """Boolean layers (H+1, n_1, ..., n_(d-1), B) as one int per layer, whose
    bit i is the C-order index i over (n_1, ..., n_(d-1), B): one packbits
    call, with no copy for the hash's masks, which lie in memory as the
    layers do."""
    packed = np.packbits(layers.reshape(len(layers), math.prod(layers.shape[1:])),
                         axis=-1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[t * width:(t + 1) * width], "little")
            for t in range(len(layers))]


def _unpack(layers: list[int], shape: tuple[int, ...]) -> np.ndarray:
    """The boolean layers of shape (H+1, n_1, ..., n_(d-1), B) that _pack
    packed into layers."""
    sites = math.prod(shape[1:])
    width = (sites + 7) >> 3
    raw = b"".join(x.to_bytes(width, "little") for x in layers)
    packed = np.frombuffer(raw, np.uint8).reshape(len(layers), width)
    bits = np.unpackbits(packed, axis=-1, count=sites, bitorder="little")
    return bits.view(bool).reshape(shape)


@functools.lru_cache(maxsize=256)
def _moves(shape: tuple[int, ...], step_set: StepSet) -> tuple:
    """The down moves of packed layers of shape (n_1, ..., n_(d-1), B):
    whether straight down is a step, and per column axis its stride in bits
    with two edge masks, of the sites not first and not last on that axis
    (both empty on an axis of length 1)."""
    axes = []
    for axis, n in enumerate(shape[:-1]):
        at = np.arange(n).reshape(-1, *(1,) * (len(shape) - axis - 1))
        edges = (np.broadcast_to(m, shape)[None] for m in (at > 0, at < n - 1))
        axes.append((math.prod(shape[axis + 1:]), *(_pack(m)[0] for m in edges)))
    return step_set is StepSet.FULL, tuple(axes)


def _close(reached: list[int], lids: list[int], moves: tuple, top: int) -> None:
    """Expand packed layers in place to their closure under admissible steps.

    reached and lids hold one int per height layer, as _pack lays them out,
    and moves are _moves' for their shape.  A down move out of layer t is a
    shift by an axis stride under one of that axis' edge masks, ORed into
    layer t - 1; an up move is reached[t] & lids[t + 1].  A descent runs
    from layer top down to the floor, which closes every layer under down
    moves; then one upward sweep climbs whole chains, layer after layer.
    The two repeat, each descent from the highest layer the sweep changed,
    until a sweep adds nothing.  The closure is the least fixed point of
    monotone moves, so their order does not change it.  The height floor is
    layer 0.

    top is the highest seeded layer, or 0 when the seeds are already closed
    under down moves (the rim of _rim, or a floor seed), so that the
    closure starts with a sweep.
    """
    straight, axes = moves
    changed = top
    while True:
        for t in range(changed, 0, -1):
            x = reached[t]
            down = x if straight else 0
            for stride, not_first, not_last in axes:
                down |= (x << stride) & not_first | (x >> stride) & not_last
            reached[t - 1] |= down
        changed = 0
        below = reached[0]
        for t in range(1, len(reached)):
            x = reached[t]
            up = below & lids[t]
            if up:
                new = x | up
                if new != x:
                    reached[t] = x = new
                    changed = t
            below = x
        if not changed:
            return


def _seed_sides(mask: np.ndarray, axes) -> None:
    """Seed the inner side boundary: both end slices of each column axis."""
    for axis in axes:
        lead = (slice(None),) * axis
        mask[lead + (0,)] = True
        mask[lead + (-1,)] = True


@functools.lru_cache(maxsize=256)
def _rim(shape: tuple[int, ...], step_set: StepSet) -> tuple[int, ...]:
    """The floor and the inner side boundary of a batch of boxes whose
    layers have shape (H+1, n_1, ..., n_(d-1), B), closed under down moves:
    the closure of those seeds in all-open boxes, where no up move is
    admissible.  Packed, one int per layer, in a tuple, so read-only."""
    seeds = np.zeros(shape, dtype=bool)
    seeds[0] = True
    _seed_sides(seeds, range(1, len(shape) - 1))
    rim = _pack(seeds)
    _close(rim, [0] * len(rim), _moves(shape[1:], step_set), len(rim) - 1)
    return tuple(rim)


def _swap(ndim: int) -> tuple[int, ...]:
    """The axis order that turns a batch (B, n_1, ..., n_(d-1), H+1) into
    the kernel's layers (H+1, n_1, ..., n_(d-1), B); its own inverse."""
    return (ndim - 1, *range(1, ndim - 1), 0)


def _packed_lids(closed: np.ndarray, step_set: StepSet):
    """A batch of closed masks (B, n_1, ..., n_(d-1), H+1) as the kernel
    reads it: the packed lids, the layers' shape (H+1, n_1, ..., n_(d-1), B)
    and the moves of that shape."""
    layers = closed.transpose(_swap(closed.ndim))
    shape = layers.shape
    # no up move lands on the floor, so its lids stay unpacked
    return [0, *_pack(layers[1:])], shape, _moves(shape[1:], step_set)


def reach_masks(closed: np.ndarray, seeds: np.ndarray,
                step_set: StepSet = StepSet.FULL) -> np.ndarray:
    """Sites of a batch of boxes reachable from seed masks by admissible
    steps that stay inside each box.

    closed and seeds have shape (B, n_1, ..., n_(d-1), H+1): B boxes of
    one shape, column axes first and height last, as BoxRegion.shape orders
    them; the bottom layer is the height floor.
    Returns the closure of the seeds as a boolean array of that shape.

    Order-free: the result depends only on the seed set.  Walks and
    distinct-site paths reach the same sites (loop erasure), so the closure
    is exact for paths too.
    """
    if closed.shape != seeds.shape or closed.ndim < 3:
        raise ValueError(f"need closed and seed masks of one batch shape, "
                         f"got {closed.shape} and {seeds.shape}")
    swap = _swap(closed.ndim)
    lids, shape, moves = _packed_lids(closed, step_set)
    reached = _pack(seeds.transpose(swap))
    top = max((t for t, x in enumerate(reached) if x), default=0)
    _close(reached, lids, moves, top)
    return _unpack(reached, shape).transpose(swap)


def floor_reach_sandwich(field: Field, box: BoxRegion,
                         step_set: StepSet = StepSet.FULL) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided computation of the set reachable from the height-0 layer.

    The box must span heights [0, h_max] with h_max >= 1.  The optimistic
    variant seeds the full height-0 layer of the box; the pessimistic
    variant additionally seeds every inner side-boundary site (worst-case
    horizontal entry).  For every configuration outside the box sides, the
    true reachable set of the height-truncated model, intersected with the
    box, lies between the two.  Returns (optimistic, pessimistic), boolean
    masks shaped like the box (BoxRegion.shape, height last), computed by
    reach_masks on a batch of one box.
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
    return opt[0], pes[0]


@functools.lru_cache(maxsize=256)
def _column_spans(box: BoxRegion, columns: tuple[Column, ...]) -> tuple:
    """How _runs gathers a tuple of columns inside the box, each of
    box.dim - 1 integer coordinates (build_surface checks its base), out of
    a packed layer over the box: per run of consecutive C-order column
    indices, its first index, its length and the place it takes among the
    columns.  A column outside the box fails in ravel_multi_index rather
    than wrap round.  Cached once per box and columns, whatever the batch."""
    at = np.array(columns).reshape(-1, box.dim - 1) - box.lo[:-1]
    flat = np.ravel_multi_index(tuple(at.astype(np.intp).T), box.shape[:-1])
    cuts = [0, *(np.flatnonzero(np.diff(flat) != 1) + 1).tolist(), len(flat)]
    return tuple((int(flat[i]), j - i, i) for i, j in zip(cuts, cuts[1:]))


def _runs(layers: list[int], spans: tuple, shape: tuple[int, ...], count: int) -> np.ndarray:
    """Runs of packed layers of shape (H+1, n_1, ..., n_(d-1), B) in count
    columns whose _column_spans are spans, as an integer array of shape
    (B, count): entry [b, i] is the largest m with (columns[i], 1..m) all
    reached in box b, 0 when (columns[i], 1) is not.  Gathers only the
    columns' bits, B per column, prefix-ANDs them from layer 1 up and stops
    at the first empty layer."""
    batch = shape[-1]
    bits = [(first * batch, (1 << length * batch) - 1, place * batch)
            for first, length, place in spans]
    runs, run = [], -1
    for x in layers[1:]:
        cols = 0
        for shift, mask, place in bits:
            cols |= (x >> shift & mask) << place
        run &= cols
        if not run:
            break
        runs.append(run)
    return _unpack(runs, (len(runs), count, batch)).sum(axis=0, dtype=np.intp).T


def _floor_column_runs(closed: np.ndarray, box: BoxRegion, columns,
                       step_set: StepSet) -> tuple[np.ndarray, np.ndarray]:
    """The runs, as _runs reads them, of both sides of the floor sandwich of
    a batch of closed masks over one box (floor_reach_sandwich's seeds) in a
    list of columns, as integer arrays (lo, hi) of shape (B, len(columns)).
    The pessimistic side closes from the rim.  The optimistic side lies
    inside it, so its runs are all 0 where every pessimistic run is;
    otherwise it closes from the floor on the same packed lids."""
    lids, shape, moves = _packed_lids(closed, step_set)
    spans = _column_spans(box, tuple(map(tuple, columns)))
    pes = list(_rim(shape, step_set))
    _close(pes, lids, moves, 0)
    hi = _runs(pes, spans, shape, len(columns))
    if not hi.any():
        # np.zeros, not zeros_like: a few us less per call on f_tail's chunks
        return np.zeros(hi.shape, hi.dtype), hi
    opt = [(1 << math.prod(shape[1:])) - 1] + [0] * (len(lids) - 1)
    _close(opt, lids, moves, 0)
    return _runs(opt, spans, shape, len(columns)), hi


def _climb_masks(closed: np.ndarray, box: BoxRegion, x) -> np.ndarray:
    """Climb sets of the column x in a batch of closed masks (B, *box.shape)
    over one box whose bottom is height 0: the reach from (x, 0), unpacked
    to boolean layers (H+1, n_1, ..., n_(d-1), B)."""
    lids, shape, moves = _packed_lids(closed, StepSet.FULL)
    reached = [0] * len(lids)
    at = np.ravel_multi_index([c - a for c, a in zip(x, box.lo)], shape[1:-1])
    reached[0] = ((1 << shape[-1]) - 1) << shape[-1] * int(at)
    _close(reached, lids, moves, 0)  # a floor seed: nothing to descend
    return _unpack(reached, shape)


class ConfigError(ValueError):
    """Invalid experiment description; the message quotes each offending
    field.  Arguments alternate field and problem: ConfigError("d", "...").
    Here, below harness, as surface's box schedules name growth_cap too."""

    def __init__(self, *fields_and_problems: str):
        pairs = zip(fields_and_problems[::2], fields_and_problems[1::2])
        super().__init__("; ".join(f"config field '{f}': {why}" for f, why in pairs))


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
# (about 1500 replicates of f_tail's default first box, 175 sites at d=2,
# and about 60 of its 4375 at d=3)
_CHUNK_SITES = 1 << 18


def _hash_replicates(d: int, p: float, master_seed: int):
    """Replicates of PercolationField(d, p, master_seed) as the closed_at of
    _settle_replicates, of a box (replicate_closed_masks) or a tuple of
    sites (replicate_closed_sites), each looked up at each call."""
    def closed_at(reps, box):
        if isinstance(box, BoxRegion):
            return replicate_closed_masks(d, p, master_seed, reps, box)
        return replicate_closed_sites(d, p, master_seed, reps, box)
    return closed_at


def _settle_replicates(count: int, boxes, closed_at, read, screen=None):
    """Grow boxes over items 0..count-1 until each one settles.

    boxes holds the box of each growth attempt, the first box first;
    closed_at(items, box) hashes an index array of items in a box, shaped
    (len(items), *box.shape); read(closed, box) returns arrays (lo, hi,
    settled), shaped (B,) or (B, columns): a statistic's certified lower
    and upper values, and whether the box settles them.  Per chunk of
    items, one pass hashes and reads every item in the first box; each
    further box, in turn, hashes only the items with an unsettled entry,
    in pieces of at most _CHUNK_SITES sites.  An entry keeps the values of
    the box that settled it, or else of the last box it was read in.
    Yields (lo, hi, settled) per chunk.

    screen, if given, is an exact attempt ahead of the first box, a table
    of reads: screen(box) returns a tuple of sites of the first box, a test
    and arrays (lo, hi, settled) with one row per outcome of the test, each
    the box's own read of a synthetic batch of one but the last.  Each
    chunk's items are hashed at the sites alone, closed_at(items, sites),
    shaped (len(sites), len(items)), and the test maps those bits to each
    item's row.  An item of the last row is hashed and read in the first
    box, as without a screen; every other item takes its row's read.
    """
    first, *grown = boxes
    chunk = max(1, _CHUNK_SITES // first.size)
    if screen is not None:
        sites, test, *table = screen(first)
        last = len(table[0]) - 1
    for start in range(0, count, chunk):
        items = np.arange(start, min(start + chunk, count))
        if screen is None:
            lo, hi, settled = read(closed_at(items, first), first)
        else:
            rows = test(closed_at(items, sites))
            lo, hi, settled = (v.take(rows, axis=0) for v in table)
            through = np.flatnonzero(rows == last)
            if through.size:
                closed = closed_at(items[through], first)
                lo[through], hi[through], settled[through] = read(closed, first)
        for box in grown:
            if settled.all():  # the usual chunk settles in its first box
                break
            pending = np.flatnonzero(~settled.reshape(items.size, -1).all(axis=1))
            piece = max(1, _CHUNK_SITES // box.size)
            for i in range(0, pending.size, piece):
                idx = pending[i:i + piece]
                now_lo, now_hi, now = read(closed_at(items[idx], box), box)
                was = settled[idx]
                lo[idx] = np.where(was, lo[idx], now_lo)
                hi[idx] = np.where(was, hi[idx], now_hi)
                settled[idx] = was | now
        yield lo, hi, settled
