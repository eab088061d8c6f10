"""Open Lipschitz surfaces and minimal local covers.

Two constructions of a random surface F: Z^(d-1) -> {1, 2, ...} whose
sites (x, F(x)) are open and whose increments between 1-norm neighbours
are at most 1:

* build_surface puts each column's value one above the column's run in
  the floor-reachable set (the set of sites reachable by admissible
  steps from the height-0 layer);
* surface_from_covers takes, over a finite window of centers y, the
  supremum height of the climb set of y seen in the column, plus one.
  With an unbounded window the two agree; a finite window gives a
  certified lower bound of the first construction and is labelled as such.

The climb set of a column x is the set of endpoints of admissible paths
from (x, 0) that never go below height 0.  Its certificate is exact: paths
start inside the box, so if the in-box reach never touches the inner side
or top boundary no path can leave, and the computed set is the whole truth
for every configuration outside.  The minimal local cover of x sits one
site above the climb set; its radius always equals the climb set's spread
radius plus one.

Certification statuses are first-class: a column or cover that the growth
budget cannot pin down is reported Unresolved, with the values computed so
far kept as certified lower bounds.

The Monte Carlo tails read one column of many replicates, and screen each
replicate before its first box with a table of reads: a test of a few
sites maps the replicate to a row, which is either the read the first box
would give it, worked out once on a synthetic box, or the row that hashes
and reads it there.  With phi(y, t) = t - |y - x|_1, every seed of a
floor reach over the column x has phi <= 0 and only an up step, onto a
closed site, raises phi: so x's run is positive only if (x, 1) is closed,
or some site (y, |y - x|_1 + 1) and some site (y, |y - x|_1) at heights
1..H of the box are (_floor_screen); its other replicates take the read
of an all-open box.  A climb from (x, 0) leaves it only through (x, 1),
and with (x, 1) closed it goes one step further only through (x, 2) or
some (x +- e_j, 1) (_cover_screen): its table holds the read of an
all-open box and of a box whose only closed site is (x, 1).  The
multi-column and single-field readers read their first box whole
(_surface_runs says why).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import BoxRegion, Column, Field, Site
from .reach import (Budget, ConfigError, StepSet, _climb_masks, _floor_column_runs,
                    _seed_sides, _settle_replicates)


class Cert(Enum):
    CERTIFIED = "certified"
    UNRESOLVED = "unresolved"


# default growth policy of climb sets and minimal covers
COVER_BUDGET = Budget(margin=4, height=4, growth_cap=5)


@dataclass(frozen=True)
class SurfacePatch:
    """Surface values over a finite set of columns, with per-column status.

    values[x] is exact where status[x] is CERTIFIED; elsewhere it is the
    best certified lower bound the budget produced.  method records which
    construction (and window, for the cover route) produced the patch.
    """

    columns: tuple[Column, ...]
    values: dict[Column, int]
    status: dict[Column, Cert]
    method: str

    def certified_columns(self) -> list[Column]:
        return [c for c in self.columns if self.status[c] is Cert.CERTIFIED]

    def certified_fraction(self) -> float:
        if not self.columns:
            return 1.0
        return len(self.certified_columns()) / len(self.columns)

    def to_json(self) -> dict:
        return {
            "columns": [list(c) for c in self.columns],
            "values": [self.values[c] for c in self.columns],
            "status": [self.status[c].value for c in self.columns],
            "method": self.method,
        }


@dataclass(frozen=True)
class LocalCoverResult:
    """Minimal local cover of a center column plus its two radii.

    entries maps columns to their positive cover heights; columns absent
    from entries carry height 0.  When certified is False the cover may
    extend beyond what was computed, and spread_radius / cover_radius are
    certified lower bounds rather than exact values.
    """

    center: Column
    entries: dict[Column, int]
    certified: bool
    spread_radius: int
    cover_radius: int

    def to_json(self) -> dict:
        cols = sorted(self.entries)
        return {
            "center": list(self.center),
            "columns": [list(c) for c in cols],
            "values": [self.entries[c] for c in cols],
            "status": "certified-finite" if self.certified else "unresolved",
            "spread_radius": self.spread_radius,
            "cover_radius": self.cover_radius,
        }


# the most sites a growth schedule's last box may hold: 128 MiB of uint64
# uniforms per replicate hashed in it
_MAX_BOX_SITES = 1 << 24


def _schedule(box_at, growth_cap: int) -> tuple[BoxRegion, ...]:
    """The boxes box_at(i) of attempts 0..growth_cap, once the last one is
    known to hold at most _MAX_BOX_SITES sites: a larger cap stops here,
    naming growth_cap, before any box is hashed or the others are built.
    A box of attempt 24 or later is at least 2**24 + 1 layers high, so such
    a cap stops before its box is worked out."""
    if (growth_cap >= _MAX_BOX_SITES.bit_length() - 1
            or box_at(growth_cap).size > _MAX_BOX_SITES):
        raise ConfigError("growth_cap", f"{growth_cap} grows the last box past "
                          f"{_MAX_BOX_SITES} sites (2**24), over the limit")
    return tuple(box_at(i) for i in range(growth_cap + 1))


@functools.lru_cache(maxsize=256)
def _floor_boxes(lo: Column, hi: Column, budget: Budget) -> tuple[BoxRegion, ...]:
    """The boxes of the floor reach over the columns lo..hi, one per growth
    attempt 0..budget.growth_cap: attempt i spans heights 0..h, h =
    height*2^i, and pads the columns by h + margin, with the margin fixed.
    So in every attempt the rim below reaches the columns at distance
    margin + t from those read at height t: a taller box does not keep
    worst-case side entries further away (ROADMAP item 11)."""
    def box_at(i):
        h = budget.height << i
        return BoxRegion((*(c - h - budget.margin for c in lo), 0),
                         (*(c + h + budget.margin for c in hi), h))
    return _schedule(box_at, budget.growth_cap)


@functools.lru_cache(maxsize=256)
def _climb_boxes(x: Column, budget: Budget) -> tuple[BoxRegion, ...]:
    """The boxes of the climb set of x, one per growth attempt
    0..budget.growth_cap: attempt i pads x by margin*2^i on every side and
    spans heights 0..height*2^i."""
    return _schedule(lambda i: BoxRegion((*(c - (budget.margin << i) for c in x), 0),
                                         (*(c + (budget.margin << i) for c in x),
                                          budget.height << i)),
                     budget.growth_cap)


def _read_only(*values):
    """values, each array among them made read-only, as a tuple."""
    for v in values:
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return values


def _floor_read(closed: np.ndarray, box: BoxRegion, cols, step_set: StepSet):
    """The floor reader's read of a batch of closed masks over one box:
    the kernel's runs of each column in the optimistic and pessimistic
    floor reach, and whether the two agree strictly below the box top."""
    lo, hi = _floor_column_runs(closed, box, cols, step_set)
    return lo, hi, (lo == hi) & (hi < box.hi[-1] - 1)


@functools.lru_cache(maxsize=256)
def _floor_screen(box: BoxRegion, x: Column, step_set: StepSet) -> tuple:
    """The screen of a floor read of the one column x in the box: its
    sites, the test of their closed bits, and a table of two reads, of an
    all-open box, which every replicate the test stops gets, and the row
    of the replicates it lets through to the box (_settle_replicates).
    The test's rows are its bool outcome, so it adds no array operation.

    Why.  Let phi(y, t) = t - |y - x|_1 and H be the box top.  Every seed
    of either side has phi <= 0, and only (x, 0) has phi = 0: a floor site
    has t = 0, and a side seed of the pessimistic rim sits at |y_j - x_j| =
    H + margin > t on some axis.  A straight down step lowers phi by 1 and
    a diagonal one by 0 (towards x) or 2, in both step sets; an up step
    raises it by 1, onto a closed site.  So the first reached site of
    phi = 1 is entered by an up step from a reached site u of phi = 0 onto
    the closed site above it, (y, |y - x|_1 + 1) with |y - x|_1 <= H - 1.
    Either u = (x, 0), and (x, 1) is closed; or u is no seed, and
    following back the steps that reached u, all at phi = 0 (a down step
    onto phi = 0 comes from phi = 0 or 2, and phi = 2 comes later) and at
    heights 1..H, they climb diagonally away from x up to the one that is
    an up step, onto a closed site (w, |w - x|_1), 1 <= |w - x|_1 <= H.
    So where (x, 1) is open, and either every site (y, |y - x|_1 + 1) with
    1 <= |y - x|_1 <= H - 1 or every site (w, |w - x|_1) with
    1 <= |w - x|_1 <= H is open, no reached site has phi >= 1: the run of
    x, which starts at (x, 1), is 0 on both sides, and the reader's own
    rule settles it where 0 < H - 1, as in the all-open box.  Read-only,
    once per box, column and step set."""
    top = box.hi[-1]
    ring = [(y, sum(map(abs, y))) for y in itertools.product(range(-top, top + 1), repeat=len(x))]
    above = [(*x, 1)] + [(*(c + s for c, s in zip(x, y)), r + 1) for y, r in ring if 0 < r < top]
    level = [(*(c + s for c, s in zip(x, y)), r) for y, r in ring if 0 < r <= top]
    cuts = np.array([0, 1, len(above)])

    def test(closed):
        at_x, above_zero, at_zero = np.logical_or.reduceat(closed, cuts, axis=0)
        through = at_x | above_zero & at_zero
        return through, through
    return _read_only(tuple(above + level), test,
                      *_floor_read(np.zeros((2, *box.shape), bool), box, (x,), step_set))


def _surface_runs(count: int, closed_at, cols, budget: Budget,
                  step_set: StepSet = StepSet.FULL, screened: bool = False):
    """The one floor reader: build_surface's certificate of items
    0..count-1 of closed_at (as _settle_replicates takes it) over sorted
    distinct columns.  Yields per chunk _floor_read's runs of each column
    in the optimistic and pessimistic floor reach, and whether the two
    agree strictly below the box top, each shaped (B, len(cols)); a
    settled column's surface value is one above its run.

    screened, for one column and a closed_at of reach._hash_replicates,
    reads the first box only in the replicates _floor_screen lets
    through.  The multi-column reads do not screen: over the base ball of
    radius 5 at d=2 the union of the columns' screens is 156 of the first
    box's 351 sites, and at p = 0.99 it lets 22% of the replicates through
    (2% for one column).  Nor do the single-field readers build_surface,
    minimal_cover and climb_set, whose closed_at reads one field's masks."""
    def read(closed, box):
        return _floor_read(closed, box, cols, step_set)

    boxes = _floor_boxes(tuple(map(min, zip(*cols))), tuple(map(max, zip(*cols))), budget)
    screen = functools.partial(_floor_screen, x=tuple(cols[0]), step_set=step_set)
    return _settle_replicates(count, boxes, closed_at, read, screen if screened else None)


@functools.lru_cache(maxsize=256)
def _cover_screen(box: BoxRegion, x: Column) -> tuple:
    """The screen of a cover read of x in the box: its sites (x, 1), the
    (x +- e_j, 1) and, below the box top, (x, 2); the test of their closed
    bits; and a table of three reads.

    Why.  No step goes below the floor, so a climb from (x, 0) leaves it
    only by an up step onto (x, 1).  Where (x, 1) is open the climb set is
    {(x, 0)}: row 0 is the read of an all-open box, cover radius 1.
    Where (x, 1) is closed, (x, 2) is open or lies above the box top, and
    every (x +- e_j, 1) is open, the climb set is exactly {(x, 0), (x, 1),
    (x +- e_j, 0)}, whatever else is closed: from (x, 1) the up step is
    not admissible (or leaves the box) and the down steps land on (x, 0)
    and the (x +- e_j, 0), whose up steps land on open sites and whose
    down steps would go below the floor.  So row 1 is the read of a box
    whose only closed site is (x, 1): cover radius 2, certified unless the
    margin or the height is 1, where the climb set meets the side or the
    top and the replicate grows as one read in the box would.  Every other
    replicate takes row 2, hashed and read in the box.  Read-only, once
    per box and column."""
    one_step = (*x, 1)
    sides = [(*x[:j], x[j] + s, *x[j + 1:], 1) for j in range(len(x)) for s in (-1, 1)]
    above = [(*x, 2)] if box.hi[-1] >= 2 else []
    sites = (one_step, *sides, *above)
    cuts = np.array([0, 1])

    def test(closed):
        at_x, blocked = np.logical_or.reduceat(closed, cuts, axis=0)
        through = at_x & blocked
        return np.add(at_x, through, dtype=np.intp), through
    synthetic = np.zeros((3, *box.shape), bool)
    synthetic[(1, *np.subtract(one_step, box.lo))] = True
    _, rho, certified = _read_covers(synthetic, box, x)
    return _read_only(sites, test, rho, rho, certified)


def _cover_runs(count: int, closed_at, x: Column, budget: Budget):
    """The one cover reader of replicates: per chunk of items 0..count-1 of
    closed_at, a closed_at of reach._hash_replicates, (rho, rho, certified)
    of x's climb set in minimal_cover's climb boxes, each shaped (B,): its
    cover radius and certificate.  The first box is read only in the
    replicates _cover_screen lets through; the others take a row of its
    table."""
    def read(closed, box):
        _, rho, certified = _read_covers(closed, box, x)
        return rho, rho, certified

    return _settle_replicates(count, _climb_boxes(x, budget), closed_at, read,
                              functools.partial(_cover_screen, x=x))


def build_surface(field: Field, base, budget: Budget = Budget()) -> SurfacePatch:
    """Surface over the given base columns via the floor-reachable set.

    Each column's value is min{t > 0 : (x, t) not reachable}.  A column is
    CERTIFIED when the optimistic and pessimistic values agree strictly
    below the box top; otherwise the box doubles in height, with the side
    pad h + margin at a fixed margin (see _floor_boxes), until agreement or
    the growth cap.

    Growth-cap exhaustion yields Unresolved columns with the optimistic
    value as a certified lower bound; it never raises.
    """
    base = [tuple(c) for c in base]
    if not base:
        raise ValueError("base must be nonempty")
    k = field.d - 1
    try:  # one numpy pass, not a Python loop, over a long list of columns
        cols = np.array(base)
    except ValueError:  # columns of unequal lengths
        cols = None
    if cols is None or cols.shape != (len(base), k) or cols.dtype.kind not in "iu":
        bad = next((c for c in base if np.shape(c) != (k,)
                    or not all(isinstance(x, (int, np.integer)) for x in c)), base[0])
        raise ValueError(f"column {bad!r} does not have d - 1 = {k} integer coordinates")
    cols = sorted(set(base))
    (lo, _, settled), = _surface_runs(  # one field: a batch of one
        1, lambda _, box: field.closed_mask(box)[None], cols, budget)
    # Python ints: patch values go out through json
    values = dict(zip(cols, (lo[0] + 1).tolist()))
    status = {c: Cert.CERTIFIED if ok else Cert.UNRESOLVED
              for c, ok in zip(cols, settled[0].tolist())}
    return SurfacePatch(tuple(cols), values, status, "via-floor-reach")


@dataclass(frozen=True)
class SurfaceReport:
    """Exhaustive check of openness and the Lipschitz property on a patch."""

    columns_checked: int
    pairs_checked: int
    openness_violations: tuple[tuple[Column, int], ...]
    lipschitz_violations: tuple[tuple[Column, Column, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.openness_violations and not self.lipschitz_violations


def verify_surface(field: Field, patch: SurfacePatch) -> SurfaceReport:
    """Check every certified column for an open site at its value and every
    adjacent certified pair for |increment| <= 1; report violations.

    Openness is read from one field.closed_mask over the bounding box of
    the certified columns and values, so an ExplicitConfig reads a site
    outside its box as open.  A batch of one for _violations."""
    certified = patch.certified_columns()
    if not certified:
        return SurfaceReport(0, 0, (), ())
    values = np.array([[patch.values[c] for c in certified]], dtype=np.intp)
    closed, pairs, steep = _violations(lambda box: field.closed_mask(box)[None],
                                       certified, values, np.ones(values.shape, bool))
    open_bad = [(c, patch.values[c]) for c, bad in zip(certified, closed[0].tolist()) if bad]
    lip_bad = []
    for r, i in zip(*steep[0].nonzero()):
        col = certified[r]
        nb = (*col[:i], col[i] + 1, *col[i + 1:])
        lip_bad.append((col, nb, patch.values[col], patch.values[nb]))
    return SurfaceReport(len(certified), int(pairs.sum()), tuple(open_bad), tuple(lip_bad))


def _violations(closed_at, cols, values: np.ndarray, certified: np.ndarray):
    """verify_surface's check of B surfaces over one list of columns, values
    and certified shaped (B, len(cols)); closed_at(box) hashes the batch once,
    in the bounding box of the columns and the certified values, if any.
    Returns closed, the certified entries on a closed site, and pairs[b, r, i]
    where cols[r] and cols[r] + e_i are both certified (each adjacent pair
    once) and steep where such a pair's values differ by more than 1."""
    cols = np.array(cols, dtype=np.intp)
    idx = cols - cols.min(axis=0)
    # nbs[r, i]: the index of cols[r] + e_i in cols, or -1
    row = np.full(tuple(idx.max(axis=0) + 2), -1)  # room for col + e_i
    row[tuple(idx.T)] = np.arange(len(cols))
    nbs = np.stack([row[tuple((idx + e).T)] for e in np.eye(idx.shape[1], dtype=np.intp)],
                   axis=1)
    pairs = certified[..., None] & certified[:, nbs] & (nbs >= 0)
    steep = pairs & (np.abs(values[..., None] - values[:, nbs]) > 1)
    closed = np.zeros(values.shape, bool)
    b, r = certified.nonzero()
    if b.size:
        vals = values[b, r]
        box = BoxRegion((*cols.min(axis=0), vals.min()), (*cols.max(axis=0), vals.max()))
        closed[b, r] = closed_at(box)[(b, *idx[r].T, vals - box.lo[-1])]
    return closed, pairs, steep


def _climb(field: Field, x: Column, budget: Budget):
    """The last box the climb set of x was read in, that box's cover
    heights, and the cover radius and certificate of the loop."""
    if len(x) != field.d - 1:
        raise ValueError("center column must have dimension d-1")
    last = []

    def read(closed, box):
        heights, rho, certified = _read_covers(closed, box, x)
        last[:] = box, heights[0]
        return rho, rho, certified

    (rho, _, certified), = _settle_replicates(
        1, _climb_boxes(x, budget), lambda _, box: field.closed_mask(box)[None], read)
    return (*last, int(rho[0]), bool(certified[0]))


def climb_set(field: Field, x, budget: Budget = COVER_BUDGET) -> tuple[frozenset[Site], Cert]:
    """Endpoints of admissible paths from (x, 0) that avoid negative heights.

    Grows the box until the reach stops touching the inner side and top
    boundary; at that point no path can escape and the set is exact for
    every configuration outside the box.  Growth-cap exhaustion returns the
    partial set with status UNRESOLVED.
    """
    box, heights, _, certified = _climb(field, tuple(x), budget)
    # a column of cover height h holds the climb-set run 0..h-1 (_read_covers)
    sites = frozenset((*c, t) for c, h in _cover_entries(heights, box.lo[:-1]).items()
                      for t in range(h))
    return sites, Cert.CERTIFIED if certified else Cert.UNRESOLVED


def _read_covers(closed: np.ndarray, box: BoxRegion,
                 x: Column) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per box of a batch of closed masks (B, *box.shape) over one box whose
    bottom is height 0, the climb set of the column x read as a cover: the
    cover heights, shaped (B, n_1, ..., n_(d-1)), the cover radius (the
    spread radius plus one) and whether the cover is certified, the reach
    touching neither the inner side boundary nor the top.  One _climb_masks
    call closes the batch.  A column holds the climb-set run {0..m}
    (straight down is always admissible above the floor), so its site count
    m + 1 is its cover height, the reach meets a rim column exactly where it
    holds that column's floor site, and meets the top exactly where it
    holds a top-layer site."""
    layers = _climb_masks(closed, box, x)
    counts = layers.sum(axis=0)
    axes = tuple(range(counts.ndim - 1))
    dist, rim = _cover_grid(counts.shape[:-1], tuple(c - a for c, a in zip(x, box.lo)))
    rho = np.where(counts > 0, counts + dist, 0).max(axis=axes)
    escaped = (layers[0] & rim).any(axis=axes) | layers[-1].any(axis=axes)
    return counts.transpose(-1, *axes), rho, ~escaped


@functools.lru_cache(maxsize=256)
def _cover_grid(shape: tuple[int, ...], center: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per column index of shape, with a trailing batch axis of 1: its
    1-norm distance from center, and whether it is a rim column (on the
    inner side boundary).  Read-only, once per shape and center."""
    dist = sum(np.ix_(*(np.abs(np.arange(n) - c) for n, c in zip(shape, center))))[..., None]
    rim = np.zeros((*shape, 1), dtype=bool)
    _seed_sides(rim, range(len(shape)))
    dist.flags.writeable = rim.flags.writeable = False
    return dist, rim


def _cover_entries(heights: np.ndarray, lo) -> dict[Column, int]:
    """Positive cover heights of one box as {column: height}; lo is the
    column of the box's first index."""
    cols = np.argwhere(heights) + lo
    return dict(zip(map(tuple, cols.tolist()), heights[heights > 0].tolist()))


def minimal_cover(field: Field, x, budget: Budget = COVER_BUDGET) -> LocalCoverResult:
    """Minimal local cover of the column x: the sites one above its climb set.

    For every column the climb set meets, its sites there form a contiguous
    run {0..m}; the cover height is m + 1 and sits on an open site (were it
    closed, the upward step would extend the climb set past m).  Columns
    the climb set misses carry height 0.  The two radii:

    * spread_radius: max 1-norm distance of climb-set sites from (x, 0);
    * cover_radius:  max 1-norm distance of positive cover sites from (x, 0),
      which always comes out to spread_radius + 1.

    A no-cover outcome is not finitely certifiable; it surfaces as an
    unresolved result whose radii are certified lower bounds.
    """
    x = tuple(x)
    box, heights, rho, certified = _climb(field, x, budget)
    return LocalCoverResult(x, _cover_entries(heights, box.lo[:-1]), certified, rho - 1, rho)


def surface_from_covers(field: Field, base, window,
                        budget: Budget = COVER_BUDGET) -> SurfacePatch:
    """Surface over the base as the columnwise maximum, over cover centers
    in the window, of their minimal-cover heights: one plus the highest
    climb-set site in the column, at least 1 as each base column is a center.

    The supremum over *all* centers is not computable (there are infinitely
    many), so entries are window-limited lower bounds of the floor-reach
    surface; they are marked CERTIFIED only when every window climb set is
    itself certified, and the method string records the window.
    """
    base = sorted({tuple(c) for c in base})
    window = sorted({tuple(c) for c in window})
    if not set(base) <= set(window):
        raise ValueError("window must contain every base column")
    cols = np.array(base, dtype=np.intp).reshape(-1, field.d - 1)
    sup = np.ones(len(base), dtype=np.intp)
    all_cert = True
    for y in window:
        box, heights, _, certified = _climb(field, y, budget)
        all_cert = all_cert and certified
        idx = cols - box.lo[:-1]
        inside = ((idx >= 0) & (idx < heights.shape)).all(axis=1)
        sup[inside] = np.maximum(sup[inside], heights[tuple(idx[inside].T)])
    values = dict(zip(base, sup.tolist()))
    status = {c: Cert.CERTIFIED if all_cert else Cert.UNRESOLVED for c in base}
    return SurfacePatch(tuple(base), values, status,
                        f"via-covers(window={len(window)})")
