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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from enum import Enum

from .lattice import BoxRegion, Column, Field, Site
from .reach import Budget, ReachResult, StepSet, column_run, floor_reach_sandwich, reach


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

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


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
    budget: Budget = dc_field(repr=False, default=Budget())

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


def _surface_box(base_lo, base_hi, pad: int, h: int) -> BoxRegion:
    lo = tuple(c - pad for c in base_lo) + (0,)
    hi = tuple(c + pad for c in base_hi) + (h,)
    return BoxRegion(lo, hi)


def build_surface(field: Field, base, budget: Budget = Budget()) -> SurfacePatch:
    """Surface over the given base columns via the floor-reachable set.

    Each column's value is min{t > 0 : (x, t) not reachable}.  A column is
    CERTIFIED when the optimistic and pessimistic values agree strictly
    below the box top; otherwise the box doubles in height (the side pad
    tracking the height, so that worst-case side entries cannot influence
    base columns above height 0) until agreement or the growth cap.

    Growth-cap exhaustion yields Unresolved columns with the optimistic
    value as a certified lower bound; it never raises.
    """
    base = [tuple(c) for c in base]
    if not base:
        raise ValueError("base must be nonempty")
    k = field.d - 1
    if any(len(c) != k for c in base):
        raise ValueError("base columns must have dimension d-1")
    base_lo = tuple(min(c[i] for c in base) for i in range(k))
    base_hi = tuple(max(c[i] for c in base) for i in range(k))

    values: dict[Column, int] = {}
    status: dict[Column, Cert] = {}
    pending = set(base)
    h = budget.height
    for attempt in range(budget.growth_cap + 1):
        pad = h + budget.margin
        box = _surface_box(base_lo, base_hi, pad, h)
        sw = floor_reach_sandwich(field, box)
        for col in sorted(pending):
            v_opt = column_run(sw.optimistic, col) + 1
            v_pes = column_run(sw.pessimistic, col) + 1
            values[col] = v_opt
            if v_opt == v_pes and v_pes < h:
                status[col] = Cert.CERTIFIED
                pending.discard(col)
        if not pending:
            break
        if attempt < budget.growth_cap:
            h *= 2
    for col in pending:
        status[col] = Cert.UNRESOLVED
    return SurfacePatch(tuple(sorted(base)), values, status, "via-floor-reach")


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
    adjacent certified pair for |increment| <= 1; report violations."""
    certified = patch.certified_columns()
    open_bad = []
    for col in certified:
        v = patch.values[col]
        if field.is_closed((*col, v)):
            open_bad.append((col, v))
    lip_bad = []
    pairs = 0
    cert_set = set(certified)
    for col in certified:
        for i in range(len(col)):
            for s in (1, -1):
                nb = col[:i] + (col[i] + s,) + col[i + 1:]
                if nb in cert_set and nb > col:
                    pairs += 1
                    if abs(patch.values[col] - patch.values[nb]) > 1:
                        lip_bad.append((col, nb, patch.values[col], patch.values[nb]))
    return SurfaceReport(len(certified), pairs, tuple(open_bad), tuple(lip_bad))


def climb_set(field: Field, x, budget: Budget = COVER_BUDGET) -> tuple[frozenset[Site], Cert]:
    """Endpoints of admissible paths from (x, 0) that avoid negative heights.

    Grows the box until the reach stops touching the inner side and top
    boundary; at that point no path can escape and the set is exact for
    every configuration outside the box.  Growth-cap exhaustion returns the
    partial set with status UNRESOLVED.
    """
    x = tuple(x)
    if len(x) != field.d - 1:
        raise ValueError("center column must have dimension d-1")
    m, h = budget.margin, budget.height
    result: ReachResult | None = None
    for _ in range(budget.growth_cap + 1):
        lo = tuple(c - m for c in x) + (0,)
        hi = tuple(c + m for c in x) + (h,)
        box = BoxRegion(lo, hi)
        result = reach(field, [(*x, 0)], box, StepSet.FULL, height_floor=0)
        if not (result.touched_side or result.touched_top):
            return result.reached, Cert.CERTIFIED
        m *= 2
        h *= 2
    return result.reached, Cert.UNRESOLVED


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
    sites, cert = climb_set(field, x, budget)
    runs: dict[Column, int] = {}
    for s in sites:
        col = s[:-1]
        h = s[-1]
        if col not in runs or h > runs[col]:
            runs[col] = h
    entries = {col: m + 1 for col, m in runs.items()}
    origin = (*x, 0)
    spread = max(_dist(origin, s) for s in sites)
    rho = max(_dist(origin, (*col, v)) for col, v in entries.items())
    return LocalCoverResult(x, entries, cert is Cert.CERTIFIED, spread, rho, budget)


def _dist(a: Site, b: Site) -> int:
    return sum(abs(p - q) for p, q in zip(a, b))


def surface_from_covers(field: Field, base, window,
                        budget: Budget = COVER_BUDGET) -> SurfacePatch:
    """Surface over the base as one plus the supremum, over cover centers in
    the window, of climb-set heights seen in each column.

    The supremum over *all* centers is not computable (there are infinitely
    many), so entries are window-limited lower bounds of the floor-reach
    surface; they are marked CERTIFIED only when every window climb set is
    itself certified, and the method string records the window.
    """
    base = [tuple(c) for c in base]
    window = [tuple(c) for c in window]
    if not set(base) <= set(window):
        raise ValueError("window must contain every base column")
    sup: dict[Column, int] = {c: 0 for c in base}
    all_cert = True
    for y in sorted(window):
        sites, cert = climb_set(field, y, budget)
        if cert is not Cert.CERTIFIED:
            all_cert = False
        for s in sites:
            col = s[:-1]
            if col in sup and s[-1] > sup[col]:
                sup[col] = s[-1]
    values = {c: sup[c] + 1 for c in base}
    status = {c: Cert.CERTIFIED if all_cert else Cert.UNRESOLVED for c in base}
    return SurfacePatch(tuple(sorted(base)), values, status,
                        f"via-covers(window={len(window)})")
