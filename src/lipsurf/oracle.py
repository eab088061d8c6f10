"""Brute-force ground truth, deliberately slow and simple.

Nothing here shares code with the fast engine beyond type definitions:
reachability is recomputed by naive fixed-point sweeps and by explicit
distinct-site path enumeration, event probabilities by summing over all
2^N configurations of a tiny box, and minimal covers by a least-fixed-point
of raising rules.  Exhaustive sweeps are sized to keep the whole oracle
suite under a minute.
"""

from __future__ import annotations

import functools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass

from .bounds import HypothesisError, spread_rate
from .lattice import BoxRegion, Column, ExplicitConfig, Site, height, radial
from .reach import StepSet
from .surface import LocalCoverResult


def step_vectors(d: int, step_set: StepSet = StepSet.FULL) -> list[Site]:
    """The 2d (or 2d-1) step displacements for dimension d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    up = tuple([0] * (d - 1) + [1])
    down = tuple([0] * (d - 1) + [-1])
    steps = [up]
    if step_set is StepSet.FULL:
        steps.append(down)
    for j in range(d - 1):
        for s in (1, -1):
            vec = [0] * d
            vec[j] = s
            vec[-1] = -1
            steps.append(tuple(vec))
    return steps


@dataclass(frozen=True)
class PathEnumeration:
    """Exhaustive enumeration of distinct-site admissible-shape paths from 0.

    by_ud counts paths per (up-steps, down-steps) bucket, the empty path
    included at (0, 0).  by_endpoint_u[site][U] counts paths ending at the
    site with U up-steps; weighting by q^U happens later, when a p is given
    (the enumeration itself is configuration-free).
    """

    by_ud: dict[tuple[int, int], int]
    by_endpoint_u: dict[Site, dict[int, int]]

    def nonempty_count(self) -> int:
        return sum(self.by_ud.values()) - 1


@functools.lru_cache(maxsize=16)
def enum_paths(d: int, step_set: StepSet, max_len: int) -> PathEnumeration:
    """Depth-first enumeration of all distinct-site paths up to max_len."""
    if max_len > 10:
        raise ValueError("max_len > 10 would enumerate too many paths")
    steps = step_vectors(d, step_set)
    ups = [st[-1] == 1 for st in steps]
    origin = (0,) * d
    by_ud: Counter = Counter()
    by_endpoint_u: dict[Site, Counter] = defaultdict(Counter)
    by_ud[(0, 0)] += 1
    by_endpoint_u[origin][0] += 1
    visited = {origin}
    rng = range(d)

    def rec(site: Site, u: int, dn: int, length: int) -> None:
        if length == max_len:
            return
        for st, is_up in zip(steps, ups):
            nxt = tuple(site[i] + st[i] for i in rng)
            if nxt in visited:
                continue
            u2, d2 = (u + 1, dn) if is_up else (u, dn + 1)
            by_ud[(u2, d2)] += 1
            by_endpoint_u[nxt][u2] += 1
            visited.add(nxt)
            rec(nxt, u2, d2, length + 1)
            visited.discard(nxt)

    rec(origin, 0, 0, 0)
    return PathEnumeration(dict(by_ud), {s: dict(c) for s, c in by_endpoint_u.items()})


def partial_expected_visits(d: int, p: float, h: int, r: int, max_len: int) -> float:
    """Truncated sum, over enumerated paths of the full step set ending at
    height >= h and radial part >= r, of q^(up-steps).

    This is a lower bound on the expected number of admissible paths into
    that region, so it must never exceed bounds.path_sum_bound for the same
    (h, r); the hypotheses of that bound are enforced here too.
    """
    if r < max(0, -h):
        raise ValueError(f"need r >= max(0, -h); got h={h}, r={r}")
    a2q = spread_rate(d, p)
    if a2q >= 1.0:
        raise HypothesisError(f"a^2*q = {a2q} >= 1")
    q = 1.0 - p
    enum = enum_paths(d, StepSet.FULL, max_len)
    total = 0.0
    for site, per_u in enum.by_endpoint_u.items():
        if height(site) >= h and radial(site) >= r:
            for u, cnt in per_u.items():
                total += cnt * q ** u
    return total


def exact_event_prob(d: int, p: float, box: BoxRegion, predicate) -> float:
    """Exact probability of a configuration event on a tiny box.

    Sums p^(#open) * q^(#closed) * predicate(config) over all 2^N
    configurations; N is capped at 25.
    """
    n = box.size
    if n > 25:
        raise ValueError(f"box has {n} sites; exhaustive enumeration capped at 25")
    if box.dim != d:
        raise ValueError("box dimension mismatch")
    q = 1.0 - p
    p_pow = [p ** k for k in range(n + 1)]
    q_pow = [q ** k for k in range(n + 1)]
    total = 0.0
    for bits in range(1 << n):
        config = ExplicitConfig.from_bits(box, bits)
        if predicate(config):
            open_count = bits.bit_count()
            total += p_pow[open_count] * q_pow[n - open_count]
    return total


def walk_reach(config: ExplicitConfig, sources,
               step_set: StepSet = StepSet.FULL,
               height_floor: int | None = None) -> frozenset[Site]:
    """Reachable set by admissible *walks* (site revisits allowed), computed
    by sweeping the box until nothing changes."""
    box = config.box
    steps = step_vectors(box.dim, step_set)
    rng = range(box.dim)
    current = set()
    for s in sources:
        s = tuple(s)
        if not box.contains(s):
            raise ValueError(f"source {s} outside box")
        if height_floor is not None and s[-1] < height_floor:
            raise ValueError(f"source {s} below floor")
        current.add(s)
    changed = True
    while changed:
        changed = False
        for site in box.sites():
            if site in current:
                continue
            if height_floor is not None and site[-1] < height_floor:
                continue
            for st in steps:
                prev = tuple(site[i] - st[i] for i in rng)
                if prev not in current:
                    continue
                if st[-1] == 1 and not config.is_closed(site):
                    continue
                current.add(site)
                changed = True
                break
    return frozenset(current)


def path_reach(config: ExplicitConfig, sources,
               height_floor: int | None = None) -> frozenset[Site]:
    """Reachable set by admissible distinct-site *paths* of the full step
    set, by explicit enumeration; exponential, for tiny boxes only."""
    box = config.box
    steps = step_vectors(box.dim)
    rng = range(box.dim)
    endpoints: set[Site] = set()

    def rec(site: Site, visited: set[Site]) -> None:
        endpoints.add(site)
        for st in steps:
            nxt = tuple(site[i] + st[i] for i in rng)
            if nxt in visited or not box.contains(nxt):
                continue
            if height_floor is not None and nxt[-1] < height_floor:
                continue
            if st[-1] == 1 and not config.is_closed(nxt):
                continue
            visited.add(nxt)
            rec(nxt, visited)
            visited.discard(nxt)

    for s in sources:
        s = tuple(s)
        if not box.contains(s):
            raise ValueError(f"source {s} outside box")
        rec(s, {s})
    return frozenset(endpoints)


def _column_base(box: BoxRegion):
    """The base of a box's columns, with two closures over it: the 1-norm
    neighbours of a column inside the base, and whether a column lies on
    the base's boundary."""
    base = BoxRegion(box.lo[:-1], box.hi[:-1])
    k = base.dim

    def neighbours(c: Column):
        for i in range(k):
            for s in (1, -1):
                nb = c[:i] + (c[i] + s,) + c[i + 1:]
                if base.contains(nb):
                    yield nb

    def is_boundary(c: Column) -> bool:
        return any(c[i] == base.lo[i] or c[i] == base.hi[i] for i in range(k))

    return base, neighbours, is_boundary


@dataclass(frozen=True)
class NoCoverInBox:
    """The raising rules escaped the box: no cover is certifiable inside it."""

    reason: str


def cover_fixed_point(config: ExplicitConfig, x, h_max: int | None = None,
                      shuffle_seed: int | None = None):
    """Least fixed point of the cover-raising rules, from the all-zero state
    with 1 at the center.

    Rules, each a minimal raise: (a) the center stays >= 1; (b) a positive
    entry sitting on a closed site goes up by one; (c) of two 1-norm
    neighbours differing by two or more, the smaller rises to larger - 1.
    Raising past h_max, or a boundary column reaching 2 (the cover would
    have to extend beyond the box base), yields NoCoverInBox.  The rules
    are inflationary and monotone, so the fixed point is order-independent;
    shuffle_seed only perturbs the visit order for confluence tests.
    """
    x = tuple(x)
    base, neighbours, is_boundary = _column_base(config.box)
    if not base.contains(x):
        raise ValueError(f"center {x} outside box base")
    if h_max is None:
        h_max = config.box.hi[-1]
    cols = list(base.sites())
    order = random.Random(shuffle_seed)
    level = {c: 0 for c in cols}
    level[x] = 1
    changed = True
    while changed:
        changed = False
        scan = list(cols)
        if shuffle_seed is not None:
            order.shuffle(scan)
        for c in scan:
            lv = level[c]
            if 0 < lv <= h_max and config.is_closed((*c, lv)):
                lv += 1
                level[c] = lv
                changed = True
            for nb in neighbours(c):
                if level[nb] - lv >= 2:
                    lv = level[nb] - 1
                    level[c] = lv
                    changed = True
            if lv > h_max:
                return NoCoverInBox(f"column {c} forced above h_max={h_max}")
            if lv >= 2 and is_boundary(c):
                return NoCoverInBox(f"boundary column {c} forced to {lv}")
    entries = {c: lv for c, lv in level.items() if lv > 0}
    origin = (*x, 0)
    rho = max(sum(abs(a - b) for a, b in zip(origin, (*c, lv)))
              for c, lv in entries.items())
    spread = rho - 1
    return LocalCoverResult(x, entries, True, spread, rho)


def all_local_covers(config: ExplicitConfig, x, h_max: int):
    """Every valid cover of x on the box base with heights <= h_max, treating
    columns outside the base as held at 0 (so boundary entries stay <= 1).

    Validity: positive entries sit on open sites, 1-norm neighbours differ
    by at most 1, and the center is positive.  Exponential; tiny boxes only.
    """
    x = tuple(x)
    base, neighbours, is_boundary = _column_base(config.box)
    cols = list(base.sites())
    covers = []

    def rec(idx: int, assignment: dict):
        if idx == len(cols):
            covers.append(dict(assignment))
            return
        c = cols[idx]
        for lv in range(0, h_max + 1):
            if c == x and lv == 0:
                continue
            if lv > 0 and config.is_closed((*c, lv)):
                continue
            if lv >= 2 and is_boundary(c):
                continue
            ok = True
            for nb in neighbours(c):
                if nb in assignment and abs(assignment[nb] - lv) > 1:
                    ok = False
                    break
            if ok:
                assignment[c] = lv
                rec(idx + 1, assignment)
                del assignment[c]

    rec(0, {})
    return covers


def attained_spread(config: ExplicitConfig, x) -> int:
    """Max 1-norm distance from (x, 0) reached by the climb walk inside the
    box; independent recomputation for event probabilities."""
    x = tuple(x)
    origin = (*x, 0)
    sites = walk_reach(config, [origin], StepSet.FULL, height_floor=0)
    return max(sum(abs(a - b) for a, b in zip(origin, s)) for s in sites)
