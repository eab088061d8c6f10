"""Site percolation fields on Z^d with deterministic, splittable sampling.

Every site of the hypercubic lattice is open with probability p and closed
otherwise, independently across sites.  Fields here are *virtual* infinite
configurations: the state of a site is a pure function of
(master_seed, replicate, coordinates, p), obtained by avalanche-mixing the
integers into a 64-bit per-site uniform and comparing against a threshold
derived from p.  Three consequences are load-bearing for the rest of the
package:

* replayable -- any worker may query any site in any order, and enlarging
  a query window never changes previously observed states;
* splittable -- distinct (master_seed, replicate) pairs give independent
  streams, so Monte Carlo replicates need no shared generator state;
* monotone coupling -- the per-site uniform does not depend on p, so for
  fields sharing (master_seed, replicate), raising p can only turn closed
  sites open, never the reverse.

The uniform is quantized to 64 bits, so p is honoured to resolution 2**-64,
far below Monte Carlo noise at any feasible sample size.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

import numpy as np

Site = tuple[int, ...]
Column = tuple[int, ...]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer with the golden-ratio increment folded in."""
    x = (x + _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * _C1) & _MASK
    x ^= x >> 27
    x = (x * _C2) & _MASK
    return x ^ (x >> 31)


def absorb(h: int, value: int) -> int:
    """Fold one integer into a running 64-bit hash state."""
    return mix64(h ^ (value & _MASK))


# 0-d arrays, not numpy scalars: a ufunc converts a scalar operand on
# every call, which costs about as much as the op on a small array
_NP_GOLDEN, _NP_C1, _NP_C2, _S30, _S27, _S31 = (
    np.array(c, np.uint64) for c in (_GOLDEN, _C1, _C2, 30, 27, 31))


def _absorb_vec(h: np.ndarray, value: np.ndarray) -> np.ndarray:
    # identical arithmetic to absorb(), elementwise on uint64 arrays
    x = h ^ value
    x += _NP_GOLDEN
    x ^= x >> _S30
    x *= _NP_C1
    x ^= x >> _S27
    x *= _NP_C2
    x ^= x >> _S31
    return x


def _column_states(base: np.ndarray, box: BoxRegion) -> np.ndarray:
    """The stream states of the 1-d base folded with the coordinates of
    every column of the box, in axis order as in uniform64(): the part of
    the fold that all heights of a column share.  Shape (1, n_1, ...,
    n_(d-1), base.size), the storage order of _box_uniforms."""
    h = base.reshape((1,) * box.dim + base.shape)
    for coords in _box_coords(box)[:-1]:
        h = _absorb_vec(h, coords)
    return h


def _box_uniforms(columns: np.ndarray, box: BoxRegion) -> np.ndarray:
    """Per-site uniforms of the box from its _column_states, for every
    stream state in their batch axis.

    The result has shape (batch, *box.shape); each entry is the state
    folded with the site's coordinates in axis order, as in uniform64().
    It is a transposed view: memory holds height first and the stream
    states last, (H+1, n_1, ..., n_(d-1), batch) in C order, the
    batch-last layers the reach kernel works on.  A ufunc on it (the
    threshold compare) keeps that memory order.
    """
    dim = box.dim
    h = _absorb_vec(columns, _box_coords(box)[-1])
    return h.transpose(dim, *range(1, dim), 0)


@functools.lru_cache(maxsize=256)
def _box_coords(box: BoxRegion) -> tuple[np.ndarray, ...]:
    """The coordinates of each box axis as uint64, shaped to fold into
    _box_uniforms' state; read-only, once per box."""
    out = []
    # storage axis of box axis i: the height goes first, column i to i + 1
    for axis, (a, b) in enumerate(zip(box.lo, box.hi)):
        shape = [1] * (box.dim + 1)
        shape[(axis + 1) % box.dim] = b - a + 1
        coords = np.arange(a, b + 1, dtype=np.int64).astype(np.uint64).reshape(shape)
        coords.flags.writeable = False
        out.append(coords)
    return tuple(out)


@functools.lru_cache(maxsize=256)
def open_threshold(p: float) -> int:
    """Exact 64-bit threshold: a site is open iff its uniform is < threshold."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    return int(Fraction(p) * (1 << 64))


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned finite box of Z^d, bounds inclusive on every axis."""

    lo: Site
    hi: Site

    def __post_init__(self):
        try:  # integers only: numpy's pass, a float is not truncated
            lo, hi = (tuple(map(operator.index, side)) for side in (self.lo, self.hi))
        except TypeError:
            bad = next(c for c in (*self.lo, *self.hi) if not hasattr(type(c), "__index__"))
            raise ValueError(f"box coordinate {bad!r} is not an integer") from None
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def contains(self, site: Site) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, site, self.hi))

    def sites(self) -> Iterator[Site]:
        """All sites in lexicographic order."""
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        return itertools.product(*ranges)

    def to_json(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @staticmethod
    def from_json(obj: dict) -> "BoxRegion":
        return BoxRegion(tuple(obj["lo"]), tuple(obj["hi"]))


def height(site: Site) -> int:
    """Last coordinate of a site."""
    return site[-1]


def radial(site: Site) -> int:
    """1-norm of all coordinates except the last."""
    return sum(abs(c) for c in site[:-1])


def count_l1_sphere(dim: int, n: int) -> int:
    """Number of integer points of Z^dim at 1-norm exactly n.

    Split by the number k of nonzero coordinates: choose them, choose signs,
    and compose n into k positive parts.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    return sum(
        (1 << k) * comb(dim, k) * comb(n - 1, k - 1)
        for k in range(1, min(dim, n) + 1)
    )


class Field:
    """A (possibly virtual) site configuration on Z^d.

    Subclasses provide is_closed() and, for bulk queries, closed_mask(),
    a dense boolean array over a box.
    """

    d: int

    def is_closed(self, site: Site) -> bool:
        raise NotImplementedError

    def _check_site(self, site: Site) -> None:
        if len(site) != self.d:
            raise ValueError(f"site {site} has dimension {len(site)}, field has d={self.d}")

    def _check_box(self, box: BoxRegion) -> None:
        if box.dim != self.d:
            raise ValueError(f"box dimension {box.dim} != field dimension {self.d}")

    def closed_mask(self, box: BoxRegion) -> np.ndarray:
        raise NotImplementedError


class PercolationField(Field):
    """Virtual infinite i.i.d. configuration keyed by (master_seed, replicate).

    The per-site uniform is a pure hash of (master_seed, replicate, coords);
    the site is open iff the uniform falls below the 64-bit threshold for p.
    """

    def __init__(self, d: int, p: float, master_seed: int, replicate: int = 0):
        if d < 2:
            raise ValueError("d must be >= 2")
        if replicate < 0:
            raise ValueError("replicate must be >= 0")
        self.d = d
        self.p = float(p)
        self.master_seed = int(master_seed)
        self.replicate = int(replicate)
        self._threshold = open_threshold(self.p)
        # uniform stream base does not involve p: enables monotone coupling
        self._base = absorb(absorb(0, self.master_seed), self.replicate)

    def uniform64(self, site: Site) -> int:
        self._check_site(site)
        h = self._base
        for c in site:
            h = absorb(h, c)
        return h

    def is_closed(self, site: Site) -> bool:
        return self.uniform64(site) >= self._threshold

    def closed_mask(self, box: BoxRegion) -> np.ndarray:
        return replicate_closed_masks(self.d, self.p, self.master_seed,
                                      [self.replicate], box)[0]

    def __repr__(self):
        return (f"PercolationField(d={self.d}, p={self.p}, "
                f"master_seed={self.master_seed}, replicate={self.replicate})")


def _replicate_states(d: int, master_seed: int, replicates, box: BoxRegion) -> np.ndarray:
    """The stream state of each replicate, as PercolationField's base,
    after the checks of the batched hash's arguments."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if box.dim != d:
        raise ValueError(f"box dimension {box.dim} != field dimension {d}")
    reps = np.asarray(replicates, dtype=np.int64)
    if reps.ndim != 1 or (reps.size and reps.min() < 0):
        raise ValueError("replicates must be a sequence of integers >= 0")
    seed_state = np.uint64(absorb(0, int(master_seed)))
    return _absorb_vec(seed_state, reps.astype(np.uint64))


def replicate_closed_masks(d: int, p: float, master_seed: int, replicates,
                           box: BoxRegion) -> np.ndarray:
    """Closed masks of one box for many replicates in one numpy pass.

    Entry [i] equals PercolationField(d, p, master_seed,
    replicates[i]).closed_mask(box) bit for bit; the result has shape
    (len(replicates), *box.shape).
    """
    base = _replicate_states(d, master_seed, replicates, box)
    return _box_uniforms(_column_states(base, box), box) >= np.uint64(open_threshold(float(p)))


def screened_closed_masks(d: int, p: float, master_seed: int, replicates,
                          box: BoxRegion, sites: tuple[Site, ...], test):
    """replicate_closed_masks of the box for only the replicates a screen
    of some of its sites lets through.

    test(closed) maps the closed bits of `sites`, sites of the box, shaped
    (len(sites), len(replicates)), to two arrays over the replicates:
    rows, each one's row in the screen's table of reads, and whether that
    row is the one that hashes and reads the replicate in the box.
    Returns (rows, through, masks): the rows, the indices i where the
    second array holds, in order, and the closed masks of those replicates,
    shaped (len(through), *box.shape), bit for bit those of
    replicate_closed_masks.  The screen folds only the sites' columns; the
    box's are folded only for the replicates it lets through.
    """
    base = _replicate_states(d, master_seed, replicates, box)
    threshold = np.uint64(open_threshold(float(p)))
    sub, at, heights = _site_operands(box, sites)
    columns = _column_states(base, sub).reshape(-1, base.size)
    rows, through = test(_absorb_vec(columns[at], heights) >= threshold)
    through = through.nonzero()[0]
    if not through.size:  # no fold to finish: a chunk the screen stops whole
        return rows, through, np.zeros((0, *box.shape), bool)
    return rows, through, _box_uniforms(_column_states(base[through], box), box) >= threshold


@functools.lru_cache(maxsize=256)
def _site_operands(box: BoxRegion, sites: tuple[Site, ...]) -> tuple:
    """The sub-box of the box over the sites' bounding columns, where each
    site lies among its flat columns of _column_states, and the site's
    height as a uint64 operand shaped (len(sites), 1); read-only, once per
    box and sites."""
    cols = np.array([s[:-1] for s in sites], dtype=np.int64).reshape(len(sites), box.dim - 1)
    sub = BoxRegion((*cols.min(axis=0).tolist(), box.lo[-1]),
                    (*cols.max(axis=0).tolist(), box.hi[-1]))
    at = np.ravel_multi_index(tuple((cols - sub.lo[:-1]).T), sub.shape[:-1])
    heights = np.array([s[-1] for s in sites], dtype=np.int64).astype(np.uint64)[:, None]
    at.flags.writeable = heights.flags.writeable = False
    return sub, at, heights


@dataclass(frozen=True)
class ExplicitConfig(Field):
    """A fully materialized configuration on a finite box: the finite Field.

    states holds one entry per site in lexicographic site order, 1 for open
    and 0 for closed.  Kept to at most 30 sites when driving exhaustive
    2^N sweeps.  At a site outside the box is_closed raises ValueError,
    while closed_mask reads the site as open.
    """

    box: BoxRegion
    states: tuple[int, ...]

    def __post_init__(self):
        if len(self.states) != self.box.size:
            raise ValueError(
                f"states has {len(self.states)} entries, box has {self.box.size} sites")
        if any(s not in (0, 1) for s in self.states):
            raise ValueError("states entries must be 0 or 1")
        object.__setattr__(self, "d", self.box.dim)

    def index_of(self, site: Site) -> int:
        self._check_site(site)
        idx = 0
        for c, a, b in zip(site, self.box.lo, self.box.hi):
            if not a <= c <= b:
                raise ValueError(f"site {site} outside box {self.box}")
            idx = idx * (b - a + 1) + (c - a)
        return idx

    def is_closed(self, site: Site) -> bool:
        return self.states[self.index_of(site)] == 0

    def closed_mask(self, box: BoxRegion) -> np.ndarray:
        """Closed sites of the box; sites outside the config box read open."""
        self._check_box(box)
        own = self.box
        lo = [max(a, b) for a, b in zip(box.lo, own.lo)]
        hi = [min(a, b) for a, b in zip(box.hi, own.hi)]
        mask = np.zeros(box.shape, dtype=bool)
        if all(a <= b for a, b in zip(lo, hi)):
            def window(origin):
                return tuple(slice(a - c, b - c + 1) for a, b, c in zip(lo, hi, origin))
            states = np.array(self.states, dtype=bool).reshape(own.shape)
            mask[window(box.lo)] = ~states[window(own.lo)]
        return mask

    def to_json(self) -> dict:
        return {"box": self.box.to_json(), "states": list(self.states)}

    @staticmethod
    def from_json(obj) -> "ExplicitConfig":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return ExplicitConfig(BoxRegion.from_json(obj["box"]), tuple(obj["states"]))

    @staticmethod
    def from_bits(box: BoxRegion, bits: int) -> "ExplicitConfig":
        """Config from an integer bit pattern; bit i = state of the i-th site."""
        n = box.size
        if not 0 <= bits < 1 << n:
            raise ValueError(f"bits {bits} outside [0, 2**{n}) for a box of {n} sites")
        return ExplicitConfig(box, tuple((bits >> i) & 1 for i in range(n)))
