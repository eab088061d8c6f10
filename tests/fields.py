"""Finite field fixtures for the tests, built from ExplicitConfig alone, and
references that read reach masks as site sets and column runs."""

import numpy as np

from lipsurf.lattice import BoxRegion, ExplicitConfig


def closed_at(d, sites=()):
    """A d-dimensional field whose closed sites are exactly `sites`.

    Its config box is the bounding box of the sites (the origin alone, open,
    when there are none), and closed_mask reads every site outside that box
    as open.  closed_at(d, box.sites()) is all closed on the box.
    """
    closed = {tuple(s) for s in sites}
    corners = closed or {(0,) * d}
    box = BoxRegion(tuple(map(min, zip(*corners))), tuple(map(max, zip(*corners))))
    return ExplicitConfig(box, tuple(int(s not in closed) for s in box.sites()))


def sites(mask, box):
    """The sites a mask shaped like the box marks, as a set of site tuples."""
    return set(map(tuple, (np.argwhere(mask) + box.lo).tolist()))


def column_runs(reached, box, columns):
    """Runs of a batch of masks (B, *box.shape) in a list of columns inside
    the box: entry [b, i] is the largest m with (columns[i], 1..m) all
    reached in box b, 0 when (columns[i], 1) is not."""
    at = [tuple(np.subtract(c, box.lo[:-1])) for c in columns]
    col = np.stack([reached[(slice(None), *i, slice(1, None))] for i in at], axis=1)
    return np.logical_and.accumulate(col, axis=-1).sum(axis=-1)
