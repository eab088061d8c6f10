"""Finite field fixtures for the tests, built from ExplicitConfig alone."""

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
