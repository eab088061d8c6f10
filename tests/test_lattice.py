import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lipsurf.lattice import (BoxRegion, ExplicitConfig, PercolationField,
                             count_l1_sphere, height, open_threshold, radial,
                             replicate_closed_masks, replicate_closed_sites)

from fields import closed_at

# the two-sided 99.9% normal quantile
Z_999 = 3.2905267314919255


def test_is_closed_deterministic():
    field = PercolationField(3, 0.7, master_seed=123, replicate=4)
    sites = [(x, y, z) for x in range(-3, 4) for y in range(-3, 4) for z in range(-3, 4)]
    first = [field.is_closed(s) for s in sites]
    shuffled = sites[:]
    random.Random(0).shuffle(shuffled)
    again = {s: field.is_closed(s) for s in shuffled}
    assert all(again[s] == st for s, st in zip(sites, first))


def test_open_fraction_matches_p():
    # 10^6 distinct sites, 99.9% binomial interval around p
    p = 0.98
    field = PercolationField(2, p, master_seed=2024)
    box = BoxRegion((0, 0), (999, 999))
    mask = field.closed_mask(box)
    frac_open = 1.0 - mask.mean()
    margin = Z_999 * math.sqrt(p * (1 - p) / box.size)
    assert abs(frac_open - p) < margin


def test_replicates_disagree_at_independent_rate():
    # independent fields agree unless exactly one flips: P(disagree) = 2p(1-p)
    p = 0.98
    a = PercolationField(2, p, master_seed=9, replicate=0)
    b = PercolationField(2, p, master_seed=9, replicate=1)
    box = BoxRegion((0, 0), (499, 199))
    disagree = (a.closed_mask(box) != b.closed_mask(box)).mean()
    expect = 2 * p * (1 - p)
    margin = Z_999 * math.sqrt(expect * (1 - expect) / box.size)
    assert abs(disagree - expect) < margin


def test_vectorized_mask_matches_scalar():
    field = PercolationField(3, 0.6, master_seed=77, replicate=2)
    box = BoxRegion((-2, 5, -1), (1, 7, 3))
    mask = field.closed_mask(box)
    for s in box.sites():
        idx = tuple(c - a for c, a in zip(s, box.lo))
        assert mask[idx] == field.is_closed(s)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hashed_masks_lie_in_memory_as_reach_layers(d):
    """The batch of masks, and a single field's mask, are views over
    memory laid out height first and batch last, the reach kernel's
    layers, with the public shape and the same bits per replicate."""
    box = BoxRegion((-2,) * (d - 1) + (0,), (1,) + (2,) * (d - 2) + (3,))
    reps = [4, 0, 9]
    masks = replicate_closed_masks(d, 0.7, 12, reps, box)
    assert masks.shape == (len(reps), *box.shape) and masks.dtype == bool
    assert masks.transpose(d, *range(1, d), 0).flags.c_contiguous
    for mask, rep in zip(masks, reps):
        single = PercolationField(d, 0.7, 12, rep).closed_mask(box)
        assert single.transpose(d - 1, *range(d - 1)).flags.c_contiguous
        np.testing.assert_array_equal(mask, single)


@st.composite
def _hashed_boxes(draw):
    """A box of Z^d, d = 2-4, reaching into negative coordinates, with a
    batch of one replicate or of many, in any order, and a seed and p."""
    d = draw(st.integers(2, 4))
    lo = [draw(st.integers(-2**40, 2**40) if draw(st.booleans())
               else st.integers(-6, 3)) for _ in range(d)]
    hi = [a + draw(st.integers(0, 3 if d == 4 else 5)) for a in lo]
    reps = draw(st.lists(st.integers(0, 2**40), min_size=1,
                         max_size=draw(st.sampled_from((1, 7)))))
    return (d, draw(st.floats(0.05, 0.95)), draw(st.integers(-2**63, 2**64)),
            reps, BoxRegion(tuple(lo), tuple(hi)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_hashed_boxes())
def test_batched_hash_matches_scalar_is_closed(case):
    """replicate_closed_masks, the batched hash the tail kinds run on,
    equals the scalar hash of PercolationField.is_closed site by site."""
    d, p, seed, reps, box = case
    masks = replicate_closed_masks(d, p, seed, reps, box)
    assert masks.shape == (len(reps), *box.shape)
    for mask, rep in zip(masks, reps):
        field = PercolationField(d, p, seed, rep)
        for s in box.sites():
            idx = tuple(c - a for c, a in zip(s, box.lo))
            assert mask[idx] == field.is_closed(s), (rep, s)


@st.composite
def _site_tuples(draw):
    """One to five sites of a box of _hashed_boxes, repeats allowed, with
    its replicates or none."""
    d, p, seed, reps, box = draw(_hashed_boxes())
    sites = draw(st.lists(st.tuples(*map(st.integers, box.lo, box.hi)), min_size=1, max_size=5))
    return d, p, seed, draw(st.sampled_from((reps, []))), box, tuple(sites)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_site_tuples())
@example((2, 0.5, 3, [], BoxRegion((-3, 0), (-1, 2)), ((-3, 0),)))
@example((3, 0.7, 11, [0, 5, 2], BoxRegion((-4, -2, 0), (0, 1, 0)),
          ((-4, -2, 0), (0, 1, 0), (-1, -2, 0))))
@example((2, 0.3, -1, [9], BoxRegion((-2**40, 0), (-2**40 + 3, 4)), ((-2**40, 0),)))
def test_site_hash_matches_is_closed_and_replicate_closed_masks(case):
    """replicate_closed_sites, the hash of a screen's sites, equals
    PercolationField.is_closed and replicate_closed_masks bit for bit,
    shaped (len(sites), len(replicates)): at negative column coordinates
    and height 0, for a single site, and for no replicates."""
    d, p, seed, reps, box, sites = case
    bits = replicate_closed_sites(d, p, seed, reps, sites)
    assert bits.shape == (len(sites), len(reps)) and bits.dtype == bool
    masks = replicate_closed_masks(d, p, seed, reps, box)
    for at, site in zip(bits, sites):
        np.testing.assert_array_equal(at, masks[(slice(None), *np.subtract(site, box.lo))])
        for bit, rep in zip(at.tolist(), reps):
            assert bit == PercolationField(d, p, seed, rep).is_closed(site), (rep, site)


def test_box_independence():
    field = PercolationField(2, 0.9, master_seed=5)
    small = BoxRegion((-2, -2), (2, 2))
    big = BoxRegion((-10, -10), (10, 10))
    small_mask = field.closed_mask(small)
    big_mask = field.closed_mask(big)
    for s in small.sites():
        assert small_mask[s[0] + 2, s[1] + 2] == big_mask[s[0] + 10, s[1] + 10]


def test_monotone_coupling_exact():
    base = PercolationField(2, 0.6, master_seed=31)
    higher = PercolationField(2, 0.8, master_seed=31)
    box = BoxRegion((-50, -50), (49, 49))
    open_lo = ~base.closed_mask(box)
    open_hi = ~higher.closed_mask(box)
    assert np.all(open_hi[open_lo])  # every open site stays open


def test_height_and_radial():
    assert height((0, 0, 0)) == 0 and radial((0, 0, 0)) == 0
    assert height((2, -1, 5)) == 5 and radial((2, -1, 5)) == 3
    rng = random.Random(3)
    for _ in range(20):
        u = tuple(rng.randint(-9, 9) for _ in range(3))
        below = u[:-1] + (u[-1] - 1,)
        assert height(below) == height(u) - 1
        assert radial(below) == radial(u)


def _sphere_counts_by_enumeration(dim, n_max):
    # brute force: histogram the 1-norm over the full cube [-n_max, n_max]^dim
    grids = np.meshgrid(*[np.arange(-n_max, n_max + 1)] * dim, indexing="ij")
    norms = sum(np.abs(g) for g in grids).ravel()
    counts = np.bincount(norms, minlength=n_max + 1)
    return counts[:n_max + 1]


def test_count_l1_sphere_examples():
    assert count_l1_sphere(1, 3) == 2
    assert count_l1_sphere(2, 2) == 8 == _sphere_counts_by_enumeration(2, 2)[2]
    for dim in range(1, 5):
        assert count_l1_sphere(dim, 0) == 1


def test_count_l1_sphere_exhaustive_and_bound():
    for dim in range(1, 5):
        enumerated = _sphere_counts_by_enumeration(dim, 20)
        for n in range(0, 21):
            exact = count_l1_sphere(dim, n)
            assert exact == enumerated[n]
            if n >= 1:
                assert exact <= 2 * (2 * n + 1) ** dim


def test_dimension_mismatch_raises():
    field = PercolationField(2, 0.5, master_seed=1)
    with pytest.raises(ValueError):
        field.is_closed((1, 2, 3))
    for f in (field, closed_at(2)):
        with pytest.raises(ValueError, match="dimension"):
            f.closed_mask(BoxRegion((0, 0, 0), (1, 1, 1)))


def test_threshold_edges():
    with pytest.raises(ValueError):
        open_threshold(0.0)
    with pytest.raises(ValueError):
        open_threshold(1.0)
    assert 0 < open_threshold(0.5) < 1 << 64


def test_threshold_is_exact():
    """The threshold is p * 2^64 rounded down, with nothing added: a site is
    open iff its uniform lies below it, so a threshold one too high opens
    the sites whose uniform equals p * 2^64 exactly."""
    assert open_threshold(0.5) == 1 << 63
    assert open_threshold(0.25) == 1 << 62
    # 0.99 is not a dyadic rational: Fraction(0.99) * 2^64 rounded down
    assert open_threshold(0.99) == 18262276632972455936


def test_closed_at_fixture_masks():
    closed = closed_at(2, [(0, 1), (2, 2)])
    assert closed.is_closed((0, 1)) and not closed.is_closed((1, 1))
    box = BoxRegion((-1, -2), (3, 2))  # overhangs the config box (0, 1)-(2, 2)
    coords = np.argwhere(closed.closed_mask(box)) + box.lo
    assert set(map(tuple, coords.tolist())) == {(0, 1), (2, 2)}
    far = BoxRegion((40, -30), (45, -25))
    assert not closed_at(2).closed_mask(far).any()
    assert not closed_at(2).closed_mask(box).any()
    assert closed_at(2, box.sites()).closed_mask(box).all()


def test_explicit_config_roundtrip_and_order():
    box = BoxRegion((-1, 0), (0, 1))
    config = ExplicitConfig(box, (1, 0, 0, 1))
    # lexicographic order: (-1,0), (-1,1), (0,0), (0,1)
    assert list(box.sites()) == [(-1, 0), (-1, 1), (0, 0), (0, 1)]
    assert not config.is_closed((-1, 0))
    assert config.is_closed((-1, 1))
    assert {s for s in box.sites() if config.is_closed(s)} == {(-1, 1), (0, 0)}
    back = ExplicitConfig.from_json(config.to_json())
    assert back == config
    with pytest.raises(ValueError, match="outside box"):
        config.is_closed((5, 5))


def test_explicit_config_checks_dimension():
    # a 2-d config rejects sites and boxes of another dimension, as
    # PercolationField does, instead of reading a prefix of the site
    config = ExplicitConfig(BoxRegion((-1, 0), (1, 2)), (1,) * 9)
    assert config.d == 2
    for site in ((0, 1, 5), (0,)):
        with pytest.raises(ValueError, match="dimension"):
            config.is_closed(site)
    with pytest.raises(ValueError, match="dimension"):
        config.closed_mask(BoxRegion((0, 0, 0), (1, 1, 1)))


def test_explicit_field_mask_on_larger_offset_box():
    config = ExplicitConfig.from_bits(BoxRegion((-1, 0), (1, 2)), 0b100110101)
    box = BoxRegion((-3, -1), (0, 4))  # overhangs the config box on three sides
    mask = config.closed_mask(box)
    assert mask.shape == box.shape
    for s in box.sites():
        idx = tuple(c - a for c, a in zip(s, box.lo))
        want = config.box.contains(s) and config.is_closed(s)
        assert mask[idx] == want
    assert mask.any() and not mask.all()
    assert not config.closed_mask(BoxRegion((2, 0), (4, 2))).any()


def test_explicit_config_from_bits():
    box = BoxRegion((0, 0), (1, 1))
    config = ExplicitConfig.from_bits(box, 0b0101)
    assert config.states == (1, 0, 1, 0)


def test_explicit_config_from_bits_rejects_patterns_outside_the_box():
    box = BoxRegion((0,), (1,))
    assert ExplicitConfig.from_bits(box, 3).states == (1, 1)
    for bits in (4, 7, -1):
        with pytest.raises(ValueError, match="bits"):
            ExplicitConfig.from_bits(box, bits)


def test_box_region_rejects_non_integer_coordinates():
    box = BoxRegion((np.int64(-1), 0), (np.intp(2), np.int32(3)))
    assert box.lo == (-1, 0) and box.hi == (2, 3)
    assert all(type(c) is int for c in box.lo + box.hi)
    with pytest.raises(ValueError, match="coordinate 0.7 "):
        BoxRegion((0.7, 0), (1.9, 2))
    with pytest.raises(ValueError, match="coordinate 1.9 "):
        BoxRegion((0, 0), (1.9, 2))
    with pytest.raises(ValueError, match="coordinate 0.5 "):
        BoxRegion.from_json({"lo": [0, 0.5], "hi": [1, 2]})
    with pytest.raises(ValueError, match="coordinate '1' "):
        BoxRegion.from_json({"lo": [0, 0], "hi": ["1", 2]})
