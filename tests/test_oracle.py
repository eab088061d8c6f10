import math

import pytest

from lipsurf.bounds import HypothesisError, path_sum_bound
from lipsurf.lattice import BoxRegion, ExplicitConfig
from lipsurf.oracle import (NoCoverInBox, all_local_covers, attained_spread,
                            cover_fixed_point, enum_paths, exact_event_prob,
                            partial_expected_visits, step_vectors, walk_reach)
from lipsurf.reach import StepSet


def test_step_vectors_d2():
    full = set(step_vectors(2, StepSet.FULL))
    assert full == {(0, 1), (0, -1), (1, -1), (-1, -1)}
    restricted = set(step_vectors(2, StepSet.NO_STRAIGHT_DOWN))
    assert restricted == full - {(0, -1)}


def test_step_vectors_cardinality():
    for d in range(2, 7):
        assert len(step_vectors(d, StepSet.FULL)) == 2 * d
        assert len(step_vectors(d, StepSet.NO_STRAIGHT_DOWN)) == 2 * d - 1
        assert len(set(step_vectors(d, StepSet.FULL))) == 2 * d


def test_enum_paths_single_step():
    enum = enum_paths(2, StepSet.FULL, 1)
    assert enum.nonempty_count() == 4
    assert enum.by_ud[(0, 0)] == 1  # the empty path
    assert enum.by_ud[(1, 0)] == 1
    assert enum.by_ud[(0, 1)] == 3
    restricted = enum_paths(2, StepSet.NO_STRAIGHT_DOWN, 1)
    assert restricted.nonempty_count() == 3
    assert restricted.by_ud[(0, 1)] == 2


def test_enum_paths_bucket_bound():
    from lipsurf.harness import bucket_check
    assert bucket_check(2, 6)["passed"]
    assert bucket_check(2, 6, StepSet.NO_STRAIGHT_DOWN)["passed"]


def test_partial_expected_visits_examples():
    # a single upward path of length one carries weight q
    got = partial_expected_visits(2, 0.99, 1, 0, 1)
    assert math.isclose(got, 1 - 0.99, rel_tol=1e-12)
    # the empty path alone contributes 1 to the (0, 0) region
    total = partial_expected_visits(2, 0.99, 0, 0, 6)
    assert total >= 1.0
    assert total <= path_sum_bound(2, 0.99, 0, 0)


def test_partial_expected_visits_all_pairs_below_bound():
    from lipsurf.harness import en_check
    out = en_check(2, 0.99, 7)
    assert out["passed"], out


def test_partial_expected_visits_errors_distinct():
    with pytest.raises(HypothesisError):
        partial_expected_visits(2, 0.9, 0, 0, 4)
    with pytest.raises(ValueError) as err:
        partial_expected_visits(2, 0.99, -2, 1, 4)
    assert not isinstance(err.value, HypothesisError)


def test_exact_event_prob_total_mass_and_marginal():
    box = BoxRegion((-1, 0), (1, 1))  # 6 sites
    assert math.isclose(exact_event_prob(2, 0.73, box, lambda c: True), 1.0,
                        rel_tol=1e-12)
    p_open = exact_event_prob(2, 0.73, box, lambda c: not c.is_closed((0, 0)))
    assert math.isclose(p_open, 0.73, rel_tol=1e-12)


def test_exact_event_prob_spread_example():
    # the climb from (0,0) moves at all only when (0,1) is closed
    box = BoxRegion((-1, 0), (1, 1))
    got = exact_event_prob(2, 0.99, box,
                           lambda c: attained_spread(c, (0,)) >= 1)
    assert math.isclose(got, 0.01, rel_tol=1e-9)


def test_exact_event_prob_size_guard():
    with pytest.raises(ValueError):
        exact_event_prob(2, 0.5, BoxRegion((-3, 0), (3, 3)), lambda c: True)


def test_cover_fixed_point_examples():
    box = BoxRegion((-2, 0), (2, 2))
    all_open = ExplicitConfig(box, (1,) * box.size)
    cover = cover_fixed_point(all_open, (0,))
    assert cover.entries == {(0,): 1}
    states = [0 if s == (0, 1) else 1 for s in box.sites()]
    one_closed = ExplicitConfig(box, tuple(states))
    cover = cover_fixed_point(one_closed, (0,))
    assert cover.entries == {(0,): 2, (1,): 1, (-1,): 1}
    assert cover.cover_radius == 2 and cover.spread_radius == 1


def test_cover_fixed_point_no_cover():
    box = BoxRegion((-1, 0), (1, 1))
    all_closed = ExplicitConfig(box, (0,) * box.size)
    out = cover_fixed_point(all_closed, (0,))
    assert isinstance(out, NoCoverInBox)


def test_cover_fixed_point_confluent():
    box = BoxRegion((-2, 0), (2, 2))
    for bits in range(0, 1 << box.size, 97):  # strided sample of configs
        config = ExplicitConfig.from_bits(box, bits)
        results = [cover_fixed_point(config, (0,), shuffle_seed=s)
                   for s in (None, 1, 2, 3)]
        heads = [r.entries if not isinstance(r, NoCoverInBox) else None
                 for r in results]
        assert all(h == heads[0] for h in heads)


def test_cover_fixed_point_minimal_among_all_covers():
    # on every tiny configuration, the fixed point is itself a valid cover
    # and sits below every enumerated valid cover pointwise
    box = BoxRegion((-1, 0), (1, 2))
    for bits in range(1 << box.size):
        config = ExplicitConfig.from_bits(box, bits)
        covers = all_local_covers(config, (0,), 2)
        out = cover_fixed_point(config, (0,), 2)
        if isinstance(out, NoCoverInBox):
            assert not covers
            continue
        full = {c: out.entries.get(c, 0) for c in [(-1,), (0,), (1,)]}
        assert full in covers
        for cover in covers:
            assert all(full[c] <= cover[c] for c in full)


def test_walk_reach_respects_floor_and_admissibility():
    box = BoxRegion((-1, 0), (1, 2))
    states = [0 if s == (0, 1) else 1 for s in box.sites()]
    config = ExplicitConfig(box, tuple(states))
    got = walk_reach(config, [(0, 0)], height_floor=0)
    assert got == frozenset({(0, 0), (0, 1), (1, 0), (-1, 0)})
