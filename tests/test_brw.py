import builtins
import math

import numpy as np
import pytest

from lipsurf import brw
from lipsurf.brw import BrwRun, MartingaleRow, OffspringLaw, brw_tables, run_key
from lipsurf.lattice import absorb, count_l1_sphere
from lipsurf.stats import ltr_sum, mean_and_se

LAW = OffspringLaw(2, 0.99, math.log(2))


def test_offspring_children_are_displaced_geometrically():
    # child at parent - n + g with g >= 1 means location >= parent - depth_cap
    kids = []
    for i in range(400):
        children, _ = _array_n_offspring(0, LAW, run_key(1, i))
        kids.extend(loc for loc, _ in children)
    assert kids
    assert min(kids) >= -LAW.depth_cap  # g >= 1 keeps children above -cap
    assert max(kids) >= 0 or len(kids) < 50  # geometric upside occasionally


def test_offspring_mean_count():
    # expected children per particle is q * sum of level counts
    law = OffspringLaw(2, 0.9999, math.log(2), depth_cap=40)
    expect = law.q * sum(count_l1_sphere(1, n) for n in range(1, 41))
    counts = [run.population[1] for run in brw._evolve_runs(law, 1, 7, range(10000))]
    mean, se = mean_and_se(counts)
    assert abs(mean - expect) <= 3 * max(se, 1e-6)


def test_offspring_weighted_sum_matches_laplace():
    sums = [run.s_values[1] + run.discarded_cum[1]
            for run in brw._evolve_runs(LAW, 1, 21, range(10000))]
    mean, _ = mean_and_se(sums)
    exact_se = math.sqrt(
        (LAW.offspring_second_moment() - LAW.alpha() ** 2) / len(sums))
    assert abs(mean - LAW.alpha_truncated()) <= 3 * exact_se


def test_second_moment_matches_empirical_variance():
    vals = [run.s_values[1] for run in brw._evolve_runs(LAW, 1, 31, range(20000))]
    emp_var = float(np.var(vals, ddof=1))
    th_var = LAW.s_second_moment(1) - LAW.alpha() ** 2
    assert abs(emp_var - th_var) / th_var < 0.25


def test_martingale_means_within_exact_se():
    rows, _ = brw_tables(LAW, 6, 4000, master_seed=11)
    for r in rows[1:]:
        se = LAW.mean_standard_error(r.n, 4000)
        assert abs(r.mean_s - r.alpha_pow) <= 3 * se + r.cap_bias
    assert rows[0].mean_s == 1.0


def test_cap_remainder_tiny():
    assert 0 <= LAW.cap_remainder() < 1e-9


def test_extinction_is_absorbing():
    for law in (LAW, OffspringLaw(2, 0.95, math.log(2), weight_floor=0.05)):
        seen_extinct = seen_pruned = False
        for run in brw._evolve_runs(law, 8, 77, range(100)):
            died = None
            for n, pop in enumerate(run.population):
                if pop == 0:
                    died = n
                    break
            if died is not None:
                seen_extinct = True
                assert all(p == 0 for p in run.population[died:])
                assert all(s == 0.0 for s in run.s_values[died:])
                assert all(m is None for m in run.max_locations[died:])
                # the int 0 that sum() gives an empty generation
                assert all(type(s) is int for s in run.s_values[died:])
                # nothing is pruned after extinction: the tally stays put
                assert run.discarded_cum[died:] == (run.discarded_cum[died],) * (9 - died)
                seen_pruned |= run.discarded_cum[died] > 0.0
        assert seen_extinct
        assert seen_pruned == (law.weight_floor > 0.0)


def test_pruning_monotone_and_accounted():
    # on the keyed stream, raising the floor only removes weight, and the
    # first generation's kept-plus-discarded weight is exactly conserved
    law0 = OffspringLaw(2, 0.95, math.log(2), weight_floor=0.0)
    law1 = OffspringLaw(2, 0.95, math.log(2), weight_floor=0.05)
    law2 = OffspringLaw(2, 0.95, math.log(2), weight_floor=0.10)
    batches = [brw._evolve_runs(law, 4, 5, range(200)) for law in (law0, law1, law2)]
    for runs in zip(*batches):
        for a, b in zip(runs, runs[1:]):
            for n in range(5):
                assert b.s_values[n] <= a.s_values[n] + 1e-12
        s0_kept_plus_dropped = runs[1].s_values[1] + runs[1].discarded_cum[1]
        assert math.isclose(s0_kept_plus_dropped, runs[0].s_values[1],
                            rel_tol=1e-12, abs_tol=1e-15)


def test_shift_consistency():
    # the shifted run is the plain one moved up by C, also under a binding
    # particle cap; brw_tables reads zero-floor survival hits off that
    law2, law3 = OffspringLaw(2, 0.95, math.log(2)), OffspringLaw(3, 0.99, 0.5)
    cases = [(LAW, 100_000, [3] * 50),
             (law2, 50, brw._sample_shifts(law2, 13, range(50))),
             (law3, 50, brw._sample_shifts(law3, 13, range(50)))]
    for law, cap, shifts in cases:
        truncated = 0
        plains = brw._evolve_runs(law, 5, 13, range(50), particle_cap=cap)
        shifteds = brw._evolve_runs(law, 5, 13, range(50), shifts, particle_cap=cap)
        for c, plain, shifted in zip(shifts, plains, shifteds):
            assert shifted.max_locations == tuple(
                None if m is None else m + c for m in plain.max_locations)
            assert shifted.population == plain.population
            assert shifted.truncated == plain.truncated
            assert plain.discarded_cum == shifted.discarded_cum == (0.0,) * 6
            truncated += plain.truncated
        assert truncated > 0 or cap == 100_000
    assert brw._evolve_runs(LAW, 2, 13, [0], [2])[0].s_values[0] == math.exp(LAW.mu * 2)
    assert brw._evolve_runs(LAW, 2, 13, [0])[0].s_values[0] == 1.0


def _martingale_reference(law, generations, runs, master_seed):
    """The martingale table by its definition: per generation, the mean and
    standard error of S_n over the unshifted runs, alpha^n, the cap bias and
    the mean discarded weight."""
    plain = brw._evolve_runs(law, generations, master_seed, range(runs))
    alpha, alpha_cap = law.alpha(), law.alpha_truncated()
    rows = []
    for n in range(generations + 1):
        mean, se = mean_and_se([run.s_values[n] for run in plain])
        rows.append(MartingaleRow(
            n, mean, se, alpha ** n, alpha ** n - alpha_cap ** n,
            ltr_sum(run.discarded_cum[n] for run in plain) / runs))
    return rows


@pytest.mark.parametrize("floor", [0.0, 0.05, 0.9])
def test_brw_tables_match_martingale_table_and_shifted_evolves(floor):
    law = OffspringLaw(2, 0.95, 0.5, weight_floor=floor)
    # at seed 53 and floor 0.9 one run's hits differ between the shifted
    # run and the plain run plus C, so a floored table must evolve both
    mart, surv = brw_tables(law, 4, 40, master_seed=53)
    assert mart == _martingale_reference(law, 4, 40, 53)
    hits = [0] * 5
    shifts = brw._sample_shifts(law, 53, range(40))
    for run in brw._evolve_runs(law, 4, 53, range(40), shifts):
        for n, m in enumerate(run.max_locations):
            hits[n] += m is not None and m > 0
    assert [row.hits for row in surv] == hits
    assert any(hits[1:])


@pytest.mark.parametrize("law", [
    OffspringLaw(2, 0.9, 0.5, depth_cap=5),
    OffspringLaw(2, 0.9, 0.5, depth_cap=5, weight_floor=0.3),
    OffspringLaw(3, 0.97, 0.5, depth_cap=3),
    OffspringLaw(3, 0.97, 0.5, depth_cap=3, weight_floor=0.3),
])
def test_brw_tables_prefix_is_the_shorter_survival_curve(law):
    """One brw_tables pass over 10 generations gives the reference
    martingale rows and, in its rows 0-8, the tables of a brw_tables pass
    over 8 generations, as acceptance 6 reads them."""
    mart, surv = brw_tables(law, 10, 300, master_seed=7)
    assert mart == _martingale_reference(law, 10, 300, 7)
    short_mart, short_surv = brw_tables(law, 8, 300, master_seed=7)
    assert (mart[:9], surv[:9]) == (short_mart, short_surv)
    assert any(row.hits for row in surv[2:9])
    assert (mart[-1].mean_discarded > 0.0) == (law.weight_floor > 0.0)


def test_determinism():
    a = brw._evolve_runs(LAW, 6, 99, [5])
    b = brw._evolve_runs(LAW, 6, 99, [5])
    assert a == b
    assert brw._sample_shifts(LAW, 99, [5]) == brw._sample_shifts(LAW, 99, [5])
    assert brw._sample_shifts(LAW, 99, [5])[0] >= 1
    # shifts drawn in one batch are those of their keyed generators
    law = OffspringLaw(2, 0.3, 0.5)  # a small p spreads the shifts out
    assert brw._sample_shifts(law, 99, range(20)) == [
        int(np.random.default_rng(absorb(run_key(99, r), brw._SHIFT_TAG))
            .geometric(law.p)) for r in range(20)]


def test_survival_rows():
    _, rows = brw_tables(LAW, 6, 3000, master_seed=17)
    # the shifted root starts at C >= 1, so generation 0 always survives
    assert rows[0].frequency == 1.0
    for r in rows[1:]:
        assert r.frequency <= r.bound + r.allowance
    # nonincreasing within the interval slack
    for a, b in zip(rows[1:], rows[2:]):
        assert b.frequency <= a.frequency + (a.ci_hi - a.frequency)


def test_invalid_law_params():
    with pytest.raises(ValueError):
        OffspringLaw(1, 0.99, 0.5)
    with pytest.raises(ValueError):
        OffspringLaw(2, 0.99, -0.5)
    with pytest.raises(ValueError):
        OffspringLaw(2, 1.5, 0.5)
    nan = float("nan")
    with pytest.raises(ValueError, match="mu"):
        OffspringLaw(2, 0.99, nan)
    with pytest.raises(ValueError, match="weight_floor"):
        OffspringLaw(2, 0.99, 0.5, weight_floor=nan)
    with pytest.raises(ValueError, match="weight_floor"):
        OffspringLaw(2, 0.99, 0.5, weight_floor=-0.1)


def _array_n_offspring(location, law, key):
    """Reference draw of one particle's children: the level counts from an
    array of sites per level, every level walked in order."""
    rng = np.random.default_rng(key)
    taus = np.array([count_l1_sphere(law.d - 1, n)
                     for n in range(1, law.depth_cap + 1)])
    children, discarded = [], 0.0
    for n, c in enumerate(rng.binomial(taus, law.q).tolist(), start=1):
        for j in range(c):
            loc = location - n + int(rng.geometric(law.p))
            w = math.exp(law.mu * loc)
            if w < law.weight_floor:
                discarded += w
            else:
                children.append((loc, absorb(absorb(key, n), j)))
    return children, discarded


@pytest.mark.parametrize("d", [2, 3])
def test_offspring_draws_match_the_array_binomial(d):
    """At d=2 every level has two sites and the walk's counts come from
    numpy's scalar-n binomial; its stream must equal the array form's, run
    by run over two generations.  d=3 takes the array form and checks the
    walk over nonzero levels."""
    assert isinstance(brw._level_counts(2, 30), int)
    law = OffspringLaw(d, 0.9, 0.5, weight_floor=0.3)
    runs = brw._evolve_runs(law, 2, 17, range(200), [3] * 200)
    assert runs == [_one_particle_at_a_time(law, 2, 17, i, 3, 100_000)
                    for i in range(200)]
    assert sum(run.population[1] > 0 for run in runs) > 100


def test_pcg64_states_pin_numpy_seeding():
    """_pcg64_states is numpy's SeedSequence and PCG64 seeding, key by key:
    one-word keys, the first two-word key, the largest key, random keys."""
    keys = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    keys += np.random.default_rng(2024).integers(0, 2**64, 1000, np.uint64).tolist()
    got = brw._pcg64_states(np.array(keys, np.uint64))
    assert len(got) == len(keys)
    for key, (state, inc) in zip(keys, got):
        want = np.random.default_rng(key).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"]), key


def test_reseeded_generator_draws_as_default_rng():
    """The Generator a batch reseeds makes default_rng(key)'s draws: level
    counts by scalar-n and by array-n binomial, then geometrics one at a
    time and as an array, also with the keys visited out of order, with
    one Generator reseeded by several _seeder passes in turn, and for
    batches of one and of two keys."""
    rng = np.random.default_rng(0)
    taus = 4 * np.arange(1, 31)

    def draws(rng):
        return (rng.binomial(2, 0.1, 30).tolist(), rng.binomial(taus, 0.1).tolist(),
                [int(rng.geometric(0.3)) for _ in range(5)],
                rng.geometric(0.3, 4).tolist())

    for seed, size in ((5, 40), (6, 40), (7, 1), (8, 2)):
        keys = np.array([run_key(seed, i) for i in range(size)], np.uint64)
        seeded = brw._seeder(keys, rng)
        for i in [*range(0, size, 2), *range(size - 1, 0, -2)]:
            got = seeded(i)
            assert got is rng
            assert draws(got) == draws(np.random.default_rng(int(keys[i]))), i


def _one_particle_at_a_time(law, generations, seed, run_index, shift, cap):
    """_evolve_runs' semantics for one run, with every particle's children
    drawn by _array_n_offspring from default_rng(key), and no early stop:
    the reference for batched runs."""
    loc0 = 0 if shift is None else shift
    particles = [(loc0, run_key(seed, run_index))]
    s, top, pop, disc = [math.exp(law.mu * loc0)], [loc0], [1], [0.0]
    discarded, truncated = 0.0, False
    for _ in range(generations):
        nxt = []
        for loc, key in particles:
            kids, dropped = _array_n_offspring(loc, law, key)
            discarded += dropped
            nxt.extend(kids)
            if len(nxt) > cap:
                truncated = True
                nxt = nxt[:cap]
                break
        particles = nxt
        s.append(ltr_sum(math.exp(law.mu * loc) for loc, _ in particles))
        top.append(max(loc for loc, _ in particles) if particles else None)
        pop.append(len(particles))
        disc.append(discarded)
    return BrwRun(tuple(s), tuple(top), tuple(pop), tuple(disc), truncated)


@pytest.mark.parametrize("lockstep", [brw._LOCKSTEP_PARTICLES, 5])
@pytest.mark.parametrize("law, cap", [
    (OffspringLaw(2, 0.95, math.log(2)), 100_000),
    (OffspringLaw(2, 0.95, math.log(2), weight_floor=0.05), 100_000),
    (OffspringLaw(3, 0.99, 0.5), 50),
    (OffspringLaw(3, 0.95, 0.5, weight_floor=0.01), 20),
])
def test_evolve_runs_equal_one_run_at_a_time(monkeypatch, law, cap, lockstep):
    """Runs in lockstep, whole or in halves (a small lockstep budget), equal
    batches of one and a one-particle-at-a-time reference: under a
    binding cap, and with pruned weight tallied bit for bit."""
    monkeypatch.setattr(brw, "_LOCKSTEP_PARTICLES", lockstep)
    runs, generations = 20, 3
    shifts = brw._sample_shifts(law, 9, range(runs))
    for run_shifts in (None, shifts):
        starts = run_shifts or [None] * runs
        batch = brw._evolve_runs(law, generations, 9, range(runs), run_shifts,
                                 particle_cap=cap)
        ones = [brw._evolve_runs(law, generations, 9, [r],
                                 None if run_shifts is None else [run_shifts[r]],
                                 particle_cap=cap)[0] for r in range(runs)]
        assert batch == ones
        assert ones == [_one_particle_at_a_time(law, generations, 9, r,
                                                starts[r], cap)
                        for r in range(runs)]
        assert ([[x.hex() for x in run.discarded_cum] for run in batch]
                == [[x.hex() for x in run.discarded_cum] for run in ones])
        assert any(run.truncated for run in batch) == (cap < 100_000)
        assert (any(run.discarded_cum[-1] > 0.0 for run in batch)
                == (law.weight_floor > 0.0))


def _compensated_sum(iterable, /, start=0):
    """builtins.sum as Python 3.12 computes it: float terms added to a float
    total with Neumaier compensation, everything else added plainly."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    if type(total) is float and comp and math.isfinite(comp):
        total += comp
    return total


def test_brw_tables_do_not_depend_on_the_sum_builtin(monkeypatch):
    """The tables add floats left to right on every Python: under a
    compensated builtin sum, as on 3.12, every row stays bit for bit."""
    assert ltr_sum([0.1] * 10) == 0.9999999999999999
    assert _compensated_sum([0.1] * 10) == 1.0
    law = OffspringLaw(2, 0.95, 0.5, weight_floor=0.05)
    want = brw_tables(law, 4, 40, 53)
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert brw_tables(law, 4, 40, 53) == want
