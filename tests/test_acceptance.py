"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every tolerance is pinned here; nothing is deferred to later
calibration.  Criterion 2 is asserted exactly as stated, including its
k = 4 row, and its sample size is set by that row's bound, not by the
data.  With zero hits in n trials the 99% Wilson upper limit is
z^2/(n+z^2), which falls below the bound value b = A*nu^4 ~ 3.175e-6 only
when n >= z^2(1-b)/b ~ 2.09e6.  At 1e5 replicates the zero-hit limit is
6.6e-5, so the row could not tell a correct engine from a wrong one.  At
3e6 replicates 0 hits give 2.21e-6 and 1 hit gives 2.84e-6, both below
the bound; the test checks that precondition before it samples.  One
dimension up, at d=3 and p=0.99, the k = 4 bound is ~2.154e-5: at 4e5
replicates 0 hits give a Wilson upper of 1.659e-5 and 1 hit 2.129e-5, below
it, and 2 hits 2.561e-5, above it, so that row too can pass or fail.
"""

import hashlib
import math
import time

import pytest

from lipsurf.bounds import spread_tail_bound, surface_tail_bound
from lipsurf.brw import OffspringLaw, brw_tables
from lipsurf.harness import (Experiment, bucket_check, cover_sweep,
                             cover_tail_curve, en_check, equivariance_check,
                             monotonicity_check, spread_tail_curve,
                             surface_tail_curve, surface_validity)
from lipsurf.lattice import BoxRegion
from lipsurf.oracle import exact_event_prob, walk_reach
from lipsurf.reach import StepSet
from lipsurf.stats import wilson_interval

SEED = 20260810
# SHA-256 of each criterion's tail CSV body: outputs are a pure function of
# the config, so any change to a sampled or certified count shows here
_CSV_SHA256 = {
    "surface": "daef3fd400e714555a9c32ee1226b1b3f7ffec0c69266fd960be4d6fda7c5e5b",
    "spread": "f2d775d7be04d8de47c9b075b3f285b77f30a7f2fdae33afc7de87cb8e5be715",
    "cover": "8d15bbc48fd2a0d7cf82a7da6e774324eafc5b0d34e9a4fd7517d3fd18a3c74d",
    "surface_d3": "9b0c6e26701264469da40c825cf4144b81acafdd58d50ba83b2ec11633662954",
}


def _csv_drift(name, curve):
    """A problem line when the curve's CSV body is not the pinned one."""
    digest = hashlib.sha256(curve.to_csv().encode()).hexdigest()
    if digest != _CSV_SHA256[name]:
        return [f"{name} CSV body sha256 {digest} != pinned {_CSV_SHA256[name]}"]
    return []


def _report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {name}: {status} ({detail}; {elapsed:.1f}s / "
          f"limit {limit:.0f}s)")


def test_acceptance_1_surface_validity():
    start = time.time()
    problems = []
    detail = []
    for d in (2, 3):
        out = surface_validity(Experiment(
            kind="surface_validity", d=d, p=0.98, replicates=500, seed=SEED,
            base_radius=10))
        detail.append(f"d={d}: certified {out['certified_fraction']:.4f}, "
                      f"violations {out['openness_violations']}"
                      f"+{out['lipschitz_violations']}")
        if out["certified_fraction"] < 0.99:
            problems.append(f"d={d} certified fraction below 0.99")
        if out["openness_violations"] or out["lipschitz_violations"]:
            problems.append(f"d={d} has violations")
    elapsed = time.time() - start
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.0f}s over 2 minutes")
    _report(1, "surface validity d=2,3", not problems, "; ".join(detail),
            elapsed, 120)
    assert not problems, problems


def _exact_surface_level1_bracket(d=2, p=0.99):
    """Exact optimistic/pessimistic probabilities, on a 15-site box, of the
    origin column's floor reach holding height 1; they bracket the truth."""
    box = BoxRegion((-2, 0), (2, 2))
    bottom = [(x, 0) for x in range(-2, 3)]
    side = [s for s in box.sites() if abs(s[0]) == 2]

    def opt_hit(config):
        return (0, 1) in walk_reach(config, bottom, height_floor=0)

    def pes_hit(config):
        return (0, 1) in walk_reach(config, set(bottom) | set(side),
                                    height_floor=0)

    return (exact_event_prob(d, p, box, opt_hit),
            exact_event_prob(d, p, box, pes_hit))


def _assert_deepest_row_decidable(exp):
    """The sample must be able to decide the deepest row: a zero-hit Wilson
    upper limit above its bound would fail whatever the engine does."""
    zero_hit_hi = wilson_interval(0, exp.replicates)[1]
    deepest = surface_tail_bound(exp.d, exp.p, exp.k_max)
    assert zero_hit_hi < deepest, (
        f"{exp.replicates} replicates cannot decide k={exp.k_max}: zero-hit "
        f"Wilson upper {zero_hit_hi:.3e} >= bound {deepest:.3e}")


def test_acceptance_2_surface_tail_bound():
    start = time.time()
    exp = Experiment(kind="f_tail", d=2, p=0.99, replicates=3_000_000,
                     seed=SEED, k_max=4)
    _assert_deepest_row_decidable(exp)
    curve = surface_tail_curve(exp)
    problems = []
    lines = []
    for row in curve.rows:
        ok = row.ci_hi <= row.bound
        lines.append(f"k={row.k} ci_hi={row.ci_hi:.3e} bound={row.bound:.3e} "
                     f"{'ok' if ok else 'VIOLATED'}")
        if not ok:
            problems.append(
                f"k={row.k}: Wilson upper {row.ci_hi:.3e} > bound "
                f"{row.bound:.3e} with hits={row.hits_hi}/{row.trials}"
                + ("; at 3e6 replicates 0 hits give a Wilson upper of "
                   "2.21e-6 and 1 hit 2.84e-6, both below this bound, so "
                   "the hit count, not the sample size, fails the row"
                   if row.k == 4 else ""))
    if curve.max_unresolved_frac() >= 0.001:
        problems.append(f"unresolved fraction {curve.max_unresolved_frac()}")
    exact_lo, exact_hi = _exact_surface_level1_bracket()
    row1 = curve.rows[1]
    if not (row1.ci_lo <= exact_hi and exact_lo <= row1.ci_hi):
        problems.append(
            f"k=1 oracle cross-check failed: MC [{row1.ci_lo:.5f},"
            f"{row1.ci_hi:.5f}] vs exact bracket [{exact_lo:.5f},{exact_hi:.5f}]")
    problems += _csv_drift("surface", curve)
    elapsed = time.time() - start
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s over 5 minutes")
    _report(2, "surface-height tail vs A*nu^k", not problems,
            "; ".join(lines), elapsed, 300)
    assert not problems, problems


def test_acceptance_2_surface_tail_bound_d3():
    """Criterion 2 one dimension up, at acceptance 2's seed: every row's
    Wilson upper limit below the bound, to k = 4."""
    start = time.time()
    exp = Experiment(kind="f_tail", d=3, p=0.99, replicates=400_000,
                     seed=SEED, k_max=4)
    _assert_deepest_row_decidable(exp)
    curve = surface_tail_curve(exp)
    problems = [f"k={row.k}: Wilson upper {row.ci_hi:.3e} > bound {row.bound:.3e} "
                f"with hits={row.hits_hi}/{row.trials}"
                for row in curve.rows if row.ci_hi > row.bound]
    if curve.max_unresolved_frac() >= 0.001:
        problems.append(f"unresolved fraction {curve.max_unresolved_frac()}")
    problems += _csv_drift("surface_d3", curve)
    elapsed = time.time() - start
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s over 5 minutes")
    detail = "; ".join(f"k={row.k} hits={row.hits_hi} ci_hi={row.ci_hi:.3e} "
                       f"bound={row.bound:.3e}" for row in curve.rows)
    _report(2, "surface-height tail vs A*nu^k at d=3", not problems, detail,
            elapsed, 300)
    assert not problems, problems


def test_acceptance_3_spread_and_cover_tails():
    start = time.time()
    exp = Experiment(kind="radh_tail", d=2, p=0.99, replicates=100_000,
                     seed=SEED, k_max=5, box_margin=4, box_height=4,
                     growth_cap=5)
    spread = spread_tail_curve(exp)
    cover = cover_tail_curve(exp)
    problems = []
    for row in spread.rows[1:]:
        if row.ci_hi > row.bound:
            problems.append(f"spread k={row.k}: {row.ci_hi:.3e} > {row.bound:.3e}")
    for row in cover.rows[1:]:
        want = spread_tail_bound(2, 0.99, max(0, row.k - 1))
        if row.bound != want:
            problems.append(f"cover bound column drifted at n={row.k}")
        if row.ci_hi > row.bound:
            problems.append(f"cover n={row.k}: {row.ci_hi:.3e} > {row.bound:.3e}")
    if spread.max_unresolved_frac() >= 0.001 or cover.max_unresolved_frac() >= 0.001:
        problems.append("unresolved fraction above 0.1%")
    problems += _csv_drift("spread", spread) + _csv_drift("cover", cover)
    elapsed = time.time() - start
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s over 5 minutes")
    detail = (f"spread k=1..5 and cover n=1..6 upper CIs below bounds, "
              f"unresolved {spread.max_unresolved_frac():.2e}")
    _report(3, "spread/cover radius tails vs A*(a^2 q)^k", not problems,
            detail, elapsed, 300)
    assert not problems, problems


def test_acceptance_4_oracle_equivalence():
    start = time.time()
    sweep = cover_sweep(p=0.99, radius=2, h_max=2)
    problems = []
    if sweep["mismatches"]:
        problems.append(f"{sweep['mismatches']} cover mismatches")
    mc = spread_tail_curve(Experiment(
        kind="radh_tail", d=2, p=0.99, replicates=10_000, seed=SEED + 1,
        k_max=2, box_margin=4, box_height=4, growth_cap=5))
    for k in (1, 2):
        exact = sweep["exact_spread_tail"][k]
        row = mc.rows[k]
        if not row.ci_lo <= exact <= row.ci_hi:
            problems.append(
                f"exact P(spread>={k})={exact:.6f} outside MC CI "
                f"[{row.ci_lo:.6f},{row.ci_hi:.6f}]")
    elapsed = time.time() - start
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.0f}s over 1 minute")
    detail = (f"2^15 sweep, {sweep['both_certified']} doubly-certified configs, "
              f"0 mismatches, exact tails inside MC CIs")
    _report(4, "engine vs oracle minimal covers", not problems, detail,
            elapsed, 60)
    assert not problems, problems


def test_acceptance_5_path_counting():
    start = time.time()
    problems = []
    for d in (2, 3):
        full = bucket_check(d, 8, StepSet.FULL)
        restricted = bucket_check(d, 8, StepSet.NO_STRAIGHT_DOWN)
        if not full["passed"]:
            problems.append(f"d={d} full buckets exceed (2d)^(U+D)")
        if not restricted["passed"]:
            problems.append(f"d={d} restricted buckets exceed (2d-1)^(U+D)")
    en = en_check(2, 0.99, 8)
    en3 = en_check(3, 0.99, 8)
    if not en["passed"] or not en3["passed"]:
        problems.append("truncated expected-path sum exceeded the bound")
    elapsed = time.time() - start
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.0f}s over 1 minute")
    detail = "all (U,D) buckets within a^(U+D), truncated sums below bounds, exact"
    _report(5, "path-counting lemma, lengths <= 8", not problems, detail,
            elapsed, 60)
    assert not problems, problems


def test_acceptance_6_brw_martingale_and_survival():
    start = time.time()
    problems = []
    mu = math.log(2)
    law = OffspringLaw(2, 0.99, mu)
    alpha = law.alpha()
    closed_form = 0.01 * 2 * (0.99 * 2 / (1 - 0.01 * 2))
    if abs(alpha - closed_form) > 1e-10:
        problems.append("closed form vs series disagree beyond 1e-10")
    if law.cap_remainder() >= 1e-6:
        problems.append(f"truncation mass {law.cap_remainder():.2e} >= 1e-6")
    runs = 10_000
    # one evolution per run feeds both tables; survival rows 0-8 are those
    # of brw_tables(law, 8, ...), which test_brw checks
    mart, surv = brw_tables(law, 10, runs, master_seed=SEED)
    for row in mart[1:]:
        se = law.mean_standard_error(row.n, runs)
        if abs(row.mean_s - row.alpha_pow) > 3 * se + row.cap_bias:
            problems.append(
                f"martingale n={row.n}: |{row.mean_s:.3e} - {row.alpha_pow:.3e}|"
                f" > 3*{se:.3e}")
    for row in surv[1:9]:
        if row.frequency > row.bound + row.allowance:
            problems.append(
                f"survival n={row.n}: {row.frequency:.3e} > bound "
                f"{row.bound:.3e} + allowance {row.allowance:.3e}")
    elapsed = time.time() - start
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.0f}s over 2 minutes")
    detail = (f"alpha={alpha:.7f}, means within 3 exact SEs for n<=10, "
              f"survival below alpha^n*E(e^(mu*C)) for n<=8")
    _report(6, "dominating BRW martingale and survival", not problems,
            detail, elapsed, 120)
    assert not problems, problems


def test_acceptance_7_equivariance_and_monotonicity():
    start = time.time()
    problems = []
    eq = equivariance_check(Experiment(
        kind="equivariance", d=3, p=0.98, replicates=100, seed=SEED,
        base_radius=2))
    if eq["isometries"] != 8:
        problems.append(f"expected 8 isometries, saw {eq['isometries']}")
    if eq["mismatches"]:
        problems.append(f"{eq['mismatches']} equivariance mismatches")
    mono = monotonicity_check(Experiment(
        kind="monotonicity", d=2, p_grid=(0.97, 0.99), replicates=100,
        seed=SEED, base_radius=10))
    if mono["violations"]:
        problems.append(f"{mono['violations']} monotonicity violations")
    elapsed = time.time() - start
    detail = (f"8 isometries x 100 replicates exact; "
              f"{mono['pairs_checked']} coupled column pairs, 0 increases")
    _report(7, "equivariance and coupled monotonicity", not problems,
            detail, elapsed, 600)
    assert not problems, problems
